"""Attention forward+backward against sequence length, one cell per process.

Each cell times ``multi_head_attention`` forward plus backward at d_model 128
with 4 heads for one positional scheme and one sequence length, and reports
its own peak RSS. A fresh process per cell keeps each cell's peak RSS its own.

    python3 perfbench/sweep.py <scheme> <n>      # prints one JSON object
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

SCHEMES = ("none", "frpe", "prpe")
LENGTHS = (64, 128, 256, 512)
D_MODEL, HEADS, PRPE_CLIP = 128, 4, 16
MIN_REPS, MIN_SECONDS = 2, 1.0
CELL_TIMEOUT_S = 60


def cell_name(scheme: str, n: int) -> str:
    return f"{scheme}.n{n}"


def run_cell(scheme: str, n: int) -> dict:
    """Median fwd+bwd time of one cell after one warm-up pass."""
    import resource

    import numpy as np

    from relpe.attention import AttentionConfig, init_head_weights, multi_head_attention
    from relpe.posenc import Scheme, build_rel_table
    from relpe.tensor import Tensor

    rng = np.random.default_rng([n, SCHEMES.index(scheme)])
    cfg = AttentionConfig(num_heads=HEADS, d_model=D_MODEL, scheme=scheme)
    weights = init_head_weights(cfg, rng)
    table = None
    if Scheme(scheme).relative:
        table = build_rel_table(n, cfg.d_z, Scheme(scheme), rng_seed=n, clip=PRPE_CLIP)
    x = Tensor(rng.normal(size=(n, D_MODEL)), requires_grad=True)
    probe = Tensor(rng.normal(size=(n, D_MODEL)))

    params = [x, *weights.parameters().values(),
              *(table.parameters().values() if table else ())]

    def fwd_bwd():
        for p in params:
            p.zero_grad()
        out = multi_head_attention(x, weights, cfg, table=table)
        (out * probe).sum().backward()
        if not np.all(np.isfinite(x.grad)):
            raise FloatingPointError(f"non-finite input gradient in cell {scheme}.n{n}")

    fwd_bwd()
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        fwd_bwd()
        times.append(time.perf_counter() - t0)
    return {"ms": 1000.0 * float(np.median(times)), "reps": len(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_sweep() -> tuple[dict, dict]:
    """Run every cell in its own process, one at a time.

    Returns ({cell: result}, {cell: error}); a failed cell has an error
    instead of a result.
    """
    results, errors = {}, {}
    for scheme in SCHEMES:
        for n in LENGTHS:
            name = cell_name(scheme, n)
            try:
                proc = subprocess.run([sys.executable, __file__, scheme, str(n)],
                                      capture_output=True, text=True, timeout=CELL_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                errors[name] = f"sweep cell {name}: timed out after {CELL_TIMEOUT_S} s"
                continue
            if proc.returncode != 0:
                errors[name] = f"sweep cell {name}: {proc.stderr.strip()[-500:]}"
                continue
            results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results, errors


if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(json.dumps(run_cell(sys.argv[1], int(sys.argv[2]))))
