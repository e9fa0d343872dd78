"""Ablation grid over positional-encoding scheme and sequence length.

Each cell lays its scheme, position-table length, seed and step count over
one base run config, trains through ``Trainer.train`` into its own directory
and is evaluated at the training and the extrapolated length. An absolute
table built for the training length cannot address longer sequences; that
failure is recorded as an out-of-range cell rather than a crash.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .synth import make_offset_copy_examples
from .train import Trainer, evaluate

NUM_SYMBOLS, OFFSET = 48, -3

# Every cell's run config, before its scheme, max_seq_len, seed and steps.
BASE_CONFIG = {
    "model": {"vocab_size": 5 + NUM_SYMBOLS, "d_model": 32, "num_layers": 1,
              "num_heads": 2, "ffn_size": 64},
    "schedule": {"lr_max": 0.003},
    "optimizer": "adam", "weight_decay": 0.0, "batch_size": 8, "checkpoint_every": 0,
}


@dataclass
class AblationGrid:
    schemes: list[str] = field(default_factory=lambda: ["pape", "prpe", "frpe"])
    sl_train: int = 32
    sl_eval: int = 64
    steps: int = 1500
    seed: int = 0
    pape_max_position: int | None = None  # default: sl_train (hard length limit)


def _cell_config(grid: AblationGrid, scheme: str, out_dir) -> RunConfig:
    """The run config a cell trains under; a bad grid raises ConfigError."""
    for n in (grid.sl_train, grid.sl_eval):
        try:  # zero examples: only the task geometry is checked
            make_offset_copy_examples(0, n, NUM_SYMBOLS, OFFSET, rng=None)
        except ValueError as exc:
            raise ConfigError(f"invalid ablation grid: {exc}") from None
    maxpos = grid.sl_train if grid.pape_max_position is None else grid.pape_max_position
    if maxpos < 1:
        raise ConfigError(f"invalid ablation grid: pape_max_position={maxpos} must be >= 1")
    return RunConfig.from_dict({
        **BASE_CONFIG,
        "model": {**BASE_CONFIG["model"], "scheme": scheme,
                  "max_seq_len": maxpos if scheme == "pape" else grid.sl_train},
        "schedule": {**BASE_CONFIG["schedule"], "warmup_steps": max(1, grid.steps // 10),
                     "total_steps": grid.steps},
        "total_steps": grid.steps, "out_dir": str(out_dir),
        # Offset-copy queries are the masked positions under either masking
        # strategy, so the grid has no strategy axis. The seed still hashes
        # "char", so each cell trains exactly as its former char cell did.
        "seed": grid.seed + hash_cell(scheme, "char") % 1000,
    })


def run_cell(grid: AblationGrid, scheme: str, out_dir) -> dict:
    """Train one grid cell into ``out_dir``, on a pool of offset-copy examples
    drawn from the cell seed, and measure its accuracy at both lengths."""
    config = _cell_config(grid, scheme, out_dir)
    pool = make_offset_copy_examples(config.total_steps * config.batch_size, grid.sl_train,
                                     NUM_SYMBOLS, OFFSET, np.random.default_rng([config.seed, 0]))
    trainer = Trainer(config, pool)
    trainer.train()

    eval_rng = np.random.default_rng([config.seed, 999_999])
    train_len, eval_len = (make_offset_copy_examples(64, n, NUM_SYMBOLS, OFFSET, eval_rng)
                           for n in (grid.sl_train, grid.sl_eval))
    try:
        accuracy, status = evaluate(trainer.model, eval_len)["mlm_accuracy"], "ok"
    except IndexError as exc:
        accuracy, status = None, f"out-of-range: {exc}"
    return {"scheme": scheme, "sl_train": grid.sl_train, "sl_eval": grid.sl_eval,
            "accuracy_train_len": evaluate(trainer.model, train_len)["mlm_accuracy"],
            "accuracy_eval_len": accuracy, "status": status, "run_config": config.to_dict()}


def hash_cell(scheme: str, strategy: str) -> int:
    # Stable across processes (unlike built-in hash of str).
    return sum(ord(c) * (i + 1) for i, c in enumerate(scheme + ":" + strategy))


def run_grid(grid: AblationGrid, out_dir) -> list[dict]:
    """Run every cell into ``out_dir/<scheme>``; write ``out_dir/results.json``.

    Every cell's config is built before the first cell trains, so a bad grid
    fails before any work is done.
    """
    out_dir = Path(out_dir)
    for scheme in grid.schemes:
        _cell_config(grid, scheme, out_dir / scheme)
    repeated = [s for i, s in enumerate(grid.schemes) if s in grid.schemes[:i]]
    if repeated:  # its cells would train into one directory
        raise ConfigError(f"invalid ablation grid: scheme {repeated[0]!r} is repeated")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [run_cell(grid, scheme, out_dir / scheme) for scheme in grid.schemes]
    payload = {"grid": asdict(grid), "seed": grid.seed, "rows": rows}
    (out_dir / "results.json").write_text(json.dumps(payload, indent=2) + "\n",
                                          encoding="utf-8")
    return rows
