"""relpe training benchmark: one workload in one single-threaded process.

    python3 perfbench/run.py --workload mlm_full --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The seed drives corpus generation, example
building, model init and ``RunConfig.seed``; relpe receives only the
generated inputs. Training is a closed loop: each step starts after the
previous one ends. A run sets up three times (here and in two child
processes) and reports the median set-up time, then trains in rounds of a
fixed number of steps, each from a fresh model, until ``--seconds`` have
passed (two rounds at least). Every round must give a bitwise-identical
held-out loss.

Times are scaled to a nominal host speed with the workload's reference
kernel from ``reference.py``, which runs before and after every timed
operation; its own time is left out of every figure.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` one untraced and one traced round give the per-layer metrics,
and the attention sweep of ``sweep.py`` runs. A failed step, evaluation or
output check counts in ``failed``; any failure makes the exit code 1.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("mlm_full", "mlm_mixed", "long_frpe")
SETUPS = 3          # set-ups per run, the first in this process
WARMUP_STEPS = 2
EVAL_SECONDS = 3.0  # held-out evaluation passes per round, at least one


def import_program():
    """Put the checkout's ``src`` first on the path; exit if relpe is not there."""
    src = ROOT / "src"
    if not (src / "relpe" / "__init__.py").is_file():
        sys.exit(f"relpe sources not found under {src}")
    sys.path.insert(0, str(src))


class Ledger:
    """Operations attempted (steps, evaluations, output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class TokenCountingList(list):
    """Training examples that count the tokens of every example handed out.

    Only real tokens exist in an example, so padding added by the trainer
    can never count.
    """
    tokens = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        items = item if isinstance(index, slice) else [item]
        self.tokens += sum(len(ex.tokens) for ex in items)
        return item


def setup(workload: str, seed: int, workdir: Path, steps: int | None):
    """Generate inputs, build a model and take warm-up steps.

    Returns the inputs, the set-up time scaled to the nominal host speed, and
    the reference kernel.
    """
    import workloads
    from reference import Reference
    from relpe.train import Trainer

    inputs = workloads.build(workload, seed, workdir, steps)
    warm = Trainer(inputs.config, inputs.train)
    for t in range(1, WARMUP_STEPS + 1):
        warm.run_step(t)
    setup_s = time.perf_counter() - PROCESS_START
    ref = Reference(workloads.REFERENCE[workload])
    return inputs, setup_s * ref.scale(passes=5), ref


def child_setup_s(args) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only", *(["--steps", str(args.steps)] if args.steps else [])],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_round(inputs, workdir: Path, ledger: Ledger, ref, tracer=None) -> dict:
    """Train one round from a fresh model, check its outputs, evaluate it.

    Times come in pairs (measured seconds, scale to nominal host speed); the
    scale of an operation averages the reference passes just before and
    just after it.
    """
    import numpy as np
    from relpe.train import Trainer, evaluate

    config = inputs.config
    examples = TokenCountingList(inputs.train)
    trainer = Trainer(config, examples)
    steps = []
    paused_s = 0.0  # node counting and reference passes inside Trainer.train
    before = ref.scale()

    def timed_step(t):
        nonlocal paused_s, before
        ledger.attempted += 1
        t0 = time.perf_counter()
        try:
            record = type(trainer).run_step(trainer, t)
        except Exception as exc:
            ledger.failures.append(f"step {t}: {exc!r}")
            raise
        t1 = time.perf_counter()
        if tracer:
            tracer.count_nodes()
        after = ref.scale()
        steps.append((t1 - t0, (before + after) / 2))
        before = after
        paused_s += time.perf_counter() - t1
        return record

    trainer.run_step = timed_step
    out = workdir / "round"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    trainer.train(out_dir=out)
    train_s = time.perf_counter() - t0 - paused_s

    records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    records = [r for r in records if "step" in r]
    ledger.check(len(records) == config.total_steps,
                 f"{len(records)} logged steps, expected {config.total_steps}")
    for r in records:
        ledger.check(np.isfinite(r["loss"]), f"non-finite logged loss at step {r['step']}")

    load_s = None
    if config.checkpoint_every:
        fresh = Trainer(config, inputs.train)
        t0 = time.perf_counter()
        fresh.resume(out / "checkpoint-final")
        load_s = time.perf_counter() - t0

        def same(a: dict, b: dict) -> bool:
            return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)

        mine, theirs = trainer.optimizer.state, fresh.optimizer.state
        ledger.check(
            fresh.step == trainer.step
            and same({k: p.data for k, p in trainer.params.items()},
                     {k: p.data for k, p in fresh.params.items()})
            and same(mine.m, theirs.m) and same(mine.v, theirs.v),
            "reloaded checkpoint differs from the in-memory masters or LAMB moments")
    ckpt_bytes = sum(f.stat().st_size for f in (out / "checkpoint-final").iterdir())

    evals, losses = [], []
    deadline = time.perf_counter() + EVAL_SECONDS
    while not evals or time.perf_counter() < deadline:
        ledger.attempted += 1
        before = ref.scale(passes=3)
        t0 = time.perf_counter()
        try:
            result = evaluate(trainer.model, inputs.heldout)
        except Exception as exc:
            ledger.failures.append(f"evaluation: {exc!r}")
            raise
        t1 = time.perf_counter()
        evals.append((t1 - t0, (before + ref.scale(passes=3)) / 2))
        deadline += time.perf_counter() - t1
        losses.append(result["mlm_loss"])
    ledger.check(np.isfinite(losses[0]) and all(l == losses[0] for l in losses),
                 f"held-out losses differ or are not finite: {losses}")
    shutil.rmtree(out)
    # Time in Trainer.train outside run_step (logging, checkpoints) takes the
    # round's median scale.
    step_sum = sum(s for s, _ in steps)
    scaled_train_s = (sum(s * k for s, k in steps)
                      + (train_s - step_sum) * statistics.median(k for _, k in steps))
    return {"steps": steps, "train_s": train_s, "tokens": examples.tokens,
            "scaled_train_s": scaled_train_s,
            "evals": evals, "eval_loss": losses[0], "load_s": load_s,
            "ckpt_bytes": ckpt_bytes, "skipped": sum(r["skipped"] for r in records)}


def end_to_end(rounds, inputs, setup_s) -> dict:
    import numpy as np

    step_ms = [1000.0 * s * k for r in rounds for s, k in r["steps"]]
    eval_tokens = sum(len(ex.tokens) for ex in inputs.heldout)
    return {
        "train_tokens_per_s": statistics.median(
            r["tokens"] / r["scaled_train_s"] for r in rounds),
        "step_ms_p50": float(np.percentile(step_ms, 50)),
        "step_ms_p90": float(np.percentile(step_ms, 90)),
        "eval_tokens_per_s": statistics.median(
            eval_tokens / (s * k) for r in rounds for s, k in r["evals"]),
        "eval_mlm_loss": rounds[0]["eval_loss"],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain, traced, tracer, inputs, ledger) -> dict:
    """Per-layer metrics from the traced round, in measured (unscaled) time."""
    import sweep
    from tracer import SELF_TIME_METRICS, step_metrics

    steps = len(traced["steps"])
    rows = tracer.table()
    m = step_metrics(rows, steps)
    m["tensor.nodes_per_step"] = tracer.nodes / steps
    m["optim.skipped_frac"] = traced["skipped"] / steps
    saves = rows.get(("checkpoint.save", "checkpoint.save"), [0, 0.0])
    m["checkpoint.save_ms"] = 1000.0 * saves[1] / max(saves[0], 1)
    m["checkpoint.load_ms"] = 1000.0 * (traced["load_s"] or 0.0)
    m["checkpoint.bytes"] = traced["ckpt_bytes"]
    m["train.evaluate_ms_per_example"] = statistics.median(
        1000.0 * s / len(inputs.heldout) for s, _ in traced["evals"])
    m["data.make_examples_s"] = inputs.data_s
    m["data.examples"] = len(inputs.train) + len(inputs.heldout)
    m["synth.generate_s"] = inputs.synth_s
    m["trace.overhead_frac"] = (statistics.median(s * k for s, k in traced["steps"])
                                / statistics.median(s * k for s, k in plain["steps"]) - 1.0)
    step_ms = 1000.0 * sum(s for s, _ in traced["steps"]) / steps
    m["trace.accounted_frac"] = sum(m[k] for k in SELF_TIME_METRICS) / step_ms
    ledger.check(abs(m["trace.accounted_frac"] - 1.0) <= 0.10,
                 f"layer self times cover {m['trace.accounted_frac']:.3f} of run_step time")

    cells, errors = sweep.run_sweep()
    for scheme in sweep.SCHEMES:
        for n in sweep.LENGTHS:
            name = sweep.cell_name(scheme, n)
            ledger.check(name in cells, errors.get(name, f"sweep cell {name} missing"))
            cell = cells.get(name, {})
            m[f"attention.fwd_bwd_ms.{name}"] = cell.get("ms", 0.0)
            m[f"attention.peak_rss_mb.{name}"] = cell.get("peak_rss_mb", 0.0)
    return m


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int, help="steps per round (default: per workload)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the scaled set-up time and exit")
    args = parser.parse_args(argv)
    import_program()

    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    ledger = Ledger()
    metrics = {}
    try:
        inputs, setup_s, ref = setup(args.workload, args.seed, workdir, args.steps)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_times = [setup_s] + [child_setup_s(args) for _ in range(SETUPS - 1)]
        print(f"# env {json.dumps(environment())}")
        if args.trace:
            from tracer import Tracer

            plain = run_round(inputs, workdir, ledger, ref)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_round(inputs, workdir, ledger, ref, tracer)
            finally:
                tracer.uninstall()
            rounds = [plain, traced]
            for (root, name), (calls, total, own, _) in sorted(tracer.table().items()):
                print(f"# span {root:>18} > {name:<28} calls {calls:>8} "
                      f"total {1000 * total:10.2f} ms  self {1000 * own:10.2f} ms")
            metrics = per_layer(plain, traced, tracer, inputs, ledger)
        else:
            start = time.perf_counter()
            rounds = []
            while len(rounds) < 2 or time.perf_counter() - start < args.seconds:
                rounds.append(run_round(inputs, workdir, ledger, ref))
            metrics = end_to_end(rounds, inputs, setup_times)
            scaled = sum(r["scaled_train_s"] for r in rounds) / sum(r["train_s"] for r in rounds)
            print(f"# {len(rounds)} rounds, {sum(len(r['steps']) for r in rounds)} timed steps; "
                  f"Trainer.train time scaled by {scaled:.4f} to nominal host speed")
        ledger.check(all(r["eval_loss"] == rounds[0]["eval_loss"] for r in rounds),
                     "held-out loss differs between rounds of the same seed")
    except Exception as exc:
        ledger.check(False, f"run aborted: {exc!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if metrics:
        ledger.check(set(metrics) == set(units),
                     f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        print(f"{name:<42} {value:>16.6g} {units.get(name, '')}")
    if not args.trace:
        print(f"{'fail_frac':<42} {len(ledger.failures) / max(ledger.attempted, 1):>16.6g} ratio")
    for failure in ledger.failures:
        print(f"# FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": max(ledger.attempted, 1),
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }))
    return 0 if not ledger.failures else 1


if __name__ == "__main__":
    sys.exit(main())
