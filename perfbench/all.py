"""Run every workload of BENCHMARK.json, each in its own process, and print
every metric by name with its unit, plus ``fail_frac``.

    python3 perfbench/all.py [--seed 1] [--seconds 15] [--trace 0]

Exits 1 if any workload failed an operation or output check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload}: run failed\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            print(f"{workload:<10} {name:<40} {m['value']:>16.6g} {m['unit']}")
        print(f"{workload:<10} {'fail_frac':<40} "
              f"{result['failed'] / result['attempted']:>16.6g} ratio")
        sys.stderr.write(proc.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
