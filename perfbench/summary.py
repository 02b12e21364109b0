"""Run every workload untraced and traced, and print one table of each.

Run from the root of a checkout:

    python3 perfbench/summary.py --seed 1 --seconds 50

The end-to-end table gives, per workload, each metric's median with its unit
and sample count, plus ``fail_rate`` (reports that failed an output check
over reports attempted).  The per-layer table gives the traced run's
numbers side by side.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]

from run import OUT, UNITS  # noqa: E402
from studies import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} trace {trace} failed:\n{proc.stderr}")
    return json.loads(
        (OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    args = parser.parse_args()

    names = list(WORKLOADS)
    results = {
        (name, trace): bench(name, args.seed, args.seconds, trace)
        for name in names for trace in (0, 1)
    }
    print(json.dumps({"environment": results[names[0], 0]["environment"]}))
    for trace, title in ((0, "end-to-end (untraced)"), (1, "per layer (traced)")):
        print(f"\n{title}, seed {args.seed}: median [samples]")
        print(f"{'metric':32} {'unit':6}" + "".join(f"{n:>24}" for n in names))
        metrics = results[names[0], trace]["metrics"]
        for metric in metrics:
            cells = []
            for name in names:
                r = results[name, trace]
                count = len(r["samples"].get(metric, []))
                cells.append(f"{r['metrics'][metric]['value']:.6g} [{count}]")
            print(f"{metric:32} {UNITS.get(metric, 's'):6}" + "".join(f"{c:>24}" for c in cells))
        rates = [f"{results[n, trace]['failed']}/{results[n, trace]['attempted']}" for n in names]
        print(f"{'fail_rate':32} {'1':6}" + "".join(f"{r:>24}" for r in rates))
        for name in names:
            for problem in results[name, trace]["problems"]:
                print(f"problem ({name}, trace {trace}): {problem}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
