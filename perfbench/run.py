"""Benchmark of ``rdsdiag report`` on seeded simulated studies.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ss-sensitivity --seed 1 --seconds 50 --trace 0

The benchmark generates the workload's study from ``--seed`` with
``rdsdiag.sim``, writes it as CSV, and runs the real ``rdsdiag report`` on it,
one report at a time in a fresh process (a closed loop with one client: an
analyst waits for each report).  Reports repeat while one more of the median
length so far still ends within ``--seconds``, and at least twice.  Every
report's outputs are checked, and all repeats must write a byte-identical
``bundle.json``.

``--trace 0`` reports the end-to-end metrics, each the median over the run:

- ``report_s``: wall time of one report, from process spawn to exit;
- ``report_cpu_s``: user plus system CPU time of that process;
- ``peak_rss_mb``: its peak resident memory, from ``wait4``;
- ``setup_s``: interpreter start plus ``import rdsdiag.cli`` in every report.

An import-only process before the reports warms the file cache and the
compiled package; it is not timed.

``--trace 1`` runs traced reports with an untraced one between each pair.
Spans around each module's public functions give self time per layer and
call counts.  The median traced ``main`` minus the median untraced one is
the tracing overhead, and the traced wall time minus all layer self time is
the time no span covers.

BLAS and OpenMP threads of the report process are capped at the CPUs this
process may use.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the environment and
every sample are written to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# two repeats, so the determinism check has a pair to compare
MIN_REPORTS = 2
# two traced repeats, so their call counts can be compared
MIN_TRACED = 2
# every run must end within 180 s; a report still running then is killed
DEADLINE_S = 170.0


class ChildTimeout(Exception):
    pass


def _on_alarm(signum: int, frame: Any) -> None:
    raise ChildTimeout()


def _on_term(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


@dataclass
class Sample:
    """One child process: times from the shared monotonic clock."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: Optional[float]
    main_s: Optional[float]
    exit_code: int
    record: dict[str, Any]


def spawn(mode: str, cli_args: list[str], env: dict[str, str], work: Path,
          deadline: float) -> Sample:
    """Run ``child.py`` once and collect its wall time, CPU, peak RSS and
    the readings it recorded.  Kills the child at ``deadline``."""
    timing_file = work / "timing.json"
    timing_file.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(timing_file), mode, *cli_args]
    start = time.monotonic()
    with open(work / "child.log", "wb") as log:
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.01))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # the deadline, or this process being stopped: never leave the child
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        record = json.loads(timing_file.read_text())
    except (OSError, ValueError):
        record = {}
    imported = record.get("imported")
    main_done = record.get("main_done")
    return Sample(
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=imported - start if imported is not None else None,
        main_s=main_done - imported if main_done is not None and imported is not None else None,
        exit_code=proc.returncode,
        record=record,
    )


def child_env(thread_cap: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(thread_cap)
    return env


def environment(thread_cap: int, workload: str, seed: int) -> dict[str, Any]:
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "rdsdiag").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_thread_cap": thread_cap,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "study_seed": seed,
        "report_seed": seed,
    }


def tail(values: list[float]) -> Optional[tuple[str, float]]:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for label, q in (("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        if len(values) * (1 - q) >= 10:
            best = (label, sorted(values)[int(q * len(values))])
    return best


def summarize(metrics: dict[str, list[float]]) -> dict[str, Any]:
    """Per metric: the median of its samples, printed with unit and count."""
    out = {}
    print(f"{'metric':34} {'unit':6} {'n':>3} {'median':>14}  tail")
    for name, values in metrics.items():
        median = statistics.median(values)
        unit = UNITS.get(name, "s")
        extra = tail(values)
        print(f"{name:34} {unit:6} {len(values):>3} {median:>14.6g}  "
              + (f"{extra[0]}={extra[1]:.6g}" if extra else "-"))
        out[name] = {"value": median, "unit": unit}
    return out


class Run:
    """One benchmark run: a generated study and its checked reports."""

    def __init__(self, workload_name: str, seed: int, trace: int):
        import checks
        import studies

        self.checks = checks
        self.workload = studies.WORKLOADS[workload_name]
        self.work = OUT / f"{workload_name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.study = studies.generate_study(self.workload, seed, self.work / "study")
        self.report_args = lambda out: studies.report_args(self.workload, self.study, seed, out)
        self.problems: list[str] = []
        if self.study.extinct or self.study.n != self.workload.target_n:
            self.problems.append(f"study reached n={self.study.n}, target {self.workload.target_n}")
        self.attempted = 0
        self.failed = 0
        self.first_bundle: Optional[bytes] = None

    def report(self, mode: str, env: dict[str, str], deadline: float) -> tuple[Sample, Path]:
        """One checked report; a failed check counts the report as failed."""
        out = self.work / f"report{self.attempted}"
        self.attempted += 1
        sample = spawn(mode, self.report_args(out), env, self.work, deadline)
        problems, raw = self.checks.check_report(
            sample.exit_code, out, self.study.respondents, self.study.traits,
            self.study.trait_names, self.workload.population_sizes,
        )
        if raw and self.first_bundle is None:
            self.first_bundle = raw
        elif raw and raw != self.first_bundle:
            problems.append("bundle.json differs from the first repeat")
        if problems:
            self.failed += 1
            self.problems += [f"report {self.attempted}: {p}" for p in problems]
        return sample, out


def time_left(start: float, seconds: float, step_s: list[float]) -> bool:
    """Whether another step of the median length so far still ends within
    ``seconds`` of ``start``, so that a run lasts ``seconds`` and no more."""
    expected = statistics.median(step_s) if step_s else 0.0
    return time.monotonic() - start + expected <= seconds


def untraced(run: Run, env: dict[str, str], seconds: float, deadline: float,
             samples: dict[str, list[float]]) -> None:
    start = time.monotonic()
    # the first import in a fresh checkout compiles the package
    warm = spawn("import", [], env, run.work, deadline)
    if warm.exit_code != 0:
        run.problems.append(f"import failed with exit code {warm.exit_code}")
        return
    while time_left(start, seconds, samples["report_s"]) or run.attempted < MIN_REPORTS:
        s, out = run.report("run", env, deadline)
        shutil.rmtree(out, ignore_errors=True)
        samples["report_s"].append(s.wall_s)
        samples["report_cpu_s"].append(s.cpu_s)
        samples["peak_rss_mb"].append(s.peak_rss_mb)
        if s.setup_s is not None:
            samples["setup_s"].append(s.setup_s)


def traced(run: Run, env: dict[str, str], seconds: float, deadline: float,
           samples: dict[str, list[float]]) -> None:
    import tracing

    first_counts = None
    untraced_main_s: list[float] = []
    # a traced report and its untraced neighbour
    pair_s: list[float] = []
    start = time.monotonic()
    while (time_left(start, seconds, pair_s)
           or len(samples["trace.wall_s"]) < MIN_TRACED):
        pair_start = time.monotonic()
        paired = bool(samples["trace.wall_s"])
        if paired:
            # an untraced neighbour in time between traced repeats, since
            # the machine's speed drifts
            reference, out = run.report("run", env, deadline)
            shutil.rmtree(out, ignore_errors=True)
            if reference.main_s is not None:
                untraced_main_s.append(reference.main_s)
        s, out = run.report("trace", env, deadline)
        if paired:
            pair_s.append(time.monotonic() - pair_start)
        record = s.record
        output_bytes = sum(p.stat().st_size for p in out.glob("*") if p.is_file())
        shutil.rmtree(out, ignore_errors=True)
        if "spans" not in record:
            continue
        layers, wall = tracing.layer_times(record["spans"])
        counts = record["counts"]
        repeatable = {
            **counts,
            "ss_converged": record["ss_converged"],
            "replicates": record["replicates"],
            "warnings": record["warnings"],
            "output_bytes": output_bytes,
        }
        if first_counts is None:
            first_counts = repeatable
        elif repeatable != first_counts:
            run.failed += 1
            run.problems.append(f"traced report {run.attempted}: call counts differ")
        for layer, value in layers.items():
            samples[f"{layer}_s"].append(value)
        solves = counts.get("estimators.ss_inclusion_weights", 0)
        permutation_s = layers["bottleneck.permutation"]
        derived = {
            "estimators.ss_solves": solves,
            "estimators.ss_converged_ratio": record["ss_converged"] / solves if solves else 0.0,
            "bottleneck.replicates_per_s": (
                record["replicates"] / permutation_s if permutation_s > 0 else 0.0
            ),
            "forest.included_in_tree_calls": counts.get("forest.included_in_tree", 0),
            "dataset.indicator_calls": counts.get("dataset.indicator", 0),
            "behavior.exact_ci_calls": counts.get("behavior.exact_odds_ratio_interval", 0),
            "svg.render_calls": counts.get("svg.render_plot", 0),
            "report.output_bytes": output_bytes,
            "report.warnings": record["warnings"],
            "trace.wall_s": wall,
            "trace.unattributed_s": wall - sum(layers.values()),
        }
        for name, value in derived.items():
            samples[name].append(float(value))
    if untraced_main_s:
        samples["trace.overhead_s"].append(
            statistics.median(samples["trace.wall_s"]) - statistics.median(untraced_main_s)
        )


# units of all metrics that are not times in seconds
UNITS = {
    "peak_rss_mb": "MB",
    "estimators.ss_solves": "count",
    "estimators.ss_converged_ratio": "ratio",
    "bottleneck.replicates_per_s": "1/s",
    "forest.included_in_tree_calls": "count",
    "dataset.indicator_calls": "count",
    "behavior.exact_ci_calls": "count",
    "svg.render_calls": "count",
    "report.output_bytes": "B",
    "report.warnings": "count",
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rdsdiag" / "cli.py").is_file():
        sys.stderr.write(f"error: no rdsdiag sources under {SRC}; run from a checkout root\n")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import rdsdiag
    import studies

    if Path(rdsdiag.__file__).resolve().parent != (SRC / "rdsdiag").resolve():
        sys.stderr.write(f"error: rdsdiag imported from {rdsdiag.__file__}, not {SRC}\n")
        return 2
    if args.workload not in studies.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(studies.WORKLOADS)}\n")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    thread_cap = len(os.sched_getaffinity(0))
    env = child_env(thread_cap)
    info = environment(thread_cap, args.workload, args.seed)
    run = Run(args.workload, args.seed, args.trace)
    samples: dict[str, list[float]] = defaultdict(list)
    try:
        if args.trace:
            traced(run, env, args.seconds, deadline, samples)
        else:
            untraced(run, env, args.seconds, deadline, samples)
    except ChildTimeout:
        run.failed += 1
        run.problems.append(f"report did not finish within {DEADLINE_S:.0f} s")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    print(json.dumps({"environment": info}))
    for problem in run.problems:
        print(f"problem: {problem}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"fail_rate {run.failed}/{max(run.attempted, 1)} = "
          f"{run.failed / max(run.attempted, 1):.3g}")
    metrics = summarize(dict(sorted(samples.items())))
    result = {
        "correct": not run.problems and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": info, "samples": samples, "problems": run.problems,
                    **result}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
