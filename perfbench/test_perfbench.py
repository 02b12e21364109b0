"""Tests of the benchmark itself: inputs, checks and tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import studies  # noqa: E402
import tracing  # noqa: E402


def _csv_bytes(study: studies.Study) -> list[bytes]:
    return [p.read_bytes() for p in (study.respondents, study.traits, study.followup)]


def test_generator_is_deterministic_per_seed(tmp_path):
    workload = studies.WORKLOADS["small-study"]
    first = studies.generate_study(workload, 7, tmp_path / "a")
    again = studies.generate_study(workload, 7, tmp_path / "b")
    other = studies.generate_study(workload, 8, tmp_path / "c")
    assert _csv_bytes(first) == _csv_bytes(again)
    assert _csv_bytes(first)[0] != _csv_bytes(other)[0]


@pytest.mark.parametrize("name", sorted(studies.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_study_reaches_target_with_intended_traits(tmp_path, name, seed):
    workload = studies.WORKLOADS[name]
    study = studies.generate_study(workload, seed, tmp_path)
    assert not study.extinct
    assert study.n == workload.target_n
    assert study.trait_names == tuple(sorted(workload.network.traits))

    with open(study.respondents, newline="") as fh:
        rows = list(csv.DictReader(fh))
    answers = [row[f"trait:{t}"] for row in rows for t in study.trait_names]
    missing = sum(1 for a in answers if not a) / len(answers)
    if workload.trait_missing_prob == 0:
        assert missing == 0
    else:
        assert abs(missing - workload.trait_missing_prob) < 0.05
    assert all(row["deg_week"] and int(row["deg_week"]) >= 1 for row in rows)


def test_same_6_digits():
    assert checks.same_6_digits(0.123457, 0.1234567)
    assert checks.same_6_digits(0.123456, 0.1234564999)
    assert not checks.same_6_digits(0.123456, 0.1234567)
    assert checks.same_6_digits(1.0, 0.99999995)


def test_self_times_subtract_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["report.run_pipeline", 1.0, 9.0, 0],
        ["estimators.ss_inclusion_weights", 2.0, 6.0, 1],
        ["estimators.ss_estimate", 6.0, 8.0, 1],
        ["forest.included_in_tree", 6.5, 7.0, 3],
    ]
    assert tracing.self_times(spans) == [2.0, 2.0, 4.0, 1.5, 0.5]
    layers, wall = tracing.layer_times(spans)
    assert wall == 10.0
    assert layers["estimators.ss"] == 4.0
    assert layers["estimators.vh"] == 1.5
    assert layers["forest.included_in_tree"] == 0.5
    assert wall - sum(layers.values()) == 4.0


def _traced_report(study: studies.Study, out: Path, timing: Path) -> dict:
    workload = studies.WORKLOADS["small-study"]
    args = studies.report_args(workload, study, 1, out) + ["--replicates", "500"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(timing), "trace", *args],
        env=env, check=True, capture_output=True, timeout=300,
    )
    return json.loads(timing.read_text())


def test_traced_counts_repeat_and_checks_hold(tmp_path):
    workload = studies.WORKLOADS["small-study"]
    study = studies.generate_study(workload, 1, tmp_path / "study")
    records = [
        _traced_report(study, tmp_path / f"out{i}", tmp_path / f"timing{i}.json")
        for i in range(2)
    ]
    first, second = records
    for key in ("counts", "ss_converged", "replicates", "warnings"):
        assert first[key] == second[key]
    assert first["counts"]["estimators.ss_inclusion_weights"] == 4
    assert first["counts"]["dataset.indicator"] > 0
    assert {span[0] for span in first["spans"]} >= {"cli.main", "report.run_pipeline"}

    bundles = []
    for i in range(2):
        problems, raw = checks.check_report(
            0, tmp_path / f"out{i}", study.respondents, study.traits,
            study.trait_names, workload.population_sizes,
        )
        assert problems == []
        bundles.append(raw)
    assert bundles[0] == bundles[1]

    # a VH that is off in the 4th digit must fail the independent recomputation
    bundle = json.loads((tmp_path / "out1" / "bundle.json").read_text())
    trait = study.trait_names[0]
    bundle["sections"]["estimate"]["per_trait"][trait]["vh"] += 1e-3
    (tmp_path / "out1" / "bundle.json").write_text(json.dumps(bundle))
    problems, _ = checks.check_report(
        0, tmp_path / "out1", study.respondents, study.traits, study.trait_names,
        workload.population_sizes,
    )
    assert any(p.startswith(f"vh of {trait}") for p in problems)
