"""End-to-end pins of the command-line output.

The README example scenario, ``tests/golden/scenario.txt``, is simulated and
reported through ``cli.main`` with the same file and flags as the CI smoke
run.  Its ``bundle.json`` must match the
checked-in ``tests/golden/bundle.json`` byte for byte; the bundle's manifest
pins the sha256 of every other output file.  Each single-section command
must print exactly its section of that bundle, and ``ingest`` its
``dataset`` block.
"""

import json
from pathlib import Path

import pytest

from rdsdiag.cli import main
from rdsdiag.report import ALL_SECTIONS

GOLDEN = Path(__file__).parent / "golden" / "bundle.json"
SCENARIO = GOLDEN.parent / "scenario.txt"

REPORT_FLAGS = ["--replicates", "200", "--population-size", "5000", "--population-size", "20000"]


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "study"
    assert main(["simulate", "--scenario", str(SCENARIO), "--out-dir", str(out)]) == 0
    return [
        "--respondents", str(out / "respondents.csv"),
        "--traits", str(out / "traits.csv"),
        "--followup", str(out / "followup.csv"),
        *REPORT_FLAGS,
    ]


@pytest.fixture(scope="module")
def report_dir(study, tmp_path_factory):
    out = tmp_path_factory.mktemp("golden-report")
    assert main(["report", *study, "--out-dir", str(out)]) == 0
    return out


def test_golden_bundle(report_dir):
    assert (report_dir / "bundle.json").read_bytes() == GOLDEN.read_bytes()


@pytest.mark.parametrize("command", ALL_SECTIONS)
def test_section_command_prints_its_bundle_section(command, study, report_dir, tmp_path, capsys):
    capsys.readouterr()
    assert main([command, *study, "--out-dir", str(tmp_path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    bundle = json.loads((report_dir / "bundle.json").read_text())
    assert printed == bundle["sections"][command]


def test_ingest_prints_the_bundle_dataset_block(study, report_dir, capsys):
    capsys.readouterr()
    assert main(["ingest", *study[: -len(REPORT_FLAGS)]]) == 0
    printed = json.loads(capsys.readouterr().out)
    expected = json.loads((report_dir / "bundle.json").read_text())["dataset"]
    expected.update(expected.pop("validation"), warnings=[])
    assert printed == expected
