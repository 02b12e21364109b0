"""The runtime needs numpy only: a full ``rdsdiag report`` never imports scipy.

Importing scipy would cost more than a second of every report's start-up,
so each variant runs the report in a fresh interpreter:

- after ``cli.main`` returns, no ``scipy`` module is loaded (a lazy import
  inside some function would show here), nor ``numpy.ma``, which numpy
  imports on the first ``np.median`` or ``np.quantile`` call;
- with ``sys.modules["scipy"] = None`` set first, every scipy import fails,
  and the report must still exit 0 with the same bundle bytes;
- neither ``import rdsdiag.cli`` nor the report loads ``rdsdiag.sim``,
  which only ``simulate`` uses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rdsdiag
from rdsdiag.cli import main
from test_golden import GOLDEN, REPORT_FLAGS, SCENARIO

SRC = Path(rdsdiag.__file__).resolve().parents[1]

CHILD = """\
import json, sys
def loaded(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
import rdsdiag.cli
sim_at_import = loaded("rdsdiag.sim")
code = rdsdiag.cli.main(sys.argv[2:])
print(json.dumps({"code": code, "scipy": loaded("scipy"), "numpy.ma": loaded("numpy.ma"),
                  "sim": sim_at_import + loaded("rdsdiag.sim")}))
"""


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    out = tmp_path_factory.mktemp("no-scipy") / "study"
    assert main(["simulate", "--scenario", str(SCENARIO), "--out-dir", str(out)]) == 0
    return out


def _report(study: Path, out_dir: Path, mode: str) -> dict:
    argv = [
        "report",
        "--respondents", str(study / "respondents.csv"),
        "--traits", str(study / "traits.csv"),
        "--followup", str(study / "followup.csv"),
        "--out-dir", str(out_dir),
        *REPORT_FLAGS,
    ]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, mode, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def plain(study, tmp_path_factory):
    out = tmp_path_factory.mktemp("plain")
    return _report(study, out, "plain"), out / "bundle.json"


def test_report_imports_no_scipy(plain):
    result, bundle = plain
    assert result["code"] == 0
    assert result["scipy"] == []
    assert bundle.read_bytes() == GOLDEN.read_bytes()


def test_report_imports_no_numpy_ma(plain):
    assert plain[0]["numpy.ma"] == []


def test_report_runs_with_scipy_blocked(study, plain, tmp_path):
    result = _report(study, tmp_path, "blocked")
    assert result["code"] == 0
    assert (tmp_path / "bundle.json").read_bytes() == plain[1].read_bytes()


def test_report_imports_no_simulator(plain):
    assert plain[0]["sim"] == []


def test_simulator_names_load_on_first_use():
    import rdsdiag.sim

    for name in ("NetworkConfig", "SimConfig", "generate_network", "simulate_rds"):
        assert getattr(rdsdiag, name) is getattr(rdsdiag.sim, name)
    namespace = {}
    exec("from rdsdiag import *", namespace)
    assert all(namespace[name] is getattr(rdsdiag, name) for name in rdsdiag.__all__)
    with pytest.raises(AttributeError, match="nope"):
        rdsdiag.nope
