"""Mutation fuzzing of ``rdsdiag report``: one corrupted cell, column or file
per example must end in a recorded exit code, never a traceback, and a run
that succeeds must write a consistent bundle."""

import csv
import functools
import hashlib
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rdsdiag.cli import main
from rdsdiag.dataset import save_dataset
from rdsdiag.sim import NetworkConfig, SimConfig, TraitRule, generate_network, simulate_rds

FILES = ("respondents.csv", "traits.csv", "followup.csv")
NUMERIC = {
    "respondents.csv": ("interview_order", "deg_know", "deg_province", "deg_age",
                        "deg_week", "reach_day", "reach_week", "recv_week"),
    "followup.csv": ("fu_deg_know", "fu_deg_age", "fu_deg_week", "n_failed_attempts",
                     "n_known_participants", "n_coupons_distributed", "n_refusals",
                     "n_contacts_employed", "days_1"),
}
DEGREE_COLUMNS = ("deg_know", "deg_province", "deg_age", "deg_week")
MUTATIONS = ("blank", "non_numeric", "negative", "not_ascii_whole", "zero_degree", "dangle",
             "duplicate_id", "drop_column", "header_only")
# numbers Python's int takes that are not ASCII whole numbers: an underscore,
# a sign, an Arabic-Indic three and a fullwidth three
NOT_ASCII_WHOLE = ("1_000", "+3", "\u0663", "\uff13")


@functools.cache
def _study():
    """The three input files of a ~60-respondent study as (header, rows)."""
    net = generate_network(
        NetworkConfig(
            block_sizes=(80, 80),
            within_block_edge_prob=0.08,
            between_block_edge_prob=0.005,
            traits={"hiv": TraitRule("block", block=0),
                    "employed": TraitRule("bernoulli", p=0.6)},
        ),
        rng_seed=5,
    )
    ds = simulate_rds(
        net, SimConfig(target_n=60, seed_count=5, followup_prob=0.7, rng_seed=5)
    ).dataset
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(ds, *(Path(tmp) / name for name in FILES))
        for name in FILES:
            with open(Path(tmp) / name, newline="") as fh:
                reader = csv.DictReader(fh)
                files[name] = (list(reader.fieldnames), list(reader))
    return files


def _mutate(files, draw):
    """Apply one mutation from the menu to a copy of ``files``; returns the
    mutation's kind and the mutated files."""
    files = {name: (list(header), [dict(r) for r in rows])
             for name, (header, rows) in files.items()}
    kind = draw(st.sampled_from(MUTATIONS))
    if kind in ("blank", "drop_column"):
        name = draw(st.sampled_from(FILES))
    elif kind in ("non_numeric", "negative", "not_ascii_whole"):
        name = draw(st.sampled_from(sorted(NUMERIC)))
    elif kind == "header_only":
        name = draw(st.sampled_from(("traits.csv", "followup.csv")))
    else:
        name = "respondents.csv"
    header, rows = files[name]
    row = draw(st.integers(0, len(rows) - 1))
    if kind == "blank":
        rows[row][draw(st.sampled_from(header))] = ""
    elif kind == "non_numeric":
        column = draw(st.sampled_from(NUMERIC[name]))
        rows[row][column] = draw(st.sampled_from(("abc", "1.5", "-")))
    elif kind == "negative":
        column = draw(st.sampled_from(NUMERIC[name]))
        rows[row][column] = str(draw(st.integers(-1000, -1)))
    elif kind == "not_ascii_whole":
        column = draw(st.sampled_from(NUMERIC[name]))
        rows[row][column] = draw(st.sampled_from(NOT_ASCII_WHOLE))
    elif kind == "zero_degree":
        column = draw(st.sampled_from(DEGREE_COLUMNS))
        for r in rows:
            r[column] = "0"
    elif kind == "dangle":
        recruits = [r for r in rows if r["coupon_in"]]
        draw(st.sampled_from(recruits))["coupon_in"] = "dangling-coupon"
    elif kind == "duplicate_id":
        other = draw(st.integers(0, len(rows) - 1).filter(lambda i: i != row))
        rows[other]["id"] = rows[row]["id"]
    elif kind == "drop_column":
        header.remove(draw(st.sampled_from(header)))
    else:
        rows.clear()
    return kind, files


def _write(files, root):
    for name, (header, rows) in files.items():
        with open(root / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=header, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)


def _report(root, mode):
    out_dir = root / mode.lstrip("-")
    code = main([
        "report",
        "--respondents", str(root / "respondents.csv"),
        "--traits", str(root / "traits.csv"),
        "--followup", str(root / "followup.csv"),
        "--out-dir", str(out_dir),
        "--replicates", "50",
        mode,
    ])
    assert code in (0, 2, 3, 4)
    return code, out_dir


def _check_bundle(out_dir):
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in bundle")

    bundle = json.loads((out_dir / "bundle.json").read_text(), parse_constant=reject)
    for name, digest in bundle["manifest"].items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_report_survives_one_mutation(data):
    kind, files = _mutate(_study(), data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write(files, root)
        strict, strict_out = _report(root, "--strict")
        lenient, lenient_out = _report(root, "--lenient")
        if kind in ("negative", "not_ascii_whole"):
            assert strict == lenient == 2
        if lenient == 0:
            lenient_bytes = _check_bundle(lenient_out)
        if strict == 0:
            assert lenient == 0
            assert _check_bundle(strict_out) == lenient_bytes
