import csv
import dataclasses
import json
import math
import warnings
import xml.etree.ElementTree as ET

import pytest

from conftest import make_dataset, make_respondent
from rdsdiag.cli import load_scenario, main
from rdsdiag.dataset import save_dataset
from rdsdiag import estimators
from rdsdiag.degree import TREND_METHODS
from rdsdiag.errors import UnrealizableConfig
from rdsdiag.report import (
    ALL_SECTIONS,
    SCHEMA_VERSION,
    PipelineConfig,
    _csv_cell,
    _jsonable,
    diagnose,
    run_pipeline,
)
from rdsdiag.sim import NetworkConfig, SimConfig, TraitRule, generate_network, simulate_rds


@pytest.fixture(scope="module")
def sim_dataset():
    net = generate_network(
        NetworkConfig(
            block_sizes=(120, 120),
            within_block_edge_prob=0.06,
            between_block_edge_prob=0.004,
            traits={
                "hiv": TraitRule("block", block=0),
                "employed": TraitRule("bernoulli", p=0.6),
            },
        ),
        rng_seed=3,
    )
    return simulate_rds(
        net, SimConfig(target_n=100, seed_count=6, followup_prob=0.7, rng_seed=3)
    ).dataset


def _cfg(**kw):
    return PipelineConfig(**{"replicates": 300, "rng_seed": 1, **kw})


def test_pipeline_byte_determinism(sim_dataset, tmp_path):
    run_pipeline(sim_dataset, _cfg(), tmp_path / "a")
    run_pipeline(sim_dataset, _cfg(), tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_pipeline_manifest_covers_outputs(sim_dataset, tmp_path):
    bundle = run_pipeline(sim_dataset, _cfg(), tmp_path / "out")
    on_disk = {p.name for p in (tmp_path / "out").iterdir()}
    assert set(bundle.manifest) == on_disk - {"bundle.json"}
    written = json.loads((tmp_path / "out" / "bundle.json").read_text())
    assert written["manifest"] == bundle.manifest
    assert written["schema_version"] == SCHEMA_VERSION


def test_pipeline_sections_subset(sim_dataset, tmp_path):
    bundle = run_pipeline(sim_dataset, _cfg(sections=("finitepop",)), tmp_path / "out")
    assert set(bundle.sections) == {"finitepop"}
    on_disk = {p.name for p in (tmp_path / "out").iterdir()}
    assert "convergence_flags.csv" not in on_disk
    assert "bundle.json" in on_disk


def test_pipeline_empty_sections(sim_dataset, tmp_path):
    bundle = run_pipeline(sim_dataset, _cfg(sections=()), tmp_path / "out")
    assert bundle.sections == {}


def test_pipeline_unknown_section():
    with pytest.raises(UnrealizableConfig, match="unknown section 'estmate'"):
        _cfg(sections=("estimate", "estmate"))


def test_pipeline_empty_out_dir_writes_nothing(sim_dataset, tmp_path, monkeypatch):
    # Path("") is the working directory, so an empty out_dir is refused
    monkeypatch.chdir(tmp_path)
    with pytest.raises(UnrealizableConfig, match="out_dir: empty path"):
        run_pipeline(sim_dataset, _cfg(), "")
    assert list(tmp_path.iterdir()) == []


def test_diagnose_writes_nothing(sim_dataset, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    diagnosis = diagnose(sim_dataset, _cfg(population_sizes=(500,)))
    assert list(diagnosis.sections) == list(ALL_SECTIONS)
    assert list(tmp_path.iterdir()) == []


_PLAIN_TYPES = (dict, list, tuple, str, int, float, bool, type(None))


def test_diagnosis_is_plain_data(sim_dataset):
    diagnosis = diagnose(sim_dataset, _cfg(population_sizes=(500,)))

    def walk(node):
        assert type(node) in _PLAIN_TYPES, node
        if isinstance(node, dict):
            assert all(type(key) is str for key in node)
            node = list(node.values())
        if isinstance(node, (list, tuple)):
            for v in node:
                walk(v)

    walk(diagnosis.sections)


def test_samples_only_for_sample_sections(sim_dataset, monkeypatch):
    calls = []
    build = estimators.included_sample
    monkeypatch.setattr(estimators, "included_sample",
                        lambda *args: calls.append(args[1]) or build(*args))
    diagnosis = diagnose(sim_dataset, _cfg(sections=("behavior", "finitepop")))
    assert calls == [] and diagnosis.samples == {}
    assert diagnosis.traits == tuple(s.name for s in sim_dataset.trait_specs)
    diagnosis = diagnose(sim_dataset, _cfg(traits=("employed",), sections=("degree",)))
    assert calls == ["employed"] and list(diagnosis.samples) == ["employed"]


def test_bundle_sections_are_the_rounded_diagnosis(sim_dataset, tmp_path):
    cfg = _cfg(population_sizes=(500,))
    bundle = run_pipeline(sim_dataset, cfg, tmp_path / "out")
    assert bundle.sections == _jsonable(diagnose(sim_dataset, cfg).sections)


def test_flag_grid_matches_bundle(sim_dataset, tmp_path):
    bundle = run_pipeline(sim_dataset, _cfg(), tmp_path / "out")
    svg = (tmp_path / "out" / "flag_grid.svg").read_text()
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    red_cells = sum(
        1 for r in root.findall(f"{ns}rect") if r.get("fill") == "#c43c39"
    )
    expected = 0
    for section in ("converge", "bottleneck"):
        per_trait = bundle.sections[section].get("per_trait", {})
        for entry in per_trait.values():
            if isinstance(entry, dict) and entry.get("flagged") is True:
                expected += 1
    assert red_cells == expected


def test_pipeline_six_digit_floats(sim_dataset, tmp_path):
    run_pipeline(sim_dataset, _cfg(), tmp_path / "out")
    payload = (tmp_path / "out" / "bundle.json").read_text()

    def check(node):
        if isinstance(node, dict):
            for v in node.values():
                check(v)
        elif isinstance(node, list):
            for v in node:
                check(v)
        elif isinstance(node, float):
            assert float(f"{node:.6g}") == node

    check(json.loads(payload))


def test_jsonable_rounds_every_float():
    result = {"value": 1 / 3, "pair": (math.nan, -math.inf), "n": 3}
    bundled = _jsonable({"r": result, "ok": True})
    assert bundled == {"r": {"value": 0.333333, "pair": [None, "-inf"], "n": 3}, "ok": True}
    json.dumps(bundled, allow_nan=False)
    assert [_csv_cell(v) for v in (1 / 3, math.nan, math.inf, 1234567.0, True, 3)] == [
        "0.333333", "", "inf", "1.23457e+06", "true", "3"
    ]


def test_pipeline_ss_scenarios(sim_dataset, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        bundle = run_pipeline(
            sim_dataset, _cfg(sections=("estimate",), population_sizes=(500,)), tmp_path / "out"
        )
    entry = bundle.sections["estimate"]["per_trait"]["hiv"]
    assert "vh" in entry
    assert entry["ss"][0]["population_size"] == 500
    csv_text = (tmp_path / "out" / "estimates.csv").read_text()
    assert csv_text.splitlines()[0] == "trait,population_size,vh,ss,difference,flagged"


def test_pipeline_sensitivity_skips_one_trait(sim_dataset, tmp_path):
    # "employed" loses its answers among follow-up completers only
    rows = tuple(
        dataclasses.replace(r, traits={"hiv": r.traits.get("hiv")})
        if r.followup is not None else r
        for r in sim_dataset.respondents
    )
    ds = dataclasses.replace(sim_dataset, respondents=rows)
    bundle = run_pipeline(ds, _cfg(sections=("degree",)), tmp_path / "out")
    employed, hiv = sorted(
        bundle.sections["degree"]["sensitivity"], key=lambda entry: entry["trait"]
    )
    assert employed == {
        "trait": "employed",
        "skipped": "no usable test/retest members for 'employed'",
    }
    assert hiv["trait"] == "hiv" and hiv["n"] > 0
    assert (tmp_path / "out" / "sensitivity_pairs.svg").exists()


def test_pipeline_without_traits_has_no_sensitivity_rows(sim_dataset, tmp_path):
    # no trait to estimate is not a shortfall: no row, no figure, nothing skipped
    bundle = run_pipeline(sim_dataset, _cfg(traits=(), sections=("degree",)), tmp_path / "out")
    assert bundle.sections["degree"]["sensitivity"] == []
    assert not (tmp_path / "out" / "sensitivity_pairs.svg").exists()


def _trend(ds, out_dir, degree_from_third_row):
    rows = tuple(
        dataclasses.replace(
            r, degree=dataclasses.replace(r.degree, q_seen_week=degree_from_third_row)
        ) if i >= 2 else r
        for i, r in enumerate(ds.respondents)
    )
    ds = dataclasses.replace(ds, respondents=rows)
    return run_pipeline(ds, _cfg(sections=("degree",)), out_dir).sections["degree"]["trend"]


def test_pipeline_trend_skips_only_the_log_linear_fit(sim_dataset, tmp_path):
    # two positive degrees are too few for the log-linear fit alone
    trend = _trend(sim_dataset, tmp_path / "out", 0)
    assert [entry["method"] for entry in trend] == list(TREND_METHODS)
    assert trend[1] == {
        "method": "log-linear", "skipped": "need >= 3 positive degrees for log-linear"
    }
    assert all(set(entry) == {"method", "sign", "statistic"} for entry in trend[:1] + trend[2:])


def test_pipeline_trend_every_method_skipped(sim_dataset, tmp_path):
    # two answered degrees: every method skips, and the first reason stands
    trend = _trend(sim_dataset, tmp_path / "out", None)
    assert trend == {"skipped": "need >= 3 respondents with degree"}


# -- CLI ---------------------------------------------------------------------


SCENARIO = """
blocks=100,100
within_p=0.06
between_p=0.005
trait.hiv=block:0
trait.employed=bernoulli:0.6
target_n=80
seed_count=5
followup_prob=0.7
rng_seed=4
site=cli-test
"""


@pytest.fixture(scope="module")
def cli_study(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "scenario.txt"
    scenario.write_text(SCENARIO)
    out = root / "study"
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(out)]) == 0
    return out


def _dataset_args(study):
    return [
        "--respondents", str(study / "respondents.csv"),
        "--traits", str(study / "traits.csv"),
        "--followup", str(study / "followup.csv"),
    ]


def test_cli_simulate_output(cli_study, capsys, tmp_path):
    scenario = cli_study.parent / "scenario.txt"
    assert main(["simulate", "--scenario", str(scenario),
                 "--out-dir", str(tmp_path / "again")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 80
    assert payload["true_prevalences"]["hiv"] == 0.5
    assert (tmp_path / "again" / "respondents.csv").exists()


def test_cli_scenario_unknown_key(tmp_path, capsys):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIO.replace("followup_prob", "folowup_prob"))
    code = main(["simulate", "--scenario", str(scenario), "--out-dir", str(tmp_path / "o")])
    assert code == 3
    assert "'folowup_prob'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "line", ["target_n=abc", "within_p=x", "blocks=1,a", "trait.t=bernoulli:abc"]
)
def test_cli_scenario_value_does_not_parse(tmp_path, capsys, line):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIO + line + "\n")
    code = main(["simulate", "--scenario", str(scenario), "--out-dir", str(tmp_path / "o")])
    assert code == 3
    key = line.partition("=")[0]
    assert f"{key!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_load_scenario_keys(tmp_path):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "blocks=10,10\ntarget_n=8\nallotment=2\nmode=with\nrecruit_probs=0.2,0.3,0.5\n"
        "site=here\nemployment_trait=\nseed_block=1\nrecip_prob=0.5\n"
    )
    net_cfg, sim_cfg = load_scenario(scenario)
    assert net_cfg.block_sizes == (10, 10)
    assert sim_cfg == SimConfig(
        target_n=8,
        coupon_allotment=2,
        replacement_mode="with",
        recruit_probs=(0.2, 0.3, 0.5),
        site_label="here",
        employment_trait=None,
        seed_block=1,
        recip_prob=0.5,
    )


def test_cli_ingest(cli_study, capsys):
    assert main(["ingest", *_dataset_args(cli_study)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 80
    assert payload["n_seeds"] >= 1
    assert "hiv" in payload["missing_traits"] or payload["missing_traits"] == {}


def test_cli_converge(cli_study, capsys, tmp_path):
    assert main([
        "converge", *_dataset_args(cli_study), "--out-dir", str(tmp_path / "o"),
        "--tau", "30", "--epsilon", "0.05",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tau"] == 30
    assert "hiv" in payload["per_trait"]


def test_cli_estimate_trait_filter(cli_study, capsys, tmp_path):
    assert main([
        "estimate", *_dataset_args(cli_study), "--out-dir", str(tmp_path / "o"),
        "--trait", "hiv",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["per_trait"]) == ["hiv"]
    assert 0.0 <= payload["per_trait"]["hiv"]["vh"] <= 1.0


def test_cli_report(cli_study, capsys, tmp_path):
    out_dir = tmp_path / "report"
    assert main([
        "report", *_dataset_args(cli_study), "--out-dir", str(out_dir),
        "--replicates", "200",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["out_dir"] == str(out_dir)
    assert "bundle.json" not in payload["files"]  # manifest excludes itself
    bundle = json.loads((out_dir / "bundle.json").read_text())
    assert set(bundle["sections"]) == set(ALL_SECTIONS)


def test_cli_missing_input_exit_code(tmp_path, capsys):
    code = main([
        "ingest",
        "--respondents", str(tmp_path / "nope.csv"),
        "--traits", str(tmp_path / "nope2.csv"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_config_checked_before_inputs_are_read(tmp_path, capsys):
    missing = ["--respondents", str(tmp_path / "nope.csv"), "--traits", str(tmp_path / "nope2.csv")]
    out_dir = tmp_path / "out"
    assert main(["report", *missing, "--out-dir", str(out_dir), "--tau", "0"]) == 3
    assert main(["report", *missing, "--out-dir", str(out_dir)]) == 2
    assert not out_dir.exists()


def test_cli_config_file_overrides(cli_study, capsys, tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("tau=25\nepsilon=0.1\n")
    assert main([
        "converge", *_dataset_args(cli_study), "--out-dir", str(tmp_path / "o"),
        "--config", str(config), "--tau", "50",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tau"] == 25
    assert payload["epsilon"] == 0.1


@pytest.mark.parametrize("flag, value", [("--trait", "hiv"), ("--degree-question", "bogus")])
def test_cli_ingest_takes_no_analysis_flag(cli_study, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["ingest", *_dataset_args(cli_study), flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("trait", "hiv"), ("degree_question", "q_know")])
def test_cli_ingest_config_has_no_analysis_key(cli_study, capsys, tmp_path, key, value):
    config = tmp_path / "cfg.txt"
    config.write_text(f"{key}={value}\n")
    assert main(["ingest", *_dataset_args(cli_study), "--config", str(config)]) == 3
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_cli_bad_config_key(cli_study, capsys, tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("nonsense=1\n")
    code = main([
        "converge", *_dataset_args(cli_study), "--out-dir", str(tmp_path / "o"),
        "--config", str(config),
    ])
    assert code == 3


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in bundle")

    return json.loads(text, parse_constant=reject)


def test_cli_report_header_only_traits(cli_study, capsys, tmp_path):
    traits = tmp_path / "traits.csv"
    header = (cli_study / "traits.csv").read_text().splitlines()[0]
    traits.write_text(header + "\n")
    out_dir = tmp_path / "report"
    assert main([
        "report",
        "--respondents", str(cli_study / "respondents.csv"),
        "--traits", str(traits),
        "--followup", str(cli_study / "followup.csv"),
        "--out-dir", str(out_dir),
        "--replicates", "100",
    ]) == 0
    bundle = _strict_json((out_dir / "bundle.json").read_text())
    assert bundle["dataset"]["traits"] == []
    # no trait, so no sensitivity row and no figure; nothing was skipped
    assert bundle["sections"]["degree"]["sensitivity"] == []
    assert not (out_dir / "sensitivity_pairs.svg").exists()


def test_cli_report_unknown_trait_skipped(cli_study, capsys, tmp_path):
    out_dir = tmp_path / "report"
    assert main([
        "report", *_dataset_args(cli_study), "--out-dir", str(out_dir),
        "--replicates", "100", "--trait", "hiv", "--trait", "nope",
    ]) == 0
    sections = _strict_json((out_dir / "bundle.json").read_text())["sections"]
    skipped = {"skipped": "trait 'nope' is not defined for this dataset"}
    assert sections["estimate"]["per_trait"]["nope"] == skipped
    assert "vh" in sections["estimate"]["per_trait"]["hiv"]
    assert sections["converge"]["per_trait"]["nope"] == skipped
    assert sections["converge"]["per_trait"]["hiv"]["evaluable"]
    assert sections["bottleneck"]["per_trait"]["nope"] == skipped
    assert "observed_wsd" in sections["bottleneck"]["per_trait"]["hiv"]
    assert sections["behavior"]["effectiveness"]["nope"] == skipped
    hiv, nope = sections["degree"]["sensitivity"]
    assert hiv["trait"] == "hiv" and hiv["n"] > 0
    assert nope == {"trait": "nope", **skipped}
    files = {p.name for p in out_dir.iterdir()}
    assert {"convergence_hiv.svg", "bottleneck_hiv.svg", "allpoints_hiv.svg",
            "flag_grid.csv", "sensitivity_pairs.svg"} <= files
    assert not any("nope" in name for name in files)
    flags = (out_dir / "convergence_flags.csv").read_text().splitlines()
    assert flags[2] == "nope,,,,"
    conv = str(sections["converge"]["per_trait"]["hiv"]["flagged"]).lower()
    bott = str(sections["bottleneck"]["per_trait"]["hiv"]["flagged"]).lower()
    grid = (out_dir / "flag_grid.csv").read_text().splitlines()
    assert grid[1:] == [f"hiv,{conv},{bott}", "nope,,"]


def _report(study, out_dir, traits, *extra):
    trait_args = [arg for t in traits for arg in ("--trait", t)]
    code = main([
        "report", *_dataset_args(study), "--out-dir", str(out_dir),
        "--replicates", "100", *trait_args, *extra,
    ])
    return code, _strict_json((out_dir / "bundle.json").read_text())["sections"]


def _known_trait_view(sections, out_dir, known):
    """Everything the report says about the known traits, SVGs included."""
    view = {
        name: sections[name]["per_trait"].get(trait)
        for name in ("estimate", "converge", "bottleneck")
        for trait in known
    }
    behavior = sections["behavior"]
    view["effectiveness"] = {t: behavior["effectiveness"][t] for t in known}
    view["motivation_outcome"] = [
        row for row in behavior["motivation_outcome"] if row["trait"] in known
    ]
    view["sensitivity"] = [
        row for row in sections["degree"]["sensitivity"] if row["trait"] in known
    ]
    view["files"] = {
        p.name: p.read_bytes()
        for p in out_dir.iterdir()
        if p.suffix == ".svg" and not p.name.startswith(("flag_grid", "sensitivity"))
    }
    return view


@pytest.mark.parametrize("position", [0, 1, 2])
def test_cli_report_unknown_trait_any_position(cli_study, capsys, tmp_path, position):
    known = ["hiv", "employed"]
    code, reference = _report(cli_study, tmp_path / "known", known)
    assert code == 0
    with_unknown = known[:position] + ["nope"] + known[position:]
    code, sections = _report(cli_study, tmp_path / "mixed", with_unknown)
    assert code == 0
    assert _known_trait_view(sections, tmp_path / "mixed", known) == _known_trait_view(
        reference, tmp_path / "known", known
    )


def test_cli_report_repeated_trait_collapsed(cli_study, capsys, tmp_path):
    code, sections = _report(cli_study, tmp_path / "o", ["hiv", "employed", "hiv"])
    assert code == 0
    assert [row["trait"] for row in sections["degree"]["sensitivity"]] == ["hiv", "employed"]
    for name in ("estimates.csv", "convergence_flags.csv", "bottleneck.csv", "flag_grid.csv"):
        lines = (tmp_path / "o" / name).read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["hiv", "employed"]


def _rewrite_cell(src, dst, row_index, column, value):
    with open(src, newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    rows[row_index][column] = value
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
    return rows[row_index].get("id")


@pytest.mark.parametrize("mode", ["--strict", "--lenient"])
@pytest.mark.parametrize(
    "file_name, column, value",
    [
        ("respondents.csv", "deg_week", "abc"),
        ("respondents.csv", "interview_date", "2020-13-45"),
        ("respondents.csv", "employed", "maybe"),
        ("respondents.csv", "interview_order", ""),
        ("followup.csv", "n_refusals", "x"),
        ("respondents.csv", "deg_week", "-1"),
        ("followup.csv", "n_refusals", "-500"),
        ("followup.csv", "days_1", "-2"),
        ("respondents.csv", "deg_week", "1_000"),
        ("followup.csv", "n_refusals", "+3"),
        ("respondents.csv", "interview_order", "\u0663"),
        ("respondents.csv", "deg_know", "\uff13"),
        ("traits.csv", "name", ""),
        ("traits.csv", "reference_level", " "),
        # beyond the largest float, which the estimators turn degrees into
        pytest.param("respondents.csv", "deg_week", "1" + "0" * 400,
                     id="respondents.csv-deg_week-401-digits"),
        pytest.param("followup.csv", "fu_deg_week", "1" + "0" * 400,
                     id="followup.csv-fu_deg_week-401-digits"),
        # ISO forms other than YYYY-MM-DD, which some Python versions take
        ("respondents.csv", "interview_date", "20080301"),
        ("respondents.csv", "interview_date", "2008-W10-1"),
    ],
)
def test_cli_malformed_cell_exit_code(cli_study, capsys, tmp_path, file_name, column,
                                      value, mode):
    _copy_study(cli_study, tmp_path)
    row = 1 if file_name == "traits.csv" else 3  # the traits file has two rows
    rid = _rewrite_cell(cli_study / file_name, tmp_path / file_name, row, column, value)
    assert main(["report", *_dataset_args(tmp_path), mode,
                 "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / file_name) in err
    record = f"trait row {row + 1}" if rid is None else f"respondent {rid!r}"
    assert f"{record}, column {column!r}" in err


def test_cli_lenient_repair_reported(cli_study, capsys, tmp_path):
    _copy_study(cli_study, tmp_path)
    with open(cli_study / "respondents.csv", newline="") as fh:
        recruit = next(i for i, row in enumerate(csv.DictReader(fh)) if row["coupon_in"])
    rid = _rewrite_cell(cli_study / "respondents.csv", tmp_path / "respondents.csv",
                        recruit, "coupon_in", "NOBODY")
    with pytest.warns(UserWarning, match="NOBODY"):
        assert main(["ingest", *_dataset_args(tmp_path), "--lenient"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_warnings"] == 1
    assert f"treating {rid} as a seed" in payload["warnings"][0]
    out_dir = tmp_path / "o"
    with pytest.warns(UserWarning, match="NOBODY"):
        assert main(["finitepop", *_dataset_args(tmp_path), "--lenient",
                     "--out-dir", str(out_dir)]) == 0
    bundle = json.loads((out_dir / "bundle.json").read_text())
    assert bundle["dataset"]["validation"]["n_warnings"] == 1


@pytest.mark.parametrize("strict", [True, False])
def test_cli_orphan_followup_row(cli_study, capsys, tmp_path, strict):
    _copy_study(cli_study, tmp_path)
    with open(tmp_path / "followup.csv", "a") as fh:
        fh.write("NOBODY,1,1,1,1\n")
    mode = "--strict" if strict else "--lenient"
    if strict:
        assert main(["ingest", *_dataset_args(tmp_path), mode]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "followup.csv") in err and "'NOBODY'" in err
        return
    with pytest.warns(UserWarning, match="NOBODY"):
        assert main(["ingest", *_dataset_args(tmp_path), mode]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_warnings"] == 1
    assert "follow-up id 'NOBODY' matches no respondent" in payload["warnings"][0]
    out_dir = tmp_path / "o"
    with pytest.warns(UserWarning, match="NOBODY"):
        assert main(["finitepop", *_dataset_args(tmp_path), mode, "--out-dir", str(out_dir)]) == 0
    bundle = json.loads((out_dir / "bundle.json").read_text())
    assert bundle["dataset"]["validation"]["n_warnings"] == 1


def test_cli_behavior_stdout_ignores_seed_and_replicates(cli_study, capsys, tmp_path):
    printed = []
    for seed, replicates in (("1", "300"), ("7", "50")):
        capsys.readouterr()
        assert main([
            "behavior", *_dataset_args(cli_study), "--out-dir", str(tmp_path / seed),
            "--seed", seed, "--replicates", replicates,
        ]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert '"quantile_rank"' in printed[0]  # the bias tests ran, not skipped


def _copy_study(study, dst):
    for name in ("respondents.csv", "traits.csv", "followup.csv"):
        (dst / name).write_bytes((study / name).read_bytes())


@pytest.mark.parametrize("file_name", ["respondents.csv", "followup.csv", "traits.csv"])
def test_cli_short_row_exit_code(cli_study, capsys, tmp_path, file_name):
    _copy_study(cli_study, tmp_path)
    lines = (tmp_path / file_name).read_text().splitlines()
    row = min(4, len(lines) - 1)  # the traits file has only a few rows
    lines[row] = ",".join(lines[row].split(",")[:-1])
    (tmp_path / file_name).write_text("\n".join(lines) + "\n")
    assert main(["ingest", *_dataset_args(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "fewer cells than columns" in err and str(tmp_path / file_name) in err


def test_cli_unnumbered_coupon_column_exit_code(cli_study, capsys, tmp_path):
    _copy_study(cli_study, tmp_path)
    path = tmp_path / "respondents.csv"
    path.write_text(path.read_text().replace("coupon_out_1,", "coupon_out_x,", 1))
    assert main(["ingest", *_dataset_args(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "'coupon_out_x'" in err


def test_cli_non_utf8_input_exit_code(cli_study, capsys, tmp_path):
    _copy_study(cli_study, tmp_path)
    path = tmp_path / "respondents.csv"
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    assert main(["ingest", *_dataset_args(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "UTF-8" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--degree-question", "bogus"), ("--replicates", "0"), ("--replicates", "-5"),
     ("--tau", "0"), ("--epsilon", "-1"), ("--epsilon", "0"), ("--seed", "-1"),
     ("--epsilon", "nan"), ("--epsilon", "inf"), ("--threshold", "nan"),
     ("--threshold", "-0.1"), ("--threshold", "1.5")],
)
def test_cli_invalid_config_exit_code(cli_study, capsys, tmp_path, flag, value):
    out_dir = tmp_path / "o"
    code = main(["report", *_dataset_args(cli_study), "--out-dir", str(out_dir), flag, value])
    assert code == 3
    assert "error:" in capsys.readouterr().err
    assert not out_dir.exists()  # rejected before any file is written


@pytest.mark.parametrize(
    "line, message",
    [("tau=0", "tau must be >= 1"), ("epsilon=-1", "epsilon must be > 0"),
     ("seed=-1", "seed must be >= 0, got -1")],
)
def test_cli_invalid_config_value_writes_nothing(cli_study, capsys, tmp_path, line, message):
    config = tmp_path / "cfg.txt"
    config.write_text(line + "\n")
    out_dir = tmp_path / "o"
    code = main([
        "report", *_dataset_args(cli_study), "--out-dir", str(out_dir), "--config", str(config),
    ])
    assert code == 3
    assert f"error: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_bottleneck_negative_seed(cli_study, capsys, tmp_path):
    out_dir = tmp_path / "o"
    code = main([
        "bottleneck", *_dataset_args(cli_study), "--out-dir", str(out_dir), "--seed", "-1",
    ])
    assert code == 3
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("flags, line", [(["--seed", "-1"], ""), ([], "rng_seed=-2\n")])
def test_cli_simulate_negative_seed(tmp_path, capsys, monkeypatch, flags, line):
    def no_network(*args, **kwargs):
        raise AssertionError("network generated before the seed was checked")

    monkeypatch.setattr("rdsdiag.sim.generate_network", no_network)
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIO + line)
    code = main(["simulate", "--scenario", str(scenario), "--out-dir", str(tmp_path / "o"),
                 *flags])
    assert code == 3
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "line",
    ["population_size=abc", "tau=x", "epsilon=y", "seed=z", "strict=maybe", "command=bogus"],
)
def test_cli_config_value_does_not_parse(cli_study, capsys, tmp_path, line):
    config = tmp_path / "cfg.txt"
    config.write_text(line + "\n")
    out_dir = tmp_path / "o"
    code = main([
        "report", *_dataset_args(cli_study), "--out-dir", str(out_dir), "--config", str(config),
    ])
    assert code == 3
    assert repr(line.split("=")[0]) in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_config_trait_is_a_list(cli_study, capsys, tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("trait=hiv\n")
    assert main([
        "estimate", *_dataset_args(cli_study), "--out-dir", str(tmp_path / "o"),
        "--config", str(config),
    ]) == 0
    assert list(json.loads(capsys.readouterr().out)["per_trait"]) == ["hiv"]


def test_cli_population_below_sample_writes_nothing(cli_study, capsys, tmp_path):
    out_dir = tmp_path / "o"
    code = main([
        "report", *_dataset_args(cli_study), "--out-dir", str(out_dir),
        "--population-size", "10",
    ])
    assert code == 3
    assert "population size 10 < sample size" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_report_csvs_quote_cells(cli_study, capsys, tmp_path):
    # a trait name holding a comma is legal in the quoted traits file
    renames = (("traits.csv", "hiv", "hiv,x"), ("respondents.csv", "trait:hiv", "trait:hiv,x"))
    for name, old, new in renames:
        with open(cli_study / name, newline="") as fh:
            rows = [[new if cell == old else cell for cell in row] for row in csv.reader(fh)]
        with open(tmp_path / name, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    (tmp_path / "followup.csv").write_bytes((cli_study / "followup.csv").read_bytes())
    out_dir = tmp_path / "out"
    assert main([
        "report", *_dataset_args(tmp_path), "--out-dir", str(out_dir),
        "--replicates", "200", "--population-size", "5000",
    ]) == 0
    estimates = (out_dir / "estimates.csv").read_text()
    assert '"hiv,x"' in estimates
    for path in sorted(out_dir.glob("*.csv")):
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert all(len(row) == len(header) for row in rows), path.name


@pytest.mark.parametrize(
    "content", [None, b"seed=1\n\xff\xfe\n", "directory"], ids=["missing", "not-utf8", "directory"]
)
@pytest.mark.parametrize("command", ["report", "simulate"])
def test_cli_unreadable_config_or_scenario_file(cli_study, capsys, tmp_path, command, content):
    path = tmp_path / "nope.cfg"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    out_dir = tmp_path / "o"
    if command == "simulate":
        argv = ["simulate", "--scenario", str(path), "--out-dir", str(out_dir)]
    else:
        argv = ["report", *_dataset_args(cli_study), "--out-dir", str(out_dir),
                "--config", str(path)]
    assert main(argv) == 3
    assert str(path) in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "lines, message",
    [
        ("seed_count=-1", "seed_count must be >= 1"),
        ("seed_count=0", "seed_count must be >= 1"),
        ("target_n=0", "target_n and seed_count must be >= 1"),
        ("differential_trait=hiv\nrecruit_probs_if_trait=0.5,0.5",
         "recruit_probs_if_trait must cover 0..allotment"),
        ("recruit_probs=0.5,-0.1,0.3,0.3", "recruit_probs must be >= 0"),
        ("recruit_probs=0,0,0,0", "recruit_probs must be >= 0 with a positive sum"),
        ("differential_trait=nope\nrecruit_probs_if_trait=0.1,0.2,0.3,0.4",
         "network has no trait 'nope'"),
        ("recip_prob=1.5", "recip_prob must lie in [0, 1]"),
        ("blocks=-5,100", "block sizes must be >= 0"),
        ("trait.x=block:9", "trait.x: block must lie in 0..1, got 9"),
        ("trait.x=block:-1", "trait.x: block must lie in 0..1, got -1"),
        ("trait.y=bernoulli:2", "trait.y: p must lie in [0, 1], got 2.0"),
        ("trait.y=bernoulli:nan", "trait.y: p must lie in [0, 1], got nan"),
        ("trait.z=top_degree:1.5", "trait.z: fraction must lie in [0, 1], got 1.5"),
        ("trait.z=top_degree:-0.1", "trait.z: fraction must lie in [0, 1], got -0.1"),
        ("retest_sd=-1", "retest_sd must be >= 0, got -1.0"),
        ("trait.=block:0", "scenario key 'trait.': blank trait name"),
        ("seed_block=9", "seed_block must lie in 0..1, got 9"),
        ("seed_block=-1", "seed_block must lie in 0..1, got -1"),
        ("recruit_probs=nan,1,1,1", "recruit_probs must be >= 0 with a positive sum, all finite"),
        ("recruit_probs=1e308,1e308,1,1",
         "recruit_probs must be >= 0 with a positive sum, all finite"),
        ("differential_trait=hiv\nrecruit_probs_if_trait=inf,1,1,1",
         "recruit_probs_if_trait must be >= 0 with a positive sum, all finite"),
        ("retest_sd=inf", "retest_sd must be finite, got inf"),
        ("retest_sd=1e300", "retest_sd 1e+300 drew a retest degree beyond float range"),
    ],
    ids=["seed_count=-1", "seed_count=0", "target_n=0", "probs-if-trait-length",
         "negative-prob", "zero-probs", "unknown-differential-trait", "recip_prob=1.5",
         "negative-block", "trait-block=9", "trait-block=-1", "trait-bernoulli=2",
         "trait-bernoulli=nan", "trait-top_degree=1.5", "trait-top_degree=-0.1",
         "retest_sd=-1", "blank-trait-name", "seed_block=9", "seed_block=-1",
         "nan-prob", "probs-sum-overflows", "inf-prob-if-trait", "retest_sd=inf",
         "retest_sd=1e300"],
)
def test_cli_simulate_unrealizable_scenario(tmp_path, capsys, lines, message):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIO + lines + "\n")
    code = main(["simulate", "--scenario", str(scenario), "--out-dir", str(tmp_path / "o")])
    assert code == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_trait_name_with_spaces(capsys, tmp_path):
    # the name is stripped in traits.csv and in the trait:<name> header alike
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIO + "trait. x=block:0\n")
    study = tmp_path / "study"
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(study)]) == 0
    capsys.readouterr()
    assert main(["ingest", *_dataset_args(study)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert "x" in summary["traits"] and "x" not in summary["missing_traits"]
    assert main(["estimate", *_dataset_args(study), "--trait", "x",
                 "--out-dir", str(tmp_path / "o")]) == 0
    assert "skipped" not in json.loads(capsys.readouterr().out)["per_trait"]["x"]


def test_cli_traits_sharing_a_figure_name(capsys, tmp_path):
    # "x y" and "x_y" would both write convergence_x_y.svg, bottleneck_x_y.svg
    # and allpoints_x_y.svg
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIO + "trait.x y=block:0\ntrait.x_y=bernoulli:0.5\n")
    study = tmp_path / "study"
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(study)]) == 0
    capsys.readouterr()
    for command in ("report", "converge", "bottleneck"):
        out_dir = tmp_path / command
        assert main([command, *_dataset_args(study), "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert "'x y'" in err and "'x_y'" in err
        assert not out_dir.exists()
    # a command that writes no per-trait figure, or one of the two traits alone, runs
    assert main(["estimate", *_dataset_args(study), "--out-dir", str(tmp_path / "e")]) == 0
    assert main(["report", *_dataset_args(study), "--out-dir", str(tmp_path / "one"),
                 "--trait", "x y", "--replicates", "50"]) == 0
    assert (tmp_path / "one" / "convergence_x_y.svg").exists()


def test_cli_report_deep_chain(capsys, tmp_path):
    # one seed heading a single chain 3000 waves deep
    depth = 3000
    rows = [
        make_respondent(f"R{i}", i + 1, coupon_in=f"C{i}" if i else None,
                        coupons_out=[f"C{i + 1}"] if i < depth else [], degree=2,
                        traits={"hiv": "yes" if i % 2 else "no"})
        for i in range(depth + 1)
    ]
    save_dataset(make_dataset(rows, allotment=1), tmp_path / "respondents.csv",
                 tmp_path / "traits.csv")
    out_dir = tmp_path / "o"
    assert main(["report", "--respondents", str(tmp_path / "respondents.csv"),
                 "--traits", str(tmp_path / "traits.csv"), "--out-dir", str(out_dir),
                 "--replicates", "50"]) == 0
    assert json.loads(capsys.readouterr().out)["dataset"]["max_wave"] == depth
    assert (out_dir / "chains.svg").read_text().count("<circle") == depth + 1


@pytest.mark.parametrize("command", ["report", "estimate", "converge", "bottleneck", "behavior",
                                     "degree", "finitepop", "simulate"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
def test_cli_out_dir_that_cannot_be_a_directory(cli_study, capsys, tmp_path, command, below):
    blocker = tmp_path / "F"
    blocker.write_text("keep\n")
    out_dir = blocker / below if below else blocker
    if command == "simulate":
        args = ["--scenario", str(cli_study.parent / "scenario.txt")]
    else:
        args = [*_dataset_args(cli_study), "--replicates", "50"]
    assert main([command, *args, "--out-dir", str(out_dir)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(out_dir) in captured.err
    assert captured.out == ""
    assert blocker.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F"]


def _argv_in(command, study, **paths):
    """``command``'s arguments with each named path flag set, keeping the
    study's inputs and a config or scenario outside the working directory."""
    if command == "simulate":
        defaults = {"scenario": str(study.parent / "scenario.txt")}
    else:
        defaults = {name: str(study / f"{name}.csv")
                    for name in ("respondents", "traits", "followup")}
    if command != "ingest":
        defaults["out_dir"] = str(study / "o")
    argv = [command, "--replicates", "50"] if command == "report" else [command]
    for key, value in {**defaults, **paths}.items():
        argv += ["--" + key.replace("_", "-"), value]
    return argv


@pytest.mark.parametrize("command, flag", [
    ("report", "out_dir"), ("report", "followup"), ("report", "config"),
    ("ingest", "respondents"), ("simulate", "out_dir"), ("simulate", "scenario"),
])
def test_cli_empty_path_flag_exits_2(cli_study, capsys, tmp_path, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(_argv_in(command, cli_study, **{flag: ""}))
    assert exc.value.code == 2
    assert f"--{flag.replace('_', '-')}: empty path" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert not (cli_study / "o").exists()


@pytest.mark.parametrize("command, key", [
    ("report", "out_dir"), ("report", "followup"), ("simulate", "out_dir"),
])
def test_cli_empty_path_config_key_exits_3(cli_study, capsys, tmp_path, monkeypatch,
                                            command, key):
    config = tmp_path / "cfg" / "cfg.txt"
    config.parent.mkdir()
    config.write_text(f"{key}=\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(_argv_in(command, cli_study, config=str(config))) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: config key {key!r}: cannot parse ''\n"
    assert captured.out == ""
    assert list(work.iterdir()) == []
    assert not (cli_study / "o").exists()


@pytest.mark.parametrize("command, name", [
    ("report", "edges.csv"), ("report", "chains.svg"), ("report", "bundle.json"),
    ("simulate", "respondents.csv"),
])
def test_cli_output_name_taken_by_a_directory(cli_study, capsys, tmp_path, command, name):
    out_dir = tmp_path / "out"
    (out_dir / name).mkdir(parents=True)
    if command == "simulate":
        args = ["--scenario", str(cli_study.parent / "scenario.txt")]
    else:
        args = [*_dataset_args(cli_study), "--replicates", "50"]
    assert main([command, *args, "--out-dir", str(out_dir)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out_dir / name}: Is a directory\n"
    assert captured.out == ""


def _study_with_trait(tmp_path, capsys, name):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIO + f"trait.{name}=block:0\n")
    study = tmp_path / "study"
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(study)]) == 0
    capsys.readouterr()
    return study


@pytest.mark.parametrize("name", ["t" * 240, "t" * 300, "é" * 120],
                         ids=["256-bytes", "300-chars", "two-byte-chars"])
def test_cli_trait_too_long_for_a_file_name(capsys, tmp_path, name):
    # convergence_<name>.svg, the longest figure name, is over 255 bytes
    study = _study_with_trait(tmp_path, capsys, name)
    for command in ("report", "converge", "bottleneck"):
        out_dir = tmp_path / command
        assert main([command, *_dataset_args(study), "--out-dir", str(out_dir)]) == 3
        assert f"trait {name!r} is too long" in capsys.readouterr().err
        assert not out_dir.exists()
    assert main(["estimate", *_dataset_args(study), "--out-dir", str(tmp_path / "e")]) == 0


def test_cli_trait_at_the_file_name_limit(capsys, tmp_path):
    name = "t" * 239  # convergence_<name>.svg is 255 bytes
    study = _study_with_trait(tmp_path, capsys, name)
    out_dir = tmp_path / "o"
    assert main(["converge", *_dataset_args(study), "--out-dir", str(out_dir),
                 "--trait", name]) == 0
    assert (out_dir / f"convergence_{name}.svg").exists()


def test_cli_population_size_beyond_float_precision(cli_study, capsys, tmp_path):
    # 1e16 and 1e308 put the SS excess below float resolution; SS equals VH
    for size in (10**16, 10**308):
        assert main(["estimate", *_dataset_args(cli_study), "--out-dir", str(tmp_path / "o"),
                     "--population-size", str(size)]) == 0
        for entry in json.loads(capsys.readouterr().out)["per_trait"].values():
            (scenario,) = entry["ss"]
            assert scenario["population_size"] == size
            assert scenario["ss"] == entry["vh"] and not scenario["flagged"]


def test_cli_population_size_too_large_for_a_float(cli_study, capsys, tmp_path):
    out_dir = tmp_path / "o"
    code = main(["report", *_dataset_args(cli_study), "--out-dir", str(out_dir),
                 "--population-size", str(10**400)])
    assert code == 3
    assert "is too large for a float" in capsys.readouterr().err
    assert not out_dir.exists()
