import csv
import dataclasses
import json
import math
import warnings
import xml.etree.ElementTree as ET

import pytest

from rdsdiag.cli import load_scenario, main
from rdsdiag.report import ALL_SECTIONS, PipelineConfig, _csv_cell, _jsonable, run_pipeline
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


def _cfg(out_dir, ds, **kw):
    base = dict(out_dir=out_dir, dataset=ds, replicates=300, rng_seed=1)
    base.update(kw)
    return PipelineConfig(**base)


def test_pipeline_byte_determinism(sim_dataset, tmp_path):
    run_pipeline(_cfg(tmp_path / "a", sim_dataset))
    run_pipeline(_cfg(tmp_path / "b", sim_dataset))
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_pipeline_manifest_covers_outputs(sim_dataset, tmp_path):
    bundle = run_pipeline(_cfg(tmp_path / "out", sim_dataset))
    on_disk = {p.name for p in (tmp_path / "out").iterdir()}
    assert set(bundle.manifest) == on_disk - {"bundle.json"}
    written = json.loads((tmp_path / "out" / "bundle.json").read_text())
    assert written["manifest"] == bundle.manifest
    assert written["schema_version"] == bundle.schema_version


def test_pipeline_sections_subset(sim_dataset, tmp_path):
    bundle = run_pipeline(
        _cfg(tmp_path / "out", sim_dataset, sections=("finitepop",))
    )
    assert set(bundle.sections) == {"finitepop"}
    on_disk = {p.name for p in (tmp_path / "out").iterdir()}
    assert "convergence_flags.csv" not in on_disk
    assert "bundle.json" in on_disk


def test_pipeline_empty_sections(sim_dataset, tmp_path):
    bundle = run_pipeline(_cfg(tmp_path / "out", sim_dataset, sections=()))
    assert bundle.sections == {}


def test_flag_grid_matches_bundle(sim_dataset, tmp_path):
    bundle = run_pipeline(_cfg(tmp_path / "out", sim_dataset))
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
    run_pipeline(_cfg(tmp_path / "out", sim_dataset))
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
    @dataclasses.dataclass(frozen=True)
    class Result:
        value: float
        pair: tuple[float, float]
        n: int

    bundled = _jsonable({"r": Result(1 / 3, (math.nan, -math.inf), 3), "ok": True})
    assert bundled == {"r": {"value": 0.333333, "pair": [None, "-inf"], "n": 3}, "ok": True}
    json.dumps(bundled, allow_nan=False)
    assert [_csv_cell(v) for v in (1 / 3, math.nan, math.inf, 1234567.0, True, 3)] == [
        "0.333333", "", "inf", "1.23457e+06", "true", "3"
    ]


def test_pipeline_ss_scenarios(sim_dataset, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        bundle = run_pipeline(
            _cfg(tmp_path / "out", sim_dataset, sections=("estimate",), population_sizes=(500,))
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
    bundle = run_pipeline(_cfg(tmp_path / "out", ds, sections=("degree",)))
    employed, hiv = sorted(
        bundle.sections["degree"]["sensitivity"], key=lambda entry: entry["trait"]
    )
    assert employed == {
        "trait": "employed",
        "skipped": "no usable test/retest members for 'employed'",
    }
    assert hiv["trait"] == "hiv" and hiv["n"] > 0
    assert (tmp_path / "out" / "sensitivity_pairs.svg").exists()


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
    assert bundle["sections"]["degree"]["sensitivity"] == {
        "skipped": "sensitivity-pairs plot needs rows"
    }


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
    with open(dst, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
    return rows[row_index]["id"]


@pytest.mark.parametrize("mode", ["--strict", "--lenient"])
@pytest.mark.parametrize(
    "file_name, column, value",
    [
        ("respondents.csv", "deg_week", "abc"),
        ("respondents.csv", "interview_date", "2020-13-45"),
        ("respondents.csv", "employed", "maybe"),
        ("respondents.csv", "interview_order", ""),
        ("followup.csv", "n_refusals", "x"),
    ],
)
def test_cli_malformed_cell_exit_code(cli_study, capsys, tmp_path, file_name, column,
                                      value, mode):
    _copy_study(cli_study, tmp_path)
    rid = _rewrite_cell(cli_study / file_name, tmp_path / file_name, 3, column, value)
    assert main(["report", *_dataset_args(tmp_path), mode,
                 "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / file_name) in err
    assert repr(rid) in err and repr(column) in err


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


def _copy_study(study, dst):
    for name in ("respondents.csv", "traits.csv", "followup.csv"):
        (dst / name).write_bytes((study / name).read_bytes())


@pytest.mark.parametrize("file_name", ["respondents.csv", "followup.csv", "traits.csv"])
def test_cli_short_row_exit_code(cli_study, capsys, tmp_path, file_name):
    _copy_study(cli_study, tmp_path)
    lines = (tmp_path / file_name).read_text().splitlines()
    row = min(4, len(lines) - 1)  # the traits file has only a few rows
    lines[row] = ",".join(lines[row].split(",")[:2])
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
    [("--degree-question", "bogus"), ("--replicates", "0"), ("--replicates", "-5")],
)
def test_cli_invalid_config_exit_code(cli_study, capsys, tmp_path, flag, value):
    out_dir = tmp_path / "o"
    code = main(["report", *_dataset_args(cli_study), "--out-dir", str(out_dir), flag, value])
    assert code == 3
    assert "error:" in capsys.readouterr().err
    assert not out_dir.exists()  # rejected before any file is written


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
    assert not out_dir.exists() or not any(out_dir.iterdir())


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
