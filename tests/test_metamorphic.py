"""Whole-study metamorphic relations: a change to a study that should not
move a trait's verdicts leaves them where they were.

A trait's reference draw may depend on its included size and its cells,
but never on its name or its position among the requested traits.  The
order of the input rows and the names of the coupons reach no output byte;
the names of the respondents reach only what is ordered by them (the
figures, ``edges.csv`` and the manifest), so the bundle's sections keep
them out.  Flipping a trait's reference level turns each estimate p into
1 - p and leaves its convergence and bottleneck verdicts alone.
"""

import csv
import dataclasses
import json
import random

import pytest

from rdsdiag.dataset import TraitSpec, load_dataset, save_dataset
from rdsdiag.report import PipelineConfig, diagnose, run_pipeline
from rdsdiag.sim import NetworkConfig, SimConfig, TraitRule, generate_network, simulate_rds

SEEDS = [1, 2, 3]


def _study(seed):
    net = generate_network(
        NetworkConfig(
            block_sizes=(150, 150),
            within_block_edge_prob=0.05,
            between_block_edge_prob=0.002,
            traits={
                # unclustered, so that its bottleneck rank depends on the draw
                "hiv": TraitRule("bernoulli", p=0.3),
                "employed": TraitRule("bernoulli", p=0.6),
            },
        ),
        rng_seed=seed,
    )
    config = SimConfig(target_n=150, followup_prob=0.7, retest_sd=1.0,
                       trait_missing_prob=0.1, rng_seed=seed)
    return simulate_rds(net, config).dataset


def _with_copy(ds, trait, copy):
    """``ds`` with a new trait ``copy`` answered as ``trait`` is."""
    respondents = tuple(
        dataclasses.replace(r, traits={**r.traits, copy: r.traits.get(trait)})
        for r in ds.respondents
    )
    spec = TraitSpec(copy, ds.trait_spec(trait).reference_level)
    return dataclasses.replace(ds, respondents=respondents, trait_specs=(*ds.trait_specs, spec))


def _config(seed, **kw):
    return PipelineConfig(replicates=400, rng_seed=seed, population_sizes=(2000,), **kw)


def _save(ds, folder):
    """Write ``ds`` as its three CSV files under ``folder``; their paths."""
    folder.mkdir()
    paths = tuple(folder / name for name in ("respondents.csv", "traits.csv", "followup.csv"))
    save_dataset(ds, *paths)
    return paths


def _report(paths, out, cfg):
    """Every output file of the report on the study in ``paths``, by name."""
    run_pipeline(load_dataset(*paths), cfg, out)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _shuffle_rows(path, rng):
    """Shuffle the data rows of the CSV at ``path``, keeping its header first."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    rng.shuffle(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def _rename_coupons(ds):
    """``ds`` with every coupon renamed, the new names in reverse order of
    the old ones."""
    followups = [r.followup for r in ds.respondents if r.followup is not None]
    old = sorted({*(c for r in ds.respondents for c in r.coupons_out),
                  *(c.coupon_id for fu in followups for c in fu.coupons)})
    new = dict(zip(old, (f"K{i:05d}" for i in range(len(old), 0, -1))))

    def renamed(r):
        fu = r.followup
        if fu is not None:
            coupons = tuple(dataclasses.replace(c, coupon_id=new[c.coupon_id]) for c in fu.coupons)
            fu = dataclasses.replace(fu, coupons=coupons)
        return dataclasses.replace(r, coupon_in=new.get(r.coupon_in),
                                   coupons_out=frozenset(map(new.get, r.coupons_out)), followup=fu)

    return dataclasses.replace(ds, respondents=tuple(map(renamed, ds.respondents)))


def _rename_ids(ds):
    """``ds`` with every respondent renamed, the new names in reverse
    interview order."""
    new = {r.id: f"P{ds.n + 1 - r.interview_order:04d}" for r in ds.respondents}
    respondents = tuple(dataclasses.replace(r, id=new[r.id]) for r in ds.respondents)
    return dataclasses.replace(ds, respondents=respondents)


@pytest.mark.parametrize("seed", SEEDS)
def test_row_order_reaches_no_output_byte(tmp_path, seed):
    ds, cfg = _study(seed), _config(seed)
    expected = _report(_save(ds, tmp_path / "study"), tmp_path / "out", cfg)
    respondents, traits, followup = _save(ds, tmp_path / "shuffled")
    rng = random.Random(seed)
    for path in (respondents, followup):
        _shuffle_rows(path, rng)
    shuffled = _report((respondents, traits, followup), tmp_path / "shuffled-out", cfg)
    assert shuffled == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_coupon_names_reach_no_output_byte(tmp_path, seed):
    ds, cfg = _study(seed), _config(seed)
    expected = _report(_save(ds, tmp_path / "study"), tmp_path / "out", cfg)
    renamed = _rename_coupons(ds)
    redeemed = {r.coupon_in for r in ds.respondents} - {None}
    assert redeemed and redeemed.isdisjoint(r.coupon_in for r in renamed.respondents)
    assert _report(_save(renamed, tmp_path / "renamed"), tmp_path / "renamed-out", cfg) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_respondent_names_reach_no_bundle_section(tmp_path, seed):
    ds, cfg = _study(seed), _config(seed)

    def bundle(study, name):
        files = _report(_save(study, tmp_path / name), tmp_path / f"{name}-out", cfg)
        return json.loads(files["bundle.json"])

    expected, renamed = bundle(ds, "study"), bundle(_rename_ids(ds), "renamed")
    assert renamed["dataset"] == expected["dataset"]
    assert renamed["sections"] == expected["sections"]


@pytest.mark.parametrize("seed", SEEDS)
def test_flipped_reference_level_mirrors_the_estimates(seed):
    ds = _study(seed)
    specs = tuple(TraitSpec("hiv", "no") if s.name == "hiv" else s for s in ds.trait_specs)
    cfg = _config(seed, traits=("hiv",), sections=("estimate", "converge", "bottleneck"))
    kept, flipped = (diagnose(study, cfg).sections
                     for study in (ds, dataclasses.replace(ds, trait_specs=specs)))
    estimate, mirrored = (s["estimate"]["per_trait"]["hiv"] for s in (kept, flipped))
    assert estimate["vh"] + mirrored["vh"] == pytest.approx(1.0, abs=1e-12)
    for ss, mirrored_ss in zip(estimate["ss"], mirrored["ss"], strict=True):
        assert ss["ss"] + mirrored_ss["ss"] == pytest.approx(1.0, abs=1e-12)
    converge, mirrored = (s["converge"]["per_trait"]["hiv"] for s in (kept, flipped))
    assert converge["evaluable"]
    assert mirrored["max_deviation"] == pytest.approx(converge["max_deviation"], abs=1e-12)
    assert {**mirrored, "max_deviation": None} == {**converge, "max_deviation": None}
    bottleneck = kept["bottleneck"]["per_trait"]["hiv"]
    assert "skipped" not in bottleneck
    assert flipped["bottleneck"]["per_trait"]["hiv"] == bottleneck


@pytest.mark.parametrize("seed", SEEDS)
def test_duplicate_trait_gets_the_same_entries(seed):
    ds = _study(seed)
    cfg = _config(seed)
    # the copy comes after another trait, so its position differs from hiv's
    both = diagnose(_with_copy(ds, "hiv", "hiv2"),
                    dataclasses.replace(cfg, traits=("hiv", "employed", "hiv2")))
    alone = diagnose(ds, dataclasses.replace(cfg, traits=("hiv",)))
    for section in ("estimate", "converge", "bottleneck"):
        entries = both.sections[section]["per_trait"]
        assert "skipped" not in entries["hiv"]
        assert entries["hiv2"] == entries["hiv"] == alone.sections[section]["per_trait"]["hiv"]
    rows = {row["trait"]: row for row in both.sections["degree"]["sensitivity"]}
    assert "estimate_test" in rows["hiv"]
    assert {**rows["hiv2"], "trait": "hiv"} == rows["hiv"]
