"""Whole-study metamorphic relations: a change to a study that should not
move a trait's verdicts leaves them where they were.

A trait's reference draw may depend on its included size and its cells,
but never on its name or its position among the requested traits.  The
order of the input rows and the names of the coupons reach no output byte;
the names of the respondents reach only what is ordered by them (the
figures, ``edges.csv`` and the manifest), so the bundle's sections keep
them out.  Flipping a trait's reference level turns each estimate p into
1 - p and leaves its convergence and bottleneck verdicts alone.

Each relation is checked on three fixed studies (seeds 1-3 of one
two-block scenario) and as a hypothesis property over small simulated
studies, with the block sizes, edge probabilities, missing trait answers,
permutation replicates and seed drawn.  Missing answers give traits of one
included size different cells, so there the permutation test draws one
size's rows for more than one group.
"""

import csv
import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdsdiag.dataset import TraitSpec, load_dataset, save_dataset
from rdsdiag.report import PipelineConfig, diagnose, run_pipeline
from rdsdiag.sim import NetworkConfig, SimConfig, TraitRule, generate_network, simulate_rds

SEEDS = [1, 2, 3]


def _simulate(block_sizes, within, between, target_n, missing, hiv_p, seed):
    net = generate_network(
        NetworkConfig(
            block_sizes=block_sizes,
            within_block_edge_prob=within,
            between_block_edge_prob=between,
            traits={
                # unclustered, so that its bottleneck rank depends on the draw
                "hiv": TraitRule("bernoulli", p=hiv_p),
                "employed": TraitRule("bernoulli", p=0.6),
            },
        ),
        rng_seed=seed,
    )
    config = SimConfig(target_n=target_n, followup_prob=0.7, retest_sd=1.0,
                       trait_missing_prob=missing, rng_seed=seed)
    return simulate_rds(net, config).dataset


def _study(seed):
    return _simulate((150, 150), 0.05, 0.002, 150, 0.1, 0.3, seed)


@st.composite
def _studies(draw):
    """A small simulated study (at most 200 respondents) and the report
    config to run on it."""
    blocks = tuple(draw(st.lists(st.integers(10, 120), min_size=1, max_size=3)))
    seed = draw(st.integers(0, 2**32 - 1))
    ds = _simulate(
        blocks,
        # 1.5 to 8 neighbours within the largest block, so the graph holds together
        within=draw(st.floats(1.5, 8.0)) / (max(blocks) - 1),
        between=draw(st.floats(0.0, 0.02)),
        target_n=draw(st.integers(6, min(200, sum(blocks)))),
        missing=draw(st.sampled_from([0.0, 0.05, 0.3])),
        hiv_p=draw(st.floats(0.1, 0.9)),
        seed=seed,
    )
    return ds, _config(seed, replicates=draw(st.integers(1, 500)))


def _with_copy(ds, trait, copy):
    """``ds`` with a new trait ``copy`` answered as ``trait`` is."""
    respondents = tuple(
        dataclasses.replace(r, traits={**r.traits, copy: r.traits.get(trait)})
        for r in ds.respondents
    )
    spec = TraitSpec(copy, ds.trait_spec(trait).reference_level)
    return dataclasses.replace(ds, respondents=respondents, trait_specs=(*ds.trait_specs, spec))


def _config(seed, replicates=400, **kw):
    return PipelineConfig(replicates=replicates, rng_seed=seed, population_sizes=(2000,), **kw)


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


def _renamed(entry, old, new):
    """``entry`` with a skipped reason's trait name ``old`` read as ``new``."""
    if "skipped" in entry:
        return {**entry, "skipped": entry["skipped"].replace(repr(old), repr(new))}
    return entry


def _check_row_order(ds, cfg, folder, rng):
    expected = _report(_save(ds, folder / "study"), folder / "out", cfg)
    respondents, traits, followup = _save(ds, folder / "shuffled")
    for path in (respondents, followup):
        _shuffle_rows(path, rng)
    assert _report((respondents, traits, followup), folder / "shuffled-out", cfg) == expected


def _check_coupon_names(ds, cfg, folder):
    expected = _report(_save(ds, folder / "study"), folder / "out", cfg)
    renamed = _rename_coupons(ds)
    redeemed = {r.coupon_in for r in ds.respondents} - {None}
    assert redeemed.isdisjoint(r.coupon_in for r in renamed.respondents)
    assert _report(_save(renamed, folder / "renamed"), folder / "renamed-out", cfg) == expected


def _check_respondent_names(ds, cfg, folder):
    def bundle(study, name):
        files = _report(_save(study, folder / name), folder / f"{name}-out", cfg)
        return json.loads(files["bundle.json"])

    expected, renamed = bundle(ds, "study"), bundle(_rename_ids(ds), "renamed")
    assert renamed["dataset"] == expected["dataset"]
    assert renamed["sections"] == expected["sections"]


def _check_flipped_reference_level(ds, cfg):
    """Check the relation; the sections of the study as it is."""
    specs = tuple(TraitSpec("hiv", "no") if s.name == "hiv" else s for s in ds.trait_specs)
    cfg = dataclasses.replace(cfg, traits=("hiv",), sections=("estimate", "converge", "bottleneck"))
    kept, flipped = (diagnose(study, cfg).sections
                     for study in (ds, dataclasses.replace(ds, trait_specs=specs)))
    estimate, mirrored = (s["estimate"]["per_trait"]["hiv"] for s in (kept, flipped))
    if "skipped" in estimate:
        assert mirrored == estimate
    else:
        assert estimate["vh"] + mirrored["vh"] == pytest.approx(1.0, abs=1e-12)
        for ss, mirrored_ss in zip(estimate["ss"], mirrored["ss"], strict=True):
            assert ss["ss"] + mirrored_ss["ss"] == pytest.approx(1.0, abs=1e-12)
    converge, mirrored = (s["converge"]["per_trait"]["hiv"] for s in (kept, flipped))
    if converge.get("evaluable"):
        assert mirrored["max_deviation"] == pytest.approx(converge["max_deviation"], abs=1e-12)
    assert {**mirrored, "max_deviation": None} == {**converge, "max_deviation": None}
    assert flipped["bottleneck"]["per_trait"]["hiv"] == kept["bottleneck"]["per_trait"]["hiv"]
    return kept


def _check_duplicate_trait(ds, cfg, traits):
    """Check the relation with the traits requested in the order ``traits``
    (hiv, employed and hiv's copy hiv2); the diagnosis with the copy."""
    both = diagnose(_with_copy(ds, "hiv", "hiv2"), dataclasses.replace(cfg, traits=traits))
    alone = diagnose(ds, dataclasses.replace(cfg, traits=("hiv",)))
    for section in ("estimate", "converge", "bottleneck"):
        entries = both.sections[section]["per_trait"]
        expected = alone.sections[section]["per_trait"]["hiv"]
        assert entries["hiv"] == expected
        assert _renamed(entries["hiv2"], "hiv2", "hiv") == expected
    sensitivity = both.sections["degree"]["sensitivity"]
    if isinstance(sensitivity, list):
        rows = {row["trait"]: row for row in sensitivity}
        assert _renamed({**rows["hiv2"], "trait": "hiv"}, "hiv2", "hiv") == rows["hiv"]
    else:  # every trait skipped: the first one's reason
        assert sensitivity == _renamed(sensitivity, "hiv2", traits[0])
    return both


@pytest.mark.parametrize("seed", SEEDS)
def test_row_order_reaches_no_output_byte(tmp_path, seed):
    _check_row_order(_study(seed), _config(seed), tmp_path, random.Random(seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_coupon_names_reach_no_output_byte(tmp_path, seed):
    ds = _study(seed)
    assert any(r.coupon_in is not None for r in ds.respondents)
    _check_coupon_names(ds, _config(seed), tmp_path)


@pytest.mark.parametrize("seed", SEEDS)
def test_respondent_names_reach_no_bundle_section(tmp_path, seed):
    _check_respondent_names(_study(seed), _config(seed), tmp_path)


@pytest.mark.parametrize("seed", SEEDS)
def test_flipped_reference_level_mirrors_the_estimates(seed):
    kept = _check_flipped_reference_level(_study(seed), _config(seed))
    assert kept["converge"]["per_trait"]["hiv"]["evaluable"]
    assert "skipped" not in kept["bottleneck"]["per_trait"]["hiv"]


@pytest.mark.parametrize("seed", SEEDS)
def test_duplicate_trait_gets_the_same_entries(seed):
    # the copy comes after another trait, so its position differs from hiv's
    both = _check_duplicate_trait(_study(seed), _config(seed), ("hiv", "employed", "hiv2"))
    for section in ("estimate", "converge", "bottleneck"):
        assert "skipped" not in both.sections[section]["per_trait"]["hiv"]
    # the relation covers a permutation test that stopped before its cap
    assert any(e["replicates_used"] < e["replicates"]
               for e in both.sections["bottleneck"]["per_trait"].values())
    rows = {row["trait"]: row for row in both.sections["degree"]["sensitivity"]}
    assert "estimate_test" in rows["hiv"]


# 50 studies of at most 200 respondents each, about a second a property
PROPERTY = settings(max_examples=50, deadline=None)


@PROPERTY
@given(study=_studies(), rng=st.randoms(use_true_random=False))
def test_row_order_reaches_no_output_byte_property(tmp_path_factory, study, rng):
    _check_row_order(*study, tmp_path_factory.mktemp("rows"), rng)


@PROPERTY
@given(study=_studies())
def test_coupon_names_reach_no_output_byte_property(tmp_path_factory, study):
    _check_coupon_names(*study, tmp_path_factory.mktemp("coupons"))


@PROPERTY
@given(study=_studies())
def test_respondent_names_reach_no_bundle_section_property(tmp_path_factory, study):
    _check_respondent_names(*study, tmp_path_factory.mktemp("ids"))


@PROPERTY
@given(study=_studies())
def test_flipped_reference_level_mirrors_the_estimates_property(study):
    _check_flipped_reference_level(*study)


@PROPERTY
@given(study=_studies(), traits=st.permutations(("hiv", "employed", "hiv2")))
def test_duplicate_trait_gets_the_same_entries_property(study, traits):
    _check_duplicate_trait(*study, tuple(traits))
