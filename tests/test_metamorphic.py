"""Whole-study metamorphic relations: a change to a study that should not
move a trait's verdicts leaves them where they were.

A trait's reference draw may depend on its included size and its cells,
but never on its name or its position among the requested traits.
"""

import dataclasses

import pytest

from rdsdiag.dataset import TraitSpec
from rdsdiag.report import PipelineConfig, diagnose
from rdsdiag.sim import NetworkConfig, SimConfig, TraitRule, generate_network, simulate_rds


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_duplicate_trait_gets_the_same_entries(seed):
    ds = _study(seed)
    cfg = PipelineConfig(replicates=400, rng_seed=seed, population_sizes=(2000,))
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
