from collections import Counter

import numpy as np
import pytest

from rdsdiag.dataset import load_dataset, save_dataset, validate_dataset
from rdsdiag.errors import UnknownTrait, UnrealizableConfig
from rdsdiag.forest import build_forest
from rdsdiag.sim import (
    NetworkConfig,
    SimConfig,
    TraitRule,
    generate_network,
    simulate_rds,
    true_prevalence,
)

TWO_BLOCK = NetworkConfig(
    block_sizes=(150, 150),
    within_block_edge_prob=0.05,
    between_block_edge_prob=0.001,
    traits={"hiv": TraitRule("block", block=0), "employed": TraitRule("bernoulli", p=0.6)},
)


@pytest.fixture(scope="module")
def two_block_net():
    return generate_network(TWO_BLOCK, rng_seed=1)


# -- network generation ------------------------------------------------------


def test_network_determinism(two_block_net):
    again = generate_network(TWO_BLOCK, rng_seed=1)
    assert np.array_equal(two_block_net.degrees, again.degrees)
    for a, b in zip(two_block_net.neighbors, again.neighbors):
        assert np.array_equal(a, b)
    different = generate_network(TWO_BLOCK, rng_seed=2)
    assert not all(
        np.array_equal(a, b)
        for a, b in zip(two_block_net.neighbors, different.neighbors)
    )


def test_network_connected(two_block_net):
    # BFS from node 0 reaches everyone
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in two_block_net.neighbors[u]:
                if int(v) not in seen:
                    seen.add(int(v))
                    nxt.append(int(v))
        frontier = nxt
    assert len(seen) == two_block_net.node_count


def test_network_degrees_consistent(two_block_net):
    assert all(
        len(two_block_net.neighbors[i]) == two_block_net.degrees[i]
        for i in range(two_block_net.node_count)
    )
    # no self loops
    assert all(
        i not in set(int(v) for v in two_block_net.neighbors[i])
        for i in range(two_block_net.node_count)
    )


def test_network_block_trait(two_block_net):
    hiv = two_block_net.node_traits["hiv"]
    assert hiv[:150].all() and not hiv[150:].any()
    assert true_prevalence(two_block_net, "hiv") == pytest.approx(0.5)


def test_network_top_degree_trait():
    cfg = NetworkConfig(
        block_sizes=(100,),
        within_block_edge_prob=0.08,
        between_block_edge_prob=0.0,
        traits={"hub": TraitRule("top_degree", fraction=0.2)},
    )
    net = generate_network(cfg, rng_seed=3)
    mask = net.node_traits["hub"]
    assert mask.sum() == 20
    assert net.degrees[mask].min() >= net.degrees[~mask].max() - 0  # top block
    assert true_prevalence(net, "hub") == pytest.approx(0.2)


def test_network_modularity(two_block_net):
    # within-block edge share far above the null expectation of ~0.5
    within = between = 0
    for u in range(two_block_net.node_count):
        for v in two_block_net.neighbors[u]:
            if two_block_net.blocks[u] == two_block_net.blocks[int(v)]:
                within += 1
            else:
                between += 1
    share_within = within / (within + between)
    modularity = share_within - 0.5
    assert modularity > 0.4


def test_network_unrealizable():
    with pytest.raises(UnrealizableConfig):
        generate_network(
            NetworkConfig(block_sizes=(50,), within_block_edge_prob=1.5,
                          between_block_edge_prob=0.0)
        )
    with pytest.raises(UnrealizableConfig):
        generate_network(
            NetworkConfig(block_sizes=(200,), within_block_edge_prob=0.001,
                          between_block_edge_prob=0.0)
        )
    with pytest.raises(UnrealizableConfig):
        generate_network(
            NetworkConfig(block_sizes=(50,), within_block_edge_prob=0.5,
                          between_block_edge_prob=0.0,
                          traits={"x": TraitRule("nope")})
        )


def test_true_prevalence_unknown_trait(two_block_net):
    with pytest.raises(UnknownTrait):
        true_prevalence(two_block_net, "nope")


# -- simulation --------------------------------------------------------------


def _sim_cfg(**kw):
    base = dict(target_n=120, seed_count=6, rng_seed=5, followup_prob=0.6)
    base.update(kw)
    return SimConfig(**base)


def test_sim_determinism(two_block_net):
    a = simulate_rds(two_block_net, _sim_cfg())
    b = simulate_rds(two_block_net, _sim_cfg())
    assert a.dataset == b.dataset
    assert a.node_of == b.node_of


def test_sim_without_mode_unique_nodes(two_block_net):
    result = simulate_rds(two_block_net, _sim_cfg())
    ds = result.dataset
    assert not result.extinct
    assert ds.n == 120
    ids = [r.id for r in ds.respondents]
    assert len(set(ids)) == len(ids)
    nodes = list(result.node_of.values())
    assert len(set(nodes)) == len(nodes)  # nobody interviewed twice


def test_sim_output_survives_strict_ingest(two_block_net, tmp_path):
    result = simulate_rds(two_block_net, _sim_cfg())
    save_dataset(
        result.dataset,
        tmp_path / "respondents.csv",
        tmp_path / "traits.csv",
        tmp_path / "followup.csv",
    )
    reloaded = load_dataset(
        tmp_path / "respondents.csv",
        tmp_path / "traits.csv",
        tmp_path / "followup.csv",
        strict=True,
    )
    assert reloaded.n == result.dataset.n
    report = validate_dataset(reloaded)
    assert report.truncations_applied == 0
    forest = build_forest(reloaded)
    assert set(forest.roots) <= {r.id for r in reloaded.respondents}


def test_sim_forest_matches_coupon_links(two_block_net):
    result = simulate_rds(two_block_net, _sim_cfg())
    forest = build_forest(result.dataset)
    for r in result.dataset.respondents:
        if r.coupon_in is None:
            assert r.id in forest.roots
        else:
            parent = forest.parent[r.id]
            assert r.coupon_in in result.dataset.by_id(parent).coupons_out


def test_sim_extinction():
    net = generate_network(
        NetworkConfig(block_sizes=(60,), within_block_edge_prob=0.08,
                      between_block_edge_prob=0.0),
        rng_seed=4,
    )
    cfg = SimConfig(target_n=60, seed_count=2, nonreturn_prob=0.95,
                    refusal_prob=0.5, rng_seed=7)
    result = simulate_rds(net, cfg)
    assert result.extinct
    assert result.dataset.n < 60


def test_sim_differential_recruitment(two_block_net):
    cfg = _sim_cfg(
        target_n=80,
        differential_trait="hiv",
        recruit_probs=(0.9, 0.1, 0.0, 0.0),
        recruit_probs_if_trait=(0.0, 0.0, 0.1, 0.9),
        seed_block=0,
        rng_seed=11,
    )
    result = simulate_rds(two_block_net, cfg)
    counts = Counter()
    for r in result.dataset.respondents:
        counts[r.traits["hiv"], len(r.coupons_out)] += 1
    mean_pos = np.mean(
        [len(r.coupons_out) for r in result.dataset.respondents
         if r.traits["hiv"] == "yes"]
    )
    mean_neg_vals = [
        len(r.coupons_out) for r in result.dataset.respondents
        if r.traits["hiv"] == "no"
    ]
    if mean_neg_vals:
        assert mean_pos > np.mean(mean_neg_vals)
    assert mean_pos > 1.5


def test_sim_config_validation(two_block_net):
    with pytest.raises(UnrealizableConfig):
        SimConfig(target_n=10, replacement_mode="sideways").validate(two_block_net)
    with pytest.raises(UnrealizableConfig):
        SimConfig(target_n=10_000).validate(two_block_net)
    with pytest.raises(UnrealizableConfig):
        SimConfig(target_n=10, recruit_probs=(0.5, 0.5)).validate(two_block_net)


def test_with_replacement_walk_approaches_degree_stationarity():
    net = generate_network(
        NetworkConfig(block_sizes=(120,), within_block_edge_prob=0.06,
                      between_block_edge_prob=0.0),
        rng_seed=9,
    )
    expected = net.degrees / net.degrees.sum()

    def visit_distance(steps, seed):
        cfg = SimConfig(
            target_n=steps,
            seed_count=1,
            coupon_allotment=1,
            replacement_mode="with",
            recruit_probs=(0.0, 1.0),
            refusal_prob=0.0,
            nonreturn_prob=0.0,
            followup_prob=0.0,
            rng_seed=seed,
        )
        result = simulate_rds(net, cfg)
        counts = np.zeros(net.node_count)
        for node in result.node_of.values():
            counts[node] += 1
        observed = counts / counts.sum()
        return float(np.abs(observed - expected).sum())

    short = np.mean([visit_distance(1_000, s) for s in range(3)])
    long = np.mean([visit_distance(20_000, s) for s in range(3)])
    assert long < short * 0.5


def test_with_replacement_can_revisit():
    net = generate_network(
        NetworkConfig(block_sizes=(30,), within_block_edge_prob=0.3,
                      between_block_edge_prob=0.0),
        rng_seed=2,
    )
    cfg = SimConfig(
        target_n=300, seed_count=1, coupon_allotment=1,
        replacement_mode="with", recruit_probs=(0.0, 1.0),
        refusal_prob=0.0, nonreturn_prob=0.0, followup_prob=0.0, rng_seed=0,
    )
    result = simulate_rds(net, cfg)
    nodes = list(result.node_of.values())
    assert len(set(nodes)) < len(nodes)  # revisits happen
    ids = [r.id for r in result.dataset.respondents]
    assert len(set(ids)) == len(ids)  # but respondent ids stay unique
