import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from rdsdiag import sim
from rdsdiag.dataset import load_dataset, save_dataset, validate_dataset
from rdsdiag.errors import DataRequirementError, UnrealizableConfig
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


def _neighbors(net, v):
    return net.targets[net.offsets[v]:net.offsets[v + 1]]


# -- network generation ------------------------------------------------------


def test_network_determinism(two_block_net):
    again = generate_network(TWO_BLOCK, rng_seed=1)
    assert np.array_equal(two_block_net.degrees, again.degrees)
    assert np.array_equal(two_block_net.offsets, again.offsets)
    assert np.array_equal(two_block_net.targets, again.targets)
    different = generate_network(TWO_BLOCK, rng_seed=2)
    assert not (
        np.array_equal(two_block_net.offsets, different.offsets)
        and np.array_equal(two_block_net.targets, different.targets)
    )


def test_network_connected(two_block_net):
    # BFS from node 0 reaches everyone
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in _neighbors(two_block_net, u):
                if int(v) not in seen:
                    seen.add(int(v))
                    nxt.append(int(v))
        frontier = nxt
    assert len(seen) == two_block_net.node_count


def test_network_degrees_consistent(two_block_net):
    assert all(
        len(_neighbors(two_block_net, i)) == two_block_net.degrees[i]
        for i in range(two_block_net.node_count)
    )
    # no self loops
    assert all(
        i not in set(int(v) for v in _neighbors(two_block_net, i))
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
        for v in _neighbors(two_block_net, u):
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


def _oracle_network(cfg, rng_seed):
    """The network drawn as one dense matrix per block pair, with the stray
    components found by breadth-first search: (neighbors, degrees, traits,
    links added)."""
    rng = np.random.default_rng(rng_seed)
    sizes = np.array(cfg.block_sizes)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n = int(sizes.sum())
    adjacency = [[] for _ in range(n)]
    for bi in range(len(sizes)):
        for bj in range(bi, len(sizes)):
            p = cfg.within_block_edge_prob if bi == bj else cfg.between_block_edge_prob
            if p <= 0.0:
                continue
            mat = rng.random((sizes[bi], sizes[bj])) < p
            if bi == bj:
                mat = np.triu(mat, k=1)
            for u, v in zip(*np.nonzero(mat)):
                adjacency[int(u + starts[bi])].append(int(v + starts[bj]))
                adjacency[int(v + starts[bj])].append(int(u + starts[bi]))

    component = np.full(n, -1)
    n_components = 0
    for start in range(n):
        if component[start] >= 0:
            continue
        component[start] = n_components
        queue = deque([start])
        while queue:
            for v in adjacency[queue.popleft()]:
                if component[v] < 0:
                    component[v] = n_components
                    queue.append(v)
        n_components += 1
    main = int(np.bincount(component).argmax())
    main_nodes = np.nonzero(component == main)[0]
    added = 0
    for cid in range(n_components):
        if cid != main:
            u = int(rng.choice(np.nonzero(component == cid)[0]))
            v = int(rng.choice(main_nodes))
            adjacency[u].append(v)
            adjacency[v].append(u)
            added += 1
    neighbors = [np.array(sorted(set(a)), dtype=int) for a in adjacency]
    degrees = np.array([len(a) for a in neighbors])

    blocks = np.repeat(np.arange(len(sizes)), sizes)
    traits = {}
    for name, rule in cfg.traits.items():
        if rule.kind == "block":
            traits[name] = blocks == rule.block
        elif rule.kind == "bernoulli":
            traits[name] = rng.random(n) < rule.p
        else:
            order = np.lexsort((np.arange(n), -degrees))
            traits[name] = np.isin(np.arange(n), order[: int(round(rule.fraction * n))])
    return neighbors, degrees, traits, added


_EDGE_PROBS = st.sampled_from([0.0, 0.1, 0.3, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _small_networks(draw):
    sizes = tuple(draw(st.lists(st.integers(0, 12), min_size=1, max_size=4)))
    traits = {
        "blk": TraitRule("block", block=draw(st.integers(0, len(sizes) - 1))),
        "ber": TraitRule("bernoulli", p=draw(_EDGE_PROBS)),
        "top": TraitRule("top_degree", fraction=draw(_EDGE_PROBS)),
    }
    return NetworkConfig(sizes, draw(_EDGE_PROBS), draw(_EDGE_PROBS), traits)


_TRAITS = {"blk": TraitRule("block", block=0), "top": TraitRule("top_degree", fraction=0.3)}


@settings(max_examples=200, deadline=None)
# one-value chunks (a budget below one value), chunks that end mid-row on
# 12-node rows, and chunks of a few rows
@given(cfg=_small_networks(), rng_seed=st.integers(0, 50),
       draw_bytes=st.sampled_from([1, 8 * 5, 8 * 13, 8 * 12 * 3, sim._DRAW_BYTES]))
@example(  # zero-size blocks, p = 1 between blocks
    cfg=NetworkConfig((6, 0, 5, 0), 0.3, 1.0, _TRAITS), rng_seed=0, draw_bytes=1)
@example(  # a complete block
    cfg=NetworkConfig((12,), 1.0, 0.0, _TRAITS), rng_seed=1, draw_bytes=8 * 12 * 3)
@example(  # shattered: 8 stray components are linked
    cfg=NetworkConfig((5, 5, 5, 5), 0.25, 0.02, _TRAITS), rng_seed=0, draw_bytes=1)
@example(  # shattered and p = 0 within blocks: 4 stray components are linked
    cfg=NetworkConfig((3, 3, 3), 0.0, 0.2, _TRAITS), rng_seed=4, draw_bytes=24)
@example(  # shattered: the links outgrow the room kept for the expected edges
    cfg=NetworkConfig((5, 12, 5, 11), 0.1, 0.0, _TRAITS), rng_seed=0, draw_bytes=8 * 5)
def test_network_matches_dense_draw_oracle(cfg, rng_seed, draw_bytes):
    # drawing each block pair in flat chunks keeps every bit of the one-call draw
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_DRAW_BYTES", draw_bytes)
        try:
            net = generate_network(cfg, rng_seed=rng_seed)
        except UnrealizableConfig:  # fewer than 2 nodes or an expected degree below 1
            reject()
    neighbors, degrees, traits, added = _oracle_network(cfg, rng_seed)
    assert net.n_connect_edges == added
    assert degrees.dtype == net.degrees.dtype and np.array_equal(net.degrees, degrees)
    # the oracle's per-node neighbour lists, as compressed sparse rows
    offsets = np.concatenate([[0], np.cumsum(degrees)])
    targets = np.concatenate([np.empty(0, dtype=int), *neighbors])
    assert net.offsets.dtype == offsets.dtype and np.array_equal(net.offsets, offsets)
    assert net.targets.dtype == targets.dtype and np.array_equal(net.targets, targets)
    assert net.node_traits.keys() == traits.keys()
    for name, want in traits.items():
        got = net.node_traits[name]
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_network_draw_memory_is_one_buffer():
    # ss-sensitivity's network: 4.5 M uniforms pass through one reused buffer
    cfg = NetworkConfig((1500, 1500), 0.008, 0.001, {"blk": TraitRule("block", block=0)})
    tracemalloc.start()
    try:
        generate_network(cfg, rng_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


def test_true_prevalence_unknown_trait(two_block_net):
    with pytest.raises(DataRequirementError, match="network has no trait 'nope'"):
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
    # in a complete graph every seed neighbours the others: a seed waiting
    # for its interview is passed over, not given a coupon
    complete = generate_network(NetworkConfig((12,), 1.0, 0.0), rng_seed=0)
    result = simulate_rds(complete, _sim_cfg(target_n=12, recruit_probs=(0, 0, 0, 1)))
    nodes = list(result.node_of.values())
    assert len(set(nodes)) == len(nodes)


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
    assert report["truncations_applied"] == 0
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
