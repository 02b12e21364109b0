import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, make_respondent, unit_degree_two_trees
from rdsdiag import svg
from rdsdiag.bottleneck import (
    _CHUNK_ROWS,
    _permutations,
    _wsd_from_matrix,
    wsd_permutation_test,
)
from rdsdiag.errors import TooFewTrees, UnknownTrait
from rdsdiag.estimators import IncludedSample, cumulative_estimates, included_sample
from rdsdiag.forest import build_forest
from rdsdiag.report import PipelineConfig, run_pipeline
from rdsdiag.sim import NetworkConfig, SimConfig, TraitRule, generate_network, simulate_rds


def _unit_degree_trees(trees):
    """Unit-degree labels, weights and tree indices for trees given as
    (positives, size) pairs, positives first within each tree."""
    y, t = [], []
    for i, (positives, size) in enumerate(trees):
        y += [1.0] * positives + [0.0] * (size - positives)
        t += [i] * size
    return np.array(y), np.ones(len(y)), np.array(t)


def _wsd(trees):
    y, w, t = _unit_degree_trees(trees)
    return _wsd_from_matrix(y[None, :], w, t, len(trees))[0]


def test_wsd_hand_fixture():
    assert _wsd([(2, 10), (8, 10)]) == pytest.approx(1.8, abs=1e-12)


def test_wsd_trivial_cases():
    assert _wsd([(3, 12)]) == 0.0
    assert _wsd([(2, 5), (4, 10)]) == 0.0


def test_wsd_invariant_to_empty_trees():
    # a forest root without included members adds no tree to the statistic
    y, w, t = _unit_degree_trees([(1, 4), (4, 6)])
    base = IncludedSample(
        trait="hiv", roots=("a", "b"), ids=tuple(f"R{i}" for i in range(len(y))),
        orders=np.arange(3, len(y) + 3), y=y, degree=w, tree=t,
    )
    with_empty = dataclasses.replace(base, roots=("a", "c", "b"), tree=np.where(t == 1, 2, 0))
    observed = wsd_permutation_test(base, replicates=10).observed_wsd
    assert observed == wsd_permutation_test(with_empty, replicates=10).observed_wsd
    assert observed == pytest.approx(_wsd([(1, 4), (4, 6)]), abs=1e-15)


def _two_block_trees(n_per_tree=20, aligned=True, seed=0):
    """Two trees of unit-degree recruits; aligned=True puts all positives in
    tree A."""
    rng = np.random.default_rng(seed)
    rows = [
        make_respondent("A", 1, coupons_out=[f"A{i}" for i in range(n_per_tree)],
                        degree=1, traits={"hiv": "yes"}),
        make_respondent("B", 2, coupons_out=[f"B{i}" for i in range(n_per_tree)],
                        degree=1, traits={"hiv": "no"}),
    ]
    order = 3
    for i in range(n_per_tree):
        for tree in ("A", "B"):
            if aligned:
                value = "yes" if tree == "A" else "no"
            else:
                value = "yes" if rng.random() < 0.5 else "no"
            rows.append(
                make_respondent(f"{tree}-{i}", order, coupon_in=f"{tree}{i}",
                                degree=1, traits={"hiv": value})
            )
            order += 1
    return make_dataset(rows, allotment=n_per_tree)


def test_aligned_trees_flagged():
    ds = _two_block_trees(aligned=True)
    forest = build_forest(ds)
    result = wsd_permutation_test(included_sample(ds, forest, "hiv"), replicates=2000, rng_seed=3)
    assert result.flagged
    assert result.quantile_rank > 0.99


def test_constant_trait_never_flags():
    ds = _two_block_trees(aligned=True)
    # overwrite: everyone positive
    import dataclasses

    rows = tuple(
        dataclasses.replace(r, traits={"hiv": "yes"}) for r in ds.respondents
    )
    ds = dataclasses.replace(ds, respondents=rows)
    forest = build_forest(ds)
    result = wsd_permutation_test(included_sample(ds, forest, "hiv"), replicates=500, rng_seed=1)
    assert result.observed_wsd == 0.0
    assert result.quantile_rank == 0.0
    assert not result.flagged


def test_threshold_one_never_flags():
    ds = _two_block_trees(aligned=True)
    forest = build_forest(ds)
    result = wsd_permutation_test(
        included_sample(ds, forest, "hiv"), replicates=500, threshold=1.0, rng_seed=3
    )
    assert not result.flagged


def test_determinism_and_seed_sensitivity():
    ds = _two_block_trees(aligned=False, seed=5)
    forest = build_forest(ds)
    a = wsd_permutation_test(included_sample(ds, forest, "hiv"), replicates=400, rng_seed=9)
    b = wsd_permutation_test(included_sample(ds, forest, "hiv"), replicates=400, rng_seed=9)
    assert a == b
    c = wsd_permutation_test(included_sample(ds, forest, "hiv"), replicates=400, rng_seed=10)
    assert a.observed_wsd == c.observed_wsd


def test_too_few_trees():
    rows = [
        make_respondent("S", 1, coupons_out=["C1"], degree=1, traits={"hiv": "no"}),
        make_respondent("r", 2, coupon_in="C1", degree=1, traits={"hiv": "yes"}),
    ]
    ds = make_dataset(rows)
    with pytest.raises(TooFewTrees):
        wsd_permutation_test(included_sample(ds, build_forest(ds), "hiv"), replicates=10)


def test_unknown_trait():
    ds = unit_degree_two_trees()
    with pytest.raises(UnknownTrait):
        wsd_permutation_test(included_sample(ds, build_forest(ds), "nope"), replicates=10)


def _all_points_rows(ds, out_dir, monkeypatch):
    """The (tree, has_trait) rows the bottleneck section draws in the
    all-points figure of ``hiv``."""
    drawn = []
    render = svg.all_points

    def capture(title, rows):
        drawn.append(rows)
        return render(title=title, rows=rows)

    monkeypatch.setattr(svg, "all_points", capture)
    cfg = PipelineConfig(out_dir=out_dir, dataset=ds, replicates=10, sections=("bottleneck",))
    run_pipeline(cfg)
    return drawn[0]


def test_all_points_rows(tmp_path, monkeypatch):
    rows = _all_points_rows(unit_degree_two_trees(), tmp_path, monkeypatch)
    # seeds excluded, included respondents A-1, B-1, A-2, B-2 in interview order
    assert rows == [("A", True), ("B", False), ("A", True), ("B", False)]


def test_all_points_missing_trait_omitted(tmp_path, monkeypatch):
    ds = unit_degree_two_trees()
    rows = tuple(
        dataclasses.replace(r, traits={"hiv": None}) if r.id == "A-2" else r
        for r in ds.respondents
    )
    ds = dataclasses.replace(ds, respondents=rows)
    points = _all_points_rows(ds, tmp_path, monkeypatch)
    assert points == [("A", True), ("B", False), ("B", False)]


def test_overall_estimate_matches_wsd_reference():
    ds = unit_degree_two_trees()
    forest = build_forest(ds)
    overall = cumulative_estimates(included_sample(ds, forest, "hiv")).final
    assert overall == pytest.approx(0.5)


def _random_sample(n, n_trees=5, seed=0, trait="t"):
    """An included sample of ``n`` respondents with random labels, integer
    degrees and tree memberships; every tree has members."""
    rng = np.random.default_rng(seed)
    tree = np.concatenate([np.arange(n_trees), rng.integers(0, n_trees, n - n_trees)])
    return IncludedSample(
        trait=trait, roots=tuple(f"S{k}" for k in range(n_trees)),
        ids=tuple(f"R{i}" for i in range(n)), orders=np.arange(n_trees + 1, n + n_trees + 1),
        y=(rng.random(n) < 0.4).astype(float),
        degree=rng.integers(1, 30, n).astype(float), tree=tree,
    )


@pytest.mark.parametrize("replicates", [1, 255, 256, 257, 333])
def test_chunked_statistics_match_one_call(replicates):
    sample = _random_sample(90, seed=replicates)
    y, w, t = sample.y, 1.0 / sample.degree, sample.tree
    perms = _permutations(len(y), replicates, 7)
    whole = _wsd_from_matrix(y[perms], w, t, 5)
    chunked = np.concatenate([
        _wsd_from_matrix(y[perms[i:i + _CHUNK_ROWS]], w, t, 5)
        for i in range(0, replicates, _CHUNK_ROWS)
    ])
    one_by_one = np.concatenate([_wsd_from_matrix(y[row[None, :]], w, t, 5) for row in perms])
    assert whole.tobytes() == chunked.tobytes() == one_by_one.tobytes()
    observed = _wsd_from_matrix(y[None, :], w, t, 5)[0]
    result = wsd_permutation_test(sample, replicates=replicates, rng_seed=7)
    assert result.observed_wsd == observed
    assert result.quantile_rank == (whole < observed).sum() / replicates


@pytest.mark.parametrize("n, replicates, seed", [(1, 3, 0), (7, 40, 3), (990, 5, 12)])
def test_permutations_match_per_replicate_streams(n, replicates, seed):
    children = np.random.SeedSequence(seed).spawn(replicates)
    oracle = [np.random.default_rng(child).permutation(n) for child in children]
    perms = _permutations(n, replicates, seed)
    assert perms.shape == (replicates, n)
    assert perms.dtype == np.int32
    assert all(np.array_equal(row, expected) for row, expected in zip(perms, oracle))


def test_permutations_read_only():
    perms = _permutations(12, 4, 0)
    with pytest.raises(ValueError):
        perms[0, 0] = 1
    assert _permutations(12, 4, 0) is perms


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(
                st.tuples(st.integers(0, k - 1), st.floats(0, 1), st.integers(1, 40)),
                min_size=k, max_size=40,
            ),
            st.integers(1, 4),
        )
    )
)
def test_wsd_from_matrix_matches_naive_loop(case):
    n_trees, members, rows = case
    # every tree gets at least one member, as in np.unique's inverse
    t = np.array(list(range(n_trees)) + [m[0] for m in members[n_trees:]])
    w = np.array([1.0 / m[2] for m in members])
    rng = np.random.default_rng(len(members))
    y_matrix = np.array([[m[1] for m in members]] + [
        [members[j][1] for j in rng.permutation(len(members))] for _ in range(rows - 1)
    ])
    got = _wsd_from_matrix(y_matrix, w, t, n_trees)
    for r, y in enumerate(y_matrix.tolist()):
        p_all = sum(wi * yi for wi, yi in zip(w, y)) / sum(w)
        naive = 0.0
        for k in range(n_trees):
            idx = [j for j in range(len(t)) if t[j] == k]
            p_k = sum(w[j] * y[j] for j in idx) / sum(w[j] for j in idx)
            naive += len(idx) * (p_k - p_all) ** 2
        # an all-equal forest cancels exactly in the reals; only rounding is left
        assert got[r] == pytest.approx(naive, rel=1e-12, abs=1e-28)


def test_cache_isolation_across_sizes_seeds_and_replicates():
    a, b = _random_sample(60, seed=1), _random_sample(75, seed=2)
    calls = [
        (a, 300, 1), (b, 300, 1), (a, 300, 1),
        (a, 257, 1), (b, 257, 2), (a, 300, 2), (a, 257, 2), (b, 300, 1),
    ]
    results = [wsd_permutation_test(s, replicates=r, rng_seed=seed) for s, r, seed in calls]
    for (sample, replicates, seed), result in zip(calls, results):
        _permutations.cache_clear()
        assert result == wsd_permutation_test(sample, replicates=replicates, rng_seed=seed)
    # the calls above can tell the streams apart
    assert len({r.quantile_rank for r in results if r.observed_wsd == results[0].observed_wsd}) > 1


def test_section_results_independent_of_trait_order(tmp_path):
    net = generate_network(
        NetworkConfig(
            block_sizes=(120, 120), within_block_edge_prob=0.06, between_block_edge_prob=0.004,
            traits={"hiv": TraitRule("block", block=0), "employed": TraitRule("bernoulli", p=0.6)},
        ),
        rng_seed=5,
    )
    ds = simulate_rds(
        net, SimConfig(target_n=100, seed_count=6, trait_missing_prob=0.15, rng_seed=5)
    ).dataset
    forest = build_forest(ds)
    # different included sizes, so the second trait cannot reuse the first's draws
    assert len(included_sample(ds, forest, "hiv").y) != len(included_sample(ds, forest, "employed").y)
    per_trait = []
    for i, traits in enumerate((("hiv", "employed"), ("employed", "hiv"))):
        bundle = run_pipeline(PipelineConfig(
            out_dir=tmp_path / str(i), dataset=ds, traits=traits, replicates=300,
            rng_seed=2, sections=("bottleneck",),
        ))
        per_trait.append(bundle.sections["bottleneck"]["per_trait"])
        assert tuple(per_trait[-1]) == traits
    assert per_trait[0] == per_trait[1]
