import dataclasses
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset, make_respondent, unit_degree_two_trees
from rdsdiag import bottleneck, svg
from rdsdiag.bottleneck import (
    _cells,
    _permutation_blocks,
    _wsd,
    wsd_permutation_tests,
)
from rdsdiag.errors import DataRequirementError, UnrealizableConfig
from rdsdiag.estimators import IncludedSample, cumulative_estimates, included_sample
from rdsdiag.report import PipelineConfig, diagnose, run_pipeline
from rdsdiag.sim import NetworkConfig, SimConfig, TraitRule, generate_network, simulate_rds


def _sample(y, degree, tree, trait="t"):
    """An included sample with the given labels, degrees and tree indices;
    tree k is rooted at ``S{k}``."""
    return IncludedSample(
        trait=trait, roots=tuple(f"S{k}" for k in range(max(tree) + 1)),
        orders=np.arange(1, len(y) + 1), y=np.asarray(y, dtype=float),
        degree=np.asarray(degree, dtype=float), tree=np.asarray(tree),
    )


def _unit_degree_trees(trees):
    """Unit-degree sample of trees given as (positives, size) pairs,
    positives first within each tree."""
    y, t = [], []
    for i, (positives, size) in enumerate(trees):
        y += [1.0] * positives + [0.0] * (size - positives)
        t += [i] * size
    return _sample(y, np.ones(len(y)), t)


def _counted(sample):
    """Positions of the counted class: the smaller class; at a tie the one
    whose cell counts come first, and at equal counts the first position's."""
    cell, _, all_counts = _cells(sample)
    first = sample.y == sample.y[0]
    keys = [(c.sum(), np.bincount(cell[c], minlength=all_counts.size).tolist())
            for c in (first, ~first)]
    return np.flatnonzero(first if keys[0] <= keys[1] else ~first)


def _observed(sample):
    """The WSD of the sample's own labels."""
    cell, weights, all_counts = _cells(sample)
    return _wsd(cell[None, :], _counted(sample), weights, all_counts)[0]


def _tree_wsd(trees):
    return _observed(_unit_degree_trees(trees))


def _draw(n, replicates, seed, rows):
    """Every permutation of the streamed draw, each block copied out of the
    buffer the next one overwrites."""
    return np.concatenate([block.copy() for block in _permutation_blocks(n, replicates, seed, rows)])


def test_wsd_hand_fixture():
    assert _tree_wsd([(2, 10), (8, 10)]) == pytest.approx(1.8, abs=1e-12)


def test_wsd_trivial_cases():
    assert _tree_wsd([(3, 12)]) == 0.0
    assert _tree_wsd([(2, 5), (4, 10)]) == 0.0


def test_wsd_invariant_to_empty_trees():
    # seed AB's only recruit gives no answer: its tree has no included member,
    # so it adds no root to the sample and no tree to the statistic
    rows = [
        make_respondent("A", 1, coupons_out=["A1", "A2", "A3"], degree=1, traits={"hiv": "no"}),
        make_respondent("B", 2, coupons_out=["B1", "B2"], degree=1, traits={"hiv": "no"}),
        make_respondent("A-1", 3, coupon_in="A1", degree=1, traits={"hiv": "yes"}),
        make_respondent("B-1", 4, coupon_in="B1", degree=1, traits={"hiv": "no"}),
        make_respondent("A-2", 5, coupon_in="A2", degree=1, traits={"hiv": "no"}),
        make_respondent("B-2", 6, coupon_in="B2", degree=1, traits={"hiv": "yes"}),
        make_respondent("A-3", 7, coupon_in="A3", degree=1, traits={"hiv": "yes"}),
    ]
    seed_ab = [
        make_respondent("AB", 8, coupons_out=["AB1"], degree=1, traits={"hiv": "yes"}),
        make_respondent("AB-1", 9, coupon_in="AB1", degree=1, traits={}),
    ]
    with_empty = make_dataset(rows + seed_ab)
    assert with_empty.forest.roots == ("A", "B", "AB")
    samples = [included_sample(make_dataset(rows), "hiv"), included_sample(with_empty, "hiv")]
    assert samples[0].roots == samples[1].roots == ("A", "B")
    assert samples[0].tree.tolist() == samples[1].tree.tolist() == [0, 1, 0, 1, 0]
    base, result = wsd_permutation_tests(samples, replicates=50)
    assert result == base
    assert base["observed_wsd"] == pytest.approx(_tree_wsd([(2, 3), (1, 2)]), abs=1e-15)


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
    (result,) = wsd_permutation_tests([included_sample(ds, "hiv")], replicates=2000, rng_seed=3)
    assert result["flagged"]
    assert result["quantile_rank"] > 0.99


def test_constant_trait_never_flags():
    ds = _two_block_trees(aligned=True)
    # overwrite: everyone positive
    import dataclasses

    rows = tuple(
        dataclasses.replace(r, traits={"hiv": "yes"}) for r in ds.respondents
    )
    ds = dataclasses.replace(ds, respondents=rows)
    (result,) = wsd_permutation_tests([included_sample(ds, "hiv")], replicates=500, rng_seed=1)
    assert result["observed_wsd"] == 0.0
    assert result["quantile_rank"] == 0.0
    assert not result["flagged"]


def test_threshold_one_never_flags():
    ds = _two_block_trees(aligned=True)
    (result,) = wsd_permutation_tests(
        [included_sample(ds, "hiv")], replicates=500, threshold=1.0, rng_seed=3
    )
    assert not result["flagged"]
    # no rank exceeds 1, so the flag is decided at the first look
    assert result["replicates_used"] == 64


def test_determinism_and_seed_sensitivity():
    ds = _two_block_trees(aligned=False, seed=5)
    (a,) = wsd_permutation_tests([included_sample(ds, "hiv")], replicates=400, rng_seed=9)
    (b,) = wsd_permutation_tests([included_sample(ds, "hiv")], replicates=400, rng_seed=9)
    assert a == b
    (c,) = wsd_permutation_tests([included_sample(ds, "hiv")], replicates=400, rng_seed=10)
    assert a["observed_wsd"] == c["observed_wsd"]


def test_too_few_trees():
    rows = [
        make_respondent("S", 1, coupons_out=["C1"], degree=1, traits={"hiv": "no"}),
        make_respondent("r", 2, coupon_in="C1", degree=1, traits={"hiv": "yes"}),
    ]
    ds = make_dataset(rows)
    (result,) = wsd_permutation_tests([included_sample(ds, "hiv")], replicates=10)
    assert result == {"skipped": "trait 'hiv': need at least 2 trees with included members"}


def test_unknown_trait():
    ds = unit_degree_two_trees()
    with pytest.raises(DataRequirementError,
                       match="trait 'nope' is not defined for this dataset"):
        wsd_permutation_tests([included_sample(ds, "nope")], replicates=10)


def _all_points_rows(ds, out_dir, monkeypatch):
    """The (tree, has_trait) rows the bottleneck section draws in the
    all-points figure of ``hiv``."""
    drawn = []
    render = svg.all_points

    def capture(title, roots, tree, positive):
        drawn.append([(roots[t], bool(flag)) for t, flag in zip(tree, positive)])
        return render(title=title, roots=roots, tree=tree, positive=positive)

    monkeypatch.setattr(svg, "all_points", capture)
    run_pipeline(ds, PipelineConfig(replicates=10, sections=("bottleneck",)), out_dir)
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
    overall = cumulative_estimates(included_sample(ds, "hiv"))[-1]
    assert overall == pytest.approx(0.5)


def _random_sample(n, n_trees=5, seed=0, trait="t", prevalence=0.4, max_degree=30):
    """An included sample of ``n`` respondents with random labels, integer
    degrees and tree memberships; every tree has members."""
    rng = np.random.default_rng(seed)
    tree = np.concatenate([np.arange(n_trees), rng.integers(0, n_trees, n - n_trees)])
    y = (rng.random(n) < prevalence).astype(float)
    return _sample(y, rng.integers(1, max_degree, n), tree, trait=trait)


@pytest.mark.parametrize("replicates", [1, 255, 256, 257, 333])
def test_chunked_statistics_match_one_call(replicates):
    sample = _random_sample(90, seed=replicates)
    cell, weights, all_counts = _cells(sample)
    labels = _counted(sample)
    perms = _draw(len(sample), replicates, 7, replicates)
    # replicate r moves the label at position j to position perm[j], so the
    # counted labels land on perm[labels]
    for perm in perms:
        moved = np.empty_like(sample.y)
        moved[perm] = sample.y
        assert np.array_equal(np.sort(perm[labels]), np.flatnonzero(moved == sample.y[labels[0]]))
    whole = _wsd(cell[perms], labels, weights, all_counts)
    one_by_one = np.concatenate([_wsd(cell[perm[None, :]], labels, weights, all_counts) for perm in perms])
    assert whole.tobytes() == one_by_one.tobytes()
    for rows in (1, 64, 256, replicates + 1):
        blocks = np.concatenate([
            _wsd(cell[block], labels, weights, all_counts)
            for block in _permutation_blocks(len(sample), replicates, 7, rows)
        ])
        assert blocks.tobytes() == whole.tobytes()
    observed = _observed(sample)
    (result,) = wsd_permutation_tests([sample], replicates=replicates, rng_seed=7)
    assert result["observed_wsd"] == observed
    used = result["replicates_used"]
    assert result["quantile_rank"] == (whole[:used] < observed).sum() / used


def _assert_blocks_equal_one_call(n, replicates, seed):
    # the whole draw as one permuted call on the replicates × n tile
    oracle = np.random.default_rng(seed).permuted(np.tile(np.arange(n), (replicates, 1)), axis=1)
    ends = [0, *bottleneck._looks(replicates), replicates]
    # one row per block, blocks that do not divide the replicates, one block
    # of more rows than there are replicates
    for rows in (1, 3, replicates, replicates + 5):
        # copied, as the next block overwrites the buffer
        blocks = [block.copy() for block in _permutation_blocks(n, replicates, seed, rows)]
        # blocks of `rows` rows, cut short at each look and at the cap
        assert [len(block) for block in blocks] == [
            min(rows, end - start) for first, end in zip(ends, ends[1:])
            for start in range(first, end, rows)
        ]
        assert np.array_equal(np.concatenate(blocks), oracle)


@pytest.mark.parametrize("n, replicates, seed", [(1, 3, 0), (7, 40, 3), (990, 5, 12), (5, 300, 1)])
def test_blocks_equal_one_permuted_call(n, replicates, seed):
    _assert_blocks_equal_one_call(n, replicates, seed)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 120), st.integers(0, 2**70), st.integers(1, 50), st.data())
def test_fewer_replicates_are_a_prefix(n, replicates, seed, rows, data):
    fewer = data.draw(st.integers(1, replicates))
    assert np.array_equal(_draw(n, replicates, seed, rows)[:fewer], _draw(n, fewer, seed, rows))


@pytest.mark.parametrize("n", [1, 2, 5, 144])
def test_every_row_is_a_permutation(n):
    perms = _draw(n, 300, 4, 7)
    assert perms.shape == (300, n)
    assert (np.sort(perms, axis=1) == np.arange(n)).all()


def test_permutations_uniform():
    # each of the 24 permutations of 4 is drawn 1000 times on average, with
    # a standard deviation of sqrt(24000 · 1/24 · 23/24) ≈ 31; 155 is 5σ
    perms = _draw(4, 24_000, 2024, 500)
    _, counts = np.unique(perms, axis=0, return_counts=True)
    assert len(counts) == 24
    assert np.abs(counts - 1000).max() <= 155


@pytest.mark.parametrize("seed", [2**64, 2**130 + 7])
def test_draw_at_large_seeds(seed):
    _assert_blocks_equal_one_call(60, 50, seed)
    (result,) = wsd_permutation_tests([_random_sample(60)], replicates=50, rng_seed=seed)
    assert result["replicates"] == 50


def test_negative_seed_raises():
    with pytest.raises(UnrealizableConfig, match="rng_seed must be non-negative, got -1"):
        wsd_permutation_tests([_random_sample(20)], replicates=5, rng_seed=-1)


@pytest.mark.parametrize("threshold", [float("nan"), 1.5, -0.2, float("inf"), -float("inf")])
def test_threshold_outside_unit_interval_raises(threshold):
    # named before any sample is looked at, as for the replicates below
    one_tree = _sample([1.0, 0.0], [1, 1], [0, 0])
    for samples in ([_random_sample(20)], [one_tree], []):
        with pytest.raises(UnrealizableConfig, match=r"threshold must be in \[0, 1\], got "):
            wsd_permutation_tests(samples, replicates=5, threshold=threshold)


@pytest.mark.parametrize("replicates", [0, -3])
def test_replicates_below_one_raise(replicates):
    # named before any sample is looked at, one-tree samples included
    one_tree = _sample([1.0, 0.0], [1, 1], [0, 0])
    for samples in ([_random_sample(20)], [one_tree], []):
        with pytest.raises(UnrealizableConfig,
                           match=f"replicates must be at least 1, got {replicates}"):
            wsd_permutation_tests(samples, replicates=replicates)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.tuples(st.integers(0, k - 1), st.integers(1, 40)), min_size=k, max_size=40),
            st.sampled_from([0.0, 1.0, 0.5, 0.8]) | st.floats(0, 1),
            st.integers(1, 4),
        )
    )
)
def test_wsd_matches_naive_loop(case):
    n_trees, members, prevalence, rows = case
    n = len(members)
    # every tree gets at least one member, as in np.unique's inverse
    t = list(range(n_trees)) + [m[0] for m in members[n_trees:]]
    degree = [m[1] for m in members]
    rng = np.random.default_rng(n)
    y = np.zeros(n)
    y[rng.permutation(n)[:round(prevalence * n)]] = 1.0
    perms = [np.arange(n)] + [rng.permutation(n) for _ in range(rows - 1)]
    y_matrix = [y[perm] for perm in perms]
    # position perm[j] of y lands on position j
    sample = _sample(y, degree, t)
    cell, weights, all_counts = _cells(sample)
    got = _wsd(np.array([cell[np.argsort(perm)] for perm in perms]), _counted(sample), weights,
               all_counts)
    w = [Fraction(1, d) for d in degree]
    for r, labels in enumerate(y_matrix):
        # exact WSD of the 0/1 labels themselves, whichever class is counted
        p_all = sum(wi for wi, yi in zip(w, labels) if yi) / sum(w)
        naive = Fraction(0)
        for k in range(n_trees):
            idx = [j for j in range(n) if t[j] == k]
            p_k = sum(w[j] for j in idx if labels[j]) / sum(w[j] for j in idx)
            naive += len(idx) * (p_k - p_all) ** 2
        # an all-equal forest cancels exactly in the reals; only rounding is left
        assert got[r] == pytest.approx(float(naive), rel=1e-12, abs=1e-28)


def _swap_within_a_cell(y, degree, tree):
    """``y`` with one positive and one negative of the same tree and degree
    swapped, or None when no cell holds both labels."""
    for i in np.flatnonzero(y == 1.0):
        same_cell = (tree == tree[i]) & (degree == degree[i]) & (y == 0.0)
        if same_cell.any():
            swapped = y.copy()
            swapped[[i, np.flatnonzero(same_cell)[0]]] = 0.0, 1.0
            return swapped
    return None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(6, 40), st.floats(0.05, 0.95))
@example(94, 8, 0.375)  # half the labels positive, and the swap moves the first one
def test_swap_within_cell_keeps_observed_and_rank(seed, n, prevalence):
    sample = _random_sample(n, n_trees=3, seed=seed, prevalence=prevalence, max_degree=4)
    swapped_y = _swap_within_a_cell(sample.y, sample.degree, sample.tree)
    if swapped_y is None:
        return
    (result,) = wsd_permutation_tests([sample], replicates=300, rng_seed=seed)
    (swapped,) = wsd_permutation_tests(
        [dataclasses.replace(sample, y=swapped_y)], replicates=300, rng_seed=seed
    )
    assert swapped["observed_wsd"] == result["observed_wsd"]
    # against the same reference the swapped observed ranks the same: a
    # replicate with the observed cell counts is its equal, never below it
    cell, weights, all_counts = _cells(sample)
    labels = _counted(sample)
    perms = _draw(n, 300, seed, 7)
    reference = _wsd(cell[perms], labels, weights, all_counts)
    tied = reference == result["observed_wsd"]
    used = result["replicates_used"]
    assert (reference[:used] < swapped["observed_wsd"]).sum() / used == result["quantile_rank"]
    # every replicate whose cell counts equal the observed's is tied with it
    counts = np.array([np.bincount(cell[row], minlength=all_counts.size) for row in perms[:, labels]])
    same_counts = (counts == np.bincount(cell[labels], minlength=all_counts.size)).all(axis=1)
    assert tied[same_counts].all()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 60), st.floats(0, 1))
@example(0, 6, 0.5)  # three of six positive, and the first label negative
def test_complement_labels_give_the_same_result(seed, n, prevalence):
    sample = _random_sample(n, n_trees=4, seed=seed, prevalence=prevalence)
    (result,) = wsd_permutation_tests([sample], replicates=200, rng_seed=seed)
    (flipped,) = wsd_permutation_tests(
        [dataclasses.replace(sample, y=1.0 - sample.y)], replicates=200, rng_seed=seed
    )
    assert flipped == result


def test_tree_numbering_reaches_no_result():
    # renamed roots number the sample's trees otherwise; replicates equal to
    # the observed in exact arithmetic must rank the same whatever order the
    # statistic would sum its trees in
    sample = _random_sample(12, n_trees=4, seed=20, prevalence=0.4, max_degree=3)
    last = len(sample.roots) - 1
    renumbered = dataclasses.replace(sample, tree=last - sample.tree, roots=sample.roots[::-1])
    (result,) = wsd_permutation_tests([sample], replicates=64, rng_seed=20)
    assert wsd_permutation_tests([renumbered], replicates=64, rng_seed=20) == [result]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batched_equals_single(data):
    seed = data.draw(st.integers(0, 10_000))
    sizes = data.draw(st.lists(st.sampled_from([6, 11, 30]), min_size=1, max_size=4))
    samples = [
        _random_sample(n, n_trees=data.draw(st.integers(2, 4)), seed=seed + i, trait=f"t{i}",
                       prevalence=data.draw(st.floats(0, 1)), max_degree=5)
        for i, n in enumerate(sizes)
    ]
    first = samples[0]
    samples += [
        # the same size with other cells
        dataclasses.replace(first, trait="rolled", tree=np.roll(first.tree, 1)),
        # the same cells with other weights
        dataclasses.replace(first, trait="heavier", degree=first.degree + 1),
        _sample([1.0, 0.0, 0.0], [1, 2, 3], [0, 0, 0], trait="one-tree"),
    ]
    samples = data.draw(st.permutations(samples))
    replicates = data.draw(st.integers(1, 200))
    # blocks of one row up to a single block: a rank does not depend on them
    budget = data.draw(st.sampled_from([1, 1000, 2**20]))
    with mock.patch.object(bottleneck, "_BLOCK_BYTES", budget):
        batched = wsd_permutation_tests(samples, replicates=replicates, threshold=0.5, rng_seed=seed)
    assert len(batched) == len(samples)
    for sample, result in zip(samples, batched):
        (single,) = wsd_permutation_tests([sample], replicates=replicates, threshold=0.5,
                                          rng_seed=seed)
        if sample.trait == "one-tree":
            assert set(result) == {"skipped"}
        assert result == single


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10_000), st.integers(6, 60), st.sampled_from([1, 63, 64, 65, 300, 1000]),
    st.floats(0, 1, exclude_min=True, exclude_max=True), st.floats(0, 1),
)
def test_stopped_rank_is_the_oracle_prefix(seed, n, cap, threshold, prevalence):
    sample = _random_sample(n, n_trees=4, seed=seed, prevalence=prevalence, max_degree=6)
    (result,) = wsd_permutation_tests([sample], replicates=cap, threshold=threshold, rng_seed=seed)
    looks = bottleneck._looks(cap)
    used = result["replicates_used"]
    assert result["replicates"] == cap
    assert used in (*looks, cap)
    # the whole draw as one permuted call on the cap × n tile
    oracle = np.random.default_rng(seed).permuted(np.tile(np.arange(n), (cap, 1)), axis=1)
    cell, weights, all_counts = _cells(sample)
    below = _wsd(cell[oracle], _counted(sample), weights, all_counts) < result["observed_wsd"]
    assert result["quantile_rank"] == below[:used].sum() / used
    assert result["flagged"] == (below[:used].sum() / used > threshold)
    # it stops at the first look that decides its count, or runs to the cap
    # and has the rank of the full draw
    for r in looks:
        stops = below[:r].sum() not in bottleneck._undecided(r, threshold, len(looks))
        assert stops == (r == used)
        if stops:
            break
    else:
        assert used == cap
        assert result["quantile_rank"] == below.sum() / cap


def test_batched_memory_stays_within_blocks():
    # an R × n draw of 4·R·n bytes would take 80 MB here
    samples = [_random_sample(2000, n_trees=8, seed=s, trait=f"t{s}") for s in range(3)]
    # with the looks, then with none below the cap, so that all are drawn
    for first_look in (bottleneck._FIRST_LOOK, 10_000):
        tracemalloc.start()
        try:
            with mock.patch.object(bottleneck, "_FIRST_LOOK", first_look):
                results = wsd_permutation_tests(samples, replicates=10_000, rng_seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [r["replicates"] for r in results] == [10_000] * 3
        assert peak <= 8 * 2**20
    assert [r["replicates_used"] for r in results] == [10_000] * 3


def test_cache_isolation_across_sizes_seeds_and_replicates():
    a, b = _random_sample(60, seed=1), _random_sample(75, seed=2)
    # caps of at most 64, so that every call uses all its replicates
    calls = [
        (a, 64, 1), (b, 64, 1), (a, 64, 1),
        (a, 47, 1), (b, 47, 2), (a, 64, 2), (a, 47, 2), (b, 64, 1),
    ]
    results = [wsd_permutation_tests([s], replicates=r, rng_seed=seed)[0] for s, r, seed in calls]
    for (sample, replicates, seed), result in reversed(list(zip(calls, results))):
        assert result == wsd_permutation_tests([sample], replicates=replicates, rng_seed=seed)[0]
    # the calls above can tell the streams apart
    assert len({r["quantile_rank"] for r in results if r["observed_wsd"] == results[0]["observed_wsd"]}) > 1


def test_section_results_independent_of_trait_order():
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
    # different included sizes, so the second trait cannot reuse the first's draws
    assert len(included_sample(ds, "hiv").y) != len(included_sample(ds, "employed").y)
    per_trait = []
    for traits in (("hiv", "employed"), ("employed", "hiv")):
        diagnosis = diagnose(ds, PipelineConfig(
            traits=traits, replicates=300, rng_seed=2, sections=("bottleneck",),
        ))
        per_trait.append(diagnosis.sections["bottleneck"]["per_trait"])
        assert tuple(per_trait[-1]) == traits
    assert per_trait[0] == per_trait[1]
