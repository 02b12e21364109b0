import dataclasses

import numpy as np
import pytest

from conftest import make_dataset, make_respondent, unit_degree_two_trees
from rdsdiag import svg
from rdsdiag.bottleneck import _wsd_from_matrix, wsd_permutation_test
from rdsdiag.errors import TooFewTrees, UnknownTrait
from rdsdiag.estimators import IncludedSample, cumulative_estimates, included_sample
from rdsdiag.forest import build_forest
from rdsdiag.report import PipelineConfig, run_pipeline


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
