import numpy as np
import pytest

from conftest import make_dataset, make_respondent, unit_degree_two_trees
from rdsdiag.bottleneck import all_points_data, wsd, wsd_permutation_test
from rdsdiag.errors import TooFewTrees, UnknownTrait
from rdsdiag.estimators import cumulative_estimates, included_sample
from rdsdiag.forest import build_forest


def test_wsd_hand_fixture():
    per_tree = {"s1": (0.2, 10), "s2": (0.8, 10)}
    assert wsd(per_tree, 0.5) == pytest.approx(1.8, abs=1e-12)


def test_wsd_trivial_cases():
    assert wsd({}, 0.5) == 0.0
    assert wsd({"s": (0.37, 12)}, 0.37) == 0.0
    assert wsd({"a": (0.4, 5), "b": (0.4, 9)}, 0.4) == 0.0


def test_wsd_invariant_to_empty_trees():
    base = {"a": (0.2, 4), "b": (0.7, 6)}
    with_empty = dict(base, c=(0.9, 0))
    assert wsd(base, 0.5) == wsd(with_empty, 0.5)


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
    assert result.observed == 0.0
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
    assert a.observed == c.observed


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


def test_all_points_rows():
    ds = unit_degree_two_trees()
    forest = build_forest(ds)
    rows = all_points_data(included_sample(ds, forest, "hiv"))
    assert len(rows) == 4  # seeds excluded
    assert [r.respondent_id for r in rows] == ["A-1", "B-1", "A-2", "B-2"]
    assert [r.included_index for r in rows] == [1, 2, 3, 4]
    assert [r.tree for r in rows] == ["A", "B", "A", "B"]
    assert [r.has_trait for r in rows] == [True, False, True, False]


def test_all_points_missing_trait_omitted():
    import dataclasses

    ds = unit_degree_two_trees()
    rows = tuple(
        dataclasses.replace(r, traits={"hiv": None}) if r.id == "A-2" else r
        for r in ds.respondents
    )
    ds = dataclasses.replace(ds, respondents=rows)
    forest = build_forest(ds)
    points = all_points_data(included_sample(ds, forest, "hiv"))
    assert all(p.respondent_id != "A-2" for p in points)
    assert len(points) == 3


def test_overall_estimate_matches_wsd_reference():
    ds = unit_degree_two_trees()
    forest = build_forest(ds)
    overall = cumulative_estimates(included_sample(ds, forest, "hiv")).final
    assert overall == pytest.approx(0.5)
