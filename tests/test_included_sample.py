"""Property tests: everything derived from an included sample agrees with a
naive per-respondent walk over the study."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_dataset, make_respondent
from rdsdiag.bottleneck import wsd_permutation_tests
from rdsdiag.dataset import DegreeReport
from rdsdiag.estimators import cumulative_estimates, included_sample, per_tree_series

TRAITS = (("hiv", "yes"), ("emp", "yes"))


@st.composite
def studies(draw):
    """Random recruitment forests with missing traits and zero or missing
    degrees.  Each recruit's recruiter is interviewed earlier."""
    n = draw(st.integers(1, 60))
    n_seeds = draw(st.integers(1, min(n, 6)))
    answer = st.sampled_from(["yes", "no", None])
    degree = st.one_of(st.none(), st.integers(0, 12))
    recruiter = [None] * n_seeds + [draw(st.integers(0, i - 1)) for i in range(n_seeds, n)]
    rows = []
    for i in range(n):
        coupons_out = [f"c{j}" for j in range(n) if recruiter[j] == i]
        rows.append(
            make_respondent(
                f"r{i * 37 % 101:03d}", i + 1,  # ids out of interview order
                coupon_in=None if recruiter[i] is None else f"c{i}",
                coupons_out=coupons_out,
                degree=DegreeReport(q_seen_week=draw(degree)),
                traits={"hiv": draw(answer), "emp": draw(answer)},
            )
        )
    return make_dataset(rows, traits=TRAITS, allotment=n)


def _naive(ds, trait):
    """Included members by a direct walk, then running sums per respondent."""
    forest = ds.forest
    members = []
    for r in ds.respondents:
        d = r.degree.q_seen_week
        flag = ds.indicator(r, trait)
        if not r.is_seed and flag is not None and d is not None and d >= 1:
            members.append((r, flag, d))

    def running(rows):
        num = den = 0.0
        values = []
        for _, flag, d in rows:
            den += 1.0 / d
            if flag:
                num += 1.0 / d
            values.append(num / den)
        return values

    per_tree = {}
    for root in forest.roots:
        rows = [m for m in members if forest.tree_of[m[0].id] == root]
        if rows:
            per_tree[root] = (running(rows)[-1], len(rows))
    points = [(forest.tree_of[r.id], r.id, r.interview_order, flag) for r, flag, _ in members]
    orders = [r.interview_order for r, _, _ in members]
    return orders, running(members), per_tree, points


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ds=studies(), trait=st.sampled_from(["hiv", "emp"]))
def test_sample_matches_naive_walk(ds, trait):
    sample = included_sample(ds, trait)
    orders, values, per_tree, points = _naive(ds, trait)

    assert sample.orders.tolist() == orders
    if orders:
        # same additions in the same order
        assert cumulative_estimates(sample).tolist() == values

    trees = per_tree_series(sample)
    assert list(trees) == sorted(per_tree)  # by root id
    assert {
        root: (values[-1], len(orders)) for root, (orders, values) in trees.items()
    } == per_tree

    rows = [
        (sample.roots[tree], ds.respondents[order - 1].id, order, flag == 1.0)
        for order, flag, tree in zip(
            sample.orders.tolist(), sample.y.tolist(), sample.tree.tolist()
        )
    ]
    assert rows == points

    (result,) = wsd_permutation_tests([sample], replicates=5)
    if len(per_tree) < 2:
        assert "skipped" in result
        return
    reference = sum(n_s * (p_s - values[-1]) ** 2 for p_s, n_s in per_tree.values())
    assert np.isclose(result["observed_wsd"], reference, rtol=1e-9, atol=1e-12)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ds=studies(), trait=st.sampled_from(["hiv", "emp"]))
def test_sample_numbers_its_trees_by_root_id(ds, trait):
    # the sample alone numbers a trait's trees: the roots of its members'
    # trees, sorted by id, whatever the forest's order
    sample = included_sample(ds, trait)
    member_roots = [ds.forest.tree_of[ds.respondents[order - 1].id] for order in sample.orders]
    assert sample.roots == tuple(sorted(set(member_roots)))
    assert [sample.roots[t] for t in sample.tree] == member_roots
    assert tuple(per_tree_series(sample)) == sample.roots
