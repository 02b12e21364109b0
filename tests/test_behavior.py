import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats.contingency import odds_ratio

from conftest import followup, make_dataset, make_degree, make_respondent
from rdsdiag.behavior import (
    exact_odds_ratio_interval,
    motivation_outcome,
    network_reciprocity_stats,
    nonresponse_rates,
    reason_tables,
    reciprocation_rate,
    recruitment_bias_levels,
    recruitment_bias_tests,
    recruitment_effectiveness,
)
from rdsdiag.dataset import CouponOutcome
from rdsdiag.errors import DegenerateTable, NoData, NoEligibleRecruiters
from rdsdiag.forest import build_forest


def coupon(cid, recip=None, employed=None, days=None):
    return CouponOutcome(cid, days_to_distribute=days,
                         reciprocation_answer=recip, recipient_employed=employed)


# -- reciprocation -----------------------------------------------------------


def test_reciprocation_all_yes():
    ds = make_dataset([
        make_respondent("S", 1, degree=2, traits={"hiv": "no"},
                        followup=followup(coupons=[coupon("C1", True), coupon("C2", True)])),
    ])
    assert reciprocation_rate(ds) == 100.0


def test_reciprocation_partial():
    coupons = [coupon(f"C{i}", True) for i in range(7)]
    coupons += [coupon("C7", False)]
    coupons += [coupon("C8", None), coupon("C9", None)]
    rows = [
        make_respondent("S", 1, degree=2, traits={"hiv": "no"},
                        followup=followup(coupons=coupons[:5])),
        make_respondent("T", 2, degree=2, traits={"hiv": "no"},
                        followup=followup(coupons=coupons[5:])),
    ]
    assert reciprocation_rate(make_dataset(rows)) == pytest.approx(87.5)


def test_reciprocation_none_answered():
    ds = make_dataset([
        make_respondent("S", 1, degree=2, traits={"hiv": "no"},
                        followup=followup(coupons=[coupon("C1")])),
    ])
    with pytest.raises(NoData):
        reciprocation_rate(ds)


# -- network reciprocity -----------------------------------------------------


def test_reciprocity_stats():
    rows = [
        make_respondent("a", 1, degree=make_degree(5, q_reach_week=5),
                        q_recv_week=5, traits={"hiv": "no"}),
        make_respondent("b", 2, degree=make_degree(8, q_reach_week=8),
                        q_recv_week=2, traits={"hiv": "no"}),
        make_respondent("c", 3, degree=make_degree(4, q_reach_week=0),
                        q_recv_week=0, traits={"hiv": "no"}),
        make_respondent("d", 4, degree=make_degree(4), traits={"hiv": "no"}),
    ]
    stats = network_reciprocity_stats(make_dataset(rows))
    assert stats.values == pytest.approx((0.0, 0.75))
    assert stats.n_excluded == 1  # both-zero respondent; missing ones not counted
    assert stats.median == pytest.approx(0.375)


# -- effectiveness -----------------------------------------------------------


def _effectiveness_fixture():
    rows = [
        make_respondent("p1", 1, coupons_out=[], degree=1, traits={"hiv": "yes"}),
        make_respondent("p2", 2, coupons_out=["C1"], degree=1, traits={"hiv": "yes"}),
        make_respondent("n1", 3, coupons_out=["C2", "C3"], degree=1,
                        traits={"hiv": "no"}),
        make_respondent("n2", 4, coupons_out=["C4", "C5"], degree=1,
                        traits={"hiv": "no"}),
        make_respondent("r1", 5, coupon_in="C1", degree=1, traits={"hiv": None}),
        make_respondent("r2", 6, coupon_in="C2", degree=1, traits={"hiv": None}),
        make_respondent("r3", 7, coupon_in="C3", degree=1, traits={"hiv": None}),
        make_respondent("r4", 8, coupon_in="C4", degree=1, traits={"hiv": None}),
        make_respondent("r5", 9, coupon_in="C5", degree=1, traits={"hiv": None}),
    ]
    ds = make_dataset(rows)
    return ds, build_forest(ds)


def test_effectiveness_hand_fixture():
    ds, forest = _effectiveness_fixture()
    result = recruitment_effectiveness(ds, forest, "hiv")
    assert result.mean_recruits_positive == pytest.approx(0.5)
    assert result.mean_recruits_negative == pytest.approx(2.0)
    assert result.ratio == pytest.approx(0.25)
    assert result.ratio_defined


def test_effectiveness_no_negatives_undefined():
    rows = [
        make_respondent("p1", 1, coupons_out=["C1"], degree=1, traits={"hiv": "yes"}),
        make_respondent("r1", 2, coupon_in="C1", degree=1, traits={"hiv": "yes"}),
    ]
    ds = make_dataset(rows)
    result = recruitment_effectiveness(ds, build_forest(ds), "hiv")
    assert not result.ratio_defined
    assert math.isnan(result.ratio)


# -- recruitment bias --------------------------------------------------------


def _bias_recruiter(rid, order, q_age, n_employed, recipients, recruit_coupons,
                    employed=True):
    """recipients: list of recipient_employed answers for distributed coupons."""
    coupons = [
        coupon(f"{rid}-c{j}", employed=e) for j, e in enumerate(recipients)
    ]
    return make_respondent(
        rid, order,
        coupons_out=[c.coupon_id for c in coupons],
        degree=make_degree(q_age),
        traits={"hiv": "no"},
        employed=employed,
        followup=followup(coupons=coupons, n_contacts_employed=n_employed),
    )


def test_bias_levels_hand_fixture():
    rows = [
        _bias_recruiter("S", 1, q_age=4, n_employed=2, recipients=[True, True],
                        recruit_coupons=1),
        make_respondent("r1", 2, coupon_in="S-c0", degree=2, traits={"hiv": "no"},
                        employed=True),
    ]
    ds = make_dataset(rows, allotment=2)
    levels = recruitment_bias_levels(ds, build_forest(ds))
    assert levels.contacts_level == pytest.approx(0.5)
    assert levels.recipients_level == pytest.approx(1.0)
    assert levels.recruits_level == pytest.approx(1.0)
    assert levels.n_recruiters == 1


def test_bias_levels_uniform_employment():
    rows = [
        _bias_recruiter("S", 1, q_age=3, n_employed=3, recipients=[True],
                        recruit_coupons=1),
        make_respondent("r1", 2, coupon_in="S-c0", degree=2, traits={"hiv": "no"},
                        employed=True),
    ]
    ds = make_dataset(rows)
    levels = recruitment_bias_levels(ds, build_forest(ds))
    assert (levels.contacts_level, levels.recipients_level, levels.recruits_level) == (
        1.0, 1.0, 1.0,
    )


def test_bias_levels_requires_all_three_levels():
    # recruiter missing the employed-contacts count is not eligible
    rows = [
        _bias_recruiter("S", 1, q_age=4, n_employed=None, recipients=[True],
                        recruit_coupons=1),
        make_respondent("r1", 2, coupon_in="S-c0", degree=2, traits={"hiv": "no"},
                        employed=True),
    ]
    ds = make_dataset(rows)
    with pytest.raises(NoEligibleRecruiters):
        recruitment_bias_levels(ds, build_forest(ds))


def test_bias_tests_inconsistent_counted():
    rows = [
        # reports 3 employed recipients but only 2 employed contacts
        _bias_recruiter("S", 1, q_age=5, n_employed=2,
                        recipients=[True, True, True], recruit_coupons=1),
        _bias_recruiter("T", 2, q_age=5, n_employed=4,
                        recipients=[True, False], recruit_coupons=1),
        make_respondent("r0", 3, coupon_in="S-c0", degree=2, traits={"hiv": "no"},
                        employed=True),
        make_respondent("r1", 4, coupon_in="T-c0", degree=2, traits={"hiv": "no"},
                        employed=True),
    ]
    ds = make_dataset(rows)
    results = recruitment_bias_tests(ds, build_forest(ds), replicates=500, rng_seed=2)
    assert results.inconsistency["coupon_passing"] == pytest.approx(0.5)
    assert results.n_recruiters["coupon_passing"] == 1


def test_bias_tests_symmetric_null_rank_moderate():
    rng = np.random.default_rng(8)
    rows = []
    order = 1
    recruit_rows = []
    for i in range(40):
        q_age = int(rng.integers(4, 9))
        n_emp = q_age // 2
        # recipients chosen "at random": half employed
        recipients = [True, False]
        rid = f"S{i}"
        rows.append(_bias_recruiter(rid, order, q_age=q_age, n_employed=n_emp,
                                    recipients=recipients, recruit_coupons=1))
        order += 1
        recruit_rows.append((f"{rid}-c0", bool(rng.random() < 0.5)))
    for j, (cin, emp) in enumerate(recruit_rows):
        rows.append(
            make_respondent(f"r{j}", order, coupon_in=cin, degree=2,
                            traits={"hiv": "no"}, employed=emp)
        )
        order += 1
    # renumber orders contiguously (they already are)
    ds = make_dataset(rows)
    results = recruitment_bias_tests(ds, build_forest(ds), replicates=4000, rng_seed=3)
    assert 0.2 < results.coupon_passing.quantile_rank < 0.8


# -- non-response ------------------------------------------------------------


def test_nonresponse_hand_fixture():
    rows = [
        make_respondent(
            "S", 1, coupons_out=["C1", "C2", "C3"], degree=4, traits={"hiv": "no"},
            followup=followup(n_coupons_distributed=3, n_refusals=2),
        ),
        make_respondent("r1", 2, coupon_in="C1", degree=2, traits={"hiv": "no"}),
        make_respondent("r2", 3, coupon_in="C2", degree=2, traits={"hiv": "no"}),
    ]
    ds = make_dataset(rows)
    rates = nonresponse_rates(ds, build_forest(ds))
    assert rates.coupon_refusal == pytest.approx(0.4)
    assert rates.non_return == pytest.approx(1 / 3)
    assert rates.total_non_response == pytest.approx(0.6)
    assert rates.n_recruiters == 1


def test_nonresponse_zero_rates():
    rows = [
        make_respondent(
            "S", 1, coupons_out=["C1"], degree=4, traits={"hiv": "no"},
            followup=followup(n_coupons_distributed=1, n_refusals=0),
        ),
        make_respondent("r1", 2, coupon_in="C1", degree=2, traits={"hiv": "no"}),
    ]
    ds = make_dataset(rows)
    rates = nonresponse_rates(ds, build_forest(ds))
    assert (rates.coupon_refusal, rates.non_return, rates.total_non_response) == (
        0.0, 0.0, 0.0,
    )


def test_nonresponse_impossible_counts_excluded():
    rows = [
        make_respondent(
            "S", 1, coupons_out=["C1", "C2"], degree=4, traits={"hiv": "no"},
            followup=followup(n_coupons_distributed=1, n_refusals=0),
        ),
        make_respondent("r1", 2, coupon_in="C1", degree=2, traits={"hiv": "no"}),
        make_respondent("r2", 3, coupon_in="C2", degree=2, traits={"hiv": "no"}),
        make_respondent(
            "T", 4, coupons_out=["C4"], degree=3, traits={"hiv": "no"},
            followup=followup(n_coupons_distributed=1, n_refusals=1),
        ),
        make_respondent("r3", 5, coupon_in="C4", degree=2, traits={"hiv": "no"}),
    ]
    ds = make_dataset(rows)
    rates = nonresponse_rates(ds, build_forest(ds))
    assert rates.n_impossible_excluded == 1
    assert rates.n_recruiters == 1


def test_nonresponse_identity_exact():
    rows = [
        make_respondent(
            "S", 1, coupons_out=["C1", "C2", "C3"], degree=4, traits={"hiv": "no"},
            followup=followup(n_coupons_distributed=3, n_refusals=2),
        ),
        make_respondent(
            "r1", 2, coupon_in="C1", coupons_out=["C4"], degree=2,
            traits={"hiv": "no"},
            followup=followup(n_coupons_distributed=1, n_refusals=1),
        ),
        make_respondent("r2", 3, coupon_in="C2", degree=2, traits={"hiv": "no"}),
    ]
    ds = make_dataset(rows)
    rates = nonresponse_rates(ds, build_forest(ds))
    lhs = rates.total_non_response
    rhs = 1 - (1 - rates.coupon_refusal) * (1 - rates.non_return)
    assert abs(lhs - rhs) <= 1e-12


# -- reason tables -----------------------------------------------------------


def test_reason_tables():
    rows = [
        make_respondent(
            "S", 1, degree=2, traits={"hiv": "no"}, motivation="For HIV test",
            followup=followup(refusal_reasons=("Not interested", "Too busy")),
        ),
        make_respondent(
            "T", 2, degree=2, traits={"hiv": "no"}, motivation="Incentive",
            followup=followup(refusal_reasons=("Too busy",) * 6),
        ),
    ]
    refusal, motivation = reason_tables(make_dataset(rows))
    assert refusal.total == 8
    assert refusal.percentages["Not interested"] == pytest.approx(12.5)
    assert sum(refusal.percentages.values()) == pytest.approx(100.0)
    assert motivation.total == 2
    assert motivation.percentages["Incentive"] == pytest.approx(50.0)


def test_reason_tables_empty():
    ds = make_dataset([make_respondent("S", 1, degree=2, traits={"hiv": "no"})])
    refusal, motivation = reason_tables(ds)
    assert refusal.total == 0 and refusal.percentages == {}
    assert motivation.total == 0


# -- odds ratio and exact interval -------------------------------------------


def oracle_interval(a, b, c, d, alpha=0.05):
    """Independent inversion oracle using exact rational coefficients and
    plain bisection on the odds parameter."""
    r1, r2, c1 = a + b, c + d, a + c
    lo_s, hi_s = max(0, c1 - r2), min(r1, c1)
    ks = list(range(lo_s, hi_s + 1))
    coef = [Fraction(math.comb(r1, k) * math.comb(r2, c1 - k)) for k in ks]

    def tail(psi, upper):
        weights = [co * Fraction(psi) ** (k - lo_s) for co, k in zip(coef, ks)]
        total = sum(weights)
        part = sum(w for w, k in zip(weights, ks) if (k >= a if upper else k <= a))
        return part / total

    def solve(upper):
        target = Fraction(alpha) / 2
        lo, hi = 1e-12, 1e12
        f = lambda psi: tail(psi, upper) - target
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if (f(mid) < 0) == (f(lo) < 0):
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)

    lower = 0.0 if a == lo_s else solve(upper=True)
    upper = math.inf if a == hi_s else solve(upper=False)
    return lower, upper


@pytest.mark.parametrize("table", [
    (10, 10, 10, 10),
    (8, 2, 5, 5),
    (3, 7, 6, 4),
    (1, 12, 9, 2),
])
def test_interval_matches_oracle(table):
    ours = exact_odds_ratio_interval(*table)
    ref = oracle_interval(*table)
    for x, y in zip(ours, ref):
        assert abs(x - y) <= 1e-6 * max(1.0, abs(y))


def test_balanced_table():
    mo_rows = []
    for _ in range(10):
        mo_rows += ["A-yes", "A-no", "B-yes", "B-no"]
    rows = [
        make_respondent(
            f"x{i}", i + 1, degree=2, motivation=tag.split("-")[0],
            traits={"hiv": tag.split("-")[1]},
        )
        for i, tag in enumerate(mo_rows)
    ]
    ds = make_dataset(rows)
    mo = motivation_outcome(ds, "A", "hiv")
    assert mo.table == (10, 10, 10, 10)
    assert mo.odds_ratio == pytest.approx(1.0)
    assert mo.interval[0] < 1.0 < mo.interval[1]


def test_or_hand_value():
    assert exact_odds_ratio_interval(8, 2, 5, 5)[0] > 0
    # sample OR from the (8,2;5,5) table
    assert (8 * 5) / (2 * 5) == pytest.approx(4.0)


def test_zero_cell_one_sided():
    lower, upper = exact_odds_ratio_interval(0, 10, 5, 5)
    assert lower == 0.0
    assert math.isfinite(upper)
    lower, upper = exact_odds_ratio_interval(10, 0, 5, 5)
    assert math.isinf(upper)
    assert lower > 0.0


def test_degenerate_table():
    rows = [
        make_respondent(f"x{i}", i + 1, degree=2, motivation="A",
                        traits={"hiv": "yes"})
        for i in range(4)
    ]
    ds = make_dataset(rows)
    with pytest.raises(DegenerateTable):
        motivation_outcome(ds, "A", "hiv")


@st.composite
def tables_2x2(draw, max_margin=1000):
    """(a, b, c, d) with every row and column margin in [1, max_margin]."""
    r1 = draw(st.integers(1, max_margin))
    r2 = draw(st.integers(1, max_margin))
    c1 = draw(st.integers(max(1, r1 + r2 - max_margin), min(max_margin, r1 + r2 - 1)))
    a = draw(st.integers(max(0, c1 - r2), min(r1, c1)))
    return a, r1 - a, c1 - a, r2 - (c1 - a)


@settings(max_examples=80, deadline=None)
@given(table=tables_2x2())
@example(table=(67, 637, 32, 264))  # a motivation table of the many-traits study
def test_interval_matches_scipy_at_report_sizes(table):
    a, b, c, d = table
    ours = exact_odds_ratio_interval(*table)
    ref = odds_ratio([[a, b], [c, d]], kind="conditional").confidence_interval(0.95)
    for x, y in zip(ours, (ref.low, ref.high)):
        if x in (0.0, math.inf) or y in (0.0, math.inf):
            assert x == y
        else:
            assert x == pytest.approx(y, rel=1e-8)
    if a * d > 0 and b * c > 0:
        assert ours[0] <= (a * d) / (b * c) <= ours[1]


def test_interval_contains_point_estimate():
    rng = np.random.default_rng(0)
    for _ in range(30):
        a, b, c, d = (int(rng.integers(1, 12)) for _ in range(4))
        mo_or = (a * d) / (b * c)
        lower, upper = exact_odds_ratio_interval(a, b, c, d)
        assert lower <= mo_or <= upper
