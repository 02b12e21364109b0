import math

import numpy as np
import pytest
from scipy import stats

from conftest import followup, make_dataset, make_degree, make_respondent
from rdsdiag.degree import (
    TREND_METHODS,
    degree_trend,
    estimate_sensitivity,
    time_window_stats,
)
from rdsdiag.degree import test_retest_stats as retest_stats
from rdsdiag.errors import InsufficientData
from rdsdiag.forest import build_forest


def _ds(rows, **kw):
    return make_dataset(rows, **kw)


# -- time windows ------------------------------------------------------------


def test_time_window_full_reach():
    rows = [
        make_respondent("S", 1, degree=make_degree(6, q_reach_day=6, q_reach_week=6),
                        traits={"hiv": "no"}),
    ]
    tw = time_window_stats(_ds(rows), build_forest(_ds(rows)))
    assert tw.mean_reachable_1day == pytest.approx(1.0)
    assert tw.mean_reachable_7day == pytest.approx(1.0)
    assert tw.n_reachability == 1


def test_time_window_partial_reach():
    rows = [
        make_respondent("S", 1, degree=make_degree(10, q_reach_day=5, q_reach_week=8),
                        traits={"hiv": "no"}),
    ]
    ds = _ds(rows)
    tw = time_window_stats(ds, build_forest(ds))
    assert tw.mean_reachable_1day == pytest.approx(0.5)
    assert tw.mean_reachable_7day == pytest.approx(0.8)
    assert tw.n_excluded_inconsistent == 0


def test_time_window_inconsistent_excluded():
    rows = [
        make_respondent("S", 1, degree=make_degree(4, q_reach_week=9),
                        traits={"hiv": "no"}),
        make_respondent("T", 2, degree=make_degree(4, q_reach_week=2),
                        traits={"hiv": "no"}),
    ]
    ds = _ds(rows)
    tw = time_window_stats(ds, build_forest(ds))
    assert tw.n_excluded_inconsistent == 1
    assert tw.mean_reachable_7day == pytest.approx(0.5)
    assert tw.n_reachability == 1


def test_time_window_distribution_and_gaps():
    from rdsdiag.dataset import CouponOutcome

    coupons = [
        CouponOutcome("C1", days_to_distribute=0, reciprocation_answer=None,
                      recipient_employed=None),
        CouponOutcome("C2", days_to_distribute=9, reciprocation_answer=None,
                      recipient_employed=None),
    ]
    rows = [
        make_respondent("S", 1, coupons_out=["C1", "C2"], degree=4,
                        traits={"hiv": "no"}, followup=followup(coupons=coupons)),
        make_respondent("r1", 2, coupon_in="C1", degree=2, traits={"hiv": "no"}),
        make_respondent("r2", 3, coupon_in="C2", degree=2, traits={"hiv": "no"}),
    ]
    ds = _ds(rows)
    tw = time_window_stats(ds, build_forest(ds))
    assert tw.days_to_distribute == (0, 9)
    assert tw.share_distributed_1day == pytest.approx(0.5)
    assert tw.share_distributed_7day == pytest.approx(0.5)
    assert len(tw.interview_gaps) == 2
    assert tw.share_gap_within_7day == pytest.approx(1.0)


def test_time_window_empty_parts_nan():
    rows = [make_respondent("S", 1, degree=4, traits={"hiv": "no"})]
    ds = _ds(rows)
    tw = time_window_stats(ds, build_forest(ds))
    assert math.isnan(tw.mean_reachable_1day)
    assert math.isnan(tw.share_distributed_7day)


# -- test/retest -------------------------------------------------------------


def _retest_rows(tests, retests):
    rows = []
    for i, (t, r) in enumerate(zip(tests, retests)):
        rows.append(
            make_respondent(f"x{i}", i + 1, degree=t, traits={"hiv": "no"},
                            followup=followup(retest=r))
        )
    return rows


def test_retest_identical_perfect_rho():
    ds = _ds(_retest_rows([3, 7, 12, 5], [3, 7, 12, 5]))
    rs = retest_stats(ds)
    assert rs.spearman_rho == pytest.approx(1.0)
    assert rs.median_diff == 0.0
    assert rs.n == 4


def test_retest_reversed_negative_rho():
    ds = _ds(_retest_rows([1, 2, 3, 4], [9, 8, 7, 6]))
    rs = retest_stats(ds)
    assert rs.spearman_rho == pytest.approx(-1.0)
    assert rs.median_diff == pytest.approx(5.0)


def test_retest_constant_column_rho_undefined():
    # a constant column has no ranks; no scipy ConstantInputWarning is raised
    ds = _ds(_retest_rows([4, 4, 4], [2, 5, 9]))
    assert math.isnan(retest_stats(ds).spearman_rho)


def _average_rank(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _spearman_oracle(xs, ys):
    rx = _average_rank(xs)
    ry = _average_rank(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


def test_retest_ties_match_average_rank_oracle():
    tests, retests = [1, 2, 2, 5], [2, 1, 4, 4]
    ds = _ds(_retest_rows(tests, retests))
    rs = retest_stats(ds)
    assert rs.spearman_rho == pytest.approx(_spearman_oracle(tests, retests), abs=1e-12)


def test_retest_random_match_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 15))
        tests = [int(v) for v in rng.integers(1, 6, size=n)]
        retests = [int(v) for v in rng.integers(1, 6, size=n)]
        if len(set(tests)) < 2 or len(set(retests)) < 2:
            continue
        ds = _ds(_retest_rows(tests, retests))
        rs = retest_stats(ds)
        assert rs.spearman_rho == pytest.approx(
            _spearman_oracle(tests, retests), abs=1e-10
        )


def test_retest_too_few_pairs():
    ds = _ds(_retest_rows([3], [4]))
    with pytest.raises(InsufficientData):
        retest_stats(ds)


# -- estimate sensitivity ----------------------------------------------------


def test_sensitivity_hand_fixture():
    rows = [
        make_respondent("S", 1, coupons_out=["C1", "C2"], degree=4,
                        traits={"hiv": "no"}),
        make_respondent("a", 2, coupon_in="C1", degree=1, traits={"hiv": "yes"},
                        followup=followup(retest=4)),
        make_respondent("b", 3, coupon_in="C2", degree=2, traits={"hiv": "no"},
                        followup=followup(retest=2)),
    ]
    ds = _ds(rows)
    row = estimate_sensitivity(ds, "hiv")
    # test: weights 1, 1/2 -> 2/3; retest: weights 1/4, 1/2 -> 1/3
    assert row.estimate_test == pytest.approx(2 / 3)
    assert row.estimate_retest == pytest.approx(1 / 3)
    assert row.abs_difference == pytest.approx(1 / 3)
    assert row.rel_difference == pytest.approx(0.5)
    assert row.n == 2


def test_sensitivity_zero_prevalence_rel_none():
    rows = [
        make_respondent("S", 1, coupons_out=["C1"], degree=4, traits={"hiv": "no"}),
        make_respondent("a", 2, coupon_in="C1", degree=2, traits={"hiv": "no"},
                        followup=followup(retest=5)),
    ]
    ds = _ds(rows)
    row = estimate_sensitivity(ds, "hiv")
    assert row.estimate_test == 0.0
    assert row.rel_difference is None


def test_sensitivity_requires_completers():
    rows = [
        make_respondent("S", 1, coupons_out=["C1"], degree=4, traits={"hiv": "no"}),
        make_respondent("a", 2, coupon_in="C1", degree=2, traits={"hiv": "no"}),
    ]
    ds = _ds(rows)
    with pytest.raises(InsufficientData):
        estimate_sensitivity(ds, "hiv")


def test_sensitivity_skips_trait_without_completers():
    rows = [
        make_respondent("S", 1, coupons_out=["C1", "C2"], degree=4,
                        traits={"hiv": "no", "emp": "yes"}),
        make_respondent("a", 2, coupon_in="C1", degree=1, traits={"hiv": "yes"},
                        followup=followup(retest=4)),
        make_respondent("b", 3, coupon_in="C2", degree=2, traits={"hiv": "no"},
                        followup=followup(retest=2)),
    ]
    ds = _ds(rows, traits=[("emp", "binary", "yes"), ("hiv", "binary", "yes")])
    with pytest.raises(InsufficientData) as skipped:
        estimate_sensitivity(ds, "emp")
    assert str(skipped.value) == "no usable test/retest members for 'emp'"
    row = estimate_sensitivity(ds, "hiv")
    assert row.trait == "hiv"
    assert row.estimate_test == pytest.approx(2 / 3)
    assert row.n == 2


# -- trend -------------------------------------------------------------------


def _trend_ds(degrees):
    rows = [
        make_respondent(f"x{i}", i + 1, degree=d, traits={"hiv": "no"})
        for i, d in enumerate(degrees)
    ]
    return _ds(rows)


def test_trend_decreasing_all_negative():
    verdicts = degree_trend(_trend_ds([10, 8, 6, 4, 2]))
    assert [v.method for v in verdicts] == list(TREND_METHODS)
    assert all(v.sign == -1 for v in verdicts)


def test_trend_constant_all_zero():
    verdicts = degree_trend(_trend_ds([5, 5, 5, 5]))
    assert all(v.sign == 0 for v in verdicts)


def test_trend_linear_matches_polyfit_oracle():
    degrees = [3, 9, 4, 7, 12, 6]
    x = np.arange(1, 7, dtype=float)
    y = np.array(degrees, dtype=float)
    slope = float(np.polyfit(x, y, 1)[0])
    (linear,) = [v for v in degree_trend(_trend_ds(degrees)) if v.method == "linear"]
    assert linear.statistic == pytest.approx(slope, abs=1e-12)


def test_trend_theil_sen_median_of_pairwise_slopes():
    degrees = [2, 9, 3, 8, 5]
    x = list(range(1, 6))
    slopes = [
        (degrees[j] - degrees[i]) / (x[j] - x[i])
        for i in range(len(x))
        for j in range(i + 1, len(x))
    ]
    (ts,) = [v for v in degree_trend(_trend_ds(degrees)) if v.method == "theil-sen"]
    assert ts.statistic == pytest.approx(float(np.median(slopes)), abs=1e-12)


def test_trend_kendall_matches_concordance_oracle():
    degrees = [4, 7, 2, 9, 9, 3]
    x = list(range(1, 7))
    (kt,) = [v for v in degree_trend(_trend_ds(degrees)) if v.method == "kendall-tau"]
    ref = stats.kendalltau(x, degrees).statistic
    assert kt.statistic == pytest.approx(float(ref), abs=1e-12)
    # brute concordance count (tau-b with no ties in x)
    conc = disc = ties_y = 0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            dy = degrees[j] - degrees[i]
            if dy > 0:
                conc += 1
            elif dy < 0:
                disc += 1
            else:
                ties_y += 1
    n0 = len(x) * (len(x) - 1) / 2
    tau_b = (conc - disc) / math.sqrt(n0 * (n0 - ties_y))
    assert kt.statistic == pytest.approx(tau_b, abs=1e-12)


def test_trend_spearman_invariant_under_monotone_transform():
    degrees = [2, 5, 3, 9, 7, 4]
    cubed = [d**3 for d in degrees]
    (a,) = [v for v in degree_trend(_trend_ds(degrees)) if v.method == "spearman-rho"]
    (b,) = [v for v in degree_trend(_trend_ds(cubed)) if v.method == "spearman-rho"]
    assert a.statistic == pytest.approx(b.statistic, abs=1e-12)


def test_trend_log_linear_drops_zero_degrees():
    verdicts = degree_trend(
        _trend_ds([0, 8, 4, 2, 1]), methods=("log-linear",)
    )
    x = np.array([2.0, 3.0, 4.0, 5.0])
    y = np.log(np.array([8.0, 4.0, 2.0, 1.0]))
    assert verdicts[0].statistic == pytest.approx(float(np.polyfit(x, y, 1)[0]))
    assert verdicts[0].sign == -1


def test_trend_insufficient_data():
    with pytest.raises(InsufficientData):
        degree_trend(_trend_ds([4, 5]))
