import math
import tracemalloc
from datetime import date

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import followup, make_dataset, make_degree, make_respondent
from rdsdiag import degree
from rdsdiag.dataset import DegreeReport, FollowUpRecord
from rdsdiag.degree import (
    TREND_METHODS,
    degree_trend,
    estimate_sensitivity,
    time_window_stats,
)
from rdsdiag.degree import test_retest_stats as retest_stats
from rdsdiag.errors import DataRequirementError, UnrealizableConfig
from rdsdiag.estimators import _quantile, included_sample


def _ds(rows, **kw):
    return make_dataset(rows, **kw)


# -- time windows ------------------------------------------------------------


def test_time_window_full_reach():
    rows = [
        make_respondent("S", 1, degree=make_degree(6, q_reach_day=6, q_reach_week=6),
                        traits={"hiv": "no"}),
    ]
    tw = time_window_stats(_ds(rows))
    assert tw["mean_reachable_1day"] == pytest.approx(1.0)
    assert tw["mean_reachable_7day"] == pytest.approx(1.0)
    assert tw["n_reachability"] == 1


def test_time_window_partial_reach():
    rows = [
        make_respondent("S", 1, degree=make_degree(10, q_reach_day=5, q_reach_week=8),
                        traits={"hiv": "no"}),
    ]
    ds = _ds(rows)
    tw = time_window_stats(ds)
    assert tw["mean_reachable_1day"] == pytest.approx(0.5)
    assert tw["mean_reachable_7day"] == pytest.approx(0.8)
    assert tw["n_excluded_inconsistent"] == 0


def test_time_window_inconsistent_excluded():
    rows = [
        make_respondent("S", 1, degree=make_degree(4, q_reach_week=9),
                        traits={"hiv": "no"}),
        make_respondent("T", 2, degree=make_degree(4, q_reach_week=2),
                        traits={"hiv": "no"}),
    ]
    ds = _ds(rows)
    tw = time_window_stats(ds)
    assert tw["n_excluded_inconsistent"] == 1
    assert tw["mean_reachable_7day"] == pytest.approx(0.5)
    assert tw["n_reachability"] == 1


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
        # interviewed 19 days after the seed: one of the two gaps exceeds 7 days
        make_respondent("r2", 3, coupon_in="C2", degree=2, traits={"hiv": "no"},
                        interview_date=date(2008, 3, 20)),
    ]
    ds = _ds(rows)
    tw = time_window_stats(ds)
    assert tw["share_distributed_1day"] == pytest.approx(0.5)
    assert tw["share_distributed_7day"] == pytest.approx(0.5)
    assert tw["share_gap_within_7day"] == pytest.approx(0.5)


def test_time_window_empty_parts_nan():
    rows = [make_respondent("S", 1, degree=4, traits={"hiv": "no"})]
    ds = _ds(rows)
    tw = time_window_stats(ds)
    assert math.isnan(tw["mean_reachable_1day"])
    assert math.isnan(tw["share_distributed_7day"])


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
    assert rs["spearman_rho"] == pytest.approx(1.0)
    assert rs["median_diff"] == 0.0
    assert rs["n"] == 4


def test_retest_reversed_negative_rho():
    ds = _ds(_retest_rows([1, 2, 3, 4], [9, 8, 7, 6]))
    rs = retest_stats(ds)
    assert rs["spearman_rho"] == pytest.approx(-1.0)
    assert rs["median_diff"] == pytest.approx(5.0)


def test_retest_constant_column_rho_undefined():
    # a constant column has no ranks; no scipy ConstantInputWarning is raised
    ds = _ds(_retest_rows([4, 4, 4], [2, 5, 9]))
    assert math.isnan(retest_stats(ds)["spearman_rho"])


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
    assert rs["spearman_rho"] == pytest.approx(_spearman_oracle(tests, retests), abs=1e-12)


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
        assert rs["spearman_rho"] == pytest.approx(
            _spearman_oracle(tests, retests), abs=1e-10
        )


def test_retest_too_few_pairs():
    ds = _ds(_retest_rows([3], [4]))
    with pytest.raises(DataRequirementError, match="need >= 2 test/retest pairs for"):
        retest_stats(ds)


# -- estimate sensitivity ----------------------------------------------------


def _sensitivity(ds, trait, question="q_seen_week"):
    sample = included_sample(ds, trait, degree_question=question)
    return estimate_sensitivity(ds, sample, question)


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
    row = _sensitivity(ds, "hiv")
    # test: weights 1, 1/2 -> 2/3; retest: weights 1/4, 1/2 -> 1/3
    assert row["estimate_test"] == pytest.approx(2 / 3)
    assert row["estimate_retest"] == pytest.approx(1 / 3)
    assert row["abs_difference"] == pytest.approx(1 / 3)
    assert row["rel_difference"] == pytest.approx(0.5)
    assert row["n"] == 2


def test_sensitivity_zero_prevalence_rel_none():
    rows = [
        make_respondent("S", 1, coupons_out=["C1"], degree=4, traits={"hiv": "no"}),
        make_respondent("a", 2, coupon_in="C1", degree=2, traits={"hiv": "no"},
                        followup=followup(retest=5)),
    ]
    ds = _ds(rows)
    row = _sensitivity(ds, "hiv")
    assert row["estimate_test"] == 0.0
    assert row["rel_difference"] is None


def test_sensitivity_requires_completers():
    rows = [
        make_respondent("S", 1, coupons_out=["C1"], degree=4, traits={"hiv": "no"}),
        make_respondent("a", 2, coupon_in="C1", degree=2, traits={"hiv": "no"}),
    ]
    ds = _ds(rows)
    with pytest.raises(DataRequirementError, match="no usable test/retest members for 'hiv'"):
        _sensitivity(ds, "hiv")


def test_sensitivity_skips_trait_without_completers():
    rows = [
        make_respondent("S", 1, coupons_out=["C1", "C2"], degree=4,
                        traits={"hiv": "no", "emp": "yes"}),
        make_respondent("a", 2, coupon_in="C1", degree=1, traits={"hiv": "yes"},
                        followup=followup(retest=4)),
        make_respondent("b", 3, coupon_in="C2", degree=2, traits={"hiv": "no"},
                        followup=followup(retest=2)),
    ]
    ds = _ds(rows, traits=[("emp", "yes"), ("hiv", "yes")])
    with pytest.raises(DataRequirementError,
                       match="no usable test/retest members for 'emp'") as skipped:
        _sensitivity(ds, "emp")
    assert str(skipped.value) == "no usable test/retest members for 'emp'"
    row = _sensitivity(ds, "hiv")
    assert row["trait"] == "hiv"
    assert row["estimate_test"] == pytest.approx(2 / 3)
    assert row["n"] == 2


@st.composite
def _followup_studies(draw):
    """Random recruitment forests with seeds, missing trait answers, missing
    follow-ups and test or retest degrees that are missing or 0."""
    n = draw(st.integers(1, 40))
    n_seeds = draw(st.integers(1, min(n, 4)))
    recruiter = [None] * n_seeds + [draw(st.integers(0, i - 1)) for i in range(n_seeds, n)]
    degree = st.one_of(st.none(), st.integers(0, 9))
    rows = []
    for i in range(n):
        retest = draw(st.one_of(st.none(), st.tuples(degree, degree)))
        rows.append(
            make_respondent(
                f"r{i * 37 % 101:03d}", i + 1,  # ids out of interview order
                coupon_in=None if recruiter[i] is None else f"c{i}",
                coupons_out=[f"c{j}" for j in range(n) if recruiter[j] == i],
                degree=DegreeReport(q_seen_week=draw(degree), q_know=draw(degree)),
                traits={"hiv": draw(st.sampled_from(["yes", "no", None]))},
                followup=None if retest is None else FollowUpRecord(
                    degree_retest=DegreeReport(q_seen_week=retest[0], q_know=retest[1])
                ),
            )
        )
    return make_dataset(rows, allotment=n)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ds=_followup_studies(), question=st.sampled_from(["q_seen_week", "q_know"]))
def test_sensitivity_matches_naive_sums(ds, question):
    num = {"test": 0.0, "retest": 0.0}
    den = {"test": 0.0, "retest": 0.0}
    n = 0
    for r in ds.respondents:
        flag = ds.indicator(r, "hiv")
        if r.is_seed or r.followup is None or flag is None:
            continue
        degrees = {
            "test": r.degree.get(question),
            "retest": r.followup.degree_retest.get(question),
        }
        if any(d is None or d < 1 for d in degrees.values()):
            continue
        n += 1
        for wave, d in degrees.items():
            den[wave] += 1.0 / d
            if flag:
                num[wave] += 1.0 / d
    if n == 0:
        with pytest.raises(DataRequirementError,
                           match="no usable test/retest members for 'hiv'"):
            _sensitivity(ds, "hiv", question)
        return
    row = _sensitivity(ds, "hiv", question)
    assert row["n"] == n
    # the same additions in the same order: equal to the last bit
    assert row["estimate_test"] == num["test"] / den["test"]
    assert row["estimate_retest"] == num["retest"] / den["retest"]


# -- trend -------------------------------------------------------------------


def _trend_ds(degrees):
    rows = [
        make_respondent(f"x{i}", i + 1, degree=d, traits={"hiv": "no"})
        for i, d in enumerate(degrees)
    ]
    return _ds(rows)


def _fit(degrees, method):
    """The entry of ``method`` in the one trend call on ``degrees``."""
    (fit,) = [f for f in degree_trend(_trend_ds(degrees)) if f["method"] == method]
    return fit


def test_trend_decreasing_all_negative():
    verdicts = degree_trend(_trend_ds([10, 8, 6, 4, 2]))
    assert [v["method"] for v in verdicts] == list(TREND_METHODS)
    assert all(v["sign"] == -1 for v in verdicts)


def test_trend_constant_all_zero():
    verdicts = degree_trend(_trend_ds([5, 5, 5, 5]))
    assert verdicts == [{"method": m, "sign": 0, "statistic": 0.0} for m in TREND_METHODS]


def test_trend_linear_matches_polyfit_oracle():
    degrees = [3, 9, 4, 7, 12, 6]
    x = np.arange(1, 7, dtype=float)
    y = np.array(degrees, dtype=float)
    slope = float(np.polyfit(x, y, 1)[0])
    assert _fit(degrees, "linear")["statistic"] == pytest.approx(slope, abs=1e-12)


def test_trend_theil_sen_median_of_pairwise_slopes():
    degrees = [2, 9, 3, 8, 5]
    x = list(range(1, 6))
    slopes = [
        (degrees[j] - degrees[i]) / (x[j] - x[i])
        for i in range(len(x))
        for j in range(i + 1, len(x))
    ]
    ts = _fit(degrees, "theil-sen")
    assert ts["statistic"] == pytest.approx(float(np.median(slopes)), abs=1e-12)


def test_trend_kendall_matches_concordance_oracle():
    degrees = [4, 7, 2, 9, 9, 3]
    x = list(range(1, 7))
    kt = _fit(degrees, "kendall-tau")
    ref = stats.kendalltau(x, degrees).statistic
    assert kt["statistic"] == pytest.approx(float(ref), abs=1e-12)
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
    assert kt["statistic"] == pytest.approx(tau_b, abs=1e-12)


def test_trend_spearman_invariant_under_monotone_transform():
    degrees = [2, 5, 3, 9, 7, 4]
    cubed = [d**3 for d in degrees]
    a = _fit(degrees, "spearman-rho")
    b = _fit(cubed, "spearman-rho")
    assert a["statistic"] == pytest.approx(b["statistic"], abs=1e-12)


def test_trend_log_linear_drops_zero_degrees():
    verdict = _fit([0, 8, 4, 2, 1], "log-linear")
    x = np.array([2.0, 3.0, 4.0, 5.0])
    y = np.log(np.array([8.0, 4.0, 2.0, 1.0]))
    assert verdict["statistic"] == pytest.approx(float(np.polyfit(x, y, 1)[0]))
    assert verdict["sign"] == -1


def test_trend_log_linear_alone_skips_below_three_positive_degrees():
    verdicts = degree_trend(_trend_ds([0, 0, 3, 0, 5]))
    assert verdicts[1] == {
        "method": "log-linear", "skipped": "need >= 3 positive degrees for log-linear"
    }
    assert [v["sign"] for v in verdicts[:1] + verdicts[2:]] == [1, 1, 1, 1]


def test_trend_insufficient_data():
    with pytest.raises(DataRequirementError, match="need >= 3 respondents with degree"):
        degree_trend(_trend_ds([4, 5]))


def test_unknown_question_is_a_config_error():
    with pytest.raises(UnrealizableConfig, match="unknown degree question 'q_nope'"):
        DegreeReport().get("q_nope")
    with pytest.raises(UnrealizableConfig, match="unknown degree question 'q_nope'"):
        degree_trend(_trend_ds([5, 5, 5]), "q_nope")


# -- rank statistics against the n x n outer products ------------------------


def _kendall_tau_b_outer(x, y):
    """Kendall's tau-b from n x n comparison matrices."""
    # each pair untied in x appears once as an (i, j) with x[i] > x[j]
    x_above = np.greater.outer(x, x)
    y_above = np.greater.outer(y, y)
    untied_x = np.count_nonzero(x_above)
    untied_y = np.count_nonzero(y_above)
    concordant = np.count_nonzero(x_above & y_above)
    discordant = np.count_nonzero(x_above & np.less.outer(y, y))
    tau = (concordant - discordant) / np.sqrt(untied_x) / np.sqrt(untied_y)
    return float(min(1.0, max(-1.0, tau)))


def _theil_sen_outer(x, y):
    """The Theil-Sen slope from n x n difference matrices."""
    dx = np.subtract.outer(x, x)
    x_above = dx > 0
    return _quantile(np.subtract.outer(y, y)[x_above] / dx[x_above], 0.5)


# one row, three rows at n = 300, and the default
_BLOCK_BYTES = [1, 8 * 300 * 3, degree._PAIR_BLOCK_BYTES]

# integer columns of up to 300, x with few, some or mostly distinct values
_tied_columns = st.tuples(st.integers(2, 300), st.sampled_from([4, 30, 1000])).flatmap(
    lambda size: st.tuples(
        st.lists(st.integers(0, size[1]), min_size=size[0], max_size=size[0]),
        st.lists(st.integers(0, 40), min_size=size[0], max_size=size[0]),
    )
)


@settings(max_examples=150, deadline=None)
@given(_tied_columns, st.sampled_from(_BLOCK_BYTES))
def test_rank_statistics_equal_outer_products(columns, block_bytes):
    x, y = (np.array(v, dtype=float) for v in columns)
    if np.all(x == x[0]) or np.all(y == y[0]):
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(degree, "_PAIR_BLOCK_BYTES", block_bytes)
        assert degree._theil_sen(x, y) == _theil_sen_outer(x, y)
        assert degree._kendall_tau_b(x, y) == _kendall_tau_b_outer(x, y)


def test_theil_sen_widens_a_bracket_that_misses_the_median(monkeypatch):
    # periodic x and y, one row per block: every stride-th slope is a biased
    # sample, so the first bracket misses a middle rank
    x = (np.arange(21) % 3).astype(float)
    y = (np.arange(21) % 10).astype(float)
    passes = []
    slopes = degree._slopes
    monkeypatch.setattr(degree, "_PAIR_BLOCK_BYTES", 1)
    monkeypatch.setattr(degree, "_slopes", lambda *a: passes.append(1) or slopes(*a))
    assert degree._theil_sen(x, y) == _theil_sen_outer(x, y)
    assert len(passes) == 3


def test_rank_statistics_hold_no_n_by_n_array():
    # the outer products take about 180 and 27 MiB at this n
    n = 3000
    x = np.arange(1, n + 1, dtype=float)
    y = np.random.default_rng(3).integers(0, 60, size=n).astype(float)
    for statistic in (degree._theil_sen, degree._kendall_tau_b):
        tracemalloc.start()
        try:
            statistic(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (statistic.__name__, peak)
