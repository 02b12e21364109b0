"""Degree-measurement diagnostics.

Time-window validity, test-retest reliability, sensitivity of estimates to
the degree wave, and degree-over-time trend fits.  Trend fits report only
signs and statistics; the dependence in recruitment chains makes attached
p-values meaningless, so none are produced.

The rank statistics are a few lines of numpy each, with the usual
definitions: average ranks for ties, Spearman's rho as the Pearson
correlation of those ranks, Kendall's tau-b with both tie corrections, and
the Theil-Sen slope as the median slope over pairs with distinct x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import StudyDataset, reach_inconsistent
from .errors import InsufficientData
from .estimators import (
    DEFAULT_DEGREE_QUESTION,
    IncludedSample,
    _quantile,
    inverse_degree_estimates,
)
from .forest import interview_gap_days

TREND_METHODS = ("linear", "log-linear", "theil-sen", "kendall-tau", "spearman-rho")


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of ``v``, tied values sharing the mean of their ranks."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2)[inverse]


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho: the Pearson correlation of the average ranks."""
    ranks = np.column_stack((_average_ranks(x), _average_ranks(y)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def _kendall_tau_b(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall's tau-b: concordant minus discordant pairs over the geometric
    mean of the pairs untied in x and the pairs untied in y.  Neither x nor
    y may be constant."""
    # each pair untied in x appears once as an (i, j) with x[i] > x[j]
    x_above = np.greater.outer(x, x)
    y_above = np.greater.outer(y, y)
    untied_x = np.count_nonzero(x_above)
    untied_y = np.count_nonzero(y_above)
    concordant = np.count_nonzero(x_above & y_above)
    discordant = np.count_nonzero(x_above & np.less.outer(y, y))
    tau = (concordant - discordant) / np.sqrt(untied_x) / np.sqrt(untied_y)
    return float(min(1.0, max(-1.0, tau)))


def _theil_sen(x: np.ndarray, y: np.ndarray) -> float:
    """Theil-Sen slope: the median of (y[i] - y[j]) / (x[i] - x[j]) over the
    pairs with x[i] > x[j].  x may not be constant."""
    dx = np.subtract.outer(x, x)
    x_above = dx > 0
    return _quantile(np.subtract.outer(y, y)[x_above] / dx[x_above], 0.5)


@dataclass(frozen=True)
class TrendVerdict:
    method: str
    sign: int
    statistic: float


@dataclass(frozen=True)
class TimeWindowStats:
    mean_reachable_1day: float
    mean_reachable_7day: float
    n_reachability: int
    n_excluded_inconsistent: int
    share_distributed_1day: float
    share_distributed_7day: float
    share_gap_within_7day: float


def time_window_stats(ds: StudyDataset) -> TimeWindowStats:
    """Three summaries of whether the one-week degree recall window fits the
    observed recruitment tempo."""
    frac_day: list[float] = []
    frac_week: list[float] = []
    excluded = 0
    for r in ds.respondents:
        d = r.degree
        if d.q_age is None or d.q_age < 1:
            continue
        if d.q_reach_day is None and d.q_reach_week is None:
            continue
        if reach_inconsistent(r):
            excluded += 1
            continue
        if d.q_reach_day is not None:
            frac_day.append(d.q_reach_day / d.q_age)
        if d.q_reach_week is not None:
            frac_week.append(d.q_reach_week / d.q_age)

    days = [
        c.days_to_distribute
        for r in ds.respondents
        if r.followup is not None
        for c in r.followup.coupons
        if c.days_to_distribute is not None
    ]
    gaps = [g for g in interview_gap_days(ds) if g is not None]

    def share(values: Sequence[int], limit: int) -> float:
        if not values:
            return math.nan
        return sum(1 for v in values if v <= limit) / len(values)

    return TimeWindowStats(
        mean_reachable_1day=float(np.mean(frac_day)) if frac_day else math.nan,
        mean_reachable_7day=float(np.mean(frac_week)) if frac_week else math.nan,
        n_reachability=max(len(frac_day), len(frac_week)),
        n_excluded_inconsistent=excluded,
        share_distributed_1day=share(days, 1),
        share_distributed_7day=share(days, 7),
        share_gap_within_7day=share(gaps, 7),
    )


@dataclass(frozen=True)
class RetestStats:
    question: str
    n: int
    median_diff: float
    q1_diff: float
    q3_diff: float
    spearman_rho: float


def test_retest_stats(
    ds: StudyDataset, question: str = DEFAULT_DEGREE_QUESTION
) -> RetestStats:
    """Retest-minus-test difference quartiles and the Spearman rank
    correlation (average ranks for ties) among follow-up completers."""
    pairs = []
    for r in ds.respondents:
        if r.followup is None:
            continue
        test = r.degree.get(question)
        retest = r.followup.degree_retest.get(question)
        if test is None or retest is None:
            continue
        pairs.append((test, retest))
    if len(pairs) < 2:
        raise InsufficientData(f"need >= 2 test/retest pairs for {question}")
    test = np.array([p[0] for p in pairs], dtype=float)
    retest = np.array([p[1] for p in pairs], dtype=float)
    diffs = retest - test
    # a constant column has no ranks to correlate: rho is undefined
    constant = np.all(test == test[0]) or np.all(retest == retest[0])
    rho = math.nan if constant else _spearman(test, retest)
    return RetestStats(
        question=question,
        n=len(pairs),
        median_diff=_quantile(diffs, 0.5),
        q1_diff=_quantile(diffs, 0.25),
        q3_diff=_quantile(diffs, 0.75),
        spearman_rho=float(rho),
    )


@dataclass(frozen=True)
class SensitivityRow:
    trait: str
    estimate_test: float
    estimate_retest: float
    abs_difference: float
    rel_difference: Optional[float]
    n: int


def estimate_sensitivity(
    ds: StudyDataset,
    sample: IncludedSample,
    degree_question: str = DEFAULT_DEGREE_QUESTION,
) -> SensitivityRow:
    """Prevalence estimates of the sample's trait using initial vs follow-up
    degree over the same respondents: the members of ``sample`` (built for
    ``degree_question``) whose follow-up retest degree is at least 1.
    Raises ``InsufficientData`` when no member qualifies."""

    def retest(order: int) -> float:
        followup = ds.respondents[order - 1].followup
        d = None if followup is None else followup.degree_retest.get(degree_question)
        return math.nan if d is None else float(d)

    retest_degree = np.array([retest(order) for order in sample.orders.tolist()], dtype=float)
    usable = retest_degree >= 1
    if not usable.any():
        raise InsufficientData(f"no usable test/retest members for {sample.trait!r}")
    y = sample.y[usable]
    p_test = float(inverse_degree_estimates(y, sample.degree[usable])[-1])
    p_retest = float(inverse_degree_estimates(y, retest_degree[usable])[-1])
    diff = abs(p_test - p_retest)
    return SensitivityRow(
        trait=sample.trait,
        estimate_test=p_test,
        estimate_retest=p_retest,
        abs_difference=diff,
        rel_difference=diff / p_test if p_test > 0 else None,
        n=int(usable.sum()),
    )


def _sign(x: float) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def degree_trend(
    ds: StudyDataset,
    method: str,
    degree_question: str = DEFAULT_DEGREE_QUESTION,
) -> TrendVerdict:
    """Trend of reported degree against interview order under one of
    ``TREND_METHODS``.  The log-linear fit drops zero degrees."""
    xs, ys = [], []
    for r in ds.respondents:
        d = r.degree.get(degree_question)
        if d is None:
            continue
        xs.append(float(r.interview_order))
        ys.append(float(d))
    if len(xs) < 3:
        raise InsufficientData("need >= 3 respondents with degree")
    x = np.array(xs)
    y = np.array(ys)
    if np.all(y == y[0]):
        # constant degree: every method reports a flat trend, and the rank
        # correlations are undefined
        return TrendVerdict(method=method, sign=0, statistic=0.0)
    if method == "linear":
        stat = float(np.polyfit(x, y, 1)[0])
    elif method == "log-linear":
        mask = y > 0
        if mask.sum() < 3:
            raise InsufficientData("need >= 3 positive degrees for log-linear")
        stat = float(np.polyfit(x[mask], np.log(y[mask]), 1)[0])
    elif method == "theil-sen":
        stat = _theil_sen(x, y)
    elif method == "kendall-tau":
        stat = _kendall_tau_b(x, y)
    elif method == "spearman-rho":
        stat = _spearman(x, y)
    else:
        raise ValueError(f"unknown trend method {method!r}")
    return TrendVerdict(method=method, sign=_sign(stat), statistic=stat)
