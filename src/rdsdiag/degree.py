"""Degree-measurement diagnostics.

Time-window validity, test-retest reliability, sensitivity of estimates to
the degree wave, and degree-over-time trend fits.  Trend fits report only
signs and statistics; the dependence in recruitment chains makes attached
p-values meaningless, so none are produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import stats

from .dataset import StudyDataset, reach_inconsistent
from .errors import InsufficientData
from .estimators import DEFAULT_DEGREE_QUESTION, vh_estimate
from .forest import RecruitmentForest, interview_gap_days

TREND_METHODS = ("linear", "log-linear", "theil-sen", "kendall-tau", "spearman-rho")


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
    days_to_distribute: tuple[int, ...]
    share_distributed_1day: float
    share_distributed_7day: float
    interview_gaps: tuple[int, ...]
    share_gap_within_7day: float


def time_window_stats(ds: StudyDataset, forest: RecruitmentForest) -> TimeWindowStats:
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
    gaps = [g for g in interview_gap_days(ds, forest) if g is not None]

    def share(values: Sequence[int], limit: int) -> float:
        if not values:
            return math.nan
        return sum(1 for v in values if v <= limit) / len(values)

    return TimeWindowStats(
        mean_reachable_1day=float(np.mean(frac_day)) if frac_day else math.nan,
        mean_reachable_7day=float(np.mean(frac_week)) if frac_week else math.nan,
        n_reachability=max(len(frac_day), len(frac_week)),
        n_excluded_inconsistent=excluded,
        days_to_distribute=tuple(days),
        share_distributed_1day=share(days, 1),
        share_distributed_7day=share(days, 7),
        interview_gaps=tuple(gaps),
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
    rho = math.nan if constant else stats.spearmanr(test, retest).statistic
    return RetestStats(
        question=question,
        n=len(pairs),
        median_diff=float(np.median(diffs)),
        q1_diff=float(np.quantile(diffs, 0.25)),
        q3_diff=float(np.quantile(diffs, 0.75)),
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
    trait: str,
    degree_question: str = DEFAULT_DEGREE_QUESTION,
) -> SensitivityRow:
    """Prevalence estimates of ``trait`` using initial vs follow-up degree
    over the same respondents (both interviews completed, both degrees
    usable).  Raises ``InsufficientData`` when no respondent qualifies."""
    ds.trait_spec(trait)  # raises UnknownTrait even when nobody has a follow-up
    members: list[tuple[bool, float, float]] = []
    for r in ds.respondents:
        if r.is_seed or r.followup is None:
            continue
        flag = ds.indicator(r, trait)
        test = r.degree.get(degree_question)
        retest = r.followup.degree_retest.get(degree_question)
        if flag is None or test is None or retest is None:
            continue
        if test < 1 or retest < 1:
            continue
        members.append((flag, float(test), float(retest)))
    if not members:
        raise InsufficientData(f"no usable test/retest members for {trait!r}")
    p_test = vh_estimate((m[0], m[1]) for m in members)
    p_retest = vh_estimate((m[0], m[2]) for m in members)
    diff = abs(p_test - p_retest)
    return SensitivityRow(
        trait=trait,
        estimate_test=p_test,
        estimate_retest=p_retest,
        abs_difference=diff,
        rel_difference=diff / p_test if p_test > 0 else None,
        n=len(members),
    )


def _sign(x: float) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def degree_trend(
    ds: StudyDataset,
    methods: Sequence[str] = TREND_METHODS,
    degree_question: str = DEFAULT_DEGREE_QUESTION,
) -> list[TrendVerdict]:
    """Trend of reported degree against interview order under the requested
    methods.  The log-linear fit drops zero degrees."""
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
        return [TrendVerdict(method=m, sign=0, statistic=0.0) for m in methods]

    verdicts = []
    for method in methods:
        if method == "linear":
            stat = float(np.polyfit(x, y, 1)[0])
        elif method == "log-linear":
            mask = y > 0
            if mask.sum() < 3:
                raise InsufficientData("need >= 3 positive degrees for log-linear")
            stat = float(np.polyfit(x[mask], np.log(y[mask]), 1)[0])
        elif method == "theil-sen":
            stat = float(stats.theilslopes(y, x).slope)
        elif method == "kendall-tau":
            stat = float(stats.kendalltau(x, y).statistic)
        elif method == "spearman-rho":
            stat = float(stats.spearmanr(x, y).statistic)
        else:
            raise ValueError(f"unknown trend method {method!r}")
        verdicts.append(TrendVerdict(method=method, sign=_sign(stat), statistic=stat))
    return verdicts
