"""The numpy-only numerics of the runtime against scipy as the oracle.

The package computes its rank statistics, its two 1-D roots, its log
binomial coefficients and the binomial tails of the bottleneck test's stop
rule without scipy; scipy stays a test dependency, and here
it checks each replacement on random inputs.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import brentq
from scipy.special import gammaln

from rdsdiag.behavior import _log_pmf_terms, exact_odds_ratio_interval
from rdsdiag.bottleneck import RISK, _binomial_tails, _looks, _undecided
from rdsdiag.degree import _average_ranks, _kendall_tau_b, _spearman, _theil_sen
from rdsdiag.estimators import _bisect, ss_inclusion_weights

# few distinct values, so both columns carry ties
_tied_pairs = st.integers(3, 60).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 8), min_size=n, max_size=n),
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    )
)


@settings(max_examples=300, deadline=None)
@given(_tied_pairs)
def test_rank_statistics_match_scipy(pair):
    x, y = (np.array(v, dtype=float) for v in pair)
    np.testing.assert_allclose(_average_ranks(x), stats.rankdata(x), rtol=0, atol=1e-12)
    np.testing.assert_allclose(_average_ranks(y), stats.rankdata(y), rtol=0, atol=1e-12)
    if np.all(x == x[0]) or np.all(y == y[0]):
        # a constant column has no rank correlation; callers never pass one
        return
    assert _spearman(x, y) == pytest.approx(stats.spearmanr(x, y).statistic, abs=1e-12)
    assert _kendall_tau_b(x, y) == pytest.approx(stats.kendalltau(x, y).statistic, abs=1e-12)
    with warnings.catch_warnings():
        # scipy's slope confidence bounds warn on heavily tied data; the
        # slope itself is unaffected
        warnings.simplefilter("ignore", RuntimeWarning)
        slope = stats.theilslopes(y, x).slope
    assert _theil_sen(x, y) == pytest.approx(slope, abs=1e-12)


# -- bisection ---------------------------------------------------------------


def test_bisect_stops_at_adjacent_floats():
    root = _bisect(lambda t: t - 1 / 3, 0.0, 1.0, xtol=0.0)
    assert abs(root - 1 / 3) <= math.ulp(1 / 3)


def test_bisect_zero_at_an_end_is_the_root():
    assert _bisect(lambda t: t - 1.0, 0.0, 1.0, xtol=1e-12) == 1.0
    assert _bisect(lambda t: t, 0.0, 1.0, xtol=1e-12) == 0.0


def test_bisect_takes_the_end_values_it_is_given():
    calls = []

    def f(t):
        calls.append(t)
        return t - 1 / 3

    root = _bisect(f, 0.0, 1.0, xtol=1e-12)
    evaluated = calls[2:]
    calls.clear()
    assert _bisect(f, 0.0, 1.0, xtol=1e-12, f_lo=-1 / 3, f_hi=2 / 3) == root
    assert calls == evaluated


def test_bisect_requires_a_sign_change():
    with pytest.raises(ValueError):
        _bisect(lambda t: t + 1.0, 0.0, 1.0, xtol=1e-12)


def _brentq_ss_weights(degrees, population_size):
    n = len(degrees)
    if population_size == n or degrees.min() == degrees.max():
        return np.full(n, population_size / n)

    def weights(log_lam):
        return -1.0 / np.expm1(-np.exp(log_lam) * degrees)

    lo = np.log(np.sum(1.0 / degrees) / population_size)
    hi = np.log(-np.log1p(-n / population_size) / degrees.min())
    log_lam = brentq(lambda t: weights(t).sum() / population_size - 1.0, lo, hi, xtol=1e-15)
    return weights(log_lam)


@settings(max_examples=200, deadline=None)
@given(
    degrees=st.lists(st.integers(1, 300), min_size=1, max_size=300),
    extra=st.one_of(st.just(0), st.integers(1, 10**6)),
)
def test_ss_weights_match_brentq(degrees, extra):
    degrees = np.array(degrees, dtype=float)
    population_size = min(len(degrees) + extra, 10**6)
    weights, converged = ss_inclusion_weights(degrees, population_size)
    assert converged is True
    np.testing.assert_allclose(
        weights, _brentq_ss_weights(degrees, population_size), rtol=1e-12, atol=0
    )


def _brentq_interval(a, b, c, d, alpha=0.05):
    """The interval with brentq on the tail-probability excess."""
    ks, log_coef = _log_pmf_terms(a + b, c + d, a + c)

    def endpoint(tail):
        def excess(log_psi):
            log_terms = log_coef + ks * log_psi
            terms = np.exp(log_terms - log_terms.max())
            return terms[tail].sum() / terms.sum() - alpha / 2

        lo, hi = -1.0, 1.0
        for _ in range(200):
            flo, fhi = excess(lo), excess(hi)
            if flo == 0.0 or fhi == 0.0 or (flo < 0) != (fhi < 0):
                break
            lo -= 4.0
            hi += 4.0
        return math.exp(brentq(excess, lo, hi, xtol=1e-13, rtol=1e-14))

    lower = 0.0 if a == ks[0] else endpoint(ks >= a)
    upper = math.inf if a == ks[-1] else endpoint(ks <= a)
    return lower, upper


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(0, 400)] * 4))
def test_interval_matches_brentq(table):
    a, b, c, d = table
    if min(a + b, c + d, a + c, b + d) < 1:
        return
    ours = exact_odds_ratio_interval(a, b, c, d)
    ref = _brentq_interval(a, b, c, d)
    for x, y in zip(ours, ref):
        if math.isinf(y) or y == 0.0:
            assert x == y
        else:
            assert x == pytest.approx(y, rel=1e-10)


@settings(max_examples=300, deadline=None)
@given(r1=st.integers(1, 3000), r2=st.integers(1, 3000), data=st.data())
def test_log_coefficients_match_gammaln(r1, r2, data):
    c1 = data.draw(st.integers(1, r1 + r2 - 1))
    ks, log_coef = _log_pmf_terms(r1, r2, c1)
    ref = (
        gammaln(r1 + 1) - gammaln(ks + 1) - gammaln(r1 - ks + 1)
        + gammaln(r2 + 1) - gammaln(c1 - ks + 1) - gammaln(r2 - (c1 - ks) + 1)
    )
    # relative to the largest log-factorial in the sum
    scale = max(1.0, float(gammaln(max(r1, r2) + 1)))
    np.testing.assert_allclose(log_coef, ref, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("r", [1, 2, 7, 64, 1000, 4096, 10_000])
@pytest.mark.parametrize("p", [0.0, 1e-3, 0.05, 0.5, 0.9, 0.999, 1.0])
def test_binomial_tails_match_scipy(r, p):
    at_most, at_least = _binomial_tails(r, p)
    b = np.arange(r + 1)
    # below about 1e-280 a tail is far from any stop bound; compare it absolutely
    np.testing.assert_allclose(at_most, stats.binom.cdf(b, r, p), rtol=1e-8, atol=1e-280)
    np.testing.assert_allclose(at_least, stats.binom.sf(b - 1, r, p), rtol=1e-8, atol=1e-280)


@pytest.mark.parametrize("cap", [65, 200, 4000, 10_000])
@pytest.mark.parametrize("threshold", [0.0, 0.05, 0.3, 0.5, 0.9, 0.95, 1.0])
def test_stop_rule_matches_scipy_tails(cap, threshold):
    looks = _looks(cap)
    bound = RISK / (2 * len(looks))
    for r in looks:
        b = np.arange(r + 1)
        tail = np.where(b / r > threshold, stats.binom.sf(b - 1, r, threshold),
                        stats.binom.cdf(b, r, threshold))
        going = np.isin(b, _undecided(r, threshold, len(looks)))
        # a tail within rounding of the bound may fall either way
        clear = np.abs(tail / bound - 1) > 1e-6
        # no rank exceeds a threshold of 1, so there no count goes on
        assert np.array_equal(going[clear], (tail > bound)[clear] & (threshold < 1))
