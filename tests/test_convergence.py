import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, make_respondent
from rdsdiag.convergence import convergence_flag
from rdsdiag.errors import DataRequirementError, RdsError
from rdsdiag.estimators import cumulative_estimates, included_sample
from rdsdiag.report import PipelineConfig, diagnose


def test_constant_series_unflagged():
    verdict = convergence_flag([0.4] * 120)
    assert not verdict["flagged"]
    assert verdict["max_deviation"] == 0.0
    assert verdict["first_violation_offset"] is None


def test_jump_at_end_flags():
    series = [0.40] * 80 + [0.40, 0.47]
    verdict = convergence_flag(series, tau=50, epsilon=0.02)
    assert verdict["flagged"]
    assert verdict["max_deviation"] >= 0.07 - 1e-15
    assert verdict["first_violation_offset"] == 1


def test_raising_epsilon_unflags_mild_drift():
    # max in-window deviation exactly 0.03
    series = [0.5] * 60 + [0.53] + [0.51] * 20 + [0.5]
    strict = convergence_flag(series, tau=50, epsilon=0.02)
    loose = convergence_flag(series, tau=50, epsilon=0.05)
    assert strict["flagged"]
    assert not loose["flagged"]


def test_short_series_uses_whole_window():
    verdict = convergence_flag([0.1, 0.9], tau=50, epsilon=0.02)
    assert verdict["flagged"]
    assert verdict["max_deviation"] == pytest.approx(0.8)


def test_single_point_series():
    verdict = convergence_flag([0.3])
    assert not verdict["flagged"]
    assert verdict["max_deviation"] == 0.0


def test_empty_series_raises():
    with pytest.raises(DataRequirementError,
                       match="cannot evaluate convergence of an empty series"):
        convergence_flag([])


def test_config_validation():
    with pytest.raises(RdsError):
        convergence_flag([0.4], tau=0)
    with pytest.raises(RdsError):
        convergence_flag([0.4], epsilon=0.0)


def test_window_only_looks_back_tau_minus_one():
    # the big deviation sits exactly tau steps back, outside the window
    series = [0.9] + [0.5] * 10 + [0.5]
    verdict = convergence_flag(series, tau=11, epsilon=0.02)
    assert not verdict["flagged"]
    verdict_wider = convergence_flag(series, tau=12, epsilon=0.02)
    assert verdict_wider["flagged"]


def test_monotonicity_properties():
    rng = np.random.default_rng(42)
    for _ in range(300):
        m = int(rng.integers(2, 120))
        series = np.clip(np.cumsum(rng.normal(0, 0.03, size=m)) + 0.5, 0, 1)
        e1, e2 = sorted(rng.uniform(0.001, 0.2, size=2))
        t1, t2 = sorted(rng.integers(2, 80, size=2))
        if convergence_flag(series, tau=50, epsilon=float(e2))["flagged"]:
            assert convergence_flag(series, tau=50, epsilon=float(e1))["flagged"]
        if convergence_flag(series, tau=int(t1), epsilon=0.02)["flagged"]:
            assert convergence_flag(series, tau=int(t2), epsilon=0.02)["flagged"]


def _loop_verdict(values, tau, epsilon):
    """The window rule one offset at a time, as (flagged, first offset, max
    deviation)."""
    m, final = len(values), values[-1]
    max_dev, first_offset = 0.0, None
    for t in range(1, min(tau - 1, m - 1) + 1):
        dev = abs(values[m - 1 - t] - final)
        max_dev = max(max_dev, dev)
        if first_offset is None and dev > epsilon:
            first_offset = t
    return max_dev > epsilon, first_offset, max_dev


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=120),
    tau=st.integers(1, 130),
    epsilon=st.floats(1e-6, 0.5),
)
def test_window_matches_loop(values, tau, epsilon):
    verdict = convergence_flag(np.array(values), tau=tau, epsilon=epsilon)
    assert (verdict["flagged"], verdict["first_violation_offset"], verdict["max_deviation"]) == (
        _loop_verdict(values, tau, epsilon)
    )
    assert type(verdict["flagged"]) is bool and type(verdict["max_deviation"]) is float


def test_constant_tail_unflags():
    rng = np.random.default_rng(7)
    tau = 30
    for _ in range(20):
        head = list(np.clip(rng.normal(0.5, 0.2, size=40), 0, 1))
        series = head + [head[-1]] * tau
        verdict = convergence_flag(series, tau=tau, epsilon=0.02)
        assert not verdict["flagged"]


def _batch_dataset():
    rows = [
        make_respondent("S", 1, coupons_out=[f"C{i}" for i in range(1, 7)], degree=3,
                        traits={"hiv": "no", "emp": "no"})
    ]
    pattern = ["yes", "no", "yes", "no", "yes", "no"]
    for i, value in enumerate(pattern, start=1):
        rows.append(
            make_respondent(
                f"R{i}", i + 1, coupon_in=f"C{i}", degree=2,
                traits={"hiv": value, "emp": None},
            )
        )
    return make_dataset(
        rows,
        traits=[("hiv", "yes"), ("emp", "yes")],
        allotment=6,
    )


def _trait_verdict(ds, trait):
    return convergence_flag(cumulative_estimates(included_sample(ds, trait)))


def _converge_section(ds, traits=None):
    cfg = PipelineConfig(traits=traits, sections=("converge",))
    return diagnose(ds, cfg).sections["converge"]["per_trait"]


def test_batch_verdicts():
    ds = _batch_dataset()
    assert _trait_verdict(ds, "hiv") == _trait_verdict(ds, "hiv")
    # an all-missing trait has no included sample
    with pytest.raises(DataRequirementError, match="no included respondents for trait 'emp'"):
        _trait_verdict(ds, "emp")
    # the report collapses the repeated trait and records the empty one
    per_trait = _converge_section(ds, traits=("hiv", "hiv", "emp"))
    assert list(per_trait) == ["hiv", "emp"]
    assert per_trait["hiv"]["evaluable"]
    assert per_trait["emp"] == {"evaluable": False}


def test_batch_constant_trait_unflagged():
    rows = [make_respondent("S", 1, coupons_out=["C1", "C2"], degree=3,
                            traits={"hiv": "yes"})]
    rows.append(make_respondent("a", 2, coupon_in="C1", degree=2, traits={"hiv": "yes"}))
    rows.append(make_respondent("b", 3, coupon_in="C2", degree=1, traits={"hiv": "yes"}))
    ds = make_dataset(rows)
    assert not _trait_verdict(ds, "hiv")["flagged"]
    entry = _converge_section(ds)["hiv"]
    assert entry["evaluable"]
    assert not entry["flagged"]
