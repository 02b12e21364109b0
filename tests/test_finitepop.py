import pytest

from conftest import followup, make_dataset, make_degree, make_respondent
from rdsdiag.errors import DataRequirementError
from rdsdiag.finitepop import failed_attempts_indicator, participants_known_trend
from rdsdiag.report import PipelineConfig, diagnose


def _row(rid, order, failed=None, known=None, q_age=5):
    fu = None
    if failed is not None or known is not None:
        fu = followup(n_failed_attempts=failed, n_known_participants=known)
    return make_respondent(rid, order, degree=make_degree(q_age), traits={"hiv": "no"},
                           followup=fu)


def test_failed_attempts_none_reported():
    ds = make_dataset([_row(f"x{i}", i + 1, failed=0) for i in range(5)])
    result = failed_attempts_indicator(ds)
    assert result["percent_reporting"] == 0.0
    assert not result["flagged"]
    assert result["bands"] == {"0": 5, "1-3": 0, "4+": 0}


def test_failed_attempts_bands_and_flag():
    failed = [0, 0, 0, 0, 0, 0, 0, 1, 3, 6]
    rows = [_row(f"x{i}", i + 1, failed=f) for i, f in enumerate(failed)]
    rows.append(_row("noanswer", 11))  # no follow-up: not in denominator
    result = failed_attempts_indicator(make_dataset(rows))
    assert result["n_answered"] == 10
    assert result["percent_reporting"] == pytest.approx(30.0)
    assert result["flagged"]  # 0.30 >= 0.25
    assert result["bands"] == {"0": 7, "1-3": 2, "4+": 1}


def test_failed_attempts_flag_at_quarter_boundary():
    rows = [_row(f"x{i}", i + 1, failed=2 if i == 0 else 0) for i in range(5)]
    result = failed_attempts_indicator(make_dataset(rows[:4]))
    assert result["percent_reporting"] == 25.0
    assert result["threshold"] == 0.25
    assert result["flagged"]  # 1 of 4: exactly at the threshold counts
    result = failed_attempts_indicator(make_dataset(rows))
    assert result["percent_reporting"] == 20.0
    assert not result["flagged"]  # 1 of 5


def test_failed_attempts_no_answers():
    ds = make_dataset([_row("a", 1)])
    with pytest.raises(DataRequirementError,
                       match="nobody answered the failed-attempts question"):
        failed_attempts_indicator(ds)


def test_trend_constant_proportion():
    rows = [_row(f"x{i}", i + 1, known=2, q_age=10) for i in range(5)]
    trend = participants_known_trend(make_dataset(rows))
    assert trend["slope"] == pytest.approx(0.0, abs=1e-12)
    assert not trend["flagged"]


def test_trend_exact_linear_slope():
    # proportions 0.1, 0.2, 0.3, 0.4 at orders 1..4
    knowns = [1, 2, 3, 4]
    rows = [_row(f"x{i}", i + 1, known=k, q_age=10) for i, k in enumerate(knowns)]
    trend = participants_known_trend(make_dataset(rows))
    assert trend["slope"] == pytest.approx(0.1, abs=1e-12)
    assert trend["flagged"]


def test_trend_zero_degree_excluded():
    rows = [
        _row("a", 1, known=1, q_age=4),
        _row("b", 2, known=0, q_age=0),
        _row("c", 3, known=1, q_age=2),
    ]
    trend = participants_known_trend(make_dataset(rows))
    assert trend["n_excluded_zero_degree"] == 1
    assert trend["n"] == 2


def test_trend_insufficient_data():
    rows = [_row("a", 1, known=0, q_age=0), _row("b", 2, known=1, q_age=0)]
    with pytest.raises(DataRequirementError,
                       match="need >= 2 distinct orders with proportions"):
        participants_known_trend(make_dataset(rows))


def _summary(ds):
    return diagnose(ds, PipelineConfig(sections=("finitepop",))).sections["finitepop"]["summary"]


def test_indicator_summary_mixed():
    rows = [
        _row(f"x{i}", i + 1, failed=1 if i < 3 else 0, known=None, q_age=5)
        for i in range(10)
    ]
    ds = make_dataset(rows)  # no known-participant answers
    summary = _summary(ds)
    assert summary["failed_attempts_flag"] is True  # 30% >= 25%
    assert summary["participants_known_trend_flag"] is None


def test_indicator_summary_all_evaluable():
    rows = [
        _row(f"x{i}", i + 1, failed=0, known=1, q_age=10)
        for i in range(4)
    ]
    ds = make_dataset(rows)
    summary = _summary(ds)
    assert summary["failed_attempts_flag"] is False
    assert summary["participants_known_trend_flag"] is False
