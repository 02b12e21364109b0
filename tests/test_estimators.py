import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, make_respondent, unit_degree_two_trees
from rdsdiag.errors import DataRequirementError, UnrealizableConfig
from rdsdiag.estimators import (
    IncludedSample,
    _quantile,
    cumulative_estimates,
    included_sample,
    per_tree_series,
    ss_estimate,
    ss_inclusion_weights,
)
from rdsdiag.report import PipelineConfig, run_pipeline

EQ1_FIXTURE = [(True, 1.0), (True, 4.0), (False, 2.0), (False, 4.0)]


def _sample(degrees, y):
    """An included sample made directly from degree and trait arrays."""
    n = len(degrees)
    return IncludedSample(
        trait="hiv", roots=("S",), orders=np.arange(2, n + 2), y=np.array(y, dtype=float),
        degree=np.array(degrees, dtype=float), tree=np.zeros(n, dtype=int),
    )


def _vh(members):
    """The inverse-degree estimate of (has_trait, degree) pairs: the last
    cumulative estimate."""
    sample = _sample([d for _, d in members], [flag for flag, _ in members])
    return cumulative_estimates(sample)[-1]


def test_vh_equal_degrees_is_sample_proportion():
    members = [(i < 3, 2.0) for i in range(6)]
    assert _vh(members) == pytest.approx(0.5, abs=1e-15)


def test_vh_hand_fixture_exact():
    assert abs(_vh(EQ1_FIXTURE) - 0.625) < 1e-12


def test_vh_extremes():
    assert _vh([(True, d) for d in (1.0, 3.0, 7.0)]) == 1.0
    assert _vh([(False, d) for d in (1.0, 3.0, 7.0)]) == 0.0


def test_vh_errors():
    with pytest.raises(DataRequirementError, match="no included respondents for trait"):
        _vh([])
    # a zero or missing degree never reaches the estimator: the included
    # sample leaves such respondents out
    ds = _chain([True, True, False], degrees=[0, None, 2])
    sample = included_sample(ds, "hiv")
    assert sample.orders.tolist() == [4]  # R3
    assert cumulative_estimates(sample)[-1] == 0.0


@pytest.mark.parametrize("scale", [0.5, 2.0, 17.0, 1e6])
def test_vh_scale_free(scale):
    rng = np.random.default_rng(0)
    members = [(bool(rng.integers(2)), float(rng.integers(1, 30))) for _ in range(40)]
    scaled = [(t, d * scale) for t, d in members]
    assert _vh(scaled) == pytest.approx(_vh(members), abs=1e-12)


def _chain(trait_pattern, degrees=None):
    degrees = degrees or [1] * len(trait_pattern)
    rows = [make_respondent("S", 1, coupons_out=[f"C{i}" for i in range(1, len(trait_pattern) + 1)],
                            degree=5, traits={"hiv": "no"})]
    for i, (flag, d) in enumerate(zip(trait_pattern, degrees), start=1):
        rows.append(
            make_respondent(f"R{i}", i + 1, coupon_in=f"C{i}", degree=d,
                            traits={"hiv": "yes" if flag else "no"})
        )
    return make_dataset(rows, allotment=len(trait_pattern))


def test_cumulative_series_hand_fixture():
    ds = _chain([True, False, False, True])
    sample = included_sample(ds, "hiv")
    values = cumulative_estimates(sample)
    assert sample.orders.tolist() == [2, 3, 4, 5]
    assert values.tolist() == pytest.approx([1.0, 0.5, 1 / 3, 0.5], abs=1e-15)
    assert values[-1] == pytest.approx(0.5)


def test_cumulative_final_equals_vh_of_included():
    ds = _chain([True, True, False, True, False], degrees=[2, 5, 1, 3, 4])
    values = cumulative_estimates(included_sample(ds, "hiv"))
    direct = (1 / 2 + 1 / 5 + 1 / 3) / (1 / 2 + 1 / 5 + 1 / 1 + 1 / 3 + 1 / 4)
    assert values[-1] == pytest.approx(direct, abs=1e-15)


def test_cumulative_estimates_computed_once_per_sample():
    sample = included_sample(_chain([True, False, False, True]), "hiv")
    values = cumulative_estimates(sample)
    assert cumulative_estimates(sample) is values
    assert not values.flags.writeable
    # a replaced sample computes its own
    flipped = dataclasses.replace(sample, y=1.0 - sample.y)
    assert cumulative_estimates(flipped).tolist() == pytest.approx(1.0 - values, abs=1e-15)


def test_seeds_only_series_empty():
    ds = make_dataset([make_respondent("S", 1, degree=2, traits={"hiv": "yes"})])
    sample = included_sample(ds, "hiv")
    assert len(sample) == 0
    with pytest.raises(DataRequirementError, match="no included respondents for trait 'hiv'"):
        cumulative_estimates(sample)


def _per_tree_estimates(ds):
    """Mapping root -> (tree estimate, n_s) from the per-tree series."""
    series = per_tree_series(included_sample(ds, "hiv"))
    return {root: (values[-1], len(values)) for root, (_, values) in series.items()}


def test_per_tree_estimates():
    ds = unit_degree_two_trees()
    per_tree = _per_tree_estimates(ds)
    assert per_tree == {"A": (1.0, 2), "B": (0.0, 2)}


def test_per_tree_all_missing_tree_omitted():
    ds = make_dataset(
        [
            make_respondent("A", 1, coupons_out=["C1"], degree=1, traits={"hiv": "yes"}),
            make_respondent("B", 2, coupons_out=["C2"], degree=1, traits={"hiv": "no"}),
            make_respondent("a1", 3, coupon_in="C1", degree=1, traits={"hiv": "yes"}),
            make_respondent("b1", 4, coupon_in="C2", degree=1, traits={}),
        ]
    )
    assert set(_per_tree_estimates(ds)) == {"A"}


def test_single_tree_estimate_equals_overall():
    ds = _chain([True, False, True], degrees=[3, 2, 6])
    per_tree = _per_tree_estimates(ds)
    values = cumulative_estimates(included_sample(ds, "hiv"))
    (est, n_s), = per_tree.values()
    assert est == pytest.approx(values[-1], abs=1e-15)
    assert n_s == 3


# -- successive sampling -----------------------------------------------------


def test_ss_config_validation():
    with pytest.raises(UnrealizableConfig, match="population size 10 < sample size 20"):
        ss_inclusion_weights(np.ones(20), 10)


@settings(max_examples=200, deadline=None)
@given(
    members=st.lists(
        st.tuples(st.integers(1, 300), st.booleans()), min_size=1, max_size=60
    ),
    factors=st.lists(
        st.floats(1.0, 1e9, allow_nan=False), min_size=1, max_size=6
    ),
)
def test_ss_weights_property(members, factors):
    degrees = np.array([d for d, _ in members], dtype=float)
    y = np.array([flag for _, flag in members], dtype=float)
    n = len(members)
    sizes = sorted({n, *(int(n * f) for f in factors)})
    vh = cumulative_estimates(_sample(degrees, y))[-1]
    order = np.argsort(degrees, kind="stable")
    ratios, gaps = [], []
    for size in sizes:
        weights, converged = ss_inclusion_weights(degrees, size)
        assert converged is True
        assert weights.sum() == pytest.approx(size, rel=1e-12)
        assert np.all(np.diff(weights[order]) <= 0)
        est = ss_estimate(_sample(degrees, y), size)
        if size == n or len(set(degrees)) == 1:
            assert np.all(weights == size / n)
            assert est == pytest.approx(y.mean(), abs=1e-15)
        # weight of the lowest-degree member over the highest's
        ratios.append(weights[order[0]] / weights[order[-1]])
        gaps.append(abs(est - vh))
    # as N grows every weight ratio moves from 1 (census) towards the
    # inverse-degree ratio, never past it
    assert all(b >= a * (1 - 1e-12) for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] <= degrees.max() / degrees.min() * (1 + 1e-12)
    # with two degree classes the estimate is a monotone function of that one
    # ratio, so it only approaches VH; with three or more it need not
    # (degrees 2, 3, 10 with the trait at 3: the gap grows from N = 3 to 4)
    if len(set(degrees)) == 2:
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_ss_equal_degrees_exact_sample_proportion():
    ds = _chain([True, True, False, False, False], degrees=[3] * 5)
    for n in (5, 10, 1000):
        est = ss_estimate(included_sample(ds, "hiv"), n)
        assert est == pytest.approx(0.4, abs=1e-15)


def test_ss_census_limit_exact():
    ds = _chain([True, True, False, False], degrees=[1, 4, 2, 4])
    est = ss_estimate(included_sample(ds, "hiv"), 4)
    assert est == pytest.approx(0.5, abs=1e-15)


def test_ss_census_weights_uniform():
    degrees = np.array([1.0, 4.0, 2.0, 4.0])
    weights, _ = ss_inclusion_weights(degrees, 4)
    assert np.allclose(weights, 1.0)


def test_ss_deterministic():
    ds = _chain([True, True, False, False], degrees=[1, 4, 2, 4])
    assert ss_estimate(included_sample(ds, "hiv"), 40) == ss_estimate(
        included_sample(ds, "hiv"), 40
    )


def _estimate_section(ds, population_sizes, out_dir):
    cfg = PipelineConfig(population_sizes=population_sizes, sections=("estimate",))
    return run_pipeline(ds, cfg, out_dir).sections["estimate"]["per_trait"]["hiv"]


def test_ss_vh_table_equal_degrees_never_flags(tmp_path):
    ds = _chain([True, False, True, False], degrees=[2] * 4)
    rows = _estimate_section(ds, (4, 40, 400), tmp_path)["ss"]
    assert [row["population_size"] for row in rows] == [4, 40, 400]
    assert all(not row["flagged"] for row in rows)
    assert all(row["difference"] == pytest.approx(0.0, abs=1e-15) for row in rows)


def test_ss_vh_table_empty_traits(tmp_path):
    # nobody but the seed has a usable degree: no VH estimate, so no SS rows
    ds = _chain([True, False], degrees=[0, 0])
    assert "skipped" in _estimate_section(ds, (10,), tmp_path)
    assert (tmp_path / "estimates.csv").read_text().splitlines() == [
        "trait,population_size,vh,ss,difference,flagged"
    ]


def test_ss_large_population_approaches_vh():
    ds = _chain([True, True, False, False] * 10, degrees=[1, 4, 2, 4] * 10)
    vh = cumulative_estimates(included_sample(ds, "hiv"))[-1]
    est = ss_estimate(included_sample(ds, "hiv"), 40_000)
    assert abs(est - vh) < 0.01


@settings(max_examples=200, deadline=None)
@given(
    members=st.lists(
        st.tuples(st.integers(1, 10_000), st.booleans()), min_size=2, max_size=60
    ),
    exponent=st.floats(15.0, 308.0),
)
def test_ss_weights_at_huge_population(members, exponent):
    # from about N = 1e16 the excess at the lower bracket end, about n/(2N),
    # is below float resolution; the weights there are returned
    degrees = np.array([d for d, _ in members], dtype=float)
    y = np.array([flag for _, flag in members], dtype=float)
    population_size = int(10.0**exponent)
    weights, converged = ss_inclusion_weights(degrees, population_size)
    assert converged
    assert np.all(np.isfinite(weights)) and np.all(weights > 0)
    # exp(log(lam)) at log(lam) near -700 loses about 700 ulps
    assert abs(weights.sum() / population_size - 1.0) <= 1e-11
    ss = float((weights * y).sum() / weights.sum())
    assert abs(ss - cumulative_estimates(_sample(degrees, y))[-1]) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.integers(0, 12).map(lambda k: k / 4) | st.floats(-1e6, 1e6, allow_subnormal=False),
        min_size=1, max_size=60,
    ),
    st.sampled_from([0.25, 0.5, 0.75]),
)
def test_quantile_matches_numpy_bitwise(values, q):
    # numpy's linear quantile, and np.median at q = 0.5; ties are common
    a = np.array(values) + 0.0  # no -0.0, whose sign numpy's lerp may flip
    expected = np.median(a) if q == 0.5 else np.quantile(a, q)
    got = _quantile(a, q)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()
    assert a.tolist() == values  # the input is left in place
