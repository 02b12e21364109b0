import hashlib
from collections import Counter

import pytest

from conftest import make_dataset, make_respondent
from rdsdiag.errors import CycleDetected, DanglingCoupon, UnknownTrait
from rdsdiag.estimators import included_sample
from rdsdiag.forest import build_forest
from rdsdiag.report import PipelineConfig, run_pipeline
from rdsdiag.sim import NetworkConfig, SimConfig, TraitRule, generate_network, simulate_rds


def chain_of_three():
    return make_dataset(
        [
            make_respondent("S", 1, coupons_out=["C1"], degree=2, traits={"hiv": "no"}),
            make_respondent("A", 2, coupon_in="C1", coupons_out=["C2"], degree=2,
                            traits={"hiv": "yes"}),
            make_respondent("B", 3, coupon_in="C2", coupons_out=["C3"], degree=2,
                            traits={"hiv": "no"}),
            make_respondent("C", 4, coupon_in="C3", degree=2, traits={"hiv": "yes"}),
        ]
    )


def test_chain_waves_and_tree_size():
    forest = build_forest(chain_of_three())
    assert forest.roots == ("S",)
    assert [forest.wave[x] for x in "SABC"] == [0, 1, 2, 3]
    assert Counter(forest.tree_of.values()) == {"S": 4}  # the root and 3 recruits
    assert forest.tree_of["C"] == "S"


def test_two_seed_fixture_tree_sizes():
    ds = make_dataset(
        [
            make_respondent("A", 1, coupons_out=["A1", "A2"], degree=1,
                            traits={"hiv": "yes"}),
            make_respondent("B", 2, degree=1, traits={"hiv": "no"}),
            make_respondent("r1", 3, coupon_in="A1", coupons_out=["A3"], degree=1,
                            traits={"hiv": "yes"}),
            make_respondent("r2", 4, coupon_in="A2", degree=1, traits={"hiv": "no"}),
            make_respondent("r3", 5, coupon_in="A3", degree=1, traits={"hiv": "no"}),
        ]
    )
    forest = build_forest(ds)
    assert Counter(forest.tree_of.values()) == {"A": 4, "B": 1}  # roots included
    assert forest.parent["r3"] == "r1"
    assert forest.wave["r3"] == 2


def test_all_seeds():
    ds = make_dataset(
        [make_respondent(f"S{i}", i, degree=1, traits={"hiv": "yes"}) for i in (1, 2, 3)]
    )
    forest = build_forest(ds)
    assert set(forest.roots) == {"S1", "S2", "S3"}
    assert all(w == 0 for w in forest.wave.values())
    assert all(forest.tree_of[root] == root for root in forest.roots)


def test_children_ordered_by_interview_order():
    ds = make_dataset(
        [
            make_respondent("S", 1, coupons_out=["C1", "C2", "C3"], degree=1,
                            traits={"hiv": "no"}),
            make_respondent("late", 4, coupon_in="C3", degree=1, traits={"hiv": "no"}),
            make_respondent("early", 2, coupon_in="C1", degree=1, traits={"hiv": "no"}),
            make_respondent("mid", 3, coupon_in="C2", degree=1, traits={"hiv": "no"}),
        ][:1]
        + [
            make_respondent("early", 2, coupon_in="C1", degree=1, traits={"hiv": "no"}),
            make_respondent("mid", 3, coupon_in="C2", degree=1, traits={"hiv": "no"}),
            make_respondent("late", 4, coupon_in="C3", degree=1, traits={"hiv": "no"}),
        ]
    )
    forest = build_forest(ds)
    assert forest.children["S"] == ("early", "mid", "late")


def test_dangling_and_cycle_raise():
    dangling = make_dataset(
        [make_respondent("X", 1, coupon_in="C9", degree=1, traits={"hiv": "no"})]
    )
    with pytest.raises(DanglingCoupon):
        build_forest(dangling)
    cycle = make_dataset(
        [
            make_respondent("A", 1, coupon_in="CB", coupons_out=["CA"], degree=1,
                            traits={"hiv": "no"}),
            make_respondent("B", 2, coupon_in="CA", coupons_out=["CB"], degree=1,
                            traits={"hiv": "no"}),
        ]
    )
    with pytest.raises(CycleDetected):
        build_forest(cycle)


def test_per_tree_subsets_exclusions():
    ds = make_dataset(
        [
            make_respondent("S", 1, coupons_out=["C1", "C2", "C3"], degree=3,
                            traits={"hiv": "no"}),
            make_respondent("a", 2, coupon_in="C1", degree=2, traits={"hiv": "yes"}),
            make_respondent("b", 3, coupon_in="C2", degree=2, traits={}),
            make_respondent("c", 4, coupon_in="C3", degree=2, traits={"hiv": "no"}),
        ]
    )
    forest = build_forest(ds)
    sample = included_sample(ds, forest, "hiv")
    assert len(sample) == 2  # seed excluded, missing-trait member excluded
    assert sample.ids == ("a", "c")
    assert [sample.roots[t] for t in sample.tree] == ["S", "S"]
    with pytest.raises(UnknownTrait):
        included_sample(ds, forest, "nope")


def test_included_sum_bound_and_equality():
    ds = chain_of_three()
    forest = build_forest(ds)
    total = len(included_sample(ds, forest, "hiv"))
    assert total == ds.n - len(ds.seeds())  # no missing data -> equality


def test_wave_matches_path_length_oracle():
    net = generate_network(
        NetworkConfig((30,), 0.2, 0.0, {"hiv": TraitRule("bernoulli", p=0.5)}), 3
    )
    ds = simulate_rds(net, SimConfig(target_n=25, seed_count=3, rng_seed=4)).dataset
    forest = build_forest(ds)
    for r in ds.respondents:
        length = 0
        cursor = r.id
        while cursor in forest.parent:
            cursor = forest.parent[cursor]
            length += 1
        assert forest.wave[r.id] == length
        assert forest.tree_of[r.id] == cursor


def test_export_edges(tmp_path):
    bundle = run_pipeline(chain_of_three(), PipelineConfig(out_dir=tmp_path, sections=()))
    data = (tmp_path / "edges.csv").read_bytes()
    assert data == b"child_id,parent_id,wave,tree_root\nA,S,1,S\nB,A,2,S\nC,B,3,S\n"
    assert bundle.manifest["edges.csv"] == hashlib.sha256(data).hexdigest()
