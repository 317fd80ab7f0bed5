"""Quota safety bounds: shared caps, observation bounds, overlap, expansion."""

import math
import random
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations

import pytest

import nets
import oracles
from oracles import enumerate_profiles
from quorumlens import (
    BudgetExceededError,
    GenParams,
    OpinionProfile,
    QuotaNetwork,
    check_overlap_bounds,
    check_quorum_intersection,
    common_trust_set,
    expand_quota_network,
    find_fork,
    observation_bounds,
    overlap_premise_holds,
    random_quota_network,
    respects_failure_model,
    shared_byzantine_bound,
)
from quorumlens import bounds


def make_uniform(trust, quota, byz_fraction=None):
    """Uniform quota network; nodes without a trust entry become Byzantine."""
    nodes = tuple(sorted(frozenset().union(*trust.values()) | set(trust)))
    byz = frozenset(n for n in nodes if n not in trust)
    fractions = {}
    if byz_fraction is not None:
        fractions = {i: byz_fraction for i in trust}
    return QuotaNetwork(nodes, byz, trust, {i: quota for i in trust}, fractions)


class TestSharedByzantineBound:
    def test_budget_smaller_than_overlap(self):
        ten_a = frozenset(f"a{k}" for k in range(5)) | frozenset(f"s{k}" for k in range(5))
        ten_b = frozenset(f"b{k}" for k in range(5)) | frozenset(f"s{k}" for k in range(5))
        net = make_uniform({"a0": ten_a, "b0": ten_b}, Fraction(4, 5))
        # |T| = 10 each, b = 0.2, overlap 5: min(5, 2, 2) = 2.
        assert shared_byzantine_bound(net, "a0", "b0") == 2

    def test_split_quota_cap_is_one(self):
        net = nets.split_quota()
        assert shared_byzantine_bound(net, "1", "4") == 1

    def test_disjoint_trust_sets(self):
        net = make_uniform(
            {"a": frozenset("ab"), "c": frozenset("cd")}, Fraction(3, 4)
        )
        assert shared_byzantine_bound(net, "a", "c") == 0

    def test_symmetry(self):
        rng = random.Random(3)
        for trial in range(20):
            net = oracles.random_uniform_quota_net(rng, rng.randint(3, 7), Fraction(4, 5))
            honest = list(net.honest)
            i, j = rng.sample(honest, 2)
            assert shared_byzantine_bound(net, i, j) == shared_byzantine_bound(net, j, i)


class TestObservationBounds:
    def test_split_network_attains_opposite_bound(self):
        net, profile = nets.split_quota(), nets.split_quota_profile()
        report = observation_bounds(net, profile, "1", "4", 1)
        assert report.opposite_ceiling == 3
        assert report.opposite_seen == 3
        assert report.opposite_bound_holds  # non-strict bound, attained exactly
        assert report.support_bound_holds
        assert report.failure_model_ok

    def test_same_observer_reduction(self):
        net, profile = nets.split_quota(), nets.split_quota_profile()
        report = observation_bounds(net, profile, "1", "1", 1)
        seen = len(frozenset("123"))  # node 1 sees all three supporting 1
        assert report.honest_support_floor == seen - report.shared_cap

    def test_premise_requires_visible_support(self):
        net = nets.split_quota()
        profile = OpinionProfile(
            {"1": 0, "2": 0, "4": 0, "5": 0},
            {"3": {"1": 0, "2": 0, "4": 0, "5": 0}},
        )
        with pytest.raises(ValueError, match="premise"):
            observation_bounds(net, profile, "1", "4", 1)

    def test_bounds_hold_on_all_profiles_respecting_failure_model(self):
        rng = random.Random(13)
        nets_checked = 0
        while nets_checked < 6:
            net = oracles.random_uniform_quota_net(
                rng, rng.randint(3, 5), Fraction(3, 4), byz_count=rng.randint(0, 1)
            )
            if not respects_failure_model(net):
                continue
            nets_checked += 1
            honest = list(net.honest)
            for profile in enumerate_profiles(net):
                for i in honest:
                    for j in honest:
                        for x in (0, 1):
                            try:
                                report = observation_bounds(net, profile, i, j, x)
                            except ValueError:
                                continue
                            assert report.support_bound_holds, (net, profile, i, j, x)
                            assert report.opposite_bound_holds, (net, profile, i, j, x)

    def test_failure_model_violation_is_flagged(self):
        # Two of three trustees Byzantine blows the default 0.25 budget.
        net = QuotaNetwork(
            nodes=("1", "2", "3"),
            byzantine=frozenset({"2", "3"}),
            trust={"1": frozenset("123")},
            quota={"1": Fraction(3, 4)},
        )
        profile = OpinionProfile({"1": 1}, {"2": {"1": 1}, "3": {"1": 1}})
        report = observation_bounds(net, profile, "1", "1", 1)
        assert not report.failure_model_ok


class TestOverlapBounds:
    def test_identical_trust_sets_pass(self):
        ten = frozenset(f"m{k}" for k in range(10))
        net = make_uniform({"m0": ten, "m1": ten}, Fraction(4, 5))
        (report,) = check_overlap_bounds(net)
        assert report.bound == Fraction(1, 4) * 20 == 5
        assert report.intersection_size == 10
        assert report.satisfies

    def test_disjoint_groups_fail_across(self):
        net = make_uniform(
            {
                "1": frozenset("123"),
                "2": frozenset("123"),
                "4": frozenset("456"),
                "5": frozenset("456"),
            },
            Fraction(4, 5),
        )
        failing = [r for r in check_overlap_bounds(net) if not r.satisfies]
        assert {tuple(sorted(r.pair)) for r in failing} >= {("1", "4"), ("2", "5")}

    def test_requires_uniform_quota(self):
        net = QuotaNetwork(
            nodes=("a", "b"),
            byzantine=frozenset(),
            trust={"a": frozenset("ab"), "b": frozenset("ab")},
            quota={"a": Fraction(3, 4), "b": Fraction(4, 5)},
        )
        with pytest.raises(ValueError, match="uniform"):
            check_overlap_bounds(net)

    def test_requires_uniform_byzantine_fraction(self):
        net = QuotaNetwork(
            nodes=("a", "b"),
            byzantine=frozenset(),
            trust={"a": frozenset("ab"), "b": frozenset("ab")},
            quota={"a": Fraction(4, 5), "b": Fraction(4, 5)},
            byz_fraction={"a": Fraction(1, 5), "b": Fraction(1, 10)},
        )
        with pytest.raises(ValueError, match="uniform byzantine fraction"):
            check_overlap_bounds(net)

    def test_requires_a_quota_network(self):
        with pytest.raises(TypeError, match="apply to quota networks"):
            check_overlap_bounds(nets.two_triangles())

    def test_pairs_follow_node_order(self):
        # Node order, not label order: "c" comes first.
        trust = {n: frozenset("cab") for n in "cab"}
        net = QuotaNetwork(("c", "a", "b"), frozenset(), trust, {n: Fraction(4, 5) for n in "cab"})
        pairs = [r.pair for r in check_overlap_bounds(net)]
        assert pairs == [("c", "a"), ("c", "b"), ("a", "b")]

    def test_safe_networks_pass_all_pairs(self):
        # Small inline version of the full property suite: every network
        # certified fork-free across admissible Byzantine placements obeys
        # the overlap bound on all pairs. Trust sizes keep b * |T| integral
        # so the adversary's budget is attainable.
        from quorumlens import GenParams, random_quota_network

        rng = random.Random(101)
        certified = 0
        for trial in range(60):
            topo = rng.choice(["clique", "overlapping-groups", "centralised"])
            net = random_quota_network(
                GenParams(rng.randint(5, 8), 5, Fraction(4, 5), seed=trial, topology=topo)
            )
            safe = all(
                find_fork(oracles.place_byzantine(net, b)) is None
                for b in oracles.admissible_placements(net)
            )
            if not safe:
                continue
            certified += 1
            assert all(r.satisfies for r in check_overlap_bounds(net)), net
        assert certified >= 10


class TestQuotaOnly:
    # Each quota-only function refuses a slices network instead of
    # misreading it: expanding the triangles once gave each node every
    # pair of its triangle, and two slices a node did not unpack.
    @pytest.mark.parametrize(
        "call",
        [
            expand_quota_network,
            lambda net: shared_byzantine_bound(net, "1", "4"),
            respects_failure_model,
            lambda net: observation_bounds(
                net, OpinionProfile({n: 1 for n in net.honest}, {}), "1", "4", 1
            ),
        ],
        ids=["expand", "shared-cap", "failure-model", "observation"],
    )
    @pytest.mark.parametrize("make", [nets.two_triangles, nets.two_triangles_vetoed])
    def test_refuses_a_slices_network(self, call, make):
        with pytest.raises(TypeError, match="apply to quota networks"):
            call(make())


class TestCommonTrust:
    def test_shared_five(self):
        assert common_trust_set(nets.shared_five()) == frozenset("12345")

    def test_disjoint_groups_share_nothing(self):
        net = make_uniform(
            {"1": frozenset("12"), "3": frozenset("34")}, Fraction(3, 4)
        )
        assert common_trust_set(net) == frozenset()

    def test_overlap_premise_forces_common_trust(self):
        from quorumlens import GenParams, random_quota_network

        rng = random.Random(107)
        confirmed = 0
        for trial in range(120):
            topo = rng.choice(["clique", "overlapping-groups", "centralised"])
            net = random_quota_network(
                GenParams(
                    rng.randint(5, 9),
                    rng.choice([4, 5]),
                    Fraction(4, 5),
                    seed=trial,
                    topology=topo,
                    overlap=rng.choice([0.25, 0.5, 0.75]),
                )
            )
            if not overlap_premise_holds(net):
                continue
            confirmed += 1
            assert common_trust_set(net), net
        assert confirmed >= 20

    def test_exclusion_ring_bounds_the_premise(self):
        # Known boundary of the pairwise-overlap argument: six nodes each
        # trusting everyone but one, every node excluded exactly once.
        # All pairs overlap in 4 > 0.25 * 10, yet nobody is trusted by all,
        # and the network is even fork-free across admissible placements.
        labels = [f"n{k}" for k in range(1, 7)]
        trust = {
            labels[k]: frozenset(x for x in labels if x != labels[(k + 3) % 6])
            for k in range(6)
        }
        net = QuotaNetwork(tuple(labels), frozenset(), trust, {i: Fraction(4, 5) for i in labels})
        assert overlap_premise_holds(net)
        assert common_trust_set(net) == frozenset()
        assert all(
            find_fork(oracles.place_byzantine(net, b)) is None
            for b in oracles.admissible_placements(net)
        )


class TestExpansion:
    def test_five_choose_four(self):
        expanded = expand_quota_network(nets.shared_five())
        assert all(len(expanded.slices[i]) == 5 for i in expanded.honest)
        assert all(len(s) == 4 for i in expanded.honest for s in expanded.slices[i])

    def test_three_choose_two(self):
        net = make_uniform({"a": frozenset("abc"), "b": frozenset("abc"), "c": frozenset("abc")}, Fraction(2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expanded = expand_quota_network(net)
        assert all(len(expanded.slices[i]) == 3 for i in "abc")
        assert all(len(s) == 2 for i in "abc" for s in expanded.slices[i])

    def test_split_network_fork_verdict_survives_expansion(self):
        net = nets.split_quota()
        expanded = expand_quota_network(net)
        assert (find_fork(net) is None) == (find_fork(expanded) is None)

    def test_validation_agrees_for_every_profile(self):
        from quorumlens import validates

        rng = random.Random(109)
        for trial in range(10):
            net = oracles.random_uniform_quota_net(rng, rng.randint(2, 4), Fraction(3, 4), byz_count=rng.randint(0, 1))
            expanded = expand_quota_network(net)
            for profile in enumerate_profiles(net):
                for i in net.honest:
                    for x in (0, 1):
                        assert validates(net, profile, i, x) == validates(
                            expanded, profile, i, x
                        )

    def test_qi_verdict_survives_expansion(self):
        rng = random.Random(113)
        for trial in range(12):
            net = oracles.random_uniform_quota_net(rng, rng.randint(3, 6), Fraction(3, 4))
            expanded = expand_quota_network(net)
            assert (
                check_quorum_intersection(net).holds
                == check_quorum_intersection(expanded).holds
            )

    def test_clique_stores_each_coalition_once(self):
        # 16 nodes at quota 3/4 need C(16, 12) = 1,820 coalitions each. Built
        # per node, the 29,120 frozensets take about 20 MB.
        net = nets.quota_clique(16, Fraction(3, 4))
        tracemalloc.start()
        try:
            expanded = expand_quota_network(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        expected = tuple(frozenset(c) for c in combinations(net.nodes, 12))
        assert all(expanded.slices[i] == expected for i in net.nodes)

    def test_budget(self):
        # A 3/4 quota over 25 trustees needs C(25, 19) = 177,100 coalitions.
        big = make_uniform(
            {"a": frozenset(f"x{k}" for k in range(24)) | {"a"}}, Fraction(3, 4)
        )
        with pytest.raises(BudgetExceededError, match="177100 minimal coalitions .* of 100000$"):
            expand_quota_network(big)

    def test_budget_is_a_total_over_distinct_games(self, monkeypatch):
        # gen random --nodes 200 --trust 20 --quota 3/4 --byz 2 --topology
        # centralised --seed 1: 198 honest nodes, each its own game of
        # C(20, 15) = 15,504 coalitions, under the budget one at a time.
        # Counted, not built: about 3.07M frozensets, over 2 GB.
        net = random_quota_network(GenParams(200, 20, Fraction(3, 4), 2, 1, "centralised"))
        games = {(net.trust[i], math.ceil(net.quota[i] * len(net.trust[i]))) for i in net.honest}
        counts = [math.comb(len(trust), need) for trust, need in games]
        assert len(games) == 198 and max(counts) == 15_504 and sum(counts) == 3_069_792
        # The seventh distinct game takes the total past the budget, and the
        # refusal comes before a single coalition is built.
        def no_building(*args):
            raise AssertionError("a coalition was built")

        monkeypatch.setattr(bounds, "combinations", no_building)
        with pytest.raises(BudgetExceededError) as exc:
            expand_quota_network(net)
        assert str(exc.value) == "node v007: 108528 minimal coalitions exceeds the budget of 100000"
