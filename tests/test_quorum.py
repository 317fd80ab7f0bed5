"""Quorum enumeration and intersection checking against naive oracles."""

import random
from fractions import Fraction

import pytest

import nets
import oracles
from quorumlens import (
    BudgetExceededError,
    QuotaNetwork,
    check_qi_honest,
    check_quorum_intersection,
    check_slice_addition,
    expand_quota_network,
    is_quorum,
    max_quorum_within,
    minimal_quora,
)


class TestIsQuorum:
    def test_two_triangles(self):
        net = nets.two_triangles()
        assert is_quorum(net, "123")
        assert not is_quorum(net, "12")
        assert is_quorum(net, "123456")

    def test_unanimity_unique(self):
        net = nets.unanimity()
        assert is_quorum(net, net.nodes)
        assert [q for q in oracles.all_quora(net)] == [frozenset(net.nodes)]

    def test_empty_is_not_a_quorum(self):
        assert not is_quorum(nets.two_triangles(), frozenset())

    def test_byzantine_singleton_is_a_quorum(self):
        net = nets.two_triangles_shared_byz()
        assert is_quorum(net, {"7"})

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            is_quorum(nets.two_triangles(), {"9"})

    def test_unknown_label_of_another_type_rejected(self):
        with pytest.raises(ValueError) as caught:
            is_quorum(nets.two_triangles(), {7})
        assert caught.value.args == ("unknown nodes in candidate quorum: 7",)

    def test_definition_matches_both_fixpoints(self):
        # A non-empty set is a quorum exactly when it is its own largest
        # quorum, by the oracle's fixpoint and by the library's.
        rng = random.Random(71)
        quota = oracles.seeded_quota_networks(73, 120)
        networks = quota + [expand_quota_network(net) for net in quota]
        for _ in range(150):
            networks.append(
                oracles.random_explicit_net(
                    rng,
                    rng.randint(2, 8),
                    byz_count=rng.randint(0, 2),
                    vetoed=rng.random() < 0.5,
                )
            )
        seen = {True: 0, False: 0}
        for net in networks:
            candidates = [frozenset(), frozenset(net.nodes)]
            candidates += [
                frozenset(rng.sample(net.nodes, rng.randint(1, len(net.nodes))))
                for _ in range(12)
            ]
            for s in candidates:
                got = is_quorum(net, s)
                assert got == (bool(s) and oracles.largest_quorum_within(net, s) == s), (net, s)
                assert got == (bool(s) and max_quorum_within(net, s) == s), (net, s)
                seen[got] += 1
            with pytest.raises(ValueError, match="unknown"):
                is_quorum(net, {net.nodes[0], "no-such-node"})
        assert min(seen.values()) >= 500


class TestMaxQuorumWithin:
    def test_prunes_unsupported_member(self):
        assert max_quorum_within(nets.two_triangles(), "1234") == frozenset("123")

    def test_full_set_contains_every_quorum(self):
        rng = random.Random(17)
        for trial in range(25):
            net = oracles.random_explicit_net(rng, rng.randint(2, 6), byz_count=rng.randint(0, 1))
            top = max_quorum_within(net, net.nodes)
            quora = oracles.all_quora(net)
            assert top == frozenset().union(*quora) if quora else top == frozenset()
            for q in quora:
                assert q <= top

    def test_empty_input(self):
        assert max_quorum_within(nets.two_triangles(), frozenset()) == frozenset()

    def test_unknown_labels_listed_by_their_text(self):
        with pytest.raises(ValueError) as caught:
            max_quorum_within(nets.two_triangles(), {"zz", 7})
        assert caught.value.args == ("unknown nodes in candidate set: 7, zz",)

    def test_result_is_quorum_or_empty(self):
        rng = random.Random(19)
        for trial in range(25):
            net = oracles.random_explicit_net(rng, rng.randint(2, 6))
            sample = frozenset(rng.sample(list(net.nodes), rng.randint(0, len(net.nodes))))
            got = max_quorum_within(net, sample)
            assert got == frozenset() or is_quorum(net, got)
            for q in oracles.all_quora(net):
                if q <= sample:
                    assert q <= got


class TestMinimalQuora:
    def test_two_triangles(self):
        assert minimal_quora(nets.two_triangles()) == (frozenset("123"), frozenset("456"))

    def test_bridged_variant(self):
        assert minimal_quora(nets.two_triangles_bridged()) == (frozenset("456"),)

    def test_single_vetoed(self):
        assert minimal_quora(nets.single_vetoed()) == (frozenset("i"),)

    def test_matches_enumeration(self):
        rng = random.Random(31)
        for trial in range(25):
            net = oracles.random_explicit_net(rng, rng.randint(2, 6), byz_count=rng.randint(0, 1))
            quora = oracles.all_quora(net)
            expected = sorted(
                (q for q in quora if not any(o < q for o in quora)),
                key=lambda s: (len(s), sorted(s)),
            )
            assert sorted(minimal_quora(net), key=lambda s: (len(s), sorted(s))) == expected

    def test_quota_form(self):
        assert minimal_quora(nets.shared_five()) == tuple(
            frozenset(c) for c in __import__("itertools").combinations("12345", 4)
        )

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            minimal_quora(nets.two_triangles(), max_nodes=3)


class TestQuorumIntersection:
    def test_two_triangles_violated_with_witness(self):
        report = check_quorum_intersection(nets.two_triangles())
        assert not report.holds
        assert set(report.witness) == {frozenset("123"), frozenset("456")}

    def test_bridged_holds(self):
        assert check_quorum_intersection(nets.two_triangles_bridged()).holds

    def test_unanimity_holds(self):
        assert check_quorum_intersection(nets.unanimity()).holds

    def test_agrees_with_pair_enumeration_explicit(self):
        rng = random.Random(37)
        holds_seen = fails_seen = 0
        for trial in range(40):
            net = oracles.random_explicit_net(
                rng, rng.randint(2, 10), byz_count=rng.randint(0, 1)
            )
            got = check_quorum_intersection(net)
            expected = oracles.qi_by_pair_enumeration(net)
            assert got.holds == expected, net
            if not got.holds:
                q_a, q_b = got.witness
                assert is_quorum(net, q_a) and is_quorum(net, q_b)
                assert not (q_a & q_b)
                fails_seen += 1
            else:
                holds_seen += 1
        assert holds_seen >= 5 and fails_seen >= 5

    def test_agrees_with_pair_enumeration_quota(self):
        rng = random.Random(43)
        for trial in range(20):
            net = oracles.random_uniform_quota_net(
                rng, rng.randint(3, 7), Fraction(3, 4), byz_count=rng.randint(0, 1)
            )
            got = check_quorum_intersection(net)
            assert got.holds == oracles.qi_by_pair_enumeration(net), net

    def test_union_of_quora_is_quorum(self):
        rng = random.Random(47)
        for trial in range(20):
            net = oracles.random_explicit_net(rng, rng.randint(2, 6))
            quora = oracles.all_quora(net)
            for a in range(len(quora)):
                for b in range(a + 1, len(quora)):
                    assert is_quorum(net, quora[a] | quora[b])

    def test_budget_is_distinct_from_verdicts(self):
        with pytest.raises(BudgetExceededError):
            check_quorum_intersection(nets.two_triangles(), max_nodes=5)


    def test_examined_stops_at_the_witness_split(self):
        # Two unanimous triples: of the 32 splits, code 3 (nodes 2 and 3 on
        # the pivot's side) is the first with a quorum on both sides.
        groups = {n: frozenset("123") if n in "123" else frozenset("456") for n in "123456"}
        net = QuotaNetwork(tuple("123456"), frozenset(), groups, {n: Fraction(1) for n in groups})
        report = check_quorum_intersection(net)
        assert not report.holds
        assert report.witness == (frozenset("123"), frozenset("456"))
        assert report.quora_examined == 4
        assert (report.quora_examined, report.witness) == oracles.first_split_witness(net)
        holds = check_quorum_intersection(nets.shared_five())
        assert holds.holds and holds.quora_examined == 2 ** 5

    def test_split_pool_above_64_nodes_holds(self):
        # One twin class of 65: the scan reads 66 count vectors and covers
        # all 2**64 splits.
        labels = tuple(f"n{k}" for k in range(65))
        everyone = frozenset(labels)
        net = QuotaNetwork(
            labels, frozenset(), {n: everyone for n in labels}, {n: Fraction(3, 4) for n in labels}
        )
        report = check_quorum_intersection(net, max_nodes=100)
        assert report.holds and report.quora_examined == 2 ** 64

    def test_twin_free_split_table_over_max_states_is_a_budget_overrun(self):
        # A ring where each node needs 2 of itself and its two neighbours
        # has no twins, so its 21-node pool takes a table of 2**21 count
        # vectors, more than the default 2,000,000 states.
        net = nets.ring(21, Fraction(1, 2))
        with pytest.raises(BudgetExceededError, match="split table of 2097152"):
            check_quorum_intersection(net, max_nodes=21)
        with pytest.raises(BudgetExceededError):
            check_qi_honest(net, max_nodes=21, max_states=2 ** 21 - 1)
        report = check_quorum_intersection(net, max_nodes=21, max_states=2 ** 21)
        assert (report.quora_examined, report.witness) == oracles.first_split_witness(net)
        assert report.quora_examined == 2


class TestHonestIntersection:
    def test_matches_plain_check_without_byzantine(self):
        rng = random.Random(53)
        for trial in range(25):
            net = oracles.random_explicit_net(rng, rng.randint(2, 6), byz_count=0)
            assert (
                check_qi_honest(net).holds
                == check_quorum_intersection(net).holds
            )

    def test_shared_byzantine_bridge_fails(self):
        report = check_qi_honest(nets.two_triangles_shared_byz())
        assert not report.holds
        q_a, q_b = report.witness
        assert q_a & q_b <= frozenset({"7"})

    def test_plain_check_passes_on_shared_byzantine_bridge(self):
        # Without the honest requirement the two sides share node 7.
        assert check_quorum_intersection(nets.two_triangles_shared_byz()).holds

    def test_unanimity_with_byzantine_holds(self):
        assert check_qi_honest(nets.unanimity(byz="d")).holds

    def test_agrees_with_pair_enumeration(self):
        rng = random.Random(61)
        holds_seen = fails_seen = 0
        for trial in range(40):
            net = oracles.random_explicit_net(
                rng, rng.randint(2, 6), byz_count=rng.randint(0, 2)
            )
            got = check_qi_honest(net)
            expected = oracles.qi_honest_by_pair_enumeration(net)
            assert got.holds == expected, net
            holds_seen += got.holds
            fails_seen += not got.holds
            if not got.holds:
                q_a, q_b = got.witness
                honest = frozenset(net.honest)
                assert is_quorum(net, q_a) and is_quorum(net, q_b)
                assert q_a & honest and q_b & honest
                assert not (q_a & q_b & honest)
        assert holds_seen >= 5 and fails_seen >= 5

    def test_quota_variant(self):
        rng = random.Random(67)
        for trial in range(15):
            net = oracles.random_uniform_quota_net(
                rng, rng.randint(3, 6), Fraction(3, 4), byz_count=rng.randint(0, 2)
            )
            assert check_qi_honest(net).holds == oracles.qi_honest_by_pair_enumeration(net)


class TestSliceAddition:
    def test_restoring_the_triangle_breaks_intersection(self):
        base = nets.two_triangles_bridged()
        report = check_slice_addition(base, "3", frozenset("123"))
        assert not report.holds

    def test_adding_an_existing_slice_changes_nothing(self):
        base = nets.two_triangles_bridged()
        report = check_slice_addition(base, "3", frozenset({"1", "2", "3", "5"}))
        assert report.holds

    def test_base_must_satisfy_intersection(self):
        with pytest.raises(ValueError, match="base network fails"):
            check_slice_addition(nets.two_triangles(), "1", frozenset("123"))

    def test_slice_must_come_from_trust_set(self):
        with pytest.raises(ValueError, match="trust set"):
            check_slice_addition(nets.two_triangles_bridged(), "1", frozenset("145"))

    def test_base_must_list_its_slices(self):
        with pytest.raises(TypeError, match="explicit-slice network"):
            check_slice_addition(nets.split_quota(), "1", frozenset("12"))

    def test_matches_full_check_on_extended_network(self):
        from quorumlens import TrustNetwork

        rng = random.Random(71)
        compared = 0
        for trial in range(60):
            net = oracles.random_explicit_net(rng, rng.randint(3, 6), byz_count=rng.randint(0, 1))
            if not check_quorum_intersection(net).holds:
                continue
            node = rng.choice(list(net.honest))
            size = rng.randint(1, len(net.trust[node]))
            new_slice = frozenset(rng.sample(sorted(net.trust[node]), size))
            incremental = check_slice_addition(net, node, new_slice)
            slices = dict(net.slices)
            if new_slice not in slices[node]:
                slices[node] = slices[node] + (new_slice,)
            extended = TrustNetwork(net.nodes, net.byzantine, net.trust, slices)
            assert incremental.holds == check_quorum_intersection(extended).holds
            compared += 1
        assert compared >= 15
