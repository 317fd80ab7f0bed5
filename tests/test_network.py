"""Core model: validation, observation, forks, and closure."""

import contextlib
import copy
import inspect
import random
import warnings
from fractions import Fraction

import pytest

import nets
import oracles
from oracles import closure_fixpoint, closure_step, enumerate_profiles
from quorumlens import (
    BudgetExceededError,
    GenParams,
    NetworkFormatError,
    NetworkValidationError,
    OpinionProfile,
    QuotaNetwork,
    QuotaRangeWarning,
    TrustNetwork,
    as_fraction,
    banzhaf_raw_row,
    check_slice_addition,
    expand_quota_network,
    find_fork,
    find_strong_fork,
    network_document,
    network_violations,
    observation_bounds,
    observed_set,
    parse_network_document,
    profile_violations,
    random_quota_network,
    shared_byzantine_bound,
    threshold,
    validate_network,
    validates,
    with_veto_slices,
)
from quorumlens import network
from quorumlens.instances import TOPOLOGIES
from quorumlens.verify import verify_fork_witness


class TestValidation:
    def test_two_triangles_valid(self):
        assert network_violations(nets.two_triangles()) == []
        assert validate_network(nets.two_triangles()) is not None

    def test_single_vetoed_valid(self):
        assert network_violations(nets.single_vetoed()) == []

    def test_slice_outside_trust_set(self):
        net = TrustNetwork(
            nodes=("i", "j"),
            byzantine=frozenset(),
            trust={"i": frozenset({"i"}), "j": frozenset({"j"})},
            slices={"i": (frozenset({"j"}),), "j": (frozenset({"j"}),)},
        )
        problems = network_violations(net)
        assert any("slice outside trust set" in p for p in problems)
        with pytest.raises(NetworkValidationError):
            validate_network(net)

    def test_duplicate_labels(self):
        net = TrustNetwork(
            nodes=("i", "i"),
            byzantine=frozenset(),
            trust={"i": frozenset({"i"})},
            slices={"i": (frozenset({"i"}),)},
        )
        assert any("duplicate" in p for p in network_violations(net))

    def test_empty_trust_set(self):
        net = QuotaNetwork(
            nodes=("i",),
            byzantine=frozenset(),
            trust={"i": frozenset()},
            quota={"i": Fraction(1)},
        )
        assert any("empty trust set" in p for p in network_violations(net))

    def test_vetoed_claim_requires_singletons(self):
        # "vetoed" is read off the slices, so a false claim is a file error,
        # raised once the network has validated.
        doc = network_document(nets.two_triangles())
        doc["vetoed"] = True
        message = 'key "vetoed": {1} does not win for node 1'
        for parse in (parse_network_document, oracles.walk_network_document):
            with pytest.raises(NetworkFormatError) as caught:
                parse(copy.deepcopy(doc))
            assert str(caught.value) == message

    def test_quota_out_of_range(self):
        net = QuotaNetwork(
            nodes=("i",),
            byzantine=frozenset(),
            trust={"i": frozenset({"i"})},
            quota={"i": Fraction(1, 2)},
        )
        assert any("out of range" in p for p in network_violations(net))

    def test_low_quota_warns_but_validates(self):
        net = QuotaNetwork(
            nodes=("i", "j"),
            byzantine=frozenset(),
            trust={n: frozenset({"i", "j"}) for n in "ij"},
            quota={n: Fraction(3, 5) for n in "ij"},
        )
        with pytest.warns(QuotaRangeWarning):
            assert network_violations(net) == []

    def test_large_byz_fraction_warns_but_validates(self):
        # Unanimous quota with an assumed third of each trust set Byzantine
        # is inconsistent with b = 1 - q, yet must stay expressible.
        with pytest.warns(QuotaRangeWarning):
            assert network_violations(nets.split_quota()) == []

    def test_no_honest_nodes(self):
        net = TrustNetwork(("i",), frozenset({"i"}), {}, {})
        assert any("no honest nodes" in p for p in network_violations(net))

    def test_range_findings_are_reported_per_node_in_node_order(self):
        # Quotas and Byzantine fractions repeat across nodes, so each pair
        # is judged once; every node still gets its own messages, in order.
        nodes = tuple("abcdefgh")
        quotas = dict(zip(nodes, map(Fraction, "1/2 2/3 7/10 3/4 2/3 1/2 3/4 7/10".split())))
        byz = dict(zip("bcefg", map(Fraction, "1/3 1 1/3 -1/10 3/10".split())))
        net = QuotaNetwork(nodes, frozenset(), {n: frozenset(nodes) for n in nodes}, quotas, byz)
        assert [net.byz_fraction[n] for n in "adh"] == [Fraction(1, 2), Fraction(1, 4), Fraction(3, 10)]
        with pytest.warns(QuotaRangeWarning) as record:
            with pytest.raises(NetworkValidationError) as exc:
                validate_network(net)
        assert exc.value.violations == [
            "node a: quota 1/2 out of range (0.5, 1]",
            "node c: byzantine fraction 1 out of [0, 1)",
            "node f: quota 1/2 out of range (0.5, 1]",
            "node f: byzantine fraction -1/10 out of [0, 1)",
        ]
        assert [str(w.message) for w in record] == [
            "node a: byzantine fraction 1/2 above the assumed 0.25 cap",
            "node b: quota 2/3 below the recommended [0.75, 1] range",
            "node b: byzantine fraction 1/3 above the assumed 0.25 cap",
            "node c: quota 7/10 below the recommended [0.75, 1] range",
            "node e: quota 2/3 below the recommended [0.75, 1] range",
            "node e: byzantine fraction 1/3 above the assumed 0.25 cap",
            "node g: byzantine fraction 3/10 above the assumed 0.25 cap",
            "node g: byzantine fraction 3/10 exceeds 1 - quota = 1/4",
            "node h: quota 7/10 below the recommended [0.75, 1] range",
            "node h: byzantine fraction 3/10 above the assumed 0.25 cap",
        ]

    def test_slices_structure_messages_in_order(self):
        net = TrustNetwork(
            nodes=("a", "b", "c", "d", 7, "e"),
            byzantine=frozenset({"d", "x"}),
            trust={"a": {"a", "b", "q", "p"}, "b": {"b"}, "c": {"c"}, "d": {"d"}},
            slices={"a": ({"a", "b"},), "b": (), "c": (frozenset(),), "x": ({"x"},)},
        )
        assert network_violations(net) == [
            "node label 7 is not a non-empty string",
            "byzantine node 'x' is not in the node list",
            "missing trust sets for: 7, e",
            "trust sets given for non-honest nodes: d",
            "node a: trust set mentions unknown nodes p, q",
            "missing slices for: 7, e",
            "slices given for non-honest nodes: x",
            "node b: no winning coalitions",
            "node c: empty winning coalition",
        ]

    def test_quota_domain_messages_in_order(self):
        net = QuotaNetwork(
            nodes=("a", "b", "c", "z"),
            byzantine=frozenset({"z"}),
            trust={"a": {"a", "b", "c"}, "c": {"a", "b", "c"}, "z": {"z"}},
            quota={"a": 1, "z": 1},
        )
        assert network_violations(net) == [
            "missing trust sets for: b",
            "trust sets given for non-honest nodes: z",
            "missing quota for: b, c",
            "quota given for non-honest nodes: z",
        ]

    def test_byz_fraction_outside_honest_nodes_is_reported(self):
        # Neither key is honest, and neither is a quota key, whose default
        # fraction the quota domain message already covers.
        net = QuotaNetwork(
            nodes=("a", "b", "z"),
            byzantine=frozenset({"z"}),
            trust={"a": {"a", "b"}, "b": {"a", "b"}},
            quota={"a": 1, "b": 1},
            byz_fraction={"z": "1/2", "q": "1/3"},
        )
        assert network_violations(net) == ["byzantine fractions given for non-honest nodes: q, z"]
        with pytest.raises(NetworkValidationError):
            validate_network(net)

    def test_non_string_labels_are_reported_not_raised(self):
        net = TrustNetwork(("a", 1), frozenset(), {"a": {"a"}}, {"a": ({"a"},)})
        assert network_violations(net) == [
            "node label 1 is not a non-empty string",
            "missing trust sets for: 1",
            "missing slices for: 1",
        ]
        net = TrustNetwork(("a",), frozenset({2, "z"}), {"a": {"a"}}, {"a": ({"a"},)})
        assert network_violations(net) == [
            "byzantine node 2 is not in the node list",
            "byzantine node 'z' is not in the node list",
        ]
        net = TrustNetwork((1, 1, "a", "a"), frozenset(), {}, {})
        assert network_violations(net)[:3] == [
            "duplicate node labels: 1, a",
            "node label 1 is not a non-empty string",
            "node label 1 is not a non-empty string",
        ]


class TestVetoed:
    """``vetoed`` is read off each honest node's winning rules, for both kinds."""

    @staticmethod
    def networks():
        rng = random.Random(331)
        quota = oracles.seeded_quota_networks(337, 60)
        for k, topology in enumerate(TOPOLOGIES * 6):
            n = rng.randint(4, 10)
            params = GenParams(n, rng.randint(2, n), Fraction(3, 4), rng.randint(0, 2), k, topology)
            with contextlib.suppress(ValueError):
                quota.append(random_quota_network(params))
        # Each honest node trusting only itself is the one vetoed quota
        # form; one node that also trusts a neighbour breaks it.
        for n in range(1, 7):
            nodes = tuple(f"n{k}" for k in range(n))
            byzantine = frozenset(rng.sample(nodes, rng.randint(0, min(2, n - 1))))
            honest = [i for i in nodes if i not in byzantine]
            q = {i: rng.choice([Fraction(3, 4), Fraction(4, 5), Fraction(1)]) for i in honest}
            trust = {i: frozenset({i}) for i in honest}
            quota.append(QuotaNetwork(nodes, byzantine, trust, q))
            if n > 1:
                trust[honest[-1]] |= {nodes[0], nodes[-1]}
                quota.append(QuotaNetwork(nodes, byzantine, trust, q))
        explicit = []
        for k in range(80):
            n = rng.randint(1, 7)
            byz = rng.randint(0, min(2, n - 1))
            explicit.append(oracles.random_explicit_net(rng, n, byz_count=byz, vetoed=k % 2 == 0))
        sliced = explicit + [expand_quota_network(net) for net in quota]
        return quota + sliced + [with_veto_slices(net) for net in sliced]

    @pytest.mark.filterwarnings("ignore::quorumlens.QuotaRangeWarning")
    def test_matches_the_rule_of_each_kind(self):
        seen = {}
        for net in self.networks():
            assert validate_network(net) is net
            expected = all(oracles.holds_veto(net, i) for i in net.honest)
            assert net.vetoed == expected, net
            key = type(net).__name__, expected
            seen[key] = seen.get(key, 0) + 1
        assert len(seen) == 4 and min(seen.values()) >= 6, seen

    @pytest.mark.filterwarnings("ignore::quorumlens.QuotaRangeWarning")
    def test_written_exactly_when_it_holds(self):
        for net in self.networks():
            doc = network_document(net)
            assert doc.get("vetoed", False) == net.vetoed
            assert parse_network_document(doc).network == net

    def test_not_a_field(self):
        params = inspect.signature(TrustNetwork).parameters.values()
        got = [(p.name, p.kind, p.default) for p in params]
        fields = ("nodes", "byzantine", "trust", "slices")
        required = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
        assert got == [(name, *required) for name in fields]
        base = nets.single_vetoed()
        args = (base.nodes, base.byzantine, base.trust, base.slices)
        with pytest.raises(TypeError):
            TrustNetwork(*args, True)
        with pytest.raises(TypeError):
            TrustNetwork(*args, vetoed=True)


class TestAsFraction:
    def test_each_accepted_type(self):
        half = Fraction(1, 2)
        assert as_fraction(half) is half
        assert as_fraction(3) == Fraction(3) and type(as_fraction(3)) is Fraction
        assert as_fraction(0.8) == Fraction(4, 5)
        assert as_fraction("2/3") == Fraction(2, 3)

    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "boolean is not a valid rational value"),
            ([1], r"cannot interpret \[1\] as a rational"),
            (None, "cannot interpret None as a rational"),
        ],
    )
    def test_rejected_types(self, value, message):
        with pytest.raises(TypeError, match=message):
            as_fraction(value)


class TestObservedSet:
    def test_split_group_two_sees_three_zeros(self):
        net, profile = nets.split_quota(), nets.split_quota_profile()
        assert observed_set(net, profile, "4", 0) == frozenset("345")
        assert observed_set(net, profile, "5", 0) == frozenset("345")

    def test_split_group_one_sees_three_ones(self):
        net, profile = nets.split_quota(), nets.split_quota_profile()
        assert observed_set(net, profile, "1", 1) == frozenset("123")

    def test_byzantine_observer_rejected(self):
        net, profile = nets.split_quota(), nets.split_quota_profile()
        with pytest.raises(ValueError):
            observed_set(net, profile, "3", 0)

    def test_partition_of_revealed_trust_set(self):
        rng = random.Random(11)
        net = nets.split_quota()
        for profile in list(enumerate_profiles(net))[:64]:
            for i in net.honest:
                ones = observed_set(net, profile, i, 1)
                zeros = observed_set(net, profile, i, 0)
                assert not (ones & zeros)
                assert ones | zeros <= net.trust[i]
                for n in net.trust[i]:
                    if n not in net.byzantine:
                        assert (n in ones) != (n in zeros)
        # An unrevealed Byzantine node counts toward neither value.
        partial = OpinionProfile({"1": 1, "2": 1, "4": 0, "5": 0}, {"3": {"1": 1}})
        assert "3" not in observed_set(net, partial, "4", 0)
        assert "3" not in observed_set(net, partial, "4", 1)
        assert "3" in observed_set(net, partial, "1", 1)
        del rng

    def test_profile_violations(self):
        net = nets.split_quota()
        assert profile_violations(net, nets.split_quota_profile()) == []
        partial = OpinionProfile({"1": 1, "2": 1, "4": 0, "5": 0}, {"3": {"1": 1}})
        assert any("no reveal" in p for p in profile_violations(net, partial))

    @pytest.mark.parametrize(
        "opinions, reveals, message",
        [
            ({"1": 1, "2": 1, "4": 0}, None, "honest opinion domain differs from the honest node set"),
            ({"1": 2, "2": 1, "4": 0, "5": 0}, None, "node 1: opinion 2 not in {0, 1}"),
            (None, {}, "reveal domain differs from the Byzantine node set"),
            (None, {"3": {"1": 1, "2": 1, "4": 0, "5": 7}}, "byzantine node 3: reveal 7 to 5 not in {0, 1}"),
        ],
        ids=["opinion-domain", "opinion-value", "reveal-domain", "reveal-value"],
    )
    def test_profile_violation_messages(self, opinions, reveals, message):
        # Each case breaks one part of the fitting split_quota profile.
        fitting = nets.split_quota_profile()
        profile = OpinionProfile(
            fitting.honest_opinions if opinions is None else opinions,
            fitting.byzantine_reveals if reveals is None else reveals,
        )
        assert profile_violations(nets.split_quota(), profile) == [message]


class TestValidates:
    def test_quota_threshold_met(self):
        net = nets.shared_five()
        profile = OpinionProfile({n: 1 if n in "1234" else 0 for n in "123456"}, {})
        # 4 supporters meet ceil(0.8 * 5) = 4.
        assert threshold(net, "6") == 4
        assert validates(net, profile, "6", 1)

    def test_quota_threshold_missed(self):
        net = nets.shared_five()
        profile = OpinionProfile({n: 1 if n in "123" else 0 for n in "123456"}, {})
        assert not validates(net, profile, "6", 1)

    def test_veto_slice_validates_own_opinion(self):
        net = nets.single_vetoed()
        profile = OpinionProfile({"i": 1}, {})
        assert validates(net, profile, "i", 1)
        assert not validates(net, profile, "i", 0)

    def test_monotone_in_supporters(self):
        # Adding an honest supporter never falsifies validation.
        rng = random.Random(5)
        for trial in range(40):
            net = oracles.random_explicit_net(rng, rng.randint(2, 5))
            profiles = list(enumerate_profiles(net))
            for profile in profiles[:32]:
                for i in net.honest:
                    if not validates(net, profile, i, 1):
                        continue
                    flipped = dict(profile.honest_opinions)
                    zeros = [n for n, v in flipped.items() if v == 0]
                    if not zeros:
                        continue
                    flipped[rng.choice(zeros)] = 1
                    richer = OpinionProfile(flipped, profile.byzantine_reveals)
                    assert validates(net, richer, i, 1)


class TestFindFork:
    def test_split_quota_fork(self):
        net = nets.split_quota()
        witness = find_fork(net)
        assert witness is not None
        assert witness.node_a == "1" and witness.value_a == 1
        assert witness.node_b == "4" and witness.value_b == 0
        assert validates(net, witness.profile, "1", 1)
        assert validates(net, witness.profile, "4", 0)
        # The bridging Byzantine node reveals opposite values to the two sides.
        reveals = witness.profile.byzantine_reveals["3"]
        assert reveals["1"] == 1 and reveals["4"] == 0
        assert profile_violations(net, witness.profile) == []

    def test_two_triangles_fork_despite_no_byzantine(self):
        net = nets.two_triangles()
        witness = find_fork(net)
        assert witness is not None
        assert not (witness.supporting_a & witness.supporting_b)
        assert oracles.forked_by_profile_enumeration(net)

    def test_single_vetoed_safe(self):
        assert find_fork(nets.single_vetoed()) is None

    def test_unanimity_safe(self):
        assert find_fork(nets.unanimity()) is None

    def test_pairwise_criterion_matches_profile_enumeration(self):
        rng = random.Random(23)
        checked_forked = checked_safe = 0
        for trial in range(60):
            net = oracles.random_explicit_net(
                rng,
                rng.randint(2, 6),
                max_slices=3,
                max_slice_size=3,
                byz_count=rng.randint(0, 1),
            )
            got = find_fork(net) is not None
            expected = oracles.forked_by_profile_enumeration(net)
            assert got == expected, net
            if expected:
                checked_forked += 1
            else:
                checked_safe += 1
        assert checked_forked >= 5 and checked_safe >= 5

    def test_quota_arithmetic_matches_profile_enumeration(self):
        rng = random.Random(77)
        forked = safe = 0
        for trial in range(40):
            n = rng.randint(2, 5)
            net = oracles.random_uniform_quota_net(
                rng, n, Fraction(3, 4), byz_count=rng.randint(0, min(1, n - 1))
            )
            got = find_fork(net) is not None
            expected = oracles.forked_by_profile_enumeration(net)
            assert got == expected, net
            forked += expected
            safe += not expected
        assert forked >= 3 and safe >= 3

    def test_witness_profiles_always_validate(self):
        rng = random.Random(29)
        for trial in range(60):
            net = oracles.random_explicit_net(
                rng, rng.randint(2, 6), byz_count=rng.randint(0, 2)
            )
            witness = find_fork(net)
            if witness is None:
                continue
            assert validates(net, witness.profile, witness.node_a, witness.value_a)
            assert validates(net, witness.profile, witness.node_b, witness.value_b)
            assert witness.value_b == 1 - witness.value_a
            assert profile_violations(net, witness.profile) == []

    def test_budget_exceeded(self, monkeypatch):
        # Each (i, j) block is charged its rule pairs before it is tested,
        # and the module constant is read at call time. On the triangles,
        # one slice a node, the fork is found in block (1, 4), the fourth;
        # on shared_five, one quota rule a node, there is no fork, so all
        # 6 * 6 blocks are charged.
        cases = [(nets.two_triangles(), 4), (nets.shared_five(), 36)]
        expected = [find_fork(net) for net, _ in cases]
        for (net, tests), witness in zip(cases, expected):
            monkeypatch.setattr(network, "DEFAULT_MAX_SEARCH_STATES", tests - 1)
            with pytest.raises(BudgetExceededError) as exc:
                find_fork(net)
            assert str(exc.value) == f"fork search exceeded {tests - 1} rule-pair tests"
            monkeypatch.setattr(network, "DEFAULT_MAX_SEARCH_STATES", tests)
            assert find_fork(net) == witness

    def test_expansions_past_64_slices_agree_with_their_quota_networks(self):
        # Every expansion here held more than the 64 slices the search once
        # refused; each is decided, as its quota network is, and a witness
        # passes its re-check on the definitions.
        sizes, safe = [], 0
        for net in oracles.seeded_quota_networks(67, 120, 6, 10):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", QuotaRangeWarning)
                expanded = expand_quota_network(net)
            size = sum(map(len, expanded.slices.values()))
            if not 65 <= size <= 800:
                continue
            sizes.append(size)
            witness = find_fork(expanded)
            assert (witness is None) == (find_fork(net) is None), net
            if witness is None:
                safe += 1
            else:
                verify_fork_witness(expanded, witness)
        assert len(sizes) >= 30 and max(sizes) >= 700 and 10 <= safe <= len(sizes) - 10

    def test_verdict_matches_closed_form_on_seeded_quota_networks(self):
        # 20-120 nodes, 0-3 Byzantine nodes, the three topologies in turn;
        # every network is valid, so no node forks with itself.
        rng = random.Random(37)
        nets_checked, forked = 0, 0
        while nets_checked < 300:
            n = rng.randint(20, 120)
            quota = rng.choice([Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5)])
            topology = TOPOLOGIES[nets_checked % len(TOPOLOGIES)]
            params = GenParams(
                n, rng.randint(2, n), quota, rng.randint(0, 3), rng.randrange(2**32), topology
            )
            try:
                net = random_quota_network(params)
            except ValueError:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", QuotaRangeWarning)
                assert network_violations(net) == []
            nets_checked += 1
            witness = find_fork(net)
            assert (witness is not None) == oracles.quota_forked_by_closed_form(net), params
            if witness is not None:
                forked += 1
                assert witness.node_a != witness.node_b
                verify_fork_witness(net, witness)
        assert 30 <= forked <= 270

    def test_fork_free_800_node_clique_is_decided(self):
        # 640,000 rule-pair tests, each of ANDs and popcounts on 800-bit masks.
        net = random_quota_network(GenParams(800, 800, Fraction(3, 4), topology="clique"))
        assert find_fork(net) is None

    def test_fork_search_lives_in_the_quorum_module(self):
        from quorumlens import quorum

        assert find_fork.__module__ == quorum.__name__
        assert not hasattr(network, "find_fork")
        assert not hasattr(network, "_fork_profile")

    def test_self_fork_on_unvalidated_quota_network(self):
        # Quota 1/2 fails validation: a need of 2 out of 4 trustees lets
        # one node settle on both values, each backed by two Byzantine
        # trustees, or by itself and one.
        net = QuotaNetwork(
            nodes=("a", "x", "y", "w"),
            byzantine=frozenset("xyw"),
            trust={"a": frozenset("axyw")},
            quota={"a": Fraction(1, 2)},
        )
        witness = find_fork(net)
        assert witness is not None
        assert witness.node_a == witness.node_b == "a"
        assert validates(net, witness.profile, "a", witness.value_a)
        assert validates(net, witness.profile, "a", witness.value_b)
        assert witness.value_a != witness.value_b
        assert oracles.forked_by_profile_enumeration(net)


class TestClosure:
    def test_unique_selector_reaches_triangle(self):
        net = nets.two_triangles()
        selector = {n: net.slices[n][0] for n in net.honest}
        first = closure_step(net, selector, {"1"})
        assert first == nets.TRI_A
        assert closure_step(net, selector, first) == nets.TRI_A

    def test_empty_seed(self):
        net = nets.two_triangles()
        selector = {n: net.slices[n][0] for n in net.honest}
        assert closure_step(net, selector, frozenset()) == frozenset()

    def test_full_seed_stays_inside(self):
        net = nets.two_triangles()
        selector = {n: net.slices[n][0] for n in net.honest}
        assert closure_step(net, selector, net.nodes) <= frozenset(net.nodes)

    def test_monotone_and_fixpoint_within_node_count(self):
        rng = random.Random(3)
        for trial in range(30):
            net = oracles.random_explicit_net(rng, rng.randint(2, 6))
            selector = {i: rng.choice(net.slices[i]) for i in net.honest}
            seed_small = frozenset(rng.sample(list(net.nodes), 1))
            seed_big = seed_small | frozenset(rng.sample(list(net.nodes), 2))
            assert closure_step(net, selector, seed_small) <= closure_step(
                net, selector, seed_big
            )
            current = seed_big
            seen = [current]
            for _ in range(len(net.nodes)):
                current = closure_step(net, selector, current)
                seen.append(current)
            assert closure_step(net, selector, current) == current

    def test_rejects_non_slice(self):
        net = nets.two_triangles()
        selector = {n: net.slices[n][0] for n in net.honest}
        selector["1"] = frozenset({"1", "2"})
        with pytest.raises(ValueError, match="non-slice"):
            closure_step(net, selector, {"1"})

    def test_closure_fixpoint_is_self_supporting(self):
        net = nets.two_triangles()
        selector = {n: net.slices[n][0] for n in net.honest}
        assert closure_fixpoint(net, selector, {"4"}) == nets.TRI_B


class TestFindStrongFork:
    def test_vetoed_triangles_strongly_fork(self):
        net = nets.two_triangles_vetoed()
        witness = find_strong_fork(net)
        assert witness is not None and witness.kind == "strong-fork"
        q_a, q_b = witness.supporting_a, witness.supporting_b
        from quorumlens import is_quorum

        assert is_quorum(net, q_a) and is_quorum(net, q_b)
        assert not (q_a & q_b & frozenset(net.honest))
        assert validates(net, witness.profile, witness.node_a, witness.value_a)
        assert validates(net, witness.profile, witness.node_b, witness.value_b)

    def test_plain_triangles_fork_along_triples(self):
        # Every coalition already contains its owner here, so the strong
        # fork runs along the two triangles themselves.
        witness = find_strong_fork(nets.two_triangles())
        assert witness is not None
        assert {witness.supporting_a, witness.supporting_b} == {nets.TRI_A, nets.TRI_B}

    def test_unanimity_weakly_safe(self):
        assert find_strong_fork(nets.unanimity()) is None
        assert find_strong_fork(nets.unanimity(byz="d")) is None

    def test_singleton_veto_slices_fork_trivially(self):
        # A singleton veto slice is a self-supporting quorum of one, so
        # any two honest nodes can strongly fork on their own.
        assert find_strong_fork(with_veto_slices(nets.unanimity())) is not None

    def test_agrees_with_selector_enumeration(self):
        for net in (nets.two_triangles(), nets.two_triangles_vetoed(), nets.unanimity()):
            assert (find_strong_fork(net) is not None) == (
                oracles.strong_forked_by_selector_enumeration(net)
            )

    def test_selector_oracle_on_random_networks(self):
        rng = random.Random(41)
        seen_forked = seen_safe = 0
        for trial in range(30):
            net = oracles.random_explicit_net(
                rng,
                rng.randint(2, 5),
                max_slices=2,
                max_slice_size=3,
                byz_count=rng.randint(0, 1),
                self_in_slices=True,
            )
            got = find_strong_fork(net) is not None
            expected = oracles.strong_forked_by_selector_enumeration(net)
            assert got == expected, net
            seen_forked += got
            seen_safe += not got
        assert seen_forked >= 3 and seen_safe >= 3

    def test_byzantine_nodes_show_each_observer_its_own_opinion(self):
        # Each quorum's honest members already hold its value, so every
        # reveal of a strong-fork profile is the observer's own opinion.
        rng = random.Random(61)
        forks = reveals = 0
        for trial in range(60):
            net = oracles.random_explicit_net(
                rng,
                rng.randint(3, 7),
                max_slices=2,
                max_slice_size=3,
                byz_count=rng.randint(1, 2),
                self_in_slices=True,
            )
            for candidate in (net, *oracles.seeded_quota_networks(trial, 1)):
                witness = find_strong_fork(candidate)
                if witness is None:
                    continue
                forks += 1
                profile = witness.profile
                for shown in profile.byzantine_reveals.values():
                    for observer, value in shown.items():
                        assert value == profile.honest_opinions[observer], candidate
                        reveals += 1
        assert forks >= 20 and reveals >= 50, (forks, reveals)

    def test_safety_implies_weak_safety(self):
        rng = random.Random(59)
        for trial in range(60):
            net = oracles.random_explicit_net(
                rng,
                rng.randint(2, 5),
                max_slices=2,
                max_slice_size=3,
                byz_count=rng.randint(0, 1),
                vetoed=bool(trial % 2),
                self_in_slices=not bool(trial % 2),
            )
            if find_fork(net) is None:
                assert find_strong_fork(net) is None


def test_enumerate_profiles_counts():
    net = nets.split_quota()
    # 4 honest bits, one Byzantine node revealing to 4 observers.
    assert sum(1 for _ in enumerate_profiles(net)) == 2**4 * 2**4


# Each entry point that takes an honest node, called on a quota network
# ``q``, a slices network ``s`` and a profile ``p`` with node "x" in its
# first or its second honest-node argument.
HONEST_GUARDED = {
    "shared_byzantine_bound": lambda q, s, p: shared_byzantine_bound(q, "a", "x"),
    "observation_bounds": lambda q, s, p: observation_bounds(q, p, "x", "a", 1),
    "banzhaf_raw_row": lambda q, s, p: banzhaf_raw_row(q, "x"),
    "check_slice_addition": lambda q, s, p: check_slice_addition(s, "x", {"a"}),
    "observed_set": lambda q, s, p: observed_set(q, p, "x", 1),
    "validates": lambda q, s, p: validates(s, p, "x", 1),
}


@pytest.mark.parametrize("byzantine", [True, False], ids=["byzantine", "no-trust-set"])
@pytest.mark.parametrize("entry", sorted(HONEST_GUARDED))
def test_entry_points_reject_a_node_that_is_not_honest(entry, byzantine):
    # "x" is either a Byzantine member of every trust set or a label the
    # network does not have; honest a, b and c all trust one another.
    labels = "abcx" if byzantine else "abc"
    trust = {n: frozenset(labels) for n in "abc"}
    quota = QuotaNetwork(tuple(labels), frozenset("x" if byzantine else ""), trust,
                         {n: Fraction(3, 4) for n in "abc"})
    slices = TrustNetwork(quota.nodes, quota.byzantine, trust, {n: (trust[n],) for n in "abc"})
    reveals = {"x": {n: 1 for n in "abc"}} if byzantine else {}
    profile = OpinionProfile({n: 1 for n in "abc"}, reveals)
    assert network_violations(quota) == network_violations(slices) == []
    assert profile_violations(quota, profile) == []
    with pytest.raises(ValueError) as caught:
        HONEST_GUARDED[entry](quota, slices, profile)
    assert type(caught.value) is ValueError
    assert caught.value.args == ("node 'x' is not an honest node of the network",)
