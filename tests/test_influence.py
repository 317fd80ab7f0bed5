"""Influence matrices, graph analysis, limits, and the centralization claims."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import nets
import oracles
from quorumlens import (
    BudgetExceededError,
    GenParams,
    InfluenceMatrix,
    QuotaNetwork,
    TrustNetwork,
    analyze_graph,
    banzhaf_raw_row,
    banzhaf_row,
    centralization_limit_report,
    expand_quota_network,
    influence_matrix,
    limit_matrix,
    random_quota_network,
    threshold,
)
from quorumlens import influence as influence_mod
from quorumlens.influence import _quota_table, _slices_table


def dictator_net():
    return TrustNetwork(
        nodes=("d", "e"),
        byzantine=frozenset(),
        trust={"d": frozenset("d"), "e": frozenset("de")},
        slices={"d": (frozenset("d"),), "e": (frozenset("d"),)},
    )


class TestBanzhafRow:
    def test_shared_five_exact_values(self):
        net = nets.shared_five()
        raw = banzhaf_raw_row(net, "6")
        assert raw == (Fraction(1, 4),) * 5 + (Fraction(0),)
        row = banzhaf_row(net, "6")
        assert row == (Fraction(1, 5),) * 5 + (Fraction(0),)

    def test_dictator(self):
        row = banzhaf_row(dictator_net(), "d")
        assert row == (Fraction(1), Fraction(0))

    def test_three_trustees_threshold_two(self):
        net = QuotaNetwork(
            nodes=("a", "b", "c"),
            byzantine=frozenset(),
            trust={n: frozenset("abc") for n in "abc"},
            quota={n: Fraction(2, 3) for n in "abc"},
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            raw = banzhaf_raw_row(net, "a")
        assert raw == (Fraction(1, 2),) * 3
        assert banzhaf_row(net, "a") == (Fraction(1, 3),) * 3

    def test_untrusted_nodes_are_exact_zeros(self):
        rng = random.Random(7)
        for trial in range(20):
            net = oracles.random_explicit_net(rng, rng.randint(2, 5))
            for i in net.honest:
                row = banzhaf_row(net, i)
                for j, value in zip(net.nodes, row):
                    if j not in net.trust[i]:
                        assert value == 0

    def test_matches_global_enumeration(self):
        # Enumerating coalitions over every node doubles pivots and
        # denominator alike, so the raw indices agree exactly. Plain
        # networks, then singleton vetoes, owners inside every coalition
        # and Byzantine trustees.
        rng = random.Random(11)
        variants = [{}] * 12 + [
            kwargs
            for kwargs in ({"vetoed": True}, {"self_in_slices": True}, {"byz_count": 2})
            for _ in range(8)
        ]
        for kwargs in variants:
            net = oracles.random_explicit_net(rng, rng.randint(2, 8), **kwargs)
            for i in net.honest:
                raw = banzhaf_raw_row(net, i)
                for j, value in zip(net.nodes, raw):
                    assert value == oracles.banzhaf_raw_global(net, i, j), (net, i, j)

    @pytest.mark.parametrize("size", [14, 16, 18, 20])
    @pytest.mark.parametrize("byz", [0, 2])
    def test_expanded_quota_rows_match_the_closed_form(self, size, byz):
        # Beyond the global oracle's reach: a quota game is symmetric in its
        # trustees, so each raw index is C(s - 1, t - 1) / 2 ** (s - 1).
        net = nets.quota_clique(size, byz=byz)
        expanded = expand_quota_network(net)
        t = threshold(net, "x0")
        assert len(expanded.slices["x0"]) == math.comb(size, t)
        closed = (Fraction(math.comb(size - 1, t - 1), 2 ** (size - 1)),) * size
        assert banzhaf_raw_row(expanded, "x0") == closed
        if size <= 16:
            # The quota row's byte loop takes seconds beyond trust 16.
            assert banzhaf_raw_row(net, "x0") == closed

    def test_expansions_match_their_quota_networks(self):
        # Explicit-slice twins of seeded quota networks play the same games:
        # the int table's bit counts must give the byte table's matrices.
        for net in oracles.seeded_quota_networks(31, 40, max_nodes=8):
            m = influence_matrix(expand_quota_network(net))
            assert m.entries == influence_matrix(net).entries, net

    @pytest.mark.parametrize("kind", ["quota", "slices"])
    def test_winning_table_memory(self, kind):
        # A quota table takes one byte per coalition and a few passes over
        # it, a slices table one bit per coalition and a few ints of that
        # size; an int64 array of the 2 ** k masks alone would take 8 bytes
        # per coalition.
        k = 20
        if kind == "quota":
            net = nets.quota_clique(k)
        else:
            trustees = [f"y{b}" for b in range(k)]
            slices = {"x0": tuple(frozenset(trustees[b : b + 5]) for b in range(0, k, 3))}
            net = TrustNetwork(("x0", *trustees), frozenset(trustees), {"x0": frozenset(trustees)}, slices)
        members = sorted(net.trust["x0"], key=net.nodes.index)
        tracemalloc.start()
        try:
            if kind == "quota":
                table = _quota_table(net, "x0", k)
            else:
                table = _slices_table(net, "x0", members)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if kind == "quota":
            assert len(table) == 1 << k
            assert peak < 4 * (1 << k)
        else:
            assert table.bit_length() == 1 << k  # the full coalition wins
            assert peak < 1 << k

    def test_budget(self):
        net = QuotaNetwork(
            nodes=tuple(f"x{k}" for k in range(30)),
            byzantine=frozenset(),
            trust={f"x{k}": frozenset(f"x{j}" for j in range(30)) for k in range(30)},
            quota={f"x{k}": Fraction(4, 5) for k in range(30)},
        )
        with pytest.raises(BudgetExceededError):
            banzhaf_row(net, "x0")

    def test_slices_budget_is_checked_before_the_table(self, monkeypatch):
        # 2 ** 25 coalitions: the trust set is refused before any table.
        trustees = [f"y{b}" for b in range(25)]
        slices = {"x0": (frozenset(trustees[:20]), frozenset(trustees[5:]))}
        net = TrustNetwork(("x0", *trustees), frozenset(trustees), {"x0": frozenset(trustees)}, slices)

        def no_table(*args):
            raise AssertionError("a winning table was built")

        monkeypatch.setattr(influence_mod, "_slices_table", no_table)
        with pytest.raises(BudgetExceededError, match="^node x0: trust set of 25 exceeds"):
            banzhaf_raw_row(net, "x0")

    def test_byzantine_node_rejected(self):
        with pytest.raises(ValueError):
            banzhaf_row(nets.shared_five(byz="5"), "5")


class TestInfluenceMatrix:
    def test_shared_five_rows_identical(self):
        m = influence_matrix(nets.shared_five())
        expected = (Fraction(1, 5),) * 5 + (Fraction(0),)
        assert all(row == expected for row in m.entries)

    def test_byzantine_variant_rows(self):
        m = influence_matrix(nets.shared_five(byz="5"))
        expected = (Fraction(1, 5),) * 5 + (Fraction(0),)
        for node in "12346":
            assert m.row(node) == expected
        assert m.row("5") == (0, 0, 0, 0, 1, 0)

    def test_self_dictators_give_identity(self):
        nodes = tuple("abc")
        net = TrustNetwork(
            nodes,
            frozenset(),
            {n: frozenset({n}) for n in nodes},
            {n: (frozenset({n}),) for n in nodes},
        )
        m = influence_matrix(net)
        assert m.entries == tuple(
            tuple(Fraction(1 if a == b else 0) for b in nodes) for a in nodes
        )

    def test_rows_sum_to_one_exactly(self):
        rng = random.Random(13)
        for trial in range(15):
            net = oracles.random_explicit_net(rng, rng.randint(2, 5), byz_count=rng.randint(0, 2))
            m = influence_matrix(net)
            assert all(sum(row, Fraction(0)) == 1 for row in m.entries)

    def test_zero_power_game_rejected(self):
        # An empty coalition "wins", so nobody is ever pivotal.
        net = TrustNetwork(
            nodes=("a",),
            byzantine=frozenset(),
            trust={"a": frozenset("a")},
            slices={"a": (frozenset(),)},
        )
        with pytest.raises(ValueError, match="degenerate"):
            influence_matrix(net)


class TestSharedGames:
    """``influence_matrix`` solves each distinct game once and shares its row.

    A node's game is its trust set plus its threshold or its set of
    slices; every row must still be the node's own ``banzhaf_row``.
    """

    def test_seeded_rows_are_each_nodes_own(self):
        for topology in ("clique", "overlapping-groups", "centralised"):
            for byz in (0, 1, 2):
                net = random_quota_network(GenParams(10, 7, Fraction(3, 4), byz, 41 + byz, topology))
                for variant in (net, expand_quota_network(net)):
                    m = influence_matrix(variant)
                    for i, row in zip(variant.nodes, m.entries):
                        if i not in variant.byzantine:
                            assert row == banzhaf_row(variant, i), (topology, byz, i)

    def test_equal_trust_different_slices(self):
        # a and c play one game (their slices in another order); b needs
        # the whole trust set, so its row differs although its trust does not.
        trust = frozenset("abc")
        net = TrustNetwork(
            nodes=tuple("abcd"),
            byzantine=frozenset("d"),
            trust={n: trust for n in "abc"},
            slices={
                "a": (frozenset("ab"), frozenset("c")),
                "b": (trust,),
                "c": (frozenset("c"), frozenset("ab")),
            },
        )
        m = influence_matrix(net)
        for node in "abc":
            assert m.row(node) == banzhaf_row(net, node)
        assert m.row("a") == (Fraction(1, 5), Fraction(1, 5), Fraction(3, 5), 0)
        assert m.row("b") == (Fraction(1, 3),) * 3 + (0,)
        assert m.row("a") is m.row("c")

    def test_equal_trust_different_thresholds(self):
        # Normalised quota rows are uniform over the trust set whatever the
        # threshold, but the games differ: threshold 0 lets the empty
        # coalition win, so b's game is degenerate and a's is not.
        trust = frozenset("abcde")
        net = QuotaNetwork(
            nodes=tuple("abcde"),
            byzantine=frozenset("cde"),
            trust={"a": trust, "b": trust},
            quota={"a": Fraction(3, 5), "b": Fraction(0)},
        )
        assert banzhaf_raw_row(net, "a") != banzhaf_raw_row(net, "b")
        with pytest.raises(ValueError, match="node b: degenerate"):
            influence_matrix(net)
        net = QuotaNetwork(net.nodes, net.byzantine, net.trust, {"a": Fraction(3, 5), "b": Fraction(1)})
        m = influence_matrix(net)
        assert banzhaf_raw_row(net, "a") != banzhaf_raw_row(net, "b")
        assert m.row("a") == banzhaf_row(net, "a") == (Fraction(1, 5),) * 5
        assert m.row("b") == banzhaf_row(net, "b")

    def test_budget_names_the_first_node_over_it(self):
        # z comes before a in node order but after it by label; both trust
        # 25 nodes, more than the budget of 24.
        wide = frozenset(f"y{k}" for k in range(25))
        net = QuotaNetwork(
            nodes=("m", "z", "a", *sorted(wide)),
            byzantine=wide,
            trust={"m": frozenset("mza"), "z": wide, "a": wide - {"y0"} | {"m"}},
            quota={n: Fraction(3, 4) for n in "mza"},
        )
        with pytest.raises(BudgetExceededError, match="^node z: trust set of 25 .* of 24$"):
            influence_matrix(net)


class TestAnalyzeGraph:
    def test_shared_five_components(self):
        g = analyze_graph(influence_matrix(nets.shared_five()))
        comps = {s: (c, p) for s, c, p in zip(g.sccs, g.closed, g.periods)}
        assert comps[frozenset("12345")] == (True, 1)
        assert comps[frozenset("6")] == (False, 0)

    def test_byzantine_variant_closed_component(self):
        g = analyze_graph(influence_matrix(nets.shared_five(byz="5")))
        assert g.closed_sccs() == (frozenset("5"),)

    def test_identity_matrix_components(self):
        order = tuple("abc")
        m = InfluenceMatrix(
            order,
            tuple(tuple(Fraction(1 if a == b else 0) for b in order) for a in order),
        )
        g = analyze_graph(m)
        assert len(g.sccs) == 3
        assert all(g.closed) and all(p == 1 for p in g.periods)


class TestLimitMatrix:
    def test_shared_five_idempotent(self):
        m = influence_matrix(nets.shared_five())
        assert oracles.is_idempotent_exact(m)
        report = limit_matrix(m)
        assert report.classification == "fully-regular"
        assert report.limit == m.entries

    def test_byzantine_variant_limit(self):
        m = influence_matrix(nets.shared_five(byz="5"))
        report = limit_matrix(m)
        assert report.classification == "fully-regular"
        mask = report.structural_zero_mask
        for a in range(len(m.order)):
            for b, j in enumerate(m.order):
                assert report.limit[a][b] == (1 if j == "5" else 0)
                assert mask[a][b] == (j != "5")

    def test_two_cycle_is_not_regular(self):
        m = InfluenceMatrix(
            ("a", "b"),
            ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
        )
        report = limit_matrix(m)
        assert report.classification == "not-regular"
        assert report.limit is None and report.structural_zero_mask is None

    def test_powers_stay_row_stochastic(self):
        rng = random.Random(17)
        for trial in range(10):
            net = oracles.random_explicit_net(rng, rng.randint(2, 5), byz_count=rng.randint(0, 1))
            m = influence_matrix(net)
            power = oracles.as_float(m)
            for _ in range(12):
                power = power @ power
                assert np.max(np.abs(power.sum(axis=1) - 1.0)) < 1e-12

    def test_fully_regular_rows_agree(self):
        rng = random.Random(19)
        seen = 0
        for trial in range(20):
            net = random_quota_network(
                GenParams(rng.randint(5, 8), 5, Fraction(4, 5), rng.randint(0, 1), seed=trial, topology="centralised")
            )
            report = limit_matrix(influence_matrix(net))
            if report.classification != "fully-regular":
                continue
            seen += 1
            assert len(set(report.limit)) == 1
        assert seen >= 10

    def test_exact_square_of_idempotent(self):
        m = influence_matrix(nets.shared_five())
        assert oracles.multiply_exact(m, m).entries == m.entries



def separate_rows(m: InfluenceMatrix) -> InfluenceMatrix:
    """``m`` with every row rebuilt as its own tuple object, equal rows included."""
    return InfluenceMatrix(m.order, tuple(tuple(list(row)) for row in m.entries))


def distinct_rows(rows) -> int:
    return len({id(row) for row in rows})


def assert_one_system(m: InfluenceMatrix) -> str:
    """``limit_matrix`` equals the one-system solve on ``m`` and on ``separate_rows(m)``."""
    for variant in (m, separate_rows(m)):
        report = limit_matrix(variant)
        expected = oracles.limit_by_one_system(variant)
        assert report.classification == expected.classification
        assert report.limit == expected.limit
        assert report.structural_zero_mask == expected.structural_zero_mask
    return report.classification


def quota_matrices():
    """Seeded quota networks of all three topologies with 0 to 3 Byzantine nodes."""
    rng = random.Random(31)
    for topology in ("clique", "overlapping-groups", "centralised"):
        for byz in range(4):
            for seed in range(6):
                params = GenParams(rng.randint(6, 16), rng.randint(4, 9), Fraction(3, 4), byz, seed, topology)
                try:
                    yield influence_matrix(random_quota_network(params))
                except ValueError:
                    continue


def shared_game_matrices(seed: int, count: int):
    """Random explicit networks whose honest nodes draw from a few slice families.

    Unlike quota rows, which are uniform over the trust set, these shared
    rows are not uniform.
    """
    rng = random.Random(seed)
    for _ in range(count):
        base = oracles.random_explicit_net(rng, rng.randint(4, 9), byz_count=rng.randint(0, 2))
        families = [base.slices[i] for i in base.honest][: rng.randint(1, 3)]
        slices = {i: rng.choice(families) for i in base.honest}
        trust = {i: frozenset().union(*family) for i, family in slices.items()}
        yield influence_matrix(TrustNetwork(base.nodes, base.byzantine, trust, slices))


def large_matrix(topology: str) -> InfluenceMatrix:
    return influence_matrix(random_quota_network(GenParams(100, 10, Fraction(3, 4), 2, 1, topology)))


class TestExactLimit:
    """The solved limit against its defining equations, the float squaring
    and the one-system solve.

    ``m·L``, ``L·m`` and ``L·L`` must all equal ``L`` exactly.
    """

    def check(self, m: InfluenceMatrix) -> str:
        assert_one_system(m)
        report = limit_matrix(m)
        if report.limit is None:
            return report.classification
        limit = InfluenceMatrix(m.order, report.limit)
        assert oracles.multiply_exact(m, limit).entries == report.limit
        assert oracles.multiply_exact(limit, m).entries == report.limit
        assert oracles.is_idempotent_exact(limit)
        assert all(sum(row, Fraction(0)) == 1 for row in report.limit)
        gap = np.max(np.abs(oracles.as_float(limit) - oracles.limit_by_squaring(m)))
        assert gap < 1e-9
        assert report.structural_zero_mask == tuple(
            tuple(x == 0 for x in row) for row in report.limit
        )
        assert (report.classification == "fully-regular") == (len(set(report.limit)) == 1)
        return report.classification

    def test_random_explicit_networks(self):
        rng = random.Random(23)
        seen = {"fully-regular": 0, "regular": 0, "not-regular": 0}
        for _ in range(320):
            net = oracles.random_explicit_net(rng, rng.randint(2, 8), byz_count=rng.randint(0, 2))
            seen[self.check(influence_matrix(net))] += 1
        assert seen["fully-regular"] >= 100 and seen["regular"] >= 100

    def test_seeded_quota_networks(self):
        seen = {"fully-regular": 0, "regular": 0, "not-regular": 0}
        for net in oracles.seeded_quota_networks(29, 80, max_nodes=10):
            seen[self.check(influence_matrix(net))] += 1
        assert seen["fully-regular"] >= 20 and seen["regular"] >= 20


class TestLumpedLimit:
    """``limit_matrix``, one unknown per distinct row, against the one-system solve.

    ``TestExactLimit`` makes the same comparison on its random networks.
    """

    def test_shared_slice_families(self):
        seen = {"fully-regular": 0, "regular": 0, "not-regular": 0}
        for m in shared_game_matrices(37, 300):
            seen[assert_one_system(m)] += 1
        assert seen["fully-regular"] >= 50 and seen["regular"] >= 50

    def test_seeded_quota_networks(self):
        seen = {"fully-regular": 0, "regular": 0, "not-regular": 0}
        shared = 0
        for m in quota_matrices():
            seen[assert_one_system(m)] += 1
            shared += distinct_rows(m.entries) < len(m.order)
        assert seen["fully-regular"] >= 10 and seen["regular"] >= 10 and shared >= 40

    @pytest.mark.parametrize("topology", ["clique", "overlapping-groups"])
    def test_hundred_nodes(self, topology):
        m = large_matrix(topology)
        assert assert_one_system(m) == "regular"
        assert distinct_rows(m.entries) < len(m.order)


class TestLimitWork:
    """Each system has one row per distinct row object, never one per node.

    No timing: ``_solve`` is wrapped to record the size of every system.
    """

    @pytest.fixture
    def sizes(self, monkeypatch):
        recorded = []
        solve = influence_mod._solve

        def counted(rows, width):
            recorded.append(len(rows))
            return solve(rows, width)

        monkeypatch.setattr(influence_mod, "_solve", counted)
        return recorded

    @staticmethod
    def expected(m: InfluenceMatrix) -> tuple[list[int], int]:
        """The size of each system, and the number of distinct limit row objects."""
        graph = analyze_graph(m)
        index = {x: k for k, x in enumerate(m.order)}
        classes = [[index[x] for x in scc] for scc in graph.closed_sccs()]
        sizes = [distinct_rows(m.entries[v] for v in members) for members in classes]
        transient = set(range(len(m.order))).difference(*classes)
        if len(classes) == 1 or not transient:
            return sizes, len(classes)
        groups = distinct_rows(m.entries[v] for v in transient)
        return sizes + [groups], len(classes) + groups

    def test_one_unknown_per_distinct_row(self, sizes):
        matrices = [
            *quota_matrices(),
            *shared_game_matrices(41, 100),
            large_matrix("clique"),
            large_matrix("overlapping-groups"),
        ]
        for m in matrices:
            sizes.clear()
            report = limit_matrix(m)
            if report.limit is not None:
                assert (sizes, distinct_rows(report.limit)) == self.expected(m)
        # The 100-node groups network, 2 Byzantine: a closed class of 10 nodes
        # and two Byzantine ones, then 88 transient nodes in 18 games.
        assert sizes == [1, 1, 1, 18]

    def test_all_distinct_rows_cost_the_one_system_solve(self, sizes):
        m = influence_matrix(random_quota_network(GenParams(40, 10, Fraction(3, 4), 2, 1, "centralised")))
        assert distinct_rows(m.entries) == len(m.order)
        limit_matrix(m)
        lumped = sizes[:]
        sizes.clear()
        oracles.limit_by_one_system(m)
        assert lumped == sizes == [1, 1, 38]

    def test_rows_are_shared_per_game(self):
        for topology in ("clique", "overlapping-groups"):
            net = random_quota_network(GenParams(30, 8, Fraction(3, 4), 2, 5, topology))
            m = influence_matrix(net)
            honest = [k for k, i in enumerate(net.nodes) if i not in net.byzantine]
            for a in honest:
                for b in honest:
                    same_game = net.trust[net.nodes[a]] == net.trust[net.nodes[b]]
                    assert (m.entries[a] is m.entries[b]) == same_game

    def test_fully_regular_limit_is_one_row_object(self):
        m = influence_matrix(random_quota_network(GenParams(30, 8, Fraction(3, 4), 0, 5, "clique")))
        report = limit_matrix(m)
        assert report.classification == "fully-regular"
        assert all(row is report.limit[0] for row in report.limit)
        assert all(row is report.structural_zero_mask[0] for row in report.structural_zero_mask)


class TestCentralizationReport:
    def test_all_honest_shared_five(self):
        report = centralization_limit_report(nets.shared_five())
        assert report.common_trust == frozenset("12345")
        assert report.regular_ok
        assert report.fully_regular_applicable and report.fully_regular_ok
        assert not report.byzantine_reaches_core
        assert report.honest_influence_vanishes is None

    def test_byzantine_variant_all_claims(self):
        report = centralization_limit_report(nets.shared_five(byz="5"))
        assert report.regular_ok
        assert report.fully_regular_applicable and report.fully_regular_ok
        assert report.byzantine_reaches_core
        assert report.honest_influence_vanishes is True

    def test_two_byzantine_core_trusted(self):
        # Two Byzantine nodes, each trusted by core nodes: the limit exists
        # but rows differ, and honest-to-honest influence vanishes.
        net = random_quota_network(
            GenParams(8, 6, Fraction(3, 4), byzantine_count=2, seed=5, topology="centralised")
        )
        report = centralization_limit_report(net)
        assert report.regular_ok
        assert not report.fully_regular_applicable
        assert report.byzantine_reaches_core
        assert report.honest_influence_vanishes is True
        limit = report.limit.limit
        index = {n: k for k, n in enumerate(report.matrix.order)}
        for i in net.honest:
            for j in net.honest:
                assert limit[index[i]][index[j]] == 0

    def test_hypothesis_required(self):
        net = QuotaNetwork(
            nodes=("a", "b", "c", "d"),
            byzantine=frozenset(),
            trust={
                "a": frozenset("ab"),
                "b": frozenset("ab"),
                "c": frozenset("cd"),
                "d": frozenset("cd"),
            },
            quota={n: Fraction(3, 4) for n in "abcd"},
        )
        with pytest.raises(ValueError, match="trusted by every honest node"):
            centralization_limit_report(net)
