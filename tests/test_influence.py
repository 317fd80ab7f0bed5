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
    is_idempotent_exact,
    limit_matrix,
    random_quota_network,
    threshold,
)
from quorumlens.influence import _winning_table, multiply_exact


def quota_clique(size: int, byz: int = 0) -> QuotaNetwork:
    """``size`` nodes that all trust all, quota 4/5; the last ``byz`` are Byzantine."""
    nodes = tuple(f"x{k}" for k in range(size))
    honest = nodes[: size - byz]
    return QuotaNetwork(
        nodes=nodes,
        byzantine=frozenset(nodes[size - byz :]),
        trust={n: frozenset(nodes) for n in honest},
        quota={n: Fraction(4, 5) for n in honest},
    )


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

    @pytest.mark.parametrize("size", [14, 16])
    @pytest.mark.parametrize("byz", [0, 2])
    def test_expanded_quota_rows_match_the_closed_form(self, size, byz):
        # Beyond the global oracle's reach: a quota game is symmetric in its
        # trustees, so each raw index is C(s - 1, t - 1) / 2 ** (s - 1).
        net = quota_clique(size, byz)
        expanded = expand_quota_network(net)
        t = threshold(net, "x0")
        assert len(expanded.slices["x0"]) == math.comb(size, t)
        closed = Fraction(math.comb(size - 1, t - 1), 2 ** (size - 1))
        raw = banzhaf_raw_row(net, "x0")
        assert raw == (closed,) * size
        assert banzhaf_raw_row(expanded, "x0") == raw

    @pytest.mark.parametrize("kind", ["quota", "slices"])
    def test_winning_table_memory(self, kind):
        # One byte per coalition and a few passes over it; an int64 array
        # of the 2 ** k masks alone would take 8 bytes per coalition.
        k = 20
        if kind == "quota":
            net = quota_clique(k)
        else:
            trustees = [f"y{b}" for b in range(k)]
            slices = {"x0": tuple(frozenset(trustees[b : b + 5]) for b in range(0, k, 3))}
            net = TrustNetwork(("x0", *trustees), frozenset(trustees), {"x0": frozenset(trustees)}, slices)
        members = sorted(net.trust["x0"], key=net.nodes.index)
        tracemalloc.start()
        try:
            table = _winning_table(net, "x0", members)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 1 << k
        assert peak < 4 * (1 << k)

    def test_budget(self):
        net = QuotaNetwork(
            nodes=tuple(f"x{k}" for k in range(30)),
            byzantine=frozenset(),
            trust={f"x{k}": frozenset(f"x{j}" for j in range(30)) for k in range(30)},
            quota={f"x{k}": Fraction(4, 5) for k in range(30)},
        )
        with pytest.raises(BudgetExceededError):
            banzhaf_row(net, "x0")

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
            frozenset(),
        )
        g = analyze_graph(m)
        assert len(g.sccs) == 3
        assert all(g.closed) and all(p == 1 for p in g.periods)


class TestLimitMatrix:
    def test_shared_five_idempotent(self):
        m = influence_matrix(nets.shared_five())
        assert is_idempotent_exact(m)
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
            frozenset(),
        )
        report = limit_matrix(m)
        assert report.classification == "not-regular"
        assert report.limit is None and report.structural_zero_mask is None

    def test_powers_stay_row_stochastic(self):
        rng = random.Random(17)
        for trial in range(10):
            net = oracles.random_explicit_net(rng, rng.randint(2, 5), byz_count=rng.randint(0, 1))
            m = influence_matrix(net)
            power = m.as_float()
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
        assert multiply_exact(m, m).entries == m.entries



class TestExactLimit:
    """The solved limit against its defining equations and the float squaring."""

    def check(self, m: InfluenceMatrix) -> str:
        report = limit_matrix(m)
        if report.limit is None:
            return report.classification
        limit = InfluenceMatrix(m.order, report.limit, m.byzantine_rows)
        assert multiply_exact(m, limit).entries == report.limit
        assert multiply_exact(limit, m).entries == report.limit
        assert all(sum(row, Fraction(0)) == 1 for row in report.limit)
        gap = np.max(np.abs(limit.as_float() - oracles.limit_by_squaring(m)))
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
