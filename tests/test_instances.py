"""DIMACS parsing, the SAT oracle, reductions, and random generation."""

import random
from fractions import Fraction

import pytest

import oracles
from quorumlens import (
    Cnf,
    DimacsError,
    GenParams,
    brute_sat,
    check_overlap_bounds,
    check_quorum_intersection,
    check_slice_addition,
    cnf_to_network,
    common_trust_set,
    decode_qi_witness,
    network_violations,
    parse_dimacs,
    random_quota_network,
    satisfies,
    serialize_dimacs,
    slice_addition_instance,
)


class TestDimacs:
    def test_single_literal_padded(self):
        cnf = parse_dimacs("p cnf 1 1\n1 0")
        assert cnf.num_vars == 1
        assert cnf.clauses == ((1, 1, 1),)

    def test_two_literal_padded(self):
        cnf = parse_dimacs("p cnf 2 2\n1 2 0\n-1 -2 0")
        assert cnf.clauses == ((1, 2, 2), (-1, -2, -2))

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsError, match="out of range"):
            parse_dimacs("p cnf 1 1\n1 2 0")

    def test_malformed_header(self):
        with pytest.raises(DimacsError, match="header"):
            parse_dimacs("p dnf 1 1\n1 0")

    @pytest.mark.parametrize("header", ["p cnf -3 -1", "p cnf -1 0", "p cnf 2 -1"])
    def test_negative_header_counts_rejected(self, header):
        with pytest.raises(DimacsError, match=f"line 2: negative count in header '{header}'"):
            parse_dimacs(f"c comment\n{header}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p cnf 1 1\np cnf 1 1\n1 0", "line 2: duplicate header"),
            ("1 0\np cnf 1 1", "line 1: clause before header"),
            ("p cnf 2 1\n1 two 0", "line 2: bad token 'two'"),
            ("p cnf 1 1\n1 0 0", "line 2: empty clause"),
            ("p cnf 2 1\n1 -2", "unterminated clause at end of input"),
            ("c no header\n", "missing header"),
            ("p cnf 1\n1 0", "line 1: malformed header 'p cnf 1'"),
            ("p cnf one 1\n1 0", "line 1: malformed header 'p cnf one 1'"),
        ],
    )
    def test_parse_errors(self, text, message):
        with pytest.raises(DimacsError) as exc:
            parse_dimacs(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "clause, message",
        [
            ((1, 2), "clause (1, 2) does not have exactly 3 literals"),
            ((1, 2, 2, 1), "clause (1, 2, 2, 1) does not have exactly 3 literals"),
            ((1, 3, 2), "literal 3 out of range for 2 variables"),
            ((1, 0, 2), "literal 0 out of range for 2 variables"),
            ((-3, 1, 2), "literal -3 out of range for 2 variables"),
        ],
    )
    def test_cnf_rejects_bad_clauses(self, clause, message):
        with pytest.raises(ValueError) as exc:
            Cnf(2, ((1, 2, -1), clause))
        assert str(exc.value) == message

    def test_negative_variable_count_rejected(self):
        with pytest.raises(ValueError, match="negative variable count -3"):
            Cnf(-3, ())
        assert Cnf(0, ()).clauses == ()

    def test_four_literals_rejected(self):
        with pytest.raises(DimacsError, match="3"):
            parse_dimacs("p cnf 4 1\n1 2 3 4 0")

    def test_count_mismatch_warns(self):
        with pytest.warns(UserWarning, match="declares"):
            parse_dimacs("p cnf 1 5\n1 0")

    def test_comments_and_multiline_clauses(self):
        cnf = parse_dimacs("c header comment\np cnf 2 1\n1\n-2 0")
        assert cnf.clauses == ((1, -2, -2),)

    def test_roundtrip_identity(self):
        rng = random.Random(3)
        for trial in range(20):
            cnf = oracles.random_cnf(rng, rng.randint(1, 5), rng.randint(1, 8))
            assert parse_dimacs(serialize_dimacs(cnf)) == cnf


class TestBruteSat:
    def test_positive_unit(self):
        assert brute_sat(Cnf(1, ((1, 1, 1),))) == {1: True}

    def test_contradiction(self):
        assert brute_sat(Cnf(1, ((1, 1, 1), (-1, -1, -1)))) is None

    def test_first_model_is_lexicographic(self):
        # (x1 or x2): all-false fails, so x1=0, x2=1 comes first.
        assert brute_sat(Cnf(2, ((1, 2, 2),))) == {1: False, 2: True}

    def test_models_satisfy_every_clause(self):
        rng = random.Random(5)
        seen_sat = seen_unsat = 0
        for trial in range(60):
            cnf = oracles.random_cnf(rng, rng.randint(1, 5), rng.randint(1, 12))
            model = brute_sat(cnf)
            if model is None:
                seen_unsat += 1
                for bits in range(1 << cnf.num_vars):
                    assignment = {
                        v: bool((bits >> (v - 1)) & 1) for v in range(1, cnf.num_vars + 1)
                    }
                    assert not satisfies(cnf, assignment)
            else:
                seen_sat += 1
                assert satisfies(cnf, model)
        assert seen_sat >= 10 and seen_unsat >= 5

    def test_fixed_variables(self):
        cnf = Cnf(2, ((1, 2, 2),))
        assert brute_sat(cnf, fixed={1: True}) == {1: True, 2: False}
        assert brute_sat(Cnf(1, ((1, 1, 1),)), fixed={1: False}) is None

    def test_budget(self):
        from quorumlens import BudgetExceededError

        with pytest.raises(BudgetExceededError, match="budget"):
            brute_sat(Cnf(30, ((1, 2, 3),)), max_vars=24)


class TestReduction:
    def test_single_clause_network_shape(self):
        net = cnf_to_network(Cnf(1, ((1, 1, 1),)))
        assert len(net.nodes) == 6  # 2 anchors + 1 clause + 3 per variable
        assert network_violations(net) == []

    def test_node_and_slice_counts(self):
        rng = random.Random(7)
        for trial in range(15):
            n, m = rng.randint(1, 5), rng.randint(1, 8)
            cnf = oracles.random_cnf(rng, n, m)
            net = cnf_to_network(cnf)
            assert len(net.nodes) == 2 + m + 3 * n
            total = sum(len(net.slices[i]) for i in net.honest)
            # Anchors contribute 2, variable nodes 2n, positive and negative
            # sides 2n each; clause nodes one coalition per distinct literal.
            clause_slices = sum(len(set(c)) for c in cnf.clauses)
            assert total == 2 + 2 * n + clause_slices + 4 * n

    def test_three_distinct_literals_give_three_slices_each(self):
        cnf = Cnf(3, ((1, 2, 3), (-1, -2, -3)))
        net = cnf_to_network(cnf)
        assert sum(len(net.slices[i]) for i in net.honest) == 2 + 2 * 3 + 3 * 2 + 4 * 3

    def test_satisfiable_formula_breaks_intersection(self):
        cnf = Cnf(1, ((1, 1, 1),))
        report = check_quorum_intersection(cnf_to_network(cnf), max_nodes=10)
        assert not report.holds
        assert set(report.witness) == {
            frozenset({"z1", "c1", "p1"}),
            frozenset({"z0", "y1", "n1"}),
        }

    def test_unsatisfiable_formula_keeps_intersection(self):
        cnf = Cnf(1, ((1, 1, 1), (-1, -1, -1)))
        assert check_quorum_intersection(cnf_to_network(cnf), max_nodes=10).holds

    def test_equivalence_and_witness_decoding(self):
        rng = random.Random(11)
        seen_sat = seen_unsat = 0
        for trial in range(40):
            cnf = oracles.random_cnf(rng, rng.randint(1, 4), rng.randint(1, 10))
            net = cnf_to_network(cnf)
            report = check_quorum_intersection(net, max_nodes=len(net.nodes))
            model = brute_sat(cnf)
            assert report.holds == (model is None), cnf
            if not report.holds:
                seen_sat += 1
                decoded = decode_qi_witness(cnf, report.witness)
                assert satisfies(cnf, decoded), (cnf, decoded)
            else:
                seen_unsat += 1
        assert seen_sat >= 10 and seen_unsat >= 5

    def test_witness_without_z0_is_rejected(self):
        cnf = Cnf(1, ((1, 1, 1),))
        with pytest.raises(ValueError, match="no side of the witness contains z0"):
            decode_qi_witness(cnf, (frozenset({"y1"}), frozenset({"n1"})))


class TestSliceAddition:
    def test_positive_unit_instance(self):
        cnf = Cnf(1, ((1, 1, 1),))
        base, node, extra = slice_addition_instance(cnf)
        assert (node, extra) == ("y1", frozenset({"y1", "n1"}))
        assert check_quorum_intersection(base, max_nodes=10).holds
        report = check_slice_addition(base, node, extra, max_nodes=10)
        assert not report.holds  # formula satisfiable, addition reopens the split

    def test_unsatisfiable_formula_preserves_intersection(self):
        cnf = Cnf(1, ((1, 1, 1), (-1, -1, -1)))
        base, node, extra = slice_addition_instance(cnf)
        assert check_slice_addition(base, node, extra, max_nodes=10).holds

    def test_premise_checked_not_assumed(self):
        with pytest.raises(ValueError, match="premise"):
            slice_addition_instance(Cnf(1, ((-1, -1, -1),)))

    def test_formula_without_variables_is_rejected(self):
        with pytest.raises(ValueError, match="formula has no variables"):
            slice_addition_instance(Cnf(0, ()))

    def test_random_eligible_formulas(self):
        rng = random.Random(13)
        checked = broke = kept = 0
        while checked < 20:
            raw = oracles.random_cnf(rng, rng.randint(1, 4), rng.randint(1, 8))
            cnf = Cnf(raw.num_vars, raw.clauses + ((1, 1, 1),))  # force x1 true
            base, node, extra = slice_addition_instance(cnf)
            checked += 1
            report = check_slice_addition(base, node, extra, max_nodes=len(base.nodes))
            unsat = brute_sat(cnf) is None
            assert report.holds == unsat, cnf
            broke += not report.holds
            kept += report.holds
        assert broke >= 5 and kept >= 2


class TestRandomQuotaNetwork:
    def test_deterministic_for_seed(self):
        params = GenParams(9, 5, Fraction(4, 5), 2, seed=42, topology="centralised")
        assert random_quota_network(params) == random_quota_network(params)

    def test_different_seed_differs(self):
        a = random_quota_network(GenParams(9, 5, Fraction(4, 5), 0, seed=1))
        b = random_quota_network(GenParams(9, 5, Fraction(4, 5), 0, seed=2))
        assert a != b

    def test_centralised_has_common_trust(self):
        for seed in range(10):
            net = random_quota_network(
                GenParams(8, 5, Fraction(4, 5), byzantine_count=seed % 3, seed=seed, topology="centralised")
            )
            assert common_trust_set(net)
            assert network_violations(net) == []

    def test_disjoint_groups_fail_overlap_bounds(self):
        net = random_quota_network(
            GenParams(8, 4, Fraction(3, 4), seed=3, topology="overlapping-groups", overlap=0.0)
        )
        reports = check_overlap_bounds(net)
        assert any(not r.satisfies for r in reports)

    def test_clique_shares_one_trust_set(self):
        net = random_quota_network(GenParams(7, 5, Fraction(4, 5), seed=9, topology="clique"))
        assert len({net.trust[i] for i in net.honest}) == 1

    def test_infeasible_parameters(self):
        with pytest.raises(ValueError):
            random_quota_network(GenParams(4, 5, Fraction(4, 5)))
        with pytest.raises(ValueError):
            random_quota_network(GenParams(6, 3, Fraction(2, 5)))
        with pytest.raises(ValueError):
            random_quota_network(GenParams(6, 3, Fraction(4, 5), byzantine_count=6))
        with pytest.raises(ValueError):
            random_quota_network(GenParams(8, 3, Fraction(4, 5), byzantine_count=3, topology="centralised"))

    @pytest.mark.parametrize(
        "params, message",
        [
            # Six nodes of which four are Byzantine leave 2 honest nodes
            # for a core of trust_size // 2 = 3.
            (GenParams(6, 6, Fraction(4, 5), byzantine_count=4, topology="centralised"),
             "not enough honest nodes for the core"),
            (GenParams(6, 3, Fraction(4, 5), topology="ring"), "unknown topology 'ring'"),
        ],
    )
    def test_infeasible_parameter_messages(self, params, message):
        with pytest.raises(ValueError) as caught:
            random_quota_network(params)
        assert caught.value.args == (message,)
