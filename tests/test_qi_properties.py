"""Property checks: the exact quorum-intersection searches against oracles.

Quota networks must reproduce the scalar split scan of
``oracles.first_split_witness`` exactly: verdict, witness and splits
examined. Explicit-slice networks must agree with it and with pair
enumeration on the verdict, and every witness must be two quora that
share no node (no honest node, for the honest check). They must also
reproduce the scalar generated-quorum search of
``oracles.first_generated_witness`` exactly: verdict, witness, quora
examined and the state budget at which the search gives up. The library
carries each search state's largest complement quorum down the search,
so those inputs include witnesses at several depths of generation order
and networks of more than 64 nodes. The library and the oracle both
drop every branching state whose complement holds no counted quorum;
against the oracle's uncut search, the library must keep the verdict
and witness and judge no more quora. Every slices search grows each quorum from its lowest seed alone,
and a slice addition is the full check on the extended network: the
addition must refuse exactly the bases that pair enumeration finds
split, slices ``minimal_quora`` must equal the oracle's and, on the
18-node expanded 3/4 clique past any node count, the closed form.
Unsatisfiable reductions of 10 and 16 variables, and the slice addition
that restores the first, must be decided within a few hundred and 1,377
states, and one of 20 variables within the default state budget.
Every valid network these checks generate is its own largest quorum,
which is why the searches pool every node and need no largest quorum.

The quota split scan works up to twin symmetry, so it is also checked on
networks with large twin classes: the twin classes against brute-force
swaps and the split scan against the scalar scan. Twin-free networks
with witnesses past split code 64 check the scan bit by bit, uniform
cliques of up to 100 nodes check it against the closed form, and a
twin-free pool of 20 nodes bounds its memory. ``minimal_quora`` of a
quota network reads the same table over the twin classes of the honest
nodes. It is checked against the minimal sets of every quorum on
networks with and without twins of up to 14 nodes, against the closed
form of a uniform clique at 16, 18 and 40 nodes, for its memory on a
twin-free 20-node ring, and for its listing budget.
"""

import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import nets
import oracles
import pytest
from quorumlens import (
    BudgetExceededError,
    GenParams,
    QuorumReport,
    QuotaNetwork,
    TrustNetwork,
    check_qi_honest,
    check_quorum_intersection,
    brute_sat,
    check_slice_addition,
    cnf_to_network,
    expand_quota_network,
    max_quorum_within,
    minimal_quora,
    network_violations,
    parse_dimacs,
    random_quota_network,
    slice_addition_instance,
    with_veto_slices,
)
from quorumlens.quorum import _iter_generated_quora, _QuorumView

DATA = Path(__file__).resolve().parent / "data"

QUOTAS = (Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5), Fraction(1))
TOPOLOGIES = ("clique", "overlapping-groups", "centralised")


def quota_nets(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.5:
            yield oracles.random_uniform_quota_net(
                rng,
                rng.randint(2, 9),
                rng.choice((Fraction(1, 2),) + QUOTAS),
                byz_count=rng.randint(0, 2),
                min_trust=1,
            )
        else:
            nodes = rng.randint(3, 9)
            params = GenParams(
                nodes,
                rng.randint(2, nodes),
                rng.choice(QUOTAS),
                rng.randint(0, 2),
                rng.randrange(10**6),
                rng.choice(TOPOLOGIES),
            )
            try:
                net = random_quota_network(params)
            except ValueError:
                continue  # infeasible combination, such as a core too large
            yield net


def slice_nets(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield oracles.random_explicit_net(
            rng,
            rng.randint(2, 9),
            max_slices=rng.randint(1, 4),
            max_slice_size=rng.randint(1, 4),
            byz_count=rng.randint(0, 2),
            vetoed=rng.random() < 0.2,
        )


def assert_witness(net, report, honest: bool):
    if report.holds:
        assert report.witness is None
        return
    q_a, q_b = report.witness
    assert oracles.largest_quorum_within(net, q_a) == q_a and q_a
    assert oracles.largest_quorum_within(net, q_b) == q_b and q_b
    shared = q_a & q_b
    if honest:
        assert q_a - net.byzantine and q_b - net.byzantine
        assert shared <= net.byzantine
    else:
        assert not shared


def assert_same_split_scan(net, honest: bool, check):
    """``check(net)`` reports the verdict, witness and count of the scalar scan."""
    report = check(net)
    examined, witness = oracles.first_split_witness(net, honest)
    assert (report.holds, report.witness, report.quora_examined) == (
        witness is None,
        witness,
        examined,
    ), net
    return report


def test_quota_searches_match_the_scalar_scan_and_pair_enumeration():
    seen = {False: [0, 0], True: [0, 0]}
    for net in quota_nets(83, 120):
        for honest, check, by_pairs in (
            (False, check_quorum_intersection, oracles.qi_by_pair_enumeration),
            (True, check_qi_honest, oracles.qi_honest_by_pair_enumeration),
        ):
            report = assert_same_split_scan(net, honest, check)
            assert report.holds == by_pairs(net), net
            assert_witness(net, report, honest)
            seen[honest][report.holds] += 1
    # Both verdicts occur often enough for the comparison to mean something.
    assert min(seen[False] + seen[True]) >= 10, seen


def test_slice_searches_match_the_oracles():
    seen = {False: [0, 0], True: [0, 0]}
    for net in slice_nets(89, 150):
        for honest, check, by_pairs in (
            (False, check_quorum_intersection, oracles.qi_by_pair_enumeration),
            (True, check_qi_honest, oracles.qi_honest_by_pair_enumeration),
        ):
            report = check(net)
            expected = by_pairs(net)
            assert report.holds == expected, net
            assert (oracles.first_split_witness(net, honest)[1] is None) == expected, net
            assert_witness(net, report, honest)
            seen[honest][report.holds] += 1
    assert min(seen[False] + seen[True]) >= 10, seen


def cnfs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        num_vars = rng.randint(3, 5)
        yield oracles.random_cnf(rng, num_vars, round(4.26 * num_vars))


def fixed_cnfs(picks):
    """``random_cnf(Random(seed), v, round(4.26 v))`` for each (v, seed) in ``picks``."""
    return [oracles.random_cnf(random.Random(seed), v, round(4.26 * v)) for v, seed in picks]


# Reductions whose witness is the 8th, 9th or 10th generated quorum:
# witnesses found after a run of quora that each leave no disjoint one,
# the latest of 480 checks over 4 and 5 variables and seeds 0-119.
BOUNDARY_CNFS = ((4, 86), (4, 91), (4, 36))
# 11 and 12 variables give 82 and 89 nodes (masks past 64 bits); each
# of these is satisfiable with a witness within the first 200 quora.
WIDE_CNFS = ((11, 7), (11, 10), (11, 34), (12, 7), (12, 25))


def assert_same_search(run, expected):
    """``run()`` reports ``expected`` and stops at its state count.

    A state budget of exactly the witness's state count trips at the next
    new state, after the witness is judged, so the report is unchanged;
    one state less trips before the witness is reached.
    """
    holds, witness, examined, states = expected
    report = run()
    assert (report.holds, report.witness, report.quora_examined) == (holds, witness, examined)
    if states:
        with nets.state_budget(states - 1), pytest.raises(BudgetExceededError):
            run()
        for budget in (states, states + 1):
            with nets.state_budget(budget):
                assert run() == report


def generated_search_nets():
    return list(slice_nets(107, 120)) + [
        cnf_to_network(cnf)
        for cnf in [*cnfs(109, 24), *fixed_cnfs(BOUNDARY_CNFS), *fixed_cnfs(WIDE_CNFS)]
    ]


def test_slice_searches_match_the_scalar_generated_search():
    nets = generated_search_nets()
    seen = {False: [0, 0], True: [0, 0]}
    witness_rows = set()
    for net in nets:
        for honest, check in ((False, check_quorum_intersection), (True, check_qi_honest)):
            expected = oracles.first_generated_witness(net, honest)

            def run(check=check, net=net):
                return check(net, max_nodes=len(net.nodes))

            assert_same_search(run, expected)
            seen[honest][expected[0]] += 1
            if not expected[0]:
                witness_rows.add(expected[2])
    assert min(seen[False] + seen[True]) >= 10, seen
    assert {1, 8, 9, 10} <= witness_rows
    assert max(len(net.nodes) for net in nets) > 64


def test_the_cut_keeps_the_verdict_and_witness_of_the_uncut_search():
    # A branching state whose complement holds no counted quorum is
    # dropped with its children; it could only grow quora judged the same.
    cut = {"fewer": 0, "same": 0}
    for net in generated_search_nets():
        for honest, check in ((False, check_quorum_intersection), (True, check_qi_honest)):
            holds, witness, examined, _ = oracles.first_generated_witness(net, honest, cut=False)
            report = check(net, max_nodes=len(net.nodes))
            assert (report.holds, report.witness) == (holds, witness), net
            assert report.quora_examined <= examined, net
            cut["fewer" if report.quora_examined < examined else "same"] += 1
    assert min(cut.values()) >= 10, cut


def test_generated_quora_carry_the_largest_quorum_of_their_complement():
    # Each generated quorum q comes with rest, the largest quorum of
    # full & ~(q & counted) whenever that holds a counted node, carried
    # down the search; a rest without one travels as 0. Restarting the
    # fixpoint from a quorum minus a set needs only that set's users.
    rng = random.Random(227)
    byzantine = [
        oracles.random_explicit_net(
            rng,
            rng.randint(4, 10),
            max_slices=rng.randint(1, 4),
            max_slice_size=rng.randint(1, 4),
            byz_count=rng.randint(1, 3),
        )
        for _ in range(60)
    ]
    reductions = [cnf_to_network(cnf) for cnf in [*cnfs(229, 12), *fixed_cnfs(WIDE_CNFS)]]
    seen = {"live": 0, "dead": 0, "byzantine in q": 0}
    for net in [*slice_nets(233, 80), *reductions, *byzantine]:
        view = _QuorumView(net)
        for counted in (view.full, view.honest_mask):
            quora = _iter_generated_quora(view, counted)
            for q, rest in itertools.islice(quora, 300):
                removed = q & counted
                expected = view.max_quorum(view.full & ~removed)
                assert bool(rest & counted) == bool(expected & counted), (net, q)
                if rest & counted:
                    assert rest == expected, (net, q)
                    seen["live"] += 1
                    seen["byzantine in q"] += bool(q & view.byz_mask & expected)
                else:
                    seen["dead"] += 1
                users = 0
                for k in range(len(view.order)):
                    if (removed >> k) & 1:
                        users |= view.users[k]
                assert view.max_quorum(view.full & ~removed, users) == expected, (net, q)
    assert min(seen.values()) >= 20, seen
    assert max(len(net.nodes) for net in reductions) > 64


def extended_network(base, node, new_slice):
    slices = dict(base.slices)
    slices[node] += (new_slice,)
    return TrustNetwork(base.nodes, base.byzantine, base.trust, slices)


def test_slice_addition_matches_the_scalar_generated_search():
    # The addition is the full check on the extended network; a violated
    # one then checks the base under the same budget.
    checked = {False: 0, True: 0}
    for cnf in cnfs(113, 40):
        try:
            base, node, new_slice = slice_addition_instance(cnf)
        except ValueError:
            continue  # the premise fails: the base lacks quorum intersection
        holds, witness, count, states = oracles.first_generated_witness(
            extended_network(base, node, new_slice)
        )
        if not holds:
            states = max(states, oracles.first_generated_witness(base)[3])

        def run(base=base, node=node, new_slice=new_slice):
            return check_slice_addition(base, node, new_slice, max_nodes=len(base.nodes))

        assert_same_search(run, (holds, witness, count, states))
        checked[holds] += 1
    assert min(checked.values()) >= 3, checked


def addition_base(cnf):
    """The base ``slice_addition_instance`` builds, also where its premise fails."""
    full = cnf_to_network(cnf)
    slices = dict(full.slices)
    slices["y1"] = tuple(s for s in slices["y1"] if s != frozenset({"y1", "n1"}))
    return TrustNetwork(full.nodes, full.byzantine, full.trust, slices)


def test_slice_addition_premise_matches_pair_enumeration():
    # The premise search grows each quorum from its lowest seed alone; it
    # must refuse exactly the bases that hold two disjoint quora.
    rng = random.Random(197)
    refused = {"slices": [0, 0], "cnf": [0, 0]}
    for net in slice_nets(193, 150):
        honest = [n for n in net.nodes if n not in net.byzantine and net.trust[n]]
        if not honest:
            continue
        node = rng.choice(honest)
        trust = sorted(net.trust[node])
        new_slice = frozenset(rng.sample(trust, rng.randint(1, len(trust))))
        sound = oracles.qi_by_pair_enumeration(net)
        refused["slices"][sound] += 1
        if not sound:
            with pytest.raises(ValueError, match="base network fails"):
                check_slice_addition(net, node, new_slice)
            continue
        report = check_slice_addition(net, node, new_slice)
        assert report.holds == oracles.qi_by_pair_enumeration(
            extended_network(net, node, new_slice)
        ), net
    satisfiable = set()
    formulas = [*cnfs(199, 16), *fixed_cnfs(((3, 5), (6, 0), (6, 2)))]
    for cnf in formulas:
        base = addition_base(cnf)
        sound = oracles.qi_by_minimal_pair_enumeration(base)
        refused["cnf"][sound] += 1
        satisfiable.add(brute_sat(cnf) is not None)
        run = functools.partial(check_slice_addition, base, "y1", frozenset({"y1", "n1"}))
        if not sound:
            with pytest.raises(ValueError, match="base network fails"):
                run(max_nodes=len(base.nodes))
            continue
        assert slice_addition_instance(cnf)[0] == base
        run(max_nodes=len(base.nodes))
    assert min(refused["slices"] + refused["cnf"]) >= 3, refused
    assert satisfiable == {False, True}
    assert {cnf.num_vars for cnf in formulas} == {3, 4, 5, 6}


def test_unsatisfiable_ten_variable_reduction_holds_within_a_small_budget():
    # 75 nodes; every minimal quorum is grown once, from its lowest
    # member, and there are 1,024 of them. The cut leaves 30 to judge,
    # in a few hundred states.
    (cnf,) = fixed_cnfs(((10, 11),))
    assert brute_sat(cnf) is None
    net = cnf_to_network(cnf)
    expected = oracles.first_generated_witness(net)
    assert expected == (True, None, 30, 445)
    assert oracles.first_generated_witness(net, cut=False)[2:] == (1024, 2269)

    def run():
        return check_quorum_intersection(net, max_nodes=len(net.nodes))

    assert_same_search(run, expected)


def test_unsatisfiable_ten_variable_addition_holds_within_a_small_budget():
    # Adding the slice back restores the reduction, so the addition
    # judges the same 30 quora as the full check on it.
    (cnf,) = fixed_cnfs(((10, 11),))
    base, node, new_slice = slice_addition_instance(cnf)
    with nets.state_budget(445):
        report = check_slice_addition(base, node, new_slice, max_nodes=len(base.nodes))
    assert report.holds and report.quora_examined == 30


def test_unsatisfiable_sixteen_variable_reduction_holds_within_1400_states():
    # 130 nodes and 2^16 minimal quora, of which the cut judges 6.
    cnf = oracles.random_3cnf(random.Random(0), 16, 80)
    net = cnf_to_network(cnf)
    expected = oracles.first_generated_witness(net)
    assert expected == (True, None, 6, 1377)

    def run():
        return check_quorum_intersection(net, max_nodes=len(net.nodes))

    assert_same_search(run, expected)


def test_unsatisfiable_twenty_variable_reduction_holds_within_the_default_budget():
    # 162 nodes and 2^20 minimal quora; without the cut the search
    # overruns the default 2,000,000 states.
    cnf = parse_dimacs((DATA / "random_3cnf_20_unsat.cnf").read_text())
    assert cnf == oracles.random_3cnf(random.Random(0), 20, 100)
    net = cnf_to_network(cnf)
    assert len(net.nodes) == 162
    for check in (check_quorum_intersection, check_qi_honest):
        assert check(net, max_nodes=162) == QuorumReport(True, None, 0)


def test_slices_minimal_quora_match_the_oracle():
    # Small networks check the oracle against every subset; reductions
    # of up to 46 nodes check the library against the oracle alone.
    for net in slice_nets(211, 80):
        quora = oracles.all_quora(net)
        expected = [q for q in quora if not any(o < q for o in quora)]
        assert oracles.generated_minimal_quora(net) == expected, net
        assert minimal_quora(net) == tuple(expected), net
    reductions = [cnf_to_network(cnf) for cnf in [*cnfs(223, 6), *fixed_cnfs(((6, 2),))]]
    for net in reductions:
        expected = tuple(oracles.generated_minimal_quora(net))
        assert minimal_quora(net) == expected
    assert max(len(net.nodes) for net in reductions) >= 31


@pytest.mark.filterwarnings("ignore::quorumlens.QuotaRangeWarning")
def test_every_valid_network_is_its_own_largest_quorum():
    # Every node of a valid network has a winning rule that the whole node
    # set meets, so the searches pool every node (every honest node, for
    # the honest check) and need no largest quorum of the network.
    kinds = {
        "seeded quota": generated_nets(151, 60, 3, 14),
        "random quota": quota_nets(157, 60),
        "random explicit": slice_nets(163, 80),
        "CNF reductions": [cnf_to_network(cnf) for cnf in [*cnfs(167, 20), *fixed_cnfs(WIDE_CNFS)]],
        "expansions": [expand_quota_network(net) for net in generated_nets(173, 20, 3, 8)],
        "vetoed copies": [with_veto_slices(net) for net in slice_nets(179, 30)],
    }
    seen = dict.fromkeys(kinds, 0)
    for kind, networks in kinds.items():
        for net in networks:
            if network_violations(net):
                continue
            assert oracles.largest_quorum_within(net, net.nodes) == frozenset(net.nodes), net
            seen[kind] += 1
    assert min(seen.values()) >= 20, seen


def test_largest_quorum_within_matches_the_oracle():
    rng = random.Random(127)
    vetoed = {QuotaNetwork: 0, TrustNetwork: 0}
    for net in itertools.chain(quota_nets(131, 80), slice_nets(137, 80)):
        vetoed[type(net)] += net.vetoed
        for _ in range(6):
            sample = rng.sample(list(net.nodes), rng.randint(0, len(net.nodes)))
            assert max_quorum_within(net, sample) == oracles.largest_quorum_within(net, sample), net
    assert min(vetoed.values()) >= 1, vetoed


# ---------------------------------------------------------------------------
# Twin classes: the quota scan judges one split per class count; minimal
# quora of quota networks, with and without twins


def planted_twin_nets(seed: int, count: int, max_nodes: int):
    """Quota networks whose nodes come in copies, in shuffled network order.

    Each node of a small random base network becomes a class of 1 to 5
    copies. A copy trusts every copy of what its original trusts, with the
    same quota, so the copies of one node are twins.
    """
    rng = random.Random(seed)
    made = 0
    while made < count:
        base = oracles.random_uniform_quota_net(
            rng,
            rng.randint(2, 5),
            rng.choice(QUOTAS),
            byz_count=rng.randint(0, 2),
            min_trust=1,
        )
        copies = {b: [f"{b}.{c}" for c in range(rng.randint(1, 5))] for b in base.nodes}
        nodes = [x for b in base.nodes for x in copies[b]]
        if len(nodes) > max_nodes:
            continue
        rng.shuffle(nodes)
        honest = [(b, x) for b in base.honest for x in copies[b]]
        made += 1
        yield QuotaNetwork(
            tuple(nodes),
            frozenset(x for b in base.byzantine for x in copies[b]),
            {x: frozenset(y for t in base.trust[b] for y in copies[t]) for b, x in honest},
            {x: base.quota[b] for b, x in honest},
        )


def generated_nets(seed: int, count: int, min_nodes: int, max_nodes: int, topologies=TOPOLOGIES):
    """``random_quota_network`` instances with 0 to 2 Byzantine nodes."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        nodes = rng.randint(min_nodes, max_nodes)
        params = GenParams(
            nodes,
            rng.randint(2, nodes),
            rng.choice(QUOTAS),
            rng.randint(0, 2),
            rng.randrange(10**6),
            rng.choice(topologies),
        )
        try:
            net = random_quota_network(params)
        except ValueError:
            continue  # infeasible combination, such as a core too large
        made += 1
        yield net


def largest_class(net) -> int:
    return max(len(members) for members in _QuorumView(net).twin_classes)


def test_twin_classes_are_exactly_the_swaps():
    rng = random.Random(139)
    nets = [
        *planted_twin_nets(149, 40, 8),
        *generated_nets(151, 40, 3, 8),
        *(
            oracles.random_uniform_quota_net(
                rng, rng.randint(2, 8), rng.choice(QUOTAS), byz_count=rng.randint(0, 2), min_trust=1
            )
            for _ in range(40)
        ),
    ]
    merged = 0
    for net in nets:
        classes = _QuorumView(net).twin_classes
        assert sorted(k for members in classes for k in members) == list(range(len(net.nodes)))
        assert all(members == sorted(members) for members in classes)
        assert [members[0] for members in classes] == sorted(members[0] for members in classes)
        label = {k: n for k, n in enumerate(net.nodes)}
        same = {frozenset({label[a], label[b]}) for members in classes for a in members for b in members}
        for a, b in itertools.combinations(net.nodes, 2):
            assert oracles.swap_is_automorphism(net, a, b) == (frozenset({a, b}) in same), (net, a, b)
        merged += len(classes) < len(net.nodes)
    assert merged >= 40, merged


def test_minimal_quora_of_quota_networks_match_all_quora():
    rng = random.Random(157)
    twin_free = [
        net for net in generated_nets(191, 30, 13, 14, ("centralised",)) if largest_class(net) == 1
    ]
    nets = [
        *planted_twin_nets(163, 40, 12),
        *generated_nets(167, 40, 5, 12),
        *(
            oracles.random_uniform_quota_net(
                rng, rng.randint(2, 10), rng.choice(QUOTAS), byz_count=rng.randint(0, 2), min_trust=1
            )
            for _ in range(20)
        ),
        *twin_free,
    ]
    for net in nets:
        quora = oracles.all_quora(net)
        expected = tuple(q for q in quora if not any(o < q for o in quora))
        assert minimal_quora(net) == expected, net
    assert sum(largest_class(net) >= 4 for net in nets) >= 20
    assert {len(net.byzantine) for net in nets} >= {0, 1, 2}
    assert len(twin_free) >= 15 and {len(net.nodes) for net in twin_free} == {13, 14}
    assert sum(len(quora) > 1 for quora in map(minimal_quora, twin_free)) >= 10


def uniform_clique(size: int, quota: Fraction, byz: int = 0) -> QuotaNetwork:
    """Every node trusts every node; ``byz`` of them, every third from x1, are Byzantine."""
    nodes = tuple(f"x{k}" for k in range(size))
    byzantine = frozenset(nodes[1::3][:byz])
    honest = [x for x in nodes if x not in byzantine]
    return QuotaNetwork(
        nodes, byzantine, {x: frozenset(nodes) for x in honest}, {x: quota for x in honest}
    )


@pytest.mark.parametrize("size, quota", [(16, Fraction(3, 4)), (18, Fraction(2, 3))])
def test_minimal_quora_of_a_uniform_clique_are_the_threshold_subsets(size, quota):
    net = uniform_clique(size, quota)
    need = -(-quota.numerator * size // quota.denominator)
    assert minimal_quora(net) == tuple(
        frozenset(c) for c in itertools.combinations(net.nodes, need)
    )


def test_minimal_quora_of_an_expanded_18_node_clique():
    # The slices search grows 3,876 candidates and keeps the 3,060 that
    # hold no other: the 14-subsets. No node budget refuses it, and the
    # filter charges 3,876 * 18 candidate-node tests.
    net = expand_quota_network(uniform_clique(18, Fraction(3, 4)))
    expected = tuple(frozenset(c) for c in itertools.combinations(net.nodes, 14))
    assert len(expected) == 3060
    assert minimal_quora(net) == expected


def test_minimal_quora_table_memory():
    # A ring has no twins, so the table holds all 2 ** 20 count vectors of
    # its 20 honest nodes, a bit each; the minimal vectors are read
    # off a string of a character per vector. An int64 array of the vectors
    # alone would take 8 bytes per vector.
    k = 20
    net = nets.ring(k, Fraction(1))
    tracemalloc.start()
    try:
        quora = minimal_quora(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert quora == (frozenset(net.nodes),)
    assert peak < 3 * (1 << k)
    with nets.state_budget((1 << k) - 1), pytest.raises(BudgetExceededError, match="count vectors"):
        minimal_quora(net)


def test_minimal_quora_of_a_40_node_unanimity_clique():
    # One twin class of 40 members: a table of 41 count vectors.
    net = uniform_clique(40, Fraction(1))
    assert minimal_quora(net) == (frozenset(net.nodes),)


def test_minimal_quora_listing_budget():
    # Every 17 of the 22 nodes form a minimal quorum, all from one count
    # vector; they are counted before any is built.
    net = uniform_clique(22, Fraction(3, 4))
    listed = math.comb(22, 17)
    tracemalloc.start()
    try:
        with nets.state_budget(listed - 1):
            with pytest.raises(BudgetExceededError, match=f"{listed} minimal quora"):
                minimal_quora(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Listing the quora would take about 1 MB for their masks alone.
    assert peak < 1 << 16
    with nets.state_budget(listed):
        quora = minimal_quora(net)
    assert len(quora) == listed
    assert quora[0] == frozenset(net.nodes[:17]) and quora[-1] == frozenset(net.nodes[5:])


@pytest.mark.parametrize("size", [22, 26, 65, 100])
@pytest.mark.parametrize("quota", [Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)])
def test_split_scan_of_a_uniform_clique_has_the_closed_form(size, quota):
    # A pool of p nodes that each need t of the pool has disjoint quora
    # exactly when 2t <= p. The first split code that gives side one t
    # members is 2**(t-1) - 1; otherwise all 2**(p-1) splits are covered.
    # The honest scan folds the Byzantine members into each need.
    need = -(-quota.numerator * size // quota.denominator)
    for check, byz in ((check_quorum_intersection, 0), (check_qi_honest, 0), (check_qi_honest, 5)):
        net = uniform_clique(size, quota, byz)
        report = check(net, max_nodes=size)
        pool, short = size - byz, need - byz
        if 2 * short > pool:
            assert (report.holds, report.quora_examined) == (True, 2 ** (pool - 1)), (check, byz)
            continue
        honest = [x for x in net.nodes if x not in net.byzantine]
        side = frozenset(honest[:short]) | net.byzantine
        rest = frozenset(honest[short:]) | net.byzantine
        assert (report.holds, report.witness, report.quora_examined) == (
            False,
            (side, rest),
            2 ** (short - 1),
        ), (check, byz)


def test_quota_scan_matches_the_scalar_scan_past_code_64_without_twins():
    nets = [
        net for net in generated_nets(192, 12, 13, 16, ("centralised",)) if largest_class(net) == 1
    ]
    codes = [
        assert_same_split_scan(net, False, check_quorum_intersection).quora_examined
        for net in nets
    ]
    assert {len(net.nodes) for net in nets} == {13, 14, 15, 16}
    assert len(codes) >= 8 and min(codes) > 64, codes


def test_honest_scan_when_byzantine_trustees_alone_meet_a_need():
    # d needs 2 of {d, e, x, y}, and the Byzantine x and y sit in every
    # honest candidate, so {d, x, y} is a quorum. It leaves a and b on
    # side one at split code 1, where a and b back each other.
    trust = {x: frozenset("abc") for x in "abc"}
    trust.update(d=frozenset("dexy"), e=frozenset("aef"), f=frozenset("aef"))
    quota = {x: Fraction(2, 3) for x in "abc"}
    quota.update(d=Fraction(1, 2), e=Fraction(1), f=Fraction(1))
    net = QuotaNetwork(tuple("axbcdyef"), frozenset("xy"), trust, quota)
    report = assert_same_split_scan(net, True, check_qi_honest)
    assert report.witness == (frozenset("abxy"), frozenset("dxy"))
    assert report.quora_examined == 2
    assert_witness(net, report, True)
    assert_same_split_scan(net, False, check_quorum_intersection)


def test_split_table_memory():
    # A twin-free pool of 20 nodes takes a table of 2 ** 20 count vectors
    # at a bit each, with a few digit masks and partial tables of that
    # size while it is built and scanned.
    net = nets.ring(20, Fraction(1))
    tracemalloc.start()
    try:
        report = check_qi_honest(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds and report.quora_examined == 2 ** 19
    assert peak < 3 * (1 << 20)


def test_quota_scan_matches_the_scalar_scan_on_large_classes():
    nets = [
        *planted_twin_nets(173, 14, 14),
        *generated_nets(179, 14, 9, 14, ("clique", "overlapping-groups")),
    ]
    seen = {False: [0, 0], True: [0, 0]}
    deep = 0
    for net in nets:
        for honest, check in ((False, check_quorum_intersection), (True, check_qi_honest)):
            report = assert_same_split_scan(net, honest, check)
            seen[honest][report.holds] += 1
            deep += not report.holds and report.quora_examined > 64
    assert min(seen[False] + seen[True]) >= 3, seen
    assert deep >= 3, deep
    assert sum(largest_class(net) >= 6 for net in nets) >= 10
