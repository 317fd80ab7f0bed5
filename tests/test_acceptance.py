"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
per-criterion timings. Every tolerance and budget is pinned here.
"""

import json
import random
import time
from fractions import Fraction

import nets
import oracles
from oracles import enumerate_profiles
from quorumlens import (
    Cnf,
    GenParams,
    banzhaf_raw_row,
    banzhaf_row,
    brute_sat,
    check_overlap_bounds,
    check_qi_honest,
    check_quorum_intersection,
    check_slice_addition,
    cnf_to_network,
    common_trust_set,
    centralization_limit_report,
    decode_qi_witness,
    expand_quota_network,
    find_fork,
    find_strong_fork,
    influence_matrix,
    limit_matrix,
    minimal_quora,
    observation_bounds,
    observed_set,
    random_quota_network,
    respects_failure_model,
    satisfies,
    shared_byzantine_bound,
    slice_addition_instance,
)
from quorumlens.cli import run


def _report(n, name, started):
    print(f"ACCEPTANCE {n} {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_quorum_intersection_golden(tmp_path, capsys):
    started = time.perf_counter()

    fig1 = nets.two_triangles()
    report = check_quorum_intersection(fig1)
    assert not report.holds
    assert set(report.witness) == {frozenset("123"), frozenset("456")}

    bridged = nets.two_triangles_bridged()
    report2 = check_quorum_intersection(bridged)
    assert report2.holds
    assert minimal_quora(bridged) == (frozenset("456"),)

    # Same answers through the command-line surface.
    from quorumlens import save_network

    fig_path = tmp_path / "fig1.json"
    save_network(fig1, fig_path)
    assert run(["qi", str(fig_path), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "violated"
    assert {frozenset(doc["witness"]["quorum_a"]), frozenset(doc["witness"]["quorum_b"])} == {
        frozenset("123"),
        frozenset("456"),
    }
    bridged_path = tmp_path / "bridged.json"
    save_network(bridged, bridged_path)
    assert run(["qi", str(bridged_path), "--json"]) == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc2["verdict"] == "holds"
    assert doc2["tables"]["minimal_quora"] == [["4", "5", "6"]]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, "quorum-intersection golden values", started)


def test_criterion_2_influence_golden():
    started = time.perf_counter()
    net = nets.shared_five()
    for i in net.honest:
        raw = banzhaf_raw_row(net, i)
        normalized = banzhaf_row(net, i)
        for j, r, v in zip(net.nodes, raw, normalized):
            if j in net.trust[i]:
                assert r == Fraction(2, 8)  # exact, no tolerance
                assert v == Fraction(1, 5)
            else:
                assert r == 0 and v == 0
    matrix = influence_matrix(net)
    assert all(sum(row, Fraction(0)) == 1 for row in matrix.entries)
    _report(2, "pivot-index golden values (exact rationals)", started)


def test_criterion_3_limit_golden():
    started = time.perf_counter()

    all_honest = influence_matrix(nets.shared_five())
    assert oracles.is_idempotent_exact(all_honest)  # exact rational square
    report = limit_matrix(all_honest)
    assert report.classification == "fully-regular"
    assert report.limit == all_honest.entries  # exact rationals, no tolerance

    variant = influence_matrix(nets.shared_five(byz="5"))
    report_b = limit_matrix(variant)
    assert report_b.classification == "fully-regular"
    assert all(row[4] == 1 for row in report_b.limit)
    honest_idx = [variant.order.index(n) for n in "12346"]
    for a in honest_idx:
        for b in honest_idx:
            assert report_b.structural_zero_mask[a][b]
            assert report_b.limit[a][b] == 0

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(3, "limit-matrix golden values", started)


def test_criterion_4_reduction_oracle_suite():
    started = time.perf_counter()
    rng = random.Random(20240)

    formulas = []
    for trial in range(70):
        formulas.append(oracles.random_cnf(rng, rng.randint(1, 6), rng.randint(1, 12)))
    for trial in range(55):  # high-ratio mix to guarantee unsatisfiable cases
        formulas.append(oracles.random_cnf(rng, rng.randint(1, 2), rng.randint(8, 12)))
    assert len(formulas) >= 100

    sat_count = unsat_count = 0
    for cnf in formulas:
        net = cnf_to_network(cnf)
        report = check_quorum_intersection(net, max_nodes=len(net.nodes))
        model = brute_sat(cnf)
        assert report.holds == (model is None), cnf
        if model is None:
            unsat_count += 1
        else:
            sat_count += 1
            decoded = decode_qi_witness(cnf, report.witness)
            assert satisfies(cnf, decoded), (cnf, decoded)
    assert sat_count >= 20 and unsat_count >= 20

    # Incremental instances: base keeps intersection, adding the removed
    # coalition preserves it exactly for unsatisfiable formulas.
    eligible = broke = kept = 0
    for trial in range(30):
        raw = oracles.random_cnf(rng, rng.randint(1, 4), rng.randint(1, 8))
        cnf = Cnf(raw.num_vars, raw.clauses + ((1, 1, 1),))
        base, node, extra = slice_addition_instance(cnf)  # verifies base internally
        eligible += 1
        report = check_slice_addition(base, node, extra, max_nodes=len(base.nodes))
        assert report.holds == (brute_sat(cnf) is None), cnf
        broke += not report.holds
        kept += report.holds
    assert eligible >= 30 and broke >= 5 and kept >= 2

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(4, f"reduction oracle suite ({sat_count} sat / {unsat_count} unsat)", started)


def test_criterion_5_overlap_and_common_trust_suite():
    started = time.perf_counter()
    rng = random.Random(777)

    generated = certified = 0
    while generated < 220:
        q = rng.choice([Fraction(3, 4), Fraction(4, 5)])
        tsize = rng.choice({Fraction(3, 4): [4, 8], Fraction(4, 5): [5, 10]}[q])
        n = rng.randint(tsize, 10)
        topo = rng.choice(["clique", "overlapping-groups", "centralised"])
        try:
            net = random_quota_network(
                GenParams(n, tsize, q, 0, seed=rng.randrange(2**32), topology=topo,
                          overlap=rng.choice([0.25, 0.5, 0.75]))
            )
        except ValueError:
            continue
        generated += 1
        safe = all(
            find_fork(oracles.place_byzantine(net, b)) is None
            for b in oracles.admissible_placements(net)
        )
        if not safe:
            continue
        certified += 1
        reports = check_overlap_bounds(net)
        assert all(r.satisfies for r in reports), net  # zero counterexamples
        assert common_trust_set(net), net
    assert generated >= 200 and certified >= 60

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(5, f"overlap/common-trust suite ({certified}/{generated} certified safe)", started)


def test_criterion_6_strong_fork_equivalence():
    started = time.perf_counter()
    rng = random.Random(606)

    checked = weakly_safe = forked = 0
    oracle_checked = 0
    for trial in range(56):
        membership_form = bool(trial % 2)
        net = oracles.random_explicit_net(
            rng,
            rng.randint(2, 8),
            max_slices=2,
            max_slice_size=3,
            byz_count=rng.randint(0, 2),
            vetoed=not membership_form,
            self_in_slices=membership_form,
        )
        checked += 1
        witness = find_strong_fork(net)
        honest_qi = check_qi_honest(net, max_nodes=len(net.nodes))
        assert (witness is None) == honest_qi.holds
        if witness is None:
            weakly_safe += 1
        else:
            forked += 1
            honest = frozenset(net.honest)
            assert not (witness.supporting_a & witness.supporting_b & honest)
        if len(net.nodes) <= 6 and oracle_checked < 24:
            oracle_checked += 1
            assert (witness is not None) == oracles.strong_forked_by_selector_enumeration(net)
    assert checked >= 50
    assert weakly_safe >= 8 and forked >= 8  # both directions exercised
    assert oracle_checked >= 15

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(
        6,
        f"strong-fork equivalence ({forked} forked / {weakly_safe} weakly safe, "
        f"{oracle_checked} oracle-checked)",
        started,
    )


def _profile_count(net):
    total = 2 ** len(net.honest)
    for b in net.byzantine:
        observers = sum(1 for o in net.honest if b in net.trust[o])
        total *= 2**observers
    return total


def test_criterion_7_observation_bounds_suite():
    started = time.perf_counter()
    rng = random.Random(707)

    nets_checked = 0
    profiles_checked = 0
    while nets_checked < 20:
        q, tsize = rng.choice([(Fraction(3, 4), 4), (Fraction(4, 5), 5)])
        n = rng.randint(tsize, 8)
        byz_count = rng.randint(0, 1)
        net = oracles.random_uniform_quota_net(rng, n, q, byz_count=byz_count, min_trust=tsize)
        sizes_ok = all(len(net.trust[i]) >= tsize for i in net.honest)
        if not sizes_ok or not respects_failure_model(net):
            continue
        if _profile_count(net) > 4096:
            continue
        nets_checked += 1
        honest = list(net.honest)
        byz = net.byzantine
        pair_const = {}
        for i in honest:
            for j in honest:
                cap = shared_byzantine_bound(net, i, j)
                overlap = len(net.trust[i] & net.trust[j])
                pair_const[(i, j)] = (
                    overlap - len(net.trust[i]) - cap,  # + seen_i = support floor
                    len(net.trust[j]) - overlap + len(net.trust[i]) + cap,  # - seen_i = ceiling
                )
        for profile in enumerate_profiles(net):
            profiles_checked += 1
            counts = {}
            for j in honest:
                for x in (0, 1):
                    obs = observed_set(net, profile, j, x)
                    counts[(j, x)] = (len(obs), len(obs - byz))
            for i in honest:
                for x in (0, 1):
                    seen_i = counts[(i, x)][0]
                    if seen_i == 0:
                        continue  # premise of the bounds
                    for j in honest:
                        floor_c, ceil_c = pair_const[(i, j)]
                        assert counts[(j, x)][1] >= floor_c + seen_i, (net, i, j, x)
                        assert counts[(j, 1 - x)][0] <= ceil_c - seen_i, (net, i, j, x)

    # The split network attains the opposite-value ceiling exactly.
    bound = observation_bounds(nets.split_quota(), nets.split_quota_profile(), "1", "4", 1)
    assert bound.opposite_seen == bound.opposite_ceiling == 3
    assert bound.opposite_bound_holds and bound.failure_model_ok

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(7, f"observation bounds ({nets_checked} networks, {profiles_checked} profiles)", started)


def test_criterion_8_centralised_limit_suite():
    started = time.perf_counter()
    rng = random.Random(808)

    counts = {0: 0, 1: 0, "many": 0}
    generated = 0
    while generated < 210:
        n = rng.randint(6, 10)
        tsize = rng.randint(4, min(7, n))
        core = max(1, tsize // 2)
        max_byz = min(3, tsize - core, n - 1)
        byz = min(rng.choice([0, 0, 1, 1, 2, 3]), max_byz)
        try:
            net = random_quota_network(
                GenParams(
                    n,
                    tsize,
                    rng.choice([Fraction(3, 4), Fraction(4, 5)]),
                    byzantine_count=byz,
                    seed=rng.randrange(2**32),
                    topology="centralised",
                )
            )
        except ValueError:
            continue
        generated += 1
        report = centralization_limit_report(net)
        assert report.regular_ok, net  # claim: the limit always exists here
        if byz <= 1:
            counts[byz] += 1
            assert report.fully_regular_applicable and report.fully_regular_ok, net
            assert len(set(report.limit.limit)) == 1, net
        else:
            counts["many"] += 1
        if report.byzantine_reaches_core:
            assert report.honest_influence_vanishes is True, net
            limit = report.limit.limit
            index = {x: k for k, x in enumerate(report.matrix.order)}
            for i in net.honest:
                for j in net.honest:
                    assert limit[index[i]][index[j]] == 0
    assert generated >= 200
    assert counts[0] >= 30 and counts[1] >= 30 and counts["many"] >= 30

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(
        8,
        f"centralised limit suite (|B|=0: {counts[0]}, |B|=1: {counts[1]}, "
        f"|B|>1: {counts['many']})",
        started,
    )


def test_criterion_9_representation_equivalence():
    started = time.perf_counter()
    rng = random.Random(909)

    compared = 0
    for trial in range(40):
        q, tsize = rng.choice([(Fraction(3, 4), 4), (Fraction(4, 5), 5)])
        n = rng.randint(tsize, 7)
        topo = rng.choice(["clique", "overlapping-groups", "centralised"])
        byz = rng.randint(0, 1) if topo == "centralised" else 0
        try:
            net = random_quota_network(
                GenParams(n, tsize, q, byz, seed=trial, topology=topo,
                          overlap=rng.choice([0.25, 0.5]))
            )
        except ValueError:
            continue
        expanded = expand_quota_network(net)
        compared += 1
        assert (find_fork(net) is None) == (
            find_fork(expanded) is None
        )
        assert (
            check_quorum_intersection(net).holds
            == check_quorum_intersection(expanded).holds
        )
        assert (
            check_qi_honest(net).holds == check_qi_honest(expanded).holds
        )
    assert compared >= 25

    # The bridging split network keeps its fork across representations too.
    split = nets.split_quota()
    assert (find_fork(split) is None) == (
        find_fork(expand_quota_network(split)) is None
    )

    _report(9, f"representation equivalence ({compared} networks)", started)
