"""One quorum view per ``qi`` command gives the reports of standalone calls.

``quorumlens qi`` hands one ``_QuorumView`` to its check and to its
minimal-quora display, and the view builds the closed table over the
honest nodes once, for whichever of the two reads it first. Every report
must equal the one built from standalone library calls on a freshly
loaded network: verdict, witness, ``quora_examined`` and
``minimal_quora`` in order, ``null`` past the display's 14-node limit.
The networks are seeded quota networks of 6 to 16 nodes over the three
topologies with 0 to 2 Byzantine nodes, with and without twins, and
explicit-slice networks. They cover views whose
table is shared: every plain check, whose scan reads the view's table
and sets every vector that counts a Byzantine member, and honest checks
without Byzantine nodes. They also cover honest checks of networks with
a Byzantine node, where the table is not shared. The minimal quora read
off a view, shared table or not, are also pinned to the minimal sets of
every quorum on networks of up to 10 nodes. A network with a node that
no quorum can hold is refused by every entry point.
"""

import io
import json
import math
import random
import weakref
from contextlib import redirect_stdout
from fractions import Fraction

import nets
import oracles
import pytest
from quorumlens import (
    GenParams,
    QuotaNetwork,
    TrustNetwork,
    check_qi_honest,
    check_quorum_intersection,
    cli,
    find_fork,
    find_strong_fork,
    load_network,
    max_quorum_within,
    minimal_quora,
    random_quota_network,
    save_network,
)
from quorumlens import quorum
from quorumlens.quorum import _minimal_quota_quora, _QuorumView

pytestmark = pytest.mark.filterwarnings("ignore::quorumlens.QuotaRangeWarning")

QUOTAS = (Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5), Fraction(1))
TOPOLOGIES = ("clique", "overlapping-groups", "centralised")


def generated(seed: int, count: int, min_nodes: int, max_nodes: int):
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
            TOPOLOGIES[made % 3],
        )
        try:
            net = random_quota_network(params)
        except ValueError:
            continue  # infeasible combination, such as a core too large
        made += 1
        yield net


def twin_rich(seed: int, count: int, max_nodes: int):
    """Each honest node of a small base network becomes 1 to 4 twin copies."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        base = oracles.random_uniform_quota_net(
            rng, rng.randint(2, 5), rng.choice(QUOTAS), byz_count=rng.randint(0, 2), min_trust=1
        )
        if not base.honest:
            continue
        copies = {
            b: [f"{b}.{c}" for c in range(1 if b in base.byzantine else rng.randint(1, 4))]
            for b in base.nodes
        }
        nodes = [x for b in base.nodes for x in copies[b]]
        if not 6 <= len(nodes) <= max_nodes:
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


def sliced(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield oracles.random_explicit_net(
            rng,
            rng.randint(3, 10),
            max_slices=rng.randint(1, 3),
            max_slice_size=rng.randint(1, 4),
            byz_count=rng.randint(0, 2),
        )


def shares_table(net, honest: bool) -> bool:
    """Does the display read the check's table, as the CLI builds its view?"""
    if isinstance(net, QuotaNetwork) and len(net.nodes) <= cli.MINIMAL_QUORA_DISPLAY_LIMIT:
        view = _QuorumView(net)
        (check_qi_honest if honest else check_quorum_intersection)(net, view=view)
        return "honest_table" in vars(view)
    return False


def standalone_report(path, honest: bool):
    """Verdict, witness and tables of ``qi``, from separate library calls."""
    net = load_network(path)
    report = (check_qi_honest if honest else check_quorum_intersection)(net)
    position = {n: k for k, n in enumerate(net.nodes)}.__getitem__
    minimal = None
    if len(net.nodes) <= 14:
        minimal = [sorted(q, key=position) for q in minimal_quora(net)]
    witness = None
    if not report.holds:
        q_a, q_b = report.witness
        witness = {"quorum_a": sorted(q_a, key=position), "quorum_b": sorted(q_b, key=position)}
    tables = {
        "variant": "honest-intersection" if honest else "plain",
        "quora_examined": report.quora_examined,
        "minimal_quora": minimal,
    }
    return ("holds" if report.holds else "violated"), witness, tables


def test_qi_reports_equal_the_standalone_calls(tmp_path):
    networks = [
        *generated(211, 45, 6, 16),
        *twin_rich(223, 15, 16),
        *sliced(227, 20),
    ]
    seen = {
        "shared, no Byzantine node": 0,
        "shared, Byzantine nodes": 0,
        "honest, Byzantine nodes": 0,
        "over the display limit": 0,
        "slices": 0,
    }
    for k, net in enumerate(networks):
        path = tmp_path / f"net{k}.json"
        save_network(net, path)
        for honest in (False, True):
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.run(["qi", str(path), "--json"] + (["--honest"] if honest else []))
            report = json.loads(out.getvalue())
            verdict, witness, tables = standalone_report(path, honest)
            assert (report["verdict"], report["witness"], report["tables"]) == (
                verdict,
                witness,
                tables,
            ), (net, honest)
            assert code == (0 if verdict == "holds" else 1)
            if not isinstance(net, QuotaNetwork):
                seen["slices"] += 1
            elif len(net.nodes) > 14:
                seen["over the display limit"] += tables["minimal_quora"] is None
            elif shares_table(net, honest):
                kind = "Byzantine nodes" if net.byzantine else "no Byzantine node"
                seen[f"shared, {kind}"] += 1
            elif honest and net.byzantine:
                seen["honest, Byzantine nodes"] += 1
    assert min(seen.values()) >= 10, seen
    assert {len(net.byzantine) for net in networks} == {0, 1, 2}


def test_a_view_gives_the_reports_of_its_network():
    for net in [*generated(229, 24, 6, 14), *twin_rich(233, 8, 12), *sliced(239, 8)]:
        for check in (check_quorum_intersection, check_qi_honest):
            view = _QuorumView(net)
            assert check(net, view=view) == check(net)
            assert minimal_quora(net, view=view) == minimal_quora(net)
            if isinstance(net, QuotaNetwork):
                # The display read the view's table, the one a new view builds.
                assert "honest_table" in vars(view)
                assert view.honest_table == _QuorumView(net).honest_table


def test_a_view_of_another_network_is_refused():
    # Read through the triangles' view, the bridged network, whose quora
    # intersect, would be reported split, with the triangles' minimal quora.
    triangles, bridged = nets.two_triangles(), nets.two_triangles_bridged()
    view = _QuorumView(triangles)
    for call in (check_quorum_intersection, check_qi_honest, minimal_quora):
        with pytest.raises(ValueError, match="built for another network"):
            call(bridged, view=view)
    assert check_quorum_intersection(bridged).holds
    assert not check_quorum_intersection(triangles, view=view).holds
    assert minimal_quora(triangles, view=view) == (frozenset("123"), frozenset("456"))


def test_a_label_missing_from_the_nodes_is_refused():
    # Unvalidated networks: a trust set, a slice or the Byzantine set
    # names a label that is no node.
    quota = {"a": Fraction(2, 3), "b": Fraction(2, 3)}
    pair = {"a": {"a", "b"}, "b": {"a", "b"}}
    cases = (
        (QuotaNetwork(("a", "b"), frozenset(), {**pair, "a": {"a", "b", "q"}}, quota), "q"),
        (QuotaNetwork(("a", "b"), frozenset({"z"}), pair, quota), "z"),
        (TrustNetwork(("a", "b"), frozenset(), pair, {"a": ({"a", "q"},), "b": ({"b"},)}), "q"),
    )
    calls = (check_quorum_intersection, check_qi_honest, minimal_quora, find_fork, find_strong_fork)
    for net, label in cases:
        for call in calls:
            with pytest.raises(ValueError) as caught:
                call(net)
            assert caught.value.args == (
                f"unknown nodes in the trust sets, slices or Byzantine set: {label}",
            ), (call, net)


def test_a_node_missing_from_a_per_node_map_is_refused():
    # Unvalidated networks: node a has no slices, or no quota.
    pair = {"a": {"a", "b"}, "b": {"a", "b"}}
    cases = (
        TrustNetwork(("a", "b"), frozenset(), pair, {"b": ({"a", "b"},)}),
        QuotaNetwork(("a", "b"), frozenset(), pair, {"b": Fraction(2, 3)}),
    )
    calls = (check_quorum_intersection, check_qi_honest, minimal_quora, find_fork, find_strong_fork)
    for net in cases:
        for call in calls:
            with pytest.raises(ValueError) as caught:
                call(net)
            message = "missing trust sets, slices or quotas for: a"
            assert caught.value.args == (message,), (call, net)


def test_a_network_with_nodes_no_quorum_can_hold_is_refused():
    # Unvalidated networks: c, d and e have no slices, and c's quota of
    # 5/4 asks for more trustees than it has, so a and b lose c too. No
    # quorum holds those nodes, and a slices search over every node would
    # take {a, b} and {c, d, e} for two disjoint quora.
    slices = {"a": (frozenset("ab"),), "b": (frozenset("ab"),), "c": (), "d": (), "e": ()}
    quota = {"a": Fraction(3, 4), "b": Fraction(3, 4), "c": Fraction(5, 4)}
    five, three = tuple("abcde"), tuple("abc")
    cases = (
        (TrustNetwork(five, frozenset(), dict.fromkeys(five, frozenset(five)), slices), "c, d, e"),
        (QuotaNetwork(three, frozenset(), dict.fromkeys(three, frozenset(three)), quota), "a, b, c"),
    )
    calls = (
        check_quorum_intersection,
        check_qi_honest,
        minimal_quora,
        find_fork,
        find_strong_fork,
        lambda net: max_quorum_within(net, net.nodes),
    )
    for net, lost in cases:
        for call in calls:
            with pytest.raises(ValueError) as caught:
                answer = call(net)
                pytest.fail(f"answered {answer} on {net}")
            assert caught.value.args == (f"nodes that no quorum can hold: {lost}",), (call, net)


def test_the_plain_split_table_is_the_padded_honest_table():
    # A vector that counts a Byzantine member holds a quorum, so the
    # plain scan's table, Byzantine classes last, is the honest table with
    # every higher vector set.
    networks = [
        net
        for net in (*generated(269, 60, 6, 16), *twin_rich(271, 20, 16))
        if 1 <= len(net.byzantine) <= 2
    ]
    assert len(networks) >= 30
    for net in networks:
        view = _QuorumView(net)
        # Each Byzantine node is a quorum alone.
        byzantine = [1 << k for k in range(len(view.order)) if (view.byz_mask >> k) & 1]
        assert all(view.max_quorum(b) == b for b in byzantine), net
        classes = sorted(view.classes_within(view.full), key=lambda m: (view.byz_mask >> m[0]) & 1)
        radix = [len(members) + 1 for members in classes]
        size = math.prod(radix)
        honest_classes, honest_radix, honest = view.honest_table
        assert classes[: len(honest_classes)] == honest_classes
        padded = honest | ((1 << size) - (1 << math.prod(honest_radix)))
        assert padded == quorum._close_upward(quorum._quorum_table(view, classes), radix), net


def test_a_view_builds_one_honest_table_for_the_display_and_the_check(monkeypatch):
    tables = []
    quorum_table = quorum._quorum_table

    def counted(view, classes, base=0):
        tables.append(len(classes))
        return quorum_table(view, classes, base)

    monkeypatch.setattr(quorum, "_quorum_table", counted)
    networks = [*generated(277, 30, 6, 14), *twin_rich(281, 10, 12)]
    assert {len(net.byzantine) for net in networks} == {0, 1, 2}
    for net in networks:
        expected = minimal_quora(net), check_quorum_intersection(net)
        for display_first in (True, False):
            view = _QuorumView(net)
            del tables[:]
            if display_first:
                found = minimal_quora(net, view=view), check_quorum_intersection(net, view=view)
            else:
                report = check_quorum_intersection(net, view=view)
                found = minimal_quora(net, view=view), report
            assert found == expected, (net, display_first)
            assert len(tables) == 1, (net, display_first)


def test_no_table_outlives_a_standalone_call(monkeypatch):
    # A table is an int, which takes no weak reference. Every closed table,
    # the scan's included, is held by its call or its call's view, so each
    # view must be freed when its call returns.
    views, closed = [], []
    close_upward = quorum._close_upward

    class Recorded(_QuorumView):
        def __init__(self, net):
            super().__init__(net)
            views.append(weakref.ref(self))

    def counted(table, radix):
        closed.append(radix)
        return close_upward(table, radix)

    monkeypatch.setattr(quorum, "_QuorumView", Recorded)
    monkeypatch.setattr(quorum, "_close_upward", counted)
    net = next(generated(241, 1, 10, 10))
    for k, call in enumerate((check_quorum_intersection, check_qi_honest, minimal_quora)):
        call(net)
        assert len(views) == k + 1 and views[k]() is None
    assert len(closed) == 3


def test_minimal_quota_quora_match_every_quorum():
    networks = [*generated(257, 40, 6, 10), *twin_rich(263, 20, 10)]
    shared = 0
    for net in networks:
        quora = oracles.all_quora(net)
        expected = sorted(
            sorted(net.nodes.index(n) for n in q) for q in quora if not any(o < q for o in quora)
        )
        for honest in (None, False, True):
            view = _QuorumView(net)
            if honest is not None:
                (check_qi_honest if honest else check_quorum_intersection)(net, view=view)
                shared += "honest_table" in vars(view)
            found = _minimal_quota_quora(view)
            assert sorted(map(list, found)) == expected, (net, honest)
    assert shared >= 20, shared
