"""The int and byte tables against brute force.

``_quorum_table`` and ``_close_upward`` build quota count-vector tables
as the bits of a Python int. They must equal, bit for bit, the tables
built by running ``is_quorum`` on the lowest members of each twin class,
for every count vector: with radices above 2, with a ``base`` of
Byzantine nodes, and with Byzantine nodes ahead of honest ones in node
order, whose classes the split scan moves to the highest digits.
``_complement`` must reverse the index of a table of any length, bytes
or not. ``_quota_table`` and ``_slices_table`` must give every coalition
of a quota game (a byte each) or a slices game (a bit each) the verdict
of the node's winning rules.
"""

import random
from fractions import Fraction
from math import prod

import oracles
import pytest
from quorumlens import QuotaNetwork, is_quorum
from quorumlens.influence import _quota_table, _slices_table
from quorumlens.network import _wins
from quorumlens.quorum import _close_upward, _complement, _quorum_table, _QuorumView

pytestmark = pytest.mark.filterwarnings("ignore::quorumlens.QuotaRangeWarning")

QUOTAS = (Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(1))


def twin_rich(seed: int, count: int):
    """Small quota networks whose nodes come in 1 to 3 twin copies each.

    Half of them list every Byzantine node first in node order; the rest
    shuffle the order.
    """
    rng = random.Random(seed)
    for k in range(count):
        base = oracles.random_uniform_quota_net(
            rng, rng.randint(2, 4), rng.choice(QUOTAS), byz_count=rng.randint(0, 2), min_trust=1
        )
        copies = {b: [f"{b}.{c}" for c in range(rng.randint(1, 3))] for b in base.nodes}
        nodes = [x for b in base.nodes for x in copies[b]]
        byzantine = frozenset(x for b in base.byzantine for x in copies[b])
        rng.shuffle(nodes)
        if k % 2:
            nodes.sort(key=lambda x: x not in byzantine)
        honest = [(b, x) for b in base.honest for x in copies[b]]
        yield QuotaNetwork(
            tuple(nodes),
            byzantine,
            {x: frozenset(y for t in base.trust[b] for y in copies[t]) for b, x in honest},
            {x: base.quota[b] for b, x in honest},
        )


def brute_tables(net, view, classes, base):
    """The quorum table and its upward closure, vector by vector."""
    radix = [len(members) + 1 for members in classes]
    vectors = []
    for index in range(prod(radix)):
        digits = []
        for r in radix:
            index, d = divmod(index, r)
            digits.append(d)
        vectors.append(digits)
    extra = view.labels(base)
    flags = [
        any(digits)
        and is_quorum(net, extra | {view.order[b] for m, d in zip(classes, digits) for b in m[:d]})
        for digits in vectors
    ]
    table = sum(1 << i for i, flag in enumerate(flags) if flag)
    below = [
        i
        for i, v in enumerate(vectors)
        if any(flags[j] and all(a <= b for a, b in zip(u, v)) for j, u in enumerate(vectors))
    ]
    return table, sum(1 << i for i in below)


def test_quorum_table_and_closure_match_brute_force():
    seen = {"radix above 2": 0, "base": 0, "Byzantine first": 0, "Byzantine class moved": 0}
    for net in twin_rich(307, 60):
        view = _QuorumView(net)
        top = view.top
        cases = [
            (view.classes_within(view.full), 0),
            # Byzantine classes last, as the split scan orders them.
            (sorted(view.classes_within(top), key=lambda m: (view.byz_mask >> m[0]) & 1), 0),
            (view.classes_within(view.honest_mask), top & view.byz_mask),
        ]
        for classes, base in cases:
            if not classes:
                continue
            radix = [len(members) + 1 for members in classes]
            table = _quorum_table(view, classes, base)
            got = table, _close_upward(table, radix)
            assert got == brute_tables(net, view, classes, base), (net, classes, base)
            seen["radix above 2"] += max(radix) > 2
            seen["base"] += base != 0
            seen["Byzantine first"] += bool(view.byz_mask & 1)
            seen["Byzantine class moved"] += classes != sorted(classes)
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("size", [1, 7, 9, 12, 61, 1000])
def test_complement_reverses_the_index(size):
    rng = random.Random(size)
    tables = [0, 1, 1 << (size - 1), (1 << size) - 1, *(rng.getrandbits(size) for _ in range(20))]
    for table in tables:
        reversed_bits = sum(1 << (size - 1 - i) for i in range(size) if (table >> i) & 1)
        assert _complement(table, size) == reversed_bits


def test_winning_table_matches_the_winning_rules():
    rng = random.Random(311)
    games = []
    for _ in range(30):
        n = rng.randint(1, 10)
        games.append(
            oracles.random_uniform_quota_net(
                rng, n, rng.choice(QUOTAS), byz_count=rng.randint(0, min(2, n - 1)), min_trust=1
            )
        )
        games.append(
            oracles.random_explicit_net(
                rng,
                n,
                max_slices=rng.randint(1, 5),
                max_slice_size=rng.randint(1, 8),
                byz_count=rng.randint(0, min(2, n - 1)),
                vetoed=rng.random() < 0.2,
            )
        )
    sizes = {"quota": set(), "slices": set()}
    for net in games:
        for i in net.honest:
            members = sorted(net.trust[i], key=net.nodes.index)
            masks = range(1 << len(members))
            coalitions = (
                frozenset(m for b, m in enumerate(members) if (mask >> b) & 1) for mask in masks
            )
            if isinstance(net, QuotaNetwork):
                flags = list(_quota_table(net, i, len(members)))  # a byte per coalition
            else:
                table = _slices_table(net, i, members)
                assert table >> len(masks) == 0
                flags = [(table >> mask) & 1 for mask in masks]  # a bit per coalition
            assert flags == [int(_wins(net, i, c)) for c in coalitions], (net, i)
            sizes["quota" if isinstance(net, QuotaNetwork) else "slices"].add(len(members))
    assert {1, 10} <= sizes["quota"] and {1, 10} <= sizes["slices"], sizes
