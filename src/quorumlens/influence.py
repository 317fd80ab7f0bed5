"""Influence quantification for trust networks.

Each honest node plays a simple game on its trust set: a coalition wins
when it can settle the node's opinion. A trustee's influence is its
pivot probability in that game over uniformly random coalitions, held as
an exact rational; normalizing each row yields a stochastic influence
matrix. Powers of the matrix give indirect influence, and the limit of
those powers, when it exists, gives total influence. Existence of the
limit is decided structurally from the influence digraph: every closed
strongly connected component must be aperiodic, and a unique closed
component makes the limit rows identical. The limit itself is solved in
exact rationals from the stationary distributions of the closed
components and the absorption probabilities of the other nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bounds import common_trust_set
from .graphs import component_period, strongly_connected_components
from .network import (
    BudgetExceededError,
    Network,
    NodeId,
    QuotaNetwork,
    _require_honest,
    _rules,
)
from .quorum import _close_upward, _digit_in

DEFAULT_BANZHAF_MAX_TRUST = 24


@dataclass(frozen=True)
class InfluenceMatrix:
    """Row-stochastic matrix of normalized pivot probabilities.

    ``entries[i][j]`` is the influence of node ``order[j]`` on node
    ``order[i]``, an exact rational. Rows of Byzantine nodes are
    degenerate: 1 on the diagonal, 0 elsewhere, since nothing influences
    them.

    :func:`influence_matrix` builds one row tuple per distinct game and
    gives it to every node that plays that game, so nodes with one game
    have the same row object. :func:`limit_matrix` lumps nodes whose rows
    are one object into one unknown (Kemeny and Snell, *Finite Markov
    Chains*, ch. 6), and the command line renders each row object once.
    Equal rows held as separate objects stay exact; they are only solved
    one unknown each.
    """

    order: tuple[NodeId, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def row(self, node: NodeId) -> tuple[Fraction, ...]:
        return self.entries[self.order.index(node)]


# PLUS_ONE maps a count byte c to c + 1.
PLUS_ONE = bytes(range(1, 256)) + b"\0"


def _quota_table(net: QuotaNetwork, i: NodeId, k: int) -> bytes:
    """Win flag (0 or 1) of every coalition mask over quota node i's ``k`` trustees.

    The table holds a byte per mask, never a list or an integer per mask.
    It reads each mask's popcount, built as bytes by doubling (the masks
    with the next bit set count one more), against the threshold, with
    ``bytes.translate``.
    """
    count = b"\0"
    for _ in range(k):
        count += count.translate(PLUS_ONE)
    ((_, t),) = _rules(net, i)
    return count.translate(bytes(t) + b"\1" * (256 - t))


def _quota_pivots(net: QuotaNetwork, i: NodeId, members: list[NodeId]) -> list[int]:
    """Pivot count of each of ``members``, in ``|T_i| * 2 ** |T_i|`` Python steps."""
    table = _quota_table(net, i, len(members))
    size = 1 << len(members)
    counts = []
    for b in range(len(members)):
        bit = 1 << b
        pivots = 0
        for mask in range(size):
            if mask & bit:
                continue
            if table[mask | bit] and not table[mask]:
                pivots += 1
        counts.append(pivots)
    return counts


def _slices_table(net: Network, i: NodeId, members: list[NodeId]) -> int:
    """Win flags of every coalition mask over slices node i's trust set, as an int.

    Bit ``mask`` of the int is the flag of ``mask``, so the table takes
    ``2 ** k / 8`` bytes. Each slice sets the bit of its mask in a
    ``bytearray``, and :func:`_close_upward` with every digit binary closes
    the int upward: for each bit, every mask with the bit clear passes its
    flag to the same mask with the bit set.
    """
    k = len(members)
    index = {n: b for b, n in enumerate(members)}
    flags = bytearray(((1 << k) + 7) // 8)
    for s in net.slices[i]:
        mask = sum(1 << index[n] for n in s)
        flags[mask >> 3] |= 1 << (mask & 7)
    return _close_upward(int.from_bytes(flags, "little"), [2] * k)


def _slices_pivots(net: Network, i: NodeId, members: list[NodeId]) -> list[int]:
    """Pivot count of each of ``members``, with bit operations on the int table.

    Member ``b``'s pivots are the set bits of ``(T >> 2 ** b) & ~T`` among
    the masks with bit ``b`` clear: ``|T_i|`` passes over ``2 ** |T_i|``
    bits.
    """
    table = _slices_table(net, i, members)
    size = 1 << len(members)
    return [
        ((table >> (1 << b)) & ~table & _digit_in(size, 1 << b, 2, 0, 1)).bit_count()
        for b in range(len(members))
    ]


def banzhaf_raw_row(net: Network, i: NodeId) -> tuple[Fraction, ...]:
    """Unnormalized pivot probability of every node in ``i``'s game.

    The raw index of a trustee is the number of coalitions of the
    remaining trustees it turns from losing to winning, divided by the
    count of such coalitions, ``2 ** (|T_i| - 1)``. Untrusted nodes are
    dummies and get exactly zero; enumerating over all nodes instead of
    the trust set would double both the pivot count and the denominator.

    Bit ``b`` of a coalition mask stands for the ``b``-th trustee in node
    order. A quota row costs a ``2 ** |T_i|``-byte winning table from
    :func:`_quota_table` plus ``|T_i| * 2 ** |T_i|`` pivot checks in
    Python. A slices row, for any number of slices, costs a
    ``2 ** |T_i|``-bit int table from :func:`_slices_table` plus
    ``|T_i|`` bit-operation passes over it. The trust-set budget,
    ``DEFAULT_BANZHAF_MAX_TRUST``, is checked here, before any table is
    built. The row depends only on ``i``'s trust set and winning rule, so
    :func:`influence_matrix` pays this once per distinct game, not once
    per node.

    Raises:
        BudgetExceededError: when the trust set exceeds
            ``DEFAULT_BANZHAF_MAX_TRUST``.
        ValueError: for a non-honest node.
    """
    _require_honest(net, i)
    order = {n: k for k, n in enumerate(net.nodes)}
    members = sorted(net.trust[i], key=order.get)
    if len(members) > DEFAULT_BANZHAF_MAX_TRUST:
        raise BudgetExceededError(
            f"node {i}: trust set of {len(members)} exceeds the enumeration budget"
            f" of {DEFAULT_BANZHAF_MAX_TRUST}"
        )
    pivots = (_quota_pivots if isinstance(net, QuotaNetwork) else _slices_pivots)(net, i, members)
    denom = 1 << (len(members) - 1)
    raw = {member: Fraction(p, denom) for member, p in zip(members, pivots)}
    zero = Fraction(0)  # one zero shared by every untrusted node
    return tuple(raw.get(n, zero) for n in net.nodes)


def banzhaf_row(net: Network, i: NodeId) -> tuple[Fraction, ...]:
    """Normalized influence of every node on honest node ``i``.

    The raw indices from :func:`banzhaf_raw_row` scaled to sum to one.
    Only trustees can be non-zero, so only non-zero entries are summed
    and divided.

    Raises:
        ValueError: when no trustee is ever pivotal (degenerate game).
    """
    raw = banzhaf_raw_row(net, i)
    total = sum(filter(None, raw), Fraction(0))
    if total == 0:
        raise ValueError(f"node {i}: degenerate game, no trustee is ever pivotal")
    return tuple(x / total if x else x for x in raw)


def influence_matrix(net: Network) -> InfluenceMatrix:
    """Influence matrix of the whole network.

    Honest rows come from :func:`banzhaf_row`; Byzantine rows are
    degenerate. Every row sums to exactly one.

    A row depends only on the node's game: its trust set and the set of
    its winning rules (:func:`~quorumlens.network._rules`), one threshold
    rule for a quota node and one rule per slice for a slices node. Each
    distinct game is solved once, for the first of its nodes in
    ``net.nodes`` order, and every later node with that game shares the
    same row tuple. So a budget overrun or a degenerate game is reported
    for the first node that has it, and nodes that adopt one common trust
    set cost one row between them.
    """
    solved: dict[tuple, tuple[Fraction, ...]] = {}
    rows = []
    zero, one = Fraction(0), Fraction(1)
    for i in net.nodes:
        if i in net.byzantine:
            rows.append(tuple(one if j == i else zero for j in net.nodes))
            continue
        game = (net.trust[i], frozenset(_rules(net, i)))
        if game not in solved:
            solved[game] = banzhaf_row(net, i)
        rows.append(solved[game])
    return InfluenceMatrix(tuple(net.nodes), tuple(rows))


@dataclass(frozen=True)
class InfluenceGraph:
    """Digraph of the influence matrix with its component analysis.

    There is an edge ``j -> i`` whenever ``j`` has positive influence on
    ``i``. A component is closed when no node outside it influences a
    member; its period is the gcd of its internal cycle lengths (0 for a
    single node without a self-loop).
    """

    order: tuple[NodeId, ...]
    edges: frozenset[tuple[NodeId, NodeId]]
    sccs: tuple[frozenset[NodeId], ...]
    closed: tuple[bool, ...]
    periods: tuple[int, ...]

    def closed_sccs(self) -> tuple[frozenset[NodeId], ...]:
        return tuple(s for s, c in zip(self.sccs, self.closed) if c)


def analyze_graph(m: InfluenceMatrix) -> InfluenceGraph:
    """Component structure of the influence digraph of ``m``."""
    n = len(m.order)
    successors: list[list[int]] = [[] for _ in range(n)]
    # Entries are never negative, so a non-zero one is an edge.
    for i in range(n):
        for j in range(n):
            if m.entries[i][j]:
                successors[j].append(i)
    comps = strongly_connected_components(n, successors)
    member_comp = {v: k for k, comp in enumerate(comps) for v in comp}
    influenced = {
        member_comp[w]
        for v in range(n)
        for w in successors[v]
        if member_comp[w] != member_comp[v]
    }
    closed = tuple(k not in influenced for k in range(len(comps)))
    edges = frozenset((m.order[v], m.order[w]) for v in range(n) for w in successors[v])
    periods = tuple(component_period(comp, successors) for comp in comps)
    sccs = tuple(frozenset(m.order[v] for v in comp) for comp in comps)
    return InfluenceGraph(m.order, edges, sccs, closed, periods)


@dataclass(frozen=True)
class LimitReport:
    """Limit of the matrix powers, or the reason it does not exist.

    ``classification`` is ``fully-regular`` (limit exists, all rows equal),
    ``regular`` (limit exists) or ``not-regular`` (a closed component is
    periodic, so the powers cycle). ``limit`` holds the exact limit as
    ``Fraction`` rows in the matrix's ``order``. ``structural_zero_mask[i][j]``
    marks its zero entries: row ``i`` reaches no closed component holding
    ``order[j]``. Both are ``None`` when the limit does not exist.
    """

    classification: str
    limit: tuple[tuple[Fraction, ...], ...] | None
    structural_zero_mask: tuple[tuple[bool, ...], ...] | None
    graph: InfluenceGraph

    @property
    def iterations(self) -> int:
        # The limit is solved, not iterated. perfbench/tracing.py still reads
        # this for its influence.squarings counter.
        return 0


def _solve(rows: list[list[Fraction]], width: int) -> list[list[Fraction]]:
    """Exact solution ``X`` of ``A X = B`` by fraction-free (Bareiss) elimination.

    Each of ``rows`` is a row of the square, nonsingular ``A`` followed by
    the ``width`` entries of the same row of ``B``. Every row is first
    scaled by the lcm of its denominators, which leaves ``X`` unchanged, so
    the elimination runs on integers and each of its divisions is exact.
    With ``d`` the final pivot (the determinant up to sign), ``d * X`` is
    integral by Cramer's rule, so back substitution stays in integers too.
    """
    a = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        a.append([x.numerator * (scale // x.denominator) for x in row])
    n = len(a)
    prev = 1
    for k in range(n):
        p = next(r for r in range(k, n) if a[r][k])
        a[k], a[p] = a[p], a[k]
        pivot = a[k]
        pk = pivot[k]
        tail = pivot[k + 1 :]
        for r in range(k + 1, n):
            row = a[r]
            f = row[k]
            row[k + 1 :] = [(pk * x - f * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = pk
    scaled = [[0] * width for _ in range(n)]
    for i in reversed(range(n)):
        row = a[i]
        for c in range(width):
            rest = sum(row[j] * scaled[j][c] for j in range(i + 1, n))
            scaled[i][c] = (prev * row[n + c] - rest) // row[i]
    return [[Fraction(v, prev) for v in values] for values in scaled]


def _groups(members: list[int], entries) -> list[list[int]]:
    """``members`` split by row object, each group in order of its first member."""
    groups: dict[int, list[int]] = {}
    for v in members:
        groups.setdefault(id(entries[v]), []).append(v)
    return list(groups.values())


def _mass(row: tuple[Fraction, ...], members: list[int]) -> Fraction:
    """The mass ``row`` puts on ``members``, summed over its non-zero entries."""
    if len(members) == 1:
        return row[members[0]]
    return sum(filter(None, map(row.__getitem__, members)), Fraction(0))


def _map_rows(f, rows) -> list:
    """``[f(row) for row in rows]``, calling ``f`` once per distinct row object.

    Rows that are one object map to one result object.
    """
    done: dict[int, object] = {}
    out = []
    for row in rows:
        if id(row) not in done:
            done[id(row)] = f(row)
        out.append(done[id(row)])
    return out


def limit_matrix(m: InfluenceMatrix) -> LimitReport:
    """Classify convergence of the powers of ``m`` and solve for their exact limit.

    The limit exists exactly when every closed component of the influence
    digraph is aperiodic. Read ``m`` as a Markov chain in which node ``i``
    moves to ``j`` with probability ``m[i][j]`` (Kemeny and Snell, *Finite
    Markov Chains*, ch. 3): the closed components are its closed classes.
    Each class ``C`` has a stationary distribution ``pi_C`` solving
    ``pi (P_C - I) = 0`` with ``sum(pi) = 1``, and it is the limit row of
    every member of ``C``; with one closed class it is every row. Otherwise
    a transient node ``i`` has row ``sum over C of B[i, C] * pi_C``, where
    the absorption probabilities ``B`` solve ``(I - Q) B = R``: ``Q`` is
    ``m`` on the transient nodes and ``R[i, C]`` is the mass row ``i``
    puts on ``C``, one column per class. Every system is solved exactly
    by :func:`_solve`, so each limit row sums to exactly one.

    Each system has one unknown per group of nodes that share one row
    object, not one per node. A chain is lumpable on any partition into
    states with equal rows (Kemeny and Snell, ch. 6): group ``G`` with
    row ``p_G`` moves to group ``H`` with probability ``sum over j in H
    of p_G[j]``. Within a closed class, the lumped chain's stationary
    ``pi_G`` is the total of its members' ``pi``, and a member ``j`` of a
    group of two or more gets ``pi_j = sum over G of pi_G * p_G[j]``; a
    singleton group's node is its own ``pi_G``. Members of one transient
    group have one absorption row, so they share one limit row tuple. The
    result is the same exact rational for every input: rows that are one
    object are equal rows. :func:`influence_matrix` returns one row object
    per distinct game, so a network whose nodes share games solves small
    systems, and one whose rows are all distinct solves the per-node
    systems.
    """
    graph = analyze_graph(m)
    if any(p != 1 for p, c in zip(graph.periods, graph.closed) if c):
        return LimitReport("not-regular", None, None, graph)
    n = len(m.order)
    index = {x: k for k, x in enumerate(m.order)}
    classes = [sorted(index[x] for x in scc) for scc in graph.closed_sccs()]
    entries = m.entries
    zero = Fraction(0)
    stationary = []
    for members in classes:
        groups = _groups(members, entries)
        # Columns of P_C - I, lumped; the last, implied by the others, becomes sum(pi) = 1.
        rows = [[_mass(entries[g[0]], h) - int(g is h) for g in groups] + [zero] for h in groups[:-1]]
        rows.append([Fraction(1)] * (len(groups) + 1))
        lumped = [x for (x,) in _solve(rows, 1)]
        pi = {g[0]: x for g, x in zip(groups, lumped) if len(g) == 1}
        for j in (v for g in groups if len(g) > 1 for v in g):
            pi[j] = sum((x * entries[g[0]][j] for g, x in zip(groups, lumped)), zero)
        stationary.append(tuple(pi.get(j, zero) for j in range(n)))
    if len(classes) == 1:
        limit = (stationary[0],) * n
    else:
        class_of = {v: c for c, members in enumerate(classes) for v in members}
        groups = _groups([i for i in range(n) if i not in class_of], entries)
        rows = [
            [int(g is h) - _mass(entries[g[0]], h) for h in groups]
            + [_mass(entries[g[0]], members) for members in classes]
            for g in groups
        ]
        absorbed = {}
        for g, b in zip(groups, _solve(rows, len(classes)) if groups else []):
            row = tuple(
                b[class_of[j]] * stationary[class_of[j]][j] if j in class_of else zero
                for j in range(n)
            )
            absorbed.update(dict.fromkeys(g, row))
        limit = tuple(stationary[class_of[i]] if i in class_of else absorbed[i] for i in range(n))
    mask = tuple(_map_rows(lambda row: tuple(x == 0 for x in row), limit))
    classification = "fully-regular" if len(classes) == 1 else "regular"
    return LimitReport(classification, limit, mask, graph)


@dataclass(frozen=True)
class CentralizationReport:
    """Limit-influence facts for a network with an all-trusted core.

    ``regular_ok`` records that the limit exists. When at most one node is
    Byzantine, ``fully_regular_ok`` records that all limit rows coincide.
    When some all-trusted honest node trusts a Byzantine node,
    ``honest_influence_vanishes`` records that every honest-to-honest
    limit entry is structurally zero: total influence then rests with the
    Byzantine nodes alone. Checks that do not apply are ``None``.
    """

    common_trust: frozenset[NodeId]
    classification: str
    regular_ok: bool
    fully_regular_applicable: bool
    fully_regular_ok: bool | None
    byzantine_reaches_core: bool
    honest_influence_vanishes: bool | None
    matrix: InfluenceMatrix
    limit: LimitReport


def centralization_limit_report(net: Network) -> CentralizationReport:
    """Check the limit-influence structure of a centralised network.

    Requires a non-empty set of nodes trusted by every honest node.

    Raises:
        ValueError: when no node is trusted by all honest nodes.
    """
    common = common_trust_set(net)
    if not common:
        raise ValueError("no node is trusted by every honest node")
    m = influence_matrix(net)
    report = limit_matrix(m)
    regular_ok = report.classification in ("regular", "fully-regular")

    applicable = len(net.byzantine) <= 1
    fully_ok = (report.classification == "fully-regular") if applicable else None

    core_honest = [j for j in common if j not in net.byzantine]
    reaches = any(net.trust[j] & net.byzantine for j in core_honest)
    vanishes = None
    if reaches and report.structural_zero_mask is not None:
        index = {x: k for k, x in enumerate(m.order)}
        honest_idx = [index[h] for h in net.honest]
        vanishes = all(
            report.structural_zero_mask[a][b] for a in honest_idx for b in honest_idx
        )
    return CentralizationReport(
        common_trust=common,
        classification=report.classification,
        regular_ok=regular_ok,
        fully_regular_applicable=applicable,
        fully_regular_ok=fully_ok,
        byzantine_reaches_core=reaches,
        honest_influence_vanishes=vanishes,
        matrix=m,
        limit=report,
    )
