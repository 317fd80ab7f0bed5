"""Influence quantification for trust networks.

Each honest node plays a simple game on its trust set: a coalition wins
when it can settle the node's opinion. A trustee's influence is its
pivot probability in that game over uniformly random coalitions, held as
an exact rational; normalizing each row yields a stochastic influence
matrix. Powers of the matrix give indirect influence, and the limit of
those powers, when it exists, gives total influence. Existence of the
limit is decided structurally from the influence digraph: every closed
strongly connected component must be aperiodic, and a unique closed
component makes the limit rows identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import common_trust_set
from .network import (
    BudgetExceededError,
    Network,
    NodeId,
    QuotaNetwork,
    threshold,
)

DEFAULT_BANZHAF_MAX_TRUST = 24
DEFAULT_LIMIT_TOL = 1e-12
DEFAULT_LIMIT_MAX_ITER = 40  # effective power 2**40


@dataclass(frozen=True)
class InfluenceMatrix:
    """Row-stochastic matrix of normalized pivot probabilities.

    ``entries[i][j]`` is the influence of node ``order[j]`` on node
    ``order[i]``, an exact rational. Rows of Byzantine nodes are
    degenerate: 1 on the diagonal, 0 elsewhere, since nothing influences
    them.
    """

    order: tuple[NodeId, ...]
    entries: tuple[tuple[Fraction, ...], ...]
    byzantine_rows: frozenset[NodeId]

    def as_float(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.entries], dtype=float)

    def row(self, node: NodeId) -> tuple[Fraction, ...]:
        return self.entries[self.order.index(node)]


def multiply_exact(a: InfluenceMatrix, b: InfluenceMatrix) -> InfluenceMatrix:
    """Exact rational matrix product; both factors must share an order."""
    if a.order != b.order:
        raise ValueError("matrix orders differ")
    n = len(a.order)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(sum((a.entries[i][k] * b.entries[k][j] for k in range(n)), Fraction(0)))
        rows.append(tuple(row))
    return InfluenceMatrix(a.order, tuple(rows), a.byzantine_rows)


def is_idempotent_exact(m: InfluenceMatrix) -> bool:
    """True when the exact square of ``m`` equals ``m``."""
    return multiply_exact(m, m).entries == m.entries


def _winning_table(net: Network, i: NodeId, members: list[NodeId]) -> bytearray:
    """Win flag for every coalition mask over ``members`` (i's trust set)."""
    size = 1 << len(members)
    table = bytearray(size)
    if isinstance(net, QuotaNetwork):
        need = threshold(net, i)
        for mask in range(size):
            table[mask] = mask.bit_count() >= need
        return table
    index = {n: k for k, n in enumerate(members)}
    slice_masks = []
    for s in net.slices[i]:
        m = 0
        for n in s:
            m |= 1 << index[n]
        slice_masks.append(m)
    for mask in range(size):
        table[mask] = any(sm & mask == sm for sm in slice_masks)
    return table


def banzhaf_raw_row(
    net: Network, i: NodeId, *, max_trust: int = DEFAULT_BANZHAF_MAX_TRUST
) -> tuple[Fraction, ...]:
    """Unnormalized pivot probability of every node in ``i``'s game.

    The raw index of a trustee is the number of coalitions of the
    remaining trustees it turns from losing to winning, divided by the
    count of such coalitions, ``2 ** (|T_i| - 1)``. Untrusted nodes are
    dummies and get exactly zero; enumerating over all nodes instead of
    the trust set would double both the pivot count and the denominator.

    Raises:
        BudgetExceededError: when the trust set exceeds ``max_trust``.
        ValueError: for a non-honest node.
    """
    if i in net.byzantine or i not in net.trust:
        raise ValueError(f"node {i!r} is not an honest node of the network")
    order = {n: k for k, n in enumerate(net.nodes)}
    members = sorted(net.trust[i], key=order.get)
    if len(members) > max_trust:
        raise BudgetExceededError(
            f"node {i}: trust set of {len(members)} exceeds the enumeration budget of {max_trust}"
        )
    table = _winning_table(net, i, members)
    size = 1 << len(members)
    denom = 1 << (len(members) - 1)
    raw: dict[NodeId, Fraction] = {}
    for k, member in enumerate(members):
        bit = 1 << k
        pivots = 0
        for mask in range(size):
            if mask & bit:
                continue
            if table[mask | bit] and not table[mask]:
                pivots += 1
        raw[member] = Fraction(pivots, denom)
    return tuple(raw.get(n, Fraction(0)) for n in net.nodes)


def banzhaf_row(
    net: Network, i: NodeId, *, max_trust: int = DEFAULT_BANZHAF_MAX_TRUST
) -> tuple[Fraction, ...]:
    """Normalized influence of every node on honest node ``i``.

    The raw indices from :func:`banzhaf_raw_row` scaled to sum to one.

    Raises:
        ValueError: when no trustee is ever pivotal (degenerate game).
    """
    raw = banzhaf_raw_row(net, i, max_trust=max_trust)
    total = sum(raw, Fraction(0))
    if total == 0:
        raise ValueError(f"node {i}: degenerate game, no trustee is ever pivotal")
    return tuple(x / total for x in raw)


def influence_matrix(
    net: Network, *, max_trust: int = DEFAULT_BANZHAF_MAX_TRUST
) -> InfluenceMatrix:
    """Influence matrix of the whole network.

    Honest rows come from :func:`banzhaf_row`; Byzantine rows are
    degenerate. Every row sums to exactly one.
    """
    rows = []
    for i in net.nodes:
        if i in net.byzantine:
            rows.append(
                tuple(Fraction(1) if j == i else Fraction(0) for j in net.nodes)
            )
        else:
            rows.append(banzhaf_row(net, i, max_trust=max_trust))
    return InfluenceMatrix(tuple(net.nodes), tuple(rows), frozenset(net.byzantine))


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


def _tarjan(n: int, successors: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan strongly-connected components, deterministic order."""
    preorder: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: dict[int, bool] = {}
    component: list[list[int]] = []
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if root in preorder:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if v not in preorder:
                preorder[v] = counter
                lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for k in range(pi, len(successors[v])):
                w = successors[v][k]
                if w not in preorder:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack.get(w):
                    lowlink[v] = min(lowlink[v], preorder[w])
            if recurse:
                continue
            work.pop()
            if lowlink[v] == preorder[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                component.append(sorted(comp))
            if work:
                u, _ = work[-1]
                lowlink[u] = min(lowlink[u], lowlink[v])
    return component


def _component_period(members: list[int], successors: list[list[int]]) -> int:
    inside = set(members)
    internal = {
        u: [w for w in successors[u] if w in inside] for u in members
    }
    if all(not nbrs for nbrs in internal.values()):
        return 0
    root = members[0]
    level = {root: 0}
    frontier = [root]
    g = 0
    while frontier:
        nxt = []
        for u in frontier:
            for w in internal[u]:
                if w not in level:
                    level[w] = level[u] + 1
                    nxt.append(w)
        frontier = nxt
    for u in members:
        for w in internal[u]:
            g = math.gcd(g, level[u] + 1 - level[w])
    return abs(g)


def analyze_graph(m: InfluenceMatrix) -> InfluenceGraph:
    """Component structure of the influence digraph of ``m``."""
    n = len(m.order)
    successors: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if m.entries[i][j] > 0:
                successors[j].append(i)
    comps = _tarjan(n, successors)
    member_comp = {v: k for k, comp in enumerate(comps) for v in comp}
    influenced = {
        member_comp[w]
        for v in range(n)
        for w in successors[v]
        if member_comp[w] != member_comp[v]
    }
    closed = tuple(k not in influenced for k in range(len(comps)))
    edges = frozenset((m.order[v], m.order[w]) for v in range(n) for w in successors[v])
    periods = tuple(_component_period(comp, successors) for comp in comps)
    sccs = tuple(frozenset(m.order[v] for v in comp) for comp in comps)
    return InfluenceGraph(m.order, edges, sccs, closed, periods)


@dataclass(frozen=True)
class LimitReport:
    """Limit of the matrix powers, or the reason it does not exist.

    ``classification`` is ``fully-regular`` (limit exists, all rows equal),
    ``regular`` (limit exists), ``not-regular`` (a closed component is
    periodic) or ``not-regular-numerically`` (structure admits a limit but
    squaring failed to converge within the iteration budget).
    ``structural_zero_mask[i][j]`` marks entries proven zero from the
    graph alone; those are exact zeros in ``limit``.
    """

    classification: str
    limit: np.ndarray | None
    error_bound: float | None
    iterations: int
    structural_zero_mask: tuple[tuple[bool, ...], ...] | None
    graph: InfluenceGraph


def _structural_mask(m: InfluenceMatrix, graph: InfluenceGraph) -> tuple[tuple[bool, ...], ...]:
    """mask[i][j] is True when the limit entry (i, j) must be zero.

    An entry can be positive only when column ``j`` lies in a closed
    component and row ``i`` can reach that component through positive
    influence steps.
    """
    n = len(m.order)
    index = {x: k for k, x in enumerate(m.order)}
    closed_of: dict[int, int] = {}
    for c, (scc, is_closed) in enumerate(zip(graph.sccs, graph.closed)):
        if is_closed:
            for label in scc:
                closed_of[index[label]] = c
    targets: list[list[int]] = [
        [j for j in range(n) if m.entries[i][j] > 0] for i in range(n)
    ]
    mask_rows = []
    for i in range(n):
        reach = {i}
        frontier = [i]
        while frontier:
            nxt = []
            for u in frontier:
                for w in targets[u]:
                    if w not in reach:
                        reach.add(w)
                        nxt.append(w)
            frontier = nxt
        reachable_closed = {closed_of[v] for v in reach if v in closed_of}
        mask_rows.append(
            tuple(
                not (j in closed_of and closed_of[j] in reachable_closed)
                for j in range(n)
            )
        )
    return tuple(mask_rows)


def limit_matrix(
    m: InfluenceMatrix,
    *,
    tol: float = DEFAULT_LIMIT_TOL,
    max_iter: int = DEFAULT_LIMIT_MAX_ITER,
) -> LimitReport:
    """Classify convergence of the powers of ``m`` and compute their limit.

    The limit exists exactly when every closed component of the influence
    digraph is aperiodic; it is computed by repeated squaring of the float
    image until the max-norm change drops below ``tol``. Entries outside
    the influence basins of closed components are forced to exact zero.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be a positive finite number")
    graph = analyze_graph(m)
    closed_periods = [p for p, c in zip(graph.periods, graph.closed) if c]
    if any(p != 1 for p in closed_periods):
        return LimitReport("not-regular", None, None, 0, None, graph)
    fully = len(closed_periods) == 1

    power = m.as_float()
    diff = math.inf
    iterations = 0
    for _ in range(max_iter):
        squared = power @ power
        diff = float(np.max(np.abs(squared - power)))
        power = squared
        iterations += 1
        if diff < tol:
            break
    mask = _structural_mask(m, graph)
    if diff >= tol:
        return LimitReport("not-regular-numerically", None, diff, iterations, mask, graph)
    for i, row in enumerate(mask):
        for j, zero in enumerate(row):
            if zero:
                power[i, j] = 0.0
    classification = "fully-regular" if fully else "regular"
    return LimitReport(classification, power, diff, iterations, mask, graph)


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


def centralization_limit_report(
    net: Network,
    *,
    tol: float = DEFAULT_LIMIT_TOL,
    max_iter: int = DEFAULT_LIMIT_MAX_ITER,
    max_trust: int = DEFAULT_BANZHAF_MAX_TRUST,
) -> CentralizationReport:
    """Check the limit-influence structure of a centralised network.

    Requires a non-empty set of nodes trusted by every honest node.

    Raises:
        ValueError: when no node is trusted by all honest nodes.
    """
    common = common_trust_set(net)
    if not common:
        raise ValueError("no node is trusted by every honest node")
    m = influence_matrix(net, max_trust=max_trust)
    report = limit_matrix(m, tol=tol, max_iter=max_iter)
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
