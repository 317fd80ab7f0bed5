"""Reference answers that share no search code with quorumlens.

Every function here reads a network object only through its fields
(nodes, byzantine, trust, quota, slices) and decides with a different
method than the program: quorum questions by tabulating all 2^n node
subsets with numpy, forks by pairing minimal winning coalitions, safety
tables and influence rows from their closed forms, and limit existence
from the digraph with networkx. They are slow in n and meant only for
the benchmark's correctness gate.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

MAX_TABLE_NODES = 22


def threshold(net, node) -> int:
    return math.ceil(Fraction(net.quota[node]) * len(net.trust[node]))


def is_quota(net) -> bool:
    return hasattr(net, "quota")


def winning_coalitions(net, node) -> list[frozenset]:
    """Inclusion-minimal coalitions that settle ``node``'s opinion."""
    if is_quota(net):
        members = sorted(net.trust[node])
        return [frozenset(c) for c in itertools.combinations(members, threshold(net, node))]
    return [frozenset(s) for s in net.slices[node]]


def is_quorum(net, members) -> bool:
    """Non-empty, and every honest member has a winning coalition inside."""
    q = frozenset(members)
    if not q or not q <= set(net.nodes):
        return False
    for m in q:
        if m in net.byzantine:
            continue
        if is_quota(net):
            if len(net.trust[m] & q) < threshold(net, m):
                return False
        elif not any(s <= q for s in net.slices[m]):
            return False
    return True


# ---------------------------------------------------------------------------
# Subset tables


class QuorumTable:
    """Quorum flag of every node subset, indexed by bitmask in node order."""

    def __init__(self, net):
        import numpy as np

        n = len(net.nodes)
        if n > MAX_TABLE_NODES:
            raise ValueError(f"{n} nodes is too many for the subset table")
        self.net = net
        self.n = n
        self.bit = {x: 1 << k for k, x in enumerate(net.nodes)}
        self.full = (1 << n) - 1
        self.honest_mask = sum(self.bit[x] for x in net.nodes if x not in net.byzantine)
        subsets = np.arange(1 << n, dtype=np.uint32)
        flags = subsets != 0
        for x in net.nodes:
            if x in net.byzantine:
                continue
            member = (subsets & self.bit[x]) != 0
            if is_quota(net):
                tmask = np.uint32(self.mask(net.trust[x]))
                ok = np.bitwise_count(subsets & tmask) >= threshold(net, x)
            else:
                ok = np.zeros(1 << n, dtype=bool)
                for s in net.slices[x]:
                    smask = np.uint32(self.mask(s))
                    ok |= (subsets & smask) == smask
            flags &= ~member | ok
        self.subsets = subsets
        self.quorum = flags

    def mask(self, labels) -> int:
        return sum(self.bit[x] for x in labels)

    def labels(self, mask: int) -> frozenset:
        return frozenset(x for x in self.net.nodes if mask & self.bit[x])

    def _contains(self, flags):
        """out[S] is true when some T subset of S has flags[T]."""
        out = flags.copy()
        for b in range(self.n):
            view = out.reshape(-1, 2, 1 << b)
            view[:, 1, :] |= view[:, 0, :]
        return out

    def qi_holds(self, honest: bool) -> bool:
        """Plain: no two quora are disjoint. Honest: no two honest-backed
        quora are disjoint on honest nodes."""
        import numpy as np

        flags = self.quorum
        if honest:
            flags = flags & ((self.subsets & np.uint32(self.honest_mask)) != 0)
            blocked = self.subsets & np.uint32(self.honest_mask)
        else:
            blocked = self.subsets
        contains = self._contains(flags)
        firsts = np.nonzero(flags)[0].astype(np.uint32)
        rest = np.uint32(self.full) ^ blocked[firsts]
        return not bool(contains[rest].any())

    def minimal_quora(self) -> set[frozenset]:
        import numpy as np

        contains = self._contains(self.quorum)
        proper = np.zeros_like(self.quorum)
        for b in range(self.n):
            has_b = (self.subsets >> np.uint32(b)) & np.uint32(1) == 1
            below = self.subsets ^ np.uint32(1 << b)
            proper |= has_b & contains[below]
        minimal = np.nonzero(self.quorum & ~proper)[0]
        return {self.labels(int(m)) for m in minimal}


# ---------------------------------------------------------------------------
# Forks and safety tables


def fork_exists(net) -> bool:
    """Two honest nodes can settle on opposite values.

    For distinct nodes, their coalitions may share only Byzantine members
    (which reveal per observer); one node would need two fully disjoint
    coalitions of its own.
    """
    honest = [x for x in net.nodes if x not in net.byzantine]
    wins = {x: winning_coalitions(net, x) for x in honest}
    for i in honest:
        for j in honest:
            for c_a in wins[i]:
                for c_b in wins[j]:
                    shared = c_a & c_b
                    if i == j:
                        if not shared:
                            return True
                    elif shared <= net.byzantine:
                        return True
    return False


def safety_expectation(net) -> tuple[bool, list[list[str]], bool]:
    """(passes, failing overlap pairs, common trust empty) for a uniform quota net.

    A pair passes when |T_i & T_j| > b / (1 - b) * (|T_i| + |T_j|) with
    b the Byzantine fraction, which defaults to 1 - quota.
    """
    honest = [x for x in net.nodes if x not in net.byzantine]
    b = Fraction(net.byz_fraction[honest[0]])
    factor = b / (1 - b)
    failing = []
    for i, j in itertools.combinations(honest, 2):
        size = len(net.trust[i] & net.trust[j])
        if not size > factor * (len(net.trust[i]) + len(net.trust[j])):
            failing.append([i, j])
    common = frozenset.intersection(*(frozenset(net.trust[i]) for i in honest))
    return (not failing and bool(common)), failing, not common


# ---------------------------------------------------------------------------
# Influence


def symmetric_influence_rows(net) -> list[list[Fraction]]:
    """Exact influence matrix of a network whose games are all quota games.

    In a quota game every trustee is pivotal for the same number of
    coalitions, so each honest row spreads 1/|T_i| over the trust set.
    An explicit-slice network qualifies when each node's slices are all
    subsets of one size of its trust set, as ``expand_quota_network``
    writes them; anything else is rejected.
    """
    rows = []
    for i in net.nodes:
        if i in net.byzantine:
            rows.append([Fraction(int(j == i)) for j in net.nodes])
            continue
        trust = net.trust[i]
        if not is_quota(net):
            sizes = {len(s) for s in net.slices[i]}
            if len(sizes) != 1 or len(net.slices[i]) != math.comb(len(trust), sizes.pop()):
                raise ValueError(f"node {i}: slices do not form a quota game")
        rows.append([Fraction(1, len(trust)) if j in trust else Fraction(0) for j in net.nodes])
    return rows


def limit_classification(order, rows) -> str:
    """Existence of the limit of the matrix powers, from the digraph.

    Edge j -> i when j influences i. The limit exists when every closed
    strongly connected component is aperiodic, and its rows coincide when
    exactly one component is closed.
    """
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(len(order)))
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x > 0:
                g.add_edge(j, i)
    closed = []
    for comp in nx.strongly_connected_components(g):
        if any(u not in comp for v in comp for u in g.predecessors(v)):
            continue
        sub = g.subgraph(comp)
        if sub.number_of_edges() == 0 or not nx.is_aperiodic(sub):
            return "not-regular"
        closed.append(comp)
    return "fully-regular" if len(closed) == 1 else "regular"


def satisfies(cnf, assignment: dict[int, bool]) -> bool:
    return all(any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in cnf.clauses)
