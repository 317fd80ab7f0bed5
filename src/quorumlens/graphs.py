"""Graph algorithms on integer-labelled digraphs.

A digraph on ``n`` nodes is given as successor lists: ``successors[v]``
lists the nodes ``w`` with an edge ``v -> w``.
"""

from __future__ import annotations

import math


def strongly_connected_components(n: int, successors: list[list[int]]) -> list[list[int]]:
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


def component_period(members: list[int], successors: list[list[int]]) -> int:
    """Gcd of the cycle lengths inside one strongly connected component.

    0 for a single node without a self-loop.
    """
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
