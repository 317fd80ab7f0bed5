#!/usr/bin/env python3
"""Who actually decides? Influence matrices and their limits.

Six nodes all listen to the same five, with a 0.8 quota. Every trusted
node carries influence 1/5 on everyone. Iterating influence changes
nothing: the matrix is idempotent and every node keeps the same say.

Then node 5 turns Byzantine. Direct influence looks identical, but in the
limit the Byzantine node holds all of it.
"""

from fractions import Fraction

from quorumlens import (
    QuotaNetwork,
    analyze_graph,
    banzhaf_raw_row,
    centralization_limit_report,
    influence_matrix,
    limit_matrix,
)


def shared_five(byzantine=frozenset()):
    honest = [n for n in "123456" if n not in byzantine]
    return QuotaNetwork(
        nodes=tuple("123456"),
        byzantine=frozenset(byzantine),
        trust={n: frozenset("12345") for n in honest},
        quota={n: Fraction(4, 5) for n in honest},
    )


def show(order, rows):
    for node, row in zip(order, rows):
        print(f"   {node}: [{', '.join(str(x) for x in row)}]")


print("== all honest ==")
net = shared_five()
m = influence_matrix(net)
print("raw pivot indices for node 6's game:", [str(x) for x in banzhaf_raw_row(net, "6")])
print("influence matrix (normalized rows):")
show(m.order, m.entries)
report = limit_matrix(m)
print("idempotent (the matrix equals its own limit)?", report.limit == m.entries)
print("classification:", report.classification)
print("limit row for node 1:", [str(x) for x in report.limit[0]])

print("\n== node 5 Byzantine ==")
variant = shared_five(byzantine={"5"})
mv = influence_matrix(variant)
print("influence matrix: honest rows unchanged, row 5 degenerate:")
show(mv.order, mv.entries)
graph = analyze_graph(mv)
for scc, closed, period in zip(graph.sccs, graph.closed, graph.periods):
    print(f"  component {sorted(scc)}: closed={closed}, period={period}")
reportv = limit_matrix(mv)
print("classification:", reportv.classification)
print("limit matrix (exact):")
show(mv.order, reportv.limit)
print("every unit of limit influence sits on the Byzantine node.")

central = centralization_limit_report(variant)
print("\ncentralization report:")
print("  common trust:", sorted(central.common_trust))
print("  limit exists (regular):", central.regular_ok)
print("  all rows equal (fully regular):", central.fully_regular_ok)
print("  a core node trusts a Byzantine node:", central.byzantine_reaches_core)
print("  honest-to-honest limit influence vanishes:", central.honest_influence_vanishes)
