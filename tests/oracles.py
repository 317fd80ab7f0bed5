"""Independent brute-force oracles used to cross-check the library.

Everything here recomputes results from first principles with plain set
logic and exhaustive enumeration, deliberately avoiding the library's
search code so that each check runs along two independent routes. The
desk-scale enumerators (:func:`enumerate_profiles`,
:func:`enumerate_selectors`) and the coalition-closure operator
(:func:`closure_step`, :func:`closure_fixpoint`) live here too: only
tests use them, and so does :func:`walk_network_document`, a network
file reader that checks every label one at a time.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

import numpy as np

from quorumlens import (
    Cnf,
    GenParams,
    InfluenceMatrix,
    Network,
    NetworkFormatError,
    NodeId,
    OpinionProfile,
    QuotaNetwork,
    TrustNetwork,
    random_quota_network,
    threshold,
    validate_network,
)
from quorumlens import influence as influence_mod
from quorumlens.influence import LimitReport, analyze_graph
from quorumlens.netio import _TOP_KEYS, LoadedNetwork, _number


def slice_families(net):
    """Explicit winning-coalition families, Byzantine singletons included."""
    families = {}
    for n in net.nodes:
        if n in net.byzantine:
            families[n] = [frozenset({n})]
        elif isinstance(net, QuotaNetwork):
            t = sorted(net.trust[n])
            need = math.ceil(net.quota[n] * len(t))
            families[n] = [frozenset(c) for c in itertools.combinations(t, need)]
        else:
            families[n] = list(net.slices[n])
    return families


def wins(net, i, coalition) -> bool:
    """Does ``coalition`` settle honest node i's opinion?"""
    if isinstance(net, QuotaNetwork):
        need = math.ceil(net.quota[i] * len(net.trust[i]))
        return len(frozenset(coalition) & net.trust[i]) >= need
    return any(s <= frozenset(coalition) for s in net.slices[i])


def observed(net, profile: OpinionProfile, observer, x) -> frozenset:
    members = set()
    for n in net.trust[observer]:
        if n in net.byzantine:
            if profile.byzantine_reveals.get(n, {}).get(observer) == x:
                members.add(n)
        elif profile.honest_opinions[n] == x:
            members.add(n)
    return frozenset(members)


def node_validates(net, profile, i, x) -> bool:
    return wins(net, i, observed(net, profile, i, x))


def enumerate_profiles(net: Network) -> Iterator[OpinionProfile]:
    """Yield every opinion profile of ``net``.

    Byzantine reveal maps range over all assignments to the honest
    observers that trust the node. Exponential; intended for small
    instances and test oracles.
    """
    honest = net.honest
    byz = sorted(net.byzantine)
    observer_lists = [
        [o for o in honest if b in net.trust[o]] for b in byz
    ]
    for bits in itertools.product((0, 1), repeat=len(honest)):
        opinions = dict(zip(honest, bits))
        reveal_choices = [
            itertools.product((0, 1), repeat=len(obs)) for obs in observer_lists
        ]
        for combo in itertools.product(*reveal_choices):
            reveals = {
                b: dict(zip(obs, vals))
                for b, obs, vals in zip(byz, observer_lists, combo)
            }
            yield OpinionProfile(opinions, reveals)


def enumerate_selectors(net: TrustNetwork) -> Iterator[dict[NodeId, frozenset]]:
    """Yield every slice-selector function of an explicit-slice network."""
    if not isinstance(net, TrustNetwork):
        raise TypeError("selector enumeration expects an explicit-slice network")
    honest = net.honest
    for combo in itertools.product(*(net.slices[i] for i in honest)):
        selector = dict(zip(honest, combo))
        for b in net.byzantine:
            selector[b] = frozenset({b})
        yield selector


def _selector_slice(net: Network, selector: Mapping[NodeId, Iterable[NodeId]], node: NodeId) -> frozenset:
    if node in net.byzantine:
        chosen = frozenset(selector.get(node, {node}))
        if chosen != frozenset({node}):
            raise ValueError(f"byzantine node {node} must select its own singleton")
        return chosen
    try:
        chosen = frozenset(selector[node])
    except KeyError:
        raise ValueError(f"selector is missing honest node {node}") from None
    if isinstance(net, QuotaNetwork):
        if not chosen <= net.trust[node] or len(chosen) < threshold(net, node):
            raise ValueError(f"selector picks a non-slice for node {node}")
    elif chosen not in net.slices[node]:
        raise ValueError(f"selector picks a non-slice for node {node}")
    return chosen


def closure_step(
    net: Network,
    selector: Mapping[NodeId, Iterable[NodeId]],
    seed: Iterable[NodeId],
) -> frozenset[NodeId]:
    """One application of the coalition-closure operator.

    Returns the union, over every node in ``seed``, of the winning
    coalition the selector picked for it. Iterating from any seed reaches
    a fixpoint in at most ``len(net.nodes)`` steps.
    """
    result: set[NodeId] = set()
    for node in seed:
        result |= _selector_slice(net, selector, node)
    return frozenset(result)


def closure_fixpoint(
    net: Network,
    selector: Mapping[NodeId, Iterable[NodeId]],
    seed: Iterable[NodeId],
) -> frozenset[NodeId]:
    """Union of all iterates of :func:`closure_step` starting from ``seed``.

    The iterate sequence is eventually periodic, so the union is taken
    until the current set repeats.
    """
    seen: set[frozenset] = set()
    current = frozenset(seed)
    union: set[NodeId] = set()
    while current not in seen:
        seen.add(current)
        current = closure_step(net, selector, current)
        union |= current
    return frozenset(union)


def forked_by_profile_enumeration(net) -> bool:
    """Exhaustive profile search for two honest nodes validating opposite values."""
    honest = net.honest
    for profile in enumerate_profiles(net):
        for i in honest:
            if not node_validates(net, profile, i, 1):
                continue
            for j in honest:
                if node_validates(net, profile, j, 0):
                    return True
    return False


def quota_forked_by_closed_form(net: QuotaNetwork) -> bool:
    """Whether a valid quota network forks, by one inequality per honest pair.

    Distinct honest ``i`` and ``j`` fork exactly when
    ``t_i + t_j <= |T_i | T_j| + |T_i & T_j & byz|``, with thresholds
    ``t = ceil(q * |T|)``: two agreeing coalitions that share only
    Byzantine members fit in the union of the trust sets, where each
    shared Byzantine trustee counts once for each side. A node never forks
    with itself on a valid quota network: its two coalitions would split
    its trust set, and each would need more than half of it.
    """
    need = {i: math.ceil(net.quota[i] * len(net.trust[i])) for i in net.honest}
    return any(
        need[i] + need[j]
        <= len(net.trust[i] | net.trust[j]) + len(net.trust[i] & net.trust[j] & net.byzantine)
        for i, j in itertools.combinations(net.honest, 2)
    )


def strong_forked_by_selector_enumeration(net: TrustNetwork) -> bool:
    """Exhaustive selector search for two self-supporting opposite closures.

    For each selector the closure of a node is the union of all iterates
    of the chosen-coalition map, root included. Two distinct honest roots
    strongly fork when their closures share no honest node: each closure
    then supports one value internally (Byzantine members reveal
    per-observer) down to arbitrary depth.
    """
    honest = net.honest

    def closure(selector, root):
        union = {root}
        seen = set()
        current = frozenset({root})
        while current not in seen:
            seen.add(current)
            current = frozenset().union(*(selector[n] for n in current)) if current else frozenset()
            union |= current
        return frozenset(union)

    for combo in itertools.product(*(net.slices[i] for i in honest)):
        selector = dict(zip(honest, combo))
        for b in net.byzantine:
            selector[b] = frozenset({b})
        closures = {i: closure(selector, i) for i in honest}
        for i in honest:
            for j in honest:
                if i == j:
                    continue
                both = closures[i] & closures[j]
                if not any(n not in net.byzantine for n in both):
                    return True
    return False


def all_quora(net) -> list[frozenset]:
    """Every quorum, by direct check of all non-empty subsets.

    The list runs by size, then in lexicographic order of network
    positions, which is the order ``minimal_quora`` reports.
    """
    quora = []
    nodes = list(net.nodes)
    for size in range(1, len(nodes) + 1):
        for combo in itertools.combinations(nodes, size):
            q = frozenset(combo)
            if all(n in net.byzantine or wins(net, n, q) for n in q):
                quora.append(q)
    return quora


def swap_is_automorphism(net: QuotaNetwork, a, b) -> bool:
    """Does exchanging nodes ``a`` and ``b`` map the quota network onto itself?

    The image of every node must keep its Byzantine status, and an honest
    image must have the swapped trust set and the same threshold.
    """

    def image(x):
        return b if x == a else a if x == b else x

    for x in net.nodes:
        y = image(x)
        if (x in net.byzantine) != (y in net.byzantine):
            return False
        if x in net.byzantine:
            continue
        if frozenset(map(image, net.trust[x])) != net.trust[y]:
            return False
        if math.ceil(net.quota[x] * len(net.trust[x])) != math.ceil(net.quota[y] * len(net.trust[y])):
            return False
    return True


def qi_by_pair_enumeration(net) -> bool:
    """Plain quorum intersection by checking every pair of quora."""
    quora = all_quora(net)
    for a in range(len(quora)):
        for b in range(a + 1, len(quora)):
            if not (quora[a] & quora[b]):
                return False
    return True


def qi_honest_by_pair_enumeration(net) -> bool:
    """Honest-intersection variant over honest-inhabited quora."""
    byz = net.byzantine
    quora = [q for q in all_quora(net) if any(n not in byz for n in q)]
    for a in range(len(quora)):
        for b in range(len(quora)):
            if a == b:
                continue
            both = quora[a] & quora[b]
            if not any(n not in byz for n in both):
                return False
    return True


def largest_quorum_within(net, members) -> frozenset:
    """Greatest fixpoint: drop members without a winning coalition until stable."""
    current = frozenset(members)
    while True:
        kept = frozenset(n for n in current if n in net.byzantine or wins(net, n, current))
        if kept == current:
            return current
        current = kept


def first_split_witness(net, honest: bool = False):
    """The scalar split scan: (splits examined, first witness in split order).

    ``top`` is the largest quorum. The plain scan splits top's nodes; the
    honest scan splits every honest node and puts top's Byzantine nodes on
    both sides. The first pool node (network order) stays on side one, and
    split code ``c`` puts the k-th other pool node on side one when bit k
    of ``c`` is set. A code is a witness when the largest quorum of each
    side holds a member (an honest member, for ``honest``) and the two
    share none. The scan stops at the first witness.
    """
    byz = net.byzantine
    counted = frozenset(n for n in net.nodes if n not in byz) if honest else frozenset(net.nodes)
    top = largest_quorum_within(net, net.nodes)
    if not (top & counted):
        return 0, None
    if honest:
        pool, base = [n for n in net.nodes if n not in byz], top & byz
    else:
        pool, base = [n for n in net.nodes if n in top], frozenset()
    pivot, free = pool[0], pool[1:]
    for code in range(2 ** len(free)):
        side = {pivot} | {n for k, n in enumerate(free) if (code >> k) & 1}
        rest = set(free) - side
        q1 = largest_quorum_within(net, side | base)
        q2 = largest_quorum_within(net, rest | base)
        if q1 & counted and q2 & counted and not (q1 & q2 & counted):
            return code + 1, (q1, q2)
    return 2 ** len(free), None


def first_generated_witness(net, honest: bool = False, cut: bool = True):
    """The scalar generated-quorum search: (holds, witness, examined, states).

    Quora grow from the singletons of top's counted nodes (honest ones
    for ``honest``) in network order, the search from a seed never adding
    an earlier seed's node, and states with more than half of top's
    counted nodes are dropped unexpanded. A depth-first stack expands
    each state once: the first member (network order) lacking a
    coalition inside the state branches over its coalitions, pushed in
    slice order; a state whose every member has one is a quorum, examined
    against the largest quorum of top without its counted members. With
    ``cut``, a state with two or more children to push is dropped instead
    when the largest quorum of top without its counted members holds no
    counted node: every quorum grown from it would be judged the same
    way. Every membership test is rescanned from scratch on plain
    frozensets. ``states`` counts the distinct states expanded up to the
    witness, or in all, so a state budget below it is exceeded.
    """
    families = slice_families(net)
    position = {n: k for k, n in enumerate(net.nodes)}
    everyone = frozenset(net.nodes)
    counted = everyone - net.byzantine if honest else everyone
    top = largest_quorum_within(net, net.nodes)
    seeds = sorted(top & counted, key=position.__getitem__)
    bound = len(seeds) // 2
    visited = set()
    examined = 0
    room = top
    for seed in seeds:
        stack = [frozenset({seed})]
        while stack:
            q = stack.pop()
            if q in visited or len(q & counted) > bound:
                continue
            visited.add(q)
            lacking = [
                n
                for n in sorted(q, key=position.__getitem__)
                if not any(s <= q for s in families[n])
            ]
            if lacking:
                children = [
                    q | s for s in families[lacking[0]] if q | s <= room and q | s not in visited
                ]
                branching = cut and len(children) > 1
                if branching and not largest_quorum_within(net, top - (q & counted)) & counted:
                    continue
                stack.extend(children)
                continue
            examined += 1
            other = largest_quorum_within(net, top - (q & counted))
            if other & counted:
                return False, (q, other), examined, len(visited)
        room -= {seed}
    return True, None, examined, len(visited)


def generated_minimal_quora(net) -> list[frozenset]:
    """Every inclusion-minimal quorum, found by closing slice choices.

    From each node of the largest quorum, a depth-first search adds the
    coalitions of the first member (network order) lacking one inside the
    set, until every member has one. A minimal quorum holds a coalition of
    each of its members, so the search from any of its members reaches it;
    of the quora reached, those holding no other are kept. No state bound,
    no skipped seeds, plain frozensets; unlike :func:`all_quora` its cost
    follows the slices, not 2^n, so it reaches CNF reductions. Sorted by
    size, then network positions, the order ``minimal_quora`` reports.
    """
    families = slice_families(net)
    position = {n: k for k, n in enumerate(net.nodes)}
    top = largest_quorum_within(net, net.nodes)
    found, visited = set(), set()
    for seed in top:
        stack = [frozenset({seed})]
        while stack:
            q = stack.pop()
            if q in visited:
                continue
            visited.add(q)
            lacking = [n for n in q if not any(s <= q for s in families[n])]
            if not lacking:
                found.add(q)
                continue
            for s in families[min(lacking, key=position.__getitem__)]:
                if q | s <= top:
                    stack.append(q | s)
    minimal = [q for q in found if not any(o < q for o in found)]
    return sorted(minimal, key=lambda q: (len(q), sorted(map(position.__getitem__, q))))


def qi_by_minimal_pair_enumeration(net) -> bool:
    """Plain quorum intersection from every pair of minimal quora.

    Two disjoint quora hold two disjoint minimal quora, so checking the
    pairs of :func:`generated_minimal_quora` decides it on networks too
    large for :func:`qi_by_pair_enumeration`.
    """
    quora = generated_minimal_quora(net)
    return all(a & b for a, b in itertools.combinations(quora, 2))


def banzhaf_raw_global(net, i, j) -> Fraction:
    """Raw pivot index of j in i's game, enumerating coalitions over all nodes."""
    others = [n for n in net.nodes if n != j]
    pivots = 0
    for size in range(len(others) + 1):
        for combo in itertools.combinations(others, size):
            c = frozenset(combo)
            if wins(net, i, c | {j}) and not wins(net, i, c):
                pivots += 1
    return Fraction(pivots, 2 ** (len(net.nodes) - 1))


def multiply_exact(a: InfluenceMatrix, b: InfluenceMatrix) -> InfluenceMatrix:
    """Exact rational matrix product; both factors must share an order."""
    if a.order != b.order:
        raise ValueError("matrix orders differ")
    n = range(len(a.order))
    rows = tuple(
        tuple(sum((a.entries[i][k] * b.entries[k][j] for k in n), Fraction(0)) for j in n)
        for i in n
    )
    return InfluenceMatrix(a.order, rows)


def is_idempotent_exact(m: InfluenceMatrix) -> bool:
    """True when the exact square of ``m`` equals ``m``."""
    return multiply_exact(m, m).entries == m.entries


def as_float(m: InfluenceMatrix) -> np.ndarray:
    """The entries of influence matrix ``m`` as a float array, row by row."""
    return np.array([[float(x) for x in row] for row in m.entries], dtype=float)


def limit_by_squaring(m, squarings: int = 16):
    """Float limit of the powers of influence matrix ``m`` by repeated squaring.

    A fixed number of squarings and no tolerance. Rounding drifts the row
    sums by about ``2 ** squarings`` machine epsilons (60 squarings can
    move an entry by 0.1), so the default raises ``m`` to the power 65,536,
    far past the mixing time of the small networks the suites use.
    """
    power = as_float(m)
    for _ in range(squarings):
        power = power @ power
    return power


def limit_by_one_system(m: InfluenceMatrix) -> LimitReport:
    """The exact limit with one unknown per node: the reference for ``limit_matrix``.

    One stationary system per closed class over all of its members, and
    one absorption system over all transient nodes, whatever rows they
    share. Systems go through ``influence._solve``, looked up at call
    time, so a test can count them.
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
        # Columns of P_C - I; the last, implied by the others, becomes sum(pi) = 1.
        rows = [[entries[s][r] - int(r == s) for s in members] + [zero] for r in members[:-1]]
        rows.append([Fraction(1)] * (len(members) + 1))
        pi = dict(zip(members, (x for (x,) in influence_mod._solve(rows, 1))))
        stationary.append(tuple(pi.get(j, zero) for j in range(n)))
    if len(classes) == 1:
        limit = (stationary[0],) * n
    else:
        class_of = {v: c for c, members in enumerate(classes) for v in members}
        transient = [i for i in range(n) if i not in class_of]
        rows = [
            [int(i == j) - entries[i][j] for j in transient]
            + [sum((entries[i][v] for v in members), zero) for members in classes]
            for i in transient
        ]
        absorbed = dict(zip(transient, influence_mod._solve(rows, len(classes)))) if transient else {}
        limit = tuple(
            stationary[class_of[i]]
            if i in class_of
            else tuple(
                absorbed[i][class_of[j]] * stationary[class_of[j]][j] if j in class_of else zero
                for j in range(n)
            )
            for i in range(n)
        )
    mask = tuple(tuple(x == 0 for x in row) for row in limit)
    classification = "fully-regular" if len(classes) == 1 else "regular"
    return LimitReport(classification, limit, mask, graph)


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> Cnf:
    clauses = tuple(
        tuple(rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(3))
        for _ in range(num_clauses)
    )
    return Cnf(num_vars, clauses)


def random_3cnf(rng: random.Random, num_vars: int, num_clauses: int) -> Cnf:
    """Uniform random 3-CNF: each clause has 3 distinct variables, each negated with odds 1/2."""
    clauses = []
    for _ in range(num_clauses):
        picked = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in picked))
    return Cnf(num_vars, tuple(clauses))


def random_explicit_net(
    rng: random.Random,
    num_nodes: int,
    *,
    max_slices: int = 3,
    max_slice_size: int = 3,
    byz_count: int = 0,
    vetoed: bool = False,
    self_in_slices: bool = False,
) -> TrustNetwork:
    """Random explicit-slice network for property suites.

    ``vetoed`` adds each honest node's singleton to its slices, which
    makes the network vetoed; ``self_in_slices`` instead puts each honest
    node inside every one of its coalitions (the membership form of a
    veto).
    """
    labels = [f"n{k}" for k in range(1, num_nodes + 1)]
    byz = frozenset(rng.sample(labels, byz_count))
    honest = [x for x in labels if x not in byz]
    slices = {}
    trust = {}
    for i in honest:
        family = []
        for _ in range(rng.randint(1, max_slices)):
            size = rng.randint(1, min(max_slice_size, num_nodes))
            members = frozenset(rng.sample(labels, size))
            if self_in_slices:
                members |= {i}
            family.append(members)
        if vetoed:
            family.append(frozenset({i}))
        slices[i] = tuple(dict.fromkeys(family))
        trust[i] = frozenset().union(*slices[i])
    return TrustNetwork(tuple(labels), byz, trust, slices)


def random_uniform_quota_net(
    rng: random.Random,
    num_nodes: int,
    quota: Fraction,
    *,
    byz_count: int = 0,
    min_trust: int = 2,
) -> QuotaNetwork:
    """Random quota network with a uniform quota and default failure model."""
    labels = [f"n{k}" for k in range(1, num_nodes + 1)]
    byz = frozenset(rng.sample(labels, byz_count))
    honest = [x for x in labels if x not in byz]
    trust = {}
    for i in honest:
        size = rng.randint(min(min_trust, num_nodes), num_nodes)
        members = set(rng.sample(labels, size))
        members.add(i)
        trust[i] = frozenset(members)
    quota_map = {i: quota for i in honest}
    return QuotaNetwork(tuple(labels), byz, trust, quota_map)


def seeded_quota_networks(seed: int, count: int, min_nodes: int = 3, max_nodes: int = 9):
    """``count`` random quota networks with 0 to 2 Byzantine members.

    About half come from ``random_quota_network`` over its three
    topologies, the rest from :func:`random_uniform_quota_net`.
    """
    rng = random.Random(seed)
    made = []
    while len(made) < count:
        n = rng.randint(min_nodes, max_nodes)
        quota = rng.choice([Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5)])
        byz = rng.randint(0, 2)
        if rng.random() < 0.5:
            topology = rng.choice(["clique", "overlapping-groups", "centralised"])
            params = GenParams(n, rng.randint(2, n), quota, byz, rng.randrange(2**32), topology)
            try:
                made.append(random_quota_network(params))
            except ValueError:
                continue
        else:
            made.append(random_uniform_quota_net(rng, n, quota, byz_count=min(byz, n - 1)))
    return made


def admissible_placements(net: QuotaNetwork):
    """Every Byzantine placement within each trust set's failure budget.

    A placement is a subset of the nodes, excluding the full set; it is
    admissible when every remaining honest node's trust set carries at
    most its ``byz_fraction`` share of Byzantine members.
    """
    labels = list(net.nodes)
    for size in range(len(labels)):
        for combo in itertools.combinations(labels, size):
            b = frozenset(combo)
            honest = [x for x in labels if x not in b]
            if not honest:
                continue
            ok = True
            for i in honest:
                t = net.trust.get(i)
                if t is None:
                    ok = False
                    break
                if len(t & b) > net.byz_fraction[i] * len(t):
                    ok = False
                    break
            if ok:
                yield b


def place_byzantine(net: QuotaNetwork, byz: frozenset) -> QuotaNetwork:
    """Same trust structure with ``byz`` as the Byzantine set."""
    honest = [x for x in net.nodes if x not in byz]
    return QuotaNetwork(
        net.nodes,
        byz,
        {i: net.trust[i] for i in honest},
        {i: net.quota[i] for i in honest},
        {i: net.byz_fraction[i] for i in honest},
    )


def _walked_labels(value, key: str, known=None) -> list:
    if not isinstance(value, list):
        raise NetworkFormatError(f"key {key!r}: expected an array of labels")
    for x in value:
        if not (isinstance(x, str) and x):
            raise NetworkFormatError(f"key {key!r}: label {x!r} is not a non-empty string")
        if known is not None and x not in known:
            raise NetworkFormatError(f"key {key!r}: label {x!r} does not appear in \"nodes\"")
    return list(value)


def holds_veto(net: Network, i: NodeId) -> bool:
    """Whether honest ``i``'s own singleton wins for it, by its kind's rule.

    A slices node lists ``{i}`` among its slices; a quota node has
    threshold 1 and trusts itself. A network is vetoed when every honest
    node holds a veto.
    """
    if isinstance(net, QuotaNetwork):
        return threshold(net, i) == 1 and i in net.trust[i]
    return frozenset({i}) in net.slices[i]


def walk_network_document(doc) -> LoadedNetwork:
    """``parse_network_document`` as an element-by-element walk of the document.

    Every label array is read one label at a time, in document order, so
    the first bad label raises. The checks, their order and their
    messages are those of the network file format; the rationals go
    through the library's own number reader.
    """

    def expect(condition, message):
        if not condition:
            raise NetworkFormatError(message)

    expect(isinstance(doc, dict), "top level must be a JSON object")
    unknown = sorted(set(doc) - _TOP_KEYS)
    expect(not unknown, f"unknown keys: {', '.join(unknown)}")
    for key in ("nodes", "kind"):
        expect(key in doc, f"missing required key {key!r}")
    nodes = _walked_labels(doc["nodes"], "nodes")
    expect(len(set(nodes)) == len(nodes), 'duplicate labels in "nodes"')
    known = set(nodes)
    byzantine = frozenset(_walked_labels(doc.get("byzantine", []), "byzantine", known))
    honest = [x for x in nodes if x not in byzantine]
    kind = doc["kind"]
    expect(kind in ("slices", "quota"), f'key "kind": {kind!r} is not "slices" or "quota"')
    vetoed = doc.get("vetoed", False)
    expect(isinstance(vetoed, bool), 'key "vetoed": expected a boolean')

    addition = None
    if "slice_addition" in doc:
        expect(kind == "slices", 'key "slice_addition" requires a slices network')
        meta = doc["slice_addition"]
        expect(isinstance(meta, dict), 'key "slice_addition": expected an object')
        expect(
            set(meta) == {"node", "slice"},
            'key "slice_addition": expected exactly the keys "node" and "slice"',
        )
        target = meta["node"]
        expect(
            isinstance(target, str) and target in honest,
            'key "slice_addition": "node" must name an honest node',
        )
        members = frozenset(_walked_labels(meta["slice"], 'slice_addition "slice"', known))
        expect(bool(members), 'key "slice_addition": empty slice')
        addition = (target, members)

    if kind == "slices":
        for forbidden in ("trust", "quota", "quota_uniform", "byz_fraction", "byz_fraction_uniform"):
            expect(forbidden not in doc, f"key {forbidden!r} does not belong to a slices network")
        expect("slices" in doc, 'missing required key "slices"')
        raw = doc["slices"]
        expect(isinstance(raw, dict), 'key "slices": expected an object')
        expect(set(raw) == set(honest), 'key "slices": domain must be exactly the honest nodes')
        slices, trust = {}, {}
        for label in honest:
            families = raw[label]
            expect(isinstance(families, list) and families, f"slices[{label!r}]: expected a non-empty array")
            parsed = []
            for k, coalition in enumerate(families):
                members = frozenset(_walked_labels(coalition, f"slices[{label!r}][{k}]", known))
                expect(bool(members), f"slices[{label!r}][{k}]: empty coalition")
                parsed.append(members)
            union = frozenset().union(*parsed)
            if addition is not None and addition[0] == label:
                union |= addition[1]
            slices[label] = tuple(parsed)
            trust[label] = union
        net = TrustNetwork(tuple(nodes), byzantine, trust, slices)
    else:
        expect("slices" not in doc, 'key "slices" does not belong to a quota network')
        expect("trust" in doc, 'missing required key "trust"')
        raw = doc["trust"]
        expect(isinstance(raw, dict), 'key "trust": expected an object')
        expect(set(raw) == set(honest), 'key "trust": domain must be exactly the honest nodes')
        trust = {
            label: frozenset(_walked_labels(raw[label], f"trust[{label!r}]", known))
            for label in honest
        }
        expect(
            ("quota_uniform" in doc) != ("quota" in doc),
            'exactly one of "quota_uniform" or "quota" is required',
        )
        if "quota_uniform" in doc:
            q = _number(doc["quota_uniform"], "quota_uniform")
            quota = {label: q for label in honest}
        else:
            raw_q = doc["quota"]
            expect(isinstance(raw_q, dict), 'key "quota": expected an object')
            expect(set(raw_q) == set(honest), 'key "quota": domain must be exactly the honest nodes')
            quota = {label: _number(v, f"quota[{label!r}]") for label, v in raw_q.items()}
        expect(
            not ("byz_fraction_uniform" in doc and "byz_fraction" in doc),
            'at most one of "byz_fraction_uniform" or "byz_fraction" is allowed',
        )
        byz_fraction = {}
        if "byz_fraction_uniform" in doc:
            b = _number(doc["byz_fraction_uniform"], "byz_fraction_uniform")
            byz_fraction = {label: b for label in honest}
        elif "byz_fraction" in doc:
            raw_b = doc["byz_fraction"]
            expect(isinstance(raw_b, dict), 'key "byz_fraction": expected an object')
            expect(set(raw_b) <= set(honest), 'key "byz_fraction": domain must be honest nodes')
            byz_fraction = {label: _number(v, f"byz_fraction[{label!r}]") for label, v in raw_b.items()}
        net = QuotaNetwork(tuple(nodes), byzantine, trust, quota, byz_fraction)
    validate_network(net)
    if vetoed:
        for i in net.honest:
            if not holds_veto(net, i):
                raise NetworkFormatError(f'key "vetoed": {{{i}}} does not win for node {i}')
    return LoadedNetwork(net, addition)
