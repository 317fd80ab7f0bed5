"""Quorum enumeration and quorum-intersection checking with exact witnesses.

A non-empty node set is a quorum when every member finds one of its
winning coalitions inside the set; Byzantine members only need to belong
(their implicit coalition is their own singleton). Deciding whether every
two quora intersect is intractable in general, so the checkers here are
exact searches behind explicit budgets:

* explicit-slice networks use one search: memoized closure of slice
  choices from the singleton of each node in turn, where the search from
  a node never adds an earlier one, so every inclusion-minimal quorum is
  grown once, from its lowest member. Each quorum grown is tested
  against the largest quorum of its complement; the checks stop growing
  candidates at half the size of the largest quorum. Candidates are
  grown incrementally (a grown candidate skips the members its parent
  already found satisfied), and each search state carries the largest
  quorum of its complement, shrunk as the state grows: removing the
  state's new members re-checks only their users. So every quorum is
  judged as it is grown, and a budget overrun stops the search exactly
  where it trips;
* quota networks use a pivot-fixed scan over the splits of a pool of
  nodes, decided from one table over the count vectors of the pool's
  twin classes (:func:`_scan_split`). Twins are nodes whose swap
  maps the network onto itself (:attr:`_QuorumView.twin_classes`).
  Witnesses and counts are those of a walk over every split code, which
  the scan never makes.

Both engines take the view, ``counted`` and a state budget, and return
``(examined, witness masks or None)``. ``counted`` holds the nodes whose
disjointness is checked: the largest quorum for the plain check, every
honest node for the honest one, none for slices minimal quora. The pool
is ``counted``; the base is the largest quorum's other members.

:func:`minimal_quora` of a quota network reads the same closed table
(:func:`_quorum_table`, then :func:`_close_upward`), over the twin
classes of the honest members of the largest quorum. Its minimal count
vectors are the minimal elements of the closed table: the vectors in it
none of whose one-digit decrements is.

A table is a Python int with one bit per count vector, digit 0 of the
vector varying fastest, so it is built and read with shifts, ANDs and
ORs over whole tables: a table of 2^20 vectors takes 128 KB.

A :class:`_QuorumView` prepares one network for the searches of one
``qi`` command: the bit masks of every node's winning rules, the
largest quorum and the twin classes are built once and shared by the
check and :func:`minimal_quora`. A split scan that counts the whole
largest quorum leaves its closed table on the view, and
:func:`minimal_quora` reads the minimal-quora table off it, where it
counts no Byzantine node, instead of building one. That is every plain
check, and the honest check only when every node is honest and in the
largest quorum (a Byzantine node, which needs only itself, always is).

Every largest quorum (of the network, of :func:`max_quorum_within`, of
a split's sides and of a generated quorum's complement) comes from one
scalar worklist greatest fixpoint, :meth:`_QuorumView.max_quorum`, that
re-checks only the nodes depending on a removed member.

Both report a witness pair of quora whenever intersection fails, and a
budget overrun is always a distinct outcome, never a verdict.
:func:`check_slice_addition` is the plain check on the network with the
new slice added; the base is checked only when that check fails.
:func:`find_strong_fork` reads the honest check's witness as a strong
fork. The witnesses are re-checked on the definitions alone by
:mod:`quorumlens.verify`, which shares no code with this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product
from math import comb, prod
from typing import Sequence

from .network import (
    BudgetExceededError,
    ForkWitness,
    Network,
    NodeId,
    TrustNetwork,
    _fork_profile,
    _require_honest,
    _require_known,
    _rules,
)

DEFAULT_QI_MAX_NODES = 20
DEFAULT_MINIMAL_MAX_NODES = 16
DEFAULT_MAX_SEARCH_STATES = 2_000_000


@dataclass(frozen=True)
class QuorumReport:
    """Outcome of a quorum-intersection check.

    When ``holds`` is false, ``witness`` carries two quora whose
    intersection is empty (or contains no honest node, for the honest
    variant). On explicit-slice networks ``quora_examined`` counts the
    quora the seed-exclusive search judged, up to and including the
    witness, or all of them when intersection holds; for a slice
    addition, those of the extended network. On quota networks it
    counts the splits of the pool covered: the split code of the witness
    + 1, or all 2^(|pool| - 1) when intersection holds, however few count
    vectors the scan reads. The pool is the largest quorum for the plain
    check and every honest node for the honest one.
    """

    holds: bool
    witness: tuple[frozenset[NodeId], frozenset[NodeId]] | None
    quora_examined: int


class _QuorumView:
    """One network prepared for the quorum searches of one command.

    Node order fixes bit positions. Node ``k`` wins inside a set when the
    set holds ``rule_needs[k][r]`` members of ``rule_masks[k][r]`` for some
    ``r``: the masks and needs of its winning rules (:func:`_rules`), in
    two parallel lists so that the slices searches read masks alone. A
    Byzantine node's one rule is its own singleton.

    The largest quorum and the twin classes are built on first use and
    shared by every search that is handed the view:
    :func:`check_quorum_intersection`, :func:`check_qi_honest` and
    :func:`minimal_quora` give the same reports with it as without. A
    quota split scan whose table holds the minimal-quora table leaves
    that table here, and the next :func:`minimal_quora` call takes it
    instead of building its own. A view caches nothing on the network
    and is meant to live for one command, so a table that no display
    takes is freed with it.
    """

    def __init__(self, net: Network):
        self.order = list(net.nodes)
        index = self.index = {n: k for k, n in enumerate(self.order)}
        self.full = (1 << len(self.order)) - 1
        self.byz_mask = self._mask(net.byzantine)
        self.honest_mask = self.full & ~self.byz_mask
        self.rule_masks: list[list[int]] = []
        self.rule_needs: list[list[int]] = []
        # users[k]: the nodes whose rules can use node k, i.e. those that
        # may lose their last winning coalition when k leaves a set.
        users = self.users = [0] * len(self.order)
        for i, n in enumerate(self.order):
            bit = 1 << i
            if n in net.byzantine:
                masks, needs = [bit], [1]
                users[i] |= bit
            else:
                masks, needs = [], []
                for s, need in _rules(net, n):
                    m = 0
                    for x in s:
                        k = index[x]
                        m |= 1 << k
                        users[k] |= bit
                    masks.append(m)
                    needs.append(need)
            self.rule_masks.append(masks)
            self.rule_needs.append(needs)
        # The closed split table of the whole largest quorum where it counts
        # no Byzantine node, left by a scan for the next minimal_quora call.
        self.closed: int | None = None

    def _mask(self, labels) -> int:
        m = 0
        for x in labels:
            m |= 1 << self.index[x]
        return m

    def labels(self, mask: int) -> frozenset[NodeId]:
        return frozenset(self.order[k] for k in range(len(self.order)) if (mask >> k) & 1)

    def max_quorum(self, within: int, queue: int | None = None) -> int:
        """Largest quorum contained in ``within`` (0 when none exists).

        A worklist greatest fixpoint: every queued member is checked once,
        and a member with no winning rule met inside the surviving set is
        removed, which re-queues only its surviving users. Every unqueued
        survivor keeps a rule, so the result is the unique fixpoint, and
        it contains every quorum that fits in ``within``. ``queue``
        defaults to all of ``within``; queueing fewer members is valid
        only when every member left out already meets a rule inside
        ``within``, as the members of a quorum that do not use a removed
        node do.
        """
        current = within
        queue = within if queue is None else queue & within
        rule_masks, rule_needs, users = self.rule_masks, self.rule_needs, self.users
        while queue:
            low = queue & -queue
            queue ^= low
            idx = low.bit_length() - 1
            needs, r = rule_needs[idx], 0
            for m in rule_masks[idx]:
                if (m & current).bit_count() >= needs[r]:
                    break
                r += 1
            else:
                current ^= low
                queue |= users[idx] & current
        return current

    @cached_property
    def top(self) -> int:
        """The largest quorum, as a mask."""
        return self.max_quorum(self.full)

    @cached_property
    def twin_classes(self) -> list[list[int]]:
        """Bit positions of each twin class of a quota network, lowest first.

        Nodes ``a`` and ``b`` are twins when swapping them maps the network
        onto itself: they share Byzantine status and threshold, their trust
        sets match up to the swap, and every other node trusts both or
        neither. A composition of swaps is again an automorphism, so being
        twins is an equivalence and one comparison with the first member of
        each class suffices: at most O(n²) mask tests. Every permutation
        inside the classes maps the network, its largest quorum and its
        Byzantine set onto themselves, so a set and its image under one are
        quora alike.
        """
        # Twins agree on this key, so only classes sharing it are compared.
        buckets: dict[tuple[int, int, int, int], list[list[int]]] = {}
        classes: list[list[int]] = []
        for b, ([tb], [need]) in enumerate(zip(self.rule_masks, self.rule_needs)):
            key = (need, (self.byz_mask >> b) & 1, tb.bit_count(), self.users[b].bit_count())
            bucket = buckets.setdefault(key, [])
            for members in bucket:
                a = members[0]
                ta = self.rule_masks[a][0]
                pair = (1 << a) | (1 << b)
                moved = ((ta >> a) ^ (ta >> b)) & 1
                swapped = ta ^ (moved << a | moved << b)
                if swapped == tb and (self.users[a] ^ self.users[b]) & ~pair == 0:
                    members.append(b)
                    break
            else:
                bucket.append([b])
                classes.append(bucket[-1])
        return classes

    def classes_within(self, pool: int) -> list[list[int]]:
        """The twin classes inside ``pool``, a union of them, lowest first."""
        return [members for members in self.twin_classes if (pool >> members[0]) & 1]


def max_quorum_within(net: Network, s) -> frozenset[NodeId]:
    """The unique largest quorum contained in ``s``; empty if none exists."""
    members = frozenset(s)
    _require_known(net, members, "set")
    view = _QuorumView(net)
    return view.labels(view.max_quorum(view._mask(members)))


# ---------------------------------------------------------------------------
# Generated-quorum enumeration (explicit-slice networks)


def _iter_generated_quora(view: _QuorumView, counted: int, max_states: int):
    """Yield ``(q, rest)`` for each quorum ``q`` grown from a seed's singleton.

    The seeds are the ``counted`` members of the largest quorum ``top``,
    or all of top when ``counted`` is 0; they go in bit order, and the
    search from a seed never adds an earlier seed. Every inclusion-minimal
    quorum inside top that holds a seed and at most half of top's counted
    members is produced, from the seed of its lowest seed member: from any
    partial set, the first member still lacking a contained coalition
    branches over its coalitions. With ``counted`` 0, that is every
    minimal quorum, grown once, from its lowest member. States are
    memoized, so each partial set expands once, and a state over the half
    bound is dropped unexpanded. Growing a set keeps its members'
    coalitions, so each child carries the parent's members below the
    branching one as ``known`` and skips them when it looks for its own
    first lacking member.

    ``rest`` is ``view.max_quorum(top & ~(q & counted))`` whenever that
    holds a counted node, and 0 otherwise. Each state carries
    ``max_quorum(top & ~(p & counted))`` for an ancestor ``p`` (or for no
    members at all, at a seed), which contains the state's own, because
    the greatest fixpoint only shrinks as the set it searches shrinks. It
    is shrunk to the state's own complement by removing the state's
    counted members and re-queueing only their users, at a quorum and at a
    state with two or more children to push; a lone child inherits it
    unshrunk and removes the parent's members with its own. A ``rest``
    without a counted node keeps none in any descendant, so it travels as
    0 and is never shrunk: with ``counted`` 0, no ``rest`` is ever
    computed.
    """
    slices, users = view.rule_masks, view.users
    top = view.top
    seeds = top & counted if counted else top
    max_size = (top & counted).bit_count() // 2

    def shrink(rest: int, q: int) -> int:
        gone = rest & q & counted
        if not gone:
            return rest
        rest ^= gone
        queue = 0
        while gone:
            low = gone & -gone
            gone ^= low
            queue |= users[low.bit_length() - 1]
        rest = view.max_quorum(rest, queue)
        return rest if rest & counted else 0

    visited: set[int] = set()
    room = top
    alive = top if top & counted else 0
    while seeds:
        seed = seeds & -seeds
        seeds ^= seed
        stack = [(seed, 0, alive)]
        while stack:
            q, known, rest = stack.pop()
            if q in visited:
                continue
            if (q & counted).bit_count() > max_size:
                continue
            visited.add(q)
            if len(visited) > max_states:
                raise BudgetExceededError(
                    f"quorum search exceeded {max_states} states"
                )
            unsat = 0
            m = q & ~known
            while m:
                low = m & -m
                m ^= low
                for s in slices[low.bit_length() - 1]:
                    if s & q == s:
                        break
                else:
                    unsat = low
                    break
            if not unsat:
                yield q, shrink(rest, q)
                continue
            known = q & (unsat - 1)
            children = [
                child
                for smask in slices[unsat.bit_length() - 1]
                if not (child := q | smask) & ~room and child not in visited
            ]
            if len(children) > 1:
                rest = shrink(rest, q)
            stack.extend((child, known, rest) for child in children)
        room &= ~seed


def _digit_in(size: int, stride: int, radix: int, lo: int, hi: int) -> int:
    """The indices below ``size`` whose digit of ``stride`` is in ``range(lo, hi)``.

    The digit has radix ``radix``. One block of its period is repeated by
    doubling.
    """
    block = ((1 << stride * (hi - lo)) - 1) << stride * lo
    period, count = stride * radix, size // (stride * radix)
    out = filled = 0
    while count:
        if count & 1:
            out |= block << filled
            filled += period
        count >>= 1
        if count:
            block |= block << period
            period *= 2
    return out


def _reaching(gains: list[Sequence[int]], need: int) -> int:
    """The count vectors whose gains sum to at least ``need``, which is positive.

    ``gains[j][v]`` is what value ``v`` of digit ``j`` adds: never
    negative, and 0 for value 0. Built digit by digit from digit 0:
    ``reach[t]`` holds the prefixes over the digits so far whose gains sum
    to at least ``t``, for each threshold ``t`` that those digits can
    reach and the digits still to come can lift to ``need``; a prefix
    extended by value ``v`` moves up ``v`` strides. Any other positive
    threshold holds no prefix.
    """
    tops = [max(gain) for gain in gains]
    rest = [0] * (len(gains) + 1)
    for j in reversed(range(len(gains))):
        rest[j] = rest[j + 1] + tops[j]
    reach: dict[int, int] = {}
    width, done = 1, 0
    for j, gain in enumerate(gains):
        every = (1 << width) - 1
        done += tops[j]
        extended = {}
        for t in range(max(1, need - rest[j + 1]), min(need, done) + 1):
            bits, shift = reach.get(t, 0), 0
            for g in gain[1:]:
                shift += width
                bits |= (every if t <= g else reach.get(t - g, 0)) << shift
            extended[t] = bits
        reach, width = extended, width * len(gain)
    return reach.get(need, 0)


def _quorum_table(view: _QuorumView, classes: list[list[int]], base: int = 0) -> int:
    """The quorum count vectors over ``classes``, as the bits of an int.

    Digit ``j`` of an index counts the members of ``classes[j]`` in a set,
    digit 0 varies fastest, and bit ``i`` is set when vector ``i`` is a
    quorum's. A set is a quorum when it is non-empty and every member
    finds ``need`` of its trustees in it or in ``base``, Byzantine nodes
    that every set holds.
    The classes must be twin classes: members of one class stand or fall
    together, and each trusts every member of another class or none, and
    every other member of its own or none, so one member per class is
    checked against a sum of one gain per digit. Each checked class's
    satisfied vectors are built digit by digit as shifted ORs
    (:func:`_reaching`), the vectors where the class is absent are added,
    and the table is the AND over the checked classes.
    """
    radix = [len(members) + 1 for members in classes]
    size = prod(radix)
    table = (1 << size) - 2  # every vector but the empty set's
    stride = 1
    for c, members in enumerate(classes):
        [tmask], [need] = view.rule_masks[members[0]], view.rule_needs[members[0]]
        need -= (tmask & base).bit_count()
        if need > 0:
            # What v members of each class add to the trustee count of a
            # member of this one; in its own class, v counts the member too.
            gains = [range(r) if (tmask >> m[0]) & 1 else (0,) * r for m, r in zip(classes, radix)]
            itself, other = (tmask >> members[0]) & 1, (tmask >> members[-1]) & 1
            gains[c] = [0] + [itself + other * (v - 1) for v in range(1, radix[c])]
            table &= _reaching(gains, need) | _digit_in(size, stride, radix[c], 0, 1)
        stride *= radix[c]
    return table


def _close_upward(table: int, radix: list[int]) -> int:
    """Every count vector that holds a vector of ``table``, as bits.

    The prefix OR along each digit of radix ``radix[j]``, digit 0 fastest
    (the superset zeta transform over OR): each digit value passes its
    bits one stride up, to the next value. A vector ends up set when it is
    at least a vector of ``table`` in every digit.
    """
    size = prod(radix)
    stride = 1
    for r in radix:
        value = _digit_in(size, stride, r, 0, 1)
        for _ in range(1, r):
            table |= (table & value) << stride
            value <<= stride
        stride *= r
    return table


# REVERSED_BYTES[b] is byte b with its 8 bits in reverse order.
REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _complement(table: int, size: int) -> int:
    """``table`` read backwards: bit ``size - 1 - i`` of the result is bit ``i``.

    Reversing a table of count vectors maps each vector to its complement,
    which has ``radix[j] - 1 - d`` where it has digit ``d``.
    """
    width = (size + 7) // 8
    flipped = table.to_bytes(width, "little")[::-1].translate(REVERSED_BYTES)
    return int.from_bytes(flipped, "little") >> (8 * width - size)


def _minimal_quota_quora(view: _QuorumView, max_states: int) -> list[tuple[int, ...]]:
    """Bit positions of every inclusion-minimal quorum of a quota network, unsorted.

    A Byzantine member of the largest quorum ``top`` is a quorum alone, so
    it forms exactly one minimal quorum, and every other one lies among
    the honest members of ``top``, a union of twin classes. Whether a set
    of them is a quorum, and whether it is a minimal one, depends only on
    its count vector over those classes: :func:`_quorum_table` sets the
    quorum vectors and :func:`_close_upward` closes them upward, so bit
    ``v`` of ``H`` is set when a quorum vector lies at or below ``v``. The
    minimal quorum vectors are the minimal elements of ``H``, ``H & ~OR_j
    ((H << stride_j) & digit_j >= 1)``: those none of whose one-digit
    decrements is in ``H``. If ``v`` is in ``H`` and is no quorum vector,
    the quorum vector below ``v`` lies at or below one of its decrements.
    Every member choice of a minimal vector is a minimal quorum. When the
    view's split scan left its table of the whole of ``top``, ``H`` is
    that table where it counts no Byzantine member.

    Raises:
        BudgetExceededError: when the table exceeds ``max_states`` count
            vectors, or more than ``max_states`` quora would be listed.
    """
    top = view.top
    classes = view.classes_within(top & view.honest_mask)
    radix = [len(members) + 1 for members in classes]
    size = prod(radix)
    if size > max_states:
        raise BudgetExceededError(
            f"a minimal-quora table of {size} count vectors exceeds {max_states} states"
        )
    table, view.closed = view.closed, None
    if table is None:
        table = _close_upward(_quorum_table(view, classes), radix)
    minimal, stride = table, 1
    for r in radix:
        minimal &= ~(table << stride) | _digit_in(size, stride, r, 0, 1)
        stride *= r
    del table
    byzantine = top & view.byz_mask
    quora = [(b,) for b in range(len(view.order)) if (byzantine >> b) & 1]
    # picks[v]: the classes a minimal vector draws on, with their counts.
    picks, listed = [], len(quora)
    flags = bin(minimal)  # bit i at position len(flags) - 1 - i
    at = flags.find("1")
    while at >= 0:
        index, pick = len(flags) - 1 - at, []
        for members, r in zip(classes, radix):
            index, d = divmod(index, r)
            if d:
                pick.append((members, d))
        picks.append(pick)
        listed += prod(comb(len(members), d) for members, d in pick)
        at = flags.find("1", at + 1)
    del flags
    if listed > max_states:
        raise BudgetExceededError(f"{listed} minimal quora exceed {max_states} states")
    for pick in picks:
        choices = [combinations(members, d) for members, d in pick]
        quora.extend(tuple(sorted(chain.from_iterable(parts))) for parts in product(*choices))
    return quora


def minimal_quora(
    net: Network,
    *,
    max_nodes: int = DEFAULT_MINIMAL_MAX_NODES,
    max_states: int = DEFAULT_MAX_SEARCH_STATES,
    view: _QuorumView | None = None,
) -> tuple[frozenset[NodeId], ...]:
    """All inclusion-minimal quora, sorted by size then node order.

    Explicit-slice networks grow candidates by slice closure, each from
    the seed of its lowest member (:func:`_iter_generated_quora`), and
    keep the minimal ones; ``max_states`` bounds the partial sets that
    search visits. Quota networks read them off the split scan's closed
    table over the count vectors of the twin classes of the largest
    quorum's honest members (:func:`_minimal_quota_quora`): the minimal
    vectors are those in it with no one-digit decrement in it. The table
    and its minimal vectors take a bit per vector. ``view``, the
    view of ``net`` that the command's check was handed, lends the table
    its scan left; the result is the same. Both kinds share the
    ``max_nodes`` budget and one sort by size, then node positions.

    Raises:
        BudgetExceededError: when the instance exceeds ``max_nodes``, the
            enumeration exceeds ``max_states``, or the quota table's count
            vectors or listed quora do.
    """
    if len(net.nodes) > max_nodes:
        raise BudgetExceededError(
            f"{len(net.nodes)} nodes exceeds the minimal-quora budget of {max_nodes}"
        )
    if view is None:
        view = _QuorumView(net)
    if isinstance(net, TrustNetwork):
        candidates = [q for q, _ in _iter_generated_quora(view, 0, max_states)]
        minimal = [
            tuple(b for b in range(len(view.order)) if (q >> b) & 1)
            for q in candidates
            if not any(o != q and o & q == o for o in candidates)
        ]
    else:
        minimal = _minimal_quota_quora(view, max_states)
    minimal.sort(key=lambda q: (len(q), q))
    label = view.order.__getitem__
    return tuple(frozenset(map(label, q)) for q in minimal)


# ---------------------------------------------------------------------------
# Quorum-intersection checks

# What an engine returns: the quora or splits examined, and the witness masks.
_Found = tuple[int, tuple[int, int] | None]


def _scan_split(view: _QuorumView, counted: int, max_states: int) -> _Found:
    """First split of the ``counted`` nodes into two disjoint quora (quota networks).

    The pool is ``counted``, and the base is top's other members,
    Byzantine nodes that every candidate keeps on both sides. The lowest
    pool node (the pivot) always sits on side one; split code ``c`` puts
    the k-th other pool node on side one when bit k of ``c`` is set.
    Returns (splits covered, witness): the largest quorum of each side for
    the lowest code where both keep a pool node, and that code + 1, or all
    2^(|pool| - 1) splits and no witness.

    A split is decided by its count of side-one members in each twin
    class, so no code is walked. :func:`_quorum_table` sets the quorum
    count vectors of the pool's classes; :func:`_close_upward` sets the
    vectors ``has`` that hold a quorum, and the complement of a vector is
    the table read backwards (:func:`_complement`). A split shares its
    verdict with its canonical form, whose side-one members are each
    class's lowest and whose code is no higher, so the first violating
    code is canonical. It is fixed bit by bit from the highest pool
    position down, ANDing the violations with the vectors whose digit
    keeps that position's bit clear whenever a violation remains.
    Byzantine classes take the highest digits, so the vectors that count
    none of them are the lowest: when ``counted`` is all of top, the base
    is empty and that part of ``has`` is the minimal-quora table, which is
    left on the view for :func:`minimal_quora`.

    Raises:
        BudgetExceededError: when the table exceeds ``max_states`` vectors.
    """
    pool, base = counted, view.top & ~counted
    bits = [b for b in range(len(view.order)) if (pool >> b) & 1]
    # Classes lie wholly inside or outside the pool, since permutations
    # inside classes keep it; the pivot is the lowest member of its class.
    classes = sorted(view.classes_within(pool), key=lambda m: (view.byz_mask >> m[0]) & 1)
    radix = [len(members) + 1 for members in classes]
    size = prod(radix)
    if size > max_states:
        raise BudgetExceededError(
            f"a split table of {size} count vectors exceeds {max_states} states"
        )
    strides = [prod(radix[:j]) for j in range(len(radix))]
    has = _close_upward(_quorum_table(view, classes, base), radix)
    if counted == view.top:
        honest = [r for r, members in zip(radix, classes) if not (view.byz_mask >> members[0]) & 1]
        view.closed = has & ((1 << prod(honest)) - 1)
    # The pivot's class counts at least 1.
    pivot = next(j for j, members in enumerate(classes) if members[0] == bits[0])
    lo = [0] * len(classes)
    lo[pivot] = 1
    violations = has & _complement(has, size)
    violations &= _digit_in(size, strides[pivot], radix[pivot], 1, radix[pivot])
    del has
    if not violations:
        return 1 << (len(bits) - 1), None
    where = {b: (j, r) for j, members in enumerate(classes) for r, b in enumerate(members)}
    for b in reversed(bits[1:]):
        j, r = where[b]
        if r < lo[j]:
            continue  # bit b is set in every violation left
        clear = violations & _digit_in(size, strides[j], radix[j], 0, r + 1)
        if clear:
            violations = clear
        else:
            lo[j] = r + 1
    side = sum(1 << b for j, members in enumerate(classes) for b in members[: lo[j]])
    code = sum(1 << k for k, b in enumerate(bits[1:]) if (side >> b) & 1)
    return code + 1, (view.max_quorum(side | base), view.max_quorum(pool & ~side | base))


def _first_disjoint(view: _QuorumView, counted: int, max_states: int) -> _Found:
    """Grow quora inside top until one leaves room for a counted-disjoint quorum.

    Quora grow from the singletons of top's ``counted`` nodes, each
    search never adding a node of an earlier seed, and states with more
    than half of top's counted nodes are dropped. That is exact: of two
    quora whose counted parts are disjoint, the one with at most half of
    top's counted nodes holds no seed below its lowest counted member, so
    the search from that seed generates a quorum inside it (every state
    on the way is one of its subsets), and the other quorum fits in that
    quorum's complement.

    Each generated quorum ``q`` comes with the largest quorum of
    ``top & ~(q & counted)`` when that holds a counted node, which the
    search carries down from state to state
    (:func:`_iter_generated_quora`). Returns (quora examined, witness):
    the first such pair and the index of ``q`` in generation order + 1,
    or every quorum generated and no witness. Quora are judged one at a
    time as they are grown, so a budget overrun propagates exactly where
    the search trips.
    """
    examined = 0
    for q, rest in _iter_generated_quora(view, counted, max_states):
        examined += 1
        if rest:
            return examined, (q, rest)
    return examined, None


def _check_qi(
    net: Network, honest: bool, max_nodes: int, max_states: int, view: _QuorumView | None = None
) -> QuorumReport:
    """The plain (``honest`` false) or honest check behind the public entry points.

    ``counted`` is top, or every honest node; slices networks grow quora
    (:func:`_first_disjoint`) and quota networks scan splits
    (:func:`_scan_split`).
    """
    if len(net.nodes) > max_nodes:
        raise BudgetExceededError(
            f"{len(net.nodes)} nodes exceeds the quorum-intersection budget of {max_nodes}"
        )
    if view is None:
        view = _QuorumView(net)
    counted = view.honest_mask if honest else view.top
    if not (view.top & counted):
        return QuorumReport(True, None, 0)
    search = _first_disjoint if isinstance(net, TrustNetwork) else _scan_split
    examined, witness = search(view, counted, max_states)
    if witness is None:
        return QuorumReport(True, None, examined)
    return QuorumReport(False, tuple(map(view.labels, witness)), examined)


def check_quorum_intersection(
    net: Network,
    *,
    max_nodes: int = DEFAULT_QI_MAX_NODES,
    max_states: int = DEFAULT_MAX_SEARCH_STATES,
    view: _QuorumView | None = None,
) -> QuorumReport:
    """Decide whether every two quora of ``net`` intersect.

    Exact and witness-producing: a ``holds=False`` report carries a
    disjoint quorum pair. Budget overruns raise instead of guessing.
    ``view``, a :class:`_QuorumView` of ``net``, shares its prepared
    state with the command's other searches; the report is the same.
    """
    return _check_qi(net, False, max_nodes, max_states, view)


def check_qi_honest(
    net: Network,
    *,
    max_nodes: int = DEFAULT_QI_MAX_NODES,
    max_states: int = DEFAULT_MAX_SEARCH_STATES,
    view: _QuorumView | None = None,
) -> QuorumReport:
    """Decide whether every two quora share at least one honest node.

    Only quora containing an honest node take part: a pair of quora whose
    honest parts are disjoint is exactly what lets two honest groups
    settle on opposite values, so this check reports weak safety of a
    vetoed network. Purely Byzantine quora can never witness a violation.
    ``view`` is as for :func:`check_quorum_intersection`.
    """
    return _check_qi(net, True, max_nodes, max_states, view)


def find_strong_fork(
    net: Network,
    *,
    max_nodes: int = DEFAULT_QI_MAX_NODES,
) -> ForkWitness | None:
    """Search for a strong fork; ``None`` means the network is weakly safe.

    A strong fork is a fork whose two sides support themselves all the way
    down: every member of each side's coalition closure again finds an
    agreeing coalition inside it. That happens exactly when two quora,
    each containing an honest node, intersect in no honest node, so this
    is :func:`check_qi_honest` under the same budget. The witness carries
    the two quora and a profile in which each quorum's honest members
    agree internally: every Byzantine node shows each honest observer
    that observer's own opinion, which is its quorum's value.

    Note that a vetoed network, one in which every honest node's own
    singleton wins for it (a singleton slice, or a quota threshold of 1
    over a trust set holding the node), is strongly forked as soon as it
    has two honest nodes: each singleton is a self-supporting quorum of
    its own. The interesting verdicts come from networks where every
    coalition merely contains its owner.
    """
    report = check_qi_honest(net, max_nodes=max_nodes)
    if report.holds:
        return None
    q_a, q_b = report.witness
    node_a = next(n for n in net.nodes if n in q_a and n not in net.byzantine)
    node_b = next(n for n in net.nodes if n in q_b and n not in net.byzantine)
    profile = _fork_profile(net, q_a, q_b)
    return ForkWitness(node_a, node_b, 1, 0, profile, "strong-fork", q_a, q_b)


def check_slice_addition(
    base: TrustNetwork,
    node: NodeId,
    new_slice,
    *,
    max_nodes: int = DEFAULT_QI_MAX_NODES,
    max_states: int = DEFAULT_MAX_SEARCH_STATES,
) -> QuorumReport:
    """Decide quorum intersection after granting ``node`` one extra slice.

    This is the full check (:func:`check_quorum_intersection`) on the
    extended network, and its report is that check's. The base network
    must satisfy quorum intersection; it is checked, under the same
    budgets, only when the extended network fails. ``max_states`` bounds
    the states of each of the two searches separately.

    Raises:
        TypeError: when ``base`` is a quota network.
        ValueError: when the base network fails quorum intersection or the
            slice is not drawn from the node's trust set.
    """
    if not isinstance(base, TrustNetwork):
        raise TypeError("slice addition expects an explicit-slice network")
    slice_set = frozenset(new_slice)
    _require_honest(base, node)
    if not slice_set or not slice_set <= base.trust[node]:
        raise ValueError("new slice must be a non-empty subset of the node's trust set")
    slices = dict(base.slices)
    slices[node] += (slice_set,)
    extended = TrustNetwork(base.nodes, base.byzantine, base.trust, slices)
    report = _check_qi(extended, False, max_nodes, max_states)
    # A slice only adds quora, so every base quorum pair is an extended
    # one: when the extended network holds, the base holds too.
    if not report.holds and not _check_qi(base, False, max_nodes, max_states).holds:
        raise ValueError(
            "base network fails quorum intersection; slice addition requires a sound base"
        )
    return report
