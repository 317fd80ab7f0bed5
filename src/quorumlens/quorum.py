"""Quorum enumeration, quorum-intersection checking and fork search, with exact witnesses.

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
  state's new members re-checks only their users. A branching state
  whose complement holds no quorum with a checked node is dropped with
  all it would grow, since no quorum below it has a disjoint partner:
  the conflict cut of Davis, Logemann and Loveland (CACM 1962), which
  takes an unsatisfiable v-variable reduction from all 2^v of its
  minimal quora to a handful. So every quorum is judged as it is grown,
  and a budget overrun stops the search exactly where it trips;
* quota networks use a pivot-fixed scan over the splits of a pool of
  nodes, decided from one table over the count vectors of the pool's
  twin classes (:func:`_scan_split`). Twins are nodes whose swap
  maps the network onto itself (:attr:`_QuorumView.twin_classes`).
  Witnesses and counts are those of a walk over every split code, which
  the scan never makes.

Both engines take the view and ``counted``, and return ``(examined,
witness masks or None)``. ``counted`` holds the nodes whose disjointness
is checked: the largest quorum for the plain check, every honest node
for the honest one, none for slices minimal quora. The pool is
``counted``; the base is the largest quorum's other members.

One state budget, ``network.DEFAULT_MAX_SEARCH_STATES``, bounds every
search here, and no function takes it as a parameter. Each site that
charges it reads it when it runs: :func:`_scan_split`,
:attr:`_QuorumView.honest_table`, :func:`_iter_generated_quora`,
:func:`_minimal_quota_quora` and the slices filter of
:func:`minimal_quora`, and :func:`find_fork` for its rule-pair tests.

:func:`minimal_quora` of a quota network reads the same closed table
(:func:`_quorum_table`, then :func:`_close_upward`), over the twin
classes of the honest members of the largest quorum
(:attr:`_QuorumView.honest_table`). Its minimal count vectors are the
minimal elements of the closed table: the vectors in it none of whose
one-digit decrements is.

A table is a Python int with one bit per count vector, digit 0 of the
vector varying fastest, so it is built and read with shifts, ANDs and
ORs over whole tables: a table of 2^20 vectors takes 128 KB.

A :class:`_QuorumView` prepares one network for the searches of one
``qi`` command: the bit masks of every node's winning rules, the
largest quorum, the twin classes and the closed table over the honest
members of the largest quorum are built once, on first use, and shared
by the check and :func:`minimal_quora`, whichever runs first. A split
scan that counts the whole largest quorum reads that table and sets
every vector above it, since a vector holding a Byzantine member holds
a quorum. That is every plain check, and the honest check only when
every node is honest and in the largest quorum (a Byzantine node,
which needs only itself, always is).

Every largest quorum (of the network, of :func:`max_quorum_within`, of
a split's sides and of a generated quorum's complement) comes from one
scalar worklist greatest fixpoint, :meth:`_QuorumView.max_quorum`, that
re-checks only the nodes depending on a removed member.

Both report a witness pair of quora whenever intersection fails, and a
budget overrun is always a distinct outcome, never a verdict.
:func:`check_slice_addition` is the plain check on the network with the
new slice added; the base is checked only when that check fails.

Both fork searches read the view's masks too. :func:`find_fork`, which
is polynomial, tests each pair of two honest nodes' winning rules with
ANDs and popcounts; :func:`find_strong_fork` reads the honest check's
witness as a strong fork. One builder, :func:`_fork_witness`, makes the
witnesses of both. The witnesses are re-checked on the definitions alone
by :mod:`quorumlens.verify`, which shares no code with this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations, product
from math import comb, prod
from typing import Sequence

from . import network
from .network import (
    BudgetExceededError,
    ForkWitness,
    Network,
    NodeId,
    OpinionProfile,
    TrustNetwork,
    _listed,
    _require_honest,
    _require_known,
    _rules,
)

DEFAULT_QI_MAX_NODES = 20


@dataclass(frozen=True)
class QuorumReport:
    """Outcome of a quorum-intersection check.

    When ``holds`` is false, ``witness`` carries two quora whose
    intersection is empty (or contains no honest node, for the honest
    variant). On explicit-slice networks ``quora_examined`` counts the
    quora the seed-exclusive search judged, up to and including the
    witness, or all of them when intersection holds; for a slice
    addition, those of the extended network. The search never grows the
    quora below a branching state whose complement holds no counted
    quorum (:func:`_iter_generated_quora`), so they are not counted. On
    quota networks it counts the splits of the pool covered: the split
    code of the witness + 1, or all 2^(|pool| - 1) when intersection
    holds, however few count vectors the scan reads. The pool is the
    largest quorum for the plain check and every honest node for the
    honest one.
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

    The largest quorum, the twin classes and the honest quorum table are
    built on first use and shared by every search that is handed the
    view: :func:`check_quorum_intersection`, :func:`check_qi_honest` and
    :func:`minimal_quora` give the same reports with it as without, in
    either order. A view keeps its network, and each search refuses a
    view of another one. It caches nothing on the network and is meant
    to live for one command, so its table is freed with it.

    Raises:
        ValueError: when a trust set, slice or the Byzantine set of an
            unvalidated network names a label that is not a node, or a
            per-node map lacks an honest node.
    """

    def __init__(self, net: Network):
        self.net = net
        self.order = list(net.nodes)
        index = self.index = {n: k for k, n in enumerate(self.order)}
        self.full = (1 << len(self.order)) - 1
        self.rule_masks: list[list[int]] = []
        self.rule_needs: list[list[int]] = []
        # users[k]: the nodes whose rules can use node k, i.e. those that
        # may lose their last winning coalition when k leaves a set.
        users = self.users = [0] * len(self.order)
        try:
            self.byz_mask = self._mask(net.byzantine)
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
        except KeyError as error:
            # A label missing from ``index``, or a node missing from a
            # per-node map.
            (label,) = error.args
            if label in index:
                problem = "missing trust sets, slices or quotas for"
            else:
                problem = "unknown nodes in the trust sets, slices or Byzantine set"
            raise ValueError(f"{problem}: {_listed([label])}") from None
        self.honest_mask = self.full & ~self.byz_mask

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

    @cached_property
    def honest_table(self) -> tuple[list[list[int]], list[int], int]:
        """The twin classes of top's honest members, their radices and their closed table.

        Bit ``v`` of the table is set when count vector ``v`` over the
        classes holds a quorum (:func:`_quorum_table`, then
        :func:`_close_upward`). :func:`_minimal_quota_quora` reads its
        minimal vectors, and a split scan of the whole of top its vectors
        that count no Byzantine member.

        Raises:
            BudgetExceededError: when the table exceeds
                ``network.DEFAULT_MAX_SEARCH_STATES`` count vectors.
        """
        max_states = network.DEFAULT_MAX_SEARCH_STATES
        classes = self.classes_within(self.top & self.honest_mask)
        radix = [len(members) + 1 for members in classes]
        size = prod(radix)
        if size > max_states:
            raise BudgetExceededError(
                f"a minimal-quora table of {size} count vectors exceeds {max_states} states"
            )
        return classes, radix, _close_upward(_quorum_table(self, classes), radix)


def _view_of(net: Network, view: _QuorumView | None) -> _QuorumView:
    """``view``, or a new view of ``net`` when it is ``None``.

    Raises:
        ValueError: when ``view`` was built for another network.
    """
    if view is not None and view.net is not net:
        raise ValueError("the quorum view was built for another network")
    return _QuorumView(net) if view is None else view


def max_quorum_within(net: Network, s) -> frozenset[NodeId]:
    """The unique largest quorum contained in ``s``; empty if none exists."""
    members = frozenset(s)
    _require_known(net, members, "set")
    view = _QuorumView(net)
    return view.labels(view.max_quorum(view._mask(members)))


# ---------------------------------------------------------------------------
# Generated-quorum enumeration (explicit-slice networks)


def _iter_generated_quora(view: _QuorumView, counted: int):
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
    bound is dropped unexpanded.

    ``rest`` is ``view.max_quorum(top & ~(q & counted))`` whenever that
    holds a counted node, and 0 otherwise. Each state carries
    ``max_quorum(top & ~(p & counted))`` for an ancestor ``p`` (or for no
    members at all, at a seed), which contains the state's own, because
    the greatest fixpoint only shrinks as the set it searches shrinks. It
    is shrunk to the state's own complement by removing the state's
    counted members and re-queueing only their users, at a quorum and at a
    state with two or more children to push; a lone child inherits it
    unshrunk and removes the parent's members with its own. A ``rest``
    without a counted node keeps none in any descendant, so with
    ``counted`` non-zero a state with two or more children whose ``rest``
    shrinks to 0 is dropped and pushes none of them: every quorum grown
    below it would come with ``rest`` 0. Every ancestor of a quorum with
    a non-zero ``rest`` has one too, so the first such quorum is the one
    produced without the drop. A lone child's ``rest`` may travel
    unshrunk to a quorum whose own is 0, which is yielded with 0. With
    ``counted`` 0, no ``rest`` is ever computed and nothing is dropped.

    Raises:
        BudgetExceededError: when the search visits more states than
            ``network.DEFAULT_MAX_SEARCH_STATES``, read when the search starts.
    """
    max_states = network.DEFAULT_MAX_SEARCH_STATES
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
        stack = [(seed, alive)]
        while stack:
            q, rest = stack.pop()
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
            m = q
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
            children = [
                child
                for smask in slices[unsat.bit_length() - 1]
                if not (child := q | smask) & ~room and child not in visited
            ]
            if len(children) > 1:
                rest = shrink(rest, q)
                if counted and not rest:
                    continue
            stack.extend((child, rest) for child in children)
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


def _minimal_quota_quora(view: _QuorumView) -> list[tuple[int, ...]]:
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
    Every member choice of a minimal vector is a minimal quorum. ``H`` is
    the view's :attr:`~_QuorumView.honest_table`, which a split scan of
    the whole of ``top`` may have built already.

    Raises:
        BudgetExceededError: when the table exceeds
            ``network.DEFAULT_MAX_SEARCH_STATES`` count vectors, or more
            than that many quora would be listed.
    """
    max_states = network.DEFAULT_MAX_SEARCH_STATES
    classes, radix, table = view.honest_table
    size = prod(radix)
    minimal, stride = table, 1
    for r in radix:
        minimal &= ~(table << stride) | _digit_in(size, stride, r, 0, 1)
        stride *= r
    byzantine = view.top & view.byz_mask
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


def minimal_quora(net: Network, *, view: _QuorumView | None = None) -> tuple[frozenset[NodeId], ...]:
    """All inclusion-minimal quora, sorted by size then node order.

    Explicit-slice networks grow candidates by slice closure, each from
    the seed of its lowest member (:func:`_iter_generated_quora`), which
    grows every minimal quorum, so a candidate is minimal exactly when it
    holds no smaller one. The filter takes candidates by size and keeps,
    for each node, the kept quora that hold it as the bits of an int: a
    candidate holds a kept quorum unless the kept quora holding its absent
    nodes are all of them. The state budget,
    ``network.DEFAULT_MAX_SEARCH_STATES``, bounds the partial sets the
    search visits and, charged before the filter runs, the candidates
    times the nodes. Quota networks read them off the closed table over
    the count vectors of the twin classes of the largest quorum's honest
    members (:func:`_minimal_quota_quora`): the minimal vectors are those
    in it with no one-digit decrement in it. The table and its minimal
    vectors take a bit per vector, and the state budget bounds the
    table's vectors and the quora listed. ``view``, the view of ``net``
    that the command's check was handed, shares the table with a plain
    check, whichever of the two builds it; the result is the same. Both
    kinds share one sort by size, then node positions. No budget counts
    nodes, and none is a parameter: each charge reads the state budget
    where it is made.

    Raises:
        BudgetExceededError: when one of those counts exceeds the state budget.
        ValueError: when ``view`` is a view of another network.
    """
    view = _view_of(net, view)
    if isinstance(net, TrustNetwork):
        candidates = sorted((q for q, _ in _iter_generated_quora(view, 0)), key=int.bit_count)
        n = len(view.order)
        max_states = network.DEFAULT_MAX_SEARCH_STATES
        if len(candidates) * n > max_states:
            raise BudgetExceededError(
                f"filtering {len(candidates)} candidate quora over {n} nodes exceeds {max_states} states"
            )
        holders, minimal = [0] * n, []
        for q in candidates:
            apart = reduce(int.__or__, [holders[k] for k in range(n) if not (q >> k) & 1], 0)
            if apart.bit_count() == len(minimal):
                members = tuple(k for k in range(n) if (q >> k) & 1)
                for k in members:
                    holders[k] |= 1 << len(minimal)
                minimal.append(members)
    else:
        minimal = _minimal_quota_quora(view)
    minimal.sort(key=lambda q: (len(q), q))
    label = view.order.__getitem__
    return tuple(frozenset(map(label, q)) for q in minimal)


# ---------------------------------------------------------------------------
# Quorum-intersection checks

# What an engine returns: the quora or splits examined, and the witness masks.
_Found = tuple[int, tuple[int, int] | None]


def _scan_split(view: _QuorumView, counted: int) -> _Found:
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
    none of them are the lowest. When ``counted`` is all of top, the base
    is empty, those vectors are the view's
    :attr:`~_QuorumView.honest_table`, and every higher one holds a
    Byzantine member, a quorum alone: ``has`` is that table with every
    higher bit set, and no Byzantine digit is built.

    Raises:
        BudgetExceededError: when the table exceeds
            ``network.DEFAULT_MAX_SEARCH_STATES`` vectors.
    """
    max_states = network.DEFAULT_MAX_SEARCH_STATES
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
    if counted == view.top:
        _, honest_radix, honest = view.honest_table
        has = honest | ((1 << size) - (1 << prod(honest_radix)))
    else:
        has = _close_upward(_quorum_table(view, classes, base), radix)
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


def _first_disjoint(view: _QuorumView, counted: int) -> _Found:
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
    or every quorum generated and no witness. The search grows no quora
    below a branching state whose complement holds no counted quorum, so
    the witness is the first of the uncut search and the count at most
    its count. Quora are judged one at a time as they are grown, so a
    budget overrun propagates exactly where the search trips.
    """
    examined = 0
    for q, rest in _iter_generated_quora(view, counted):
        examined += 1
        if rest:
            return examined, (q, rest)
    return examined, None


def _check_qi(
    net: Network, honest: bool, max_nodes: int, view: _QuorumView | None = None
) -> QuorumReport:
    """The plain (``honest`` false) or honest check behind the public entry points.

    ``counted`` is top, or every honest node; slices networks grow quora
    (:func:`_first_disjoint`) and quota networks scan splits
    (:func:`_scan_split`). Only the node budget is checked here; each
    engine charges its own work to the state budget.
    """
    if len(net.nodes) > max_nodes:
        raise BudgetExceededError(
            f"{len(net.nodes)} nodes exceeds the quorum-intersection budget of {max_nodes}"
        )
    view = _view_of(net, view)
    counted = view.honest_mask if honest else view.top
    if not (view.top & counted):
        return QuorumReport(True, None, 0)
    search = _first_disjoint if isinstance(net, TrustNetwork) else _scan_split
    examined, witness = search(view, counted)
    if witness is None:
        return QuorumReport(True, None, examined)
    return QuorumReport(False, tuple(map(view.labels, witness)), examined)


def check_quorum_intersection(
    net: Network,
    *,
    max_nodes: int = DEFAULT_QI_MAX_NODES,
    view: _QuorumView | None = None,
) -> QuorumReport:
    """Decide whether every two quora of ``net`` intersect.

    Exact and witness-producing: a ``holds=False`` report carries a
    disjoint quorum pair. Budget overruns raise instead of guessing.
    ``view``, a :class:`_QuorumView` of ``net``, shares its prepared
    state with the command's other searches; the report is the same. A
    view of another network raises ``ValueError``.
    """
    return _check_qi(net, False, max_nodes, view)


def check_qi_honest(
    net: Network,
    *,
    max_nodes: int = DEFAULT_QI_MAX_NODES,
    view: _QuorumView | None = None,
) -> QuorumReport:
    """Decide whether every two quora share at least one honest node.

    Only quora containing an honest node take part: a pair of quora whose
    honest parts are disjoint is exactly what lets two honest groups
    settle on opposite values, so this check reports weak safety of a
    vetoed network. Purely Byzantine quora can never witness a violation.
    ``view`` is as for :func:`check_quorum_intersection`.
    """
    return _check_qi(net, True, max_nodes, view)


def check_slice_addition(
    base: TrustNetwork,
    node: NodeId,
    new_slice,
    *,
    max_nodes: int = DEFAULT_QI_MAX_NODES,
) -> QuorumReport:
    """Decide quorum intersection after granting ``node`` one extra slice.

    This is the full check (:func:`check_quorum_intersection`) on the
    extended network, and its report is that check's. The base network
    must satisfy quorum intersection; it is checked, under the same
    budgets, only when the extended network fails. The state budget,
    ``network.DEFAULT_MAX_SEARCH_STATES``, bounds the states of each of
    the two searches separately.

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
    report = _check_qi(extended, False, max_nodes)
    # A slice only adds quora, so every base quorum pair is an extended
    # one: when the extended network holds, the base holds too.
    if not report.holds and not _check_qi(base, False, max_nodes).holds:
        raise ValueError(
            "base network fails quorum intersection; slice addition requires a sound base"
        )
    return report


# ---------------------------------------------------------------------------
# Fork search


def _fork_witness(
    net: Network, kind: str, node_a: NodeId, node_b: NodeId, side_a: frozenset, side_b: frozenset
) -> ForkWitness:
    """The fork of ``kind``: ``node_a`` settles on 1 through side_a, ``node_b`` on 0 through side_b.

    Honest members of side_a hold 1, every other honest node 0. Byzantine
    members of side_a show 1 to ``node_a``, and those of side_b show 0 to
    ``node_b``, side_a winning when the two nodes are one; every other
    trusting observer is shown its own value, which keeps the profile
    total without disturbing either side. For a strong fork that is what
    the fallback shows anyway: the honest members of side_a already hold 1
    and those of side_b 0.
    """
    opinions = {i: 1 if i in side_a else 0 for i in net.honest}
    reveals = {b: {o: opinions[o] for o in net.honest if b in net.trust[o]} for b in net.byzantine}
    for side, node, value in ((side_b, node_b, 0), (side_a, node_a, 1)):
        for b in side & net.byzantine:
            if node in reveals[b]:
                reveals[b][node] = value
    profile = OpinionProfile(opinions, reveals)
    return ForkWitness(node_a, node_b, 1, 0, profile, kind, side_a, side_b)


def find_fork(net: Network) -> ForkWitness | None:
    """Exact search for a forked profile; ``None`` means the network is safe.

    A fork between honest ``i`` and ``j`` (possibly the same node) exists
    exactly when coalitions C of i and C' of j share no honest node, or no
    node at all when ``i == j``: one observer sees each trustee hold one
    value, so even Byzantine members cannot serve both of its sides. The
    returned profile gives honest members of C opinion 1, honest members
    of C' opinion 0, filler 0 elsewhere, and dual reveals for Byzantine
    nodes in both coalitions (:func:`_fork_witness`).

    Each pair of winning rules ``(S, need)`` of i and ``(S', need')`` of j,
    read as the view's masks in the order of :func:`~quorumlens.network._rules`,
    is one test of ANDs and popcounts. The shared members of S and S' that
    may not be shared are split: C takes S without them plus ``x`` of
    them, the lowest in node order, and C' takes the rest of S', which
    works iff both needs survive. A slices rule needs all of its set, so
    that split is possible only when there is nothing to split. On a valid
    quota network a node never forks with itself: its whole trust set is
    split, and each part would need more than half of it.

    The search is polynomial, so it has no node budget: it charges the
    ``len(rules_i) * len(rules_j)`` tests of each ``(i, j)`` block to
    ``network.DEFAULT_MAX_SEARCH_STATES``, read at call time, before
    making them. That is one test per pair of honest nodes on a quota
    network, and one per pair of slices on a slices network.

    Raises:
        BudgetExceededError: when the rule-pair tests up to the block that
            holds the first fork, or all of them, exceed
            ``network.DEFAULT_MAX_SEARCH_STATES``.
    """
    max_tests = network.DEFAULT_MAX_SEARCH_STATES
    view = _QuorumView(net)
    honest = view.honest_mask
    rules = [
        (k, [(m, m.bit_count(), need) for m, need in zip(view.rule_masks[k], view.rule_needs[k])])
        for k in range(len(view.order))
        if (honest >> k) & 1
    ]
    tests = 0
    for i, rules_i in rules:
        for j, rules_j in rules:
            tests += len(rules_i) * len(rules_j)
            if tests > max_tests:
                raise BudgetExceededError(f"fork search exceeded {max_tests} rule-pair tests")
            for set_a, size_a, need_a in rules_i:
                for set_b, size_b, need_b in rules_j:
                    split = set_a & set_b
                    if i != j:
                        split &= honest
                    shared = split.bit_count()
                    # C takes the fewest split members that meet need_a, C' the others.
                    x = max(0, need_a - size_a + shared)
                    if x > shared or size_b - x < need_b:
                        continue
                    rest = split  # the split members C leaves to C'
                    for _ in range(x):
                        rest &= rest - 1
                    sides = view.labels(set_a & ~rest), view.labels(set_b & ~split | rest)
                    return _fork_witness(net, "fork", view.order[i], view.order[j], *sides)
    return None


def find_strong_fork(net: Network) -> ForkWitness | None:
    """Search for a strong fork; ``None`` means the network is weakly safe.

    A strong fork is a fork whose two sides support themselves all the way
    down: every member of each side's coalition closure again finds an
    agreeing coalition inside it. That happens exactly when two quora,
    each containing an honest node, intersect in no honest node, so this
    is :func:`check_qi_honest` at its default budgets. The witness carries
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
    report = check_qi_honest(net)
    if report.holds:
        return None
    q_a, q_b = report.witness
    node_a = next(n for n in net.nodes if n in q_a and n not in net.byzantine)
    node_b = next(n for n in net.nodes if n in q_b and n not in net.byzantine)
    return _fork_witness(net, "strong-fork", node_a, node_b, q_a, q_b)
