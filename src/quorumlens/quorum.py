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
  already found satisfied) and judged in chunks: one numpy greatest
  fixpoint finds the largest quorum of every complement in the chunk at
  once, over masks of ``ceil(n/64)`` ``uint64`` words. A budget overrun
  while a chunk fills still judges the candidates already drawn, so the
  search stops exactly where a one-at-a-time loop would;
* quota networks use a pivot-fixed scan over the splits of a pool of
  nodes, decided from one numpy table over the count vectors of the
  pool's twin classes (:func:`_scan_split`). Twins are nodes whose swap
  maps the network onto itself (:meth:`_Masks.twin_classes`). Witnesses
  and counts are those of a walk over every split code, which the scan
  never makes.

:func:`minimal_quora` of a quota network reads the same table
(:func:`_quorum_table`), over the twin classes of the honest members of
the largest quorum, closed upward the same way (:func:`_close_upward`).

Single sets (the largest quorum, :func:`max_quorum_within`,
:func:`minimal_quora`) use a scalar worklist fixpoint that re-checks
only the nodes depending on a removed member.

Both report a witness pair of quora whenever intersection fails, and a
budget overrun is always a distinct outcome, never a verdict.
:func:`check_slice_addition` is the plain check on the network with the
new slice added; the base is checked only when that check fails.
:func:`find_strong_fork` reads the honest check's witness as a strong
fork. :func:`is_quorum` tests the definition member by member, sharing
no code with the searches whose witnesses it re-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product
from math import comb, prod

import numpy as np

from .network import (
    BudgetExceededError,
    ForkWitness,
    Network,
    NodeId,
    TrustNetwork,
    _fork_profile,
    _wins,
    threshold,
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
    counts the splits covered: the split code of the witness + 1, or all
    2^(|pool| - 1) splits when intersection holds, however few count
    vectors the scan reads.
    """

    holds: bool
    witness: tuple[frozenset[NodeId], frozenset[NodeId]] | None
    quora_examined: int


class _Masks:
    """Bitmask view of a network: node order fixes bit positions."""

    def __init__(self, net: Network):
        self.net = net
        self.order = list(net.nodes)
        self.index = {n: k for k, n in enumerate(self.order)}
        self.full = (1 << len(self.order)) - 1
        self.byz_mask = self._mask(net.byzantine)
        self.honest_mask = self.full & ~self.byz_mask
        if isinstance(net, TrustNetwork):
            self.slice_masks: list[list[int]] = []
            for n in self.order:
                if n in net.byzantine:
                    self.slice_masks.append([1 << self.index[n]])
                else:
                    self.slice_masks.append([self._mask(s) for s in net.slices[n]])
            self.quota_req = None
        else:
            self.slice_masks = []
            self.quota_req = []
            for n in self.order:
                if n in net.byzantine:
                    self.quota_req.append((1 << self.index[n], 1))
                else:
                    self.quota_req.append((self._mask(net.trust[n]), threshold(net, n)))
        # users[k]: the nodes whose coalitions can use node k, i.e. those
        # that may lose their last coalition when k leaves a set.
        self.users = [0] * len(self.order)
        for i, n in enumerate(self.order):
            if self.quota_req is None:
                deps = 0
                for s in self.slice_masks[i]:
                    deps |= s
            else:
                deps = self.quota_req[i][0]
            while deps:
                low = deps & -deps
                deps ^= low
                self.users[low.bit_length() - 1] |= 1 << i

    def _mask(self, labels) -> int:
        m = 0
        for x in labels:
            m |= 1 << self.index[x]
        return m

    def labels(self, mask: int) -> frozenset[NodeId]:
        return frozenset(self.order[k] for k in range(len(self.order)) if (mask >> k) & 1)

    def max_quorum(self, within: int) -> int:
        """Largest quorum contained in ``within`` (0 when none exists).

        A worklist greatest fixpoint: every member is checked once, and a
        member with no coalition inside the surviving set is removed,
        which re-queues only its surviving users. Every unqueued survivor
        keeps a coalition, so the result is the unique fixpoint, and it
        contains every quorum that fits in ``within``.
        """
        current = queue = within
        slices, quota, users = self.slice_masks, self.quota_req, self.users
        while queue:
            low = queue & -queue
            queue ^= low
            idx = low.bit_length() - 1
            if quota is None:
                for s in slices[idx]:
                    if s & current == s:
                        break
                else:
                    current ^= low
                    queue |= users[idx] & current
            else:
                tmask, need = quota[idx]
                if (tmask & current).bit_count() < need:
                    current ^= low
                    queue |= users[idx] & current
        return current

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
        for b, (tb, need) in enumerate(self.quota_req):
            key = (need, (self.byz_mask >> b) & 1, tb.bit_count(), self.users[b].bit_count())
            bucket = buckets.setdefault(key, [])
            for members in bucket:
                a = members[0]
                ta = self.quota_req[a][0]
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


def is_quorum(net: Network, q) -> bool:
    """True when ``q`` is non-empty and every honest member wins inside it.

    Decided on the definition, one member at a time, with none of the
    search machinery, so it can re-check the searches' witnesses.
    """
    members = frozenset(q)
    unknown = sorted(members - set(net.nodes))
    if unknown:
        raise ValueError(f"unknown nodes in candidate quorum: {', '.join(unknown)}")
    return bool(members) and all(
        n in net.byzantine or _wins(net, n, members) for n in members
    )


def max_quorum_within(net: Network, s) -> frozenset[NodeId]:
    """The unique largest quorum contained in ``s``; empty if none exists."""
    members = frozenset(s)
    unknown = sorted(members - set(net.nodes))
    if unknown:
        raise ValueError(f"unknown nodes in candidate set: {', '.join(unknown)}")
    masks = _Masks(net)
    return masks.labels(masks.max_quorum(masks._mask(members)))


# ---------------------------------------------------------------------------
# Generated-quorum enumeration (explicit-slice networks)


def _iter_generated_quora(
    masks: _Masks,
    universe: int,
    seeds: int,
    max_states: int,
    counted: int = -1,
    max_size: int | None = None,
):
    """Yield quorum masks grown from the singleton of each node of ``seeds``.

    Seeds go in bit order, and the search from a seed never adds an
    earlier seed. Every inclusion-minimal quorum inside ``universe`` that
    holds a seed and at most ``max_size`` members of ``counted`` is
    produced, from the seed of its lowest seed member: from any partial
    set, the first member still lacking a contained coalition branches
    over its coalitions. When ``seeds`` is ``universe``, that is every
    minimal quorum, grown once, from its lowest member. States are
    memoized, so each partial set expands once; states with more than
    ``max_size`` counted members are dropped unexpanded. Growing a set
    keeps its members' coalitions, so each child carries the parent's
    members below the branching one as ``known`` and skips them when it
    looks for its own first lacking member.
    """
    slices = masks.slice_masks
    visited: set[int] = set()
    room = universe
    while seeds:
        seed = seeds & -seeds
        seeds ^= seed
        stack = [(seed, 0)]
        while stack:
            q, known = stack.pop()
            if q in visited:
                continue
            if max_size is not None and (q & counted).bit_count() > max_size:
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
                yield q
                continue
            known = q & (unsat - 1)
            for smask in slices[unsat.bit_length() - 1]:
                child = q | smask
                if child & ~room:
                    continue
                if child not in visited:
                    stack.append((child, known))
        room &= ~seed


def _quorum_table(masks: _Masks, classes: list[list[int]], base: int = 0) -> np.ndarray:
    """Flat flags of the quorum count vectors over ``classes``, a byte each.

    Digit ``j`` of an index counts the members of ``classes[j]`` in a set,
    and digit 0 varies fastest. A set is a quorum when it is non-empty and
    every member finds ``need`` of its trustees in it or in ``base``,
    Byzantine nodes that every set holds.
    The classes must be twin classes: members of one class stand or fall
    together, and each trusts every member of another class or none, and
    every other member of its own or none, so one member per class is
    checked against a sum of one term per digit. An index splits into a
    high and a low half, so each class costs one outer comparison of two
    arrays of about the square root of the table's size.
    """
    width = (len(masks.order) + 7) // 8
    checks, trusts, needs = [], [], []
    for j, members in enumerate(classes):
        tmask, need = masks.quota_req[members[0]]
        need -= (tmask & base).bit_count()
        if need > 0:
            checks.append(j)
            trusts.append(tmask.to_bytes(width, "little"))
            needs.append(need)
    trusted = np.unpackbits(
        np.frombuffer(b"".join(trusts), dtype=np.uint8).reshape(len(checks), width),
        axis=1,
        bitorder="little",
    )
    # weight[c, d]: what each member of class d adds to the trustee count
    # of a member of class checks[c]; inside its own class, what another
    # member adds. own[c, checks[c]] corrects that for the member itself
    # and subtracts its need, once the class is present.
    rows = np.arange(len(checks))
    weight = trusted[:, [members[0] for members in classes]].astype(np.int32)
    itself = weight[rows, checks]
    weight[rows, checks] = trusted[rows, [classes[j][-1] for j in checks]]
    own = np.zeros_like(weight)
    own[rows, checks] = itself - weight[rows, checks] - np.array(needs, dtype=np.int32)
    radix = [len(members) + 1 for members in classes]
    size = prod(radix)
    split, low = 0, 1
    while split < len(radix) and (low * radix[split]) ** 2 <= size:
        low *= radix[split]
        split += 1

    def terms(digits: range, count: int) -> np.ndarray:
        # Each checked class's count over these digits, at every index of
        # their half; a class outside them contributes nothing.
        x = np.empty((len(digits), count), dtype=np.int32)
        rest = np.arange(count, dtype=np.int32)
        for row, d in enumerate(digits):
            rest, x[row] = np.divmod(rest, radix[d])
        return weight[:, digits] @ x + own[:, digits] @ (x > 0).astype(np.int32)

    # Class c holds when short[c, h] <= have[c, l] for the halves h and l.
    have = terms(range(split), low)
    short = -terms(range(split, len(radix)), size // low)
    table = np.ones((short.shape[1], low), dtype=bool)
    table[0, 0] = False
    # Classes in groups whose comparisons fill about 64 KB: few numpy calls
    # for a small table, one class at a time for a large one.
    step = max(1, min(len(checks), (1 << 16) // size))
    scratch = np.empty((step, *table.shape), dtype=bool)
    for r in range(0, len(checks), step):
        part = scratch[: len(checks) - r]
        np.less_equal(short[r : r + step, :, None], have[r : r + step, None, :], out=part)
        for row in part:
            table &= row
    return table.reshape(-1)


def _close_upward(table: np.ndarray, radix: list[int]) -> np.ndarray:
    """Flag, in place, every count vector that holds a flagged one; return ``table``.

    The prefix-OR along each digit of radix ``radix[j]``, digit 0 fastest
    (the superset zeta transform over OR): a vector ends up flagged when
    it is at least a flagged vector in every digit.
    """
    stride = 1
    for r in radix:
        view = _digits(table, r, stride)
        for i in range(1, r):
            view[:, i] |= view[:, i - 1]
        stride *= r
    return table


def _digits(table: np.ndarray, r: int, stride: int) -> np.ndarray:
    """The flat byte table indexed as ``[block, digit value]`` for one digit.

    A digit of stride 1, 2, 4 or 8 bytes is read as one unsigned word per
    digit value, so a pass over it is one numpy loop over words; with
    ``(block, value, byte)`` indexing numpy would run one inner loop of
    ``stride`` bytes per block. OR and AND act bytewise, so the words
    combine flags as bytes would. Longer strides keep a byte axis.
    """
    if stride in (1, 2, 4, 8):
        return table.view(f"u{stride}").reshape(-1, r)
    return table.reshape(-1, r, stride)


def _minimal_quota_quora(masks: _Masks, top: int, max_states: int) -> list[tuple[int, ...]]:
    """Bit positions of every inclusion-minimal quorum of a quota network, unsorted.

    A Byzantine member of ``top`` is a quorum alone, so it forms exactly
    one minimal quorum, and every other one lies among the honest members
    of ``top``, a union of twin classes. Whether a set of them is a
    quorum, and whether it is a minimal one, depends only on its count
    vector over those classes: :func:`_quorum_table` flags the quorum
    vectors, and :func:`_close_upward` flags in a copy the vectors that
    hold a quorum. A quorum vector is minimal when no one-digit decrement
    holds a quorum; testing the decrements against the quorum flags alone
    would miss a quorum two members smaller. Every member choice of a
    minimal vector is a minimal quorum.

    Raises:
        BudgetExceededError: when the table exceeds ``max_states`` count
            vectors, or more than ``max_states`` quora would be listed.
    """
    inside = top & masks.honest_mask
    classes = [members for members in masks.twin_classes() if (inside >> members[0]) & 1]
    radix = [len(members) + 1 for members in classes]
    size = prod(radix)
    if size > max_states:
        raise BudgetExceededError(
            f"a minimal-quora table of {size} count vectors exceeds {max_states} states"
        )
    table = _quorum_table(masks, classes)
    # free[v]: no vector at or below v holds a quorum.
    free = _close_upward(table.copy(), radix)
    np.logical_not(free, out=free)
    stride = 1
    for r in radix:
        view = _digits(table, r, stride)
        view[:, 1:] &= _digits(free, r, stride)[:, :-1]
        stride *= r
    del free
    byzantine = top & masks.byz_mask
    quora = [(b,) for b in range(len(masks.order)) if (byzantine >> b) & 1]
    # picks[v]: the classes a minimal vector draws on, with their counts.
    picks, listed = [], len(quora)
    for index in np.flatnonzero(table).tolist():
        pick = []
        for members, r in zip(classes, radix):
            index, d = divmod(index, r)
            if d:
                pick.append((members, d))
        picks.append(pick)
        listed += prod(comb(len(members), d) for members, d in pick)
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
) -> tuple[frozenset[NodeId], ...]:
    """All inclusion-minimal quora, sorted by size then node order.

    Explicit-slice networks grow candidates by slice closure, each from
    the seed of its lowest member (:func:`_iter_generated_quora`), and
    keep the minimal ones; ``max_states`` bounds the partial sets that
    search visits. Quota networks read them off the split scan's table
    over the count vectors of the twin classes of the largest quorum's
    honest members (:func:`_minimal_quota_quora`): a byte per vector and
    a closed copy. Both kinds share the ``max_nodes`` budget and one sort
    by size, then node positions.

    Raises:
        BudgetExceededError: when the instance exceeds ``max_nodes``, the
            enumeration exceeds ``max_states``, or the quota table's count
            vectors or listed quora do.
    """
    if len(net.nodes) > max_nodes:
        raise BudgetExceededError(
            f"{len(net.nodes)} nodes exceeds the minimal-quora budget of {max_nodes}"
        )
    masks = _Masks(net)
    top = masks.max_quorum(masks.full)
    if isinstance(net, TrustNetwork):
        candidates = list(_iter_generated_quora(masks, top, top, max_states))
        minimal = [
            tuple(b for b in range(len(masks.order)) if (q >> b) & 1)
            for q in candidates
            if not any(o != q and o & q == o for o in candidates)
        ]
    else:
        minimal = _minimal_quota_quora(masks, top, max_states)
    minimal.sort(key=lambda q: (len(q), q))
    label = masks.order.__getitem__
    return tuple(frozenset(map(label, q)) for q in minimal)


# ---------------------------------------------------------------------------
# Quorum-intersection checks

# The slices search judges generated quora in chunks that start small, so
# an early witness costs little, and double up to a cap. A chunk pays for
# every quorum generated past the witness, so it starts at 16, and it
# holds a (chunk, coalitions) temporary per round, so it stops at 256.
_SLICES_CHUNK_FIRST = 16
_SLICES_CHUNK_MAX = 256


def _scan_split(
    masks: _Masks, pool: int, base: int, max_states: int
) -> tuple[int, tuple[int, int] | None]:
    """First split of ``pool`` into two disjoint quora (quota networks).

    The lowest pool node (the pivot) always sits on side one; split code
    ``c`` puts the k-th other pool node on side one when bit k of ``c`` is
    set. Each side also holds ``base``, Byzantine nodes that every
    candidate keeps. Returns (splits covered, witness): the largest quorum
    of each side for the lowest code where both keep a pool node, and that
    code + 1, or all 2^(|pool| - 1) splits and no witness.

    A split is decided by its count of side-one members in each twin
    class, so no code is walked. :func:`_quorum_table` flags the quorum
    count vectors of the pool's classes; :func:`_close_upward` flags the
    vectors ``has`` that hold a quorum, and the complement of a vector is
    the flat table read backwards. A split shares its verdict with its
    canonical form, whose side-one members are each class's lowest and
    whose code is no higher, so the first violating code is canonical. It
    is fixed bit by bit from the highest pool position down, narrowing
    that position's class digit in a view of the violations to keep the
    bit clear whenever a violation remains.

    Raises:
        BudgetExceededError: when the table exceeds ``max_states`` vectors.
    """
    bits = [b for b in range(len(masks.order)) if (pool >> b) & 1]
    # Classes lie wholly inside or outside the pool, since permutations
    # inside classes keep it; the first holds the pivot, its lowest member.
    classes = [members for members in masks.twin_classes() if (pool >> members[0]) & 1]
    radix = [len(members) + 1 for members in classes]
    size = prod(radix)
    if size > max_states:
        raise BudgetExceededError(
            f"a split table of {size} count vectors exceeds {max_states} states"
        )
    has = _close_upward(_quorum_table(masks, classes, base), radix)
    # Axis -1 - j of the violations is digit j; the pivot's class counts at least 1.
    view = (has & has[::-1]).reshape(radix[::-1])[..., 1:]
    if not view.any():
        return 1 << (len(bits) - 1), None
    lo = [1] + [0] * (len(classes) - 1)
    where = {b: (j, r) for j, members in enumerate(classes) for r, b in enumerate(members)}
    for b in reversed(bits[1:]):
        j, r = where[b]
        if r < lo[j]:
            continue  # bit b is set in every violation left
        axis = (slice(None),) * (len(classes) - 1 - j)
        clear = view[(*axis, slice(None, r + 1 - lo[j]))]
        if clear.any():
            view = clear
        else:
            view = view[(*axis, slice(r + 1 - lo[j], None))]
            lo[j] = r + 1
    side = sum(1 << b for j, members in enumerate(classes) for b in members[: lo[j]])
    code = sum(1 << k for k, b in enumerate(bits[1:]) if (side >> b) & 1)
    return code + 1, (masks.max_quorum(side | base), masks.max_quorum(pool & ~side | base))


def _to_words(masks: list[int], width: int) -> np.ndarray:
    """One row of ``width`` little-endian ``uint64`` words per mask."""
    raw = b"".join(m.to_bytes(8 * width, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), width).copy()


def _from_words(row: np.ndarray) -> int:
    return int.from_bytes(row.astype("<u8").tobytes(), "little")


def _first_disjoint(masks: _Masks, top: int, counted: int, max_states: int) -> QuorumReport:
    """Grow quora inside ``top`` until one leaves room for a counted-disjoint quorum.

    Quora grow from the singletons of top's ``counted`` nodes, each
    search never adding a node of an earlier seed, and states with more
    than half of top's counted nodes are dropped. That is exact: of two
    quora whose counted parts are disjoint, the one with at most half of
    top's counted nodes holds no seed below its lowest counted member, so
    the search from that seed generates a quorum inside it (every state
    on the way is one of its subsets), and the other quorum fits in that
    quorum's complement.

    For each generated quorum ``q`` the largest quorum avoiding the
    counted members of ``q`` is computed; when it holds a counted node,
    the pair is a witness, and ``quora_examined`` is the index of ``q``
    in generation order + 1.

    Generated quora are judged in chunks of ``_SLICES_CHUNK_FIRST``
    doubling up to ``_SLICES_CHUNK_MAX``. Each chunk runs one greatest
    fixpoint on all of its complements ``top & ~(q & counted)`` at once:
    masks are rows of ``ceil(n/64)`` ``uint64`` words, and each round
    keeps the members that still hold a coalition inside their row, read
    off a flat table of the coalitions inside top and their owners, until
    no row changes.

    When the state budget trips while a chunk fills, the quora already
    drawn are judged first: a witness among them is returned, and only
    otherwise does the overrun propagate, so the budget trips exactly
    when a one-at-a-time search would.
    """
    width = (len(masks.order) + 63) // 64
    coalitions, owners = [], []
    for k in range(len(masks.order)):
        if (top >> k) & 1:
            for s in masks.slice_masks[k]:
                if not s & ~top:
                    coalitions.append(s)
                    owners.append(k)
    need = _to_words(coalitions, width)
    # owned[c, k] = 1 when coalition c belongs to node k; a product with
    # it counts, per bit position, the node's coalitions inside a set. It
    # is float32 so the product runs in BLAS; the counts stay exact.
    owned = np.zeros((len(coalitions), 64 * width), dtype=np.float32)
    owned[np.arange(len(coalitions)), owners] = 1

    def largest_quora(cur):
        live = np.arange(len(cur))
        while live.size:
            rows = cur[live]
            missing = need[:, 0] & ~rows[:, 0, None]
            for w in range(1, width):
                missing |= need[:, w] & ~rows[:, w, None]
            held = (missing == 0).astype(np.float32) @ owned > 0
            shrunk = rows & np.packbits(held, axis=1, bitorder="little").view("<u8")
            moved = (shrunk != rows).any(axis=1)
            live = live[moved]
            cur[live] = shrunk[moved]
        return cur

    counted_words = _to_words([counted], width)
    inside = top & counted
    quora = _iter_generated_quora(masks, top, inside, max_states, counted, inside.bit_count() // 2)
    examined, size = 0, _SLICES_CHUNK_FIRST
    while True:
        chunk, overrun = [], None
        try:
            for q in quora:
                chunk.append(q)
                if len(chunk) == size:
                    break
        except BudgetExceededError as exc:
            overrun = exc
        if chunk:
            rest = largest_quora(_to_words([top & ~(q & counted) for q in chunk], width))
            hits = np.flatnonzero((rest & counted_words).any(axis=1))
            if hits.size:
                j = int(hits[0])
                other = _from_words(rest[j])
                witness = (masks.labels(chunk[j]), masks.labels(other))
                return QuorumReport(False, witness, examined + j + 1)
        if overrun is not None:
            raise overrun
        examined += len(chunk)
        if len(chunk) < size:
            return QuorumReport(True, None, examined)
        size = min(2 * size, _SLICES_CHUNK_MAX)


def _check_qi(net: Network, honest: bool, max_nodes: int, max_states: int) -> QuorumReport:
    """The plain (``honest`` false) or honest check behind the public entry points."""
    if len(net.nodes) > max_nodes:
        raise BudgetExceededError(
            f"{len(net.nodes)} nodes exceeds the quorum-intersection budget of {max_nodes}"
        )
    masks = _Masks(net)
    top = masks.max_quorum(masks.full)
    counted = masks.honest_mask if honest else masks.full
    if not (top & counted):
        return QuorumReport(True, None, 0)

    if isinstance(net, TrustNetwork):
        return _first_disjoint(masks, top, counted, max_states)

    if honest:
        # Every honest node is split; the Byzantine members of top join
        # both sides, which keeps only the honest parts disjoint.
        examined, witness = _scan_split(
            masks, masks.honest_mask, top & masks.byz_mask, max_states
        )
    else:
        examined, witness = _scan_split(masks, top, 0, max_states)
    if witness is None:
        return QuorumReport(True, None, examined)
    q1, q2 = witness
    return QuorumReport(False, (masks.labels(q1), masks.labels(q2)), examined)


def check_quorum_intersection(
    net: Network,
    *,
    max_nodes: int = DEFAULT_QI_MAX_NODES,
    max_states: int = DEFAULT_MAX_SEARCH_STATES,
) -> QuorumReport:
    """Decide whether every two quora of ``net`` intersect.

    Exact and witness-producing: a ``holds=False`` report carries a
    disjoint quorum pair. Budget overruns raise instead of guessing.
    """
    return _check_qi(net, False, max_nodes, max_states)


def check_qi_honest(
    net: Network,
    *,
    max_nodes: int = DEFAULT_QI_MAX_NODES,
    max_states: int = DEFAULT_MAX_SEARCH_STATES,
) -> QuorumReport:
    """Decide whether every two quora share at least one honest node.

    Only quora containing an honest node take part: a pair of quora whose
    honest parts are disjoint is exactly what lets two honest groups
    settle on opposite values, so this check reports weak safety of a
    vetoed network. Purely Byzantine quora can never witness a violation.
    """
    return _check_qi(net, True, max_nodes, max_states)


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

    Note that a network whose honest nodes hold singleton veto slices is
    strongly forked as soon as it has two honest nodes: each singleton is
    a self-supporting quorum of its own. The interesting verdicts come
    from networks where every coalition merely contains its owner.
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
    if node in base.byzantine or node not in base.trust:
        raise ValueError(f"node {node!r} is not an honest node of the network")
    if not slice_set or not slice_set <= base.trust[node]:
        raise ValueError("new slice must be a non-empty subset of the node's trust set")
    slices = dict(base.slices)
    slices[node] += (slice_set,)
    extended = TrustNetwork(base.nodes, base.byzantine, base.trust, slices, base.vetoed)
    report = _check_qi(extended, False, max_nodes, max_states)
    # A slice only adds quora, so every base quorum pair is an extended
    # one: when the extended network holds, the base holds too.
    if not report.holds and not _check_qi(base, False, max_nodes, max_states).holds:
        raise ValueError(
            "base network fails quorum intersection; slice addition requires a sound base"
        )
    return report
