"""Analytic safety machinery for quota networks.

Every bound here is evaluated in exact rational arithmetic; floats never
decide a pass/fail. The checks cover the cap on Byzantine nodes shared by
two trust sets, the per-profile observation bounds it implies, the
trust-overlap lower bound that safety forces on uniform-quota networks,
and the common-trust consequence: sufficiently overlapping trust sets
always share at least one node trusted by every honest participant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .network import (
    BudgetExceededError,
    Network,
    NodeId,
    OpinionProfile,
    QuotaNetwork,
    TrustNetwork,
    _require_honest,
    _rules,
    observed_set,
)

DEFAULT_EXPANSION_MAX_SLICES = 100_000


def shared_byzantine_bound(net: QuotaNetwork, i: NodeId, j: NodeId) -> Fraction:
    """Cap on Byzantine nodes the trust sets of ``i`` and ``j`` can share.

    The cap is the smaller of each node's assumed Byzantine budget,
    ``b * |T|``, and can never exceed the intersection itself:
    ``min(|T_i & T_j|, b_i * |T_i|, b_j * |T_j|)``, kept as an exact
    rational (the budgets are not rounded).
    """
    _require_honest(net, i, j)
    t_i, t_j = net.trust[i], net.trust[j]
    return min(
        Fraction(len(t_i & t_j)),
        net.byz_fraction[i] * len(t_i),
        net.byz_fraction[j] * len(t_j),
    )


@dataclass(frozen=True)
class ObservationBounds:
    """Both observation inequalities for one (observer pair, value) case.

    ``honest_support_seen`` is how many honest trustees of ``j`` hold the
    value; it must reach ``honest_support_floor``. ``opposite_seen`` is how
    many trustees of ``j`` (honest or not) show the opposite value; it may
    not exceed ``opposite_ceiling``. When the profile breaks the failure
    model (more Byzantine nodes in some trust set than its budget), the
    bounds are reported but carry no guarantee and ``failure_model_ok``
    is false.
    """

    i: NodeId
    j: NodeId
    x: int
    shared_cap: Fraction
    honest_support_seen: int
    honest_support_floor: Fraction
    support_bound_holds: bool
    opposite_seen: int
    opposite_ceiling: Fraction
    opposite_bound_holds: bool
    failure_model_ok: bool


def respects_failure_model(net: QuotaNetwork) -> bool:
    """True when no trust set holds more Byzantine nodes than its budget."""
    return all(
        len(net.trust[i] & net.byzantine) <= net.byz_fraction[i] * len(net.trust[i])
        for i in net.honest
    )


def observation_bounds(
    net: QuotaNetwork,
    profile: OpinionProfile,
    i: NodeId,
    j: NodeId,
    x: int,
) -> ObservationBounds:
    """Evaluate the two observation inequalities for observers ``i`` and ``j``.

    Given that ``i`` sees support for ``x``, honest support for ``x`` seen
    by ``j`` is bounded below, and the opposite-value support ``j`` can see
    is bounded above, both in terms of the trust overlap and the shared
    Byzantine cap. Requires ``i`` to see at least one supporter of ``x``.
    """
    cap = shared_byzantine_bound(net, i, j)  # raises for a non-honest observer
    seen_i = len(observed_set(net, profile, i, x))
    if seen_i == 0:
        raise ValueError(f"premise violated: {i} observes no support for {x}")
    t_i, t_j = net.trust[i], net.trust[j]
    overlap = len(t_i & t_j)

    support = observed_set(net, profile, j, x)
    honest_support = len([n for n in support if n not in net.byzantine])
    floor = overlap + seen_i - len(t_i) - cap

    opposite = len(observed_set(net, profile, j, 1 - x))
    ceiling = len(t_j) - overlap - seen_i + len(t_i) + cap

    return ObservationBounds(
        i=i,
        j=j,
        x=x,
        shared_cap=cap,
        honest_support_seen=honest_support,
        honest_support_floor=floor,
        support_bound_holds=honest_support >= floor,
        opposite_seen=opposite,
        opposite_ceiling=ceiling,
        opposite_bound_holds=opposite <= ceiling,
        failure_model_ok=respects_failure_model(net),
    )


@dataclass(frozen=True)
class OverlapReport:
    """Trust-overlap requirement for one honest pair of a uniform network.

    Safety forces ``|T_i & T_j| > b/(1-b) * (|T_i| + |T_j|)`` with the
    network's uniform Byzantine fraction ``b``; ``satisfies`` records the
    strict comparison.
    """

    pair: tuple[NodeId, NodeId]
    intersection_size: int
    bound: Fraction
    satisfies: bool


def check_overlap_bounds(net: QuotaNetwork) -> list[OverlapReport]:
    """Overlap reports for every unordered honest pair of a uniform network, in node order.

    Raises:
        ValueError: when quotas or Byzantine fractions are not uniform.
    """
    if not isinstance(net, QuotaNetwork):
        raise TypeError("overlap bounds apply to quota networks")
    quotas = {net.quota[i] for i in net.honest}
    if len(quotas) != 1:
        raise ValueError("overlap bounds require a uniform quota")
    fractions = {net.byz_fraction[i] for i in net.honest}
    if len(fractions) != 1:
        raise ValueError("overlap bounds require a uniform byzantine fraction")
    b = next(iter(fractions))
    factor = b / (1 - b)
    reports = []
    for i, j in combinations(net.honest, 2):
        size = len(net.trust[i] & net.trust[j])
        bound = factor * (len(net.trust[i]) + len(net.trust[j]))
        reports.append(
            OverlapReport(
                pair=(i, j),
                intersection_size=size,
                bound=bound,
                satisfies=size > bound,
            )
        )
    return reports


def common_trust_set(net: Network) -> frozenset[NodeId]:
    """Nodes trusted by every honest node (possibly empty)."""
    honest = net.honest
    common = set(net.trust[honest[0]])
    for i in honest[1:]:
        common &= net.trust[i]
    return frozenset(common)


def overlap_premise_holds(net: Network) -> bool:
    """Pairwise check ``|T_i & T_j| > 0.25 * (|T_i| + |T_j|)`` on honest nodes."""
    quarter = Fraction(1, 4)
    for i, j in combinations(net.honest, 2):
        if len(net.trust[i] & net.trust[j]) <= quarter * (
            len(net.trust[i]) + len(net.trust[j])
        ):
            return False
    return True


def expand_quota_network(net: QuotaNetwork) -> TrustNetwork:
    """Rewrite a quota network with its minimal coalitions listed explicitly.

    Each honest node receives every subset of its trust set of exactly the
    threshold size, in the order of ``combinations`` over the trust set
    sorted by ``net.nodes``; larger agreeing sets contain one of these, so
    opinion validation is unchanged for every profile. Nodes with the same
    trust set and threshold share one tuple of coalitions, built once, so
    a clique stores its ``C(n, t)`` coalitions once rather than ``n`` times.

    Raises:
        BudgetExceededError: when some node would need more than
            ``DEFAULT_EXPANSION_MAX_SLICES`` slices.
    """
    from math import comb

    order = {n: k for k, n in enumerate(net.nodes)}
    coalitions: dict[tuple[frozenset[NodeId], int], tuple[frozenset[NodeId], ...]] = {}
    slices: dict[NodeId, tuple[frozenset[NodeId], ...]] = {}
    for i in net.honest:
        ((_, need),) = _rules(net, i)
        count = comb(len(net.trust[i]), need)
        if count > DEFAULT_EXPANSION_MAX_SLICES:
            raise BudgetExceededError(
                f"node {i}: {count} minimal coalitions exceeds the budget"
                f" of {DEFAULT_EXPANSION_MAX_SLICES}"
            )
        game = (net.trust[i], need)
        if game not in coalitions:
            t = sorted(net.trust[i], key=order.get)
            coalitions[game] = tuple(frozenset(c) for c in combinations(t, need))
        slices[i] = coalitions[game]
    return TrustNetwork(net.nodes, net.byzantine, dict(net.trust), slices)
