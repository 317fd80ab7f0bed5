"""Witness re-checks, decided on the definitions alone.

Each check here re-reads a witness against the network model of
:mod:`quorumlens.network` (a node's winning rules, observed sets and
opinion profiles) and raises :class:`WitnessCheckError` when it does not
show what it claims. None of it shares code with the searches whose
witnesses it judges: no bit masks, tables or fixpoints, and no import of
:mod:`quorumlens.quorum` or :mod:`quorumlens.influence`
(``tests/test_verify.py`` holds this module to the standard library and
:mod:`quorumlens.network`).
"""

from __future__ import annotations

from .network import (
    ForkWitness,
    Network,
    _require_known,
    _wins,
    observed_set,
    profile_violations,
    validates,
)


class WitnessCheckError(Exception):
    """A witness failed its re-check before printing: an internal error."""


def is_quorum(net: Network, q) -> bool:
    """True when ``q`` is non-empty and every honest member wins inside it.

    Decided on the definition, one member at a time against its winning
    rules, with none of the search machinery (no masks, tables or
    fixpoints), so it can re-check the searches' witnesses.
    """
    members = frozenset(q)
    _require_known(net, members, "quorum")
    return bool(members) and all(
        n in net.byzantine or _wins(net, n, members) for n in members
    )


def verify_quorum_pair(net: Network, q_a, q_b, *, honest: bool) -> None:
    """Raise unless both sides are quora that share no node.

    For ``honest``, each side must hold an honest node and they may share
    only Byzantine ones.
    """
    if not (is_quorum(net, q_a) and is_quorum(net, q_b)):
        raise WitnessCheckError("a side of the witness is not a quorum")
    if honest:
        byz = net.byzantine
        if not (q_a - byz and q_b - byz) or (q_a & q_b) - byz:
            raise WitnessCheckError("the witness quora do not split the honest nodes")
    elif q_a & q_b:
        raise WitnessCheckError("the witness quora share a node")


def verify_fork_witness(net: Network, witness: ForkWitness) -> None:
    """Raise unless the witness shows two honest nodes settling apart.

    Every witness needs a well-formed profile, honest ``node_a`` and
    ``node_b`` and different values. A fork needs each node to validate
    its value under the profile, through its supporting coalition: a
    winning coalition of the node inside the set it observes holding
    that value. A strong fork needs both supporting sets to be quora
    that share no honest node, each holding its node, and each honest
    member of a quorum to hold and validate that side's value.
    """
    profile = witness.profile
    if profile_violations(net, profile):
        raise WitnessCheckError("the fork witness profile does not fit the network")
    honest = set(net.honest)
    if witness.node_a not in honest or witness.node_b not in honest:
        raise WitnessCheckError("a fork witness node is not honest")
    if witness.value_a == witness.value_b:
        raise WitnessCheckError("the fork witness nodes settle on the same value")
    sides = (
        (witness.node_a, witness.value_a, witness.supporting_a),
        (witness.node_b, witness.value_b, witness.supporting_b),
    )
    if witness.kind == "strong-fork":
        verify_quorum_pair(net, witness.supporting_a, witness.supporting_b, honest=True)
        if witness.node_a not in witness.supporting_a or witness.node_b not in witness.supporting_b:
            raise WitnessCheckError("a strong-fork witness node is outside its quorum")
        if not all(
            profile.honest_opinions[n] == value and validates(net, profile, n, value)
            for _, value, quorum in sides
            for n in quorum & honest
        ):
            raise WitnessCheckError("a strong-fork witness quorum does not hold its value")
        return
    if not all(validates(net, profile, node, value) for node, value, _ in sides):
        raise WitnessCheckError("a side of the fork witness does not validate its value")
    if not all(
        coalition <= observed_set(net, profile, node, value) and _wins(net, node, coalition)
        for node, value, coalition in sides
    ):
        raise WitnessCheckError("a fork witness coalition does not support its node")
