"""Core data model for trust networks with Byzantine participants.

A network is a set of nodes, a Byzantine subset, and, for every honest
node, a trust set plus the winning coalitions (slices) drawn from it that
can settle the node's opinion. Two representations exist, both built on
one base that holds the nodes, the Byzantine set and the trust sets:

* :class:`TrustNetwork` lists every slice explicitly.
* :class:`QuotaNetwork` induces slices implicitly: any subset of the
  trust set whose size meets a per-node quota.

Both say which coalitions win for a node in one form, its winning rules
(:func:`_rules`): ``(set, need)`` pairs, met by a coalition holding
``need`` members of ``set``. A quota node has one rule, its trust set and
threshold; a slices node has one rule per slice, which needs the whole
slice. Validation, the ``vetoed`` property, the quorum view's bit masks
(which the quorum and fork searches read) and the influence matrix's
game key all read these rules.

On top of the model this module implements opinion profiles, observed
sets and validation of a value by a node. Both fork searches, weak and
strong, read the quorum view's masks, so they live with the quorum
checks in :mod:`quorumlens.quorum`. All values are immutable after
construction and every operation is a pure function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

NodeId = str

DEFAULT_MAX_SEARCH_STATES = 2_000_000


class NetworkValidationError(ValueError):
    """Raised when a network breaks a structural invariant.

    The ``violations`` attribute lists one human-readable message per
    broken invariant, each naming the offending node.
    """

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class BudgetExceededError(RuntimeError):
    """Raised when an exact search would exceed its configured resource budget.

    Deliberately distinct from any true/false verdict: callers must not
    mistake an aborted search for a safety result.
    """


class QuotaRangeWarning(UserWarning):
    """Quota or Byzantine-fraction value outside the recommended range."""


def as_fraction(value) -> Fraction:
    """Convert a number to an exact rational.

    Floats go through their decimal string form so that e.g. 0.8 becomes
    exactly 4/5 rather than the nearest binary fraction; this keeps quota
    thresholds like ceil(0.8 * 5) == 4 exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a valid rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


@dataclass(frozen=True)
class _TrustModel:
    """What both network kinds share: nodes, the Byzantine set, trust sets.

    Fields:
        nodes: all node labels, in a fixed order used for deterministic output.
        byzantine: labels of Byzantine nodes; the rest are honest.
        trust: per honest node, the set of nodes it listens to.

    Byzantine nodes carry no trust set; they behave as if their only
    winning coalition were their own singleton.
    """

    nodes: tuple[NodeId, ...]
    byzantine: frozenset[NodeId]
    trust: Mapping[NodeId, frozenset[NodeId]]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "byzantine", frozenset(self.byzantine))
        object.__setattr__(self, "trust", {k: frozenset(v) for k, v in self.trust.items()})

    @property
    def honest(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self.nodes if n not in self.byzantine)

    @property
    def vetoed(self) -> bool:
        """True when every honest node's own singleton wins for it.

        Read through :func:`_rules`, that is "``{i}`` is a slice" for a
        slices node and "threshold 1 and ``i`` trusts itself" for a quota
        node.
        """
        return _cannot_veto(self) is None


@dataclass(frozen=True)
class TrustNetwork(_TrustModel):
    """Trust network with explicitly listed winning coalitions.

    Fields beyond the shared ``nodes``, ``byzantine`` and ``trust``:
        slices: per honest node, its winning coalitions, each a subset of
            the trust set. A coalition wins as soon as the observed set
            contains it (superset-closed reading).

    The network is vetoed (:attr:`vetoed`) when every honest node lists
    its own singleton among its slices.
    """

    slices: Mapping[NodeId, tuple[frozenset[NodeId], ...]]

    def __post_init__(self):
        super().__post_init__()
        # Drop repeated slices, keeping first occurrences in order; a
        # coalition that is already a frozenset is kept as the same object.
        normalized = {
            node: tuple(dict.fromkeys(map(frozenset, family)))
            for node, family in self.slices.items()
        }
        object.__setattr__(self, "slices", normalized)


@dataclass(frozen=True)
class QuotaNetwork(_TrustModel):
    """Trust network whose slices are induced by per-node quotas.

    A coalition C subset of T_i wins for honest ``i`` exactly when
    ``|C| >= ceil(quota[i] * |T_i|)``. ``byz_fraction[i]`` records the
    fraction of each trust set assumed Byzantine under the failure model;
    it defaults to ``1 - quota[i]``.
    """

    quota: Mapping[NodeId, Fraction]
    byz_fraction: Mapping[NodeId, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        quota = {k: as_fraction(v) for k, v in self.quota.items()}
        object.__setattr__(self, "quota", quota)
        fractions = {k: as_fraction(v) for k, v in self.byz_fraction.items()}
        # Keyed by (numerator, denominator): hashing a Fraction costs a
        # modular inverse per lookup, hashing a pair of ints does not.
        defaults: dict[tuple[int, int], Fraction] = {}
        for node, q in quota.items():
            if node not in fractions:
                key = q.numerator, q.denominator
                b = defaults.get(key)
                if b is None:
                    b = defaults[key] = 1 - q
                fractions[node] = b
        object.__setattr__(self, "byz_fraction", fractions)


Network = TrustNetwork | QuotaNetwork


def threshold(net: QuotaNetwork, node: NodeId) -> int:
    """Minimum agreeing coalition size for ``node``: ceil(q_i * |T_i|).

    Computed in integers, as a floor division of the negated product, so
    no ``Fraction`` is built.
    """
    q = net.quota[node]
    return -(-q.numerator * len(net.trust[node]) // q.denominator)


def _require_honest(net: Network, *nodes: NodeId) -> None:
    """Raise ``ValueError`` for the first of ``nodes`` that is not honest in ``net``."""
    for n in nodes:
        if n in net.byzantine or n not in net.trust:
            raise ValueError(f"node {n!r} is not an honest node of the network")


def _require_known(net: Network, members: frozenset, what: str) -> None:
    """Raise ``ValueError`` listing the ``members`` that are not nodes of ``net``."""
    if unknown := members - set(net.nodes):
        raise ValueError(f"unknown nodes in candidate {what}: {_listed(unknown)}")


@dataclass(frozen=True)
class OpinionProfile:
    """One snapshot of everyone's revealed opinions.

    ``honest_opinions`` maps every honest node to its single opinion in
    {0, 1}. ``byzantine_reveals`` maps each Byzantine node to the value it
    shows each honest observer; an observer with no entry sees nothing
    from that node (the node counts toward neither value for it).
    """

    honest_opinions: Mapping[NodeId, int]
    byzantine_reveals: Mapping[NodeId, Mapping[NodeId, int]]

    def __post_init__(self):
        object.__setattr__(self, "honest_opinions", dict(self.honest_opinions))
        object.__setattr__(
            self,
            "byzantine_reveals",
            {b: dict(m) for b, m in self.byzantine_reveals.items()},
        )


@dataclass(frozen=True)
class ForkWitness:
    """Evidence that two honest nodes can settle on opposite values.

    ``supporting_a`` and ``supporting_b`` are the agreeing coalitions
    (or, for strong forks, the self-supporting quora) behind each side.
    """

    node_a: NodeId
    node_b: NodeId
    value_a: int
    value_b: int
    profile: OpinionProfile
    kind: str  # "fork" | "strong-fork"
    supporting_a: frozenset[NodeId]
    supporting_b: frozenset[NodeId]


# ---------------------------------------------------------------------------
# Validation


def _range_findings(q: Fraction, b: Fraction | None) -> list[tuple[bool, str]]:
    """What a node with quota ``q`` and Byzantine fraction ``b`` is told.

    Each finding is ``(is_problem, text)``, a violation or a
    :class:`QuotaRangeWarning`, in the order they are reported.
    """
    findings = []
    if not (Fraction(1, 2) < q <= 1):
        findings.append((True, f"quota {q} out of range (0.5, 1]"))
    elif q < Fraction(3, 4):
        findings.append((False, f"quota {q} below the recommended [0.75, 1] range"))
    if b is None:
        return findings
    if b < 0 or b >= 1:
        findings.append((True, f"byzantine fraction {b} out of [0, 1)"))
    else:
        if b > Fraction(1, 4):
            findings.append((False, f"byzantine fraction {b} above the assumed 0.25 cap"))
        if b > 1 - q:
            findings.append((False, f"byzantine fraction {b} exceeds 1 - quota = {1 - q}"))
    return findings


def _listed(labels) -> str:
    """``labels`` sorted and joined for a message, whatever their type."""
    return ", ".join(map(str, sorted(labels, key=str)))


def _domain_problems(noun: str, given, expected: set) -> list[str]:
    """What is wrong with a per-node map whose keys should be ``expected``."""
    keys, problems = set(given), []
    if missing := expected - keys:
        problems.append(f"missing {noun} for: {_listed(missing)}")
    if extra := keys - expected:
        problems.append(f"{noun} given for non-honest nodes: {_listed(extra)}")
    return problems


def network_violations(net: Network) -> list[str]:
    """Return every broken structural invariant of ``net``, empty if none.

    Recommended-range deviations (quota below 0.75, Byzantine fraction at
    or above 0.25 or above 1 - quota) are reported as warnings, not
    violations, so that failure models departing from the default remain
    expressible. The ranges are judged once per distinct
    ``(quota, byz_fraction)`` pair; problems and warnings are still
    reported per node, in node order. Labels of any type are reported,
    not raised on: a message lists them sorted by their text.
    """
    problems: list[str] = []
    labels = list(net.nodes)
    if len(set(labels)) != len(labels):
        dupes = _listed({x for x in labels if labels.count(x) > 1})
        problems.append(f"duplicate node labels: {dupes}")
    for label in labels:
        if not isinstance(label, str) or not label:
            problems.append(f"node label {label!r} is not a non-empty string")
    node_set = set(labels)
    for b in sorted(net.byzantine, key=str):
        if b not in node_set:
            problems.append(f"byzantine node {b!r} is not in the node list")
    honest = [n for n in labels if n not in net.byzantine]
    if not honest:
        problems.append("no honest nodes")

    expected = set(honest)
    problems += _domain_problems("trust sets", net.trust, expected)
    for i in honest:
        t = net.trust.get(i)
        if t is None:
            continue
        if not t:
            problems.append(f"node {i}: empty trust set")
        if not node_set.issuperset(t):
            problems.append(f"node {i}: trust set mentions unknown nodes {_listed(t - node_set)}")

    if isinstance(net, TrustNetwork):
        problems += _domain_problems("slices", net.slices, expected)
        for i in honest:
            family = net.slices.get(i)
            if family is None:
                continue
            if not family:
                problems.append(f"node {i}: no winning coalitions")
            t = net.trust.get(i, frozenset())
            for s in family:
                if not s:
                    problems.append(f"node {i}: empty winning coalition")
                elif not s <= t:
                    problems.append(f"node {i}: slice outside trust set ({_listed(s - t)})")
    else:
        problems += _domain_problems("quota", net.quota, expected)
        if stray := set(net.byz_fraction) - expected - set(net.quota):
            problems.append(f"byzantine fractions given for non-honest nodes: {_listed(stray)}")
        # Keyed by integers, as the defaults in QuotaNetwork.__post_init__.
        judged: dict[tuple, list[tuple[bool, str]]] = {}
        for i in honest:
            q = net.quota.get(i)
            if q is None:
                continue
            b = net.byz_fraction.get(i)
            key = q.numerator, q.denominator, None if b is None else (b.numerator, b.denominator)
            findings = judged.get(key)
            if findings is None:
                findings = judged[key] = _range_findings(q, b)
            for is_problem, finding in findings:
                if is_problem:
                    problems.append(f"node {i}: {finding}")
                else:
                    warnings.warn(f"node {i}: {finding}", QuotaRangeWarning, stacklevel=2)
    return problems


def validate_network(net: Network) -> Network:
    """Return ``net`` unchanged if it is well-formed.

    Raises:
        NetworkValidationError: listing every violated invariant.
    """
    problems = network_violations(net)
    if problems:
        raise NetworkValidationError(problems)
    return net


def profile_violations(net: Network, profile: OpinionProfile) -> list[str]:
    """Check an opinion profile against ``net``'s honest/Byzantine split."""
    problems = []
    honest = set(net.honest)
    if set(profile.honest_opinions) != honest:
        problems.append("honest opinion domain differs from the honest node set")
    for i, v in profile.honest_opinions.items():
        if v not in (0, 1):
            problems.append(f"node {i}: opinion {v!r} not in {{0, 1}}")
    if set(profile.byzantine_reveals) != set(net.byzantine):
        problems.append("reveal domain differs from the Byzantine node set")
    for b, reveals in profile.byzantine_reveals.items():
        observers = {i for i in honest if b in net.trust.get(i, frozenset())}
        missing = observers - set(reveals)
        if missing:
            problems.append(
                f"byzantine node {b}: no reveal for trusting observers {', '.join(sorted(missing))}"
            )
        for o, v in reveals.items():
            if v not in (0, 1):
                problems.append(f"byzantine node {b}: reveal {v!r} to {o} not in {{0, 1}}")
    return problems


# ---------------------------------------------------------------------------
# Observation and validation of opinions


def observed_set(
    net: Network, profile: OpinionProfile, observer: NodeId, x: int
) -> frozenset[NodeId]:
    """Nodes in the observer's trust set seen holding ``x``.

    Honest trustees contribute their single opinion; Byzantine trustees
    contribute whatever they reveal to this specific observer, and are
    left out of both value classes if they reveal nothing to it.

    Raises:
        ValueError: for an observer that is not an honest node.
    """
    _require_honest(net, observer)
    members = []
    for i in net.trust[observer]:
        if i in net.byzantine:
            if profile.byzantine_reveals.get(i, {}).get(observer) == x:
                members.append(i)
        elif profile.honest_opinions[i] == x:
            members.append(i)
    return frozenset(members)


def _rules(net: Network, i: NodeId) -> list[tuple[frozenset[NodeId], int]]:
    """Honest ``i``'s winning rules, as ``(set, need)`` pairs.

    A coalition wins for ``i`` when it holds ``need`` members of the set
    of some rule: one rule ``(T_i, threshold)`` for a quota node, and one
    rule ``(s, |s|)`` per slice ``s`` of a slices node. Every reader of
    "does ``i`` win" goes through these rules.
    """
    if isinstance(net, QuotaNetwork):
        return [(net.trust[i], threshold(net, i))]
    return [(s, len(s)) for s in net.slices[i]]


def _wins(net: Network, i: NodeId, members: frozenset[NodeId]) -> bool:
    """True when some winning coalition of honest ``i`` lies inside ``members``."""
    return any(len(members & s) >= need for s, need in _rules(net, i))


def _cannot_veto(net: Network) -> NodeId | None:
    """The first honest node whose own singleton does not win for it, if any."""
    return next((i for i in net.honest if not _wins(net, i, frozenset({i}))), None)


def validates(net: Network, profile: OpinionProfile, i: NodeId, x: int) -> bool:
    """True when some winning coalition of ``i`` lies inside its observed set."""
    return _wins(net, i, observed_set(net, profile, i, x))


def with_veto_slices(net: TrustNetwork) -> TrustNetwork:
    """Copy of ``net`` with each honest node's singleton added to its slices, so it is vetoed."""
    slices = {}
    trust = {}
    for i in net.honest:
        veto = frozenset({i})
        family = net.slices[i]
        slices[i] = family if veto in family else family + (veto,)
        trust[i] = net.trust[i] | {i}
    return TrustNetwork(net.nodes, net.byzantine, trust, slices)
