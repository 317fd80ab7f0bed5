"""Hard and random instance generation, with the oracles to check them.

Quorum intersection stays intractable even at fixed structure, and the
construction witnessing that is also a first-rate test generator: every
3CNF formula maps to an explicit-slice network whose quorum intersection
holds exactly when the formula is unsatisfiable, and any violating quorum
pair decodes back to a satisfying assignment. A slice-removal variant
produces incremental instances: a base network that satisfies quorum
intersection plus one candidate slice whose addition preserves it iff the
formula is unsatisfiable.

Alongside the reductions: a DIMACS CNF parser, an exhaustive SAT oracle,
and a seeded random quota-network generator for the property suites.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .network import BudgetExceededError, NodeId, QuotaNetwork, TrustNetwork, as_fraction
from .quorum import check_quorum_intersection

Literal = int
Clause = tuple[Literal, Literal, Literal]

DEFAULT_SAT_MAX_VARS = 24


class DimacsError(ValueError):
    """Malformed DIMACS CNF input."""


@dataclass(frozen=True)
class Cnf:
    """A CNF formula with exactly three literals per clause.

    Literals are signed 1-based variable indices. Shorter clauses are
    represented by repeating their last literal.
    """

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError(f"negative variable count {self.num_vars}")
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause} does not have exactly 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range for {self.num_vars} variables")


def parse_dimacs(text: str) -> Cnf:
    """Parse standard DIMACS CNF text.

    Comment lines start with ``c``; the header is ``p cnf <vars> <clauses>``;
    clauses are 0-terminated integer lists. Clauses with fewer than three
    literals are padded by repeating the last literal; longer clauses are
    rejected. A clause-count mismatch warns but does not fail.
    """
    num_vars = None
    declared = None
    literals: list[int] = []
    clauses: list[Clause] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed header {line!r}") from None
            if num_vars < 0 or declared < 0:
                raise DimacsError(f"line {lineno}: negative count in header {line!r}")
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause before header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"line {lineno}: bad token {tok!r}") from None
            if lit == 0:
                if not literals:
                    raise DimacsError(f"line {lineno}: empty clause")
                if len(literals) > 3:
                    raise DimacsError(
                        f"line {lineno}: clause with {len(literals)} literals, only 3 supported"
                    )
                while len(literals) < 3:
                    literals.append(literals[-1])
                clauses.append(tuple(literals))
                literals = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(f"line {lineno}: literal {lit} out of range")
                literals.append(lit)
    if literals:
        raise DimacsError("unterminated clause at end of input")
    if num_vars is None:
        raise DimacsError("missing header")
    if declared is not None and declared != len(clauses):
        warnings.warn(
            f"header declares {declared} clauses but {len(clauses)} were read",
            stacklevel=2,
        )
    return Cnf(num_vars, tuple(clauses))


def serialize_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def satisfies(cnf: Cnf, assignment: dict[int, bool]) -> bool:
    """Does ``assignment`` (1-based variable index to bool) satisfy every clause?"""
    for clause in cnf.clauses:
        if not any(assignment[abs(lit)] == (lit > 0) for lit in clause):
            return False
    return True


def brute_sat(
    cnf: Cnf,
    *,
    fixed: dict[int, bool] | None = None,
) -> dict[int, bool] | None:
    """Exhaustive satisfiability search; ``None`` means unsatisfiable.

    Returns the first model in lexicographic order of the assignment
    vector (variable 1 most significant, False before True). ``fixed``
    pins chosen variables, which decides residual formulas without any
    clause rewriting.
    """
    if cnf.num_vars > DEFAULT_SAT_MAX_VARS:
        raise BudgetExceededError(
            f"{cnf.num_vars} variables exceeds the truth-table budget of {DEFAULT_SAT_MAX_VARS}"
        )
    fixed = fixed or {}
    free = [v for v in range(1, cnf.num_vars + 1) if v not in fixed]
    for bits in itertools.product((False, True), repeat=len(free)):
        assignment = dict(fixed)
        assignment.update(zip(free, bits))
        if satisfies(cnf, assignment):
            return assignment
    return None


# ---------------------------------------------------------------------------
# Reductions to quorum-intersection instances


def _literal_node(lit: Literal) -> NodeId:
    return f"p{lit}" if lit > 0 else f"n{-lit}"


def cnf_to_network(cnf: Cnf) -> TrustNetwork:
    """Network whose quorum intersection holds iff ``cnf`` is unsatisfiable.

    Nodes: anchors ``z0`` and ``z1``, one ``c<j>`` per clause, and
    ``y<i>``, ``p<i>``, ``n<i>`` per variable. ``z0`` requires all the
    variable nodes, ``z1`` all the clause nodes; each variable node
    requires its positive or its negative side; each clause node requires
    a node standing for one of its literals; literal nodes require an
    anchor. Any two disjoint quora must split the anchors, which forces a
    consistent, satisfying choice of literals. All nodes are honest and
    each node trusts exactly the union of its slices.
    """
    n, m = cnf.num_vars, len(cnf.clauses)
    var_range = range(1, n + 1)
    nodes = (
        ["z0", "z1"]
        + [f"c{j}" for j in range(1, m + 1)]
        + [f"y{i}" for i in var_range]
        + [f"p{i}" for i in var_range]
        + [f"n{i}" for i in var_range]
    )
    slices: dict[NodeId, tuple[frozenset, ...]] = {
        "z0": (frozenset(["z0"] + [f"y{i}" for i in var_range]),),
        "z1": (frozenset(["z1"] + [f"c{j}" for j in range(1, m + 1)]),),
    }
    for j, clause in enumerate(cnf.clauses, start=1):
        family = []
        for lit in clause:
            s = frozenset({f"c{j}", _literal_node(lit)})
            if s not in family:
                family.append(s)
        slices[f"c{j}"] = tuple(family)
    for i in var_range:
        slices[f"y{i}"] = (
            frozenset({f"y{i}", f"p{i}"}),
            frozenset({f"y{i}", f"n{i}"}),
        )
        for side in (f"p{i}", f"n{i}"):
            slices[side] = (
                frozenset({side, "z0"}),
                frozenset({side, "z1"}),
            )
    trust = {node: frozenset().union(*slices[node]) for node in nodes}
    return TrustNetwork(tuple(nodes), frozenset(), trust, slices)


def decode_qi_witness(
    cnf: Cnf, witness: tuple[frozenset[NodeId], frozenset[NodeId]]
) -> dict[int, bool]:
    """Read a satisfying assignment off a disjoint quorum pair.

    The side containing ``z0`` carries every variable node, each
    supported by its positive or negative side; a negative side on the
    ``z0`` quorum means the variable is true (its positive side is then
    free to serve the clause quorum), and conversely.
    """
    z0_side = next((q for q in witness if "z0" in q), None)
    if z0_side is None:
        raise ValueError("no side of the witness contains z0")
    assignment = {}
    for i in range(1, cnf.num_vars + 1):
        assignment[i] = f"n{i}" in z0_side
    return assignment


def slice_addition_instance(
    cnf: Cnf, *, verify: bool = True
) -> tuple[TrustNetwork, NodeId, frozenset[NodeId]]:
    """Incremental instance: base network, node, and the slice to add.

    The base is the reduction of ``cnf`` with the negative-side slice of
    the first variable removed, which pins variable 1 false on the ``z0``
    quorum side; the base therefore satisfies quorum intersection exactly
    when ``cnf`` with variable 1 false is unsatisfiable, and that premise
    is checked, not assumed. Adding the removed slice back restores the
    full reduction, so the extended network keeps quorum intersection iff
    ``cnf`` is unsatisfiable.

    Raises:
        ValueError: when the premise fails, i.e. ``cnf`` is satisfiable
            with variable 1 false.
    """
    if cnf.num_vars < 1:
        raise ValueError("formula has no variables")
    if brute_sat(cnf, fixed={1: False}) is not None:
        raise ValueError(
            "premise failed: formula is satisfiable with variable 1 false, "
            "so the base network would not satisfy quorum intersection"
        )
    full = cnf_to_network(cnf)
    removed = frozenset({"y1", "n1"})
    slices = dict(full.slices)
    slices["y1"] = tuple(s for s in slices["y1"] if s != removed)
    base = TrustNetwork(full.nodes, full.byzantine, full.trust, slices)
    if verify:
        if not check_quorum_intersection(base, max_nodes=len(base.nodes)).holds:
            raise AssertionError("generator postcondition failed: base lacks quorum intersection")
    return base, "y1", removed


# ---------------------------------------------------------------------------
# Random quota networks

# The topologies random_quota_network builds, in the order the CLI lists them.
TOPOLOGIES = ("clique", "overlapping-groups", "centralised")


@dataclass(frozen=True)
class GenParams:
    """Parameters of the seeded random quota-network generator.

    ``topology`` is one of :data:`TOPOLOGIES`: ``clique`` (one shared
    trust set), ``overlapping-groups`` (groups sharing a core of
    ``overlap * trust_size`` nodes) or ``centralised`` (a core trusted by
    everyone; core members trust themselves, each other, and every
    Byzantine node).
    """

    node_count: int
    trust_size: int
    quota: Fraction
    byzantine_count: int = 0
    seed: int = 0
    topology: str = "clique"
    overlap: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "quota", as_fraction(self.quota))


def _labels(count: int) -> list[NodeId]:
    width = len(str(count))
    return [f"v{k:0{width}d}" for k in range(1, count + 1)]


def random_quota_network(params: GenParams) -> QuotaNetwork:
    """Deterministic-for-seed random quota network.

    Raises:
        ValueError: for infeasible parameter combinations.
    """
    p = params
    if not (0 < p.trust_size <= p.node_count):
        raise ValueError("trust_size must be in [1, node_count]")
    if not (Fraction(1, 2) < p.quota <= 1):
        raise ValueError("quota must lie in (0.5, 1]")
    if not (0 <= p.byzantine_count < p.node_count):
        raise ValueError("byzantine_count must leave at least one honest node")
    rng = random.Random(p.seed)
    labels = _labels(p.node_count)
    byz = frozenset(labels[p.node_count - p.byzantine_count :])
    honest = [x for x in labels if x not in byz]
    trust: dict[NodeId, frozenset[NodeId]] = {}

    if p.topology == "clique":
        shared = frozenset(rng.sample(labels, p.trust_size))
        for i in honest:
            trust[i] = shared
    elif p.topology == "overlapping-groups":
        core_size = min(p.trust_size - 1, max(0, round(p.overlap * p.trust_size)))
        block_size = p.trust_size - core_size
        pool = labels[:]
        rng.shuffle(pool)
        core = pool[:core_size]
        rest = pool[core_size:]
        blocks = [rest[k : k + block_size] for k in range(0, len(rest), block_size)]
        if len(blocks) > 1 and len(blocks[-1]) < block_size:
            spill = blocks.pop()
        else:
            spill = []
        membership: dict[NodeId, int] = {}
        for b, block in enumerate(blocks):
            for x in block:
                membership[x] = b
        for x in core + spill:
            membership[x] = len(blocks) - 1
        for i in honest:
            trust[i] = frozenset(core) | frozenset(blocks[membership[i]])
    elif p.topology == "centralised":
        core_size = max(1, p.trust_size // 2)
        if core_size > len(honest):
            raise ValueError("not enough honest nodes for the core")
        core = honest[:core_size]
        needed = core_size + p.byzantine_count
        if p.trust_size < needed or p.trust_size < core_size + 1:
            raise ValueError(
                f"trust_size {p.trust_size} too small for core of {core_size} "
                f"plus {p.byzantine_count} byzantine nodes"
            )
        for i in honest:
            base = set(core)
            if i in core:
                base |= byz
            else:
                base.add(i)
            extra_pool = [x for x in labels if x not in base]
            base |= set(rng.sample(extra_pool, p.trust_size - len(base)))
            trust[i] = frozenset(base)
    else:
        raise ValueError(f"unknown topology {p.topology!r}")

    quota = {i: p.quota for i in honest}
    return QuotaNetwork(tuple(labels), byz, trust, quota)
