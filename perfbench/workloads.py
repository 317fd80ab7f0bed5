"""Workload definitions: seeded instances and the command list of one pass.

Each workload fixes the shape of its instances (topology, size, quota,
Byzantine count, formula size) and draws everything else from the seed,
so every seed gives a different but equally heavy set of inputs. Calls
into the library go through module attributes so that the traced run's
wrappers see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from quorumlens import bounds, instances, netio, network

Q34, Q45 = Fraction(3, 4), Fraction(4, 5)
CLIQUE, GROUPS, CENTRAL = "clique", "overlapping-groups", "centralised"

# qi-quota: (topology, nodes, trust size, quota, Byzantine nodes). Byzantine
# nodes are singleton quora, so plain qi on those rows stops at an early
# witness while qi --honest still scans every honest split; n <= 14 rows
# also pay for the minimal-quora display. Plain qi runs up to
# QI_PLAIN_MAX_NODES: at 20 nodes its early witness sits 0.3 to 0.8 s into
# the scan depending on the seed, which would make the pass time depend on
# the seed. The one 20-node scan costs about 2 s, half of a pass, so the
# list stops at 16 nodes below it. It and the four commands at 16 nodes on
# a clique take the top tenth of the latencies, so cmd_ms_p90 falls among
# the clique scans, whose cost barely moves with the seed. The 13-node rows
# with one Byzantine node put an early-witness qi below and a qi --honest
# inside the cluster of 35 to 40 ms commands, so cmd_ms_p50 falls inside
# that cluster, not on its upper edge.
QI_QUOTA = [
    (CLIQUE, 12, 10, Q34, 0),
    (GROUPS, 12, 8, Q45, 1),
    (CENTRAL, 12, 8, Q34, 2),
    (CLIQUE, 12, 9, Q45, 1),
    (GROUPS, 12, 7, Q34, 0),
    (CLIQUE, 12, 10, Q45, 0),
    (CLIQUE, 13, 11, Q45, 1),
    (GROUPS, 13, 8, Q34, 0),
    (CENTRAL, 13, 8, Q45, 1),
    (CLIQUE, 13, 11, Q34, 1),
    (CENTRAL, 13, 8, Q34, 1),
    (CLIQUE, 14, 12, Q45, 0),
    (GROUPS, 14, 9, Q34, 2),
    (CENTRAL, 14, 9, Q45, 0),
    (CENTRAL, 14, 9, Q34, 1),
    (CLIQUE, 16, 14, Q34, 0),
    (GROUPS, 16, 10, Q45, 1),
    (CENTRAL, 16, 10, Q34, 2),
    (CLIQUE, 16, 14, Q45, 1),
    (CENTRAL, 20, 12, Q45, 2),
]
QI_PLAIN_MAX_NODES = 16

# qi-cnf: formulas per variable count, clause ratio 4.26. Formula k with v
# variables is fixed; the seed renames variables 2..v, flips their signs
# and shuffles literals and clauses. Satisfiability and the slice-addition
# premise (variable 1 stays put) are invariant, so every seed runs the same
# mix of early-witness and exhaustive searches on a different labelling.
# The first two 8-variable formulas are satisfiable; the next ones need an
# exhaustive 60-node search of 3 to 5 s each, which would leave too few
# passes in a run, so the exhaustive searches here have 38 to 53 nodes.
# The 24 five-variable formulas make the cheap early-witness searches a
# dense cluster, so cmd_ms_p50 falls inside it, not on its edge where it
# would move with the seed. The third 7-variable formula's slice
# addition costs 1.0 to 1.5 s, a quarter of a pass, and its time moves
# with the host more than the scaling can follow, so the list stops at two.
CNF_COUNTS = {5: 24, 6: 8, 7: 2, 8: 2}
CNF_RATIO = 4.26

# influence-limit: quota networks (topology, nodes, trust size, quota,
# Byzantine nodes). The 18 trust-12 networks are cheap (about 0.1 s a
# command); the trust-13 and trust-14 rows carry most of the time. The
# cost of a row is fixed by its trust size, so it barely moves with the
# seed. Trust 15 and 16 would cost 1 to 2 s a command, too much for the
# time budget. The networks in INFLUENCE_EXPANDED also run after
# expand_quota_network rewrites them into explicit slices; trust 13 and up
# would add 1.2 s or more a command.
INFLUENCE = [
    (topology, 16 if topology == GROUPS else 13, 12, quota, byz)
    for topology in (CLIQUE, CENTRAL, GROUPS)
    for quota in (Q34, Q45)
    for byz in (0, 1, 2)
] + [
    (CLIQUE, 13, 13, Q45, 2),
    (CENTRAL, 14, 13, Q34, 1),
    (CLIQUE, 14, 14, Q34, 3),
    (CENTRAL, 15, 14, Q45, 2),
]
INFLUENCE_EXPANDED = [(CLIQUE, 13, 12, Q45, 1), (CENTRAL, 13, 12, Q45, 2)]

# small-mix: quota networks run through every quota subcommand; the
# slices networks are expansions of small quota networks (within the fork
# search's 64-slice budget), and the vetoed ones add each node's veto.
SMALL_QUOTA = [
    (CLIQUE, 6, 5, Q45, 0),
    (CLIQUE, 8, 6, Q34, 1),
    (GROUPS, 9, 6, Q34, 0),
    (GROUPS, 10, 6, Q45, 1),
    (CENTRAL, 8, 6, Q34, 1),
    (CENTRAL, 10, 6, Q45, 0),
    (CLIQUE, 12, 8, Q34, 2),
    (CENTRAL, 12, 8, Q45, 1),
]
SMALL_SLICES = [
    (CLIQUE, 6, 4, Q34, 0),
    (GROUPS, 8, 5, Q45, 1),
    (CENTRAL, 10, 4, Q34, 1),
    (CLIQUE, 12, 4, Q34, 2),
]

WORKLOADS = ("qi-quota", "qi-cnf", "influence-limit", "small-mix")


@dataclass
class Instance:
    name: str
    net: object
    cnf: object = None
    addition: tuple | None = None  # (node, slice) for a slice-addition base
    extended: object = None  # base plus the added slice
    path: Path | None = None


@dataclass
class Command:
    id: str
    kind: str
    inst: Instance
    argv: list[str] | None = None  # None: a direct library call
    json: bool = True


def _quota(rng, topology, nodes, trust, quota, byz):
    params = instances.GenParams(nodes, trust, quota, byz, rng.randrange(2**31), topology)
    return instances.random_quota_network(params)


def _label(spec) -> str:
    topology, nodes, trust, quota, byz = spec
    return f"{topology[:5]}-n{nodes}-t{trust}-q{quota.numerator}{quota.denominator}-b{byz}"


def corpus_formula(num_vars: int, k: int):
    rng = random.Random(f"qi-cnf/{num_vars}/{k}")
    clauses = []
    for _ in range(round(CNF_RATIO * num_vars)):
        picked = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in picked))
    return instances.Cnf(num_vars, tuple(clauses))


def relabel(cnf, rng):
    """Isomorphic copy: variables 2..n renamed and sign-flipped, order shuffled."""
    rest = list(range(2, cnf.num_vars + 1))
    image = rest[:]
    rng.shuffle(image)
    rename = {1: 1, **dict(zip(rest, image))}
    sign = {1: 1, **{v: rng.choice((1, -1)) for v in rest}}
    clauses = []
    for clause in cnf.clauses:
        lits = [rename[abs(x)] * sign[abs(x)] * (1 if x > 0 else -1) for x in clause]
        rng.shuffle(lits)
        clauses.append(tuple(lits))
    rng.shuffle(clauses)
    return instances.Cnf(cnf.num_vars, tuple(clauses))


def generate(workload: str, seed: int) -> list[Instance]:
    """Build the workload's networks in memory (no files yet)."""
    rng = random.Random(f"{workload}:{seed}")
    out: list[Instance] = []
    if workload == "qi-quota":
        for k, spec in enumerate(QI_QUOTA):
            out.append(Instance(f"{k:02d}-{_label(spec)}", _quota(rng, *spec)))
    elif workload == "qi-cnf":
        for num_vars, count in CNF_COUNTS.items():
            for k in range(count):
                cnf = relabel(corpus_formula(num_vars, k), rng)
                name = f"v{num_vars}-{k}"
                out.append(Instance(name, instances.cnf_to_network(cnf), cnf=cnf))
                try:
                    base, node, members = instances.slice_addition_instance(cnf, verify=False)
                except ValueError:
                    continue  # premise fails: satisfiable with variable 1 false
                slices = dict(base.slices)
                slices[node] = slices[node] + (members,)
                extended = network.TrustNetwork(base.nodes, base.byzantine, base.trust, slices)
                out.append(Instance(name + "-base", base, cnf, (node, members), extended))
    elif workload == "influence-limit":
        for k, spec in enumerate(INFLUENCE):
            net = _quota(rng, *spec)
            out.append(Instance(f"{k:02d}-{_label(spec)}", net))
            if spec in INFLUENCE_EXPANDED:
                out.append(Instance(f"{k:02d}-{_label(spec)}-slices", bounds.expand_quota_network(net)))
    elif workload == "small-mix":
        for k, spec in enumerate(SMALL_QUOTA):
            out.append(Instance(f"q{k}-{_label(spec)}", _quota(rng, *spec)))
        for k, spec in enumerate(SMALL_SLICES):
            sliced = bounds.expand_quota_network(_quota(rng, *spec))
            out.append(Instance(f"s{k}-{_label(spec)}", sliced))
            out.append(Instance(f"v{k}-{_label(spec)}", network.with_veto_slices(sliced)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def save(insts: list[Instance], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for inst in insts:
        inst.path = directory / f"{inst.name}.json"
        netio.save_network(inst.net, inst.path, slice_addition=inst.addition)


def round_trip(insts: list[Instance]) -> tuple[list[str], list[str]]:
    """Load every written file back and compare it with the generated network.

    Returns (problems, notes). A problem is any difference in nodes,
    Byzantine set, quota thresholds, slices or slice-addition metadata. A
    note is a slices network whose in-memory trust sets are not the union
    of its slices: the file format cannot express that, so the loaded trust
    sets differ while every slice, and so every verdict, is unchanged.
    """
    problems, notes = [], []
    for inst in insts:
        loaded = netio.load_network_file(inst.path)
        net, back = inst.net, loaded.network
        same = (
            back.nodes == net.nodes
            and back.byzantine == net.byzantine
            and loaded.slice_addition == inst.addition
        )
        if isinstance(net, network.QuotaNetwork):
            same = same and dict(back.trust) == dict(net.trust) and all(
                network.threshold(back, i) == network.threshold(net, i) for i in net.honest
            )
        else:
            same = same and dict(back.slices) == dict(net.slices) and back.vetoed == net.vetoed
            if dict(back.trust) != dict(net.trust):
                notes.append(f"{inst.path.name}: trust sets are not the union of the slices")
        if not same:
            problems.append(f"{inst.path.name}: the file does not load back as the generated network")
    return problems, notes


def commands(workload: str, insts: list[Instance]) -> list[Command]:
    """One pass: the workload's fixed command list over its instances."""
    out: list[Command] = []

    def add(kind, inst, *args, as_json=True):
        argv = None
        if kind != "slice-add":
            argv = list(args[:1]) + [str(inst.path)] + list(args[1:]) + (["--json"] if as_json else [])
        out.append(Command(f"{len(out):03d}-{kind}-{inst.name}", kind, inst, argv, as_json))

    if workload == "qi-quota":
        for inst in insts:
            if len(inst.net.nodes) <= QI_PLAIN_MAX_NODES:
                add("qi", inst, "qi")
            add("qi-honest", inst, "qi", "--honest")
    elif workload == "qi-cnf":
        for inst in insts:
            if inst.addition is None:
                add("qi", inst, "qi", "--max-nodes", str(len(inst.net.nodes)))
            else:
                add("slice-add", inst)
    elif workload == "influence-limit":
        for inst in insts:
            add("influence", inst, "influence", "--limit", "--exact")
    else:
        for inst in insts:
            for kind, *args in SMALL_PLANS[inst.name[0]]:
                add(kind, inst, *args, as_json=len(out) % 2 == 0)
    return out


# small-mix subcommands per instance family (name prefix): quota, slices,
# vetoed slices. Commands alternate between --json and human rendering.
SMALL_PLANS = {
    "q": [("check", "check"), ("fork", "fork"), ("safety", "safety"), ("qi", "qi"),
          ("qi-honest", "qi", "--honest"), ("influence", "influence")],
    "s": [("check", "check"), ("fork", "fork"), ("qi", "qi"), ("influence", "influence")],
    "v": [("check", "check"), ("strong-fork", "fork", "--strong")],
}
