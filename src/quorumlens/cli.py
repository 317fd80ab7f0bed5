"""Command-line front end.

Subcommands: ``check`` (validation), ``qi`` (quorum intersection, with an
honest-intersection variant), ``fork`` (fork and strong-fork search),
``safety`` (quota bound tables), ``influence`` (matrix, graph, limit),
and ``gen`` (reduction and random instance generators).

Exit codes: 0 when the checked property holds or the command succeeded,
1 when the property is violated (a witness is emitted), 2 on input
errors and on a ``qi`` or ``fork`` witness that fails its re-check, 3 when a
resource budget was exceeded, and 141 (as shells report SIGPIPE) when the
reader of standard output went away before the report was written, which
is no verdict. Reports have a machine
form (``--json``) and a human form rendered from the same document; with
a fixed command line and input files the JSON form is byte-identical
across runs except for the ``timing_ms`` field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from fractions import Fraction
from itertools import combinations

from . import bounds as bounds_mod
from . import influence as influence_mod
from .instances import (
    TOPOLOGIES,
    DimacsError,
    GenParams,
    cnf_to_network,
    parse_dimacs,
    random_quota_network,
    slice_addition_instance,
)
from .network import (
    BudgetExceededError,
    ForkWitness,
    NetworkValidationError,
    QuotaNetwork,
    _range_findings,
    network_violations,  # not called here; perfbench/tracing.py wraps this name
)
from .netio import NetworkFormatError, load_network, save_network
from .quorum import (
    DEFAULT_QI_MAX_NODES,
    _QuorumView,
    check_qi_honest,
    check_quorum_intersection,
    find_fork,
    find_strong_fork,
    minimal_quora,
)
from .verify import WitnessCheckError, verify_fork_witness, verify_quorum_pair

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141

MINIMAL_QUORA_DISPLAY_LIMIT = 14


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of 1 or more, got {text!r}")
    return value


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer of 0 or more, got {text!r}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational number such as 4/5 or 0.8, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the machine report")
    common.add_argument("--quiet", action="store_true", help="suppress the report body")

    parser = argparse.ArgumentParser(
        prog="quorumlens",
        description="Safety and influence analysis for quorum systems on trust networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="validate a network file")
    p.add_argument("file")

    p = sub.add_parser("qi", parents=[common], help="quorum-intersection check")
    p.add_argument("file")
    p.add_argument(
        "--honest",
        action="store_true",
        help="require an honest node in every pairwise intersection",
    )
    p.add_argument("--max-nodes", type=_at_least_one, default=DEFAULT_QI_MAX_NODES)

    p = sub.add_parser("fork", parents=[common], help="fork search")
    p.add_argument("file")
    p.add_argument("--strong", action="store_true", help="find two quora that share no honest node")

    p = sub.add_parser("safety", parents=[common], help="quota safety bound tables")
    p.add_argument("file")

    p = sub.add_parser("influence", parents=[common], help="influence matrix and limits")
    p.add_argument("file")
    p.add_argument("--limit", action="store_true", help="report the limit of the matrix powers")
    p.add_argument("--exact", action="store_true", help="print entries as exact rationals")

    gen = sub.add_parser("gen", help="instance generators")
    gen_sub = gen.add_subparsers(dest="generator", required=True)

    p = gen_sub.add_parser("sat", parents=[common], help="reduction from a 3CNF formula")
    p.add_argument("--dimacs", required=True, help="input DIMACS CNF file")
    p.add_argument(
        "--slice-addition",
        action="store_true",
        help="emit the incremental base network plus the slice to add",
    )
    p.add_argument("-o", "--output", required=True)

    p = gen_sub.add_parser("random", parents=[common], help="seeded random quota network")
    p.add_argument("--nodes", type=_at_least_one, required=True)
    p.add_argument("--trust", type=_at_least_one, required=True)
    p.add_argument("--quota", type=_rational, required=True)
    p.add_argument("--byz", type=_non_negative, default=GenParams.byzantine_count)
    p.add_argument("--seed", type=int, default=GenParams.seed)
    p.add_argument("--topology", choices=TOPOLOGIES, default=GenParams.topology)
    p.add_argument("-o", "--output", required=True)
    return parser


def _node_order(net):
    """A sort key that puts labels in network order; build one per command."""
    return {n: k for k, n in enumerate(net.nodes)}.__getitem__


def _fork_witness_json(net, witness: ForkWitness) -> dict:
    order = _node_order(net)
    return {
        "kind": witness.kind,
        "node_a": witness.node_a,
        "value_a": witness.value_a,
        "node_b": witness.node_b,
        "value_b": witness.value_b,
        "supporting_a": sorted(witness.supporting_a, key=order),
        "supporting_b": sorted(witness.supporting_b, key=order),
        "profile": {
            "honest_opinions": dict(sorted(witness.profile.honest_opinions.items())),
            "byzantine_reveals": {
                b: dict(sorted(m.items()))
                for b, m in sorted(witness.profile.byzantine_reveals.items())
            },
        },
    }


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (verdict, witness, tables, exit_code)


def _run_check(args):
    try:
        net = load_network(args.file)
    except NetworkValidationError as exc:
        return "invalid", None, {"violations": exc.violations}, EXIT_INPUT
    # load_network validated the network: it has no violations to report.
    tables = {
        "kind": "quota" if isinstance(net, QuotaNetwork) else "slices",
        "nodes": len(net.nodes),
        "byzantine": sorted(net.byzantine, key=_node_order(net)),
        "violations": [],
    }
    return "valid", None, tables, EXIT_OK


def _run_qi(args):
    net = load_network(args.file)
    # One view serves the check and the display. The plain check of a
    # quota network builds the display's table on it, and the display
    # reads it there.
    view = _QuorumView(net)
    checker = check_qi_honest if args.honest else check_quorum_intersection
    report = checker(net, max_nodes=args.max_nodes, view=view)
    order = _node_order(net)
    # The display rule: minimal quora up to 14 nodes, which no budget refuses.
    minimal = None
    if len(net.nodes) <= MINIMAL_QUORA_DISPLAY_LIMIT:
        minimal = [sorted(q, key=order) for q in minimal_quora(net, view=view)]
    tables = {
        "variant": "honest-intersection" if args.honest else "plain",
        "quora_examined": report.quora_examined,
        "minimal_quora": minimal,
    }
    if report.holds:
        return "holds", None, tables, EXIT_OK
    q_a, q_b = report.witness
    verify_quorum_pair(net, q_a, q_b, honest=args.honest)
    witness = {"quorum_a": sorted(q_a, key=order), "quorum_b": sorted(q_b, key=order)}
    return "violated", witness, tables, EXIT_VIOLATED


def _run_fork(args):
    net = load_network(args.file)
    if args.strong:
        # find_strong_fork is qi --honest under its default node budget.
        max_nodes = DEFAULT_QI_MAX_NODES
        witness = find_strong_fork(net)
        safe_verdict, found_verdict = "weakly-safe", "strongly-forked"
    else:
        max_nodes = None
        witness = find_fork(net)
        safe_verdict, found_verdict = "safe", "forked"
    tables = {"strong": bool(args.strong), "max_nodes": max_nodes}
    if witness is None:
        return safe_verdict, None, tables, EXIT_OK
    verify_fork_witness(net, witness)
    return found_verdict, _fork_witness_json(net, witness), tables, EXIT_VIOLATED


def _run_safety(args):
    net = load_network(args.file)
    if not isinstance(net, QuotaNetwork):
        raise NetworkFormatError("the safety tables require a quota network")
    honest = net.honest
    beta_table = [
        {
            "pair": [i, j],
            "intersection": len(net.trust[i] & net.trust[j]),
            "shared_byzantine_cap": str(bounds_mod.shared_byzantine_bound(net, i, j)),
        }
        for i, j in combinations(honest, 2)
    ]
    overlap_table = None
    overlap_all_pass = None
    try:
        reports = bounds_mod.check_overlap_bounds(net)
        overlap_table = [
            {
                "pair": list(r.pair),
                "intersection": r.intersection_size,
                "bound": str(r.bound),
                "satisfies": r.satisfies,
            }
            for r in reports
        ]
        overlap_all_pass = all(r.satisfies for r in reports)
    except ValueError:
        pass  # non-uniform network: the overlap bound does not apply
    common = bounds_mod.common_trust_set(net)
    quotas = {net.quota[i] for i in honest}
    summary = {
        "quota_uniform": len(quotas) == 1,
        "quota_in_recommended_range": not any(
            _range_findings(q, None) for q in quotas
        ),
        "overlap_all_pass": overlap_all_pass,
        "common_trust_nonempty": bool(common),
    }
    tables = {
        "shared_byzantine_caps": beta_table,
        "overlap_bounds": overlap_table,
        "common_trust": sorted(common, key=_node_order(net)),
        "summary": summary,
    }
    ok = (overlap_all_pass is not False) and bool(common)
    witness = None
    if not ok:
        witness = {
            "failing_pairs": [
                row["pair"] for row in (overlap_table or []) if not row["satisfies"]
            ],
            "common_trust_empty": not common,
        }
    return ("passes" if ok else "violated"), witness, tables, (EXIT_OK if ok else EXIT_VIOLATED)


def _run_influence(args):
    net = load_network(args.file)
    central = None
    if bounds_mod.common_trust_set(net):
        central = influence_mod.centralization_limit_report(net)
        matrix, report = central.matrix, central.limit
    else:
        matrix = influence_mod.influence_matrix(net)
        report = influence_mod.limit_matrix(matrix)
    entry = str if args.exact else float

    def rendered(rows):
        # Nodes that share a game share a row object; render each once.
        return influence_mod._map_rows(lambda row: list(map(entry, row)), rows)

    graph = report.graph
    order = _node_order(net)
    tables: dict = {
        "order": list(matrix.order),
        "matrix": rendered(matrix.entries),
        "graph": {
            "edges": len(graph.edges),
            "components": [
                {
                    "members": sorted(scc, key=order),
                    "closed": closed,
                    "period": period,
                }
                for scc, closed, period in zip(graph.sccs, graph.closed, graph.periods)
            ],
        },
    }
    if args.limit:
        tables["limit"] = {
            "classification": report.classification,
            "matrix": None if report.limit is None else rendered(report.limit),
        }
    if central is not None:
        tables["centralization"] = {
            "common_trust": sorted(central.common_trust, key=order),
            "classification": central.classification,
            "regular": central.regular_ok,
            "fully_regular": central.fully_regular_ok,
            "byzantine_reaches_core": central.byzantine_reaches_core,
            "honest_influence_vanishes": central.honest_influence_vanishes,
        }
    return "computed", None, tables, EXIT_OK


def _run_gen_sat(args):
    from pathlib import Path

    try:
        cnf = parse_dimacs(Path(args.dimacs).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise NetworkFormatError(f"cannot read {args.dimacs}: {exc}") from exc
    if args.slice_addition:
        try:
            base, node, members = slice_addition_instance(cnf)
        except ValueError as exc:
            raise NetworkFormatError(str(exc)) from exc
        save_network(base, args.output, slice_addition=(node, members))
        net = base
        extra = {"slice_addition": {"node": node, "slice": sorted(members, key=_node_order(base))}}
    else:
        net = cnf_to_network(cnf)
        save_network(net, args.output)
        extra = {}
    tables = {
        "variables": cnf.num_vars,
        "clauses": len(cnf.clauses),
        "nodes": len(net.nodes),
        "slices": sum(len(f) for f in net.slices.values()),
        "output": args.output,
        **extra,
    }
    return "generated", None, tables, EXIT_OK


def _run_gen_random(args):
    try:
        params = GenParams(
            node_count=args.nodes,
            trust_size=args.trust,
            quota=args.quota,
            byzantine_count=args.byz,
            seed=args.seed,
            topology=args.topology,
        )
        net = random_quota_network(params)
    except (ValueError, TypeError) as exc:
        raise NetworkFormatError(str(exc)) from exc
    save_network(net, args.output)
    tables = {
        "nodes": len(net.nodes),
        "byzantine": sorted(net.byzantine, key=_node_order(net)),
        "topology": args.topology,
        "output": args.output,
    }
    return "generated", None, tables, EXIT_OK


# ---------------------------------------------------------------------------
# Rendering


def _render_rows(rows: list[list[str]]) -> list[str]:
    widths = [max(len(r[k]) for r in rows) for k in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def render_human(report: dict) -> str:
    """Plain-text rendering, derived from the machine report only."""
    lines = [f"verdict: {report['verdict']}"]
    witness = report.get("witness")
    if witness:
        if "quorum_a" in witness:
            lines.append(f"quorum A: {{{', '.join(witness['quorum_a'])}}}")
            lines.append(f"quorum B: {{{', '.join(witness['quorum_b'])}}}")
        elif "kind" in witness:
            lines.append(
                f"{witness['kind']}: {witness['node_a']} settles on {witness['value_a']}, "
                f"{witness['node_b']} settles on {witness['value_b']}"
            )
            lines.append(f"side A coalition: {{{', '.join(witness['supporting_a'])}}}")
            lines.append(f"side B coalition: {{{', '.join(witness['supporting_b'])}}}")
        elif "failing_pairs" in witness:
            for pair in witness["failing_pairs"]:
                lines.append(f"overlap bound violated for pair {'-'.join(pair)}")
            if witness.get("common_trust_empty"):
                lines.append("no node is trusted by every honest node")
    tables = report.get("tables", {})
    if tables.get("reason"):
        lines.append(f"reason: {tables['reason']}")
    if tables.get("violations"):
        lines.append("violations:")
        lines.extend(f"  - {v}" for v in tables["violations"])
    if tables.get("minimal_quora"):
        quora = ", ".join("{" + ", ".join(q) + "}" for q in tables["minimal_quora"])
        lines.append(f"minimal quora: {quora}")
    if "matrix" in tables:
        lines.append("influence matrix (rows influence columns' holders):")
        rows = [[str(x) for x in row] for row in tables["matrix"]]
        rows = [[name] + row for name, row in zip(tables["order"], rows)]
        lines.extend("  " + r for r in _render_rows(rows))
    if tables.get("limit"):
        limit = tables["limit"]
        lines.append(f"limit: {limit['classification']}")
        if limit.get("matrix") is not None:
            rows = [[str(x) for x in row] for row in limit["matrix"]]
            lines.extend("  " + r for r in _render_rows(rows))
    if tables.get("overlap_bounds") is not None:
        rows = [["pair", "intersection", "bound", "ok"]]
        for entry in tables["overlap_bounds"]:
            rows.append(
                [
                    "-".join(entry["pair"]),
                    str(entry["intersection"]),
                    entry["bound"],
                    "yes" if entry["satisfies"] else "NO",
                ]
            )
        lines.append("trust-overlap bounds:")
        lines.extend("  " + r for r in _render_rows(rows))
    if tables.get("common_trust") is not None and "summary" in tables:
        lines.append(f"common trust: {{{', '.join(tables['common_trust'])}}}")
        lines.append(f"summary: {json.dumps(tables['summary'], sort_keys=True)}")
    if tables.get("centralization"):
        lines.append(f"centralization: {json.dumps(tables['centralization'], sort_keys=True)}")
    if report["verdict"] == "generated":
        lines.append(f"wrote: {tables['output']}")
    return "\n".join(lines)


_HANDLERS = {
    ("check", None): _run_check,
    ("qi", None): _run_qi,
    ("fork", None): _run_fork,
    ("safety", None): _run_safety,
    ("influence", None): _run_influence,
    ("gen", "sat"): _run_gen_sat,
    ("gen", "random"): _run_gen_random,
}


def run(argv: list[str]) -> int:
    """Execute one command line; print its report; return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0

    handler = _HANDLERS[(args.command, getattr(args, "generator", None))]
    seed = getattr(args, "seed", None)
    started = time.perf_counter()
    try:
        verdict, witness, tables, code = handler(args)
    except (NetworkFormatError, NetworkValidationError, DimacsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except WitnessCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        verdict, witness, tables, code = (
            "budget-exceeded",
            None,
            {"reason": str(exc)},
            EXIT_BUDGET,
        )
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    report = {
        "command": list(argv),
        "verdict": verdict,
        "witness": witness,
        "tables": tables,
        "timing_ms": elapsed_ms,
        "seed": seed,
    }
    if not args.quiet:
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(render_human(report))
    return code


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # One plain line per finding: the library's file and source line mean
    # nothing to the reader of a command's output.
    print(f"warning: {message}", file=sys.stderr if file is None else file)


def entry() -> None:
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # Nobody reads the report, and exit 1 would read as a verdict.
        # Python flushes stdout again at exit; point it at devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
