"""Correctness gate: judges every command's output against references.

A command fails when its exit code or verdict differs from the expected
one, when a witness fails an independent re-check, when a CNF witness does
not decode to a satisfying assignment, when an influence matrix or limit
classification differs from its closed form, when the run raised, or when
its output (``timing_ms`` masked) differs from the warm-up pass.
Expected answers come from :mod:`oracle` and from ``brute_sat``; none of
them reuses the program's search code.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import oracle

EXIT_OK, EXIT_VIOLATED = 0, 1


def masked(text: str, is_json: bool) -> str:
    """Output with its only non-deterministic field removed."""
    if not is_json:
        return text
    try:
        doc = json.loads(text)
    except ValueError:
        return text
    if isinstance(doc, dict):
        doc.pop("timing_ms", None)
    return json.dumps(doc, sort_keys=True)


def digest(rows) -> str:
    return hashlib.sha256(json.dumps([[str(x) for x in r] for r in rows]).encode()).hexdigest()


def _validates(net, profile: dict, node: str, value: int) -> bool:
    """Does ``node`` see a winning coalition holding ``value`` under the profile?"""
    seen = set()
    for t in net.trust[node]:
        if t in net.byzantine:
            if profile["byzantine_reveals"].get(t, {}).get(node) == value:
                seen.add(t)
        elif profile["honest_opinions"][t] == value:
            seen.add(t)
    return any(c <= seen for c in oracle.winning_coalitions(net, node))


class Gate:
    """Expected answers for one workload's instances, computed on demand."""

    def __init__(self):
        self._tables = {}
        self._sat = {}

    def table(self, inst):
        if inst.name not in self._tables:
            self._tables[inst.name] = oracle.QuorumTable(inst.net)
        return self._tables[inst.name]

    def satisfiable(self, inst) -> bool:
        if inst.name not in self._sat:
            from quorumlens import instances

            self._sat[inst.name] = instances.brute_sat(inst.cnf) is not None
        return self._sat[inst.name]

    def qi_holds(self, inst, honest: bool) -> bool:
        if inst.cnf is not None:
            return not self.satisfiable(inst)
        return self.table(inst).qi_holds(honest)

    # -- judging ---------------------------------------------------------

    def judge(self, cmd, code, doc) -> list[str]:
        """Problems with one command's report; empty when it is correct."""
        try:
            return getattr(self, "_judge_" + cmd.kind.replace("-", "_"))(cmd, code, doc)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            return [f"malformed report: {exc!r}"]

    @staticmethod
    def _expect(code, doc, verdict: str, exit_code: int) -> list[str]:
        problems = []
        if doc["verdict"] != verdict:
            problems.append(f"verdict {doc['verdict']!r}, expected {verdict!r}")
        if code != exit_code:
            problems.append(f"exit code {code}, expected {exit_code}")
        return problems

    def _judge_check(self, cmd, code, doc):
        net = cmd.inst.net
        problems = self._expect(code, doc, "valid", EXIT_OK)
        tables = doc["tables"]
        if tables["violations"] or tables["nodes"] != len(net.nodes):
            problems.append("check tables do not describe the network")
        return problems

    def _quorum_pair(self, net, a, b, honest: bool) -> list[str]:
        problems = []
        if not (oracle.is_quorum(net, a) and oracle.is_quorum(net, b)):
            problems.append("a witness side is not a quorum")
        if honest:
            if not (a - net.byzantine and b - net.byzantine):
                problems.append("a witness side has no honest node")
            if (a & b) - net.byzantine:
                problems.append("witness quora share an honest node")
        elif a & b:
            problems.append("witness quora intersect")
        return problems

    def _judge_qi(self, cmd, code, doc, honest=False):
        inst = cmd.inst
        holds = self.qi_holds(inst, honest)
        problems = self._expect(
            code, doc, "holds" if holds else "violated", EXIT_OK if holds else EXIT_VIOLATED
        )
        witness = doc["witness"]
        if (witness is None) != holds:
            problems.append("witness presence does not match the verdict")
        if witness is not None:
            a, b = frozenset(witness["quorum_a"]), frozenset(witness["quorum_b"])
            problems += self._quorum_pair(inst.net, a, b, honest)
            if inst.cnf is not None:
                from quorumlens import instances

                assignment = instances.decode_qi_witness(inst.cnf, (a, b))
                if not oracle.satisfies(inst.cnf, assignment):
                    problems.append("witness does not decode to a satisfying assignment")
        shown = doc["tables"]["minimal_quora"]
        if len(inst.net.nodes) <= 14:
            expected = self.table(inst).minimal_quora()
            if shown is None or {frozenset(q) for q in shown} != expected or len(shown) != len(expected):
                problems.append("minimal quora differ from the subset table")
        elif shown is not None:
            problems.append("minimal quora shown above the display limit")
        return problems

    def _judge_qi_honest(self, cmd, code, doc):
        return self._judge_qi(cmd, code, doc, honest=True)

    def _judge_slice_add(self, cmd, code, doc):
        inst = cmd.inst
        holds = not self.satisfiable(inst)
        problems = []
        if doc["holds"] != holds:
            problems.append(f"slice addition holds={doc['holds']}, expected {holds}")
        if doc["witness"] is not None:
            from quorumlens import instances

            a, b = (frozenset(side) for side in doc["witness"])
            problems += self._quorum_pair(inst.extended, a, b, honest=False)
            assignment = instances.decode_qi_witness(inst.cnf, (a, b))
            if not oracle.satisfies(inst.cnf, assignment):
                problems.append("witness does not decode to a satisfying assignment")
        elif not holds:
            problems.append("violated slice addition without a witness")
        return problems

    def _fork_witness(self, net, w, strong: bool) -> list[str]:
        problems = []
        a, b = frozenset(w["supporting_a"]), frozenset(w["supporting_b"])
        na, nb = w["node_a"], w["node_b"]
        if na in net.byzantine or nb in net.byzantine or w["value_a"] == w["value_b"]:
            problems.append("fork sides are not two honest nodes on opposite values")
            return problems
        if strong:
            problems += self._quorum_pair(net, a, b, honest=True)
            if na not in a or nb not in b:
                problems.append("strong-fork nodes lie outside their quora")
        else:
            for node, side in ((na, a), (nb, b)):
                if not any(c <= side for c in oracle.winning_coalitions(net, node)):
                    problems.append(f"supporting set of {node} is not a winning coalition")
            shared = a & b if na == nb else (a & b) - net.byzantine
            if shared:
                problems.append("fork coalitions overlap")
        profile = w["profile"]
        if not (_validates(net, profile, na, w["value_a"]) and _validates(net, profile, nb, w["value_b"])):
            problems.append("profile does not validate both values")
        return problems

    def _judge_fork(self, cmd, code, doc):
        net = cmd.inst.net
        forked = oracle.fork_exists(net)
        problems = self._expect(
            code, doc, "forked" if forked else "safe", EXIT_VIOLATED if forked else EXIT_OK
        )
        if doc["witness"] is not None:
            problems += self._fork_witness(net, doc["witness"], strong=False)
        return problems

    def _judge_strong_fork(self, cmd, code, doc):
        net = cmd.inst.net
        forked = not self.table(cmd.inst).qi_holds(honest=True)
        problems = self._expect(
            code,
            doc,
            "strongly-forked" if forked else "weakly-safe",
            EXIT_VIOLATED if forked else EXIT_OK,
        )
        if doc["witness"] is not None:
            problems += self._fork_witness(net, doc["witness"], strong=True)
        return problems

    def _judge_safety(self, cmd, code, doc):
        passes, failing, common_empty = oracle.safety_expectation(cmd.inst.net)
        problems = self._expect(
            code, doc, "passes" if passes else "violated", EXIT_OK if passes else EXIT_VIOLATED
        )
        witness = doc["witness"]
        if passes != (witness is None):
            problems.append("witness presence does not match the verdict")
        elif witness is not None and (
            witness["failing_pairs"] != failing or witness["common_trust_empty"] != common_empty
        ):
            problems.append("safety witness differs from the overlap table")
        return problems

    def _judge_influence(self, cmd, code, doc):
        net = cmd.inst.net
        problems = self._expect(code, doc, "computed", EXIT_OK)
        tables = doc["tables"]
        expected = oracle.symmetric_influence_rows(net)
        if "--exact" in cmd.argv:
            shown = [[Fraction(x) for x in row] for row in tables["matrix"]]
            if any(sum(row) != 1 for row in shown):
                problems.append("an exact influence row does not sum to 1")
            if digest(shown) != digest(expected):
                problems.append("influence matrix digest differs from the closed form")
        elif tables["matrix"] != [[float(x) for x in row] for row in expected]:
            problems.append("influence matrix differs from the closed form")
        classification = oracle.limit_classification(net.nodes, expected)
        if "--limit" in cmd.argv and tables["limit"]["classification"] != classification:
            problems.append(
                f"limit classification {tables['limit']['classification']!r}, expected {classification!r}"
            )
        common = frozenset.intersection(
            *(frozenset(net.trust[i]) for i in net.nodes if i not in net.byzantine)
        )
        central = tables.get("centralization")
        if bool(common) != (central is not None):
            problems.append("centralization report presence does not match common trust")
        elif central is not None and central["classification"] != classification:
            problems.append("centralization classification differs from the digraph")
        return problems
