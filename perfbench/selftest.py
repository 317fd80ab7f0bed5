"""Self-test of the correctness gate: tampered reports must count as failed.

    python3 perfbench/selftest.py

Runs genuine ``qi`` and ``influence`` reports through the gate (they must
pass), then tampered copies: a flipped verdict, a witness quorum with a
member dropped, and a changed influence entry. A tampered report counts
as failed when the gate finds a problem or its masked output differs from
the genuine one, exactly as in a benchmark pass. ``run.py`` calls
:func:`run` after every benchmark run and reports ``correct: false`` if it
fails.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path


def _report(cli, argv) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, json.loads(out.getvalue())


def _counts_as_failed(gate_obj, gate_mod, cmd, genuine, code, doc) -> bool:
    text = json.dumps(doc)
    changed = gate_mod.masked(text, True) != gate_mod.masked(json.dumps(genuine), True)
    return bool(gate_obj.judge(cmd, code, doc)) or changed


def run(directory: Path, verbose: bool = False) -> bool:
    import gate as gate_mod
    import workloads
    from quorumlens import cli, instances

    net = instances.random_quota_network(
        instances.GenParams(8, 6, Fraction(3, 4), 1, 7, "clique")
    )
    inst = workloads.Instance("selftest", net)
    workloads.save([inst], directory)
    path = str(inst.path)
    g = gate_mod.Gate()
    ok = True

    def expect(label, failed_expected, cmd, genuine, code, doc):
        nonlocal ok
        failed = _counts_as_failed(g, gate_mod, cmd, genuine, code, doc)
        if verbose:
            print(f"{label}: {'failed' if failed else 'passed'}")
        ok &= failed == failed_expected

    qi = workloads.Command("qi", "qi", inst, ["qi", path, "--json"])
    code, genuine = _report(cli, qi.argv)
    expect("genuine qi report", False, qi, genuine, code, genuine)
    if genuine["verdict"] != "violated":
        return False  # the instance must carry a witness to tamper with

    flipped = copy.deepcopy(genuine)
    flipped.update(verdict="holds", witness=None)
    expect("qi verdict flipped to holds", True, qi, genuine, 0, flipped)

    dropped = copy.deepcopy(genuine)
    side = min(("quorum_a", "quorum_b"), key=lambda k: len(dropped["witness"][k]))
    dropped["witness"][side] = dropped["witness"][side][1:]
    expect("qi witness member dropped", True, qi, genuine, code, dropped)
    only_gate = bool(g.judge(qi, code, dropped))
    if verbose:
        print(f"  re-check alone flags the dropped member: {only_gate}")
    ok &= only_gate

    honest = workloads.Command("qi-h", "qi-honest", inst, ["qi", path, "--honest", "--json"])
    code, genuine = _report(cli, honest.argv)
    expect("genuine qi --honest report", False, honest, genuine, code, genuine)
    flipped = copy.deepcopy(genuine)
    flipped["verdict"] = "violated" if genuine["verdict"] == "holds" else "holds"
    expect("qi --honest verdict flipped", True, honest, genuine, 1 - code, flipped)

    inf = workloads.Command("inf", "influence", inst, ["influence", path, "--limit", "--exact", "--json"])
    code, genuine = _report(cli, inf.argv)
    expect("genuine influence report", False, inf, genuine, code, genuine)
    tampered = copy.deepcopy(genuine)
    row = tampered["tables"]["matrix"][0]
    k = next(j for j, x in enumerate(row) if x != "0")
    row[k] = str(Fraction(row[k]) * 2)
    expect("influence entry changed", True, inf, genuine, code, tampered)
    return ok


if __name__ == "__main__":
    import shutil

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    work = root / ".bench_build" / "perfbench" / "selftest"
    try:
        passed = run(work, verbose=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("gate self-test", "passed" if passed else "FAILED")
    sys.exit(0 if passed else 1)
