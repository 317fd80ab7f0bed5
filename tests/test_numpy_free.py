"""Every command runs without numpy.

The package imports no numpy: its tables are Python ints and byte
strings. A child process that blocks the import, by setting
``sys.modules["numpy"]`` to ``None`` before it imports quorumlens, must
import the package and give every command the exit code and report
(``timing_ms`` masked) of the same command run normally. The commands
include every table builder: the quota split scan of ``qi``, ``qi
--honest`` and ``fork --strong``, on networks whose first node is
Byzantine as well, so that its class takes a high digit of the table;
the quota minimal-quora display of ``qi``; and the winning tables of
``influence --limit --exact``, quota and slices. The child is a fresh
process because this one already holds numpy.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import nets
import pytest
from quorumlens import (
    GenParams,
    QuotaNetwork,
    check_slice_addition,
    expand_quota_network,
    random_quota_network,
    save_network,
)
from quorumlens.cli import run

pytestmark = pytest.mark.filterwarnings("ignore::quorumlens.QuotaRangeWarning")

TESTS = Path(__file__).resolve().parent

# Runs each command line of argv[1] through cli.run with numpy blocked and
# prints one JSON list: [exit code, stdout] per command, then one slice
# addition's report, witness sides sorted.
CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from quorumlens import check_slice_addition, cli
import nets

out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    out.append([code, buf.getvalue()])
report = check_slice_addition(nets.two_triangles_bridged(), "3", frozenset("123"))
out.append([report.holds, [sorted(side) for side in report.witness], report.quora_examined])
print(json.dumps(out))
"""


def masked(text):
    doc = json.loads(text)
    doc["timing_ms"] = None
    return doc


def byzantine_first(seed: int) -> QuotaNetwork:
    """A seeded 10-node quota network with its Byzantine node moved to the front."""
    rng = random.Random(seed)
    net = random_quota_network(
        GenParams(10, 5, Fraction(3, 5), 1, rng.randrange(10**6), "overlapping-groups")
    )
    order = sorted(net.nodes, key=lambda n: n not in net.byzantine)
    return QuotaNetwork(tuple(order), net.byzantine, net.trust, net.quota)


def test_every_command_runs_without_numpy(tmp_path, capsys):
    files = {
        "quota": nets.shared_five(byz="5"),
        "byz-first": nets.shared_five(byz="1"),
        "byz-first-random": byzantine_first(2),  # the honest check fails
        "expanded": expand_quota_network(nets.shared_five(byz="5")),
        "slices": nets.two_triangles(),
        "vetoed": nets.two_triangles_vetoed(),
    }
    path = {}
    for name, net in files.items():
        path[name] = str(tmp_path / f"{name}.json")
        save_network(net, path[name])
    assert files["byz-first-random"].nodes[0] in files["byz-first-random"].byzantine
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 3\n1 2 0\n1 -2 0\n-1 2 3 0\n")
    generated = [tmp_path / "random.json", tmp_path / "sat.json", tmp_path / "addition.json"]
    commands = [
        ["check", path["quota"]],
        ["fork", path["quota"]],
        ["safety", path["quota"]],
        ["gen", "random", "--nodes", "8", "--trust", "6", "--quota", "3/4", "--byz", "1",
         "-o", str(generated[0])],
        ["gen", "sat", "--dimacs", str(cnf), "-o", str(generated[1])],
        ["gen", "sat", "--dimacs", str(cnf), "--slice-addition", "-o", str(generated[2])],
        ["check", path["slices"]],
        ["qi", path["slices"]],
        ["qi", path["slices"], "--honest"],
        ["qi", str(generated[1]), "--max-nodes", "40"],
        ["qi", str(generated[2]), "--max-nodes", "40", "--honest"],
        ["fork", path["slices"]],
        ["fork", path["vetoed"], "--strong"],
        ["qi", path["quota"]],
        ["influence", path["quota"]],
        *(
            [cmd, path[name], *flags]
            for name in ("byz-first", "byz-first-random")
            for cmd, *flags in (["qi"], ["qi", "--honest"], ["fork", "--strong"])
        ),
        ["influence", path["quota"], "--limit", "--exact"],
        ["influence", path["expanded"], "--limit", "--exact"],
    ]
    commands = [argv + ["--json"] for argv in commands]

    want = []
    for argv in commands:
        code = run(argv)
        want.append((code, masked(capsys.readouterr().out)))
    written = [path.read_bytes() for path in generated]

    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    got, addition = out[:-1], out[-1]
    assert [(code, masked(text)) for code, text in got] == want
    assert [path.read_bytes() for path in generated] == written
    report = check_slice_addition(nets.two_triangles_bridged(), "3", frozenset("123"))
    assert addition == [report.holds, [sorted(side) for side in report.witness], report.quora_examined]
