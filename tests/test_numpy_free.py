"""Commands that build no numpy table run without numpy.

numpy is imported inside the three table builders only: the quota split
scan's count-vector table, the quota minimal-quora display and the
influence winning table. A child process that blocks the import, by
setting ``sys.modules["numpy"]`` to ``None`` before it imports quorumlens,
must import the package and give every other command the exit code and
report (``timing_ms`` masked) of the same command run normally, and must
hit ``ImportError`` on a command that builds a table, so that the block
is known to act. The child is a fresh process because this one already
holds numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import nets
from quorumlens import check_slice_addition, save_network
from quorumlens.cli import run

TESTS = Path(__file__).resolve().parent

# Runs each command line of argv[1] through cli.run with numpy blocked and
# prints one JSON list: [exit code, stdout] per command, or "ImportError"
# where it raised one; then one slice addition's report, witness sides sorted.
CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from quorumlens import check_slice_addition, cli
import nets

out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
    except ImportError:
        out.append("ImportError")
    else:
        out.append([code, buf.getvalue()])
report = check_slice_addition(nets.two_triangles_bridged(), "3", frozenset("123"))
out.append([report.holds, [sorted(side) for side in report.witness], report.quora_examined])
print(json.dumps(out))
"""


def masked(text):
    doc = json.loads(text)
    doc["timing_ms"] = None
    return doc


def test_commands_without_tables_never_load_numpy(tmp_path, capsys):
    quota = tmp_path / "quota.json"
    slices = tmp_path / "slices.json"
    vetoed = tmp_path / "vetoed.json"
    save_network(nets.shared_five(byz="5"), quota)
    save_network(nets.two_triangles(), slices)
    save_network(nets.two_triangles_vetoed(), vetoed)
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 3\n1 2 0\n1 -2 0\n-1 2 3 0\n")
    generated = [tmp_path / "random.json", tmp_path / "sat.json", tmp_path / "addition.json"]
    numpy_free = [
        ["check", str(quota)],
        ["fork", str(quota)],
        ["safety", str(quota)],
        ["gen", "random", "--nodes", "8", "--trust", "6", "--quota", "3/4", "--byz", "1",
         "-o", str(generated[0])],
        ["gen", "sat", "--dimacs", str(cnf), "-o", str(generated[1])],
        ["gen", "sat", "--dimacs", str(cnf), "--slice-addition", "-o", str(generated[2])],
        ["check", str(slices)],
        ["qi", str(slices)],
        ["qi", str(slices), "--honest"],
        ["qi", str(generated[1]), "--max-nodes", "40"],
        ["qi", str(generated[2]), "--max-nodes", "40", "--honest"],
        ["fork", str(slices)],
        ["fork", str(vetoed), "--strong"],
    ]
    numpy_free = [argv + ["--json"] for argv in numpy_free]
    tables = [["qi", str(quota), "--json"], ["influence", str(quota), "--json"]]

    want = []
    for argv in numpy_free:
        code = run(argv)
        want.append((code, masked(capsys.readouterr().out)))
    files = [path.read_bytes() for path in generated]
    for argv in tables:
        assert run(argv) in (0, 1)  # a table is built when numpy is there
    capsys.readouterr()

    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(numpy_free + tables)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    got, table_errors, addition = out[: len(numpy_free)], out[len(numpy_free) : -1], out[-1]
    assert [(code, masked(text)) for code, text in got] == want
    assert [path.read_bytes() for path in generated] == files
    assert table_errors == ["ImportError", "ImportError"]
    report = check_slice_addition(nets.two_triangles_bridged(), "3", frozenset("123"))
    assert addition == [report.holds, [sorted(side) for side in report.witness], report.quora_examined]
