"""The names and fields the perfbench tracer reads must exist in quorumlens.

``perfbench/tracing.py`` replaces module attributes by name with timing
wrappers, and its counters read fields of a call's arguments or result; a
renamed or removed attribute or field would otherwise fail only in a
traced benchmark run. One traced ``qi`` command must record one span for
its check and one for its minimal-quora display, and count the quora its
report says were examined.
"""

import importlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nets
from quorumlens import GenParams, cli, influence_matrix, random_quota_network, save_network

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# A real call for each span name that carries a counter: (args, kwargs).
SAMPLE_CALLS = {
    "influence.matrix": ((nets.shared_five(),), {}),
    "influence.limit": ((influence_matrix(nets.shared_five(byz="5")),), {}),
    "quorum.qi": ((nets.two_triangles(),), {}),
    "quorum.slice_add": ((nets.two_triangles_bridged(), "3", frozenset("123")), {}),
}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    module = importlib.import_module("tracing")
    monkeypatch.delitem(sys.modules, "tracing")
    return module


def test_every_wrapped_attribute_is_callable(tracing):
    assert tracing.WRAPPED
    for module_name, attr, _ in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_every_counter_reads_a_real_call(tracing):
    counted = set(tracing.COUNT_BEFORE) | set(tracing.COUNT_AFTER)
    assert counted and counted <= set(SAMPLE_CALLS)
    seen = set()
    for module_name, attr, name in tracing.WRAPPED:
        if name not in counted:
            continue
        args, kwargs = SAMPLE_CALLS[name]
        values = []
        if name in tracing.COUNT_BEFORE:
            values.append(tracing.COUNT_BEFORE[name][1](args, kwargs))
        result = getattr(importlib.import_module(module_name), attr)(*args, **kwargs)
        if name in tracing.COUNT_AFTER:
            values.append(tracing.COUNT_AFTER[name][1](result))
        assert all(isinstance(v, int) and v >= 0 for v in values), f"{module_name}.{attr}"
        seen.add(name)
    assert seen == counted


@pytest.mark.parametrize("honest", [False, True])
@pytest.mark.parametrize("byz", [0, 1])
def test_one_qi_command_records_one_check_and_one_display(tracing, tmp_path, capsys, honest, byz):
    # The display and the check read one table off the command's view,
    # except under --honest with a Byzantine node, where the check builds
    # its own. Either way each is one call from the CLI.
    net = random_quota_network(GenParams(12, 10, Fraction(3, 4), byz, 7, "clique"))
    path = tmp_path / "net.json"
    save_network(net, path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        since = tracer.mark()
        code = cli.run(["qi", str(path), "--json"] + (["--honest"] if honest else []))
        summary = tracer.summary(since)
    finally:
        tracer.remove()
    report = json.loads(capsys.readouterr().out)
    assert code in (0, 1) and report["tables"]["minimal_quora"]
    assert summary["spans"]["quorum.qi"]["calls"] == 1
    assert summary["spans"]["quorum.minimal"]["calls"] == 1
    assert summary["counters"]["quorum.examined"] == report["tables"]["quora_examined"]
