"""The names and fields the perfbench tracer reads must exist in quorumlens.

``perfbench/tracing.py`` replaces module attributes by name with timing
wrappers, and its counters read fields of a call's arguments or result; a
renamed or removed attribute or field would otherwise fail only in a
traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

import nets
from quorumlens import influence_matrix

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
