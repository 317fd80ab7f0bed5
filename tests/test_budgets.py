"""Inventory of every search budget and the options that reach one.

Each budget is a constant checked in the one function whose work it
bounds. These tests pin the exact parameters of every public function
that takes a budget or a quorum view, and the option strings of every
subcommand, so a parameter or flag that only forwards a budget cannot be
added without editing this file. The search-state budget is no
parameter at all: one patch of the constant moves every search's meter.
"""

from __future__ import annotations

import argparse
import ast
import inspect
from fractions import Fraction

import pytest

import nets
import quorumlens
from quorumlens import (
    BudgetExceededError,
    Cnf,
    QuotaNetwork,
    banzhaf_raw_row,
    banzhaf_row,
    brute_sat,
    centralization_limit_report,
    check_qi_honest,
    check_quorum_intersection,
    check_slice_addition,
    expand_quota_network,
    find_fork,
    find_strong_fork,
    influence_matrix,
    minimal_quora,
    slice_addition_instance,
)
from quorumlens import bounds, influence, instances, network, quorum
from quorumlens.cli import build_parser

POS = inspect.Parameter.POSITIONAL_OR_KEYWORD
KW = inspect.Parameter.KEYWORD_ONLY
REQUIRED = inspect.Parameter.empty

QI = [("max_nodes", KW, 20)]

SIGNATURES = {
    check_quorum_intersection: [("net", POS, REQUIRED), *QI, ("view", KW, None)],
    check_qi_honest: [("net", POS, REQUIRED), *QI, ("view", KW, None)],
    find_strong_fork: [("net", POS, REQUIRED)],
    check_slice_addition: [
        ("base", POS, REQUIRED),
        ("node", POS, REQUIRED),
        ("new_slice", POS, REQUIRED),
        *QI,
    ],
    minimal_quora: [("net", POS, REQUIRED), ("view", KW, None)],
    find_fork: [("net", POS, REQUIRED)],
    banzhaf_raw_row: [("net", POS, REQUIRED), ("i", POS, REQUIRED)],
    banzhaf_row: [("net", POS, REQUIRED), ("i", POS, REQUIRED)],
    influence_matrix: [("net", POS, REQUIRED)],
    centralization_limit_report: [("net", POS, REQUIRED)],
    expand_quota_network: [("net", POS, REQUIRED)],
    brute_sat: [("cnf", POS, REQUIRED), ("fixed", KW, None)],
    slice_addition_instance: [("cnf", POS, REQUIRED), ("verify", KW, True)],
}


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda fn: fn.__name__)
def test_signature(fn):
    got = [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]
    assert got == SIGNATURES[fn]


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_quorum_intersection(nets.two_triangles(), max_states=10),
        lambda: check_qi_honest(nets.two_triangles(), max_states=10),
        lambda: check_slice_addition(nets.two_triangles_bridged(), "4", "45", max_states=10),
        lambda: minimal_quora(nets.two_triangles(), max_states=10),
        lambda: find_strong_fork(nets.two_triangles(), max_nodes=10),
    ],
    ids=["qi", "qi-honest", "slice-addition", "minimal-quora", "strong-fork"],
)
def test_removed_keywords_raise_type_error(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


def test_no_public_callable_takes_a_state_budget():
    found = []
    for name in quorumlens.__all__:
        obj = getattr(quorumlens, name)
        if callable(obj):
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue  # no signature to read
            found += [name for p in params if p == "max_states"]
    assert found == []


def test_constants():
    assert quorum.DEFAULT_QI_MAX_NODES == 20
    assert network.DEFAULT_MAX_SEARCH_STATES == 2_000_000
    # One state budget, defined in network and read there by every search;
    # quorum neither binds nor imports the name. The minimal-quora node
    # budget and the fork slice budget are gone.
    modules = (bounds, influence, instances, network, quorum)
    assert [m for m in modules if "DEFAULT_MAX_SEARCH_STATES = " in inspect.getsource(m)] == [network]
    assert not hasattr(quorum, "DEFAULT_MAX_SEARCH_STATES")
    imported = [
        alias.name
        for node in ast.walk(ast.parse(inspect.getsource(quorum)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert "DEFAULT_MAX_SEARCH_STATES" not in imported and "*" not in imported
    assert not hasattr(quorum, "DEFAULT_MINIMAL_MAX_NODES")
    assert not hasattr(network, "DEFAULT_FORK_MAX_SLICES")
    assert influence.DEFAULT_BANZHAF_MAX_TRUST == 24
    assert bounds.DEFAULT_EXPANSION_MAX_SLICES == 100_000
    assert instances.DEFAULT_SAT_MAX_VARS == 24


def _clique(n: int) -> QuotaNetwork:
    nodes = tuple(f"x{k}" for k in range(n))
    everyone = frozenset(nodes)
    return QuotaNetwork(
        nodes, frozenset(), {i: everyone for i in nodes}, {i: Fraction(3, 4) for i in nodes}
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: banzhaf_raw_row(_clique(25), "x0"),
            "node x0: trust set of 25 exceeds the enumeration budget of 24",
        ),
        (
            lambda: expand_quota_network(_clique(25)),
            "node x0: 177100 minimal coalitions exceeds the budget of 100000",
        ),
        (
            lambda: brute_sat(Cnf(25, ((1, 2, 3),))),
            "25 variables exceeds the truth-table budget of 24",
        ),
    ],
    ids=["banzhaf-trust", "expansion-coalitions", "truth-table-variables"],
)
def test_fixed_budget_messages(call, message):
    # The smallest instance over each fixed budget, refused before any work.
    with pytest.raises(BudgetExceededError) as exc:
        call()
    assert str(exc.value) == message


def _slice_addition():
    # Node 3 of the bridged triangles gains its own triangle back: the
    # extended network splits (2 states to the witness), so the sound base
    # is checked too (8 states, all of its search).
    return check_slice_addition(nets.two_triangles_bridged(), "3", "123")


# (call, the exact state count it needs, what it answers at that count):
# for each, the largest charge that one search makes to the state budget.
METERS = {
    # 12 * 12 rule-pair tests, fork-free.
    "find_fork": (lambda: find_fork(_clique(12)), 144, None),
    # One twin class of 12: a split table of 13 count vectors.
    "qi-quota": (lambda: check_quorum_intersection(_clique(12)).holds, 13, True),
    # The bridged triangles hold; the search visits 8 states.
    "qi-slices": (lambda: check_qi_honest(nets.two_triangles_bridged()).holds, 8, True),
    "slice-addition": (lambda: _slice_addition().holds, 8, False),
    # A table of 13 vectors, then C(12, 9) = 220 quora listed.
    "minimal-quota": (lambda: len(minimal_quora(_clique(12))), 220, 220),
    # 36 candidates, each filtered over the 8 nodes: 288 units.
    "minimal-slices": (
        lambda: len(minimal_quora(expand_quota_network(_clique(8)))),
        288,
        28,
    ),
}


@pytest.mark.parametrize("name", list(METERS))
def test_one_patch_moves_every_meter(name):
    # Every search reads network.DEFAULT_MAX_SEARCH_STATES where it
    # charges it, so patching that one constant moves each meter.
    call, count, answer = METERS[name]
    with nets.state_budget(count - 1), pytest.raises(BudgetExceededError) as exc:
        call()
    assert f"{count - 1} " in str(exc.value)
    with nets.state_budget(count):
        assert call() == answer


COMMON = ["-h", "--help", "--json", "--quiet"]

OPTIONS = {
    ("check",): [*COMMON, "file"],
    ("qi",): [*COMMON, "file", "--honest", "--max-nodes"],
    ("fork",): [*COMMON, "file", "--strong"],
    ("safety",): [*COMMON, "file"],
    ("influence",): [*COMMON, "file", "--limit", "--exact"],
    ("gen",): ["-h", "--help", "generator"],
    ("gen", "sat"): [*COMMON, "--dimacs", "--slice-addition", "-o", "--output"],
    ("gen", "random"): [
        *COMMON,
        "--nodes",
        "--trust",
        "--quota",
        "--byz",
        "--seed",
        "--topology",
        "-o",
        "--output",
    ],
}


def _subcommands(parser: argparse.ArgumentParser, path: tuple = ()) -> dict:
    """Option strings (a positional by its name) of every subcommand, by path."""
    found = {}
    names = []
    for action in parser._actions:
        names.extend(action.option_strings or [action.dest])
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(_subcommands(sub, (*path, name)))
    if path:
        found[path] = names
    return found


def test_subcommand_options():
    assert _subcommands(build_parser()) == OPTIONS
