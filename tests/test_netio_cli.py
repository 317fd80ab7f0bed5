"""Network file format and the command-line contract."""

import copy
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import nets
import oracles
import quorumlens.cli as cli_mod
import quorumlens.influence as influence_mod
import quorumlens.network as network_mod
from quorumlens import (
    GenParams,
    NetworkFormatError,
    NetworkValidationError,
    OpinionProfile,
    QuorumReport,
    QuotaNetwork,
    QuotaRangeWarning,
    TrustNetwork,
    check_slice_addition,
    expand_quota_network,
    find_fork,
    find_strong_fork,
    load_network,
    load_network_file,
    network_document,
    network_violations,
    parse_dimacs,
    parse_network_document,
    random_quota_network,
    save_network,
    slice_addition_instance,
    threshold,
)
from quorumlens.cli import run

REPO = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((REPO / "src" / "quorumlens" / "report_schema.json").read_text())


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def triangles_doc():
    return {
        "nodes": ["1", "2", "3", "4", "5", "6"],
        "kind": "slices",
        "slices": {
            n: [["1", "2", "3"]] if n in "123" else [["4", "5", "6"]] for n in "123456"
        },
    }


def shared_five_doc():
    return {
        "nodes": ["1", "2", "3", "4", "5", "6"],
        "kind": "quota",
        "trust": {n: ["1", "2", "3", "4", "5"] for n in "123456"},
        "quota_uniform": 0.8,
    }


# JSON number texts that Python's json module reads as non-finite floats.
NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e400")
NUMBER_KEYS = ("quota_uniform", "quota", "byz_fraction_uniform", "byz_fraction")


def with_number_text(key, text):
    """JSON text of ``shared_five_doc`` carrying the number ``text`` under ``key``."""
    doc = shared_five_doc()
    if key == "quota":
        del doc["quota_uniform"]
        doc["quota"] = {n: "4/5" for n in "123456"}
        doc["quota"]["1"] = "@"
    elif key == "byz_fraction":
        doc[key] = {"1": "@"}
    else:
        doc[key] = "@"
    return json.dumps(doc).replace('"@"', text)


# The honest nodes 1 to 5 of shared_five_doc once node 6 is Byzantine.
HONEST_FIVE = {"byzantine": ["6"], "trust": {n: ["1", "2", "3", "4", "5"] for n in "12345"}}
QUOTA_KEYS = ("trust", "quota", "quota_uniform", "byz_fraction", "byz_fraction_uniform")

# Each per-node-block and kind-key error: a base document, the keys to set
# (None removes one), and the exact message.
BLOCK_ERRORS = {
    "quota-not-object": (
        shared_five_doc, {"quota_uniform": None, "quota": "4/5"}, 'key "quota": expected an object'
    ),
    "byz-fraction-not-object": (
        shared_five_doc, {"byz_fraction": ["1/5"]}, 'key "byz_fraction": expected an object'
    ),
    "quota-missing-node": (
        shared_five_doc,
        {"quota_uniform": None, "quota": {n: "4/5" for n in "12345"}},
        'key "quota": domain must be exactly the honest nodes',
    ),
    "quota-byzantine-node": (
        shared_five_doc,
        {**HONEST_FIVE, "quota_uniform": None, "quota": {n: "4/5" for n in "123456"}},
        'key "quota": domain must be exactly the honest nodes',
    ),
    "byz-fraction-byzantine-node": (
        shared_five_doc,
        {**HONEST_FIVE, "byz_fraction": {"6": "1/5"}},
        'key "byz_fraction": domain must be honest nodes',
    ),
    "quota-both-forms": (
        shared_five_doc,
        {"quota": {n: "4/5" for n in "123456"}},
        'exactly one of "quota_uniform" or "quota" is required',
    ),
    "quota-neither-form": (
        shared_five_doc,
        {"quota_uniform": None},
        'exactly one of "quota_uniform" or "quota" is required',
    ),
    "byz-fraction-both-forms": (
        shared_five_doc,
        {"byz_fraction_uniform": "1/5", "byz_fraction": {"1": "1/5"}},
        'at most one of "byz_fraction_uniform" or "byz_fraction" is allowed',
    ),
    "slices-not-object": (
        triangles_doc, {"slices": [["1", "2", "3"]]}, 'key "slices": expected an object'
    ),
    "slices-byzantine-node": (
        triangles_doc, {"byzantine": ["6"]}, 'key "slices": domain must be exactly the honest nodes'
    ),
    "trust-not-object": (shared_five_doc, {"trust": ["1"]}, 'key "trust": expected an object'),
    "trust-missing-node": (
        shared_five_doc,
        {"trust": HONEST_FIVE["trust"]},
        'key "trust": domain must be exactly the honest nodes',
    ),
    **{
        f"{key}-in-slices-file": (
            triangles_doc, {key: "4/5"}, f"key {key!r} does not belong to a slices network"
        )
        for key in QUOTA_KEYS
    },
    "slices-in-quota-file": (
        shared_five_doc, {"slices": {}}, 'key "slices" does not belong to a quota network'
    ),
    "slices-missing": (triangles_doc, {"slices": None}, 'missing required key "slices"'),
    "trust-missing": (shared_five_doc, {"trust": None}, 'missing required key "trust"'),
}

# Two slices for node "a" under one key: json.loads would keep the second,
# and a network with a violated quorum intersection would load as one that
# holds.
REPEATED_SLICES = (
    '{"nodes": ["a", "b"], "kind": "slices", '
    '"slices": {"a": [["a"]], "b": [["b"]], "a": [["a", "b"]]}}'
)

# A quota file that claims veto slices, with node a's trust set empty.
VETOED_EMPTY_TRUST = {
    "nodes": ["a", "b"],
    "kind": "quota",
    "trust": {"a": [], "b": ["a", "b"]},
    "quota_uniform": "3/4",
    "vetoed": True,
}


class TestNetworkFiles:
    def test_load_slices_network(self, tmp_path):
        net = load_network(write(tmp_path, "fig.json", triangles_doc()))
        assert isinstance(net, TrustNetwork)
        assert net.nodes == tuple("123456")
        assert net.trust["1"] == frozenset("123")

    def test_load_quota_network_keeps_quota_form(self, tmp_path):
        net = load_network(write(tmp_path, "q.json", shared_five_doc()))
        assert isinstance(net, QuotaNetwork)
        assert net.quota["1"] == Fraction(4, 5)
        assert net.byz_fraction["1"] == Fraction(1, 5)

    def test_equal_coalitions_load_as_one_object(self, tmp_path):
        expanded = expand_quota_network(nets.quota_clique(16, Fraction(3, 4)))
        path = tmp_path / "expanded.json"
        save_network(expanded, path)
        loaded = load_network(path)
        assert loaded.slices == expanded.slices
        first = loaded.slices["x0"]
        assert all(a is b for i in loaded.nodes for a, b in zip(loaded.slices[i], first))

    def test_label_not_declared(self, tmp_path):
        doc = triangles_doc()
        doc["slices"]["1"] = [["1", "2", "7"]]
        with pytest.raises(NetworkFormatError, match="does not appear"):
            load_network(write(tmp_path, "bad.json", doc))

    def test_unknown_key_rejected(self, tmp_path):
        doc = triangles_doc()
        doc["colour"] = "blue"
        with pytest.raises(NetworkFormatError, match="unknown keys"):
            load_network(write(tmp_path, "bad.json", doc))

    def test_quota_and_uniform_exclusive(self, tmp_path):
        doc = shared_five_doc()
        doc["quota"] = {n: 0.8 for n in "123456"}
        with pytest.raises(NetworkFormatError, match="exactly one"):
            load_network(write(tmp_path, "bad.json", doc))

    @pytest.mark.parametrize("name", BLOCK_ERRORS)
    def test_per_node_block_messages(self, name):
        base, changes, message = BLOCK_ERRORS[name]
        doc = base()
        for key, value in changes.items():
            if value is None:
                del doc[key]
            else:
                doc[key] = value
        for parse in (parse_network_document, oracles.walk_network_document):
            with pytest.raises(NetworkFormatError) as caught:
                parse(copy.deepcopy(doc))
            assert type(caught.value) is NetworkFormatError
            assert str(caught.value) == message

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"nodes": ["a"], "kind": "slices", "nodes": ["b"], "slices": {}}', "nodes"),
            (REPEATED_SLICES, "a"),
            ('{"nodes": ["a"], "kind": "slices", "slices": {"a": [["a"]]}, '
             '"slice_addition": {"node": "a", "slice": ["a"], "node": "a"}}', "node"),
        ],
        ids=["top-level", "slices", "slice-addition"],
    )
    def test_repeated_key_rejected(self, tmp_path, text, key):
        path = tmp_path / "repeated.json"
        path.write_text(text)
        with pytest.raises(NetworkFormatError) as caught:
            load_network_file(path)
        assert str(caught.value) == f"{path}: repeated key {key!r}"

    def test_vetoed_claim_judged_after_validation(self, tmp_path):
        with pytest.raises(NetworkValidationError) as caught:
            load_network(write(tmp_path, "vetoed.json", VETOED_EMPTY_TRUST))
        assert caught.value.violations == ["node a: empty trust set"]
        for parse in (parse_network_document, oracles.walk_network_document):
            with pytest.raises(NetworkValidationError):
                parse(copy.deepcopy(VETOED_EMPTY_TRUST))

    def test_vetoed_claim_follows_the_range_warnings(self):
        # A valid 2/3 clique is not vetoed: its nodes are warned about their
        # quotas and Byzantine fractions before the claim is refused.
        doc = {"nodes": ["a", "b", "c"], "kind": "quota", "quota_uniform": "2/3", "vetoed": True,
               "trust": {n: ["a", "b", "c"] for n in "abc"}}
        for parse in (parse_network_document, oracles.walk_network_document):
            with pytest.warns(QuotaRangeWarning) as caught:
                with pytest.raises(NetworkFormatError, match='key "vetoed"'):
                    parse(copy.deepcopy(doc))
            assert len(caught) == 6  # a quota and a Byzantine fraction per node

    def test_validation_failure_surfaces(self, tmp_path):
        doc = triangles_doc()
        doc["byzantine"] = ["1", "2", "3", "4", "5", "6"]
        with pytest.raises((NetworkFormatError, NetworkValidationError)):
            load_network(write(tmp_path, "bad.json", doc))

    def test_roundtrip_slices(self, tmp_path):
        net = nets.two_triangles_vetoed()
        path = tmp_path / "veto.json"
        save_network(net, path)
        assert load_network(path) == net

    def test_roundtrip_quota(self, tmp_path):
        net = nets.shared_five(byz="5")
        path = tmp_path / "q.json"
        save_network(net, path)
        assert load_network(path) == net

    def test_slice_addition_metadata(self, tmp_path):
        doc = triangles_doc()
        doc["slice_addition"] = {"node": "3", "slice": ["1", "2", "3"]}
        loaded = load_network_file(write(tmp_path, "meta.json", doc))
        assert loaded.slice_addition == ("3", frozenset("123"))

    def test_document_shape(self):
        doc = network_document(nets.shared_five())
        assert doc["kind"] == "quota"
        assert doc["quota_uniform"] == "4/5"
        assert "byz_fraction" not in doc and "byz_fraction_uniform" not in doc

    def test_roundtrip_keeps_exact_thresholds(self, tmp_path):
        # 5/6 of six trustees needs 5; as a float, 5/6 came back above 5/6
        # and needed 6.
        trust = {n: frozenset("123456") for n in "123456"}
        net = QuotaNetwork(
            tuple("123456"),
            frozenset(),
            trust,
            {n: Fraction(5, 6) for n in "123456"},
            {n: Fraction(1, 7) for n in "123456"},
        )
        path = tmp_path / "q.json"
        save_network(net, path)
        doc = json.loads(path.read_text())
        assert doc["quota_uniform"] == "5/6" and doc["byz_fraction_uniform"] == "1/7"
        back = load_network(path)
        assert back == net
        assert all(threshold(back, i) == threshold(net, i) == 5 for i in net.honest)

    def test_roundtrip_keeps_per_node_byzantine_fractions(self, tmp_path):
        # Two different fractions cannot share one uniform value, so each
        # node's is written out; nodes left at 1 - quota are written too.
        trust = {n: frozenset("1234") for n in "1234"}
        fractions = {"1": Fraction(1, 5), "2": Fraction(1, 10)}
        net = QuotaNetwork(tuple("1234"), frozenset(), trust, {n: Fraction(3, 4) for n in "1234"}, fractions)
        path = tmp_path / "q.json"
        save_network(net, path)
        doc = json.loads(path.read_text())
        assert "byz_fraction_uniform" not in doc
        assert doc["byz_fraction"] == {"1": "1/5", "2": "1/10", "3": "1/4", "4": "1/4"}
        back = load_network(path)
        assert back == net and back.byz_fraction == net.byz_fraction

    def test_rationals_as_strings_or_numbers(self, tmp_path):
        doc = shared_five_doc()
        doc["quota_uniform"] = "4/5"
        assert load_network(write(tmp_path, "s.json", doc)) == load_network(
            write(tmp_path, "n.json", shared_five_doc())
        )
        for bad in ("four fifths", "1/0", True):
            doc["quota_uniform"] = bad
            with pytest.raises(NetworkFormatError, match="quota_uniform"):
                load_network(write(tmp_path, "bad.json", doc))

    @pytest.mark.parametrize("key", NUMBER_KEYS)
    @pytest.mark.parametrize("text", NON_FINITE)
    def test_non_finite_numbers_rejected(self, key, text):
        with pytest.raises(NetworkFormatError, match=f"key .{key}.*not a finite number"):
            parse_network_document(json.loads(with_number_text(key, text)))

    def test_slice_addition_joins_the_trust_set(self, tmp_path):
        doc = triangles_doc()
        doc["slice_addition"] = {"node": "3", "slice": ["3", "4"]}
        loaded = load_network_file(write(tmp_path, "meta.json", doc))
        assert loaded.network.trust["3"] == frozenset("1234")
        assert loaded.network.slices["3"] == (frozenset("123"),)
        doc["slice_addition"] = {"node": "9", "slice": ["3"]}
        with pytest.raises(NetworkFormatError, match="honest node"):
            load_network_file(write(tmp_path, "bad.json", doc))


class TestCliContract:
    def test_qi_violated_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, "fig.json", triangles_doc())
        assert run(["qi", path]) == 1
        out = capsys.readouterr().out
        assert "violated" in out and "{1, 2, 3}" in out and "{4, 5, 6}" in out

    def test_qi_holds_exit_zero(self, tmp_path, capsys):
        doc = triangles_doc()
        doc["slices"]["3"] = [["1", "2", "3", "5"]]
        path = write(tmp_path, "ex2.json", doc)
        assert run(["qi", path]) == 0
        assert "minimal quora: {4, 5, 6}" in capsys.readouterr().out

    def test_check_valid_and_invalid(self, tmp_path, capsys):
        good = write(tmp_path, "good.json", triangles_doc())
        assert run(["check", good]) == 0
        doc = triangles_doc()
        doc["slices"]["1"] = [["4"]]  # slice outside the derived trust set is fine;
        doc["slices"]["2"] = []  # an empty family is not
        bad = write(tmp_path, "bad.json", doc)
        assert run(["check", bad]) == 2

    def test_check_reports_a_parsed_network_that_fails_validation(self, tmp_path, capsys):
        # The file parses, but a quota of 1/2 is out of range: the verdict is
        # invalid, with one violation per node, not an input error.
        doc = {"nodes": ["a", "b", "c"], "kind": "quota", "quota_uniform": "1/2",
               "trust": {n: ["a", "b", "c"] for n in "abc"}}
        path = write(tmp_path, "half.json", doc)
        violations = [f"node {n}: quota 1/2 out of range (0.5, 1]" for n in "abc"]
        with pytest.warns(QuotaRangeWarning, match="byzantine fraction 1/2"):
            assert run(["check", path, "--json"]) == cli_mod.EXIT_INPUT == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "invalid" and report["witness"] is None
        assert report["tables"] == {"violations": violations}
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(report, SCHEMA)
        with pytest.warns(QuotaRangeWarning):
            assert run(["check", path]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[lines.index("verdict: invalid") + 1:] == [
            "violations:", *(f"  - {v}" for v in violations)
        ]

    def test_check_warns_once_per_quota_out_of_range(self, tmp_path, capsys):
        path = str(tmp_path / "split.json")
        save_network(nets.split_quota(), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["check", path]) == 0
        quota = [str(w.message) for w in caught if issubclass(w.category, QuotaRangeWarning)]
        assert len(quota) == len(set(quota)) == 8

    def test_check_validates_a_loaded_network_once(self, tmp_path, capsys, monkeypatch):
        # load_network has validated the file, so check reports its empty
        # violation list without validating again. The validation runs
        # through either name: validate_network calls the network module's.
        calls = []

        def counting(original):
            def wrapper(net):
                calls.append(net)
                return original(net)

            return wrapper

        for module in (network_mod, cli_mod):
            monkeypatch.setattr(module, "network_violations", counting(network_violations))
        doc = {"nodes": ["a", "b", "c"], "kind": "quota", "quota_uniform": "2/3",
               "trust": {n: ["a", "b", "c"] for n in "abc"}}
        path = write(tmp_path, "two-thirds.json", doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["check", path, "--json"]) == 0
        assert len(calls) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "valid" and report["tables"]["violations"] == []
        quota = [str(w.message) for w in caught if issubclass(w.category, QuotaRangeWarning)]
        assert len(quota) == len(set(quota)) == 6

    def test_fork_exit_codes(self, tmp_path, capsys):
        split = {
            "nodes": ["1", "2", "3", "4", "5"],
            "byzantine": ["3"],
            "kind": "quota",
            "trust": {
                "1": ["1", "2", "3"],
                "2": ["1", "2", "3"],
                "4": ["3", "4", "5"],
                "5": ["3", "4", "5"],
            },
            "quota_uniform": 1.0,
        }
        path = write(tmp_path, "split.json", split)
        assert run(["fork", path]) == 1
        assert "forked" in capsys.readouterr().out
        safe = write(tmp_path, "safe.json", shared_five_doc())
        assert run(["fork", safe]) == 0

    def test_strong_fork_exit_codes(self, tmp_path):
        path = write(tmp_path, "fig.json", triangles_doc())
        assert run(["fork", path, "--strong"]) == 1
        unanimity = {
            "nodes": ["a", "b", "c"],
            "kind": "slices",
            "slices": {n: [["a", "b", "c"]] for n in "abc"},
        }
        upath = write(tmp_path, "u.json", unanimity)
        assert run(["fork", upath, "--strong"]) == 0

    def test_budget_exit_three(self, tmp_path, capsys):
        path = write(tmp_path, "fig.json", triangles_doc())
        assert run(["qi", path, "--max-nodes", "3", "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "budget-exceeded"

    def test_missing_file_exit_two(self, capsys):
        assert run(["qi", "/nonexistent/net.json"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, dimacs",
        [(b"\xff\xfe\x00garbage", False), (b"[" * 200_000, False), (b"\xff\xfe\x00garbage", True)],
        ids=["undecodable-network", "deeply-nested-network", "undecodable-dimacs"],
    )
    def test_unreadable_input_exit_two(self, tmp_path, capsys, content, dimacs):
        # Exit 1 would read as a violated verdict.
        path = tmp_path / "input"
        path.write_bytes(content)
        if dimacs:
            argv = ["gen", "sat", "--dimacs", str(path), "-o", str(tmp_path / "out.json")]
        else:
            argv = ["qi", str(path)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert not (tmp_path / "out.json").exists()

    def test_repeated_key_exits_two(self, tmp_path, capsys):
        path = tmp_path / "repeated.json"
        path.write_text(REPEATED_SLICES)
        assert run(["qi", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: repeated key 'a'\n"
        # Without the second "a", the file is violated by {a} and {b}.
        path.write_text(REPEATED_SLICES.replace(', "a": [["a", "b"]]', ""))
        assert run(["qi", str(path)]) == 1
        assert "{a}" in capsys.readouterr().out

    def test_vetoed_quota_file_with_an_empty_trust_set_is_invalid(self, tmp_path, capsys):
        path = write(tmp_path, "vetoed.json", VETOED_EMPTY_TRUST)
        assert run(["check", path]) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        violations = lines[lines.index("verdict: invalid") + 1:]
        assert violations == ["violations:", "  - node a: empty trust set"]
        assert "thresholds above 1" not in captured.err

    def test_unknown_subcommand_exit_two(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_safety_tables(self, tmp_path, capsys):
        path = write(tmp_path, "q.json", shared_five_doc())
        assert run(["safety", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "passes"
        assert report["tables"]["summary"]["common_trust_nonempty"] is True
        assert all(row["satisfies"] for row in report["tables"]["overlap_bounds"])

    def test_safety_violated_exit_one(self, tmp_path, capsys):
        doc = {
            "nodes": ["1", "2", "3", "4"],
            "kind": "quota",
            "trust": {"1": ["1", "2"], "2": ["1", "2"], "3": ["3", "4"], "4": ["3", "4"]},
            "quota_uniform": 0.75,
        }
        path = write(tmp_path, "split.json", doc)
        assert run(["safety", path]) == 1

    def test_influence_limit_values(self, tmp_path, capsys):
        path = write(tmp_path, "q.json", shared_five_doc())
        assert run(["influence", path, "--limit", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        limit = report["tables"]["limit"]
        assert limit["classification"] == "fully-regular"
        assert set(limit) == {"classification", "matrix"}
        for row in limit["matrix"]:
            assert row == [0.2] * 5 + [0.0]

    def test_influence_exact_limit(self, tmp_path, capsys):
        path = str(tmp_path / "q.json")
        save_network(nets.shared_five(byz="5"), path)
        assert run(["influence", path, "--limit", "--exact", "--json"]) == 0
        limit = json.loads(capsys.readouterr().out)["tables"]["limit"]
        assert limit["matrix"] == [["0", "0", "0", "0", "1", "0"]] * 6
        assert run(["influence", path, "--limit", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "limit: fully-regular\n" in out and "squarings" not in out
        assert "  0  0  0  0  1  0" in out

    def test_influence_exact_entries(self, tmp_path, capsys):
        path = write(tmp_path, "q.json", shared_five_doc())
        assert run(["influence", path, "--exact", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tables"]["matrix"][0][:5] == ["1/5"] * 5

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        path = write(tmp_path, "fig.json", triangles_doc())
        assert run(["qi", path, "--quiet"]) == 1
        assert capsys.readouterr().out == ""

    # The limit is solved exactly and takes no parameters: the former
    # squaring controls are unknown options, refused rather than ignored.
    @pytest.mark.parametrize(
        "bad",
        [
            ["--tol", "0"],
            ["--tol", "-0.5"],
            ["--tol", "inf"],
            ["--tol", "nan"],
            ["--max-iter", "0"],
            ["--max-iter", "-2"],
        ],
    )
    def test_bad_limit_parameters_exit_two(self, tmp_path, capsys, bad):
        path = write(tmp_path, "q.json", shared_five_doc())
        assert run(["influence", path, "--limit", "--json", *bad]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "command, value",
        [("qi", "0"), ("qi", "-3"), ("qi", "2.5"), ("fork", "0"), ("fork", "-3"), ("fork", "x")],
    )
    def test_bad_max_nodes_exit_two(self, tmp_path, capsys, command, value):
        path = write(tmp_path, "q.json", shared_five_doc())
        assert run([command, path, "--json", "--max-nodes", value]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["qi", "check"])
    @pytest.mark.parametrize("key", NUMBER_KEYS)
    @pytest.mark.parametrize("text", NON_FINITE)
    def test_non_finite_numbers_exit_two(self, tmp_path, capsys, command, key, text):
        path = tmp_path / "bad.json"
        path.write_text(with_number_text(key, text))
        assert run([command, str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a finite number" in captured.err

    # Each case names the re-check that must fire; explicit ids keep the
    # message out of the test names.
    @pytest.mark.parametrize(
        "honest, pair, message",
        [
            # both sides quora, but they intersect
            pytest.param(False, ("123", "123"), "the witness quora share a node", id="False-pair0"),
            # {1, 2} is not a quorum
            pytest.param(False, ("12", "456"), "a side of the witness is not a quorum", id="False-pair1"),
            # an honest node on both sides
            pytest.param(
                True, ("123", "1234"), "the witness quora do not split the honest nodes", id="True-pair2"
            ),
            # the Byzantine singleton holds no honest node
            pytest.param(
                True, ("4", "123"), "the witness quora do not split the honest nodes", id="True-pair3"
            ),
        ],
    )
    def test_qi_witness_failing_its_recheck_exits_two(
        self, tmp_path, capsys, monkeypatch, honest, pair, message
    ):
        doc = triangles_doc()
        doc["byzantine"] = ["4"]
        del doc["slices"]["4"]
        path = write(tmp_path, "fig.json", doc)
        name = "check_qi_honest" if honest else "check_quorum_intersection"
        bad = QuorumReport(False, tuple(frozenset(side) for side in pair), 1)
        monkeypatch.setattr(cli_mod, name, lambda net, **kwargs: bad)
        argv = ["qi", path, "--json"] + (["--honest"] if honest else [])
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"internal error: {message}\n"
        monkeypatch.undo()
        assert run(argv) == 1  # the real witness passes the re-check

    @pytest.mark.parametrize(
        "strong, change, message",
        [
            # both nodes validate 1
            pytest.param(
                False,
                {"node_b": "2", "value_b": 1},
                "the fork witness nodes settle on the same value",
                id="False-change0",
            ),
            # node 1 sees only 1s, so 0 does not validate
            pytest.param(
                False,
                {"value_a": 0, "value_b": 1},
                "a side of the fork witness does not validate its value",
                id="False-change1",
            ),
            # {1, 2} is not a quorum
            pytest.param(
                True,
                {"supporting_a": frozenset("12")},
                "a side of the witness is not a quorum",
                id="True-change2",
            ),
            # a quorum, but it holds 1, 2 and 3
            pytest.param(
                True,
                {"supporting_b": frozenset("123456")},
                "the witness quora do not split the honest nodes",
                id="True-change3",
            ),
            # no opinion for 2 to 6
            pytest.param(
                False,
                {"profile": OpinionProfile({"1": 1}, {})},
                "the fork witness profile does not fit the network",
                id="False-change4",
            ),
            # no such node, so not an honest one
            pytest.param(
                False, {"node_b": "9"}, "a fork witness node is not honest", id="False-change5"
            ),
            # honest, but outside the quorum {1, 2, 3}
            pytest.param(
                True,
                {"node_a": "4"},
                "a strong-fork witness node is outside its quorum",
                id="True-change6",
            ),
            # the empty set wins for no node
            pytest.param(
                False,
                {"supporting_a": frozenset()},
                "a fork witness coalition does not support its node",
                id="False-change7",
            ),
            # 4, 5 and 6 hold 0 and lie outside node 1's trust set
            pytest.param(
                False,
                {"supporting_a": frozenset("123456")},
                "a fork witness coalition does not support its node",
                id="False-change8",
            ),
            # every honest node holds 0, so side A's quorum does not hold 1
            pytest.param(
                True,
                {"profile": OpinionProfile({n: 0 for n in "123456"}, {})},
                "a strong-fork witness quorum does not hold its value",
                id="True-change9",
            ),
        ],
    )
    def test_fork_witness_failing_its_recheck_exits_two(
        self, tmp_path, capsys, monkeypatch, strong, change, message
    ):
        path = write(tmp_path, "fig.json", triangles_doc())
        finder = find_strong_fork if strong else find_fork
        bad = dataclasses.replace(finder(load_network(path)), **change)
        name = "find_strong_fork" if strong else "find_fork"
        monkeypatch.setattr(cli_mod, name, lambda net, **kwargs: bad)
        argv = ["fork", path, "--json"] + (["--strong"] if strong else [])
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"internal error: {message}\n"
        monkeypatch.undo()
        assert run(argv) == 1  # the real witness passes the re-check


def periodic_cycle() -> TrustNetwork:
    """Three nodes, each settled by the next: one closed component of period 3."""
    succ = {"a": "b", "b": "c", "c": "a"}
    return TrustNetwork(
        nodes=tuple(succ),
        byzantine=frozenset(),
        trust={a: frozenset(b) for a, b in succ.items()},
        slices={a: (frozenset(b),) for a, b in succ.items()},
    )


class TestInfluenceBuildsOnce:
    """One ``influence`` command builds each artefact exactly once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}
        for name in ("influence_matrix", "analyze_graph", "limit_matrix"):
            original = getattr(influence_mod, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(influence_mod, name, counted)
        return counts

    @pytest.mark.parametrize("limit", [[], ["--limit"]])
    @pytest.mark.parametrize("make", [nets.shared_five, nets.two_triangles])
    def test_each_artefact_once(self, tmp_path, capsys, calls, make, limit):
        path = tmp_path / "net.json"
        save_network(make(), path)
        assert run(["influence", str(path), "--json", *limit]) == 0
        report = json.loads(capsys.readouterr().out)
        assert ("centralization" in report["tables"]) == (make is nets.shared_five)
        assert calls == {"influence_matrix": 1, "analyze_graph": 1, "limit_matrix": 1}

    def test_components_of_a_not_regular_network(self, tmp_path, capsys):
        net = periodic_cycle()
        path = tmp_path / "cycle.json"
        save_network(net, path)
        assert run(["influence", str(path), "--limit", "--json"]) == 0
        tables = json.loads(capsys.readouterr().out)["tables"]
        assert tables["limit"]["classification"] == "not-regular"
        graph = influence_mod.analyze_graph(influence_mod.influence_matrix(net))
        assert tables["graph"] == {
            "edges": len(graph.edges),
            "components": [
                {"members": sorted(scc, key=net.nodes.index), "closed": closed, "period": period}
                for scc, closed, period in zip(graph.sccs, graph.closed, graph.periods)
            ],
        }
        assert tables["graph"]["components"] == [
            {"members": ["a", "b", "c"], "closed": True, "period": 3}
        ]


class TestInfluenceRendering:
    """Rows rendered once per row object print what rendering each entry gives."""

    @pytest.fixture
    def clique(self, tmp_path):
        net = random_quota_network(GenParams(12, 6, Fraction(3, 4), 2, 3, "clique"))
        path = tmp_path / "clique.json"
        save_network(net, path)
        m = influence_mod.influence_matrix(net)
        report = influence_mod.limit_matrix(m)
        assert report.classification == "regular"
        assert len({id(row) for row in report.limit}) < len(net.nodes) - 2
        return str(path), m, report

    @staticmethod
    def each_entry(rows, entry):
        return [[entry(x) for x in row] for row in rows]

    @pytest.mark.parametrize("exact", [True, False])
    def test_json(self, clique, capsys, exact):
        path, m, report = clique
        entry = str if exact else float
        assert run(["influence", path, "--limit", "--json", *(["--exact"] if exact else [])]) == 0
        out = capsys.readouterr().out
        printed = json.loads(out)
        tables = printed["tables"]
        assert tables["matrix"] == self.each_entry(m.entries, entry)
        assert tables["limit"]["matrix"] == self.each_entry(report.limit, entry)
        assert out == json.dumps(printed, indent=2, sort_keys=True) + "\n"

    def test_human(self, clique, capsys):
        path, m, report = clique
        assert run(["influence", path, "--limit", "--exact", "--json"]) == 0
        tables = json.loads(capsys.readouterr().out)["tables"]
        tables["matrix"] = self.each_entry(m.entries, str)
        tables["limit"]["matrix"] = self.each_entry(report.limit, str)
        assert run(["influence", path, "--limit", "--exact"]) == 0
        out = capsys.readouterr().out
        assert out == cli_mod.render_human({"verdict": "computed", "tables": tables}) + "\n"


class TestGenerators:
    def test_gen_sat_then_qi(self, tmp_path, capsys):
        unsat = tmp_path / "unsat.cnf"
        unsat.write_text("p cnf 1 2\n1 0\n-1 0\n")
        out = tmp_path / "net.json"
        assert run(["gen", "sat", "--dimacs", str(unsat), "-o", str(out)]) == 0
        capsys.readouterr()
        assert run(["qi", str(out), "--max-nodes", "32"]) == 0

        sat = tmp_path / "sat.cnf"
        sat.write_text("p cnf 1 1\n1 0\n")
        out2 = tmp_path / "net2.json"
        assert run(["gen", "sat", "--dimacs", str(sat), "-o", str(out2)]) == 0
        capsys.readouterr()
        assert run(["qi", str(out2), "--max-nodes", "32"]) == 1

    def test_gen_sat_slice_addition_metadata(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        out = tmp_path / "base.json"
        assert run(["gen", "sat", "--dimacs", str(cnf), "--slice-addition", "-o", str(out)]) == 0
        loaded = load_network_file(out)
        assert loaded.slice_addition == ("y1", frozenset({"y1", "n1"}))
        assert run(["qi", str(out), "--max-nodes", "32"]) == 0

    def test_gen_sat_slice_addition_round_trip(self, tmp_path, capsys):
        text = "p cnf 2 2\n1 2 0\n1 -2 0\n"
        cnf_path = tmp_path / "f.cnf"
        cnf_path.write_text(text)
        out = tmp_path / "base.json"
        assert run(["gen", "sat", "--dimacs", str(cnf_path), "--slice-addition", "-o", str(out)]) == 0
        base, node, members = slice_addition_instance(parse_dimacs(text))
        loaded = load_network_file(out)
        assert loaded.network == base
        assert loaded.slice_addition == (node, members)
        from_file = check_slice_addition(loaded.network, *loaded.slice_addition, max_nodes=32)
        in_memory = check_slice_addition(base, node, members, max_nodes=32)
        assert not in_memory.holds
        assert from_file == in_memory

    def test_gen_sat_bad_premise_exit_two(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n-1 0\n")
        out = tmp_path / "base.json"
        assert run(["gen", "sat", "--dimacs", str(cnf), "--slice-addition", "-o", str(out)]) == 2

    def test_gen_random_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["gen", "random", "--nodes", "8", "--trust", "5", "--quota", "0.8",
                "--byz", "1", "--seed", "7", "--topology", "centralised"]
        assert run(argv + ["-o", str(a)]) == 0
        assert run(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        net = load_network(a)
        assert isinstance(net, QuotaNetwork) and len(net.nodes) == 8

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--nodes", "0", "integer of 1 or more, got '0'"),
            ("--nodes", "-4", "integer of 1 or more, got '-4'"),
            ("--nodes", "x", "invalid _at_least_one value: 'x'"),
            ("--trust", "0", "integer of 1 or more, got '0'"),
            ("--trust", "2.5", "invalid _at_least_one value: '2.5'"),
            ("--byz", "-1", "integer of 0 or more, got '-1'"),
            ("--byz", "one", "invalid _non_negative value: 'one'"),
            ("--quota", "1/0", "a rational number such as 4/5 or 0.8, got '1/0'"),
            ("--quota", "x", "a rational number such as 4/5 or 0.8, got 'x'"),
            ("--quota", "nan", "a rational number such as 4/5 or 0.8, got 'nan'"),
        ],
    )
    def test_gen_random_bad_arguments_exit_two(self, tmp_path, capsys, option, value, message):
        argv = {"--nodes": "6", "--trust": "4", "--byz": "0", "--quota": "0.8"}
        argv[option] = value
        out = tmp_path / "x.json"
        flat = [x for pair in argv.items() for x in pair]
        assert run(["gen", "random", *flat, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert f"argument {option}: " in captured.err and message in captured.err

    def test_gen_random_infeasible_exit_two(self, tmp_path):
        assert run(["gen", "random", "--nodes", "4", "--trust", "9", "--quota", "0.8",
                    "-o", str(tmp_path / "x.json")]) == 2


class TestReportDiscipline:
    def test_json_reports_validate_against_schema(self, tmp_path, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        fig = write(tmp_path, "fig.json", triangles_doc())
        quota = write(tmp_path, "q.json", shared_five_doc())
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        out = tmp_path / "gen.json"
        commands = [
            ["check", fig],
            ["qi", fig],
            ["qi", quota, "--honest"],
            ["fork", quota],
            ["fork", fig, "--strong"],
            ["safety", quota],
            ["influence", quota, "--limit"],
            ["gen", "sat", "--dimacs", str(cnf), "-o", str(out)],
            ["gen", "random", "--nodes", "6", "--trust", "4", "--quota", "0.75",
             "--seed", "1", "-o", str(out)],
            ["qi", fig, "--max-nodes", "2"],
        ]
        for argv in commands:
            run(argv + ["--json"])
            report = json.loads(capsys.readouterr().out)
            jsonschema.validate(report, SCHEMA)
            assert report["command"] == argv + ["--json"]

    def test_byte_identical_reports_modulo_timing(self, tmp_path, capsys):
        path = write(tmp_path, "fig.json", triangles_doc())
        outputs = []
        for _ in range(2):
            run(["qi", path, "--json"])
            doc = json.loads(capsys.readouterr().out)
            doc["timing_ms"] = None
            outputs.append(json.dumps(doc, sort_keys=True))
        assert outputs[0] == outputs[1]

    def test_module_entry_point(self, tmp_path):
        path = write(tmp_path, "fig.json", triangles_doc())
        proc = subprocess.run(
            [sys.executable, "-m", "quorumlens", "qi", path],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 1
        assert "violated" in proc.stdout

    def test_console_prints_one_plain_line_per_warning(self, tmp_path):
        # Each node of a 4-node 2/3 clique has a quota below the recommended
        # range and a Byzantine fraction above the cap: eight findings, each
        # on one line, with no library path or source line.
        path = str(tmp_path / "clique.json")
        save_network(nets.quota_clique(4, Fraction(2, 3)), path)
        proc = subprocess.run(
            [sys.executable, "-m", "quorumlens", "qi", path],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            f"warning: node x{k}: {finding}"
            for k in range(4)
            for finding in (
                "quota 2/3 below the recommended [0.75, 1] range",
                "byzantine fraction 1/3 above the assumed 0.25 cap",
            )
        ]

    def test_closed_stdout_exits_141_without_a_traceback(self, tmp_path):
        # Exit 1 would read as a violated verdict; 141 is no verdict.
        path = write(tmp_path, "fig.json", triangles_doc())
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "quorumlens", "qi", path, "--json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                cwd=REPO,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == cli_mod.EXIT_BROKEN_PIPE == 141
        assert "Traceback" not in proc.stderr
