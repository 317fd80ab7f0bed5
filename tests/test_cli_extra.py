"""Additional command-line contract cases and determinism across processes."""

import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nets
import oracles
from oracles import closure_step, enumerate_selectors
from quorumlens import (
    QuotaNetwork,
    expand_quota_network,
    find_fork,
    find_strong_fork,
    profile_violations,
    save_network,
    validates,
)
from quorumlens.cli import render_human, run
from quorumlens.verify import verify_fork_witness

REPO = Path(__file__).resolve().parent.parent


def save(tmp_path, name, net, **kw):
    path = tmp_path / name
    save_network(net, path, **kw)
    return str(path)


def thirty_nodes(tmp_path) -> str:
    """A 30-node quota network, past the quorum-intersection budget of 20."""
    path = str(tmp_path / "n30.json")
    argv = ["gen", "random", "--nodes", "30", "--trust", "20", "--quota", "3/4"]
    assert run(argv + ["--byz", "2", "--topology", "centralised", "-o", path, "--quiet"]) == 0
    return path


class TestHonestVariantCli:
    def test_shared_byzantine_bridge(self, tmp_path, capsys):
        path = save(tmp_path, "bridge.json", nets.two_triangles_shared_byz())
        # The plain check passes: both sides share node 7.
        assert run(["qi", path]) == 0
        capsys.readouterr()
        # The honest variant exposes the Byzantine-only intersection.
        assert run(["qi", path, "--honest", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "violated"
        shared = set(doc["witness"]["quorum_a"]) & set(doc["witness"]["quorum_b"])
        assert shared <= {"7"}


class TestSafetyVariants:
    def test_non_uniform_quota_skips_overlap_table(self, tmp_path, capsys):
        doc = {
            "nodes": ["a", "b"],
            "kind": "quota",
            "trust": {"a": ["a", "b"], "b": ["a", "b"]},
            "quota": {"a": 0.75, "b": 0.8},
        }
        path = tmp_path / "nonuniform.json"
        path.write_text(json.dumps(doc))
        assert run(["safety", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tables"]["overlap_bounds"] is None
        assert report["tables"]["summary"]["quota_uniform"] is False
        assert report["tables"]["summary"]["overlap_all_pass"] is None

    def test_safety_rejects_slices_networks(self, tmp_path, capsys):
        path = save(tmp_path, "fig.json", nets.two_triangles())
        assert run(["safety", path]) == 2

    def test_human_rendering_of_tables(self, tmp_path, capsys):
        path = save(tmp_path, "q.json", nets.shared_five())
        assert run(["safety", path]) == 0
        out = capsys.readouterr().out
        assert "trust-overlap bounds" in out and "common trust" in out
        assert run(["influence", path, "--limit"]) == 0
        out = capsys.readouterr().out
        assert "influence matrix" in out and "fully-regular" in out


class TestStrongForkCli:
    def test_quota_networks_match_their_expansion(self):
        forked = 0
        for net in oracles.seeded_quota_networks(31, 300):
            expanded = expand_quota_network(net)
            witness = find_strong_fork(net)
            assert (witness is None) == (find_strong_fork(expanded) is None)
            if witness is not None:
                forked += 1
                verify_fork_witness(net, witness)
            for each in (net, expanded):
                if (weak := find_fork(each, max_total_slices=None)) is not None:
                    verify_fork_witness(each, weak)
        assert forked >= 30

    def test_quota_network_through_the_cli(self, tmp_path, capsys):
        path = save(tmp_path, "q.json", nets.shared_five())
        assert run(["fork", path, "--strong", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "weakly-safe"
        split = QuotaNetwork(
            nodes=tuple("abcd"),
            byzantine=frozenset(),
            trust={n: frozenset("ab" if n in "ab" else "cd") for n in "abcd"},
            quota={n: Fraction(1) for n in "abcd"},
        )
        path = save(tmp_path, "split.json", split)
        assert run(["fork", path, "--strong", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "strongly-forked"
        assert report["witness"]["supporting_a"] == ["a", "b"]

    def test_help_says_what_it_searches_for(self, capsys):
        # It runs on any network: "vetoed" is a property of a network, not
        # a kind of one.
        assert run(["fork", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--strong find two quora that share no honest node" in help_text


class TestRunKeepsNoState:
    @pytest.mark.parametrize(
        "refused",
        [["qi", "FILE", "--max-nodes", "0"], ["qi", "FILE", "--bogus"], ["qi"], ["frobnicate", "FILE"]],
        ids=["bad-value", "unknown-option", "missing-file", "unknown-command"],
    )
    def test_a_refused_command_leaves_nothing_for_the_next(self, tmp_path, capsys, refused):
        # The precondition for building the parser once per process.
        path = save(tmp_path, "q.json", nets.shared_five())

        def qi():
            code = run(["qi", path, "--json"])
            out = capsys.readouterr().out
            return code, re.sub(r'"timing_ms": [^,\n]+', '"timing_ms": 0', out)

        first = qi()
        assert run([path if arg == "FILE" else arg for arg in refused]) == 2
        assert capsys.readouterr().out == ""
        assert qi() == first


class TestStrongForkProfiles:
    def test_witness_profiles_settle_both_quora(self):
        # Each quorum's honest members validate its value under the
        # witness profile, which the quorum re-check alone does not test.
        rng = random.Random(43)
        networks = oracles.seeded_quota_networks(31, 300)
        for k in range(120):
            networks.append(
                oracles.random_explicit_net(
                    rng,
                    rng.randint(2, 7),
                    byz_count=rng.randint(0, 2),
                    vetoed=k % 2 == 0,
                    self_in_slices=k % 2 == 1,
                )
            )
        forked = 0
        for net in networks:
            witness = find_strong_fork(net)
            if witness is None:
                continue
            forked += 1
            assert profile_violations(net, witness.profile) == []
            for side, value in (
                (witness.supporting_a, witness.value_a),
                (witness.supporting_b, witness.value_b),
            ):
                for i in side - net.byzantine:
                    assert validates(net, witness.profile, i, value), (net, witness)
        assert forked >= 100


class TestForkBudgets:
    def test_weak_fork_has_no_node_budget(self, tmp_path, capsys):
        path = thirty_nodes(tmp_path)
        assert run(["fork", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "safe"
        assert report["tables"] == {"strong": False, "max_nodes": None}

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_max_nodes_bounds_only_the_strong_search(self, tmp_path, capsys, json_flag):
        # fork has no --max-nodes: the strong search runs under qi --honest's
        # default of 20 nodes, and qi --honest --max-nodes decides past it.
        path = save(tmp_path, "q.json", nets.shared_five())
        for strong, k in (([], "5"), (["--strong"], "4")):
            assert run(["fork", path, *strong, "--max-nodes", k, *json_flag]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --max-nodes" in captured.err
        clique = str(tmp_path / "clique21.json")
        argv = ["gen", "random", "--nodes", "21", "--trust", "21", "--quota", "3/4"]
        assert run(argv + ["--topology", "clique", "-o", clique, "--quiet"]) == 0
        assert run(["fork", clique, "--strong", "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "budget-exceeded"
        assert report["tables"]["reason"] == "21 nodes exceeds the quorum-intersection budget of 20"
        assert run(["qi", clique, "--honest", "--max-nodes", "21", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "holds"
        assert run(["fork", path, "--strong", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["tables"]["max_nodes"] == 20

    @pytest.mark.filterwarnings("ignore::quorumlens.QuotaRangeWarning")
    def test_strong_fork_and_honest_qi_agree_up_to_twenty_nodes(self, tmp_path, capsys):
        verdicts = {"strongly-forked": "violated", "weakly-safe": "holds"}
        seen = set()
        for k, net in enumerate(oracles.seeded_quota_networks(61, 24, 17, 20)):
            path = save(tmp_path, f"n{k}.json", net)
            fork_code = run(["fork", path, "--strong", "--json"])
            fork = json.loads(capsys.readouterr().out)
            qi_code = run(["qi", path, "--honest", "--json"])
            qi = json.loads(capsys.readouterr().out)
            assert fork_code == qi_code != 3
            assert verdicts[fork["verdict"]] == qi["verdict"]
            if qi["witness"] is not None:
                assert fork["witness"]["supporting_a"] == qi["witness"]["quorum_a"]
                assert fork["witness"]["supporting_b"] == qi["witness"]["quorum_b"]
            seen.add(qi["verdict"])
        assert seen == {"holds", "violated"}


class TestQuotaVetoedFiles:
    def test_vetoed_quota_file_requires_unit_thresholds(self, tmp_path):
        doc = {
            "nodes": ["a", "b"],
            "kind": "quota",
            "trust": {"a": ["a", "b"], "b": ["a", "b"]},
            "quota_uniform": 0.75,
            "vetoed": True,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["check", str(path)]) == 2


class TestSelectorEnumeration:
    def test_counts_and_validity(self):
        net = nets.two_triangles_vetoed()
        selectors = list(enumerate_selectors(net))
        assert len(selectors) == 2 ** len(net.honest)  # two slices per node
        for selector in selectors[:8]:
            # Every selector is usable by the closure operator.
            closure_step(net, selector, net.nodes)

    def test_rejects_quota_networks(self):
        with pytest.raises(TypeError):
            list(enumerate_selectors(nets.shared_five()))


class TestRenderHuman:
    def test_renderer_consumes_machine_report_only(self):
        report = {
            "command": ["qi", "x.json"],
            "verdict": "violated",
            "witness": {"quorum_a": ["1", "2"], "quorum_b": ["3"]},
            "tables": {"minimal_quora": [["1", "2"], ["3"]], "quora_examined": 4},
            "timing_ms": 0.1,
            "seed": None,
        }
        text = render_human(report)
        assert "violated" in text and "{1, 2}" in text and "{3}" in text

    @pytest.mark.parametrize("command", [["qi"], ["fork", "--strong"]])
    def test_budget_overrun_gives_its_reason(self, tmp_path, capsys, command):
        path = thirty_nodes(tmp_path)
        argv = [command[0], path, *command[1:]]
        reason = "30 nodes exceeds the quorum-intersection budget of 20"
        assert run(argv) == 3
        assert capsys.readouterr().out.splitlines() == [
            "verdict: budget-exceeded",
            f"reason: {reason}",
        ]
        assert run(argv + ["--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "budget-exceeded" and report["witness"] is None
        assert report["tables"] == {"reason": reason}


class TestCrossProcessDeterminism:
    @pytest.mark.parametrize("hashseed", ["1", "77"])
    def test_reports_identical_under_hash_randomization(self, tmp_path, hashseed):
        path = save(tmp_path, "fig.json", nets.two_triangles())
        import os

        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "quorumlens", "qi", str(path), "--json"],
                capture_output=True,
                text=True,
                cwd=REPO,
                env=env,
            )
            assert proc.returncode == 1
            doc = json.loads(proc.stdout)
            doc["timing_ms"] = None
            outs.append(json.dumps(doc, sort_keys=True))
        self._last = outs
        assert outs[0] == outs[1]

    def test_reports_identical_across_hash_seeds(self, tmp_path):
        path = save(tmp_path, "q.json", nets.shared_five(byz="5"))
        import os

        outs = []
        for hashseed in ("3", "99"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "quorumlens",
                    "influence",
                    str(path),
                    "--limit",
                    "--json",
                ],
                capture_output=True,
                text=True,
                cwd=REPO,
                env=env,
            )
            assert proc.returncode == 0
            doc = json.loads(proc.stdout)
            doc["timing_ms"] = None
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]
