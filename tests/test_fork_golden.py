"""Golden weak-fork reports of seeded networks of both kinds.

``fork --json`` must print exactly the recorded report, with ``timing_ms``
and the file path masked, for forty seeded networks:

* quota networks of the three generator topologies, with 0 to 2
  Byzantine nodes;
* explicit-slice expansions of small quota networks, of at most 64
  slices in all (the default fork budget);
* random explicit-slice networks with Byzantine members, forked and safe.

The recorded reports live in ``data/fork_golden.json``, keyed by case.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import oracles
import pytest
from quorumlens import (
    BudgetExceededError,
    GenParams,
    expand_quota_network,
    find_fork,
    random_quota_network,
    save_network,
)
from quorumlens.cli import run

GOLDEN = Path(__file__).resolve().parent / "data" / "fork_golden.json"
QUOTAS = [Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5), Fraction(1)]


def _quota_net(rng, topology, byz, min_nodes, max_nodes, narrow=False):
    """A generated quota network.

    A ``narrow`` one trusts at most half the nodes, and is drawn up to
    twenty times until it forks, which a clique without Byzantine nodes
    never does.
    """
    for _ in range(20 if narrow else 1):
        while True:
            n = rng.randint(min_nodes, max_nodes)
            trust = rng.randint(2, max(2, n // 2) if narrow else n)
            params = GenParams(n, trust, rng.choice(QUOTAS), byz, rng.randrange(2**32), topology)
            try:
                net = random_quota_network(params)
                break
            except ValueError:
                continue
        if find_fork(net) is not None:
            break
    return net


def fork_cases() -> dict:
    """The forty seeded networks, by case name."""
    rng = random.Random(20)
    cases = {}
    for topology in ("clique", "overlapping-groups", "centralised"):
        for byz in (0, 1, 2):
            for k in range(2):
                net = _quota_net(rng, topology, byz, 4, 13, narrow=k == 1)
                cases[f"quota-{topology}-byz{byz}-{k}"] = net
    expansions = 0
    while expansions < 10:
        topology = ("clique", "overlapping-groups", "centralised")[expansions % 3]
        net = _quota_net(rng, topology, rng.randint(0, 2), 3, 8, narrow=expansions % 2 == 1)
        try:
            expanded = expand_quota_network(net)
        except BudgetExceededError:
            continue
        if sum(len(f) for f in expanded.slices.values()) <= 64:
            cases[f"expanded-{topology}-{expansions}"] = expanded
            expansions += 1
    picked = {True: 0, False: 0}
    while min(picked.values()) < 6:
        n = rng.randint(4, 8)
        net = oracles.random_explicit_net(
            rng,
            n,
            max_slices=3,
            max_slice_size=rng.randint(2, n),
            byz_count=rng.randint(1, 2),
            self_in_slices=rng.random() < 0.5,
        )
        forked = find_fork(net) is not None
        if picked[forked] < 6:
            cases[f"slices-{'forked' if forked else 'safe'}-{picked[forked]}"] = net
            picked[forked] += 1
    return cases


def fork_report(net, path, capsys) -> tuple[int, dict]:
    """Exit code and ``fork --json`` report of ``net``, timing and path masked."""
    save_network(net, path)
    code = run(["fork", str(path), "--json"])
    doc = json.loads(capsys.readouterr().out)
    del doc["timing_ms"]
    doc["command"][1] = "NET"
    return code, doc


CASES = fork_cases()


pytestmark = pytest.mark.filterwarnings("ignore::quorumlens.QuotaRangeWarning")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    assert len(CASES) == 40
    verdicts = [doc["verdict"] for doc in golden.values()]
    assert "forked" in verdicts and "safe" in verdicts


@pytest.mark.parametrize("name", sorted(CASES))
def test_fork_report_matches_golden(name, golden, tmp_path, capsys):
    code, doc = fork_report(CASES[name], tmp_path / "net.json", capsys)
    assert doc == golden[name]
    assert code == (1 if doc["verdict"] == "forked" else 0)
