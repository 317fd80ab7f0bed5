"""Canonical small networks and profiles shared across the test suite,
and :func:`state_budget`, which sets the one search-state budget."""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

import pytest

from quorumlens import OpinionProfile, QuotaNetwork, TrustNetwork, network, with_veto_slices

TRI_A = frozenset({"1", "2", "3"})
TRI_B = frozenset({"4", "5", "6"})


def two_triangles() -> TrustNetwork:
    """Six honest nodes in two triangles, each node requiring its own triple."""
    return TrustNetwork(
        nodes=tuple("123456"),
        byzantine=frozenset(),
        trust={n: (TRI_A if n in TRI_A else TRI_B) for n in "123456"},
        slices={n: ((TRI_A if n in TRI_A else TRI_B),) for n in "123456"},
    )


def two_triangles_bridged() -> TrustNetwork:
    """Two triangles with node 3 also requiring node 5, which restores intersection."""
    base = two_triangles()
    slices = dict(base.slices)
    trust = dict(base.trust)
    slices["3"] = (frozenset({"1", "2", "3", "5"}),)
    trust["3"] = frozenset({"1", "2", "3", "5"})
    return TrustNetwork(base.nodes, base.byzantine, trust, slices)


def two_triangles_vetoed() -> TrustNetwork:
    return with_veto_slices(two_triangles())


def two_triangles_shared_byz() -> TrustNetwork:
    """Two triangles plus Byzantine node 7 inside every slice."""
    nodes = tuple("1234567")
    slices = {}
    trust = {}
    for n in "123456":
        s = (TRI_A | {"7"}) if n in TRI_A else (TRI_B | {"7"})
        slices[n] = (s,)
        trust[n] = s
    return TrustNetwork(nodes, frozenset({"7"}), trust, slices)


def unanimity(labels: str = "abcd", byz: str = "") -> TrustNetwork:
    """Everyone requires everyone: the full set is the only honest-backed quorum."""
    nodes = tuple(labels)
    byzantine = frozenset(byz)
    full = frozenset(nodes)
    honest = [n for n in nodes if n not in byzantine]
    return TrustNetwork(
        nodes, byzantine, {n: full for n in honest}, {n: (full,) for n in honest}
    )


def single_vetoed() -> TrustNetwork:
    return TrustNetwork(
        nodes=("i",),
        byzantine=frozenset(),
        trust={"i": frozenset({"i"})},
        slices={"i": (frozenset({"i"}),)},
    )


def split_quota(byz_fraction: Fraction | None = Fraction(1, 3)) -> QuotaNetwork:
    """Five nodes, Byzantine 3 bridging two separate trust groups, unanimous quota."""
    fractions = {}
    if byz_fraction is not None:
        fractions = {n: byz_fraction for n in "1245"}
    return QuotaNetwork(
        nodes=tuple("12345"),
        byzantine=frozenset({"3"}),
        trust={
            "1": frozenset("123"),
            "2": frozenset("123"),
            "4": frozenset("345"),
            "5": frozenset("345"),
        },
        quota={n: Fraction(1) for n in "1245"},
        byz_fraction=fractions,
    )


def split_quota_profile() -> OpinionProfile:
    """Group one sees value 1 everywhere, group two sees value 0 everywhere."""
    return OpinionProfile(
        {"1": 1, "2": 1, "4": 0, "5": 0},
        {"3": {"1": 1, "2": 1, "4": 0, "5": 0}},
    )


def shared_five(byz: str = "") -> QuotaNetwork:
    """Six nodes all trusting the same five, quota 0.8."""
    byzantine = frozenset(byz)
    honest = [n for n in "123456" if n not in byzantine]
    return QuotaNetwork(
        nodes=tuple("123456"),
        byzantine=byzantine,
        trust={n: frozenset("12345") for n in honest},
        quota={n: Fraction(4, 5) for n in honest},
    )


def ring(size: int, quota: Fraction) -> QuotaNetwork:
    """Each node trusts itself and its two neighbours: a quota network without twins."""
    nodes = tuple(f"r{k}" for k in range(size))
    trust = {x: frozenset({nodes[k - 1], x, nodes[(k + 1) % size]}) for k, x in enumerate(nodes)}
    return QuotaNetwork(nodes, frozenset(), trust, {x: quota for x in nodes})


def quota_clique(size: int, quota: Fraction = Fraction(4, 5), byz: int = 0) -> QuotaNetwork:
    """``size`` nodes that all trust all, one quota; the last ``byz`` are Byzantine."""
    nodes = tuple(f"x{k}" for k in range(size))
    honest = nodes[: size - byz]
    return QuotaNetwork(
        nodes=nodes,
        byzantine=frozenset(nodes[size - byz :]),
        trust={n: frozenset(nodes) for n in honest},
        quota={n: quota for n in honest},
    )


@contextmanager
def state_budget(limit: int):
    """Run the block with ``network.DEFAULT_MAX_SEARCH_STATES`` set to ``limit``.

    Every search reads that constant where it charges it, so one patch
    moves every meter; the old value is restored on exit.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "DEFAULT_MAX_SEARCH_STATES", limit)
        yield
