"""Property tests on generated networks of up to six nodes.

The examples are derandomized, so every run draws the same networks.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from quorumlens import (
    QuotaNetwork,
    TrustNetwork,
    banzhaf_raw_row,
    check_quorum_intersection,
    network_document,
    parse_network_document,
    threshold,
)

pytestmark = pytest.mark.filterwarnings("ignore::quorumlens.QuotaRangeWarning")

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
QUOTAS = [Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5), Fraction(5, 6), Fraction(1)]


@st.composite
def labels_and_byzantine(draw):
    labels = [f"n{k}" for k in range(1, draw(st.integers(1, 6)) + 1)]
    byzantine = draw(st.sets(st.sampled_from(labels), max_size=len(labels) - 1))
    return labels, frozenset(byzantine), [n for n in labels if n not in byzantine]


@st.composite
def quota_networks(draw):
    labels, byzantine, honest = draw(labels_and_byzantine())
    nodes = st.sampled_from(labels)
    trust = {i: frozenset(draw(st.sets(nodes, min_size=1))) for i in honest}
    quota = {i: draw(st.sampled_from(QUOTAS)) for i in honest}
    return QuotaNetwork(tuple(labels), byzantine, trust, quota)


@st.composite
def slices_networks(draw):
    labels, byzantine, honest = draw(labels_and_byzantine())
    vetoed = draw(st.booleans())
    coalitions = st.frozensets(st.sampled_from(labels), min_size=1, max_size=4)
    slices = {}
    for i in honest:
        family = draw(st.lists(coalitions, min_size=1, max_size=3))
        if vetoed:
            family.append(frozenset({i}))
        slices[i] = tuple(dict.fromkeys(family))
    trust = {i: frozenset().union(*slices[i]) for i in honest}
    return TrustNetwork(tuple(labels), byzantine, trust, slices, vetoed=vetoed)


networks = st.one_of(quota_networks(), slices_networks())


SIX_AT_FIVE_SIXTHS = QuotaNetwork(
    tuple("abcdef"), frozenset(), {n: frozenset("abcdef") for n in "abcdef"}, {n: Fraction(5, 6) for n in "abcdef"}
)


@PROPERTY
@given(networks)
@example(SIX_AT_FIVE_SIXTHS)  # a float quota would raise the threshold from 5 to 6
def test_document_round_trip_keeps_thresholds_and_verdict(net):
    loaded = parse_network_document(network_document(net)).network
    assert type(loaded) is type(net)
    assert loaded.nodes == net.nodes and loaded.byzantine == net.byzantine
    if isinstance(net, QuotaNetwork):
        assert {i: threshold(loaded, i) for i in loaded.honest} == {
            i: threshold(net, i) for i in net.honest
        }
    else:
        assert loaded.slices == net.slices
    assert check_quorum_intersection(loaded) == check_quorum_intersection(net)


@PROPERTY
@given(networks)
def test_pivot_rows_match_the_global_enumeration(net):
    for i in net.honest:
        expected = tuple(oracles.banzhaf_raw_global(net, i, j) for j in net.nodes)
        assert banzhaf_raw_row(net, i) == expected
