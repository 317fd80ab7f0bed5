"""Property tests on generated networks of up to six nodes.

The examples are derandomized, so every run draws the same networks.
"""

import copy
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
    find_fork,
    network_document,
    parse_network_document,
    threshold,
)

pytestmark = pytest.mark.filterwarnings("ignore::quorumlens.QuotaRangeWarning")

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
QUOTAS = [Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5), Fraction(5, 6), Fraction(1)]


@st.composite
def labels_and_byzantine(draw, max_nodes=6):
    labels = [f"n{k}" for k in range(1, draw(st.integers(1, max_nodes)) + 1)]
    byzantine = draw(st.sets(st.sampled_from(labels), max_size=len(labels) - 1))
    return labels, frozenset(byzantine), [n for n in labels if n not in byzantine]


@st.composite
def quota_networks(draw, max_nodes=6):
    labels, byzantine, honest = draw(labels_and_byzantine(max_nodes))
    nodes = st.sampled_from(labels)
    trust = {i: frozenset(draw(st.sets(nodes, min_size=1))) for i in honest}
    quota = {i: draw(st.sampled_from(QUOTAS)) for i in honest}
    return QuotaNetwork(tuple(labels), byzantine, trust, quota)


@st.composite
def slices_networks(draw, max_nodes=6):
    labels, byzantine, honest = draw(labels_and_byzantine(max_nodes))
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


# Mutations for the label-check equivalence test. A label mutation inserts
# a bad element into a label array; an array mutation puts a bad value in
# place of a label array, or a bad coalition into a slice family.
LABEL_MUTATIONS = {
    "unknown label": st.just("zz"),
    "empty label": st.just(""),
    "non-string label": st.sampled_from([7, 1.5, True, None]),
    "unhashable element": st.sampled_from([["n1"], [], {"n1": 1}]),
}
ARRAY_MUTATIONS = {
    "non-list coalition": st.sampled_from(["n1", 3, None, {"n1": 1}]),
    "empty coalition": st.just([]),
}
BLOCKS = ("nodes", "byzantine", "slice_addition", "slices", "trust")
CASES = [
    *((kind, block) for kind in [*LABEL_MUTATIONS, *ARRAY_MUTATIONS] for block in BLOCKS),
    ("duplicate node", "nodes"),
    (None, None),
]


@st.composite
def documents(draw, block):
    """A valid document, with ``slice_addition`` metadata when it is a slices one."""
    if block == "trust":
        net = draw(quota_networks())
    elif block in ("slices", "slice_addition"):
        net = draw(slices_networks())
    else:
        net = draw(networks)
    addition = None
    if isinstance(net, TrustNetwork) and (block == "slice_addition" or draw(st.booleans())):
        members = draw(st.sets(st.sampled_from(net.nodes), min_size=1))
        addition = (draw(st.sampled_from(net.honest)), frozenset(members))
    doc = network_document(net, addition)
    doc.setdefault("byzantine", [])
    return net, addition, doc


def mutate(data, doc, kind, block) -> None:
    """Apply mutation ``kind`` to one label array or slice family of ``block``."""
    if block == "slices":
        families = list(doc["slices"].values())
        if kind in ARRAY_MUTATIONS and data.draw(st.booleans()):
            family = data.draw(st.sampled_from(families))
            family.insert(data.draw(st.integers(0, len(family))), data.draw(ARRAY_MUTATIONS[kind]))
            return
        sites = [(f, k) for f in families for k in range(len(f))]
        if kind in ARRAY_MUTATIONS:
            sites += [(doc["slices"], label) for label in doc["slices"]]
    elif block == "trust":
        sites = [(doc["trust"], label) for label in doc["trust"]]
    elif block == "slice_addition":
        sites = [(doc["slice_addition"], "slice")]
    else:
        sites = [(doc, block)]
    container, key = data.draw(st.sampled_from(sites))
    if kind == "duplicate node":
        nodes = container[key]
        nodes.insert(data.draw(st.integers(0, len(nodes))), data.draw(st.sampled_from(nodes)))
    elif kind in LABEL_MUTATIONS:
        array = container[key]
        array.insert(data.draw(st.integers(0, len(array))), data.draw(LABEL_MUTATIONS[kind]))
    else:
        container[key] = data.draw(ARRAY_MUTATIONS[kind])


def outcome(parse, doc):
    try:
        return parse(copy.deepcopy(doc))
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc), getattr(exc, "violations", None)


@pytest.mark.parametrize("kind, block", CASES)
@settings(PROPERTY, max_examples=25)
@given(st.data())
def test_label_checks_match_the_element_walk(kind, block, data):
    net, addition, doc = data.draw(documents(block))
    if kind is not None:
        mutate(data, doc, kind, block)
    expected = outcome(oracles.walk_network_document, doc)
    assert outcome(parse_network_document, doc) == expected
    if kind is None:
        assert expected.slice_addition == addition
        if addition is None:
            assert expected.network == net


@PROPERTY
@given(networks)
def test_pivot_rows_match_the_global_enumeration(net):
    for i in net.honest:
        expected = tuple(oracles.banzhaf_raw_global(net, i, j) for j in net.nodes)
        assert banzhaf_raw_row(net, i) == expected


# Profile enumeration is exponential in the honest nodes and in the
# observers of each Byzantine node, so these networks stop at five nodes.
@pytest.mark.parametrize("kind", [quota_networks, slices_networks])
@PROPERTY
@given(st.data())
def test_find_fork_matches_profile_enumeration(kind, data):
    net = data.draw(kind(max_nodes=5))
    assert (find_fork(net) is not None) == oracles.forked_by_profile_enumeration(net)
