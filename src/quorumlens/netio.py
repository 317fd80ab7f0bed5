"""Reading and writing the network JSON interchange format.

One network per file. Top-level keys:

* ``nodes``: array of unique string labels (required).
* ``byzantine``: array of labels, default empty.
* ``kind``: ``"slices"`` or ``"quota"`` (required).
* slices kind: ``slices`` maps each honest label to an array of arrays of
  labels; a node's trust set is the union of its slices (and, for the
  ``slice_addition`` node, of the candidate slice too).
* quota kind: ``trust`` maps each honest label to an array of labels; the
  quota is required and the Byzantine fraction optional, each as one of
  its two rational forms. None of these five keys belongs to a slices
  file.
* ``vetoed``: boolean, default false; a claim about the network, not a
  setting (see the file rules below).
* ``slice_addition``: optional generator metadata for a slices network, an
  object with ``node`` (an honest label) and ``slice`` describing a
  candidate slice to add. The slice is drawn from the node's trust set,
  so its members join that trust set.

File rules, each checked in one place:

* A per-node object (``slices``, ``trust``, ``quota``) is keyed by exactly
  the honest nodes; ``byz_fraction`` by some of them, the rest keeping
  the default ``1 - quota``.
* A rational per node is given once for all honest nodes as
  ``<key>_uniform`` or per node as the ``<key>`` object, never both:
  ``quota`` needs exactly one form, ``byz_fraction`` at most one. A
  rational is a ``"p/q"`` string, which is what :func:`network_document`
  writes (the uniform form whenever all values are equal), or a JSON
  number.
* No JSON object of a file may repeat a key.
* A file may say ``"vetoed": true`` only when the network is vetoed:
  every honest node's own singleton wins for it, which is a slice
  ``[i]`` in a slices file and a threshold of 1 with ``i`` in its own
  trust set in a quota file. The claim is judged after validation, and
  :func:`network_document` writes it exactly when it holds.

Unknown keys are rejected, every referenced label must appear in
``nodes``, and the parsed network must pass full validation.

Validation is one pass over the document. ``nodes`` is read label by
label, since it defines the known labels. Each other block of label
arrays (``byzantine``, the ``slice_addition`` slice, all of ``trust``,
all of ``slices``) is checked at once with set algebra: a type check of
the arrays, then one ``issuperset`` of the known labels over every
element. Only a block that fails is walked element by element, so the
error names the first bad label in document order, with the message of
a full walk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from fractions import Fraction
from pathlib import Path

from .network import (
    Network,
    NodeId,
    QuotaNetwork,
    TrustNetwork,
    _cannot_veto,
    as_fraction,
    validate_network,
)


class NetworkFormatError(ValueError):
    """The document does not match the network file schema."""


# A quota network's trust sets and rationals: no slices file carries them.
_QUOTA_KEYS = ("trust", "quota", "quota_uniform", "byz_fraction", "byz_fraction_uniform")
_TOP_KEYS = {"nodes", "byzantine", "kind", "slices", *_QUOTA_KEYS, "vetoed", "slice_addition"}


@dataclass(frozen=True)
class LoadedNetwork:
    """A parsed network file: the network plus optional generator metadata."""

    network: Network
    slice_addition: tuple[NodeId, frozenset[NodeId]] | None = None


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise NetworkFormatError(message)


def _walk_labels(value, key: str, known: set[str] | None = None) -> None:
    """Raise on the first element of ``value`` that is not a known label."""
    _expect(isinstance(value, list), f"key {key!r}: expected an array of labels")
    for x in value:
        _expect(isinstance(x, str) and x, f"key {key!r}: label {x!r} is not a non-empty string")
        if known is not None:
            _expect(x in known, f"key {key!r}: label {x!r} does not appear in \"nodes\"")


def _all_lists(values) -> bool:
    return all(map(isinstance, values, repeat(list)))


def _label_arrays(arrays, known: set[str]) -> bool:
    """True when every item of ``arrays`` is a list of labels in ``known``.

    ``known`` holds only non-empty strings, so one ``issuperset`` over all
    elements checks their types and their membership; an unhashable
    element makes it false.
    """
    if not _all_lists(arrays):
        return False
    try:
        return known.issuperset(chain.from_iterable(arrays))
    except TypeError:
        return False


def _walk_slices(raw: dict, honest: list[str], known: set[str]) -> None:
    """Raise on the first malformed family, coalition or label of ``raw``.

    It raises whenever :func:`_parse_families` refuses the slices: both
    accept exactly non-empty lists of non-empty lists of known labels.
    """
    for label in honest:
        families = raw[label]
        _expect(isinstance(families, list) and families, f"slices[{label!r}]: expected a non-empty array")
        for k, coalition in enumerate(families):
            key = f"slices[{label!r}][{k}]"
            _walk_labels(coalition, key, known)
            _expect(bool(coalition), f"{key}: empty coalition")


def _parse_families(families: list, known: set[str]) -> list[tuple[frozenset[str], ...]] | None:
    """Each family of coalitions as a tuple of ``frozenset``, or ``None`` if any is malformed.

    Equal coalitions become one shared ``frozenset``: the lists are keyed
    by their tuples, and only the first of each is turned into a set.
    Every check is a pass in C over all families at once: each family and
    each coalition must be a non-empty list, and the labels of the
    distinct coalitions must all be in ``known``.
    """
    if not _all_lists(families) or [] in families:
        return None
    coalitions = list(chain.from_iterable(families))
    if not _all_lists(coalitions) or [] in coalitions:
        return None
    keys = list(map(tuple, coalitions))
    try:
        by_key = dict.fromkeys(keys)
    except TypeError:  # an unhashable label
        return None
    by_set: dict[frozenset[str], frozenset[str]] = {}
    for key in by_key:
        members = frozenset(key)
        by_key[key] = by_set.setdefault(members, members)
    if not known.issuperset(frozenset().union(*by_set)):
        return None
    shared = list(map(by_key.__getitem__, keys))
    ends = accumulate(map(len, families))
    return [tuple(shared[end - len(family) : end]) for family, end in zip(families, ends)]


def _number(value, key: str) -> Fraction:
    if isinstance(value, str):
        try:
            return as_fraction(value)
        except ValueError:
            raise NetworkFormatError(
                f'key {key!r}: {value!r} is not a rational such as "3/4"'
            ) from None
    _expect(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f'key {key!r}: expected a number or a "p/q" string',
    )
    _expect(
        isinstance(value, int) or math.isfinite(value),
        f"key {key!r}: {value!r} is not a finite number",
    )
    return as_fraction(value)


def _honest_map(doc: dict, key: str, honest: list[str], exact: bool = True) -> dict:
    """The required object under ``key``, keyed by the honest nodes.

    It must hold every honest node when ``exact``, and some of them
    otherwise.
    """
    _expect(key in doc, f'missing required key "{key}"')
    raw = doc[key]
    _expect(isinstance(raw, dict), f'key "{key}": expected an object')
    if exact:
        _expect(set(raw) == set(honest), f'key "{key}": domain must be exactly the honest nodes')
    else:
        _expect(set(raw) <= set(honest), f'key "{key}": domain must be honest nodes')
    return raw


def _rationals(doc: dict, key: str, honest: list[str], required: bool) -> dict[str, Fraction]:
    """The per-node rationals under ``<key>_uniform`` or ``<key>``.

    ``<key>_uniform`` holds one rational for every honest node, and the
    ``<key>`` object one per node. A ``required`` key takes exactly one of
    the two forms, and its object covers every honest node. Otherwise the
    key takes at most one form, its object covers some honest nodes, and
    without either form the result is empty.
    """
    uniform = f"{key}_uniform"
    forms = (uniform in doc) + (key in doc)
    if required:
        _expect(forms == 1, f'exactly one of "{uniform}" or "{key}" is required')
    else:
        _expect(forms <= 1, f'at most one of "{uniform}" or "{key}" is allowed')
    if uniform in doc:
        return dict.fromkeys(honest, _number(doc[uniform], uniform))
    if key not in doc:
        return {}
    raw = _honest_map(doc, key, honest, exact=required)
    return {label: _number(v, f"{key}[{label!r}]") for label, v in raw.items()}


def _put_rationals(doc: dict, key: str, values: dict[str, Fraction]) -> None:
    """Write ``values`` as ``<key>_uniform`` if all are equal, else as the ``<key>`` object."""
    distinct = set(values.values())
    if len(distinct) == 1:
        doc[f"{key}_uniform"] = str(distinct.pop())
    else:
        doc[key] = {label: str(v) for label, v in values.items()}


def parse_network_document(doc) -> LoadedNetwork:
    """Build a validated network from a decoded JSON document.

    In a slices document, equal coalitions parse to one shared
    ``frozenset``, so an expanded quota network, whose nodes list the same
    coalitions, holds each of them once.
    """
    _expect(isinstance(doc, dict), "top level must be a JSON object")
    unknown = sorted(set(doc) - _TOP_KEYS)
    _expect(not unknown, f"unknown keys: {', '.join(unknown)}")
    for key in ("nodes", "kind"):
        _expect(key in doc, f"missing required key {key!r}")

    _walk_labels(doc["nodes"], "nodes")
    nodes = list(doc["nodes"])
    node_set = set(nodes)
    _expect(len(node_set) == len(nodes), 'duplicate labels in "nodes"')
    raw_byzantine = doc.get("byzantine", [])
    if not _label_arrays([raw_byzantine], node_set):
        _walk_labels(raw_byzantine, "byzantine", node_set)
    byzantine = frozenset(raw_byzantine)
    honest = [x for x in nodes if x not in byzantine]
    kind = doc["kind"]
    _expect(kind in ("slices", "quota"), f'key "kind": {kind!r} is not "slices" or "quota"')
    vetoed = doc.get("vetoed", False)
    _expect(isinstance(vetoed, bool), 'key "vetoed": expected a boolean')

    addition = None
    if "slice_addition" in doc:
        _expect(kind == "slices", 'key "slice_addition" requires a slices network')
        meta = doc["slice_addition"]
        _expect(isinstance(meta, dict), 'key "slice_addition": expected an object')
        _expect(
            set(meta) == {"node", "slice"},
            'key "slice_addition": expected exactly the keys "node" and "slice"',
        )
        target = meta["node"]
        _expect(
            isinstance(target, str) and target in honest,
            'key "slice_addition": "node" must name an honest node',
        )
        if not _label_arrays([meta["slice"]], node_set):
            _walk_labels(meta["slice"], 'slice_addition "slice"', node_set)
        members = frozenset(meta["slice"])
        _expect(bool(members), 'key "slice_addition": empty slice')
        addition = (target, members)

    if kind == "slices":
        for forbidden in _QUOTA_KEYS:
            _expect(forbidden not in doc, f"key {forbidden!r} does not belong to a slices network")
        raw = _honest_map(doc, "slices", honest)
        families = [raw[label] for label in honest]
        parsed = _parse_families(families, node_set)
        if parsed is None:
            _walk_slices(raw, honest, node_set)
        slices = dict(zip(honest, parsed))
        trust = {label: frozenset().union(*family) for label, family in slices.items()}
        if addition is not None:
            trust[addition[0]] |= addition[1]
        net: Network = TrustNetwork(tuple(nodes), byzantine, trust, slices)
    else:
        _expect("slices" not in doc, 'key "slices" does not belong to a quota network')
        raw = _honest_map(doc, "trust", honest)
        if not _label_arrays([raw[label] for label in honest], node_set):
            for label in honest:
                _walk_labels(raw[label], f"trust[{label!r}]", node_set)
        trust = {label: frozenset(raw[label]) for label in honest}
        quota = _rationals(doc, "quota", honest, required=True)
        byz_fraction = _rationals(doc, "byz_fraction", honest, required=False)
        net = QuotaNetwork(tuple(nodes), byzantine, trust, quota, byz_fraction)

    validate_network(net)
    if vetoed and (node := _cannot_veto(net)) is not None:
        raise NetworkFormatError(f'key "vetoed": {{{node}}} does not win for node {node}')
    return LoadedNetwork(net, addition)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One decoded JSON object; raise on its first key that repeats.

    ``json.loads`` would keep only the last value of a repeated key.
    """
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            _expect(key not in seen, f"repeated key {key!r}")
            seen.add(key)
    return obj


def load_network_file(path) -> LoadedNetwork:
    """Parse and validate a network file, keeping generator metadata."""
    try:
        doc = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise NetworkFormatError(f"{path}: cannot decode text: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise NetworkFormatError(f"{path}: invalid JSON: {exc}") from exc
    except NetworkFormatError as exc:
        raise NetworkFormatError(f"{path}: {exc}") from None
    return parse_network_document(doc)


def load_network(path) -> Network:
    """Parse and validate a network file; quota networks stay in quota form."""
    return load_network_file(path).network


def network_document(
    net: Network, slice_addition: tuple[NodeId, frozenset[NodeId]] | None = None
) -> dict:
    """JSON-ready document for ``net`` (inverse of :func:`parse_network_document`)."""
    order = {n: k for k, n in enumerate(net.nodes)}

    def ordered(sets) -> list[str]:
        return sorted(sets, key=order.get)

    doc: dict = {"nodes": list(net.nodes)}
    if net.byzantine:
        doc["byzantine"] = ordered(net.byzantine)
    if isinstance(net, TrustNetwork):
        doc["kind"] = "slices"
        doc["slices"] = {
            i: [ordered(s) for s in net.slices[i]] for i in net.honest
        }
    else:
        doc["kind"] = "quota"
        doc["trust"] = {i: ordered(net.trust[i]) for i in net.honest}
        _put_rationals(doc, "quota", {i: net.quota[i] for i in net.honest})
        if any(net.byz_fraction[i] != 1 - net.quota[i] for i in net.honest):
            _put_rationals(doc, "byz_fraction", {i: net.byz_fraction[i] for i in net.honest})
    if net.vetoed:
        doc["vetoed"] = True
    if slice_addition is not None:
        node, members = slice_addition
        doc["slice_addition"] = {"node": node, "slice": ordered(members)}
    return doc


def save_network(
    net: Network,
    path,
    *,
    slice_addition: tuple[NodeId, frozenset[NodeId]] | None = None,
) -> None:
    """Write ``net`` to ``path`` in the interchange format."""
    doc = network_document(net, slice_addition)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
