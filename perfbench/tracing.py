"""Spans around calls into quorumlens, recorded from the benchmark's side.

A :class:`Tracer` replaces module attributes with timing wrappers while it
is installed and restores them on removal, so untraced runs execute the
program untouched. Every span records its name, start, end, parent span
and command id; spans stay in memory until the run writes them out once.
A span's self time is its duration minus the time covered by its
children. A call nested directly inside a span of the same name (such as
``check_overlap_bounds`` calling ``shared_byzantine_bound``) is folded
into the outer span, so call counts mean calls from another layer.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, span name). Each attribute is a name some caller
# looks up at call time: the CLI's own imports, module globals used by
# nested calls inside the library, and the functions the benchmark calls.
WRAPPED = [
    ("quorumlens.cli", "load_network", "netio.load"),
    ("quorumlens.netio", "validate_network", "network.validate"),
    ("quorumlens.cli", "network_violations", "network.validate"),
    ("quorumlens.cli", "find_fork", "network.fork"),
    ("quorumlens.cli", "find_strong_fork", "network.fork"),
    ("quorumlens.cli", "check_quorum_intersection", "quorum.qi"),
    ("quorumlens.cli", "check_qi_honest", "quorum.qi"),
    ("quorumlens.quorum", "check_quorum_intersection", "quorum.qi"),
    ("quorumlens.quorum", "check_qi_honest", "quorum.qi"),
    ("quorumlens.cli", "minimal_quora", "quorum.minimal"),
    ("quorumlens.quorum", "check_slice_addition", "quorum.slice_add"),
    ("quorumlens.influence", "influence_matrix", "influence.matrix"),
    ("quorumlens.influence", "analyze_graph", "influence.graph"),
    ("quorumlens.influence", "limit_matrix", "influence.limit"),
    ("quorumlens.bounds", "shared_byzantine_bound", "bounds.safety"),
    ("quorumlens.bounds", "check_overlap_bounds", "bounds.safety"),
    ("quorumlens.bounds", "common_trust_set", "bounds.safety"),
    ("quorumlens.bounds", "expand_quota_network", "instances.gen"),
    ("quorumlens.instances", "random_quota_network", "instances.gen"),
    ("quorumlens.instances", "cnf_to_network", "instances.gen"),
    ("quorumlens.instances", "slice_addition_instance", "instances.gen"),
    ("quorumlens.instances", "brute_sat", "instances.sat"),
]

COMMAND = "cli.command"


def _pivot_masks(args, kwargs) -> int:
    net = args[0] if args else kwargs["net"]
    return sum(1 << len(net.trust[i]) for i in net.nodes if i not in net.byzantine)


def _examined(result) -> int:
    return result.quora_examined


def _squarings(result) -> int:
    return result.iterations


# Counters read from a call's input (before) or its result (after).
COUNT_BEFORE = {"influence.matrix": ("influence.pivot_masks", _pivot_masks)}
COUNT_AFTER = {
    "quorum.qi": ("quorum.examined", _examined),
    "quorum.slice_add": ("quorum.examined", _examined),
    "influence.limit": ("influence.squarings", _squarings),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, cmd]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.cmd = "setup"

    def open(self, name: str) -> int:
        now = time.perf_counter_ns()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, now, 0, parent, self.cmd])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        before = COUNT_BEFORE.get(name)
        after = COUNT_AFTER.get(name)

        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if before:
                self.counts[before[0]] += before[1](args, kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after:
                self.counts[after[0]] += after[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def mark(self) -> tuple[int, dict[str, int]]:
        return len(self.spans), dict(self.counts)

    def summary(self, since: tuple[int, dict[str, int]]) -> dict[str, dict]:
        """Self time, call count and commands touched per span name, plus
        counters, for the spans recorded after ``since``."""
        first, counts_then = since
        spans = self.spans[first:]
        child_ns = defaultdict(int)
        for name, start, end, parent, cmd in spans:
            if parent >= first:
                child_ns[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "cmds": set()})
        for k, (name, start, end, parent, cmd) in enumerate(spans, start=first):
            entry = out[name]
            entry["self_s"] += (end - start - child_ns[k]) / 1e9
            entry["calls"] += 1
            entry["cmds"].add(cmd)
        counters = {k: v - counts_then.get(k, 0) for k, v in self.counts.items()}
        return {"spans": dict(out), "counters": counters}
