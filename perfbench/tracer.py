"""Per-layer tracing from outside the program.

The tracer replaces module and class attributes of hampack with wrappers
for the length of a traced pass and puts the originals back afterwards.
A span wrapper records (name, start, end, parent, command id) in memory;
a counting wrapper only bumps a counter, for functions called too often
to time one by one.  A layer's self time is the time of its spans minus
the time of their child spans.  A wrap point whose attribute no longer
exists is skipped, and the metrics that need it are left out.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from checks import Graph, tutte_pair

_clock = time.perf_counter


def _bit_list(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


class Tracer:
    def __init__(self, hampack_modules: dict):
        self.mods = hampack_modules
        self.spans: list[list] = []   # [name, start, end, parent, command]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.present: set[str] = set()
        self.command_id = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> bool:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return False
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def span(self, owner, attr: str, name: str, on_return=None) -> None:
        spans, stack = self.spans, self.stack

        def make(fn):
            def wrapper(*args, **kwargs):
                record = [name, _clock(), 0.0, stack[-1] if stack else -1, self.command_id]
                stack.append(len(spans))
                spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    record[2] = _clock()
                if on_return is not None:
                    on_return(args, result)
                return result
            return wrapper

        if self._patch(owner, attr, make):
            self.present.add(name)

    def count(self, owner, attr: str, name: str, on_return=None) -> None:
        counts = self.counts

        def make(fn):
            if on_return is None:
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)
            else:
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    result = fn(*args, **kwargs)
                    on_return(args, result)
                    return result
            return wrapper

        if self._patch(owner, attr, make):
            self.present.add(name)

    def count_yields(self, owner, attr: str, name: str) -> None:
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[name] += 1
                    yield item
            return wrapper

        if self._patch(owner, attr, make):
            self.present.add(name)

    # -- the wrap points ----------------------------------------------------

    def install(self) -> None:
        m = self.mods
        edgelist, factors, matching = m["edgelist"], m["factors"], m["matching"]
        hamilton, expanders, extremality = m["hamilton"], m["expanders"], m["extremality"]
        counts = self.counts

        def tally(key):
            def hook(args, result):
                counts[key] += result is not None
            return hook

        def add_size(key, attr):
            def hook(args, result):
                counts[key] += getattr(result, attr)
            return hook

        def exposed(args, result):
            counts["matching.exposed_after_greedy"] += result.count(-1)

        def ge_pair_hit(args, result):
            g, gadget = args[0], args[1]
            r = (4 * g.m - gadget.size) // g.n
            q, rr = tutte_pair(Graph(g.n, g.edges()), r, _bit_list(result[0]), _bit_list(result[1]))
            counts["factors.ge_pair_hits"] += q > rr

        self.span(edgelist, "read_edge_list", "edgelist.read")
        self.count(factors, "_decide", "factors.decide_calls")
        self.count(factors, "_quantities", "factors.tutte_evals")
        self.span(factors, "_structured_violation", "factors.structured", tally("factors.structured_hits"))
        self.span(factors, "_even_factor_via_orientation", "factors.orientation",
                  tally("factors.orientation_hits"))
        self.span(factors, "balanced_orientation_arcs", "orientation.arcs")
        self.span(factors, "_build_gadget", "factors.gadget", add_size("factors.gadget_vertices", "size"))
        self.count(matching, "greedy_matching", "matching.greedy", exposed)
        self.span(matching._Matcher, "solve", "matching.blossom")
        self.span(factors, "_factor_from_matching", "factors.extract")
        self.span(factors, "_find_certificate", "factors.certificate")
        self.count(factors, "_ge_pair", "factors.ge_pair", ge_pair_hit)
        self.span(factors.Factor, "validate", "factors.audit")
        self.span(factors, "_certificate_from_masks", "factors.audit")
        self.span(hamilton, "_search_packing", "hamilton.search")
        self.count(hamilton._Budget, "spend", "hamilton.search_nodes")
        self.count_yields(hamilton, "_iter_cycles", "hamilton.cycles_tried")
        self.span(hamilton, "reg_even_of_graph", "hamilton.reg_even")
        self.span(hamilton, "_audit_packing", "hamilton.audit")
        subsets = add_size("expanders.subsets_examined", "samples")
        candidates = add_size("expanders.mc_candidates", "samples")
        for owner in (expanders, extremality):
            self.span(owner, "is_robust_expander_exact", "expanders.exact", subsets)
            self.span(owner, "refute_robust_expander_mc", "expanders.mc", candidates)
        self.span(extremality, "closeness", "extremality.closeness")

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- commands and results -------------------------------------------------

    def command(self, command_id: int, fn, *args):
        """Run one CLI command under a root span named cli.command."""
        self.command_id = command_id
        record = ["cli.command", _clock(), 0.0, -1, command_id]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args)
        finally:
            self.stack.pop()
            record[2] = _clock()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def layer_metrics(self, rounds: int, overhead_s: float) -> dict[str, dict]:
        """The per-layer metrics, per round of the workload."""
        own = self.self_times()
        c, have = self.counts, self.present
        metrics: dict[str, tuple[float, str]] = {}

        def seconds(metric, span_name):
            if span_name in have:
                metrics[metric] = (own.get(span_name, 0.0) / rounds, "s")

        def tally(metric, needs=None):
            if (needs or metric) in have:
                metrics[metric] = (c[metric] // rounds, "count")

        def ratio(metric, hits, calls):
            if calls in have:
                metrics[metric] = (c[hits] / c[calls] if c[calls] else 0.0, "ratio")

        c["factors.structured"] = sum(1 for s in self.spans if s[0] == "factors.structured")
        c["factors.orientation"] = sum(1 for s in self.spans if s[0] == "factors.orientation")
        seconds("edgelist.read_s", "edgelist.read")
        tally("factors.decide_calls")
        tally("factors.tutte_evals")
        seconds("factors.structured_s", "factors.structured")
        ratio("factors.structured_hit_ratio", "factors.structured_hits", "factors.structured")
        seconds("factors.orientation_s", "factors.orientation")
        seconds("orientation.arcs_s", "orientation.arcs")
        ratio("factors.orientation_hit_ratio", "factors.orientation_hits", "factors.orientation")
        seconds("factors.gadget_s", "factors.gadget")
        tally("factors.gadget_vertices", "factors.gadget")
        seconds("matching.blossom_s", "matching.blossom")
        tally("matching.exposed_after_greedy", "matching.greedy")
        seconds("factors.extract_s", "factors.extract")
        seconds("factors.certificate_s", "factors.certificate")
        ratio("factors.ge_pair_hit_ratio", "factors.ge_pair_hits", "factors.ge_pair")
        seconds("factors.audit_s", "factors.audit")
        seconds("hamilton.search_s", "hamilton.search")
        tally("hamilton.search_nodes")
        tally("hamilton.cycles_tried")
        seconds("hamilton.reg_even_s", "hamilton.reg_even")
        seconds("hamilton.audit_s", "hamilton.audit")
        seconds("expanders.exact_s", "expanders.exact")
        tally("expanders.subsets_examined", "expanders.exact")
        seconds("expanders.mc_s", "expanders.mc")
        tally("expanders.mc_candidates", "expanders.mc")
        seconds("extremality.closeness_s", "extremality.closeness")
        metrics["cli.other_s"] = (own.get("cli.command", 0.0) / rounds, "s")
        metrics["trace.overhead_s"] = (overhead_s / rounds, "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def write_spans(self, path, origin: float) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, command in self.spans:
                fh.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9), parent, command]))
                fh.write("\n")
