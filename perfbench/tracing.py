"""Spans and counters around the calls into each latcover layer.

Nothing under ``src/`` is instrumented.  ``Tracer.install`` replaces
public functions in the module namespaces they are looked up from (the
names imported into ``latcover.verify``, ``latcover.groups.validate_group``
and the ``latcover.cli`` functions the workloads call) with wrappers that
record a span per call, and ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, group]``: ``parent`` is the index
of the enclosing span in the same pass, or -1, and ``group`` the spec of
the nearest enclosing analysis or submitted group, if any.  Spans stay in
memory until the run dumps them.  The layer of a span is the part of its
name before the dot; ``bench`` spans are the benchmark's own loop.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from latcover import cli, groups, verify
from latcover.errors import SubgroupCapExceeded

import workloads


def _witness_pairs(w: Any) -> int:
    if w is None:
        return 0
    return len(w.all_pairs) if w.all_pairs else 1


# (module, attribute, span name, counters read off the result)
_QUERY = "posets.query"
_STRUCTURE = "structure.profile"
PATCHES: tuple[tuple[Any, str, str, Callable[[Any], dict[str, int]] | None], ...] = (
    (verify, "run_suites", "verify.suite", None),
    (verify, "scan_class_c", "verify.scan", None),
    (verify, "analyze_spec", "verify.lookup", None),
    (verify, "_analyze", "verify.analyze", None),
    (verify, "build_group", "groups.build", lambda g: {"groups.builds": 1, "groups.table_cells": g.order**2}),
    (groups, "validate_group", "groups.validate", lambda r: {"groups.validates": 1}),
    (verify, "enumerate_subgroups", "subgroups.enumerate", lambda lat: {"subgroups.found": len(lat.subs)}),
    (verify, "conjugacy_classes", "subgroups.classes", lambda c: {"subgroups.classes_found": len(c.classes)}),
    (verify, "closure", "subgroups.closure", None),
    (verify, "build_poset", "posets.build", lambda v: {"posets.nodes": v.size}),
    (verify, "breaking_points", _QUERY, None),
    (verify, "two_interval_cover", _QUERY, lambda w: {"posets.witness_pairs": _witness_pairs(w)}),
    (verify, "cover_holds", _QUERY, None),
    (verify, "subgroup_is_cyclic", _QUERY, None),
    (cli, "breaking_points", _QUERY, None),
    (cli, "two_interval_cover", _QUERY, lambda w: {"posets.witness_pairs": _witness_pairs(w)}),
    (cli, "hasse_edges", _QUERY, None),
    (verify, "build_profile", _STRUCTURE, None),
    (verify, "is_cyclic_pgroup_order_ge_p2", _STRUCTURE, None),
    (verify, "is_generalized_quaternion", _STRUCTURE, None),
    (verify, "omega1", _STRUCTURE, None),
    (verify, "frattini", _STRUCTURE, None),
    (verify, "derived_subgroup", _STRUCTURE, None),
    (verify, "order_p_subgroups_conjugate", _STRUCTURE, None),
    (verify, "p_complement", _STRUCTURE, None),
    (verify, "sylow_subgroups", _STRUCTURE, None),
    (cli, "build_report", "cli.report", None),
    (cli, "poset_dot", "cli.dot", None),
    (cli, "scan_rows_csv", "cli.serialize", None),
    (workloads, "json_text", "cli.serialize", None),
)

LAYERS = ("groups", "subgroups", "posets", "structure", "verify", "cli")

# every per-layer metric with its unit, in the order they are reported
UNITS = {
    "groups.build_s": "s",
    "groups.validate_s": "s",
    "groups.table_cells": "count",
    "groups.validate_per_build": "ratio",
    "subgroups.enumerate_s": "s",
    "subgroups.classes_s": "s",
    "subgroups.found": "count",
    "subgroups.classes_found": "count",
    "subgroups.cap_skips": "count",
    "posets.build_s": "s",
    "posets.query_s": "s",
    "posets.nodes": "count",
    "posets.witness_pairs": "count",
    "structure.profile_s": "s",
    "verify.cache_hit_ratio": "ratio",
    "verify.cache_lookups": "count",
    "verify.self_s": "s",
    "cli.report_s": "s",
    "cli.self_s": "s",
}


class Tracer(workloads.Untraced):
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._child_base = 0

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def begin_child(self) -> None:
        """In a forked child: record from here on, under the span open at the fork."""
        self._child_base = len(self.spans)
        self.counts = Counter()

    def export(self) -> tuple[list[list[Any]], Counter[str]]:
        return self.spans[self._child_base :], self.counts

    def adopt(self, state: tuple[list[list[Any]], Counter[str]]) -> None:
        """Take over a child's spans; their parent indices already fit, as the parent waited."""
        spans, counts = state
        self.spans.extend(spans)
        self.counts.update(counts)

    @contextmanager
    def span(self, name: str, group: str | None = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        if group is None and parent >= 0:
            group = self.spans[parent][4]
        rec = [name, time.perf_counter(), 0.0, parent, group]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def _wrap(self, fn: Callable, name: str, count: Callable[[Any], dict[str, int]] | None) -> Callable:
        takes_spec = name in ("verify.lookup", "verify.analyze")

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, group=args[0] if takes_spec else None):
                try:
                    result = fn(*args, **kwargs)
                except SubgroupCapExceeded:
                    if name == "subgroups.enumerate":
                        self.counts["subgroups.cap_skips"] += 1
                    raise
            if count is not None:
                self.counts.update(count(result))
            return result

        return traced

    def _wrap_lookup(self, fn: Callable) -> Callable:
        """The cached analysis: hits and misses are read off cache_info around each call."""
        wrapped = self._wrap(fn, "verify.lookup", None)

        def traced(*args: Any, **kwargs: Any) -> Any:
            before = fn.cache_info()
            result = wrapped(*args, **kwargs)
            after = fn.cache_info()
            self.counts["verify.cache_hits"] += after.hits - before.hits
            self.counts["verify.cache_misses"] += after.misses - before.misses
            return result

        traced.cache_clear = fn.cache_clear
        traced.cache_info = fn.cache_info
        return traced

    def install(self) -> None:
        for module, attr, name, count in PATCHES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap_lookup(fn) if name == "verify.lookup" else self._wrap(fn, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def _self_times(spans: list[list[Any]]) -> list[float]:
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def _layer(name: str) -> str:
    layer = name.split(".")[0]
    return "verify" if layer == "bench" else layer


def self_by_layer(spans: list[list[Any]], pass_s: float) -> dict[str, float]:
    """Self time per layer; verify's is the pass minus what the other layers' spans cover."""
    own: Counter[str] = Counter()
    for span, self_s in zip(spans, _self_times(spans)):
        own[_layer(span[0])] += self_s
    own["verify"] = pass_s - sum(own[layer] for layer in LAYERS if layer != "verify")
    return {layer: own[layer] for layer in LAYERS}


def layer_metrics(spans: list[list[Any]], counts: Counter[str], pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    total: Counter[str] = Counter()
    for name, start, end, _, _ in spans:
        total[name] += end - start
    own = self_by_layer(spans, pass_s)
    lookups = counts["verify.cache_hits"] + counts["verify.cache_misses"]
    builds = counts["groups.builds"]
    return {
        "groups.build_s": total["groups.build"],
        "groups.validate_s": total["groups.validate"],
        "groups.table_cells": counts["groups.table_cells"],
        "groups.validate_per_build": counts["groups.validates"] / builds if builds else 0.0,
        "subgroups.enumerate_s": total["subgroups.enumerate"],
        "subgroups.classes_s": total["subgroups.classes"],
        "subgroups.found": counts["subgroups.found"],
        "subgroups.classes_found": counts["subgroups.classes_found"],
        "subgroups.cap_skips": counts["subgroups.cap_skips"],
        "posets.build_s": total["posets.build"],
        "posets.query_s": total[_QUERY],
        "posets.nodes": counts["posets.nodes"],
        "posets.witness_pairs": counts["posets.witness_pairs"],
        "structure.profile_s": total[_STRUCTURE],
        "verify.cache_hit_ratio": counts["verify.cache_hits"] / lookups if lookups else 0.0,
        "verify.cache_lookups": lookups,
        "verify.self_s": own["verify"],
        "cli.report_s": total["cli.report"] + total["cli.dot"] + total["cli.serialize"],
        "cli.self_s": own["cli"],
    }


def group_breakdown(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Self time per layer for each group spec; spans outside any group go under ''."""
    out: dict[str, Counter[str]] = {}
    for (name, _, _, _, group), self_s in zip(spans, _self_times(spans)):
        out.setdefault(group or "", Counter())[_layer(name)] += self_s
    return {g: dict(c) for g, c in out.items()}


def summary(layers: list[dict[str, float]], selfs: list[dict[str, float]], traced: list[float]) -> str:
    """Median share of the traced pass per layer (self time) and per named part."""

    def share(part: Callable[[dict[str, float]], float], rows: list[dict[str, float]]) -> float:
        return statistics.median(part(row) / t for row, t in zip(rows, traced))

    parts = {
        "groups.validate": lambda m: m["groups.validate_s"],
        "groups.build minus validate": lambda m: m["groups.build_s"] - m["groups.validate_s"],
        "subgroups.enumerate": lambda m: m["subgroups.enumerate_s"],
        "subgroups.classes": lambda m: m["subgroups.classes_s"],
        "posets.build": lambda m: m["posets.build_s"],
        "posets.query": lambda m: m["posets.query_s"],
        "classes + queries": lambda m: m["subgroups.classes_s"] + m["posets.query_s"],
        "structure.profile": lambda m: m["structure.profile_s"],
        "cli.report": lambda m: m["cli.report_s"],
    }
    lines = [f"  self time, share of traced pass: {layer:28s} {share(lambda o: o[layer], selfs):7.2%}" for layer in LAYERS]
    lines += [f"  inclusive, share of traced pass: {part:28s} {share(f, layers):7.2%}" for part, f in parts.items()]
    return "\n".join(lines)


def group_table(per_group: dict[str, dict[str, float]], limit: int = 8) -> str:
    """Self time per layer of the groups that took longest, in seconds."""
    rows = sorted(per_group.items(), key=lambda kv: -sum(kv[1].values()))[:limit]
    lines = [f"  {'group, last traced pass (s)':28s}" + "".join(f"{layer:>10s}" for layer in LAYERS)]
    for group, own in rows:
        lines.append(f"  {group or '(outside any group)':28s}" + "".join(f"{own.get(layer, 0.0):10.4f}" for layer in LAYERS))
    return "\n".join(lines)
