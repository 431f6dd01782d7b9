"""Where the traced run puts its spans, and the per-layer metrics it derives.

Each function is wrapped at the name its caller resolves: `run_attack` finds
the stream generators in `xtrsim.experiment`'s namespace, `gen_dos_stream`
finds `gen_miss_counts` in `xtrsim.workloads`', and methods are looked up on
their class, so `Xtr.run` calling `self.step` goes through the wrapper.

Spans come in two levels. The outer level wraps only each layer's entry
points, so the per-arm `Xtr.run` rates and the generator and export times
carry little tracing cost; the full level adds every per-packet call. The
traced run alternates the two, with an untraced operation between them to
measure the tracing overhead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from xtrsim import cli, experiment, workloads
from xtrsim.cache import MapCache
from xtrsim.cms import CountMinSketch
from xtrsim.limiter import Decision, DestRateLimiter, SourceRateLimiter
from xtrsim.xtr import PendingRequestTable, Xtr

from spans import SpanTotals, Taken


def _add_counts_keys(counts: Counter, args: tuple, result, ns: int) -> None:
    counts["cms.add_counts.keys"] += len(args[1])


def _estimate_many_keys(counts: Counter, args: tuple, result, ns: int) -> None:
    counts["cms.estimate_many.keys"] += len(args[1])


def _drop(counts: Counter, args: tuple, result, ns: int) -> None:
    counts["limiter.on_miss.drops"] += result is Decision.DROP


def _hit(counts: Counter, args: tuple, result, ns: int) -> None:
    counts["cache.lookup.hits"] += result is not None


def _eviction(counts: Counter, args: tuple, result, ns: int) -> None:
    counts["cache.install.evictions"] += result is not None


def _lines(counts: Counter, args: tuple, result, ns: int) -> None:
    counts["workloads.read_trace.lines"] += len(result)


def _router_run(counts: Counter, args: tuple, result, ns: int) -> None:
    """Per-arm packets and time, and counts read off the finished router."""
    xtr = args[0]
    config = xtr.config
    # The defended arm is the one with the source limiter (dos, overflow) or
    # the aging cache (scan).
    arm = "defended" if config.source_limiter_enabled or config.cache_policy == "lfu-aging" \
        else "undefended"
    counts[f"xtr.run.{arm}.packets"] += result.packets_in.total
    counts[f"xtr.run.{arm}.ns"] += ns
    counts["cache.trace.lines"] += len(xtr.cache.trace)
    counts["xtr.admitted_audit.entries"] = max(counts["xtr.admitted_audit.entries"],
                                               len(xtr.admitted_by_source_period))
    counts["xtr.nonce_table_overflows"] += result.nonce_table_overflows.total
    counts["xtr.map_requests_sent"] += result.map_requests_sent.total


OUTER = [
    ("experiment.run_sweep", experiment, "run_sweep", None),
    ("experiment.run_attack", experiment, "run_attack", None),
    ("experiment.sweep_csv", experiment, "sweep_csv", None),
    ("experiment.attack_csv", experiment, "attack_csv", None),
    ("cli.main", cli, "main", None),
    ("workloads.gen_miss_counts", experiment, "gen_miss_counts", None),
    ("workloads.gen_miss_counts", workloads, "gen_miss_counts", None),
    ("workloads.gen_dos_stream", experiment, "gen_dos_stream", None),
    ("workloads.gen_scan_stream", experiment, "gen_scan_stream", None),
    ("workloads.read_trace", cli, "read_trace", _lines),
    ("xtr.run", Xtr, "run", _router_run),
]

FULL = OUTER + [
    ("xtr.step", Xtr, "step", None),
    ("xtr.deliver_reply", Xtr, "deliver_reply", None),
    ("xtr.pending.insert", PendingRequestTable, "insert", None),
    ("xtr.pending.expire_due", PendingRequestTable, "expire_due", None),
    ("cache.lookup", MapCache, "lookup", _hit),
    ("cache.install", MapCache, "install", _eviction),
    ("limiter.on_miss", SourceRateLimiter, "on_miss", _drop),
    ("limiter.dest_consume", DestRateLimiter, "consume", None),
    ("cms.increment", CountMinSketch, "increment", None),
    ("cms.estimate", CountMinSketch, "estimate", None),
    ("cms.add_counts", CountMinSketch, "add_counts", _add_counts_keys),
    ("cms.estimate_many", CountMinSketch, "estimate_many", _estimate_many_keys),
]


@dataclass
class Level:
    """Spans and counts summed over the operations traced at one level."""

    ops: int = 0
    wall_ns: int = 0
    by_name: dict[str, SpanTotals] = field(default_factory=dict)
    by_edge: dict[tuple[str, str], SpanTotals] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)

    def add(self, taken: Taken, wall_ns: int) -> None:
        self.ops += 1
        self.wall_ns += wall_ns
        for into, source in ((self.by_name, taken.by_name), (self.by_edge, taken.by_edge)):
            for key, sums in source.items():
                into.setdefault(key, SpanTotals()).add(sums)
        audit = "xtr.admitted_audit.entries"
        peak = max(self.counts[audit], taken.counts[audit])
        self.counts.update(taken.counts)
        self.counts[audit] = peak

    def span(self, name: str) -> SpanTotals:
        return self.by_name.get(name, SpanTotals())

    def per_op(self, value: float) -> float:
        return value / self.ops if self.ops else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(full: Level, outer: Level, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    Times per call and self times come from the full level; entry-point times
    and per-arm rates from the outer level. Counts and ratios are exact and
    repeat from run to run. A layer the workload never calls reports 0.
    """
    def ns_per_call(name: str) -> float:
        return _ratio(full.span(name).total_ns, full.span(name).calls)

    def self_ns_per_call(name: str) -> float:
        return _ratio(full.span(name).self_ns, full.span(name).calls)

    def calls(name: str) -> float:
        return full.per_op(full.span(name).calls)

    def outer_s(*names: str) -> float:
        return outer.per_op(sum(outer.span(n).total_ns for n in names)) / 1e9

    def self_s(name: str) -> float:
        return full.per_op(full.span(name).self_ns) / 1e9

    def arm_rate(arm: str) -> float:
        return _ratio(outer.counts[f"xtr.run.{arm}.packets"],
                      outer.counts[f"xtr.run.{arm}.ns"] / 1e9)

    c = full.counts
    cms_self = sum(s.self_ns for n, s in full.by_name.items() if n.startswith("cms."))
    overflows = c["xtr.nonce_table_overflows"]
    return {
        "cms.add_counts.ns_per_key": (_ratio(full.span("cms.add_counts").total_ns,
                                             c["cms.add_counts.keys"]), "ns"),
        "cms.estimate_many.ns_per_key": (_ratio(full.span("cms.estimate_many").total_ns,
                                                c["cms.estimate_many.keys"]), "ns"),
        "cms.increment.ns_per_call": (ns_per_call("cms.increment"), "ns"),
        "cms.estimate.ns_per_call": (ns_per_call("cms.estimate"), "ns"),
        "cms.self_share": (_ratio(cms_self, full.wall_ns), "ratio"),
        "limiter.on_miss.calls": (calls("limiter.on_miss"), "count"),
        "limiter.on_miss.self_ns_per_call": (self_ns_per_call("limiter.on_miss"), "ns"),
        "limiter.on_miss.drop_ratio": (_ratio(c["limiter.on_miss.drops"],
                                              full.span("limiter.on_miss").calls), "ratio"),
        "limiter.dest_consume.ns_per_call": (ns_per_call("limiter.dest_consume"), "ns"),
        "cache.lookup.calls": (calls("cache.lookup"), "count"),
        "cache.lookup.ns_per_call": (ns_per_call("cache.lookup"), "ns"),
        "cache.lookup.hit_ratio": (_ratio(c["cache.lookup.hits"],
                                          full.span("cache.lookup").calls), "ratio"),
        "cache.install.calls": (calls("cache.install"), "count"),
        "cache.install.ns_per_call": (ns_per_call("cache.install"), "ns"),
        "cache.install.eviction_ratio": (_ratio(c["cache.install.evictions"],
                                                full.span("cache.install").calls), "ratio"),
        "cache.trace.lines": (full.per_op(c["cache.trace.lines"]), "count"),
        "xtr.step.calls": (calls("xtr.step"), "count"),
        "xtr.step.self_ns_per_call": (self_ns_per_call("xtr.step"), "ns"),
        "xtr.deliver_reply.ns_per_call": (ns_per_call("xtr.deliver_reply"), "ns"),
        "xtr.pending.insert.ns_per_call": (ns_per_call("xtr.pending.insert"), "ns"),
        "xtr.pending.expire_due.ns_per_call": (ns_per_call("xtr.pending.expire_due"), "ns"),
        "xtr.pending.overflow_ratio": (_ratio(overflows,
                                              overflows + c["xtr.map_requests_sent"]), "ratio"),
        "xtr.run.events_per_s.defended": (arm_rate("defended"), "1/s"),
        "xtr.run.events_per_s.undefended": (arm_rate("undefended"), "1/s"),
        "xtr.admitted_audit.entries": (float(c["xtr.admitted_audit.entries"]), "count"),
        "workloads.gen_miss_counts_s": (outer_s("workloads.gen_miss_counts"), "s"),
        "workloads.gen_dos_stream_s": (outer_s("workloads.gen_dos_stream"), "s"),
        "workloads.gen_scan_stream_s": (outer_s("workloads.gen_scan_stream"), "s"),
        "workloads.read_trace.ns_per_line": (_ratio(outer.span("workloads.read_trace").total_ns,
                                                    outer.counts["workloads.read_trace.lines"]),
                                             "ns"),
        "experiment.run_sweep.self_s": (self_s("experiment.run_sweep"), "s"),
        "experiment.run_attack.self_s": (self_s("experiment.run_attack"), "s"),
        "experiment.csv_s": (outer_s("experiment.sweep_csv", "experiment.attack_csv"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
