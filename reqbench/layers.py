"""Per-layer metrics of the traced run.

Times come from the spans of :mod:`spans`; counts come from the layers'
own counters (query cache, admission controller, shard router, journal
file sizes) and from ``rdb.rows_scanned`` / ``rdb.rows_returned``, read
through :mod:`repro.obs`, which is enabled for separate obs-counted
chunks only.

``*_us`` metrics are the mean time per call of that entry point;
``*_share`` metrics are a share of all traced request time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from repro.obs import instrument
from repro.obs.metrics import MetricsRegistry

from spans import END, NAME, PARENT, REQUEST, START, self_times

#: (metric, unit) in report order; every one is emitted for every
#: workload, as 0 where the layer is not on the workload's path.
METRICS: tuple[tuple[str, str], ...] = (
    ("protocol.codec_us", "us"),
    ("protocol.wire_bytes", "bytes"),
    ("admission.admit_us", "us"),
    ("admission.complete_us", "us"),
    ("admission.shed", "count"),
    ("server.self_us", "us"),
    ("server.share", "ratio"),
    ("cache.select_us", "us"),
    ("cache.self_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "1/req"),
    ("stale_cache.record_us", "us"),
    ("rdb.select_us", "us"),
    ("rdb.selects_per_req", "1/req"),
    ("rdb.write_us", "us"),
    ("rdb.rows_scanned_per_row", "ratio"),
    ("rdb.codegen_us", "us"),
    ("rdb.codegen_calls_per_req", "1/req"),
    ("wal.append_us", "us"),
    ("wal.fsync_us", "us"),
    ("wal.fsyncs_per_write", "1/write"),
    ("wal.bytes_per_write", "bytes"),
    ("library.search_us", "us"),
    ("library.search_share", "ratio"),
    ("library.circulation_us", "us"),
    ("shards.select_us", "us"),
    ("shards.fragments_per_select", "count"),
    ("shards.twopc_ratio", "ratio"),
    ("sharding.participant_us", "us"),
    ("sharding.journal_bytes_per_write", "bytes"),
    ("trace.uncovered_us", "us"),
    ("trace.uncovered_share", "ratio"),
    ("trace.overhead", "ratio"),
)


class Probe:
    """Counter deltas over the traced chunks, and ``rdb.rows_scanned``
    over separate chunks run with :mod:`repro.obs` enabled (kept apart
    so the metric registry's own cost stays out of the span times)."""

    def __init__(self, system: Any) -> None:
        self.system = system
        self.registry = MetricsRegistry()
        self.deltas: dict[str, float] = defaultdict(float)
        self.wire_bytes = 0
        self.writes = 0
        self._before: dict[str, float] = {}

    def start(self) -> None:
        self._before = self.system.counters()

    def stop(self, ops: list) -> None:
        after = self.system.counters()
        for key, value in after.items():
            self.deltas[key] += value - self._before[key]
        self.wire_bytes += sum(self.system.wire_bytes(op) for op in ops)
        self.writes += sum(1 for op in ops if not op.is_read)

    def obs_on(self) -> None:
        instrument.enable(registry=self.registry)

    def obs_off(self) -> None:
        instrument.disable()

    def obs_total(self, name: str) -> float:
        return self.registry.snapshot().counter_total(name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list[list[Any]], probe: Probe, plain: Any, traced: Any
              ) -> tuple[dict, list, list[str]]:
    """Per-layer metrics (JSON form), table rows and any problems."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_sum: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, own):
        name = span[NAME]
        calls[name] += 1
        total[name] += span[END] - span[START]
        self_sum[name] += self_s
    fragments = sum(
        1 for span in spans
        if span[NAME] == "sharding.participant" and span[PARENT] >= 0
        and spans[span[PARENT]][NAME] == "shards.select"
    )

    requests = calls["request"]
    request_s = total["request"]
    d = probe.deltas

    def per_call(*names: str) -> tuple[float, int]:
        n = sum(calls[x] for x in names)
        return _ratio(sum(total[x] for x in names), n) * 1e6, n

    def self_per_call(name: str) -> tuple[float, int]:
        return _ratio(self_sum[name], calls[name]) * 1e6, calls[name]

    lookups = d["cache_hits"] + d["cache_misses"]
    writes_routed = d["direct_writes"] + d["twopc_writes"]
    values: dict[str, tuple[float, int]] = {
        "protocol.codec_us": (
            _ratio(total["protocol.to_wire"] + total["protocol.from_wire"],
                   requests) * 1e6, requests),
        "protocol.wire_bytes": (_ratio(probe.wire_bytes, requests), requests),
        "admission.admit_us": per_call("admission.admit"),
        "admission.complete_us": per_call("admission.complete"),
        "admission.shed": (d["shed"], requests),
        "server.self_us": self_per_call("server.handle"),
        "server.share": (_ratio(self_sum["server.handle"], request_s),
                         requests),
        "cache.select_us": per_call("cache.select"),
        "cache.self_us": self_per_call("cache.select"),
        "cache.hit_ratio": (_ratio(d["cache_hits"], lookups), int(lookups)),
        "cache.evictions": (
            _ratio(d["cache_misses"] - d["cache_entries"], requests),
            requests),
        "stale_cache.record_us": per_call("stale_cache.record"),
        "rdb.select_us": per_call("rdb.select"),
        "rdb.selects_per_req": (_ratio(calls["rdb.select"], requests),
                                requests),
        "rdb.write_us": per_call("rdb.insert", "rdb.update", "rdb.delete"),
        "rdb.rows_scanned_per_row": (
            _ratio(probe.obs_total("rdb.rows_scanned"),
                   probe.obs_total("rdb.rows_returned")),
            int(probe.obs_total("rdb.rows_returned"))),
        "rdb.codegen_us": per_call("rdb.codegen"),
        "rdb.codegen_calls_per_req": (_ratio(calls["rdb.codegen"], requests),
                                      requests),
        "wal.append_us": per_call("wal.append"),
        "wal.fsync_us": per_call("wal.fsync"),
        "wal.fsyncs_per_write": (_ratio(calls["wal.fsync"], probe.writes),
                                 probe.writes),
        "wal.bytes_per_write": (
            _ratio(d["journal_bytes"], probe.writes)
            if not writes_routed else 0.0, probe.writes),
        "library.search_us": per_call("library.search"),
        "library.search_share": (_ratio(total["library.search"], request_s),
                                 requests),
        "library.circulation_us": per_call("library.circulation"),
        "shards.select_us": per_call("shards.select"),
        "shards.fragments_per_select": (
            _ratio(fragments, calls["shards.select"]), calls["shards.select"]),
        "shards.twopc_ratio": (_ratio(d["twopc_writes"], writes_routed),
                               int(writes_routed)),
        "sharding.participant_us": per_call("sharding.participant"),
        "sharding.journal_bytes_per_write": (
            _ratio(d["journal_bytes"], probe.writes)
            if writes_routed else 0.0, probe.writes),
        "trace.uncovered_us": self_per_call("request"),
        "trace.uncovered_share": (_ratio(self_sum["request"], request_s),
                                  requests),
        "trace.overhead": (
            _ratio(plain.completed / plain.busy_s,
                   traced.completed / traced.busy_s) - 1.0,
            plain.completed + traced.completed),
    }
    metrics = {name: {"value": values[name][0], "unit": unit}
               for name, unit in METRICS}
    rows = [(name, values[name][0], unit, values[name][1])
            for name, unit in METRICS]
    rows_sample, problems = sample_breakdown(spans, own)
    return metrics, rows + rows_sample, problems


def sample_breakdown(spans: list[list[Any]], own: list[float]
                     ) -> tuple[list, list[str]]:
    """Layer self times of the median-length traced request, with the
    uncovered remainder; they must add up to the request's duration."""
    roots = [i for i, s in enumerate(spans) if s[NAME] == "request"]
    if not roots:
        return [], ["traced run recorded no requests"]
    roots.sort(key=lambda i: spans[i][END] - spans[i][START])
    root = roots[len(roots) // 2]
    request_id = spans[root][REQUEST]
    by_layer: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        if span[REQUEST] == request_id and i != root:
            by_layer[span[NAME]] += own[i]
    duration = spans[root][END] - spans[root][START]
    rows = [(f"sample.{name}", by_layer[name] * 1e6, "us", 1)
            for name in sorted(by_layer)]
    rows.append(("sample.uncovered", own[root] * 1e6, "us", 1))
    added = sum(by_layer.values()) + own[root]
    rows.append(("sample.request", duration * 1e6, "us", 1))
    problems = []
    if abs(added - duration) > 1e-9 + 1e-6 * duration:
        problems.append(
            f"sampled request: self times add to {added!r}s, "
            f"duration is {duration!r}s")
    return rows, problems
