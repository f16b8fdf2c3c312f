"""Span recorder for the traced run, kept in the benchmark's own files.

The recorder wraps the public entry points of each layer of the request
path (see :data:`ENTRY_POINTS`) and records one span per call: name,
start, end, parent span and request id.  Spans stay in memory as plain
lists and are summarised (or written out) after the run.  Nothing in the
program's source is changed: wrapping patches class and module
attributes for the traced chunks only and restores them afterwards, so
untraced chunks run the program's own functions.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  The benchmark opens a root ``request``
span around each request; the root's self time is the part of the
request no layer span covers, which is reported rather than hidden.
"""

from __future__ import annotations

import importlib
import os
import time
from typing import Any, Callable, Iterable

#: (module, owner attribute or None for a module-level function,
#: attribute, span name).  ``predicate_fn`` / ``batch_filter`` are
#: wrapped where ``rdb.engine`` and ``rdb.query`` import them by name,
#: because those modules call their own bound names.
ENTRY_POINTS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.tiers.protocol", "Request", "to_wire", "protocol.to_wire"),
    ("repro.tiers.protocol", "Request", "from_wire", "protocol.from_wire"),
    ("repro.admission.controller", "AdmissionController", "admit",
     "admission.admit"),
    ("repro.admission.controller", "AdmissionController", "complete",
     "admission.complete"),
    ("repro.tiers.server", "ClassAdministrator", "handle", "server.handle"),
    ("repro.tiers.cache", "QueryCache", "select", "cache.select"),
    ("repro.tiers.cache", "StaleReadCache", "record", "stale_cache.record"),
    ("repro.rdb.engine", "Database", "select", "rdb.select"),
    ("repro.rdb.engine", "Database", "insert", "rdb.insert"),
    ("repro.rdb.engine", "Database", "update", "rdb.update"),
    ("repro.rdb.engine", "Database", "delete", "rdb.delete"),
    ("repro.rdb.engine", None, "predicate_fn", "rdb.codegen"),
    ("repro.rdb.engine", None, "batch_filter", "rdb.codegen"),
    ("repro.rdb.query", None, "batch_filter", "rdb.codegen"),
    ("repro.rdb.wal", "Journal", "append", "wal.append"),
    ("repro.rdb.wal", "Journal", "append_2pc", "wal.append_2pc"),
    ("repro.library.catalog", "VirtualLibrary", "search", "library.search"),
    ("repro.library.circulation", "CirculationDesk", "check_out",
     "library.circulation"),
    ("repro.library.circulation", "CirculationDesk", "check_in",
     "library.circulation"),
    ("repro.tiers.shards", "ShardedDatabase", "get", "shards.get"),
    ("repro.tiers.shards", "ShardedDatabase", "select", "shards.select"),
    ("repro.tiers.shards", "ShardedDatabase", "insert", "shards.insert"),
    ("repro.tiers.shards", "ShardedDatabase", "transact", "shards.transact"),
    ("repro.sharding.coordinator", "TwoPhaseCoordinator", "run",
     "sharding.coordinator"),
    ("repro.sharding.participant", "ShardParticipant", "execute",
     "sharding.participant"),
    ("repro.sharding.participant", "ShardParticipant", "prepare",
     "sharding.participant"),
    ("repro.sharding.participant", "ShardParticipant", "commit",
     "sharding.participant"),
    ("repro.sharding.participant", "ShardParticipant", "abort",
     "sharding.participant"),
    ("repro.sharding.participant", "ShardParticipant", "get",
     "sharding.participant"),
    ("repro.sharding.participant", "ShardParticipant", "select",
     "sharding.participant"),
)

# Span record layout (a list, for cheap appends in the hot path).
NAME, START, END, PARENT, REQUEST = range(5)


class SpanRecorder:
    """Nested spans on one thread, in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list[Any]] = []
        self.request_id: int | None = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.request_id])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack.pop()

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return traced

    def fsync(self, fd: int) -> None:
        """A timed ``os.fsync`` for ``SyncPolicy("commit", fsync=...)``."""
        index = self.begin("wal.fsync")
        try:
            os.fsync(fd)
        finally:
            self.end(index)


class FsyncHook:
    """The ``fsync`` a durable system is built with.

    Untraced chunks call ``os.fsync`` directly; traced chunks route the
    same call through :meth:`SpanRecorder.fsync`.  Either way the data
    reaches stable storage.
    """

    def __init__(self) -> None:
        self.target: Callable[[int], None] = os.fsync

    def __call__(self, fd: int) -> None:
        self.target(fd)


class Patches:
    """Install span wrappers on the layer entry points, and undo them."""

    def __init__(self, recorder: SpanRecorder, hook: FsyncHook) -> None:
        self.recorder = recorder
        self.hook = hook
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._saved:
            return
        for module_name, owner_name, attr, span in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self.recorder.wrap(raw.__func__, span))
            else:
                wrapped = self.recorder.wrap(raw, span)
            setattr(owner, attr, wrapped)
        self.hook.target = self.recorder.fsync

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        self.hook.target = os.fsync


def _covered(start: float, end: float,
             intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END])
            )
    return [
        (span[END] - span[START])
        - _covered(span[START], span[END], children.get(i, ()))
        for i, span in enumerate(spans)
    ]
