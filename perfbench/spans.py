"""In-memory spans for the traced run, recorded around the program's callables.

The launcher wraps each callable in :data:`TARGETS` where its caller looks
it up (a module attribute or a class attribute) before the service starts.
Each call records one span: id, name, parent id, start, end (monotonic
seconds, comparable across processes on one host) and optional attributes
taken from the arguments and result.  Parents follow the ``contextvars``
context, so they are exact within one thread or one asyncio task; a call
handed to an executor thread starts a new root.  Spans are only appended to
a list while the service runs and are written out at shutdown.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import time
from typing import Any, Callable

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: A span as recorded: (id, name, parent id or None, start, end, attrs or None).
Span = tuple


def _apply_batch_attrs(args: tuple, stats: Any) -> dict:
    return {
        "labels_changed": stats.labels_changed,
        "ancestors_touched": stats.ancestors_touched,
        "heap_pushes": stats.heap_pushes,
        "extra": dict(stats.extra),
    }


#: (module, attribute path, span name, attrs(args, result) or None).  The
#: commit root is the service's maintenance-thread step; its snapshot's
#: version ties every commit to the ``submit`` calls it acknowledged.
TARGETS: list[tuple[str, str, str, Callable[[tuple, Any], dict] | None]] = [
    ("repro.serve.service", "QueryService.distance", "service.distance", None),
    ("repro.serve.service", "QueryService.batch_distance", "service.batch_distance", None),
    ("repro.serve.service", "QueryService.submit", "service.submit",
     lambda args, version: {"version": version}),
    ("repro.serve.service", "QueryService._apply_labelled", "service.commit",
     lambda args, snap: {"version": snap.version}),
    ("repro.core.snapshot", "LabelSnapshot.distance", "snapshot.distance", None),
    ("repro.core.snapshot", "LabelSnapshot.batch_distances", "snapshot.batch_distances", None),
    ("repro.core.snapshot", "LabelSnapshot.capture", "snapshot.capture", None),
    ("repro.core.snapshot", "query_distance", "query.query_distance", None),
    ("repro.core.kernels", "batch_query", "kernel.batch_query", None),
    ("repro.core.labelling", "STLLabels.snapshot_store", "labels.snapshot_store",
     lambda args, store: {"bytes": store.store_bytes()}),
    ("repro.core.stl", "StableTreeLabelling.adopt_labels", "stl.adopt_labels", None),
    ("repro.core.stl", "StableTreeLabelling.apply_batch", "stl.apply_batch", _apply_batch_attrs),
    ("repro.graph.updates", "UpdateBatch.coalesce", "maint.coalesce", None),
    ("repro.core.label_search", "LabelSearchIncrease.apply", "engine.ls_update", None),
    ("repro.core.label_search", "LabelSearchDecrease.apply", "engine.ls_update", None),
    ("repro.core.pareto_search", "ParetoSearchIncrease.apply", "engine.pareto_update", None),
    ("repro.core.pareto_search", "ParetoSearchDecrease.apply", "engine.pareto_update", None),
    ("repro.core.batch_label_search", "BatchedLabelSearchEngine.apply", "engine.batched_ls", None),
    ("repro.core.batch", "BatchedParetoEngine.apply", "engine.batched_pareto", None),
    ("repro.core.shard", "ShardedBatchEngine.apply", "engine.thread", None),
    ("repro.core.parallel", "ProcessShardBackend.apply", "engine.process", None),
] + [
    (module, function, f"maint.{function.split('_')[0]}", None)
    for module in (
        "repro.core.label_search",
        "repro.core.batch_label_search",
        "repro.core.shard",
        "repro.core.parallel",
    )
    for function in (
        "seed_decrease_queues",
        "seed_affected_queues",
        "drain_decrease_queues",
        "drain_affected_queues",
        "repair_affected_entries",
    )
]


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn: Callable, attrs: Callable[[tuple, Any], dict] | None = None):
        """``fn`` with a span around every call (coroutine functions too)."""
        clock, spans, ids = self.clock, self.spans, self._ids

        def finish(sid, parent, token, start, args, result, ok):
            end = clock()
            _current.reset(token)
            spans.append((sid, name, parent, start, end, attrs(args, result) if ok and attrs else None))

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                sid, parent = next(ids), _current.get()
                token, start = _current.set(sid), clock()
                ok, result = False, None
                try:
                    result = await fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    finish(sid, parent, token, start, args, result, ok)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = next(ids), _current.get()
            token, start = _current.set(sid), clock()
            ok, result = False, None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                finish(sid, parent, token, start, args, result, ok)

        return traced

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target that exists; returns the ones that do not."""
        missing = []
        for module_name, path, name, attrs in targets:
            try:
                owner: Any = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, attrs)))
            else:
                setattr(owner, attr, self.wrap(name, raw, attrs))
        return missing


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _name, parent, start, end, _attrs in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, _parent, start, end, _attrs in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out
