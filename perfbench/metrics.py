"""Turn one measured server run into end-to-end and per-layer metrics."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

from drive import LoadResult
from spans import self_times

#: Percentiles the benchmark knows how to name, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: A run is flagged when the generator sent its p99 request this late...
LAG_LIMIT_MS = 10.0
#: ...or when updates' queue wait in the window's last quarter exceeds the
#: first quarter's by this factor and by BACKLOG_MIN_GROWTH_S seconds.
BACKLOG_FACTOR, BACKLOG_MIN_GROWTH_S = 1.5, 0.1

#: The end-to-end metrics a regression bound is set on.
END_TO_END = {
    "setup_s": "s",
    "query_p50_us": "us",
    "batch_query_p50_us": "us",
    "update_visible_p50_ms": "ms",
    "server_cpu_s": "s",
    "server_peak_rss_mb": "MB",
}
#: Tail latencies: printed by every run, reported as metrics by the traced
#: run (from its untraced half) but not bounded, because on a shared 2-CPU
#: host they spread run to run far beyond any useful regression bound
#: (read p99 2.1-14 ms on read_mix across otherwise identical runs).
TAILS = {
    "query_p99_us": "us",
    "batch_query_p90_us": "us",
    "update_visible_p90_ms": "ms",
}

ENGINES = {
    "engine.ls_update": "loop",
    "engine.pareto_update": "loop",
    "engine.batched_ls": "batched_ls",
    "engine.batched_pareto": "batched_pareto",
    "engine.thread": "thread",
    "engine.process": "process",
}
POLICY_CELLS = ("loop", "batched_ls", "batched_pareto", "thread", "process", "rebuild")
#: Engine cells, outermost first: a sharded engine may run a serial one inside.
OUTERMOST_FIRST = ("process", "thread", "batched_pareto", "batched_ls", "loop")
READ_PREFIXES = ("service.distance", "service.batch", "snapshot.distance", "snapshot.batch",
                 "query.", "kernel.")
#: The commit's child spans whose union the update coverage share counts.
COMMIT_PARTS = {"maint.coalesce", "labels.snapshot_store", "stl.adopt_labels", "snapshot.capture"}
COMMIT_PARTS |= set(ENGINES)


def _rank(q: float, count: int) -> int:
    """1-based nearest rank of percentile ``q`` (tolerant of float error)."""
    return max(1, math.ceil(q * count / 100.0 - 1e-9))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in percent); 0.0 for no values."""
    if not values:
        return 0.0
    return sorted(values)[_rank(q, len(values)) - 1]


def supported_percentile(count: int) -> float | None:
    """The highest of :data:`PERCENTILES` with at least ten samples beyond it."""
    best = None
    for q in PERCENTILES:
        if count - _rank(q, count) >= 10:
            best = q
    return best


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class Measured:
    """Everything one server run produced."""

    setups: list[float]
    load_s: float
    load: LoadResult
    rss_mb: float
    stats: dict
    attempted: dict[str, int]
    spans: list = field(default_factory=list)
    store_bytes: int = 0


def latencies(run: Measured, op: str) -> list[float]:
    """Seconds, answered requests of ``op`` due inside the timed window."""
    lo, hi = run.load.window
    return [
        s.latency
        for s in run.load.samples
        if s.op == op and s.latency is not None and (op == "probe_update" or lo <= s.due < hi)
    ]


def update_op(run: Measured) -> str:
    return "probe_update" if run.attempted.get("probe_update") else "update"


def end_to_end(run: Measured) -> dict[str, float]:
    """Every metric of :data:`END_TO_END` and :data:`TAILS`."""
    query = latencies(run, "query")
    batch = latencies(run, "batch_query")
    update = latencies(run, update_op(run))
    return {
        "setup_s": _median(run.setups),
        "query_p50_us": percentile(query, 50) * 1e6,
        "batch_query_p50_us": percentile(batch, 50) * 1e6,
        "update_visible_p50_ms": percentile(update, 50) * 1e3,
        "server_cpu_s": run.load.cpu_s,
        "server_peak_rss_mb": run.rss_mb,
        "query_p99_us": percentile(query, 99) * 1e6,
        "batch_query_p90_us": percentile(batch, 90) * 1e6,
        "update_visible_p90_ms": percentile(update, 90) * 1e3,
    }


def op_counts(run: Measured) -> dict[str, dict[str, int]]:
    """Per op: scheduled (attempted), answered ok, and failed."""
    out = {}
    for op, attempted in run.attempted.items():
        ok = sum(1 for s in run.load.samples if s.op == op and s.latency is not None)
        out[op] = {"sent": attempted, "answered": ok, "failed": attempted - ok}
    return out


def lag_p99_ms(run: Measured) -> float:
    lo, hi = run.load.window
    return percentile([s.lag for s in run.load.samples if lo <= s.due < hi], 99) * 1e3


def validity(run: Measured) -> list[str]:
    """Reasons this run's numbers are not valid (empty when they are)."""
    problems = []
    lag = lag_p99_ms(run)
    if lag > LAG_LIMIT_MS:
        problems.append(f"generator lagged: p99 {lag:.1f} ms > {LAG_LIMIT_MS} ms")
    # An update waits in the server's queue until the previous one on its
    # connection is answered; that wait growing over the window is a
    # backlog, whatever the (rush-hour ramped) service times do.
    lo, hi = run.load.window
    quarter = (hi - lo) / 4.0
    waits, previous_done = [], -math.inf
    for s in sorted((s for s in run.load.samples if s.op == "update"), key=lambda s: s.due):
        if s.latency is None:
            continue
        waits.append((s.due, max(0.0, previous_done - s.due)))
        previous_done = s.due + s.latency
    first = [w for due, w in waits if lo <= due < lo + quarter]
    last = [w for due, w in waits if hi - quarter <= due < hi]
    if first and last:
        a, b = _median(first), _median(last)
        if b > BACKLOG_FACTOR * a and b - a > BACKLOG_MIN_GROWTH_S:
            problems.append(f"update queue wait grew: {a * 1e3:.0f} -> {b * 1e3:.0f} ms")
    return problems


def _contained(spans: list, start: float, end: float) -> list:
    return [s for s in spans if s[3] >= start and s[4] <= end]


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, -math.inf
    for a, b in sorted(intervals):
        a = max(a, reach)
        if b > a:
            covered += b - a
            reach = b
    return covered


def per_layer(traced: Measured, untraced: Measured) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced run, with overhead and coverage."""
    window_start = traced.load.start + traced.load.window[0]
    spans = [s for s in traced.spans if s[3] >= window_start]
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    # Write-side spans only: what a commit or batch interval can contain.
    writes = [s for s in spans if not s[1].startswith(READ_PREFIXES)]

    def durations(name: str, scale: float) -> list[float]:
        return [(s[4] - s[3]) * scale for s in by_name.get(name, ())]

    out: dict[str, tuple[float, str]] = {}
    e2e_traced, e2e_untraced = end_to_end(traced), end_to_end(untraced)
    for name, unit in (
        ("service.distance", "us"),
        ("snapshot.distance", "us"),
        ("query.query_distance", "us"),
        ("service.batch_distance", "us"),
        ("snapshot.batch_distances", "us"),
        ("kernel.batch_query", "us"),
        ("service.submit", "ms"),
        ("labels.snapshot_store", "ms"),
        ("snapshot.capture", "ms"),
        ("stl.adopt_labels", "ms"),
        ("stl.apply_batch", "ms"),
        ("maint.coalesce", "ms"),
    ):
        out[f"{name}.{unit}"] = (_median(durations(name, 1e6 if unit == "us" else 1e3)), unit)
    out["wire.query_overhead_us"] = (
        e2e_traced["query_p50_us"] - out["service.distance.us"][0], "us"
    )
    out["stl.apply_batch.ms_p90"] = (percentile(durations("stl.apply_batch", 1e3), 90), "ms")

    stats = traced.stats
    fast, fallback = stats["fast_queries"], stats["fallback_queries"]
    out["service.fast_share"] = (fast / (fast + fallback) if fast + fallback else 0.0, "ratio")
    batches = stats["batches_committed"]
    out["service.updates_per_commit"] = (
        stats["updates_committed"] / batches if batches else 0.0, "count"
    )

    commits = {s[5]["version"]: s for s in by_name.get("service.commit", ()) if s[5]}
    waits = [
        (s[4] - s[3]) - (commits[s[5]["version"]][4] - commits[s[5]["version"]][3])
        for s in by_name.get("service.submit", ())
        if s[5] and s[5]["version"] in commits
    ]
    out["service.queue_wait.ms"] = (_median(waits) * 1e3, "ms")
    copied = sum(s[5]["bytes"] for s in by_name.get("labels.snapshot_store", ()) if s[5])
    out["labels.snapshot_store.mb_copied"] = (copied / 2**20, "MB")

    # Each apply_batch owns the engine and maintenance spans inside its
    # interval: batches run one at a time on the maintenance thread, but a
    # sharded engine's workers record root spans on pool threads.
    cells = dict.fromkeys(POLICY_CELLS, 0)
    per_batch: dict[str, list[float]] = {}
    counters = {"labels_changed": 0, "ancestors_touched": 0, "heap_pushes": 0}
    for batch in by_name.get("stl.apply_batch", ()):
        attrs = batch[5] or {}
        for key in counters:
            counters[key] += attrs.get(key, 0)
        inner = _contained(writes, batch[3], batch[4])
        totals: dict[str, float] = {}
        for span in inner:
            if span[1] in ENGINES or (span[1].startswith("maint.") and span[1] != "maint.coalesce"):
                totals[span[1]] = totals.get(span[1], 0.0) + (span[4] - span[3])
        for name, total in totals.items():
            per_batch.setdefault(name, []).append(total * 1e3)
        # The outermost engine names the cell; a loop over updates that all
        # netted to no-ops runs no engine at all.
        ran = {ENGINES[name] for name in totals if name in ENGINES}
        if attrs.get("extra", {}).get("rebuild_fallback"):
            cells["rebuild"] += 1
        else:
            cells[next((c for c in OUTERMOST_FIRST if c in ran), "loop")] += 1
    for cell, count in cells.items():
        out[f"policy.{cell}"] = (float(count), "count")
    for name in (*ENGINES, "maint.seed", "maint.drain", "maint.repair"):
        out[f"{name}.ms"] = (_median(per_batch.get(name, [])), "ms")
    for key, total in counters.items():
        out[f"maint.{key}"] = (float(total), "count")

    out["build.hierarchy_s"] = (stats["build_hierarchy_seconds"], "s")
    out["build.labels_s"] = (stats["build_label_seconds"], "s")
    out["build.workers"] = (float(stats["build_workers"]), "count")
    out["setup.load_s"] = (traced.load_s, "s")
    out["labels.store_mb"] = (traced.store_bytes / 2**20, "MB")
    out["gen.lag_p99_ms"] = (lag_p99_ms(traced), "ms")

    commit_cover = [
        _union([(s[3], s[4]) for s in _contained(writes, c[3], c[4]) if s[1] in COMMIT_PARTS])
        for c in commits.values()
    ]
    visible = e2e_traced["update_visible_p50_ms"]
    out["coverage.update_visible_share"] = (
        _median(commit_cover) * 1e3 / visible if visible else 0.0, "ratio"
    )
    query_p50 = e2e_traced["query_p50_us"]
    out["coverage.query_share"] = (
        out["service.distance.us"][0] / query_p50 if query_p50 else 0.0, "ratio"
    )
    for name, unit in TAILS.items():
        out[f"untraced.{name}"] = (e2e_untraced[name], unit)
    for name, unit in (END_TO_END | TAILS).items():
        out[f"overhead.{name}"] = (e2e_traced[name] - e2e_untraced[name], unit)
    self_total = self_times(spans)
    out["service.distance.self_us"] = (
        _median([self_total[s[0]] * 1e6 for s in by_name.get("service.distance", ())]), "us"
    )
    return out


def report_lines(label: str, run: Measured) -> list[str]:
    """Human-readable per-op counts, sample support and validity of a run."""
    lines = [f"[{label}] setup {', '.join(f'{s:.3f}' for s in run.setups)} s"]
    for op, c in op_counts(run).items():
        lines.append(
            f"[{label}] {op}: sent {c['sent']} answered {c['answered']} failed {c['failed']}"
        )
    for op in ("query", "batch_query", update_op(run)):
        n = len(latencies(run, op))
        best = supported_percentile(n)
        lines.append(
            f"[{label}] {op}: {n} timed samples; highest percentile with >=10 beyond: "
            f"{'none' if best is None else f'p{best:g}'}"
        )
    lines.append(f"[{label}] gen.lag_p99_ms {lag_p99_ms(run):.3f}")
    problems = validity(run)
    lines.append(f"[{label}] valid: {'yes' if not problems else 'NO: ' + '; '.join(problems)}")
    return lines
