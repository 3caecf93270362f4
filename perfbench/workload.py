"""Seeded workload inputs: road network, read schedule and update stream.

Everything a run sends is generated here before the server starts: the
network and rush_hour's hotspot cycles from :data:`FIXED_SEED`, the rest of
the traffic from the workload seed, so one seed always yields the same
inputs.  The server only ever sees the results: the graph as a DIMACS file
and the requests over the wire.

Reads are identical in every workload (same rates, same pair distribution),
so the write side's interference with reads shows by comparing workloads.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.graph.generators import highway_grid_network
from repro.graph.graph import Graph
from repro.workloads.updates import rush_hour_stream

#: Open-loop read rates, frozen once measured on the first benchmark
#: commit: ~1,000 point queries/s plus ~16 dispatch lookups/s of 64 pairs
#: from one source.  Alone they keep the server ~18% busy, so the read
#: tail reflects interference, not saturation.
QUERY_RATE = 1000.0
BATCH_RATE = 16.0
BATCH_PAIRS = 64

#: Single-edge updates per second on ``trickle``.  Each commit costs the
#: 10k service ~110-170 ms (label-store copy plus graph copy) and stalls
#: reads while it runs.  At 5/s the server was ~65% busy; even at 2.5/s
#: (~35% of the time in commits) read p50 swung from 1.2 to 7 ms between
#: otherwise identical runs.  At 1.5/s commits take ~20% of the time.
TRICKLE_RATE = 1.5
#: Seconds between rush-hour step requests.  A ~200-update step costs the
#: 5k index 0.1-1.3 s of maintenance (0.45 s mean on the fixed stream
#: below), so one step per second with the read load kept the server ~65%
#: busy; every 1.5 s left only 13 steps in a 20 s window, too few for a
#: steady median.  1.25 s keeps it under 60% busy with 16 timed steps.
RUSH_STEP_SECONDS = 1.25
#: ``rush_hour_stream`` shape for each cycle.
RUSH_STEPS, RUSH_HOTSPOTS, RUSH_RADIUS = 12, 3, 4
#: The road networks and rush_hour's hotspot cycles come from this fixed
#: seed; the workload seed drives the traffic (read pairs, batch sources,
#: trickle edges and weights).  Generated networks differ enough in query
#: and maintenance cost that run-to-run spread across seeds (read p50
#: IQR/median ~0.2 with only the network varying, rush-hour step cost
#: 0.2) would exceed any regression bound, and rush-hour cost is
#: heavy-tailed in which arterial edges the hotspots hit (mean step cost
#: 0.4-1.1 s across hotspot seeds, IQR/median 0.6).
FIXED_SEED = 2025

#: Seconds of traffic sent before timing starts, so lazy set-up is done:
#: numpy views over the label store, the first JSON encode, the shard
#: thread pool's first batch and the commit path's first shadow copy.
WARMUP_SECONDS = 2.0

#: Closed-loop single-edge updates sent on read_mix by each server a run
#: starts: after the read window on the measured one, after ``ready`` on
#: the extra set-up ones.  So the workload still reports update-to-visible
#: (with no reads contending) while its timed reads run on an index nothing
#: writes to.  Commit latency differs ~10% between server processes, hence
#: the spread over several.
PROBE_UPDATES = 20


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    vertices: int
    updates: str  # "none" | "trickle" | "rush_hour"
    why: str


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "read_mix",
            10_000,
            "none",
            "reads only (1,000 queries/s + 16 batch queries/s) on a 10k network: isolates "
            "wire, service read side, snapshot and query kernels; nothing writes while "
            "timed",
        ),
        WorkloadSpec(
            "trickle",
            10_000,
            "trickle",
            "same reads plus 1.5 single-edge updates/s on a 10k network: the commit path "
            "(label-store copy, graph copy, publish) dominates update-to-visible",
        ),
        WorkloadSpec(
            "rush_hour",
            5_000,
            "rush_hour",
            "same reads plus a ~200-update rush-hour step every 1.25 s on a 5k network: "
            "batch maintenance engines and policy dominate; serial build",
        ),
    )
}


@dataclass
class Request:
    """One scheduled request: when it is due (seconds after the schedule
    starts), its op, the encoded wire line, and what the oracle needs."""

    due: float
    op: str
    line: bytes
    args: tuple


def _line(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("ascii") + b"\n"


def make_graph(spec: WorkloadSpec) -> Graph:
    return highway_grid_network(spec.vertices, seed=FIXED_SEED)


def read_schedule(num_vertices: int, seed: int, seconds: float) -> list[Request]:
    """Evenly spaced point queries merged with evenly spaced batch queries."""
    rng = random.Random(f"reads-{seed}")
    requests = []
    for i in range(int(seconds * QUERY_RATE)):
        s, t = rng.randrange(num_vertices), rng.randrange(num_vertices)
        requests.append(
            Request(i / QUERY_RATE, "query", _line({"op": "query", "s": s, "t": t}), (s, t))
        )
    for j in range(int(seconds * BATCH_RATE)):
        source = rng.randrange(num_vertices)
        pairs = [(source, rng.randrange(num_vertices)) for _ in range(BATCH_PAIRS)]
        requests.append(
            Request(
                (j + 0.5) / BATCH_RATE,
                "batch_query",
                _line({"op": "batch_query", "pairs": pairs}),
                tuple(pairs),
            )
        )
    requests.sort(key=lambda r: r.due)
    return requests


def _update(due: float, triples: list[tuple[int, int, float]]) -> Request:
    return Request(due, "update", _line({"op": "update", "updates": triples}), tuple(triples))


def trickle_updates(graph: Graph, tag: str, count: int, rate: float) -> list[Request]:
    """``count`` single-edge updates at ``rate``/s on uniform random edges.

    Each new weight is the edge's *base* weight times a factor in [0.5, 2],
    at one decimal place, so weights stay bounded however long the stream.
    """
    rng = random.Random(tag)
    edges = sorted(graph.edges())
    requests = []
    for i in range(count):
        u, v, base = edges[rng.randrange(len(edges))]
        weight = max(0.1, round(base * rng.uniform(0.5, 2.0), 1))
        requests.append(_update(i / rate, [(u, v, weight)]))
    return requests


def rush_hour_updates(graph: Graph, seconds: float) -> list[Request]:
    """Successive rush-hour cycles, one request per non-empty step.

    Every cycle nets to zero, so each one is generated from the base
    weights with its own seed derived from :data:`FIXED_SEED`.
    """
    requests: list[Request] = []
    cycle = 0
    while len(requests) * RUSH_STEP_SECONDS < seconds:
        stream = rush_hour_stream(
            graph.copy(),
            num_steps=RUSH_STEPS,
            num_hotspots=RUSH_HOTSPOTS,
            radius=RUSH_RADIUS,
            seed=FIXED_SEED * 1_000 + cycle,
        )
        for batch in stream:
            if len(batch) and len(requests) * RUSH_STEP_SECONDS < seconds:
                triples = [(u.u, u.v, u.new_weight) for u in batch.updates]
                requests.append(_update(len(requests) * RUSH_STEP_SECONDS, triples))
        cycle += 1
    return requests


def update_schedule(spec: WorkloadSpec, graph: Graph, seed: int, seconds: float) -> list[Request]:
    """The open-loop update stream sent during warm-up and the timed window."""
    if spec.updates == "trickle":
        return trickle_updates(
            graph, f"trickle-{seed}", int(seconds * TRICKLE_RATE), TRICKLE_RATE
        )
    if spec.updates == "rush_hour":
        return rush_hour_updates(graph, seconds)
    return []


def probe_updates(spec: WorkloadSpec, graph: Graph, seed: int) -> list[Request]:
    """Closed-loop updates sent after the window on a workload with none in it."""
    if spec.updates != "none":
        return []
    return trickle_updates(graph, f"probe-{seed}", PROBE_UPDATES, TRICKLE_RATE)
