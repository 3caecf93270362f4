"""Answer checking off the timed path: a per-version weight mirror + Dijkstra.

During the run the load generator only *records* a sample of answers with
the version that produced them, plus every acknowledged update with its
committed version.  After timing ends, :func:`check` replays the committed
updates in version order on a client-side copy of the weights and compares
each recorded answer with Dijkstra on the weights of its own version.  The
Dijkstra here is the benchmark's own, not the program's.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field


@dataclass
class Recorded:
    """A sampled answer: ``pairs`` share one source; ``distances`` align."""

    version: int
    pairs: tuple
    distances: list


@dataclass
class CheckResult:
    checked: int = 0
    incorrect: int = 0
    problems: list = field(default_factory=list)


def _dijkstra(adj: list[dict[int, float]], source: int, targets: set[int]) -> dict[int, float]:
    """Distances from ``source`` to every vertex of ``targets`` (inf if cut off)."""
    dist = {source: 0.0}
    found: dict[int, float] = {}
    remaining = set(targets)
    heap = [(0.0, source)]
    while heap and remaining:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u in remaining:
            remaining.discard(u)
            found[u] = d
        for v, w in adj[u].items():
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    for t in remaining:
        found[t] = math.inf
    return found


def _same(expected: float, got: float | None) -> bool:
    if got is None:
        return math.isinf(expected)
    return math.isclose(expected, got, rel_tol=1e-9, abs_tol=1e-6)


def check(
    num_vertices: int,
    edges: list[tuple[int, int, float]],
    commits: list[tuple[int, tuple]],
    recorded: list[Recorded],
) -> CheckResult:
    """Check every recorded answer against its version's weights.

    ``commits`` holds ``(version, triples)`` per acknowledged update; the
    versions must increase strictly in acknowledgement order, or the
    service published out of order -- reported as one incorrect answer.
    """
    result = CheckResult()
    versions = [v for v, _ in commits]
    if any(b <= a for a, b in zip(versions, versions[1:])):
        result.incorrect += 1
        result.problems.append(f"non-monotonic update ack versions: {versions}")
    adj: list[dict[int, float]] = [{} for _ in range(num_vertices)]
    for u, v, w in edges:
        adj[u][v] = w
        adj[v][u] = w
    pending = sorted(commits, key=lambda c: c[0])
    applied = 0
    for answer in sorted(recorded, key=lambda r: r.version):
        while applied < len(pending) and pending[applied][0] <= answer.version:
            for u, v, w in pending[applied][1]:
                adj[u][v] = w
                adj[v][u] = w
            applied += 1
        source = answer.pairs[0][0]
        expected = _dijkstra(adj, source, {t for _, t in answer.pairs})
        for (s, t), got in zip(answer.pairs, answer.distances):
            result.checked += 1
            if not _same(expected[t], got):
                result.incorrect += 1
                if len(result.problems) < 5:
                    result.problems.append(
                        f"v{answer.version} d({s},{t}) = {got}, expected {expected[t]}"
                    )
    return result
