"""Pareto Search maintenance algorithms (Algorithms 3-5 of the paper).

Pareto Search is the *update-centric* maintenance strategy: instead of one
search per affected ancestor (Label Search), each edge update triggers exactly
two searches, one from each endpoint, that track whole *intervals* of
ancestor label indexes at once.

The technical obstacle is that labels store distances in nested subgraphs
``S_0 ⊇ S_1 ⊇ ...`` (one per ancestor level), so a path that is valid for a
low level may be invalid for a higher level.  The searches therefore carry a
Pareto-active interval ``[min, max]`` of levels: the interval's upper end is
capped by the label index of every vertex the path visits (so the path stays
inside the corresponding subgraphs), and its lower end is advanced past
levels that have already been processed at a smaller distance (``level(v)``
bookkeeping, Definition 5.11 / Example 5.13).

Contract (same as Label Search): the algorithms are called *before* the
weight change is applied to the graph; on return the graph and the labels
both reflect the new weights.

Implementation note (documented deviation): for weight increases the paper
interleaves each endpoint search with its repair (Algorithm 4 line 28).  We
run both searches on the unmodified labels first, then bump the collected
affected intervals by +Δ (the paper's upper bound, line 18) and run a single
combined repair (Algorithm 5).  This keeps the two-search structure and the
interval grouping while making correctness independent of the order of the
two searches; the tests verify equivalence against a from-scratch rebuild.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Iterable

from repro.core import kernels
from repro.core.label_search import (
    MaintenanceStats,
    _LabelSearchBase,
    _orient,
    on_old_shortest_path,
)
from repro.graph.updates import EdgeUpdate, UpdateKind
from repro.utils.errors import UpdateError

UNREACHABLE = math.inf


def interval_mark_search(
    adjacency,
    tau,
    labels,
    label_root,
    seeds,
    hits: dict[int, set[int]],
    counters: list[int],
) -> None:
    """The mark half of Algorithm 4 as a kernel.

    The implementation behind :meth:`ParetoSearchIncrease.mark_affected`,
    seeded with the updated edge.  ``seeds`` are heap entries ``(distance,
    interval_min, vertex, interval_max)``; ``hits`` collects marked levels
    per vertex; ``counters`` is ``[heap_pushes, labels_changed,
    vertices_affected]``.  Ties on distance are processed lowest-interval-first so the
    ``level(v)`` pruning never skips an unexamined level (see
    :meth:`ParetoSearchDecrease._search_and_repair`).

    On wide active intervals the through-the-edge test of each pop runs as
    one whole-row tolerance compare
    (:func:`repro.core.kernels.interval_hit_levels`) -- the same float64
    arithmetic as the scalar loop, so the marked level set is identical
    either way; short intervals (and non-buffer label rows) keep the scalar
    loop.
    """
    level: dict[int, int] = {}
    heap: list[tuple[float, int, int, int]] = []
    for seed in seeds:
        heappush(heap, seed)
        counters[0] += 1

    while heap:
        d, active_min, v, active_max = heappop(heap)
        active_max = min(active_max, tau[v])
        active_min = max(active_min, level.get(v, 0))
        if active_min > active_max:
            continue
        level[v] = active_max + 1

        label_v = labels[v]
        new_min = -1
        new_max = -1
        hit_levels = kernels.interval_hit_levels(d, label_root, label_v, active_min, active_max)
        if hit_levels is not None:
            if hit_levels:
                new_min = hit_levels[0]
                new_max = hit_levels[-1]
        else:
            hit_levels = []
            for i in range(active_min, active_max + 1):
                root_dist = label_root[i]
                if math.isinf(root_dist) or math.isinf(label_v[i]):
                    continue
                if on_old_shortest_path(d + root_dist, label_v[i]):
                    hit_levels.append(i)
                    if new_min == -1:
                        new_min = i
                    new_max = i

        if new_min != -1:
            hits.setdefault(v, set()).update(hit_levels)
            for nbr, weight in adjacency[v]:
                if math.isinf(weight) or tau[nbr] < new_min:
                    continue
                heappush(heap, (d + weight, new_min, nbr, new_max))
                counters[0] += 1


class _ParetoSearchBase(_LabelSearchBase):
    """Shared plumbing of the decrease / increase Pareto searches.

    The constructor and update normalisation are identical to Label Search's,
    so they are inherited rather than duplicated.
    """


class ParetoSearchDecrease(_ParetoSearchBase):
    """Algorithm 3: Pareto Search for edge-weight decreases.

    For an update ``(a, b, w_new)`` two interval searches run: one rooted at
    ``a`` (starting from ``b``) repairing entries via ``L(a)[i] + d``, and the
    symmetric one rooted at ``b``.  Because the decrease case knows the new
    distance of a vertex the moment it is popped, labels are repaired on the
    fly (Algorithm 3, lines 15-20).
    """

    def apply(self, updates: Iterable[EdgeUpdate] | EdgeUpdate) -> MaintenanceStats:
        """Apply weight decreases one at a time (the paper's per-update form)."""
        stats = MaintenanceStats()
        for update in self._as_update_list(updates):
            if update.kind is UpdateKind.INCREASE:
                raise UpdateError(
                    "ParetoSearchDecrease received a weight increase on edge "
                    f"({update.u}, {update.v})"
                )
            stats.merge(self._apply_single(update))
        return stats

    def _apply_single(self, update: EdgeUpdate) -> MaintenanceStats:
        stats = MaintenanceStats(updates_processed=1)
        graph = self.graph
        graph.set_weight(update.u, update.v, update.new_weight)
        a, b = _orient(update, self.hierarchy.tau)
        stats.merge(self._search_and_repair(a, b, update.new_weight))
        stats.merge(self._search_and_repair(b, a, update.new_weight))
        return stats

    def _search_and_repair(self, root: int, start: int, phi: float) -> MaintenanceStats:
        """One interval search rooted at ``root``, starting from ``start``.

        ``phi`` is the (new) weight of the updated edge, i.e. the length of
        the initial path ``root -> start``.
        """
        stats = MaintenanceStats()
        tau = self.hierarchy.tau
        labels = self.labels
        adjacency = self.graph.adjacency()
        label_root = labels[root]

        level: dict[int, int] = {}
        rmin = min(tau[root], tau[start])
        # Heap entries: (distance, interval_min, vertex, interval_max).  Ties
        # on distance are broken toward *smaller* interval minima: by
        # Lemma 5.9 lower levels never have larger distances, so processing
        # low intervals first guarantees that whenever level(v) skips past a
        # level, that level has already been examined at a distance <= d --
        # which is what makes the single-scalar level(v) pruning safe.
        heap: list[tuple[float, int, int, int]] = [(phi, 0, start, rmin)]
        stats.heap_pushes += 1

        while heap:
            d, active_min, v, active_max = heappop(heap)
            active_max = min(active_max, tau[v])
            active_min = max(active_min, level.get(v, 0))
            if active_min > active_max:
                continue
            level[v] = active_max + 1
            stats.vertices_affected += 1

            label_v = labels[v]
            new_min = -1
            new_max = -1
            for i in range(active_min, active_max + 1):
                root_dist = label_root[i]
                if math.isinf(root_dist):
                    continue
                candidate = d + root_dist
                if candidate < label_v[i]:
                    label_v[i] = candidate
                    stats.labels_changed += 1
                    if new_min == -1:
                        new_min = i
                    new_max = i

            if new_min != -1:
                for nbr, weight in adjacency[v]:
                    # A neighbour with tau < new_min would be discarded at pop
                    # time anyway (its interval collapses past tau); skipping
                    # the push keeps the queue small.
                    if math.isinf(weight) or tau[nbr] < new_min:
                        continue
                    heappush(heap, (d + weight, new_min, nbr, new_max))
                    stats.heap_pushes += 1
        return stats


class ParetoSearchIncrease(_ParetoSearchBase):
    """Algorithms 4-5: Pareto Search for edge-weight increases."""

    def apply(self, updates: Iterable[EdgeUpdate] | EdgeUpdate) -> MaintenanceStats:
        """Apply weight increases one at a time (the paper's per-update form)."""
        stats = MaintenanceStats()
        for update in self._as_update_list(updates):
            if update.kind is UpdateKind.DECREASE:
                raise UpdateError(
                    "ParetoSearchIncrease received a weight decrease on edge "
                    f"({update.u}, {update.v})"
                )
            stats.merge(self._apply_single(update))
        return stats

    def _apply_single(self, update: EdgeUpdate) -> MaintenanceStats:
        stats = MaintenanceStats(updates_processed=1)
        tau = self.hierarchy.tau
        a, b = _orient(update, tau)
        delta = update.new_weight - update.old_weight

        # Phase 1 (old weights): mark the affected (vertex, level) pairs by
        # following old shortest paths through the updated edge, from both
        # endpoints (Algorithm 4).
        affected: dict[int, set[int]] = {}
        stats.merge(self.mark_affected(a, b, update.old_weight, affected))
        stats.merge(self.mark_affected(b, a, update.old_weight, affected))
        stats.vertices_affected += len(affected)

        # Apply the new weight, bump affected entries by +delta (a valid upper
        # bound: a shortest path uses the updated edge at most once), then
        # repair (Algorithm 5).
        self.graph.set_weight(update.u, update.v, update.new_weight)
        if affected:
            stats.merge(self.bump_and_repair(affected, delta))
        return stats

    def mark_affected(
        self,
        root: int,
        start: int,
        phi_old: float,
        affected: dict[int, set[int]],
    ) -> MaintenanceStats:
        """Interval search over *old* shortest paths through the updated edge.

        Collects, per reached vertex, the exact set of ancestor levels whose
        label entry is realised by a path through the updated edge (the
        equality check of Algorithm 4, line 17); the search itself propagates
        the containing interval, as in the paper.  The body is the shared
        :func:`interval_mark_search` kernel, seeded with the updated edge.
        """
        stats = MaintenanceStats()
        tau = self.hierarchy.tau
        rmin = min(tau[root], tau[start])
        counters = [0, 0, 0]
        interval_mark_search(
            self.graph.adjacency(),
            tau,
            self.labels,
            self.labels[root],
            [(phi_old, 0, start, rmin)],
            affected,
            counters,
        )
        stats.heap_pushes += counters[0]
        return stats

    def bump_and_repair(
        self, affected: dict[int, set[int]], delta: float
    ) -> MaintenanceStats:
        """Algorithm 5: bump affected entries and repair them.

        ``affected`` maps each vertex to the *set* of levels its mark phase
        hit; every such entry is bumped by +delta (Algorithm 4, line 18
        applies the bump where the equality held) and the repair then
        restores entries whose true new distance is smaller than the bound.
        The paper groups affected levels into intervals for cache
        locality -- a C++ consideration; here the exact level sets are used
        directly, which produces the same labels with less Python-level work.
        """
        stats = MaintenanceStats()
        tau = self.hierarchy.tau
        labels = self.labels
        adjacency = self.graph.adjacency()

        # Upper-bound bump (Algorithm 4, line 18): a shortest path uses the
        # updated edge at most once, so old + delta bounds the new distance.
        for v, levels in affected.items():
            label_v = labels[v]
            for i in levels:
                if not math.isinf(label_v[i]):
                    label_v[i] += delta
                    stats.labels_changed += 1

        # Seed the repair queue from *all* neighbours (Algorithm 5, lines 2-6);
        # unaffected neighbours carry exact distances, affected ones carry
        # their upper bounds.
        heap: list[tuple[float, int, int]] = []
        for v, levels in affected.items():
            label_v = labels[v]
            for nbr, weight in adjacency[v]:
                if math.isinf(weight):
                    continue
                label_n = labels[nbr]
                tau_n = tau[nbr]
                for i in levels:
                    if i > tau_n:
                        continue
                    candidate = label_n[i] + weight
                    if candidate < label_v[i]:
                        heappush(heap, (candidate, v, i))
                        stats.heap_pushes += 1

        # Dijkstra-style repair restricted to the affected entries
        # (Algorithm 5, lines 7-12).
        while heap:
            d, v, i = heappop(heap)
            label_v = labels[v]
            if d >= label_v[i]:
                continue
            label_v[i] = d
            stats.labels_changed += 1
            for nbr, weight in adjacency[v]:
                if math.isinf(weight):
                    continue
                levels = affected.get(nbr)
                if levels is None or i not in levels or i > tau[nbr]:
                    continue
                candidate = d + weight
                if candidate < labels[nbr][i]:
                    heappush(heap, (candidate, nbr, i))
                    stats.heap_pushes += 1
        return stats
