"""Batched Label Search maintenance (the Algorithm 1/2 engine, batch-lifted).

The per-kind Label Search classes (:mod:`repro.core.label_search`) already
share per-label-index priority queues across the updates of one ``apply``
call -- the module docstring's observation that searches rooted in disjoint
subtrees never interact.  :class:`BatchedLabelSearchEngine` completes the
lift to the batch regime: one engine object that takes a whole **coalesced**
batch (one net update per edge, mixed kinds) and processes it in two passes
over shared queues:

* **Increases first** -- one seed + drain pass over the *old* weights grows
  the per-index affected sets for every net increase at once
  (:func:`repro.core.label_search.seed_affected_queues` /
  :func:`~repro.core.label_search.drain_affected_queues`), then the new
  weights land and every affected entry is repaired from its unaffected
  neighbours in a single per-index repair
  (:func:`~repro.core.label_search.repair_affected_entries`).
* **Decreases second**, on the increased graph -- apply the new weights,
  seed the per-index decrease queues for the whole group and drain each
  queue once (:func:`~repro.core.label_search.seed_decrease_queues` /
  :func:`~repro.core.label_search.drain_decrease_queues`).

The two kind groups touch disjoint edges (coalescing guarantees it), so the
increase pass's weight writes never invalidate a decrease's recorded old
weight.

This is the batch engine of :meth:`repro.core.stl.StableTreeLabelling
.apply_batch` for every batch the :class:`repro.core.batch.BatchPolicy`
neither loops over nor rebuilds: it runs serially, and it is the
degenerate-plan and residual fallback of the process backend
(:mod:`repro.core.parallel`), whose escape records drain into the same
module-level kernels.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.batch import validate_coalesced
from repro.core.label_search import (
    MaintenanceStats,
    drain_affected_queues,
    drain_decrease_queues,
    repair_affected_entries,
    seed_affected_queues,
    seed_decrease_queues,
)
from repro.core.labelling import STLLabels
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateKind
from repro.hierarchy.tree import StableTreeHierarchy


class BatchedLabelSearchEngine:
    """Shared-queue Label Search over a coalesced batch of updates."""

    def __init__(self, graph: Graph, hierarchy: StableTreeHierarchy, labels: STLLabels):
        self.graph = graph
        self.hierarchy = hierarchy
        self.labels = labels

    def apply(self, updates: Sequence[EdgeUpdate]) -> MaintenanceStats:
        """Apply one coalesced batch (at most one net update per edge).

        Net increases are processed first (their phase-1 search must see the
        pre-batch weights), then net decreases on the increased graph;
        NEUTRAL net updates change nothing but are counted as processed.
        Raises :class:`repro.utils.errors.UpdateError` on non-coalesced or
        stale input (see :func:`repro.core.batch.validate_coalesced`).
        """
        validate_coalesced(self.graph, updates)
        increases = [u for u in updates if u.kind is UpdateKind.INCREASE]
        decreases = [u for u in updates if u.kind is UpdateKind.DECREASE]
        stats = MaintenanceStats(updates_processed=len(updates))
        if increases:
            stats.merge(self._apply_increases(increases))
        if decreases:
            stats.merge(self._apply_decreases(decreases))
        return stats

    # ------------------------------------------------------------------ #
    # Increases: one shared phase-1 pass, one combined per-index repair
    # ------------------------------------------------------------------ #

    def _apply_increases(self, increases: Sequence[EdgeUpdate]) -> MaintenanceStats:
        stats = MaintenanceStats()
        tau = self.hierarchy.tau
        labels = self.labels
        counters = [0, 0, 0]

        queues: dict[int, list[tuple[float, int]]] = {}
        seed_affected_queues(tau, labels, increases, queues, counters)
        stats.ancestors_touched += len(queues)
        affected_by_index: dict[int, set[int]] = {}
        drain_affected_queues(
            self.graph.adjacency(), tau, labels, queues, affected_by_index, counters
        )
        for affected in affected_by_index.values():
            stats.vertices_affected += len(affected)

        for update in increases:
            self.graph.set_weight(update.u, update.v, update.new_weight)

        adjacency = self.graph.adjacency()
        for index in sorted(affected_by_index):
            affected = affected_by_index[index]
            if affected:
                repair_affected_entries(adjacency, tau, labels, index, affected, counters)
        stats.heap_pushes += counters[0]
        stats.labels_changed += counters[1]
        return stats

    # ------------------------------------------------------------------ #
    # Decreases: one shared seed + drain pass on the new weights
    # ------------------------------------------------------------------ #

    def _apply_decreases(self, decreases: Sequence[EdgeUpdate]) -> MaintenanceStats:
        stats = MaintenanceStats()
        tau = self.hierarchy.tau
        labels = self.labels
        counters = [0, 0, 0]

        for update in decreases:
            self.graph.set_weight(update.u, update.v, update.new_weight)

        queues: dict[int, list[tuple[float, int]]] = {}
        seed_decrease_queues(tau, labels, decreases, queues, counters)
        stats.ancestors_touched += len(queues)
        drain_decrease_queues(self.graph.adjacency(), tau, labels, queues, counters)
        stats.heap_pushes += counters[0]
        stats.labels_changed += counters[1]
        return stats
