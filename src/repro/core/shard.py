"""Partition-aware planning of coalesced batches into shard sub-batches.

:class:`ShardPlanner` bisects the graph's vertex set (recursively, with a
:class:`repro.partition.bisection.Bisector`) into ``num_shards`` disjoint
*regions* plus the accumulated separator vertices -- the same structural
seams the stable tree hierarchy itself is built from.  A coalesced batch is
then split into per-region sub-batches -- an update goes to region ``k``
when **both** endpoints lie strictly inside region ``k`` -- and a *residual*
sub-batch holding every separator-touching or region-crossing update.
Because :meth:`repro.graph.updates.UpdateBatch.coalesce` preserves
first-seen edge order and regions are computed once from the
weight-independent topology, planning is deterministic.

Per-shard search frontiers only interact through the separator, which is
what the process backend (:class:`repro.core.parallel.ProcessShardBackend`)
exploits: each worker process owns its regions' label rows and runs whole
shard sub-batches of batched Label Search in true parallel.  The plan's
quality (``populated_shards``, ``balance``) is the second key of the
:class:`repro.core.batch.BatchPolicy` crossover, so unbalanced plans stay on
the serial engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.batch import BatchPolicy
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.partition.bisection import Bisector, HybridBisector
from repro.utils.errors import ConfigError


def default_num_shards() -> int:
    """Default shard count: one per core, clamped to a useful range."""
    return max(2, min(8, os.cpu_count() or 2))


#: The backend names ``STLConfig(backend=...)`` accepts (sorted for the
#: error message of :func:`normalize_parallel`).
SHARD_BACKEND_NAMES = ("process", "serial")


def normalize_parallel(parallel: str | None) -> str | None:
    """Validate an ``STLConfig(backend=...)`` value.

    ``None`` means "let the :class:`repro.core.batch.BatchPolicy` crossover
    decide" and is returned unchanged; ``"serial"`` forbids the process
    backend and ``"process"`` forces it.  Anything else -- booleans
    included -- raises :class:`repro.utils.errors.ConfigError` (a
    :class:`ValueError` subclass) naming the allowed set.
    """
    if parallel is None:
        return None
    if isinstance(parallel, str) and parallel in SHARD_BACKEND_NAMES:
        return parallel
    allowed = ", ".join(repr(name) for name in SHARD_BACKEND_NAMES)
    raise ConfigError(
        f"unknown parallel backend {parallel!r}; allowed backends: {allowed} (or None)"
    )


@dataclass
class ShardPlan:
    """A coalesced batch split into per-region sub-batches plus a residual.

    Attributes
    ----------
    shards:
        One :class:`UpdateBatch` per planner region (index-aligned with
        :attr:`regions`); possibly empty.  Updates keep their first-seen
        coalesced order within each shard.
    residual:
        The sub-batch of separator-touching and region-crossing updates,
        applied serially after the shards.
    regions:
        The planner's disjoint vertex regions.
    separator:
        The accumulated separator vertices (in no region).
    """

    shards: list[UpdateBatch]
    residual: UpdateBatch
    regions: list[list[int]] = field(default_factory=list)
    separator: list[int] = field(default_factory=list)

    @property
    def num_updates(self) -> int:
        """Total number of planned (net) updates, residual included."""
        return sum(len(s) for s in self.shards) + len(self.residual)

    @property
    def sharded_updates(self) -> int:
        """Number of updates that landed in per-region shards."""
        return sum(len(s) for s in self.shards)

    @property
    def populated_shards(self) -> int:
        """Number of non-empty per-region sub-batches."""
        return sum(1 for s in self.shards if len(s))

    @property
    def balance(self) -> float:
        """Fraction of the net updates that avoid the serial residual shard.

        This is the "shard balance" the :class:`repro.core.batch.BatchPolicy`
        crossover keys on: a plan where most updates cross the separator
        degenerates into the serial engine plus overhead.
        """
        total = self.num_updates
        if total == 0:
            return 0.0
        return self.sharded_updates / total

    def worth_running(self, policy: BatchPolicy) -> bool:
        """Whether this plan clears the policy's balance bar."""
        return policy.accepts_plan(self.populated_shards, self.balance)


class ShardPlanner:
    """Partition-aware splitter of coalesced batches into shard sub-batches.

    The planner bisects the graph's vertex set with a
    :class:`repro.partition.bisection.Bisector` (default
    :class:`~repro.partition.bisection.HybridBisector`, the same family the
    hierarchy builder uses), recursively splitting the largest region until
    ``num_shards`` regions exist.  Separator vertices collect into a shared
    residual set.  Regions depend only on the graph *topology*, which edge
    weight updates never change, so they are computed once and reused for
    every batch.
    """

    def __init__(
        self,
        graph: Graph,
        num_shards: int | None = None,
        bisector: Bisector | None = None,
    ):
        if num_shards is not None and num_shards < 2:
            raise ValueError(f"num_shards must be at least 2, got {num_shards}")
        self.graph = graph
        self.num_shards = num_shards or default_num_shards()
        self.bisector = bisector or HybridBisector()
        self._region_of: list[int] | None = None
        self._regions: list[list[int]] | None = None
        self._separator: list[int] | None = None

    # ------------------------------------------------------------------ #
    # Region computation (lazy, topology-only, cached)
    # ------------------------------------------------------------------ #

    def regions(self) -> tuple[list[list[int]], list[int]]:
        """The planner's disjoint vertex regions and the separator set."""
        if self._regions is None:
            self._compute_regions()
        assert self._regions is not None and self._separator is not None
        return self._regions, self._separator

    def _compute_regions(self) -> None:
        graph = self.graph
        separator: list[int] = []
        # (splittable, region) work list; repeatedly bisect the largest
        # still-splittable region until the target count is reached.
        regions: list[tuple[bool, list[int]]] = [(True, list(range(graph.num_vertices)))]
        while len(regions) < self.num_shards and any(s for s, _ in regions):
            regions.sort(key=lambda item: (item[0], len(item[1])))
            splittable, region = regions.pop()
            if not splittable or len(region) < 2:
                regions.append((False, region))
                break
            bisection = self.bisector.bisect(graph, region)
            separator.extend(bisection.separator)
            halves = [h for h in (bisection.left, bisection.right) if h]
            if len(halves) < 2:
                # The region would not split (e.g. a clique fully absorbed
                # into the separator); keep what remains as unsplittable.
                regions.extend((False, h) for h in halves)
                continue
            regions.extend((True, h) for h in halves)
        self._regions = [sorted(region) for _, region in regions if region]
        self._separator = sorted(separator)
        region_of = [-1] * graph.num_vertices
        for rid, region in enumerate(self._regions):
            for v in region:
                region_of[v] = rid
        self._region_of = region_of

    # ------------------------------------------------------------------ #
    # Batch splitting
    # ------------------------------------------------------------------ #

    def plan(self, batch: Sequence[EdgeUpdate] | UpdateBatch) -> ShardPlan:
        """Split a coalesced batch into per-region sub-batches + residual.

        An update is *internal* to region ``k`` when both endpoints have
        ``region_of == k`` (separator vertices have no region); every other
        update -- separator-touching or region-crossing -- lands in the
        residual.  Iteration order is the batch's own order, so sub-batches
        inherit the deterministic first-seen ordering of
        :meth:`repro.graph.updates.UpdateBatch.coalesce`.
        """
        regions, separator = self.regions()
        region_of = self._region_of
        assert region_of is not None
        shards = [UpdateBatch() for _ in regions]
        residual = UpdateBatch()
        for update in batch:
            ru = region_of[update.u]
            rv = region_of[update.v]
            if ru != -1 and ru == rv:
                shards[ru].append(update)
            else:
                residual.append(update)
        return ShardPlan(
            shards=shards, residual=residual, regions=regions, separator=separator
        )
