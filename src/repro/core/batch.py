"""The batch policy: which strategy a coalesced batch of updates deserves.

A batch is first folded into one *net* update per edge
(:meth:`repro.graph.updates.UpdateBatch.coalesce`); :class:`BatchPolicy`
then picks one of four strategies for it, keyed on the net batch size:

* tiny batches run through the **per-update loop** -- the paper's STL-P or
  STL-L algorithms, one update at a time, the path single edge updates
  take in the paper's evaluation and in the query service;
* other batches run through **batched Label Search**
  (:class:`repro.core.batch_label_search.BatchedLabelSearchEngine`), the
  fastest serial engine at every measured batch size;
* very large batches whose updates spread across the partition regions of
  :class:`repro.core.shard.ShardPlanner` run the same batched Label Search
  on the **process** backend (:class:`repro.core.parallel.ProcessShardBackend`),
  whose per-batch overhead only amortises when there is enough repair work
  per shard to keep the worker processes busy;
* and past a configurable fraction of affected edges a from-scratch label
  **rebuild** (the Figure 10 baseline) is cheaper than any maintenance.

:meth:`repro.core.stl.StableTreeLabelling.apply_batch` consults the policy
and dispatches accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate
from repro.utils.errors import ConfigError, UpdateError


#: The per-update maintenance families ``STLConfig(engine=...)`` accepts
#: (sorted for the error message of :func:`normalize_engine`).
ENGINE_NAMES = ("label_search", "pareto")


def normalize_engine(engine: str | None) -> str | None:
    """Validate an ``STLConfig(engine=...)`` value.

    ``None`` means "use the index's maintenance mode" and is returned
    unchanged; ``"pareto"`` (STL-P) and ``"label_search"`` (STL-L) name the
    per-update family that ``apply_update`` and the tiny-batch loop run.
    Anything else raises :class:`repro.utils.errors.ConfigError` (a
    :class:`ValueError` subclass) naming the allowed set.
    """
    if engine is None:
        return None
    if isinstance(engine, str) and engine in ENGINE_NAMES:
        return engine
    allowed = ", ".join(repr(name) for name in ENGINE_NAMES)
    raise ConfigError(
        f"unknown maintenance engine {engine!r}; allowed engines: {allowed} (or None)"
    )


@dataclass
class BatchPolicy:
    """Knobs governing how a batch of updates is processed.

    The policy picks one of four legs keyed on the *net* (coalesced) batch
    size, refined by the shard balance of the planned partition:

    ===========================  =====================================
    net batch size               strategy
    ===========================  =====================================
    ``< batched_min_updates``    per-update loop (``apply_update``)
    moderate                     serial batched Label Search
    ``>= process_min_updates``   batched Label Search on the process
                                 backend, *if* the shard plan keeps at
                                 least ``parallel_min_balance`` of the
                                 updates out of the residual shard
    ===========================  =====================================

    with the rebuild fallback taking precedence over all three.

    Attributes
    ----------
    rebuild_min_updates:
        Never fall back to a rebuild for batches with fewer net updates than
        this; small batches are always cheaper to maintain incrementally.
    rebuild_fraction:
        Fall back to a from-scratch label rebuild when the number of net
        (coalesced) updates exceeds this fraction of the graph's edges.
        ``None`` disables the fallback entirely (the engine always runs).
    batched_min_updates:
        Below this many net updates the batch is processed through the
        plain per-update loop of the configured family instead of the
        batched engine.
    parallel_min_balance:
        Minimum fraction of the net updates that must land in per-region
        shard sub-batches (rather than the serial residual shard) for the
        process backend to be worth its pool and settlement overhead.
    process_min_updates:
        From this many net updates onward a batch is planned into shards and
        routed to the process backend when the plan is balanced enough.
        The default of 384 keeps every batch of the perf smoke and the
        rush-hour workloads serial; on a 10k-vertex rush-hour stream on 2
        CPUs the process backend won, 837 vs 1065 ms per batch.  ``None``
        disables the leg; ``STLConfig(backend="process")`` always forces it
        regardless.
    max_workers:
        Worker-pool size for the process backend; ``None`` sizes the pool
        to ``min(#shards, os.cpu_count())``.
    """

    rebuild_min_updates: int = 64
    rebuild_fraction: float | None = 0.25
    batched_min_updates: int = 3
    parallel_min_balance: float = 0.5
    process_min_updates: int | None = 384
    max_workers: int | None = None

    def should_rebuild(self, num_net_updates: int, num_edges: int) -> bool:
        """Whether a batch of ``num_net_updates`` warrants a full rebuild."""
        if self.rebuild_fraction is None:
            return False
        if num_net_updates < self.rebuild_min_updates:
            return False
        return num_net_updates > self.rebuild_fraction * max(1, num_edges)

    def should_loop(self, num_net_updates: int) -> bool:
        """Whether the batch is too small for the batch machinery."""
        return num_net_updates < self.batched_min_updates

    def should_shard(self, num_net_updates: int) -> bool:
        """Whether the batch is large enough to consider the process backend."""
        if self.process_min_updates is None:
            return False
        return num_net_updates >= self.process_min_updates

    def accepts_plan(self, populated_shards: int, balance: float) -> bool:
        """Whether a computed shard plan is balanced enough to run.

        ``populated_shards`` is the number of non-empty per-region
        sub-batches and ``balance`` the fraction of net updates they hold
        (the rest goes to the serial residual shard).
        """
        return populated_shards >= 2 and balance >= self.parallel_min_balance


def validate_coalesced(graph: Graph, updates: Sequence[EdgeUpdate]) -> None:
    """Enforce the coalesced-batch precondition shared by the batch engines.

    Raises :class:`UpdateError` if an edge appears more than once (the
    kind-partitioned processing would silently reorder such a chain -- the
    very corruption coalescing exists to fix) or if an update's
    ``old_weight`` does not match the live graph (a stale ``old_weight``
    mis-scopes the mark phase and mis-classifies the net kind, again
    silently).  :meth:`repro.graph.updates.UpdateBatch.coalesce` establishes
    both preconditions.
    """
    seen: set[tuple[int, int]] = set()
    for update in updates:
        key = (update.u, update.v) if update.u < update.v else (update.v, update.u)
        if key in seen:
            raise UpdateError(
                f"a coalesced batch is required, but edge ({update.u}, "
                f"{update.v}) appears more than once; fold the batch with "
                "UpdateBatch.coalesce first"
            )
        seen.add(key)
        current = graph.weight(update.u, update.v)
        if current != update.old_weight:
            raise UpdateError(
                f"edge ({update.u}, {update.v}) has weight {current}, "
                f"update expected {update.old_weight}"
            )
