"""Figure 10 -- batched maintenance vs full reconstruction.

A stream of updates (each edge's weight is doubled, then restored) is
processed in groups of growing size; the cumulative maintenance time of STL
(Pareto Search) is compared against the time to rebuild the labelling from
scratch.  The paper's observation -- maintenance stays below reconstruction
even for the largest group -- is the headline argument for incremental
maintenance.

Three maintenance flavours are measured per group:

* the historical **per-update loop** (``apply_update`` per stream entry, the
  paper's STL-P),
* **batched Label Search** on the serial backend (``apply_batch`` on the
  increase half, then on the decrease half), which coalesces per edge and
  shares the per-label-index queues of Algorithms 1-2 across the whole
  group (:mod:`repro.core.batch_label_search`), and
* the same engine on the **process** backend (``STLConfig(backend=
  "process")``), which runs each region's sub-batch in a worker process
  that owns its label rows (:class:`repro.core.parallel.ProcessShardBackend`)
  -- the only flavour whose searches run outside the GIL.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.stl import StableTreeLabelling
from repro.experiments.harness import ExperimentConfig, measure_batched_seconds
from repro.experiments.reporting import format_series
from repro.utils.timer import Timer
from repro.workloads.datasets import build_dataset
from repro.workloads.updates import mixed_update_stream


@dataclass
class Figure10Series:
    """Per-dataset maintenance-vs-reconstruction comparison."""

    network: str
    group_sizes: list[int] = field(default_factory=list)
    maintenance_seconds: list[float] = field(default_factory=list)
    ls_batched_seconds: list[float] = field(default_factory=list)
    ls_process_seconds: list[float] = field(default_factory=list)
    reconstruction_seconds: float = 0.0

    def as_series(self) -> dict[str, list[float]]:
        return {
            "STL per-update [s]": self.maintenance_seconds,
            "STL-LS batched [s]": self.ls_batched_seconds,
            "STL-LS process-sharded [s]": self.ls_process_seconds,
            "Reconstruction [s]": [self.reconstruction_seconds] * len(self.group_sizes),
        }


def run_figure10(
    config: ExperimentConfig | None = None,
    group_sizes: tuple[int, ...] = (25, 50, 100, 200, 400),
) -> list[Figure10Series]:
    """Measure grouped maintenance time against full reconstruction.

    Every group is measured three times on the same update stream: through
    the per-update loop, then through each batched backend.  Every pass
    restores the graph to its original weights (the stream nets to zero), so
    the measurements are directly comparable.
    """
    config = config or ExperimentConfig()
    results: list[Figure10Series] = []
    for name in config.datasets:
        graph = build_dataset(name, scale=config.scale, seed=config.seed)
        stl = StableTreeLabelling.build(graph.copy(), config.hierarchy_options())
        stl.batch_policy = config.batch_policy()
        series = Figure10Series(network=name, reconstruction_seconds=stl.construction_seconds)
        for size in group_sizes:
            stream = mixed_update_stream(
                stl.graph, size, factor=config.update_factor, seed=config.seed
            )
            timer = Timer()
            with timer.measure():
                for update in stream:
                    stl.apply_update(update)
            series.group_sizes.append(size)
            series.maintenance_seconds.append(timer.elapsed)
            # The batched paths process the same stream as the paper does: the
            # increase half as one batch, then the restoring decrease half.
            # backend="serial" pins the first row to the serial engine: the
            # policy would otherwise route large groups to the process pool.
            ls_batched, _ = measure_batched_seconds(
                stl, (stream.increases(), stream.decreases()), backend="serial"
            )
            series.ls_batched_seconds.append(ls_batched)
            ls_process, _ = measure_batched_seconds(
                stl, (stream.increases(), stream.decreases()), backend="process"
            )
            series.ls_process_seconds.append(ls_process)
        stl.close()  # release the process backend's worker pool
        results.append(series)
    return results


def format_figure10(results: list[Figure10Series]) -> str:
    """Render the Figure 10 comparison as per-dataset tables."""
    blocks = []
    for series in results:
        blocks.append(
            format_series(
                series.as_series(),
                series.group_sizes,
                title=(
                    f"Figure 10 ({series.network}): grouped maintenance vs reconstruction"
                ),
                x_label="# updates",
            )
        )
    return "\n\n".join(blocks)
