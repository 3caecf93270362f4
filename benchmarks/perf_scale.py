"""Paper-scale streaming benchmark: query kernels + update engines vs |V|.

Sweeps :func:`repro.graph.generators.highway_grid_network` sizes (default
1k / 10k / 50k / 200k vertices), and on each graph measures

* **queries/second** of ``batch_query`` with the scalar and the vectorised
  kernel (same random pairs, warm caches, best-of-3 -- see
  :func:`repro.experiments.harness.measure_batch_query_qps`), and
* **per-batch update latency** of a rush-hour congestion stream
  (:func:`repro.workloads.updates.rush_hour_stream`) through batched Label
  Search on both backends (serial, process).  The stream nets to zero, so
  every configuration replays the identical batches from the identical
  start state.

Writes the measurements as JSON (schema ``repro-perf-scale/3``; schema/2
also carried the retired Pareto and thread series)::

    {
      "schema": "repro-perf-scale/3",
      "seed": 2025, "python": "3.11.7", "numpy": "2.4.6" | null,
      "pairs": 20000,
      "construction": "serial" | "parallel" | null,   # --construction flag
      "cpu_count": ...,
      "scales": [
        {
          "requested_vertices": 10000,      # or "dimacs": "<path>" for
          "num_vertices": ..., "num_edges": ...,      # a --dimacs row
          "construction_seconds": ...,
          "hierarchy_seconds": ..., "label_seconds": ...,
          "construction_workers": ...,       # 0 = serial build
          "queries": {"scalar_qps": ..., "vector_qps": ..., "speedup": ...},
          "updates": {
            "steps": ..., "hotspots": ..., "radius": ...,
            "updates_total": ...,
            "per_batch_seconds": {"label_search_serial": ...,
                                  "label_search_process": ...}
          }
        }, ...
      ]
    }

The committed ``BENCH_pr8.json`` was produced with the schema/1 defaults
(1k/10k/50k)::

    PYTHONPATH=src python benchmarks/perf_scale.py --out BENCH_pr8.json

``--construction serial|parallel`` pins the build pipeline (PR 10; default
``None`` lets the size/CPU heuristic decide), and ``--dimacs PATH`` appends
one extra row measured on a real road network loaded through
:func:`repro.graph.io.read_dimacs` instead of the synthetic grid.

Unlike ``perf_smoke.py`` this sweep is not a CI gate (a 200k-vertex build
is many minutes of pure-Python time); it documents how the kernels scale.
The vector kernel requires numpy (the ``repro[fast]`` extra); without it
the query section records the scalar series only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
from pathlib import Path

from repro.core.batch import BatchPolicy
from repro.core.config import STLConfig
from repro.core.construction import CONSTRUCTION_NAMES
from repro.core.kernels import HAS_NUMPY
from repro.core.stl import StableTreeLabelling
from repro.experiments.harness import measure_batch_query_qps
from repro.graph.generators import highway_grid_network
from repro.graph.io import read_dimacs
from repro.hierarchy.builder import HierarchyOptions
from repro.utils.timer import Timer
from repro.workloads.updates import rush_hour_stream

SCHEMA = "repro-perf-scale/3"

#: The batched Label Search backends, in the order the JSON records them.
STRATEGIES = (
    ("label_search_serial", "serial"),
    ("label_search_process", "process"),
)


def measure_scale(
    graph,
    row_meta: dict,
    pairs_count: int,
    steps: int,
    seed: int,
    leaf_size: int,
    construction: str | None,
) -> dict:
    """All measurements for one graph (synthetic grid or a DIMACS network)."""
    stl = StableTreeLabelling.build(
        graph, HierarchyOptions(leaf_size=leaf_size), construction=construction
    )
    stl.batch_policy = BatchPolicy(rebuild_fraction=None)

    rng = random.Random(seed)
    pairs = [
        (rng.randrange(graph.num_vertices), rng.randrange(graph.num_vertices))
        for _ in range(pairs_count)
    ]
    queries: dict[str, float | int] = {
        "scalar_qps": measure_batch_query_qps(stl, pairs, kernel="scalar"),
    }
    if HAS_NUMPY:
        queries["vector_qps"] = measure_batch_query_qps(stl, pairs, kernel="vector")
        queries["speedup"] = queries["vector_qps"] / queries["scalar_qps"]

    # Hotspot count grows with the graph so the stream stays a constant
    # *fraction* of the network congested, as a real rush hour would.
    hotspots = max(2, round((graph.num_vertices / 5000) ** 0.5 * 3))
    radius = 5
    batches = rush_hour_stream(
        stl.graph, num_steps=steps, num_hotspots=hotspots, radius=radius, seed=seed
    )
    updates_total = sum(len(batch.updates) for batch in batches)
    nonempty = sum(1 for batch in batches if batch.updates) or 1

    per_batch: dict[str, float] = {}
    for key, backend in STRATEGIES:
        # The stream nets to zero, so after a full replay the labels are
        # back to the start state and the next strategy sees identical work.
        config = STLConfig(backend=backend)
        timer = Timer()
        for batch in batches:
            with timer.measure():
                stl.apply_batch(batch, config=config)
        per_batch[key] = timer.elapsed / nonempty

    report = stl.build_report
    result = {
        **row_meta,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "construction_seconds": stl.construction_seconds,
        "hierarchy_seconds": report.hierarchy_seconds if report is not None else 0.0,
        "label_seconds": report.label_seconds if report is not None else 0.0,
        "construction_workers": report.workers if report is not None else 0,
        "queries": queries,
        "updates": {
            "steps": steps,
            "hotspots": hotspots,
            "radius": radius,
            "updates_total": updates_total,
            "per_batch_seconds": per_batch,
        },
    }
    stl.close()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[1_000, 10_000, 50_000, 200_000],
                        help="vertex counts to sweep (default: 1k 10k 50k 200k)")
    parser.add_argument("--pairs", type=int, default=20_000,
                        help="random query pairs per scale (default 20000)")
    parser.add_argument("--steps", type=int, default=8,
                        help="rush-hour time steps (default 8)")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--leaf-size", type=int, default=32,
                        help="hierarchy leaf size (default 32)")
    parser.add_argument("--construction", choices=CONSTRUCTION_NAMES, default=None,
                        help="pin the build pipeline (default: size/CPU heuristic)")
    parser.add_argument("--dimacs", type=Path, default=None,
                        help="append one row measured on this DIMACS .gr file")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the measurement JSON here (e.g. BENCH_pr8.json)")
    args = parser.parse_args(argv)

    result = {
        "schema": SCHEMA,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": None,
        "pairs": args.pairs,
        "construction": args.construction,
        "cpu_count": os.cpu_count(),
        "scales": [],
    }
    if HAS_NUMPY:
        import numpy

        result["numpy"] = numpy.__version__

    jobs: list[tuple[object, dict]] = [
        (size, {"requested_vertices": size}) for size in args.sizes
    ]
    if args.dimacs is not None:
        jobs.append((read_dimacs(str(args.dimacs)), {"dimacs": str(args.dimacs)}))

    for source, row_meta in jobs:
        graph = (
            highway_grid_network(source, seed=args.seed)
            if isinstance(source, int)
            else source
        )
        row = measure_scale(
            graph, row_meta, args.pairs, args.steps, args.seed,
            args.leaf_size, args.construction,
        )
        result["scales"].append(row)
        q = row["queries"]
        line = (f"|V|={row['num_vertices']:>7}  build={row['construction_seconds']:.1f}s  "
                f"(tree {row['hierarchy_seconds']:.1f}s + labels "
                f"{row['label_seconds']:.1f}s, {row['construction_workers']} workers)  "
                f"scalar={q['scalar_qps']:>10,.0f} q/s")
        if "vector_qps" in q:
            line += f"  vector={q['vector_qps']:>10,.0f} q/s  (x{q['speedup']:.1f})"
        print(line)
        for key, seconds in row["updates"]["per_batch_seconds"].items():
            print(f"    {key:>20}: {seconds * 1e3:8.1f} ms/batch")

    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
