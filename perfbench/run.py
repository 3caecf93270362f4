"""Service-level benchmark of the STL query service, over the wire.

    python3 perfbench/run.py --workload read_mix --seed 2025 --seconds 20 --trace 0

Generates the workload's road network, read schedule and update stream from
``--seed``, starts the real service (``QueryService`` behind
``QueryServer``) in its own process through ``launcher.py``, and drives it
open loop from this process over two connections: reads on one, updates on
the other.  After a warm-up of the same traffic it times
``--seconds`` seconds, then checks a sample of the answers against
Dijkstra on each answer's own version of the weights.

``--trace 0`` reports the end-to-end metrics; set-up runs
:data:`SETUP_REPEATS` times and reports the median.  ``--trace 1`` runs the
workload once untraced and once with spans recorded around the program's
layers, and reports the per-layer metrics, the tracing overhead (traced
minus untraced, per end-to-end metric) and the share of the end-to-end
latency the spans cover.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Seeds: :data:`DEFAULT_SEED` is the default; :data:`HELDOUT_SEED` is kept
out of tuning and is the seed a performance claim must also hold on.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 2025
HELDOUT_SEED = 7919
#: Server start-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Every Nth answer of each read op is checked by the oracle (~220 point
#: queries and ~11 batches of 64 pairs in a 20 s run).
RECORD_EVERY = {"query": 100, "batch_query": 32}


def _environment(stats: dict, num_vertices: int) -> dict:
    from repro.core.construction import resolve_construction

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():  # benchmark checkouts are not repositories
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "config": stats["config"],
        "construction": resolve_construction(None, num_vertices),
        "build_workers": stats["build_workers"],
    }


def measure(graph_path, reads, updates, probe, window, setups, trace_out=None):
    """Start one server, drive the schedule, stop it; plus extra start-ups.

    Each extra start-up also runs the closed-loop ``probe`` updates, if any.
    """
    from drive import Server, drive, run_probe
    from metrics import Measured

    server = Server(graph_path, trace_out)
    try:
        ready = [server.wait_ready()]
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            load = asyncio.run(drive(server, reads, updates, probe, window, RECORD_EVERY))
        finally:
            gc.enable()
            gc.unfreeze()
        rss = server.peak_rss_mb()
        stats = server.rpc({"op": "stats"})["stats"]
    finally:
        server.stop()
    for _ in range(setups - 1):
        extra = Server(graph_path)
        try:
            ready.append(extra.wait_ready())
            if probe:
                load.samples += asyncio.run(run_probe(extra, probe)).samples
        finally:
            extra.stop()
    attempted = {}
    for request in reads + updates:
        attempted[request.op] = attempted.get(request.op, 0) + 1
    if probe:
        attempted["probe_update"] = len(probe) * setups
    run = Measured(ready, server.load_s, load, rss, stats, attempted)
    if trace_out is not None:
        dump = json.loads(trace_out.read_text(encoding="utf-8"))
        run.spans, run.store_bytes = dump["spans"], dump["store_bytes"]
        if dump["missing"]:
            print(f"trace: not found, not traced: {', '.join(dump['missing'])}")
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "serve").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import metrics
    import oracle
    import workload
    from repro.graph.io import write_dimacs, write_dimacs_coordinates

    if args.workload not in workload.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = workload.WORKLOADS[args.workload]
    window = (workload.WARMUP_SECONDS, workload.WARMUP_SECONDS + args.seconds)

    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        graph = workload.make_graph(spec)
        graph_path = scratch / "graph.gr"
        write_dimacs(graph, str(graph_path))
        write_dimacs_coordinates(graph, str(graph_path.with_suffix(".co")))
        reads = workload.read_schedule(graph.num_vertices, args.seed, window[1])
        updates = workload.update_schedule(spec, graph, args.seed, window[1])
        probe = workload.probe_updates(spec, graph, args.seed)
        schedule = (graph_path, reads, updates, probe, window)

        if args.trace:
            runs = {
                "untraced": measure(*schedule, setups=1),
                "traced": measure(*schedule, setups=1, trace_out=scratch / "spans.json"),
            }
            values = metrics.per_layer(runs["traced"], runs["untraced"])
        else:
            runs = {"run": measure(*schedule, setups=SETUP_REPEATS)}
            measured = metrics.end_to_end(runs["run"])
            values = {name: (measured[name], unit) for name, unit in metrics.END_TO_END.items()}
            for name, unit in metrics.TAILS.items():
                print(f"{name} = {measured[name]:.6g} {unit} (tail, not bounded)")

        edges = list(graph.edges())
        checked = incorrect = attempted = failed = 0
        for label, run in runs.items():
            for line in metrics.report_lines(label, run):
                print(line)
            result = oracle.check(graph.num_vertices, edges, run.load.commits, run.load.recorded)
            print(f"[{label}] oracle: {result.checked} checked, {result.incorrect} incorrect")
            for problem in result.problems:
                print(f"[{label}] oracle: {problem}")
            checked += result.checked
            incorrect += result.incorrect
            for counts in metrics.op_counts(run).values():
                attempted += counts["sent"]
                failed += counts["failed"]
        last = list(runs.values())[-1]
        print("env " + json.dumps(_environment(last.stats, graph.num_vertices)))
        print(f"workload {spec.name}: {spec.why}")
        for name, (value, unit) in values.items():
            print(f"{name} = {value:.6g} {unit}")
        print(f"failed_frac = {failed / attempted if attempted else 0.0:.6g} ratio")
        print(
            json.dumps(
                {
                    "correct": incorrect == 0 and checked > 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {
                        name: {"value": value, "unit": unit}
                        for name, (value, unit) in values.items()
                    },
                }
            )
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
