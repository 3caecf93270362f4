"""Start the query service on a DIMACS file: the benchmark's server process.

    python perfbench/launcher.py --graph G.gr --coords G.co [--trace-out spans.json]

Loads the graph (DIMACS arcs plus coordinates, which the hierarchy's
bisection uses), starts ``QueryService`` (default ``STLConfig()``) behind
``QueryServer`` on an ephemeral localhost port, prints the JSON line
``{"port": ..., "loaded": <monotonic time the graph was loaded>}``, then
``{"ready": <monotonic time the fast path went live>}`` once the background
build is published, and serves until SIGTERM or SIGINT.  Announcing
readiness here spares the build from a client polling ``stats``.  With ``--trace-out`` it first wraps the
callables of :data:`spans.TARGETS` and, at shutdown, writes the spans and
the label store size there.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import STLConfig  # noqa: E402
from repro.graph.io import read_dimacs  # noqa: E402
from repro.serve.server import QueryServer  # noqa: E402
from repro.serve.service import QueryService  # noqa: E402

from spans import Recorder  # noqa: E402


async def serve(graph_path: str, coords_path: str, trace_out: str | None) -> None:
    graph = read_dimacs(graph_path, coords_path)
    loaded = time.monotonic()
    recorder = Recorder() if trace_out else None
    missing = recorder.install() if recorder else []
    service = QueryService(graph, config=STLConfig())
    server = QueryServer(service, host="127.0.0.1", port=0)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    async with service, server:
        print(json.dumps({"port": server.address[1], "loaded": loaded}), flush=True)
        await service.wait_ready()
        print(json.dumps({"ready": time.monotonic()}), flush=True)
        await stop.wait()
        snap = service.active_snapshot
        store_bytes = snap.labels.store_bytes() if snap.labels is not None else 0
    if recorder is not None:
        Path(trace_out).write_text(
            json.dumps(
                {"spans": recorder.spans, "missing": missing, "store_bytes": store_bytes}
            ),
            encoding="utf-8",
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", required=True)
    parser.add_argument("--coords", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    asyncio.run(serve(args.graph, args.coords, args.trace_out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
