"""Stand-alone query server: ``python -m repro.serve``.

Boots a :class:`~repro.serve.service.QueryService` over a graph (a DIMACS
file or a synthetic generator), fronts it with the JSON-lines TCP protocol
of :mod:`repro.serve.server`, and runs until interrupted.  The service
answers from the first moment -- via the bounded-Dijkstra fallback while
the labelling builds in the background -- and ``--snapshot`` enables warm
restarts (the label state is persisted on shutdown and restored on the
next boot).

Examples::

    python -m repro.serve --grid 32 --port 4025
    python -m repro.serve --dimacs data/NY.gr --engine label_search \\
        --snapshot /var/tmp/ny-labels.json
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.core.config import STLConfig
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.io import read_dimacs
from repro.serve.server import QueryServer
from repro.serve.service import QueryService


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description="Always-on STL distance-query server."
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--dimacs", help="DIMACS .gr file to serve")
    source.add_argument(
        "--grid", type=int, metavar="N", help="serve a synthetic N x N grid road network"
    )
    parser.add_argument("--seed", type=int, default=2025, help="seed for --grid")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=4025)
    parser.add_argument(
        "--engine", choices=("pareto", "label_search"), default=None,
        help="per-update maintenance family",
    )
    parser.add_argument(
        "--backend", choices=("serial", "process"), default=None,
        help="shard backend for batch maintenance",
    )
    parser.add_argument(
        "--kernel", choices=("scalar", "vector"), default=None, help="batch query kernel"
    )
    parser.add_argument(
        "--snapshot", default=None,
        help="persist labels here on shutdown and restore on the next boot",
    )
    return parser.parse_args(argv)


def _config(args: argparse.Namespace) -> STLConfig:
    """The index configuration the command-line flags ask for."""
    return STLConfig(backend=args.backend, engine=args.engine, kernel=args.kernel)


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.dimacs is not None:
        return read_dimacs(args.dimacs)
    return generators.grid_road_network(args.grid, args.grid, seed=args.seed)


async def _run(args: argparse.Namespace) -> None:
    graph = _load_graph(args)
    config = _config(args)
    service = QueryService(graph, config=config, snapshot_path=args.snapshot)
    server = QueryServer(service, host=args.host, port=args.port)
    async with service, server:
        host, port = server.address
        print(
            f"serving {graph.num_vertices} vertices on {host}:{port} "
            f"({config.describe()}); fast path {'live' if service.ready else 'building'}",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        asyncio.run(_run(args))
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
