"""The server process and the open-loop load generator that drives it.

:class:`Server` spawns ``launcher.py`` and reads its process tree's CPU time
and peak RSS from ``/proc`` (outside the program).  :func:`drive` sends a
request schedule over two JSON-lines connections -- reads on one, updates on
the other, because the server answers one request at a time per connection
and an update's reply waits for its commit -- and times every request from
when it was *due*, so a stall also charges the requests queued behind it.
The generator polls rather than sleeps near each due time, so it sends
within microseconds of schedule and notices replies as they land; it keeps
one CPU busy doing so.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from oracle import Recorded
from workload import Request

HERE = Path(__file__).resolve().parent
#: Seconds to wait for a launched server's first line, its ``ready``, its
#: exit, and the last replies after the schedule ends.
START_TIMEOUT, READY_TIMEOUT, STOP_TIMEOUT, DRAIN_TIMEOUT = 60.0, 120.0, 60.0, 30.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: The sender polls instead of sleeping this close to a request's due time,
#: so the event loop also picks replies up as they land.
SPIN_SECONDS = 0.002


class Server:
    """One launched server process (optionally traced)."""

    def __init__(self, graph_path: Path, trace_out: Path | None = None):
        command = [
            sys.executable, str(HERE / "launcher.py"),
            "--graph", str(graph_path), "--coords", str(graph_path.with_suffix(".co")),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.spawned = time.monotonic()
        # Unbuffered, so select() sees every announced line.
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, bufsize=0)
        info = self._line(START_TIMEOUT)
        self.port: int = info["port"]
        self.load_s: float = info["loaded"] - self.spawned

    def _line(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.stop()
            raise RuntimeError("server exited or timed out before announcing itself")
        return json.loads(line)

    def rpc(self, payload: dict) -> dict:
        """One request on a fresh connection (outside the timed window)."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=READY_TIMEOUT) as sock:
            sock.sendall(json.dumps(payload).encode("ascii") + b"\n")
            with sock.makefile("rb") as reader:
                return json.loads(reader.readline())

    def wait_ready(self) -> float:
        """Seconds from spawn until the service is ready, confirmed by ``stats``."""
        ready_at = self._line(READY_TIMEOUT)["ready"]
        if not self.rpc({"op": "stats"})["stats"]["ready"]:
            raise RuntimeError("server announced ready but stats disagrees")
        return ready_at - self.spawned

    def tree(self) -> list[int]:
        """The server's pid and every live descendant's."""
        parents: dict[int, list[int]] = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    stat = Path(f"/proc/{entry}/stat").read_text()
                except OSError:
                    continue
                ppid = int(stat.rsplit(")", 1)[1].split()[1])
                parents.setdefault(ppid, []).append(int(entry))
        pids, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            pids.append(pid)
            todo.extend(parents.get(pid, ()))
        return pids

    def cpu_seconds(self) -> float:
        """User+system CPU of the live tree, reaped children included."""
        total = 0
        for pid in self.tree():
            try:
                fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += sum(int(x) for x in fields[11:15])
        return total / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the live tree."""
        total_kb = 0
        for pid in self.tree():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM, wait (the traced launcher writes its spans), then kill."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Sample:
    """One answered (or failed) request."""

    op: str
    due: float  # seconds after schedule start
    lag: float  # seconds the generator sent it late
    latency: float | None  # seconds from due to reply; None = failed


@dataclass
class LoadResult:
    samples: list[Sample] = field(default_factory=list)
    recorded: list[Recorded] = field(default_factory=list)
    commits: list[tuple[int, tuple]] = field(default_factory=list)
    cpu_s: float = 0.0
    start: float = 0.0  # monotonic time of schedule offset 0
    window: tuple[float, float] = (0.0, 0.0)  # offsets of the timed window


async def _stream(
    requests: list[Request],
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    start: float,
    record_every: dict[str, int],
    out: LoadResult,
) -> None:
    """Send ``requests`` on schedule and collect their replies in order.

    A request that is never answered leaves no sample; the caller counts
    it as failed against the schedule.
    """
    inflight: deque[tuple[Request, float]] = deque()
    counts = {"query": 0, "batch_query": 0}

    async def send() -> None:
        i, n = 0, len(requests)
        while i < n:
            now = time.monotonic()
            wait = start + requests[i].due - now
            if wait > SPIN_SECONDS:
                await asyncio.sleep(wait - SPIN_SECONDS)
                continue
            if wait > 0:
                await asyncio.sleep(0)  # spin: timer wake-ups run ~0.5 ms late
                continue
            chunk = []
            while i < n and start + requests[i].due <= now:
                chunk.append(requests[i].line)
                inflight.append((requests[i], now))
                i += 1
            writer.write(b"".join(chunk))
            await writer.drain()

    sender = asyncio.create_task(send())
    try:
        for _ in requests:
            line = await reader.readline()
            received = time.monotonic()
            if not line:
                break
            request, sent = inflight.popleft()
            # Replies lead with "ok"; only sampled and update replies are parsed.
            ok = line.startswith((b'{"ok": true', b'{"ok":true'))
            due = start + request.due
            out.samples.append(
                Sample(request.op, request.due, sent - due, received - due if ok else None)
            )
            if not ok:
                continue
            if request.op == "update":
                out.commits.append((json.loads(line)["version"], request.args))
                continue
            counts[request.op] += 1
            if counts[request.op] % record_every[request.op] == 0:
                reply = json.loads(line)
                if request.op == "query":
                    out.recorded.append(
                        Recorded(reply["version"], (request.args,), [reply["distance"]])
                    )
                else:
                    out.recorded.append(
                        Recorded(reply["version"], request.args, reply["distances"])
                    )
    finally:
        sender.cancel()
        try:
            await sender
        except (asyncio.CancelledError, ConnectionError):
            pass


async def _closed_loop(
    requests: list[Request], reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    out: LoadResult,
) -> None:
    """Send each request once the previous one is answered (due = sent)."""
    for request in requests:
        sent = time.monotonic()
        writer.write(request.line)
        await writer.drain()
        line = await reader.readline()
        reply = json.loads(line) if line else {}
        ok = reply.get("ok") is True
        out.samples.append(
            Sample("probe_update", request.due, 0.0, time.monotonic() - sent if ok else None)
        )
        if ok:
            out.commits.append((reply["version"], request.args))


async def run_probe(server: Server, requests: list[Request]) -> LoadResult:
    """Only the closed-loop updates, on a fresh connection."""
    out = LoadResult()
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    try:
        await _closed_loop(requests, reader, writer, out)
    finally:
        writer.close()
        await writer.wait_closed()
    return out


async def drive(
    server: Server,
    reads: list[Request],
    updates: list[Request],
    probe: list[Request],
    window: tuple[float, float],
    record_every: dict[str, int],
) -> LoadResult:
    """Run the schedule; sample server CPU at the window's two edges."""
    out = LoadResult(window=window)
    conns = [await asyncio.open_connection("127.0.0.1", server.port) for _ in range(2)]
    out.start = start = time.monotonic() + 0.05
    cpu: list[float] = []

    async def sample_cpu() -> None:
        for edge in window:
            await asyncio.sleep(start + edge - time.monotonic())
            cpu.append(server.cpu_seconds())

    tasks = [
        asyncio.create_task(sample_cpu()),
        asyncio.create_task(_stream(reads, *conns[0], start, record_every, out)),
        asyncio.create_task(_stream(updates, *conns[1], start, record_every, out)),
    ]
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=window[1] + DRAIN_TIMEOUT + 1.0)
        drained = True
    except asyncio.TimeoutError:
        drained = False  # unanswered requests count as failed
    if len(cpu) == 2:
        out.cpu_s = cpu[1] - cpu[0]
    if probe and drained:
        await _closed_loop(probe, *conns[1], out)
    for _, writer in conns:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return out
