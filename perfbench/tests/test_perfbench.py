"""Self-tests of the benchmark's own helpers (no server is started)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import metrics  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_supported_percentile_has_ten_samples_beyond(count, expected):
    assert metrics.supported_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert metrics.percentile(values, 50) == 50
    assert metrics.percentile(values, 90) == 90
    assert metrics.percentile(values, 99) == 99
    assert metrics.percentile([], 50) == 0.0


def _inputs(name: str, seed: int):
    spec = workload.WORKLOADS[name]
    graph = workload.make_graph(spec)
    reads = workload.read_schedule(graph.num_vertices, seed, 1.0)
    updates = workload.update_schedule(spec, graph, seed, 3.0)
    updates += workload.probe_updates(spec, graph, seed)
    return sorted(graph.edges()), [r.line for r in reads], [r.line for r in updates]


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_seed_fixes_schedule_and_update_stream(name):
    edges, reads, updates = _inputs(name, 11)
    assert updates
    assert (edges, reads, updates) == _inputs(name, 11)
    other_edges, other_reads, other_updates = _inputs(name, 12)
    assert reads != other_reads
    assert edges == other_edges  # the network is fixed
    if name == "rush_hour":  # so are the hotspot cycles
        assert updates == other_updates
    else:
        assert updates != other_updates


def _path_graph():
    # 0 -1- 1 -1- 2 -1- 3, plus a 10-long shortcut 0-3.
    return 4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 10.0)]


def test_oracle_accepts_answers_of_their_own_version():
    n, edges = _path_graph()
    commits = [(2, ((1, 2, 20.0),))]  # v2 makes the middle edge long
    recorded = [
        oracle.Recorded(1, ((0, 3),), [3.0]),
        oracle.Recorded(2, ((0, 3),), [10.0]),
        oracle.Recorded(2, ((0, 1), (0, 2)), [1.0, 11.0]),
    ]
    result = oracle.check(n, edges, commits, recorded)
    assert (result.checked, result.incorrect) == (4, 0)


def test_oracle_rejects_a_corrupted_answer():
    n, edges = _path_graph()
    commits = [(2, ((1, 2, 20.0),))]
    corrupted = oracle.Recorded(2, ((0, 3),), [3.0])  # v1's answer under v2
    assert oracle.check(n, edges, commits, [corrupted]).incorrect == 1
    off_by_one = oracle.Recorded(1, ((0, 2),), [3.0])
    assert oracle.check(n, edges, [], [off_by_one]).incorrect == 1


def test_oracle_rejects_non_monotonic_ack_versions():
    n, edges = _path_graph()
    commits = [(3, ((1, 2, 2.0),)), (2, ((1, 2, 3.0),))]
    assert oracle.check(n, edges, commits, []).incorrect == 1


def test_oracle_treats_null_as_unreachable():
    edges = [(0, 1, 1.0)]
    assert oracle.check(3, edges, [], [oracle.Recorded(1, ((0, 2),), [None])]).incorrect == 0
    assert oracle.check(3, edges, [], [oracle.Recorded(1, ((0, 1),), [None])]).incorrect == 1


def test_self_time_is_duration_minus_union_of_children():
    recorded = [
        (1, "root", None, 0.0, 10.0, None),
        (2, "a", 1, 1.0, 4.0, None),
        (3, "b", 1, 3.0, 6.0, None),  # overlaps a: union [1, 6]
        (4, "c", 1, 8.0, 9.0, None),
        (5, "grandchild", 2, 1.5, 2.0, None),
    ]
    self_time = spans.self_times(recorded)
    assert self_time[1] == pytest.approx(10.0 - 6.0)
    assert self_time[2] == pytest.approx(3.0 - 0.5)
    assert self_time[5] == pytest.approx(0.5)


def test_recorder_links_nested_calls_and_attrs():
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("inner", lambda x: x + 1, attrs=lambda args, result: {"r": result})
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    by_name = {s[1]: s for s in recorder.spans}
    assert by_name["inner"][2] == by_name["outer"][0]
    assert by_name["outer"][2] is None
    assert by_name["inner"][5] == {"r": 2}
    assert spans.self_times(recorder.spans)[by_name["outer"][0]] == pytest.approx(2.0)
