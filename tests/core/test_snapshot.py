"""LabelSnapshot: the RCU read side, reclamation, tiering and persistence.

Covers the serving layer's core invariants at the object level (the
service-level concurrency suite lives in ``tests/serve``): acquired
generations are immutable under writer mutation (copy-on-write via
``adopt_labels``), retirement refuses new readers but never tears an
in-flight one, disposal runs exactly once when the last reader drains, and
the fast/fallback tiers agree with the Dijkstra oracle.  Also the PR's
regression fix: ``StableTreeLabelling.close()`` is idempotent and defers
resource teardown while snapshot readers still pin the store.
"""

from __future__ import annotations

import io
import math

import pytest

from repro.algorithms.dijkstra import dijkstra_with_target
from repro.core.serialization import (
    load_snapshot,
    save_snapshot,
    serialize_snapshot,
)
from repro.core.snapshot import FALLBACK_PATH, FAST_PATH, LabelSnapshot
from repro.core.stl import StableTreeLabelling, open_network
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate
from repro.utils.errors import LabellingError, SerializationError, SnapshotError

from tests.conftest import assert_distances_match


@pytest.fixture
def stl(small_grid):
    return StableTreeLabelling.build(small_grid)


class TestConstruction:
    def test_capture_copies_by_default(self, stl):
        snap = stl.snapshot(version=3)
        assert snap.version == 3
        assert snap.labels is not stl.labels
        assert snap.graph is not stl.graph

    def test_capture_zero_copy_shares_store(self, stl):
        snap = stl.snapshot(copy=False)
        assert snap.labels is stl.labels
        assert snap.graph is not stl.graph  # the graph is always frozen

    def test_labels_require_hierarchy(self, stl):
        with pytest.raises(SnapshotError, match="together"):
            LabelSnapshot(stl.hierarchy, None, stl.graph.copy())

    def test_mismatched_sizes_rejected(self, stl, paper_graph):
        other = StableTreeLabelling.build(paper_graph)
        with pytest.raises(SnapshotError, match="vertices"):
            LabelSnapshot(stl.hierarchy, other.labels, stl.graph.copy())


class TestReaderProtocol:
    def test_acquire_release_counts(self, stl):
        snap = stl.snapshot()
        assert snap.readers == 0
        snap.acquire()
        snap.acquire()
        assert snap.readers == 2
        snap.release()
        snap.release()
        assert snap.readers == 0

    def test_release_without_acquire(self, stl):
        with pytest.raises(SnapshotError, match="matching acquire"):
            stl.snapshot().release()

    def test_retired_snapshot_refuses_new_readers(self, stl):
        snap = stl.snapshot()
        snap.retire()
        with pytest.raises(SnapshotError, match="retired"):
            snap.acquire()

    def test_retire_without_readers_disposes_immediately(self, stl):
        snap = stl.snapshot()
        snap.retire()
        assert snap.disposed
        assert snap.labels is None and snap.hierarchy is None

    def test_epoch_drain_defers_disposal_to_last_reader(self, stl):
        snap = stl.snapshot()
        snap.acquire()
        snap.acquire()
        snap.retire()
        assert snap.retired and not snap.disposed
        # In-flight readers keep answering after retirement.
        d, tier = snap.distance(0, stl.graph.num_vertices - 1)
        assert tier == FAST_PATH and not math.isinf(d)
        snap.release()
        assert not snap.disposed
        snap.release()
        assert snap.disposed

    def test_retire_idempotent(self, stl):
        snap = stl.snapshot()
        snap.retire()
        snap.retire()
        assert snap.disposed

    def test_context_manager(self, stl):
        snap = stl.snapshot()
        with snap:
            assert snap.readers == 1
        assert snap.readers == 0

    def test_disposed_snapshot_refuses_queries(self, stl):
        snap = stl.snapshot()
        snap.retire()
        with pytest.raises(SnapshotError, match="reclaimed"):
            snap.distance(0, 1)

    def test_defer_until_drained(self, stl):
        snap = stl.snapshot()
        fired = []
        snap.defer_until_drained(lambda: fired.append("now"))
        assert fired == ["now"]  # no readers: immediate
        snap.acquire()
        snap.defer_until_drained(lambda: fired.append("later"))
        assert fired == ["now"]
        snap.retire()
        snap.release()
        assert fired == ["now", "later"]

    def test_zero_copy_acquire_pins_the_store(self, stl):
        snap = stl.snapshot(copy=False)
        snap.acquire()
        assert stl.labels.pinned and stl.labels.pin_count == 1
        snap.release()
        assert not stl.labels.pinned


class TestQueryTiering:
    def test_fast_path_matches_index(self, stl):
        snap = stl.snapshot()
        n = stl.graph.num_vertices
        for s, t in [(0, n - 1), (3, 17), (5, 5)]:
            d, tier = snap.distance(s, t)
            assert tier == FAST_PATH
            assert_distances_match(stl.query(s, t), d, f"({s},{t})")

    def test_fallback_only_matches_dijkstra(self, small_grid):
        snap = LabelSnapshot.fallback_only(small_grid)
        d, tier = snap.distance(0, small_grid.num_vertices - 1)
        assert tier == FALLBACK_PATH
        assert_distances_match(
            dijkstra_with_target(small_grid, 0, small_grid.num_vertices - 1), d
        )
        assert not snap.covers(0, 1)
        assert snap.buffer_epoch == -1

    def test_batch_distances_tiers_per_pair(self, stl):
        snap = stl.snapshot()
        pairs = [(0, 10), (2, 40), (63, 0)]
        assert snap.batch_distances(pairs) == [stl.query(s, t) for s, t in pairs]
        labelless = LabelSnapshot.fallback_only(stl.graph)
        assert labelless.batch_distances(pairs) == snap.batch_distances(pairs)

    def test_snapshot_is_immutable_under_writer_mutation(self, stl):
        """The copy-on-write discipline: publish zero-copy, shadow, mutate."""
        n = stl.graph.num_vertices
        before = {(s, t): stl.query(s, t) for s, t in [(0, n - 1), (1, 30)]}
        snap = stl.snapshot(copy=False)
        with snap:
            # Writer shadows its store (what the service does before the
            # next batch once a zero-copy snapshot is out), then mutates.
            stl.adopt_labels(stl.labels.snapshot_store())
            u, v, w = next(iter(stl.graph.edges()))
            stl.apply_batch([EdgeUpdate(u, v, w, w * 4)])
            for (s, t), expected in before.items():
                assert_distances_match(expected, snap.distance(s, t)[0], "frozen read")
        assert stl.query(0, n - 1) >= before[(0, n - 1)] - 1e-9

    def test_adopted_writer_stays_correct(self, stl, small_grid):
        from repro.core.labelling import verify_labels

        stl.snapshot(copy=False)
        stl.adopt_labels(stl.labels.snapshot_store())
        edges = list(stl.graph.edges())[:10]
        stl.apply_batch([EdgeUpdate(u, v, w, w * 2) for u, v, w in edges])
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []


class TestClosePinsRegression:
    """close() under the service swap path: idempotent + epoch-deferred."""

    def test_double_close_is_noop(self, stl):
        stl.close()
        stl.close()
        assert not stl.close_pending

    def test_close_with_live_reader_defers(self, stl):
        snap = stl.snapshot(copy=False)
        snap.acquire()
        stl.close()
        assert stl.close_pending  # deferred, not refused, not executed
        stl.close()  # second close during the window: no-op
        assert stl.close_pending
        snap.release()
        assert not stl.close_pending  # drained -> teardown ran

    def test_deferred_close_tears_down_process_backend(self, stl):
        stl._process_shard_backend()  # force the pooled backend alive
        assert stl._process_backend is not None
        snap = stl.snapshot(copy=False)
        snap.acquire()
        stl.close()
        assert stl._process_backend is not None  # still alive behind the pin
        snap.release()
        assert stl._process_backend is None

    def test_unmatched_unpin_rejected(self, stl):
        with pytest.raises(LabellingError, match="unpin"):
            stl.labels.unpin()


class TestSnapshotPersistence:
    def test_round_trip_labelled(self, stl):
        snap = stl.snapshot(version=9)
        handle = io.StringIO()
        with snap:
            save_snapshot(snap, handle)
        handle.seek(0)
        restored = load_snapshot(handle)
        assert restored.version == 9
        n = stl.graph.num_vertices
        for s, t in [(0, n - 1), (7, 22)]:
            d, tier = restored.distance(s, t)
            assert tier == FAST_PATH
            assert_distances_match(stl.query(s, t), d)

    def test_round_trip_fallback_only(self, small_grid):
        snap = LabelSnapshot.fallback_only(small_grid)
        handle = io.StringIO()
        save_snapshot(snap, handle)
        handle.seek(0)
        restored = load_snapshot(handle)
        assert restored.labels is None
        assert_distances_match(
            snap.distance(0, 30)[0], restored.distance(0, 30)[0], "fallback round trip"
        )

    def test_infinite_weights_survive(self):
        graph = Graph.from_edges(4, [(0, 1, 2.0), (2, 3, 5.0)])
        stl = open_network(graph)
        snap = stl.snapshot()
        handle = io.StringIO()
        with snap:
            save_snapshot(snap, handle)
        handle.seek(0)
        restored = load_snapshot(handle)
        assert math.isinf(restored.distance(0, 3)[0])
        assert restored.distance(2, 3)[0] == 5.0

    def test_disposed_snapshot_refused(self, stl):
        snap = stl.snapshot()
        snap.retire()
        with pytest.raises(SerializationError, match="reclaimed"):
            serialize_snapshot(snap)

    def test_bad_format_rejected(self):
        with pytest.raises(SerializationError, match="snapshot format"):
            load_snapshot(io.StringIO('{"snapshot_format": 99}'))

    def test_files_round_trip(self, stl, tmp_path):
        path = tmp_path / "snap.json"
        with stl.snapshot(version=2) as snap:
            save_snapshot(snap, path)
        restored = load_snapshot(path)
        assert restored.version == 2
        assert restored.num_vertices == stl.graph.num_vertices
