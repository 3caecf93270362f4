"""Unit tests for shard planning (core/shard.py), sharded equivalence and
the policy crossover."""

import pytest

from repro.core.batch import BatchPolicy
from repro.core.batch_label_search import BatchedLabelSearchEngine
from repro.core.labelling import verify_labels
from repro.core.parallel import ProcessShardBackend
from repro.core.shard import ShardPlanner, default_num_shards
from repro.core.stl import StableTreeLabelling
from repro.graph.updates import EdgeUpdate
from repro.hierarchy.builder import HierarchyOptions
from repro.utils.errors import UpdateError
from repro.core.config import STLConfig
from tests.conftest import paired_indexes, random_mixed_batch

#: Workers for the sharded runs: more than one, so the ownership merge runs,
#: but few, to keep the test's memory small.
WORKERS = 2

#: The serial route: batched Label Search, never sharded, never rebuilt.
SERIAL = STLConfig(backend="serial", policy=BatchPolicy(rebuild_fraction=None))

#: The sharded route: the same engine on the process backend.
SHARDED = STLConfig(
    backend="process", policy=BatchPolicy(rebuild_fraction=None, max_workers=WORKERS)
)


class TestShardPlanner:
    def test_regions_partition_the_vertex_set(self, small_grid):
        planner = ShardPlanner(small_grid, num_shards=4)
        regions, separator = planner.regions()
        seen: set[int] = set(separator)
        assert len(seen) == len(separator), "separator has duplicates"
        for region in regions:
            assert not seen.intersection(region), "regions/separator overlap"
            seen.update(region)
        assert seen == set(range(small_grid.num_vertices))

    def test_no_edge_joins_two_regions(self, small_grid):
        """The defining property: regions only touch through the separator."""
        planner = ShardPlanner(small_grid, num_shards=4)
        regions, _ = planner.regions()
        region_of = {}
        for rid, region in enumerate(regions):
            for v in region:
                region_of[v] = rid
        for u, v, _ in small_grid.edges():
            ru, rv = region_of.get(u), region_of.get(v)
            if ru is not None and rv is not None:
                assert ru == rv, f"edge ({u}, {v}) crosses regions {ru}/{rv}"

    def test_planning_is_deterministic(self, small_grid):
        batch = random_mixed_batch(small_grid, 40, seed=5).coalesce(small_grid)
        plans = [ShardPlanner(small_grid.copy(), num_shards=4).plan(batch) for _ in range(2)]
        assert plans[0].regions == plans[1].regions
        assert plans[0].separator == plans[1].separator
        for a, b in zip(plans[0].shards, plans[1].shards):
            assert list(a) == list(b)
        assert list(plans[0].residual) == list(plans[1].residual)

    def test_plan_respects_first_seen_order(self, small_grid):
        """Sub-batches inherit the coalesced batch's first-seen edge order."""
        net = random_mixed_batch(small_grid, 60, seed=9).coalesce(small_grid)
        position = {
            (u.u, u.v) if u.u < u.v else (u.v, u.u): k for k, u in enumerate(net)
        }
        plan = ShardPlanner(small_grid, num_shards=4).plan(net)
        for sub in [*plan.shards, plan.residual]:
            keys = [(u.u, u.v) if u.u < u.v else (u.v, u.u) for u in sub]
            assert [position[k] for k in keys] == sorted(position[k] for k in keys)

    def test_plan_routes_updates_by_region(self, small_grid):
        planner = ShardPlanner(small_grid, num_shards=4)
        regions, separator = planner.regions()
        sep = set(separator)
        net = random_mixed_batch(small_grid, 50, seed=3).coalesce(small_grid)
        plan = planner.plan(net)
        assert plan.num_updates == len(net)
        for rid, sub in enumerate(plan.shards):
            region = set(regions[rid])
            for u in sub:
                assert u.u in region and u.v in region
        for u in plan.residual:
            assert u.u in sep or u.v in sep or any(
                (u.u in set(r)) != (u.v in set(r)) for r in regions
            )

    def test_num_shards_validation(self, small_grid):
        with pytest.raises(ValueError):
            ShardPlanner(small_grid, num_shards=1)
        assert default_num_shards() >= 2

    def test_balance_metrics(self, small_grid):
        net = random_mixed_batch(small_grid, 50, seed=11).coalesce(small_grid)
        plan = ShardPlanner(small_grid, num_shards=4).plan(net)
        assert 0.0 <= plan.balance <= 1.0
        assert plan.sharded_updates + len(plan.residual) == len(net)
        policy = BatchPolicy(parallel_min_balance=plan.balance)
        assert plan.worth_running(policy) == (plan.populated_shards >= 2)


class TestShardedEquivalence:
    """Property-style: sharded labels match the serial engine entry-wise.

    These go through :meth:`StableTreeLabelling.apply_batch`, the public
    route to the process backend; ``test_parallel.py`` drives the backend
    object directly.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_mixed_batches_match_serial(self, small_grid, seed):
        serial, sharded = paired_indexes(small_grid)
        try:
            batch = random_mixed_batch(serial.graph, 70, seed=seed)
            serial.apply_batch(batch, config=SERIAL)
            stats = sharded.apply_batch(batch, config=SHARDED)
            assert stats.extra["sharded"] == 1
            assert stats.extra["process_workers"] == WORKERS
            assert serial.labels.equals(sharded.labels)
            assert verify_labels(sharded.graph, sharded.hierarchy, sharded.labels) == []
        finally:
            sharded.close()

    def test_repeated_batches_stay_exact(self, small_grid):
        """Regression for the float-equality marking bug: a second mixed
        batch lands on labels whose entries were rewritten by decrease
        repairs; before the tolerant through-the-edge test whole increase
        deltas were silently lost here."""
        serial, sharded = paired_indexes(small_grid)
        try:
            for round_ in range(3):
                batch = random_mixed_batch(serial.graph, 40, seed=round_)
                serial.apply_batch(batch, config=SERIAL)
                sharded.apply_batch(batch, config=SHARDED)
                assert verify_labels(serial.graph, serial.hierarchy, serial.labels) == []
                assert verify_labels(sharded.graph, sharded.hierarchy, sharded.labels) == []
                assert serial.labels.equals(sharded.labels)
        finally:
            sharded.close()

    def test_fully_separator_crossing_batch(self, small_grid):
        """Degenerate plan: every update touches the separator, so the whole
        batch is residual and the backend runs the serial path without
        spawning a worker."""
        serial, sharded = paired_indexes(small_grid)
        _, separator = sharded._planner.regions()
        sep = set(separator)
        updates = [
            EdgeUpdate(u, v, w, w * 2)
            for u, v, w in sharded.graph.edges()
            if u in sep or v in sep
        ]
        assert updates, "grid separator must touch some edges"
        try:
            stats = sharded.apply_batch(updates, config=SHARDED)
            assert stats.extra["sharded_updates"] == 0
            assert stats.extra["residual_updates"] == len(updates)
            assert sharded._process_backend._workers is None
            serial.apply_batch(updates, config=SERIAL)
            assert serial.labels.equals(sharded.labels)
            assert verify_labels(sharded.graph, sharded.hierarchy, sharded.labels) == []
        finally:
            sharded.close()

    def test_non_coalesced_batch_rejected(self, small_grid):
        _, sharded = paired_indexes(small_grid)
        before = sharded.labels.copy()
        u, v, w = next(iter(sharded.graph.edges()))
        backend = ProcessShardBackend(sharded.graph, sharded.hierarchy, sharded.labels)
        try:
            with pytest.raises(UpdateError):
                backend.apply([EdgeUpdate(u, v, w, w / 2), EdgeUpdate(u, v, w / 2, w * 2)])
            assert backend._workers is None, "rejected input must not spawn workers"
            assert sharded.labels.equals(before)
            assert sharded.graph.weight(u, v) == w
        finally:
            backend.close()

    def test_stale_old_weight_rejected(self, small_grid):
        _, sharded = paired_indexes(small_grid)
        before = sharded.labels.copy()
        u, v, w = next(iter(sharded.graph.edges()))
        backend = ProcessShardBackend(sharded.graph, sharded.hierarchy, sharded.labels)
        try:
            with pytest.raises(UpdateError):
                backend.apply([EdgeUpdate(u, v, w + 1.0, w + 5.0)])
            assert backend._workers is None, "rejected input must not spawn workers"
            assert sharded.labels.equals(before)
            assert sharded.graph.weight(u, v) == w
        finally:
            backend.close()


class TestPolicyCrossover:
    def test_should_loop_and_should_shard(self):
        policy = BatchPolicy(batched_min_updates=3, process_min_updates=100)
        assert policy.should_loop(2)
        assert not policy.should_loop(3)
        assert not policy.should_shard(99)
        assert policy.should_shard(100)
        # The default engages the process pool at 384 net updates (see
        # BatchPolicy.process_min_updates); None disables it.
        assert not BatchPolicy().should_shard(383)
        assert BatchPolicy().should_shard(384)
        assert not BatchPolicy(process_min_updates=None).should_shard(10_000)

    def test_accepts_plan(self):
        policy = BatchPolicy(parallel_min_balance=0.5)
        assert policy.accepts_plan(2, 0.5)
        assert not policy.accepts_plan(1, 1.0)
        assert not policy.accepts_plan(4, 0.49)

    def test_apply_batch_serial_backend_never_shards(self, small_grid):
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        stl.batch_policy = BatchPolicy(
            rebuild_fraction=None, process_min_updates=1, parallel_min_balance=0.0
        )
        batch = random_mixed_batch(stl.graph, 30, seed=1)
        stats = stl.apply_batch(batch, config=STLConfig(backend="serial"))
        assert "sharded" not in stats.extra
        assert stl._process_backend is None
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []

    def test_unbalanced_plan_stays_serial(self, small_grid):
        """The balance gate: a plan below ``parallel_min_balance`` runs the
        serial engine without spawning the process pool."""
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        stl.batch_policy = BatchPolicy(
            rebuild_fraction=None, process_min_updates=1, parallel_min_balance=1.01
        )
        batch = random_mixed_batch(stl.graph, 30, seed=2)
        stats = stl.apply_batch(batch)
        assert stats.extra["sharded"] == 0
        assert stl._process_backend is None
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []

    def test_below_process_threshold_stays_serial(self, small_grid):
        """A balanced batch under ``process_min_updates`` never reaches the
        planner: it runs serial batched Label Search and spawns no pool."""
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        stl.batch_policy = BatchPolicy(
            rebuild_fraction=None, process_min_updates=1_000, parallel_min_balance=0.0
        )
        batch = random_mixed_batch(stl.graph, 60, seed=4)
        stats = stl.apply_batch(batch)
        assert "sharded" not in stats.extra
        assert stl._process_backend is None
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []

    @pytest.mark.parametrize("engine", ["pareto", "label_search"])
    def test_larger_batches_run_batched_label_search(self, small_grid, engine, monkeypatch):
        """``STLConfig.engine`` picks only the per-update family: past the
        tiny-batch loop, either family runs batched Label Search."""
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        calls = []
        original = BatchedLabelSearchEngine.apply

        def spy(self, updates):
            calls.append(len(updates))
            return original(self, updates)

        monkeypatch.setattr(BatchedLabelSearchEngine, "apply", spy)
        config = STLConfig(engine=engine, policy=BatchPolicy(rebuild_fraction=None))
        batch = random_mixed_batch(stl.graph, 30, seed=6)
        stats = stl.apply_batch(batch, config=config)
        assert calls == [stats.extra["net_updates"]]
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []

    def test_tiny_batch_runs_per_update_loop(self, small_grid):
        stl = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
        u, v, w = next(iter(stl.graph.edges()))
        stats = stl.apply_batch([EdgeUpdate(u, v, w, w * 2)])
        # The loop path reports no engine-only extras, just the net size.
        assert stats.extra["net_updates"] == 1
        assert stats.updates_processed == 1
        assert verify_labels(stl.graph, stl.hierarchy, stl.labels) == []
