"""Cross-cell equivalence: every surviving batch policy leg vs a fresh rebuild.

The batch layer has four legs -- the per-update loop (in either per-update
family, STL-P or STL-L), serial batched Label Search, batched Label Search
on the process backend, and the rebuild fallback.  Every maintaining leg
promises *entry-wise identical* labels; this suite is the promise's
enforcement, parametrized over the four maintaining cells and three
workload shapes:

* the Figure 10 workload (``mixed_update_stream`` halves, the shape the
  benchmarks replay),
* multi-round random mixed batches (repeated edges, both kinds, chains),
* a degenerate plan whose updates *all* touch the separator (nothing to
  shard -- the process backend must degrade to its serial engine).

Every scenario asserts against :meth:`repro.core.labelling.STLLabels
.differences` with labels rebuilt from scratch on the final weights -- the
strongest oracle available, independent of any maintenance code path.

CI runs this file as its own matrix job with a hard timeout and
``-p no:cacheprovider`` (it spawns real worker processes), mirroring the
``test_parallel.py`` treatment; the tier-1 step skips it for the same
reason.
"""

from dataclasses import replace

import pytest

from repro.core.batch_label_search import BatchedLabelSearchEngine
from repro.core.label_search import LabelSearchDecrease, LabelSearchIncrease
from repro.core.labelling import build_labels
from repro.core.parallel import ProcessShardBackend
from repro.core.pareto_search import ParetoSearchDecrease, ParetoSearchIncrease
from repro.core.shard import ShardPlanner
from repro.core.stl import StableTreeLabelling
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.hierarchy.builder import HierarchyOptions
from repro.workloads.updates import mixed_update_stream
from tests.conftest import BATCHED_LS, PARETO_LOOP, random_mixed_batch

#: More workers than CI runners have cores, so the multi-worker ownership
#: merge is exercised even on small boxes (same constant as test_parallel).
WORKERS = 4

#: Every class whose ``apply`` is the entry point of one leg.
LEG_CLASSES = (
    ParetoSearchIncrease,
    ParetoSearchDecrease,
    LabelSearchIncrease,
    LabelSearchDecrease,
    BatchedLabelSearchEngine,
    ProcessShardBackend,
)

#: One config per maintaining leg, and the leg classes it must run.  The
#: rebuild fallback is off in every cell: on a graph this small it would
#: otherwise swallow every batch, and a rebuild is trivially equal to the
#: rebuild oracle -- the engines must do the maintaining themselves here.
CELLS = {
    "loop-pareto": (PARETO_LOOP, {ParetoSearchIncrease, ParetoSearchDecrease}),
    "loop-label_search": (
        PARETO_LOOP.replace(engine="label_search"),
        {LabelSearchIncrease, LabelSearchDecrease},
    ),
    "batched-serial": (BATCHED_LS, {BatchedLabelSearchEngine}),
    "batched-process": (
        BATCHED_LS.replace(
            backend="process", policy=replace(BATCHED_LS.policy, max_workers=WORKERS)
        ),
        {ProcessShardBackend},
    ),
}


@pytest.fixture(params=sorted(CELLS))
def cell(request):
    """The config of one surviving cell."""
    return CELLS[request.param][0]


@pytest.fixture
def stl(small_grid):
    """A fresh index per test, closed afterwards (kills any worker pool)."""
    index = StableTreeLabelling.build(small_grid.copy(), HierarchyOptions(leaf_size=8))
    yield index
    index.close()


def assert_matches_rebuild(index: StableTreeLabelling) -> None:
    """The maintained labels equal a from-scratch build on the final graph."""
    fresh = build_labels(index.graph, index.hierarchy)
    diffs = index.labels.differences(fresh)
    assert diffs == [], f"{len(diffs)} label entries diverged: {diffs[:5]}"


class TestSurvivingCells:
    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_cell_runs_its_leg(self, stl, name, monkeypatch):
        """Each cell's config really routes a batch to the leg it names."""
        config, expected = CELLS[name]
        called = set()
        for cls in LEG_CLASSES:

            def spy(self, *args, _cls=cls, _apply=cls.apply, **kwargs):
                called.add(_cls)
                return _apply(self, *args, **kwargs)

            monkeypatch.setattr(cls, "apply", spy)
        stl.apply_batch(random_mixed_batch(stl.graph, 60, seed=5), config=config)
        if name == "batched-process":
            # The process backend runs the serial engine on its residual shard.
            called.discard(BatchedLabelSearchEngine)
        assert called == expected

    def test_figure10_workload_matches_rebuild(self, stl, cell):
        """The benchmark workload: the increase half, then the restoring
        decrease half, through one cell."""
        stream = mixed_update_stream(stl.graph, 80, factor=2.0, seed=21)
        stl.apply_batch(stream.increases(), config=cell)
        assert_matches_rebuild(stl)
        stl.apply_batch(stream.decreases(), config=cell)
        assert_matches_rebuild(stl)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_multi_round_mixed_batches_match_rebuild(self, stl, cell, seed):
        """Rounds of mixed batches with repeated edges: state carried across
        rounds must stay exact, not just each round in isolation."""
        for round_ in range(3):
            batch = random_mixed_batch(stl.graph, 60, seed=seed * 10 + round_)
            stl.apply_batch(batch, config=cell)
        assert_matches_rebuild(stl)

    def test_fully_separator_crossing_batch_matches_rebuild(self, stl, cell):
        """A batch made only of separator-touching edges: the plan has no
        shardable updates, so the process backend must degrade to its
        serial engine -- the degenerate corner of the matrix."""
        _, separator = ShardPlanner(stl.graph).regions()
        sep = set(separator)
        batch = UpdateBatch()
        for u, v, w in stl.graph.edges():
            if u in sep or v in sep:
                batch.append(EdgeUpdate(u, v, w, round(w * 1.7, 3)))
        assert len(batch) > 0, "separator touches no edges; scenario is vacuous"
        stats = stl.apply_batch(batch, config=cell)
        assert stats.updates_processed >= len(batch)
        assert_matches_rebuild(stl)

    def test_cells_agree_with_each_other(self, small_grid, cell):
        """Transitivity check in the other direction: every cell equals the
        per-update Pareto loop (STL-P) on the same stream, so any two cells
        agree."""
        reference = StableTreeLabelling.build(
            small_grid.copy(), HierarchyOptions(leaf_size=8)
        )
        candidate = StableTreeLabelling(
            small_grid.copy(), reference.hierarchy, reference.labels.copy()
        )
        try:
            for round_ in range(2):
                batch = random_mixed_batch(reference.graph, 50, seed=100 + round_)
                reference.apply_batch(batch, config=CELLS["loop-pareto"][0])
                candidate.apply_batch(batch, config=cell)
            assert candidate.labels.differences(reference.labels) == []
        finally:
            candidate.close()
