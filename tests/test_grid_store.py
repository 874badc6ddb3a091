"""The engine-scoped per-task grid store (:class:`TaskGridStore`).

Three pins:

* **bit identity** — a model that takes its grids from a store (warm,
  with rows recycled by earlier packs) gives the same bits as a fresh
  model: every :class:`TaskGrid` field, every ``profile_matrix`` row at
  random residual alphas (duplicate sizes and zero alphas included),
  and whole simulator runs on each profile backend;
* **store mechanics** — reference-counted eviction, row recycling and
  block growth, and refusal to bind a model built for other inputs;
* **bounded engine store** — after any run of submit/cancel pairs the
  online engine's store holds exactly the running jobs' grids, and
  nothing after a drain.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.exceptions import ConfigurationError
from repro.resilience import ExpectedTimeModel
from repro.resilience.expected_time import TaskGridStore
from repro.service.horizon import OnlineEngine
from repro.simulation.simulator import Simulator
from repro.tasks import Pack, TaskSpec
from repro.tasks.speedup import PaperSyntheticProfile

GRID_FIELDS = (
    "j", "t_ff", "cost", "tau", "lam", "prefactor", "exp_period",
    "work_per_period",
)

#: A small size pool, so drawn packs repeat sizes (shared store keys).
SIZE_POOL = [6_000.0, 7_250.0, 8_000.0, 9_500.0, 10_000.0]


def make_pack(sizes, profile, unit_cost=1.0):
    return Pack([
        TaskSpec(
            index=i, size=size, checkpoint_cost=unit_cost * size,
            profile=profile,
        )
        for i, size in enumerate(sizes)
    ])


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def warm_store(store, cluster, earlier_packs, release_first):
    """Run ``earlier_packs`` through ``store`` as an engine would:
    retain each task, build the model's blocks, then release the tasks
    of the first pack (freeing rows for recycling) if asked."""
    for k, sizes in enumerate(earlier_packs):
        pack = make_pack(sizes, store.profile)
        for task in pack:
            store.retain((task.size, task.checkpoint_cost))
        ExpectedTimeModel(pack, cluster, grid_store=store)._stacked_grids()
        if release_first and k == 0:
            for task in pack:
                store.release((task.size, task.checkpoint_cost))


pack_sizes = st.lists(st.sampled_from(SIZE_POOL), min_size=1, max_size=6)
alpha_values = st.one_of(
    st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)
)


class TestBitIdentity:
    @given(
        sizes=pack_sizes,
        earlier=st.lists(pack_sizes, max_size=3),
        release_first=st.booleans(),
        alphas=st.lists(alpha_values, min_size=6, max_size=6),
        backend=st.sampled_from(["fused", "reference"]),
        p=st.sampled_from([16, 32, 64]),
    )
    @settings(max_examples=80, deadline=None)
    def test_store_backed_model_matches_fresh(
        self, sizes, earlier, release_first, alphas, backend, p
    ):
        cluster = Cluster.with_mtbf_years(p, 0.05)
        store = TaskGridStore(cluster, PaperSyntheticProfile())
        warm_store(store, cluster, earlier, release_first)
        pack = make_pack(sizes, store.profile)
        stored = ExpectedTimeModel(
            pack, cluster, grid_store=store, profile_backend=backend
        )
        fresh = ExpectedTimeModel(pack, cluster, profile_backend=backend)
        for i in range(len(pack)):
            for name in GRID_FIELDS:
                assert same_bits(
                    getattr(stored.grid(i), name),
                    getattr(fresh.grid(i), name),
                ), (i, name)
        indices = list(range(len(pack))) * 2  # duplicate (task, alpha) rows
        residual = (alphas[: len(pack)] * 2)[: len(indices)]
        assert same_bits(
            stored.profile_matrix(indices, residual),
            fresh.profile_matrix(indices, residual),
        )
        shifted = np.array([a * 0.5 for a in alphas[: len(pack)]])
        rows = [
            model.profile_rows_into(
                range(len(pack)), shifted,
                np.empty((len(pack), model.j_grid.size)),
            )
            for model in (stored, fresh)
        ]
        assert same_bits(*rows)
        assert same_bits(
            stored.profile(0, alphas[0]), fresh.profile(0, alphas[0])
        )

    @pytest.mark.parametrize("backend", ["fused", "reference"])
    @pytest.mark.parametrize("policy", ["ig-el", "stf-eg"])
    def test_simulation_matches_fresh_model(self, backend, policy):
        cluster = Cluster.with_mtbf_years(40, 0.02)
        store = TaskGridStore(cluster, PaperSyntheticProfile())
        warm_store(store, cluster, [[9_000.0, 6_000.0, 7_250.0]], True)
        pack = make_pack(
            [8_000.0, 6_000.0, 9_500.0, 8_000.0, 10_000.0], store.profile
        )
        results = [
            Simulator(
                pack, cluster, policy, seed=3, model=ExpectedTimeModel(
                    pack, cluster, grid_store=grid_store,
                    profile_backend=backend,
                ),
            ).run()
            for grid_store in (store, None)
        ]
        stored, fresh = results
        assert stored.failures_effective > 0
        assert stored.makespan == fresh.makespan
        assert same_bits(stored.completion_times, fresh.completion_times)
        assert (stored.events, stored.redistributions) == (
            fresh.events, fresh.redistributions,
        )


class TestStoreMechanics:
    def setup_method(self):
        self.cluster = Cluster.with_mtbf_years(16, 0.05)
        self.store = TaskGridStore(self.cluster, PaperSyntheticProfile())

    def model(self, sizes):
        return ExpectedTimeModel(
            make_pack(sizes, self.store.profile), self.cluster,
            grid_store=self.store,
        )

    def test_builds_each_key_once_and_shares_the_grid(self):
        first = self.model([6_000.0, 8_000.0])
        first._stacked_grids()
        second = self.model([8_000.0, 6_000.0, 8_000.0])
        second._stacked_grids()
        assert (self.store.built, self.store.reused) == (2, 3)
        assert second.grid(0) is first.grid(1)
        assert second.grid(2) is first.grid(1)
        assert list(second.grid_rows) == [1, 0, 1]

    def test_last_release_evicts_and_recycles_the_row(self):
        key = (6_000.0, 6_000.0)
        self.store.retain(key)
        self.store.retain(key)
        self.model([6_000.0])._stacked_grids()
        self.store.release(key)
        assert self.store.keys() == [key]
        self.store.release(key)
        assert len(self.store) == 0
        later = self.model([9_500.0])
        later._stacked_grids()
        assert list(later.grid_rows) == [0]  # the freed row, reused

    def test_blocks_grow_and_keep_their_rows(self):
        sizes = [6_000.0 + 100.0 * k for k in range(20)]
        model = self.model(sizes)
        blocks = model._stacked_grids()
        assert blocks["t_ff"].shape[0] >= 20
        for i in range(20):
            row = model.grid_rows[i]
            assert same_bits(blocks["t_ff"][row], model.grid(i).t_ff)

    def test_refuses_models_built_for_other_inputs(self):
        other_cluster = Cluster.with_mtbf_years(16, 0.05)
        with pytest.raises(ConfigurationError):
            ExpectedTimeModel(
                make_pack([6_000.0], self.store.profile), other_cluster,
                grid_store=self.store,
            )
        with pytest.raises(ConfigurationError):
            ExpectedTimeModel(
                make_pack([6_000.0], PaperSyntheticProfile()), self.cluster,
                grid_store=self.store,
            )
        with pytest.raises(ConfigurationError):
            ExpectedTimeModel(
                make_pack([6_000.0], self.store.profile), self.cluster,
                grid_store=self.store, max_procs=8,
            )


def running_keys(engine):
    return {
        (job.size, job.checkpoint_cost)
        for job in engine.jobs.values()
        if job.status == "running"
    }


class TestEngineStoreIsBounded:
    @pytest.mark.parametrize("processors", [12, 40])
    def test_store_holds_exactly_the_running_jobs(self, processors):
        """Submit/cancel pairs (duplicate sizes, a queue on the narrow
        platform, completions in between), then a drain."""
        cluster = Cluster.with_mtbf_years(processors, 0.05)
        engine = OnlineEngine(cluster, "ig-el", seed=4)
        rng = random.Random(processors)
        t = 0.0
        for k in range(8):
            engine.submit(f"w{k}", rng.choice(SIZE_POOL), now=t)
            assert set(engine.grid_store.keys()) == running_keys(engine)
        for k in range(30):
            t += rng.uniform(0.0, 30_000.0)
            engine.submit(f"n{k}", rng.choice(SIZE_POOL), now=t)
            assert set(engine.grid_store.keys()) == running_keys(engine)
            live = engine.active_jobs + engine.queued_jobs
            if live:
                engine.cancel(rng.choice(live), now=t)
            assert set(engine.grid_store.keys()) == running_keys(engine)
            assert len(engine.grid_store) <= len(engine.active_jobs)
        assert engine.counters.completions > 0
        engine.drain()
        assert len(engine.grid_store) == 0
        metrics = engine.metrics()
        assert metrics["grid_store_size"] == 0
        assert metrics["grids_built"] >= 1
        assert metrics["grids_reused"] > metrics["grids_built"]

    def test_store_is_engine_scoped(self):
        cluster = Cluster.with_mtbf_years(16, 0.05)
        first = OnlineEngine(cluster, seed=1)
        second = OnlineEngine(cluster, seed=1)
        first.submit("a", 8_000.0)
        assert len(first.grid_store) == 1
        assert len(second.grid_store) == 0
