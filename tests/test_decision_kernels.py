"""Property-based equivalence of the decision kernels and decision state.

``decision_kernel="array"`` (:mod:`repro.core.kernels`) is a pure
optimisation: every observable output — simulations, heuristic
mutations, the kernel primitives themselves — must be bit-identical to
the ``"scalar"`` reference on any workload, platform and fault draw.
The same contract binds ``decision_state="incremental"`` (the
delta-patched :class:`~repro.core.kernels.DecisionCache`) to the
per-decision fresh build ``"rebuild"`` — including, via a checking
cache, that the patched matrix equals a fresh build *at every decision
point* of randomised event sequences.  These tests pin both contracts
with randomised inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import POLICIES, optimal_schedule
from repro.core.heuristics import (
    EndLocal,
    ShortestTasksFirst,
    candidate_finish_time,
    candidate_finish_times,
    greedy_rebuild,
    remaining_at,
)
from repro.core.kernels import (
    DECISION_STATES,
    KERNELS,
    DecisionCache,
    decision_matrix,
)
from repro.core.progress import remaining_at_batch
from repro.core.redistribution import (
    redistribution_cost_matrix,
    redistribution_cost_vector,
)
from repro.core.state import TaskRuntime
from repro.exceptions import ConfigurationError
from repro.resilience import ExpectedTimeModel
from repro.simulation import Simulator
from repro.tasks import uniform_pack


def build(seed, n, p, mtbf_years=0.002):
    pack = uniform_pack(n, m_inf=150.0, m_sup=260.0, seed=seed)
    cluster = Cluster.with_mtbf_years(p, mtbf_years)
    return pack, cluster, ExpectedTimeModel(pack, cluster)


def make_runtimes(model, p, t_offset=0.0):
    """Runtimes mid-execution: the Algorithm-1 start state, aged a bit."""
    sigma = optimal_schedule(model, p)
    runtimes = []
    for i, spec in enumerate(model.pack):
        rt = TaskRuntime(spec)
        rt.assign(sigma[i])
        rt.t_last = t_offset
        rt.t_expected = t_offset + model.expected_time(i, sigma[i], 1.0)
        runtimes.append(rt)
    return runtimes


def budget_for(runtimes, cols):
    """The free budget whose cache window is ``cols`` slots:
    ``(max sigma + free) / 2 == cols`` (negative when ``cols`` is
    narrower than the widest allocation)."""
    return 2 * cols - max(rt.sigma for rt in runtimes)


def snapshot(runtimes):
    return [
        (rt.sigma, rt.alpha, rt.t_last, rt.t_expected, rt.redistributions)
        for rt in runtimes
    ]


class TestSimulationsBitIdentical:
    """Full simulations agree on every policy, seed and fault draw."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=6),
        extra_pairs=st.integers(min_value=0, max_value=6),
        mtbf_scale=st.sampled_from([0.0005, 0.002, 0.01]),
    )
    @settings(max_examples=8, deadline=None)
    def test_run_bit_identical(self, policy, seed, n, extra_pairs, mtbf_scale):
        p = 2 * n + 2 * extra_pairs
        pack, cluster, _ = build(seed, n, p, mtbf_scale)
        results = {}
        for kernel in KERNELS:
            model = ExpectedTimeModel(pack, cluster)
            # The array run's decision cache NaN-poisons every column
            # past its windows, so a stray read changes the result.
            results[kernel] = _PoisoningSimulator(
                pack,
                cluster,
                policy,
                seed=seed,
                model=model,
                decision_kernel=kernel,
            ).run()
        array, scalar = results["array"], results["scalar"]
        assert array.makespan == scalar.makespan
        assert np.array_equal(
            array.completion_times, scalar.completion_times, equal_nan=True
        )
        assert array.initial_sigma == scalar.initial_sigma
        assert array.events == scalar.events
        assert array.redistributions == scalar.redistributions
        assert array.failures_effective == scalar.failures_effective
        assert array.failures_masked == scalar.failures_masked

    def test_exercises_failures_and_redistributions(self):
        # Guard: the scenarios above must exercise real rebuilds,
        # otherwise the equivalence proves nothing about the kernels.
        pack, cluster, model = build(0, 5, 20, 0.0005)
        result = Simulator(
            pack, cluster, "ig-el", seed=0, model=model
        ).run()
        assert result.failures_effective > 0
        assert result.redistributions > 0

    def test_unknown_kernel_rejected(self):
        pack, cluster, _ = build(0, 3, 8)
        with pytest.raises(Exception):
            Simulator(pack, cluster, decision_kernel="simd")
        with pytest.raises(ConfigurationError):
            optimal_schedule(ExpectedTimeModel(pack, cluster), 8, kernel="x")


class TestAlgorithmKernels:
    """The scheduling algorithms mutate identical state on both kernels."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=6),
        extra_pairs=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_optimal_schedule(self, seed, n, extra_pairs):
        p = 2 * n + 2 * extra_pairs
        _, _, model = build(seed, n, p)
        assert optimal_schedule(model, p, kernel="array") == optimal_schedule(
            model, p, kernel="scalar"
        )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=6),
        extra_pairs=st.integers(min_value=1, max_value=6),
        age=st.floats(min_value=0.05, max_value=0.9),
    )
    @settings(max_examples=20, deadline=None)
    def test_greedy_rebuild(self, seed, n, extra_pairs, age):
        p = 2 * n + 2 * extra_pairs
        states = {}
        for kernel in KERNELS:
            _, _, model = build(seed, n, p)
            runtimes = make_runtimes(model, p)
            t = age * min(rt.t_expected for rt in runtimes)
            changed = greedy_rebuild(model, t, runtimes, p, kernel=kernel)
            states[kernel] = (sorted(changed), snapshot(runtimes))
        assert states["array"] == states["scalar"]

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=6),
        extra_pairs=st.integers(min_value=1, max_value=6),
        free_pairs=st.integers(min_value=1, max_value=4),
        age=st.floats(min_value=0.05, max_value=0.9),
    )
    @settings(max_examples=20, deadline=None)
    def test_end_local(self, seed, n, extra_pairs, free_pairs, age):
        p = 2 * n + 2 * extra_pairs
        heuristic = EndLocal()
        states = {}
        for kernel in KERNELS:
            _, _, model = build(seed, n, p)
            runtimes = make_runtimes(model, p)
            # The simulator invariant: the free pool is what the pack
            # does not hold — a larger count would probe past the grid.
            free = min(
                2 * free_pairs, p - sum(rt.sigma for rt in runtimes)
            )
            t = age * min(rt.t_expected for rt in runtimes)
            changed = heuristic.apply(
                model, t, runtimes, free, kernel=kernel
            )
            states[kernel] = (sorted(changed), snapshot(runtimes))
        assert states["array"] == states["scalar"]

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=6),
        extra_pairs=st.integers(min_value=1, max_value=6),
        free_pairs=st.integers(min_value=0, max_value=4),
        age=st.floats(min_value=0.05, max_value=0.9),
        faulty_pos=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_shortest_tasks_first(
        self, seed, n, extra_pairs, free_pairs, age, faulty_pos
    ):
        p = 2 * n + 2 * extra_pairs
        faulty = faulty_pos % n
        heuristic = ShortestTasksFirst()
        states = {}
        for kernel in KERNELS:
            _, _, model = build(seed, n, p)
            runtimes = make_runtimes(model, p)
            t = age * min(rt.t_expected for rt in runtimes)
            rt_f = runtimes[faulty]
            # Mimic the skeleton's rollback (Alg. 2 lines 23-26).
            rt_f.t_last = t + model.restart_overhead(faulty, rt_f.sigma)
            rt_f.t_expected = rt_f.t_last + model.expected_time(
                faulty, rt_f.sigma, rt_f.alpha
            )
            changed = heuristic.apply(
                model, t, runtimes, 2 * free_pairs, faulty, kernel=kernel
            )
            states[kernel] = (sorted(changed), snapshot(runtimes))
        assert states["array"] == states["scalar"]


class _PoisoningCache(DecisionCache):
    """A cache that NaN-poisons every column past a row's valid extent.

    After each windowed patch, the columns of ``_fin`` past the patched
    rows' window, the whole ``_prof`` workspace past the pass's rows
    and columns, and the rebuild block past its window hold NaN.  A
    stray out-of-window read then compares false or turns a committed
    finish into NaN, which changes a decision — so every bit-identity
    check run on this cache also proves the column windows are never
    overstepped.
    """

    def _patch_rows(self, sub, t, w):
        super()._patch_rows(sub, t, w)
        self._fin[sub, w:] = np.nan
        self._prof[sub.size * w:] = np.nan

    def rebuild_block(self, dm):
        vals = super().rebuild_block(dm)
        vals[:, dm.finishes.shape[1]:] = np.nan
        return vals


class _PoisoningSimulator(Simulator):
    def _make_decision_cache(self):
        return _PoisoningCache(self.model)


class _CheckingCache(_PoisoningCache):
    """A cache that proves every served matrix against a fresh build.

    At each decision point the delta-patched matrix (the lazy rows
    forced through their on-demand patch path) must be bit-identical to
    a from-scratch :func:`decision_matrix` over the same tasks, on every
    column the decision can read: the matrix's column window, every
    Algorithm-5 rebuild block, and each row the rebuild later widens.
    """

    def __init__(self, model):
        super().__init__(model)
        self.checked = 0
        self.widened = 0
        self._fresh = None

    def matrix(
        self, t, tasks, faulty=None, *, with_keep=False, lazy=False, free=None
    ):
        dm = super().matrix(
            t, tasks, faulty, with_keep=with_keep, lazy=lazy, free=free
        )
        fresh = decision_matrix(
            self.model, t, tasks, faulty, with_keep=with_keep
        )
        w = dm.finishes.shape[1]
        if free is None or lazy:
            assert w == self.model.j_grid.size
        for row, rt in enumerate(tasks):
            i = rt.index
            assert dm.alpha_of(i) == fresh.alpha_of(i)
            assert dm.stall_of(i) == fresh.stall_of(i)
            assert dm.init_of(i) == fresh.init_of(i)
            # finish_range materialises lazy rows through the cache's
            # on-demand patch, so both patch paths are exercised.
            assert np.array_equal(
                dm.finish_range(i, 2, 2 * w), fresh.finishes[row, :w]
            )
            if with_keep:
                assert dm.keep_finish(i) == fresh.keep_finish(i)
        self._fresh = fresh
        self.checked += 1
        return dm

    def rebuild_block(self, dm):
        vals = super().rebuild_block(dm)
        w = dm.finishes.shape[1]
        for pos, i in enumerate(dm.indices):
            assert np.array_equal(
                vals[pos, :w], self._fresh.rebuild_range(i, 2, 2 * w)
            )
        return vals

    def widen_row(self, vals, pos, i, t, cols):
        super().widen_row(vals, pos, i, t, cols)
        assert np.array_equal(
            vals[pos, :cols], self._fresh.rebuild_range(i, 2, 2 * cols)
        )
        self.widened += 1


class _CheckingSimulator(Simulator):
    """Simulator whose decision cache self-verifies at every event."""

    def _make_decision_cache(self):
        self.checking_cache = _CheckingCache(self.model)
        return self.checking_cache


class TestDecisionStateBitIdentical:
    """The delta-patched decision state equals the fresh build."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("event_queue", ["heap", "scan"])
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=6),
        extra_pairs=st.integers(min_value=0, max_value=6),
        mtbf_scale=st.sampled_from([0.0005, 0.002]),
    )
    @settings(max_examples=4, deadline=None)
    def test_patched_matrix_equals_fresh_build_every_event(
        self, policy, event_queue, seed, n, extra_pairs, mtbf_scale
    ):
        """Randomised event sequences, checked at every decision point."""
        p = 2 * n + 2 * extra_pairs
        pack, cluster, _ = build(seed, n, p, mtbf_scale)
        results = {}
        for state, cls in (
            ("incremental", _CheckingSimulator),
            ("rebuild", Simulator),
        ):
            model = ExpectedTimeModel(pack, cluster)
            results[state] = cls(
                pack,
                cluster,
                policy,
                seed=seed,
                model=model,
                event_queue=event_queue,
                decision_state=state,
            ).run()
        inc, reb = results["incremental"], results["rebuild"]
        assert inc.makespan == reb.makespan
        assert np.array_equal(
            inc.completion_times, reb.completion_times, equal_nan=True
        )
        assert inc.initial_sigma == reb.initial_sigma
        assert inc.events == reb.events
        assert inc.redistributions == reb.redistributions
        assert inc.failures_effective == reb.failures_effective

    def test_checking_cache_exercises_decisions(self):
        # Guard: the scenarios above must serve (and verify) real
        # delta-patched matrices, otherwise the property proves nothing.
        pack, cluster, _ = build(0, 5, 20, 0.0005)
        sim = _CheckingSimulator(
            pack, cluster, "ig-el", seed=0,
            model=ExpectedTimeModel(pack, cluster),
        )
        result = sim.run()
        assert result.failures_effective > 0
        assert sim.checking_cache.checked > 0
        assert sim.checking_cache.rows_reused > 0
        # Windows are in use and a rebuild row outgrew one (and was
        # checked against the fresh build when it was widened).
        cache = sim.checking_cache
        assert cache.columns_evaluated < cache.rows_patched * cache._width
        assert cache.widened > 0

    def test_unknown_decision_state_rejected(self):
        pack, cluster, _ = build(0, 3, 8)
        with pytest.raises(Exception):
            Simulator(pack, cluster, decision_state="memoised")
        from repro.core.kernels import ensure_decision_state

        with pytest.raises(ConfigurationError):
            ensure_decision_state("memoised")
        assert ensure_decision_state("incremental") == "incremental"
        assert set(DECISION_STATES) == {"incremental", "rebuild"}

    def test_scalar_kernel_never_caches(self):
        pack, cluster, _ = build(0, 3, 10)
        sim = Simulator(
            pack, cluster, "ig-el", seed=0,
            model=ExpectedTimeModel(pack, cluster),
            decision_kernel="scalar",
        )
        sim.run()
        assert sim._cache is None

    def test_cache_info_and_budget_tracking(self):
        pack, cluster, _ = build(0, 5, 20, 0.0005)
        sim = _CheckingSimulator(
            pack, cluster, "ig-el", seed=0,
            model=ExpectedTimeModel(pack, cluster),
        )
        sim.run()
        info = sim.checking_cache.cache_info()
        assert info["matrices_served"] == sim.checking_cache.checked
        assert info["rows_patched"] > 0
        assert info["rows_reused"] > 0
        assert 0.0 < info["reuse_rate"] < 1.0
        assert info["scratch_allocations"] > 0
        assert info["budget"] >= 0  # the live free count was tracked
        assert 0 < info["columns_evaluated"] < (
            info["rows_patched"] * sim.model.j_grid.size
        )
        assert info["window_extensions"] == sim.checking_cache.widened

    def test_direct_cache_reuse_across_same_t_decisions(self):
        """Consecutive decisions at one t reuse clean rows verbatim."""
        _, _, model = build(3, 4, 16)
        runtimes = make_runtimes(model, 16)
        t = 0.3 * min(rt.t_expected for rt in runtimes)
        cache = DecisionCache(model)
        first = cache.matrix(t, runtimes)
        baseline = first.finishes[[rt.index for rt in runtimes]].copy()
        patched_once = cache.rows_patched
        again = cache.matrix(t, runtimes)
        assert cache.rows_patched == patched_once  # nothing re-patched
        assert np.array_equal(
            again.finishes[[rt.index for rt in runtimes]], baseline
        )
        # Touching one task re-patches exactly that row.
        rt0 = runtimes[0]
        rt0.alpha *= 0.5
        cache.invalidate(rt0.index)
        third = cache.matrix(t, runtimes)
        assert cache.rows_patched == patched_once + 1
        fresh = decision_matrix(model, t, runtimes)
        for row, rt in enumerate(runtimes):
            assert np.array_equal(
                third.finishes[rt.index], fresh.finishes[row]
            )


class TestColumnWindows:
    """Decisions evaluate only the columns they can read, exactly."""

    @pytest.mark.parametrize("figure", ["fig7", "fig10"])
    def test_fault_series_match_scalar_with_poisoned_windows(
        self, figure, monkeypatch
    ):
        """Every FAULT_SERIES policy, NaN past every window, == scalar."""
        from repro.experiments.figures import run_figure

        reference = run_figure(
            figure, scale="tiny", seed=1, engine="serial",
            simulator_options={"decision_kernel": "scalar"},
        )
        caches = []

        def make_cache(sim):
            caches.append(_PoisoningCache(sim.model))
            return caches[-1]

        monkeypatch.setattr(Simulator, "_make_decision_cache", make_cache)
        poisoned = run_figure(figure, scale="tiny", seed=1, engine="serial")
        assert poisoned.x_values == reference.x_values
        assert poisoned.means == reference.means
        assert poisoned.normalized == reference.normalized
        assert caches
        columns = sum(c.columns_evaluated for c in caches)
        full = sum(c.rows_patched * c._width for c in caches)
        assert 0 < columns < full

    @pytest.mark.parametrize("moved", [1.0001, 1.5])
    def test_windowed_passes_allocate_no_block(self, moved):
        """The windowed gathers land in the preallocated scratch: one
        patch pass plus a rebuild block allocates less than half of one
        ``(rows, window)`` block (numpy's own ufunc buffers stay below
        that, the fancy ``src[rows, :w]`` gathers they replace did not).
        ``moved`` steps ``t`` a little (most rows take the tau-only
        patch) or far (every ``N^ff`` row steps)."""
        import tracemalloc

        p, cols = 4000, 1000
        _, _, model = build(7, 50, p)
        runtimes = make_runtimes(model, p)
        t = 0.3 * min(rt.t_expected for rt in runtimes)
        cache = DecisionCache(model)
        free = budget_for(runtimes, cols)
        cache.matrix(t, runtimes, free=free, with_keep=True)  # warm-up
        block = len(runtimes) * cols * 8
        tracemalloc.start()
        try:
            dm = cache.matrix(t * moved, runtimes, free=free, with_keep=True)
            cache.rebuild_block(dm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cache.rows_patched == 2 * len(runtimes)
        assert dm.finishes.shape[1] == cols
        assert peak < block // 2

    def test_windowed_matrix_exposes_only_its_columns(self):
        from repro.exceptions import SimulationError

        _, _, model = build(4, 4, 40)
        runtimes = make_runtimes(model, 40)
        t = 0.3 * min(rt.t_expected for rt in runtimes)
        cache = _PoisoningCache(model)
        dm = cache.matrix(t, runtimes, free=budget_for(runtimes, 3))
        fresh = decision_matrix(model, t, runtimes)
        assert dm.finishes.shape[1] == 3
        assert cache.columns_evaluated == 3 * len(runtimes)
        for row, rt in enumerate(runtimes):
            assert np.array_equal(
                dm.finish_range(rt.index, 2, 6), fresh.finishes[row, :3]
            )
            with pytest.raises(SimulationError):
                dm.finish(rt.index, 8)
            with pytest.raises(SimulationError):
                dm.finish_range(rt.index, 2, 8)

    def test_wider_decision_repatches_narrower_reuses(self):
        _, _, model = build(5, 4, 40)
        runtimes = make_runtimes(model, 40)
        t = 0.4 * min(rt.t_expected for rt in runtimes)
        n = len(runtimes)
        cache = _PoisoningCache(model)
        cache.matrix(t, runtimes, free=budget_for(runtimes, 2))
        assert cache.rows_patched == n
        cache.matrix(t, runtimes, free=budget_for(runtimes, 2))
        assert cache.rows_patched == n  # same t, same window: reused
        wide = cache.matrix(t, runtimes, free=budget_for(runtimes, 7))
        assert cache.rows_patched == 2 * n  # too narrow: re-patched
        fresh = decision_matrix(model, t, runtimes)
        for row, rt in enumerate(runtimes):
            assert np.array_equal(
                wide.finishes[rt.index], fresh.finishes[row, :7]
            )
        narrow = cache.matrix(t, runtimes, free=budget_for(runtimes, 4))
        assert cache.rows_patched == 2 * n  # wider rows serve narrower
        assert narrow.finishes.shape[1] == 4
        full = cache.matrix(t, runtimes)
        assert full.finishes.shape[1] == model.j_grid.size
        for row, rt in enumerate(runtimes):
            assert np.array_equal(full.finishes[rt.index], fresh.finishes[row])

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.2),  # t advance
                st.integers(min_value=1, max_value=25),   # window
                st.integers(min_value=-1, max_value=4),   # touched task
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_window_sequences_match_fresh_build(self, seed, steps):
        """Windows growing, shrinking and repeating across decision
        times and dirty tasks (which also walks the per-column N^ff
        state through narrower and wider passes)."""
        _, _, model = build(seed, 5, 40)
        runtimes = make_runtimes(model, 40)
        horizon = min(rt.t_expected for rt in runtimes)
        cache = _PoisoningCache(model)
        t = 0.05 * horizon
        for advance, cols, touched in steps:
            t += advance * horizon
            if touched >= 0:
                rt = runtimes[touched]
                rt.alpha = remaining_at(model, rt, t)
                rt.t_last = t
                cache.invalidate(rt.index)
            dm = cache.matrix(t, runtimes, free=budget_for(runtimes, cols))
            fresh = decision_matrix(model, t, runtimes)
            w = dm.finishes.shape[1]
            assert w == min(cols, model.j_grid.size)
            for row, rt in enumerate(runtimes):
                assert np.array_equal(
                    dm.finishes[rt.index], fresh.finishes[row, :w]
                )

    def test_commit_past_a_windowed_pass_reads_the_model(self):
        """Regression: a windowed pass leaves its tasks in the ``_prof``
        workspace; a later commit at the same alpha but a count past
        the pass's window (an STF grant) must not read the workspace."""
        from repro.core.heuristics import apply_move

        _, _, model = build(6, 4, 40)
        runtimes = make_runtimes(model, 40)
        t = 0.3 * min(rt.t_expected for rt in runtimes)
        cache = _PoisoningCache(model)
        dm = cache.matrix(t, runtimes, free=budget_for(runtimes, 2))
        i = runtimes[0].index
        alpha = dm.alpha_of(i)
        top = int(model.j_grid[-1])
        # Inside the window the workspace serves the read ...
        reused = cache.profile_env_reused
        assert cache.envelope_value(i, alpha, 4) == model.profile(i, alpha)[1]
        assert cache.profile_env_reused == reused + 1
        # ... past it the model does, with the same bits.
        assert cache.envelope_value(i, alpha, top) == (
            model.profile(i, alpha)[-1]
        )
        assert cache.profile_env_reused == reused + 1
        moved, plain = TaskRuntime(model.pack[i]), TaskRuntime(model.pack[i])
        for rt in (moved, plain):
            rt.assign(runtimes[0].sigma)
        apply_move(model, moved, t, 0.0, runtimes[0].sigma, top, alpha,
                   cache=cache)
        apply_move(model, plain, t, 0.0, runtimes[0].sigma, top, alpha)
        assert moved.t_expected == plain.t_expected

    def test_end_local_then_stf_past_its_window_matches_scalar(self):
        """The sequence that exposed the hazard, at tiny scale: a
        windowed EndLocal pass while every task is still busy (so
        ``alpha^t == alpha``), then a failure before the struck task's
        first checkpoint (same alpha key) and an STF decision that
        grants it the processors of a completed task, past the
        EndLocal window."""
        p = 40
        states = {}
        for kernel in KERNELS:
            _, _, model = build(0, 4, p)
            sigma = optimal_schedule(model, p - 2)
            t1 = 1000.0
            runtimes = []
            for i, spec in enumerate(model.pack):
                rt = TaskRuntime(spec)
                rt.assign(sigma[i])
                rt.t_last = t1 + 50.0  # still redistributing at t1
                rt.t_expected = rt.t_last + model.expected_time(
                    i, sigma[i], 1.0
                )
                runtimes.append(rt)
            cache = _PoisoningCache(model) if kernel == "array" else None
            changed = EndLocal().apply(
                model, t1, runtimes, 2, kernel=kernel, cache=cache
            )
            free = p - sum(rt.sigma for rt in runtimes)
            window = (max(sigma.values()) + 2) >> 1
            done = min(runtimes, key=lambda rt: rt.t_expected)
            rest = [rt for rt in runtimes if rt is not done]
            free += done.sigma
            rt_f = max(rest, key=lambda rt: rt.t_expected)
            f = rt_f.index
            t2 = rt_f.t_last + 1.0  # before its first checkpoint
            rt_f.t_last = t2 + model.restart_overhead(f, rt_f.sigma)
            rt_f.t_expected = rt_f.t_last + model.expected_time(
                f, rt_f.sigma, rt_f.alpha
            )
            if cache is not None:
                for i in changed + [f]:
                    cache.invalidate(i)
                # The struck task's EndLocal workspace row is still live.
                assert cache._prof_pos[f] >= 0
            ShortestTasksFirst().apply(
                model, t2, rest, free, f, kernel=kernel, cache=cache
            )
            states[kernel] = snapshot(rest)
            assert (rt_f.sigma >> 1) > window  # granted past the window
        assert states["array"] == states["scalar"]


class TestProfileRowsInto:
    """The row-level profile re-evaluation API behind the cache."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=6),
        store=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_profile(self, seed, n, store):
        _, _, model = build(seed, n, 4 * n)
        rng = np.random.default_rng(seed)
        indices = list(range(n))
        alphas = rng.uniform(0.0, 1.0, size=n)
        out = np.empty((n, model.j_grid.size))
        model.profile_rows_into(indices, alphas, out, store=store)
        for row, i in enumerate(indices):
            assert np.array_equal(out[row], model.profile(i, alphas[row]))

    def test_store_false_skips_ring_insertion(self):
        _, _, model = build(1, 3, 12)
        out = np.empty((3, model.j_grid.size))
        model.profile_rows_into([0, 1, 2], [0.37, 0.21, 0.84], out, store=False)
        entries = model.cache_info()["entries"]
        model.profile_rows_into([0, 1, 2], [0.37, 0.21, 0.84], out)
        assert model.cache_info()["entries"] == entries + 3

    def test_duplicates_zero_alpha_and_validation(self):
        _, _, model = build(2, 3, 12)
        out = np.empty((3, model.j_grid.size))
        model.profile_rows_into([0, 0, 1], [0.5, 0.5, 0.0], out)
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(out[2], np.zeros(model.j_grid.size))
        with pytest.raises(ConfigurationError):
            model.profile_rows_into([0, 1], [0.5], out)
        with pytest.raises(ConfigurationError):
            model.profile_rows_into([0], [1.5], out)
        with pytest.raises(ConfigurationError):
            model.profile_rows_into(
                [0], [0.5], np.empty((0, model.j_grid.size))
            )


class TestKernelPrimitives:
    """The batched building blocks match their scalar counterparts."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        age=st.floats(min_value=0.0, max_value=1.5),
    )
    @settings(max_examples=20, deadline=None)
    def test_remaining_at_batch(self, seed, age):
        _, _, model = build(seed, 5, 20)
        runtimes = make_runtimes(model, 20)
        t = age * min(rt.t_expected for rt in runtimes)
        batch = remaining_at_batch(model, runtimes, t)
        for row, rt in enumerate(runtimes):
            assert batch[row] == remaining_at(model, rt, t)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_profile_matrix_matches_profile(self, seed, n):
        _, _, model = build(seed, n, 4 * n)
        rng = np.random.default_rng(seed)
        indices = list(range(n))
        alphas = rng.uniform(0.0, 1.0, size=n)
        block = model.profile_matrix(indices, alphas)
        for row, i in enumerate(indices):
            assert np.array_equal(block[row], model.profile(i, alphas[row]))

    def test_profile_matrix_duplicates_and_validation(self):
        _, _, model = build(1, 3, 12)
        block = model.profile_matrix([0, 0, 1], [0.5, 0.5, 0.25])
        assert np.array_equal(block[0], block[1])
        with pytest.raises(ConfigurationError):
            model.profile_matrix([0, 1], [0.5])
        with pytest.raises(ConfigurationError):
            model.profile_matrix([0], [1.5])

    @given(
        m=st.floats(min_value=1.0, max_value=1e6),
        j=st.integers(min_value=1, max_value=64).map(lambda v: 2 * v),
        width=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=30, deadline=None)
    def test_redistribution_cost_matrix(self, m, j, width):
        k = np.arange(2, 2 * width + 1, 2)
        matrix = redistribution_cost_matrix(
            np.array([m, 2 * m]), np.array([j, j]), k
        )
        vector = redistribution_cost_vector(m, j, k)
        assert np.array_equal(matrix[0], vector)
        assert np.array_equal(
            matrix[1], redistribution_cost_vector(2 * m, j, k)
        )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        age=st.floats(min_value=0.05, max_value=0.9),
        lazy=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_decision_matrix_matches_scalar_helpers(self, seed, age, lazy):
        n, p = 5, 24
        _, _, model = build(seed, n, p)
        runtimes = make_runtimes(model, p)
        t = age * min(rt.t_expected for rt in runtimes)
        dm = decision_matrix(model, t, runtimes, lazy=lazy)
        j_max = int(model.j_grid[-1])
        for rt in runtimes:
            i = rt.index
            alpha_t = remaining_at(model, rt, t)
            assert dm.alpha_of(i) == alpha_t
            targets = np.arange(2, j_max + 1, 2, dtype=int)
            expected = candidate_finish_times(
                model, i, rt.sigma, alpha_t, t, 0.0, targets
            )
            assert np.array_equal(dm.finish_range(i, 2, j_max), expected)
            k = int(targets[len(targets) // 2])
            assert dm.finish(i, k) == candidate_finish_time(
                model, i, rt.sigma, alpha_t, t, 0.0, k
            )

    def test_decision_matrix_keep_column(self):
        n, p = 4, 16
        _, _, model = build(3, n, p)
        runtimes = make_runtimes(model, p)
        t = 0.25 * min(rt.t_expected for rt in runtimes)
        dm = decision_matrix(model, t, runtimes, with_keep=True)
        for rt in runtimes:
            i = rt.index
            assert dm.keep_finish(i) == rt.t_last + model.expected_time(
                i, rt.sigma, rt.alpha
            )
            assert dm.rebuild_finish(i, rt.sigma) == dm.keep_finish(i)
            patched = dm.rebuild_range(i, 2, int(model.j_grid[-1]))
            slot = rt.sigma // 2 - 1
            assert patched[slot] == dm.keep_finish(i)

    def test_out_of_grid_candidates_rejected(self):
        from repro.exceptions import SimulationError

        _, _, model = build(0, 3, 12)
        runtimes = make_runtimes(model, 12)
        dm = decision_matrix(model, 1.0, runtimes)
        j_max = int(model.j_grid[-1])
        with pytest.raises(SimulationError):
            dm.finish(runtimes[0].index, j_max + 2)
        with pytest.raises(SimulationError):
            dm.finish_range(runtimes[0].index, 2, j_max + 2)
        assert dm.finish_range(runtimes[0].index, 6, 4).size == 0

    def test_expected_makespan_batched(self):
        from repro.core import expected_makespan

        _, _, model = build(2, 4, 16)
        sigma = optimal_schedule(model, 16)
        scalar = max(
            model.expected_time(i, j, 1.0) for i, j in sigma.items()
        )
        assert expected_makespan(model, sigma) == scalar
        assert math.isfinite(scalar)
