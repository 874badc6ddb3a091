"""Array-based decision kernels: the per-event scheduling hot path.

Every simulated failure or completion re-runs one of the paper's
scheduling algorithms (Algorithm 1 at pack start, Algorithms 3-5 at
redistribution points).  Their growth/scan loops score *candidate*
allocations with the Section 3.3 finish-time formula

.. math::

    t_E(k) = t + \\text{stall}_i + RC_i^{\\sigma_{init}(i) \\to k}
             + C_{i,k} + t^R_{i,k}(\\alpha^t_i),

and the seed evaluated that formula through scalar model calls inside
the loops.  This module precomputes the full candidate finish matrix
``t_E[i, k]`` for a decision point in one fused pass, so the loops
become pure index arithmetic with **zero model calls**.

The alpha-fixed-per-decision invariant
--------------------------------------
Within one decision point (a rebuild at time ``t``) every quantity the
algorithms score candidates with is *fixed per task*:

* ``alpha^t_i`` — the remaining work, measured exactly once at ``t``
  (Alg. 3 line 8 / Alg. 4-5 line 4); later iterations of the same
  decision reuse that measurement, they never re-measure;
* ``stall_i`` — ``D + R`` for the task struck by the failure, 0 for
  everyone else; constant for the whole decision;
* ``sigma_init(i)`` — the allocation the redistribution cost is charged
  *from*; Algorithms 3-5 always charge from the allocation held when
  the event fired, even after several buddy pairs moved.

Only the candidate target ``k`` varies.  The matrix ``t_E[i, k]`` is
therefore a pure function of the decision point and can be built once —
one batched remaining-work pass (:func:`~repro.core.progress.
remaining_at_batch`), one fused profile evaluation with per-task alphas
(:meth:`~repro.resilience.expected_time.ExpectedTimeModel.
profile_matrix`), one redistribution-cost matrix
(:func:`~repro.core.redistribution.redistribution_cost_matrix`) and one
checkpoint-cost gather — and then consulted by the loops.

Every entry is bit-identical to the scalar helpers
(:func:`~repro.core.heuristics.base.candidate_finish_time` /
``candidate_finish_times``), operation for operation, so the
``decision_kernel="array"`` executions match ``"scalar"`` byte for byte
(pinned by ``tests/test_decision_kernels.py``).

The decision-state layer: delta-patching across events
------------------------------------------------------
A single simulated event changes at most one task's remaining work
(the struck task's rollback) and a handful of allocations (the moves
the heuristic grants), yet the fresh build above re-runs every batched
pass for every task at every decision point.  :class:`DecisionCache`
is the persistent layer on top: one cache lives for the whole
``Simulator.run`` and keeps, per task,

* the checkpoint-cost row ``C_{i,k}`` (constant for the run),
* the redistribution-cost row ``RC^{sigma(i) -> k}`` (valid until
  ``sigma(i)`` changes),
* the Algorithm-5 keep-running finish (valid until ``alpha``/
  ``tlastR``/``sigma`` change),
* and the mirrors of ``alpha``/``tlastR``/``sigma`` plus the grid
  values at the current allocation that the remaining-work pass needs,

and delta-patches only the stale rows of the persistent candidate
finish matrix at each decision point.  The invariants this rests on
(recorded here because every patch rule derives from them):

1. **Dirty bits are the only mutation channel.**  The simulator marks a
   task dirty exactly when its ``alpha``/``t_last``/``sigma`` change —
   the failure rollback (remaining work re-measured, stall applied) and
   the post-heuristic commit (``sigma_init`` changed, checkpoint
   taken).  A clean task's mirrors therefore equal its live runtime
   fields, so rows rebuilt from mirrors are bit-identical to rows
   rebuilt from the runtimes.
2. **Row value = pure function of (task state, t, stall).**  A finish
   row is stale iff its task is dirty, the decision time moved, or its
   stall changed; otherwise the row from the previous decision is
   reused verbatim — this is what lets the consecutive sub-decisions
   of one event (the early-release pass followed by the failure
   rebuild at the same ``t``) share one patched matrix.
3. **Patches are operation-identical to the fresh build.**  Stale rows
   are recombined with exactly the fresh build's operation order
   (``((t + stall) + RC) + (C + profile)``), the profile rows come
   from :meth:`~repro.resilience.expected_time.ExpectedTimeModel.
   profile_rows_into` (bit-identical to ``profile_matrix``), and the
   remaining-work pass is :func:`~repro.core.progress.
   remaining_from_arrays` over mirror subsets (bit-identical to
   ``remaining_at_batch``).  Hence ``decision_state="incremental"``
   executions match the fresh-build ``"rebuild"`` reference byte for
   byte, mirroring the ``decision_kernel`` / ``event_queue`` pairs.

4. **Column windows are exact.**  The Eq. (6) envelope is a running
   minimum along the processor axis, and every other term of a finish
   row is elementwise, so the leading ``w`` columns of a row are a pure
   function of the task and never of the columns after them.  A
   decision that can only read candidates up to count ``2 w`` patches
   its stale rows over ``[0, w)`` only; every row records its valid
   column extent (``_row_w``), and a later decision needing more
   columns re-patches the row instead of reading stale ones.  EndLocal
   reads at most ``max sigma + free`` processors, which bounds its
   window exactly; the Algorithm-5 rebuild starts from the same window
   and extends a row exactly when a probe's budget passes it with no
   improving candidate inside (:meth:`DecisionCache.widen_row`).

All scratch blocks (finish matrix, combine buffers, rebuild blocks)
are preallocated once per cache and reused for every decision;
:func:`process_decision_snapshot` exposes the patched/reused row,
scratch-allocation and evaluated-column counts that
:class:`repro.engine.EngineStats` aggregates across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError, SimulationError
from ..resilience.expected_time import _ALPHA_SCALE, ExpectedTimeModel
from .progress import remaining_at_batch, remaining_from_arrays
from .redistribution import (
    redistribution_cost_matrix,
    redistribution_cost_vector,
)
from .state import TaskRuntime

__all__ = [
    "KERNELS",
    "DECISION_STATES",
    "ensure_kernel",
    "ensure_decision_state",
    "faulty_stall",
    "DecisionMatrix",
    "decision_matrix",
    "DecisionCache",
    "process_decision_snapshot",
]

#: Decision-kernel modes: ``"array"`` is the batched fast path,
#: ``"scalar"`` the seed-style reference (mirroring ``event_queue``).
KERNELS = ("array", "scalar")

#: Decision-state modes: ``"incremental"`` delta-patches one persistent
#: :class:`DecisionCache` across the events of a run, ``"rebuild"``
#: keeps the PR-3 fresh build per decision point as the reference
#: (mirroring ``decision_kernel="scalar"`` / ``event_queue="scan"``).
DECISION_STATES = ("incremental", "rebuild")

_EMPTY = np.empty(0)

#: Process-wide decision-state counters ``[rows_patched, rows_reused,
#: scratch_allocations, profile_env_reused, profile_tau_patched,
#: columns_evaluated, window_extensions]``, summed over every cache this
#: process ever built (same list-cell pattern as the profile counters —
#: monotone, so the engine can delta them around a work chunk).  New
#: counters are only ever appended: readers index the leading ones.
_PROCESS_DECISION_COUNTERS = [0, 0, 0, 0, 0, 0, 0]


def process_decision_snapshot() -> tuple[int, int, int, int, int, int, int]:
    """Process-wide ``(rows_patched, rows_reused, scratch_allocations,
    profile_env_reused, profile_tau_patched, columns_evaluated,
    window_extensions)``.

    ``rows_patched`` counts candidate-matrix rows recomputed by the
    incremental engine; ``rows_reused`` component rows served from the
    previous decisions without recomputation — finish rows at an
    unchanged ``t``, redistribution-cost rows with an unchanged
    ``sigma``, keep-running entries for untouched tasks;
    ``scratch_allocations`` ndarray blocks preallocated by caches;
    ``profile_env_reused`` profile rows copied from a cache's per-task
    envelope state (quantised alpha unchanged since the last
    evaluation); ``profile_tau_patched`` profile rows recombined via
    the ``tau_last``-only patch (``N^ff`` row unchanged, so only the
    ``expm1`` term was recomputed); ``columns_evaluated`` finish-matrix
    cells computed by those row patches (a row patched over a column
    window counts its window, not the platform grid);
    ``window_extensions`` rebuild rows re-patched wider because a probe
    outgrew the decision's window.  Aggregated across worker processes
    into :class:`repro.engine.EngineStats`.
    """
    return tuple(_PROCESS_DECISION_COUNTERS)


def ensure_kernel(kernel: str) -> str:
    """Validate a ``decision_kernel`` mode name."""
    if kernel not in KERNELS:
        raise ConfigurationError(
            f"decision_kernel must be one of {KERNELS}, got {kernel!r}"
        )
    return kernel


def ensure_decision_state(state: str) -> str:
    """Validate a ``decision_state`` mode name."""
    if state not in DECISION_STATES:
        raise ConfigurationError(
            f"decision_state must be one of {DECISION_STATES}, got {state!r}"
        )
    return state


def faulty_stall(rt: TaskRuntime, t: float) -> float:
    """``D + R`` already charged to the struck task by the skeleton.

    The skeleton sets ``t_last = t + D + R`` before calling the failure
    heuristic, so the stall is recovered as ``t_last - t`` (robust to any
    configured downtime/recovery values).
    """
    stall = rt.t_last - t
    if stall < 0:
        raise SimulationError(
            f"faulty task {rt.index} has t_last in the past; "
            "skeleton did not roll it back"
        )
    return stall


@dataclass
class DecisionMatrix:
    """Precomputed candidate finishes ``t_E[row, slot]`` of one decision.

    Column ``slot`` corresponds to the even count ``k = 2 (slot + 1)``
    (the model's processor grid).  ``finishes[row, slot]`` holds the
    Section 3.3 value ``(t + stall) + rc_factor * RC^{j_init -> k} +
    (C_{i,k} + t^R_{i,k}(alpha_t))`` with exactly the scalar helpers'
    operation order, so reads off this matrix are bit-identical to
    ``candidate_finish_time(s)``.

    Rows are either all materialised up front (one fused pass — right
    for Algorithm 5, which scores every task) or on first touch
    (``lazy`` — right for Algorithms 3-4, which only ever consult a
    sparse task subset).  Lazy and eager rows are bit-identical.
    """

    model: ExpectedTimeModel
    t: float
    indices: List[int]
    j_init: np.ndarray      #: (n,) source allocation per row
    alpha_t: np.ndarray     #: (n,) remaining work at the decision time
    stall: np.ndarray       #: (n,) D + R for the struck task, else 0
    finishes: np.ndarray    #: (n, grid) candidate finish matrix
    #: unchanged-allocation finishes (Alg. 5 lines 16/23), when built
    keep: Optional[np.ndarray] = None
    #: per-row materialisation flags; ``None`` when eagerly built
    pending: Optional[np.ndarray] = None
    #: task-index -> row override (the cache's full-pack layout uses
    #: ``row == task index``); ``None`` derives rows from ``indices``
    row_map: Optional[Dict[int, int]] = None
    _row_of: Dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._row_of = (
            self.row_map
            if self.row_map is not None
            else {i: row for row, i in enumerate(self.indices)}
        )

    def _row(self, i: int) -> int:
        """Row of task ``i``, materialised on first touch in lazy mode."""
        row = self._row_of[i]
        if self.pending is not None and self.pending[row]:
            model = self.model
            grid = model.grid(i)
            profile = model.profile(i, float(self.alpha_t[row]))
            rc = model.rc_factor * redistribution_cost_vector(
                model.pack[i].size, int(self.j_init[row]), grid.j
            )
            self.finishes[row] = (
                (self.t + float(self.stall[row])) + rc
                + (grid.cost + profile)
            )
            self.pending[row] = False
        return row

    # -- per-task decision inputs -----------------------------------------
    def init_of(self, i: int) -> int:
        """``sigma_init(i)`` — the allocation the RC is charged from."""
        return int(self.j_init[self._row_of[i]])

    def alpha_of(self, i: int) -> float:
        """``alpha^t_i`` measured at the decision time."""
        return float(self.alpha_t[self._row_of[i]])

    def stall_of(self, i: int) -> float:
        """``D + R`` for the struck task, 0 otherwise."""
        return float(self.stall[self._row_of[i]])

    # -- candidate reads ---------------------------------------------------
    def _slot(self, k: int) -> int:
        slot = (k >> 1) - 1
        if k < 2 or (k & 1) or slot >= self.finishes.shape[1]:
            raise SimulationError(
                f"candidate count {int(k)} exceeds the matrix's columns "
                "(the platform grid or the decision's window)"
            )
        return slot

    def finish(self, i: int, k: int) -> float:
        """``t_E(k)`` — the ``candidate_finish_time`` value, by index."""
        return float(self.finishes[self._row(i), self._slot(k)])

    def finish_range(self, i: int, lo: int, hi: int) -> np.ndarray:
        """``t_E`` over the even candidates ``lo, lo+2, ..., <= hi``.

        The ``candidate_finish_times`` vector for
        ``targets = arange(lo, hi + 1, 2)`` (``lo`` even, >= 2), as a
        view into the matrix — callers must not write through it; empty
        when ``lo > hi``.
        """
        if hi < lo:
            return _EMPTY
        if lo < 2 or (lo & 1):
            raise SimulationError(
                f"candidate range must start at an even count >= 2, "
                f"got {int(lo)}"
            )
        lo_slot = (lo >> 1) - 1
        hi_slot = (hi >> 1) - 1  # slot of the largest even count <= hi
        if hi_slot >= self.finishes.shape[1]:
            raise SimulationError(
                f"candidate count {int(hi_slot + 1) << 1} exceeds the "
                "matrix's columns (the platform grid or the decision's "
                "window)"
            )
        return self.finishes[self._row(i), lo_slot:hi_slot + 1]

    # -- Algorithm 5's keep-running special case ---------------------------
    def _keep_column(self) -> np.ndarray:
        if self.keep is None:
            raise ConfigurationError(
                "this DecisionMatrix was built without with_keep=True; "
                "the keep-running finishes are not available"
            )
        return self.keep

    def keep_finish(self, i: int) -> float:
        """Finish if ``i`` keeps its allocation (no cost, old bookkeeping)."""
        return float(self._keep_column()[self._row_of[i]])

    def rebuild_finish(self, i: int, k: int) -> float:
        """Algorithm 5's finish: unchanged allocation keeps running."""
        if k == int(self.j_init[self._row_of[i]]):
            return self.keep_finish(i)
        return self.finish(i, k)

    def rebuild_range(self, i: int, lo: int, hi: int) -> np.ndarray:
        """:meth:`finish_range` with the keep-running candidate patched."""
        fin = self.finish_range(i, lo, hi)
        j_init = int(self.j_init[self._row_of[i]])
        if fin.size and lo <= j_init <= hi:
            fin = fin.copy()
            fin[(j_init - lo) >> 1] = self._keep_column()[self._row_of[i]]
        return fin


def decision_matrix(
    model: ExpectedTimeModel,
    t: float,
    tasks: Sequence[TaskRuntime],
    faulty: Optional[int] = None,
    *,
    with_keep: bool = False,
    lazy: bool = False,
) -> DecisionMatrix:
    """Build the full candidate matrix for one decision point.

    ``tasks`` must be non-empty; ``faulty`` marks the struck task (its
    ``alpha`` was already rolled back by the simulator skeleton and its
    stall is recovered from ``t_last``).  ``with_keep`` additionally
    evaluates the unchanged-allocation finishes Algorithm 5 patches in
    (one extra batched profile gather at the tasks' *live* alphas).
    ``lazy`` defers each row's materialisation to its first touch —
    right when the algorithm only consults a sparse task subset
    (Algorithm 4 touches the faulty task plus a few donors); the
    decision inputs (``alpha_t``/``stall``/``j_init``) are still
    measured up front, preserving the alpha-fixed-per-decision
    invariant.
    """
    indices = [rt.index for rt in tasks]
    n = len(indices)
    j_init = np.fromiter((rt.sigma for rt in tasks), dtype=np.int64, count=n)
    alpha_t = remaining_at_batch(model, tasks, t)
    stall = np.zeros(n)
    if faulty is not None:
        row = indices.index(faulty)
        rt_f = tasks[row]
        alpha_t[row] = rt_f.alpha  # already rolled back by the skeleton
        stall[row] = faulty_stall(rt_f, t)
    width = model.j_grid.size
    if lazy:
        finishes = np.empty((n, width))
        pending: Optional[np.ndarray] = np.ones(n, dtype=bool)
    else:
        profiles = model.profile_matrix(indices, alpha_t)
        cost = np.stack([model.grid(i).cost for i in indices])
        sizes = np.fromiter(
            (model.pack[i].size for i in indices), dtype=float, count=n
        )
        rc = model.rc_factor * redistribution_cost_matrix(
            sizes, j_init, model.j_grid
        )
        finishes = (t + stall)[:, None] + rc + (cost + profiles)
        pending = None
    keep = None
    if with_keep:
        alpha_live = np.fromiter(
            (rt.alpha for rt in tasks), dtype=float, count=n
        )
        live = model.profile_matrix(indices, alpha_live)
        t_last = np.fromiter(
            (rt.t_last for rt in tasks), dtype=float, count=n
        )
        keep = t_last + live[np.arange(n), (j_init >> 1) - 1]
    return DecisionMatrix(
        model=model,
        t=t,
        indices=indices,
        j_init=j_init,
        alpha_t=alpha_t,
        stall=stall,
        finishes=finishes,
        keep=keep,
        pending=pending,
    )




def _block(buf: np.ndarray, k: int, w: int) -> np.ndarray:
    """Contiguous ``(k, w)`` view over the head of a flat scratch buffer."""
    return buf[:k * w].reshape(k, w)


def _take(src: np.ndarray, ix: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``src[rows, :w]`` gathered into the head of the flat scratch
    ``buf``, as a ``(k, w)`` block, through the flat positions ``ix``
    (:meth:`DecisionCache._flat_index`) of a C-contiguous ``src`` —
    a fancy ``src[rows, :w]`` would allocate a fresh block per pass.
    ``mode="wrap"`` skips the bounds-check buffer (every position is in
    range by construction)."""
    out = buf[:ix.size].reshape(ix.shape)
    np.take(src, ix, out=out, mode="wrap")
    return out


@dataclass
class _CacheMatrix(DecisionMatrix):
    """A :class:`DecisionMatrix` whose rows live in a :class:`DecisionCache`.

    Rows are full-pack indexed (``row == task index``) views into the
    cache's persistent arrays, cut to the decision's column window; lazy
    rows materialise through the cache so the patch is recorded and
    reused by later decisions at the same ``t``.  Valid until the owning
    cache serves its next matrix.
    """

    cache: Optional["DecisionCache"] = None

    def _row(self, i: int) -> int:
        row = self._row_of[i]
        if self.pending is not None and self.pending[row]:
            self.cache._patch_row(row, self.t)
            self.pending[row] = False
        return row


class DecisionCache:
    """Persistent decision state, delta-patched across a run's events.

    One cache serves every decision point of one ``Simulator.run``:
    :meth:`matrix` returns the same candidate finish matrix as
    :func:`decision_matrix` — bit-identical by the invariants in the
    module docstring — but recomputes only the rows invalidated since
    the previous decision, and only over the leading columns the
    decision can read (invariant 4).  The simulator owns the dirty bits:
    it calls :meth:`invalidate` whenever a task's
    ``alpha``/``t_last``/``sigma`` change (failure rollback,
    redistribution commit) and :meth:`note_budget` with the live
    free-processor count before each decision.  All scratch is
    preallocated here and reused per decision; `cache_info()` reports
    the patch/reuse/allocation/column counters (also aggregated
    process-wide for :class:`repro.engine.EngineStats`).
    """

    def __init__(self, model: ExpectedTimeModel):
        self.model = model
        n = len(model.pack)
        width = model.j_grid.size
        self._n = n
        self._width = width
        # -- per-task persistent rows -----------------------------------
        self._fin = np.empty((n, width))        #: candidate finish matrix
        self._rc = np.empty((n, width))         #: rc_factor * RC rows
        self._cost_rows = np.empty((n, width))  #: checkpoint-cost rows
        self._keep = np.empty(n)                #: Alg. 5 keep-running finishes
        # -- per-task mirrors and validity ------------------------------
        self._sigma = np.full(n, -1, dtype=np.int64)
        self._rc_sigma = np.full(n, -2, dtype=np.int64)
        self._alpha = np.empty(n)
        self._t_last = np.empty(n)
        self._t_expected = np.empty(n)
        self._tff_s = np.empty(n)   #: grid t_ff at the current sigma
        self._tau_s = np.empty(n)   #: grid tau at the current sigma
        self._cost_s = np.empty(n)  #: grid C at the current sigma
        self._alpha_t = np.empty(n)
        self._stall = np.zeros(n)
        self._row_t = np.full(n, np.nan)    #: t each finish row was patched at
        self._row_stall = np.zeros(n)       #: stall each row was patched with
        #: leading columns of each finish row valid at (_row_t, _row_stall)
        self._row_w = np.zeros(n, dtype=np.int64)
        self._dirty = np.ones(n, dtype=bool)
        self._keep_valid = np.zeros(n, dtype=bool)
        self._pending = np.zeros(n, dtype=bool)
        # -- per-task profile-delta state (see _profile_rows) -----------
        self._env_key = np.full(n, -1, dtype=np.int64)  #: alpha key of row
        self._prof_pos = np.full(n, -1, dtype=np.int64)  #: row pos in _prof
        self._nff = np.empty((n, width))       #: last N^ff row
        self._nff_base = np.empty((n, width))  #: N^ff * exp_period
        #: leading columns of _nff/_nff_base holding matching pairs
        self._nff_w = np.zeros(n, dtype=np.int64)
        # -- per-decision scratch (reused, never reallocated) -----------
        # Flat buffers, viewed as contiguous (rows, window) blocks per
        # pass (see _block): the window changes per decision, and
        # elementwise passes over a contiguous block are several times
        # faster than over a column slice of a full-width array.
        self._prof = np.empty(n * width)
        self._left = np.empty(n * width)
        self._right = np.empty(n * width)
        self._pb = np.empty(n * width)
        self._pc = np.empty(n * width)
        self._pd = np.empty(n * width)
        self._vals = np.empty((n, width))
        # Flat positions of a pass's [rows, :w] cells — in the cache's
        # (task, width) arrays and in the model's grid blocks (whose
        # rows differ when the model is store-backed) — so every
        # windowed gather lands in the scratch above (see _take).
        self._ix = np.empty(n * width, dtype=np.int64)
        self._gix = np.empty(n * width, dtype=np.int64)
        self._eq = np.empty(n * width, dtype=bool)
        self._col_ids = np.arange(width, dtype=np.int64)
        for i in range(n):
            self._cost_rows[i] = model.grid(i).cost
        self._sizes = np.fromiter(
            (model.pack[i].size for i in range(n)), dtype=float, count=n
        )
        self._prof_cols = 0  #: columns of the latest _profile_rows pass
        self.budget: Optional[int] = None  #: last free-processor count seen
        self.rows_patched = 0
        self.rows_reused = 0
        self.profile_env_reused = 0
        self.profile_tau_patched = 0
        self.profile_rows_full = 0
        self.columns_evaluated = 0
        self.window_extensions = 0
        self.matrices_served = 0
        #: Preallocated ndarray blocks per cache (counted off the live
        #: attributes for the EngineStats allocation report, so adding
        #: or dropping a scratch field cannot desync the diagnostic).
        self.scratch_allocations = sum(
            1 for value in vars(self).values() if isinstance(value, np.ndarray)
        )
        _PROCESS_DECISION_COUNTERS[2] += self.scratch_allocations

    # -- simulator hooks ---------------------------------------------------
    def invalidate(self, i: int) -> None:
        """Mark task ``i`` dirty: its ``alpha``/``t_last``/``sigma`` changed."""
        self._dirty[i] = True

    def note_budget(self, free: int) -> None:
        """Record the live free-processor count ahead of a decision."""
        self.budget = int(free)

    # -- internal patching -------------------------------------------------
    def _refresh(self, rt: TaskRuntime) -> None:
        """Resync one dirty task's mirrors from its live runtime."""
        i = rt.index
        sigma = rt.sigma
        if sigma != self._sigma[i]:
            grid = self.model.grid(i)
            slot = grid.slot(sigma)
            self._tff_s[i] = grid.t_ff[slot]
            self._tau_s[i] = grid.tau[slot]
            self._cost_s[i] = grid.cost[slot]
            self._sigma[i] = sigma
            # the rc row is now for the wrong source: _rc_sigma mismatch
        self._alpha[i] = rt.alpha
        self._t_last[i] = rt.t_last
        self._t_expected[i] = rt.t_expected
        self._keep_valid[i] = False
        self._row_t[i] = np.nan
        self._dirty[i] = False

    def _rc_row(self, i: int) -> np.ndarray:
        """The cached ``rc_factor * RC^{sigma(i) -> k}`` row, repatched
        only when ``sigma(i)`` moved since it was last computed."""
        if self._rc_sigma[i] != self._sigma[i]:
            self._rc[i] = self.model.rc_factor * redistribution_cost_vector(
                float(self._sizes[i]), int(self._sigma[i]), self.model.j_grid
            )
            self._rc_sigma[i] = self._sigma[i]
        else:
            self.rows_reused += 1
            _PROCESS_DECISION_COUNTERS[1] += 1
        return self._rc[i]

    def _patch_row(self, i: int, t: float) -> None:
        """Materialise one lazy full-width row (operation-identical to
        the fresh :meth:`DecisionMatrix._row`, but reusing the cached rc
        row)."""
        model = self.model
        grid = model.grid(i)
        alpha = float(self._alpha_t[i])
        profile = model.profile(i, alpha)
        rc = self._rc_row(i)
        self._fin[i] = (
            (t + float(self._stall[i])) + rc + (grid.cost + profile)
        )
        self._row_t[i] = t
        self._row_stall[i] = self._stall[i]
        self._row_w[i] = self._width
        self.rows_patched += 1
        self.columns_evaluated += self._width
        _PROCESS_DECISION_COUNTERS[0] += 1
        _PROCESS_DECISION_COUNTERS[5] += self._width

    def envelope_value(self, i: int, alpha: float, k: int) -> float:
        """``model.profile(i, alpha)[slot(k)]`` off the envelope state.

        Serves the commit-time scalar read — ``apply_move``'s
        expected-finish refresh at the decision's ``alpha^t`` — from the
        envelope row the decision just evaluated in the ``_prof``
        workspace, skipping the model ring entirely.  Bit-identical by
        construction: the row is addressed through ``_prof_pos`` (valid
        only for rows written by the *latest* ``_profile_rows`` pass),
        its alpha key and the pass's column extent, and the envelope
        prefix is a pure function of ``(task, quantised alpha)`` — a
        stale-but-matching row holds the same bits a fresh evaluation
        would.  A cold, repurposed or key-mismatched row, or a slot past
        the pass's window (say an STF commit after a windowed EndLocal
        pass at the same alpha), falls back to the model.  ``k`` must
        be an on-grid even count, which every heuristic's granted
        allocation is.
        """
        pos = int(self._prof_pos[i])
        slot = (k >> 1) - 1
        cols = self._prof_cols
        if (
            pos >= 0
            and slot < cols
            and self._env_key[i] == int(round(alpha * _ALPHA_SCALE))
        ):
            self.profile_env_reused += 1
            _PROCESS_DECISION_COUNTERS[3] += 1
            return float(self._prof[pos * cols + slot])
        return float(self.model.profile(i, alpha)[slot])

    # -- the decision-point entry point ------------------------------------
    def matrix(
        self,
        t: float,
        tasks: Sequence[TaskRuntime],
        faulty: Optional[int] = None,
        *,
        with_keep: bool = False,
        lazy: bool = False,
        free: Optional[int] = None,
    ) -> DecisionMatrix:
        """The delta-patched :func:`decision_matrix` of this decision point.

        Bit-identical to a fresh build over the same ``tasks`` — only
        rows whose task is dirty, whose stall changed, whose last patch
        was at a different ``t`` or over fewer columns are recomputed
        (``lazy`` defers those recomputations to first touch).  ``free``
        is the decision's free-processor budget; it sets the column
        window (invariant 4): no task can reach more than ``max sigma +
        free`` processors, so stale rows are patched over the first
        ``(max sigma + free) / 2`` slots only (clipped to the platform
        grid; ``None``, and every ``lazy`` matrix, use the whole grid).
        That bounds EndLocal's reads exactly; the Algorithm-5 rebuild
        starts from it and widens rows through :meth:`widen_row`.  The
        returned matrix exposes just the window's columns, so a read
        past them raises instead of returning a stale value.  The
        matrix aliases the cache's persistent arrays and is valid until
        the next :meth:`matrix` call.
        """
        model = self.model
        width = self._width
        n_act = len(tasks)
        rows = np.fromiter(
            (rt.index for rt in tasks), dtype=np.int64, count=n_act
        )
        indices = rows.tolist()
        dirty_pos = np.nonzero(self._dirty[rows])[0]
        for pos in dirty_pos:
            self._refresh(tasks[pos])
        if free is None or lazy:
            w = width
        else:
            # Clean mirrors equal the live sigmas (invariant 1).
            w = min((int(self._sigma[rows].max()) + int(free)) >> 1, width)
        stall = np.zeros(n_act)
        if faulty is not None:
            pos_f = indices.index(faulty)
            stall[pos_f] = faulty_stall(tasks[pos_f], t)
        # alpha^t over every active row from the mirrors: bit-identical
        # to remaining_at_batch (elementwise over the same values).
        alpha_t = remaining_from_arrays(
            self._alpha[rows], self._t_last[rows], self._tff_s[rows],
            self._tau_s[rows], self._cost_s[rows], t,
        )
        if faulty is not None:
            alpha_t[pos_f] = tasks[pos_f].alpha  # already rolled back
        self._alpha_t[rows] = alpha_t
        self._stall[rows] = stall
        stale = (
            (self._row_t[rows] != t)
            | (self._row_stall[rows] != stall)
            | (self._row_w[rows] < w)
        )
        sub = rows[stale]
        self.rows_reused += n_act - sub.size
        _PROCESS_DECISION_COUNTERS[1] += n_act - sub.size
        pending: Optional[np.ndarray] = None
        if lazy:
            self._pending[:] = False
            self._pending[sub] = True
            pending = self._pending
        elif sub.size:
            self._patch_rows(sub, t, w)
        if with_keep:
            self._patch_keep(rows)
        self.matrices_served += 1
        return _CacheMatrix(
            model=model,
            t=t,
            indices=indices,
            j_init=self._sigma,
            alpha_t=self._alpha_t,
            stall=self._stall,
            finishes=self._fin[:, :w],
            keep=self._keep if with_keep else None,
            pending=pending,
            # Rows == task indices, but map only the decision's active
            # tasks so an out-of-set lookup raises KeyError exactly like
            # the fresh build (never a silently stale row).
            row_map={i: i for i in indices},
            cache=self,
        )

    def _flat_index(
        self, buf: np.ndarray, rows: np.ndarray, w: int
    ) -> np.ndarray:
        """Flat positions of the cells ``[rows, :w]`` of any C-contiguous
        ``(., width)`` array, as a ``(k, w)`` block of ``buf``."""
        ix = _block(buf, rows.size, w)
        np.multiply(rows[:, None], self._width, out=ix)
        np.add(ix, self._col_ids[:w], out=ix)
        return ix

    def _profile_rows(
        self, sub: np.ndarray, w: int, ix: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Envelope rows of the stale tasks over columns ``[0, w)``,
        delta-patched per task (``ix``: their :meth:`_flat_index`, when
        the caller already has it).

        Replaces the model-ring lookup (:meth:`~repro.resilience.
        expected_time.ExpectedTimeModel.profile_rows_into`) on the
        per-decision hot path with cache-local per-task profile state —
        no per-row key tuples, dict probes, ring insertions or result
        copies (the pass evaluates straight into the ``_prof``
        workspace).  Two tiers per row:

        * **tau_last patch** — a task whose fresh ``N^ff`` row equals
          the cached one on ``[0, w)`` reuses the cached ``N^ff *
          exp_period`` base and recomputes only the ``expm1(lam *
          tau_last)`` term.  The common case: between two nearby
          decision times the remaining work moves a little, but
          ``floor(work / wpp)`` is piecewise constant and rarely steps;
        * **full evaluation** — everything else runs the complete fused
          Eq. (4) pass and refreshes the cached ``N^ff`` state on
          ``[0, w)`` (with a fast path when *every* row stepped: the
          bases are then computed in one block multiply, skipping the
          cached-base gather).

        Both tiers are bit-identical to ``profile_matrix`` /
        ``profile_rows_into`` on the window by construction: the same
        float64 values flow through the same elementwise operations in
        the same order, and the Eq. (6) running minimum of a prefix is
        the prefix of the running minimum.  ``N^ff`` equality is exact
        per column and each cached column holds the exact ``N^ff *
        exp_period`` product of its own ``N^ff``, so a row's cached
        columns stay usable after a narrower full evaluation rewrote
        only their head (``_nff_w`` only grows).  Bypassing the model
        ring is value-safe — profiles are pure functions of ``(task,
        quantised alpha)``, never of cache history.  ``_prof_pos``/
        ``_env_key``/``_prof_cols`` record which task owns each
        workspace row, at which alpha key and over how many columns, so
        :meth:`envelope_value` can serve the commit-time scalar reads of
        the same decision.
        """
        k = sub.size
        out = _block(self._prof, k, w)
        # Rows written below supersede any earlier workspace layout.
        self._prof_pos[:] = -1
        self._prof_cols = w
        keys = np.rint(self._alpha_t[sub] * _ALPHA_SCALE).astype(np.int64)
        # Evaluate at the quantised alphas, like every profile path
        # (np.rint rounds half to even, matching the scalar
        # ``int(round(alpha * SCALE))`` key bit for bit).
        alpha_q = keys / _ALPHA_SCALE
        blocks = self.model._stacked_grids()
        rows = self.model.grid_rows
        if ix is None:
            ix = self._flat_index(self._ix, sub, w)
        if rows is None:
            gsub, gix = sub, ix
        else:
            gsub = rows[sub]  # block rows of sub
            gix = self._flat_index(self._gix, gsub, w)
        b = _block(self._pb, k, w)
        c = _block(self._pc, k, w)
        d = _block(self._pd, k, w)
        np.multiply(alpha_q[:, None], _take(blocks["t_ff"], gix, b), out=c)
        wpp = _take(blocks["wpp"], gix, b)        # c = work
        np.divide(c, wpp, out=d)
        np.floor(d, out=d)                        # d = N^ff
        np.multiply(d, wpp, out=b)
        np.subtract(c, b, out=c)                  # c = tau_last
        eq = _block(self._eq, k, w)
        np.equal(d, _take(self._nff, ix, b), out=eq)
        same = (self._nff_w[sub] >= w) & eq.all(axis=1)
        full_pos = np.nonzero(~same)[0]
        n_full = int(full_pos.size)
        if n_full == k:
            # Every row stepped: refresh the caches and turn d into the
            # bases in place — one block multiply, no cached-base gather
            # (bit-identical: same N^ff and exp_period operands).
            self._nff[sub, :w] = d
            np.multiply(d, _take(blocks["exp_period"], gix, b), out=d)
            self._nff_base[sub, :w] = d               # d = N^ff * exp_period
            self._nff_w[sub] = np.maximum(self._nff_w[sub], w)
        else:
            # Refresh the stepped rows in place (row views, no gathers),
            # then read every row's base back from the cache.
            exp_period = blocks["exp_period"]
            nff_w = self._nff_w
            for pos in full_pos.tolist():
                i = int(sub[pos])
                self._nff[i, :w] = d[pos]
                np.multiply(
                    d[pos], exp_period[int(gsub[pos]), :w],
                    out=self._nff_base[i, :w],
                )
                if nff_w[i] < w:
                    nff_w[i] = w
            _take(self._nff_base, ix, d)          # d = N^ff * exp_period
        n_tau = k - n_full
        self.profile_tau_patched += n_tau
        _PROCESS_DECISION_COUNTERS[4] += n_tau
        self.profile_rows_full += n_full
        with np.errstate(over="ignore"):
            np.multiply(_take(blocks["lam"], gix, b), c, out=c)
            np.expm1(c, out=c)                    # c = expm1(lam tau_last)
            np.add(d, c, out=c)                   # c = base + expm1 term
            # raw Eq. (4) rows
            np.multiply(_take(blocks["prefactor"], gix, b), c, out=out)
        zero = alpha_q <= 0.0
        if bool(np.any(zero)):
            out[zero] = 0.0
        np.minimum.accumulate(out, axis=1, out=out)  # Eq. (6) envelope
        self._env_key[sub] = keys
        self._prof_pos[sub] = np.arange(k)
        return out

    def _patch_rows(self, sub: np.ndarray, t: float, w: int) -> None:
        """Recombine the stale rows over columns ``[0, w)`` in one fused
        pass over the scratch.

        Operation order is exactly the fresh build's
        ``((t + stall)[:, None] + rc) + (cost + profiles)``.
        """
        need = sub[self._rc_sigma[sub] != self._sigma[sub]]
        if need.size:
            self._rc[need] = self.model.rc_factor * redistribution_cost_matrix(
                self._sizes[need], self._sigma[need], self.model.j_grid
            )
            self._rc_sigma[need] = self._sigma[need]
        k = sub.size
        self.rows_reused += k - need.size  # RC rows with an unchanged sigma
        _PROCESS_DECISION_COUNTERS[1] += k - need.size
        ix = self._flat_index(self._ix, sub, w)
        prof = self._profile_rows(sub, w, ix)
        left = _take(self._rc, ix, self._left)
        ts = t + self._stall[sub]
        np.add(ts[:, None], left, out=left)
        right = _take(self._cost_rows, ix, self._right)
        np.add(right, prof, out=right)
        np.add(left, right, out=left)
        self._fin[sub, :w] = left
        self._row_t[sub] = t
        self._row_stall[sub] = self._stall[sub]
        self._row_w[sub] = w
        self.rows_patched += k
        self.columns_evaluated += k * w
        _PROCESS_DECISION_COUNTERS[0] += k
        _PROCESS_DECISION_COUNTERS[5] += k * w

    def _patch_keep(self, rows: np.ndarray) -> None:
        """Refresh the keep-running finishes of the rows touched since
        they were last computed (the column does not depend on ``t``).

        The keep-running finish ``tlastR_i + t^R_{i,sigma(i)}(alpha_i)``
        is exactly the expected finish ``tU_i`` that every writer of the
        live bookkeeping maintains — the pack-start assignment, the
        failure rollback, ``apply_move`` and the rebuild's own
        keep-restore all write that very expression — so the mirror of
        ``t_expected`` (taken while the task was clean) *is* the keep
        value, bit for bit, with no profile evaluation at all.  The
        checking cache in ``tests/test_decision_kernels.py`` pins this
        against the fresh build's explicit profile gather on randomised
        runs.
        """
        need = rows[~self._keep_valid[rows]]
        self.rows_reused += rows.size - need.size  # keep rows still valid
        _PROCESS_DECISION_COUNTERS[1] += rows.size - need.size
        if not need.size:
            return
        self._keep[need] = self._t_expected[need]
        self._keep_valid[need] = True

    # -- the Algorithm-5 grant-loop block -----------------------------------
    def rebuild_block(self, dm: DecisionMatrix) -> np.ndarray:
        """Scratch rows for the Algorithm-5 grant loop, over ``dm``'s window.

        Returns ``vals`` (one full-width scratch row per position of
        ``dm.indices``) whose leading ``w = dm.finishes.shape[1]``
        columns hold the task's finish row with the keep-running
        candidate patched in (i.e. ``dm.rebuild_finish`` by slot); the
        columns after ``w`` are stale until :meth:`widen_row` extends
        the row.  Cache-owned scratch, valid until the next
        :meth:`matrix` call.
        """
        idx = np.fromiter(dm.indices, dtype=np.int64, count=len(dm.indices))
        w = dm.finishes.shape[1]
        vals = self._vals[:idx.size]
        # Gathered through the flat scratch: vals keeps full-width rows
        # (widen_row extends them in place), so it is not a (k, w) block.
        np.copyto(
            vals[:, :w],
            _take(self._fin, self._flat_index(self._ix, idx, w), self._left),
        )
        slots = (self._sigma[idx] >> 1) - 1
        inside = np.nonzero(slots < w)[0]
        vals[inside, slots[inside]] = self._keep[idx[inside]]
        return vals

    def widen_row(
        self, vals: np.ndarray, pos: int, i: int, t: float, cols: int
    ) -> None:
        """Extend row ``pos`` (task ``i``) of a :meth:`rebuild_block` to
        ``cols`` columns, exactly.

        The task's finish row is re-patched over ``[0, cols)`` at the
        decision's own ``t``/stall/``alpha^t`` (still in the mirrors)
        unless an earlier same-``t`` decision already left it that wide;
        by invariant 4 the new columns equal a full-width build's.  The
        re-patch starts a new ``_prof`` workspace layout, so the other
        rows' commit-time reads fall back to the model (same values).
        """
        if self._row_w[i] < cols:
            self._patch_rows(np.array([i], dtype=np.int64), t, cols)
        vals[pos, :cols] = self._fin[i, :cols]
        slot = (int(self._sigma[i]) >> 1) - 1
        if slot < cols:
            vals[pos, slot] = self._keep[i]
        self.window_extensions += 1
        _PROCESS_DECISION_COUNTERS[6] += 1

    def cache_info(self) -> Dict[str, int | float]:
        """Patch/reuse counters of this cache (diagnostics)."""
        rows = self.rows_patched + self.rows_reused
        return {
            "matrices_served": self.matrices_served,
            "rows_patched": self.rows_patched,
            "rows_reused": self.rows_reused,
            "reuse_rate": self.rows_reused / rows if rows else 0.0,
            "profile_env_reused": self.profile_env_reused,
            "profile_tau_patched": self.profile_tau_patched,
            "profile_rows_full": self.profile_rows_full,
            "columns_evaluated": self.columns_evaluated,
            "window_extensions": self.window_extensions,
            "scratch_allocations": self.scratch_allocations,
            "budget": self.budget if self.budget is not None else -1,
        }
