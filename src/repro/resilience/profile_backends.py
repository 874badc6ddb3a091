"""Profile-evaluation backends: the Eq. (4) elementwise pass, three ways.

Every batched profile evaluation in the library bottoms out in the same
elementwise pass over ``(row, grid-slot)`` blocks::

    work     = alpha * t_ff
    n_ff     = floor(work / (tau - C))
    tau_last = work - n_ff * (tau - C)
    t^R      = prefactor * (n_ff * exp_period + expm1(lam * tau_last))

The ``profile_backend`` knob on
:class:`~repro.resilience.expected_time.ExpectedTimeModel` selects how
that pass executes:

``"reference"``
    The original code paths verbatim — per-call ``np.stack`` of the
    task grids inside :func:`~repro.resilience.expected_time.
    stacked_raw_profiles` and the inline fancy-indexed block of
    ``profile_rows_into``.  Kept as the bit-identity anchor, mirroring
    ``decision_kernel="scalar"`` / ``decision_state="rebuild"`` /
    ``event_queue="scan"``.

``"fused"`` (the default)
    :class:`FusedProfileBackend`: the same operations in the same
    order, but over *persistent* stacked grid blocks with in-place
    ``np.take`` gathers and reused ``floor``/``expm1`` workspaces — no
    per-call ``np.stack``, no temporaries.  Because float64 elementwise
    operations are bitwise deterministic regardless of how their
    operands were laid out in memory, the fused rows are bit-identical
    to the reference rows by construction (pinned by
    ``tests/test_properties_profile_backends.py``).

``"numba"``
    :class:`NumbaProfileBackend`: the identical scalar recurrence
    compiled per element by :mod:`numba` (``fastmath=False``, so IEEE
    semantics — and therefore bit-identity — are preserved).  numba is
    a *soft* dependency: the import is guarded, nothing in the package
    requires it, and :func:`resolve_profile_backend` silently falls
    back to ``"fused"`` when it is absent.  Requesting ``"numba"`` is
    therefore always safe; :data:`NUMBA_AVAILABLE` tells you what you
    actually got.

Backends only compute *raw* Eq. (4) rows; the Eq. (6) running-minimum
envelope, alpha quantisation and ring insertion stay in
:class:`~repro.resilience.expected_time.ExpectedTimeModel`, so every
backend shares the exact same caching semantics.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "PROFILE_BACKENDS",
    "NUMBA_AVAILABLE",
    "ensure_profile_backend",
    "resolve_profile_backend",
    "make_profile_backend",
    "FusedProfileBackend",
    "NumbaProfileBackend",
]

#: Accepted ``profile_backend`` names: ``"fused"`` is the default fast
#: path, ``"numba"`` an optional compiled gate (falls back to fused),
#: ``"reference"`` the original per-call np.stack code kept verbatim.
PROFILE_BACKENDS = ("fused", "numba", "reference")

try:  # soft dependency — never required, never installed by this repo
    import numba  # type: ignore
except ImportError:  # pragma: no cover - exercised on numba-free hosts
    numba = None  # type: ignore[assignment]

#: Whether the optional numba gate can actually compile.
NUMBA_AVAILABLE = numba is not None


def ensure_profile_backend(name: str) -> str:
    """Validate a ``profile_backend`` name (no availability fallback)."""
    if name not in PROFILE_BACKENDS:
        raise ConfigurationError(
            f"profile_backend must be one of {PROFILE_BACKENDS}, "
            f"got {name!r}"
        )
    return name


def resolve_profile_backend(name: str) -> str:
    """The backend that will actually run: ``"numba"`` degrades to
    ``"fused"`` when numba is not importable (soft-dependency contract).
    """
    ensure_profile_backend(name)
    if name == "numba" and not NUMBA_AVAILABLE:
        return "fused"
    return name


class FusedProfileBackend:
    """Raw Eq. (4) rows off persistent stacked blocks, allocation-free.

    ``blocks`` is the model's stacked-grid dict
    (:meth:`~repro.resilience.expected_time.ExpectedTimeModel.
    _stacked_grids`); ``rows``, when given, maps task indices to block
    rows (a grid-store-backed model), otherwise row ``i`` is task ``i``.
    :meth:`raw_rows` gathers the selected task rows
    with ``np.take(..., out=...)`` into four reused workspaces and runs
    the Eq. (4) recurrence in place — the exact operation sequence of
    the reference multi-grid branch (multiply, divide, floor, multiply,
    subtract, multiply, expm1, multiply, add, multiply), so every row
    is bit-identical to :func:`~repro.resilience.expected_time.
    stacked_raw_profiles` over freshly stacked grids.
    """

    name = "fused"

    def __init__(
        self, blocks: Dict[str, np.ndarray], rows: Optional[np.ndarray] = None
    ):
        self._t_ff = blocks["t_ff"]
        self._wpp = blocks["wpp"]
        self._lam = blocks["lam"]
        self._prefactor = blocks["prefactor"]
        self._exp_period = blocks["exp_period"]
        self._rows = rows
        self._n_tasks = int(
            self._t_ff.shape[0] if rows is None else rows.size
        )
        self._width = int(self._t_ff.shape[1])
        self._capacity = 0
        self._wa = self._wb = self._wc = self._wd = np.empty((0, 0))

    def _ensure_capacity(self, k: int) -> None:
        """Grow the four workspaces to at least ``k`` rows (amortised:
        normally one allocation sized to the pack, but duplicate-alpha
        batches may exceed the task count)."""
        if k <= self._capacity:
            return
        capacity = max(k, self._n_tasks, 2 * self._capacity)
        shape = (capacity, self._width)
        self._wa = np.empty(shape)
        self._wb = np.empty(shape)
        self._wc = np.empty(shape)
        self._wd = np.empty(shape)
        self._capacity = capacity

    def raw_rows(self, sel: np.ndarray, alpha_q: np.ndarray) -> np.ndarray:
        """Raw Eq. (4) rows for ``(sel[r], alpha_q[r])`` pairs.

        ``alpha_q`` must already be quantised (float64, one per row);
        rows with ``alpha_q <= 0`` are exactly zero, like the reference.
        Returns a ``(len(sel), grid)`` view into backend-owned scratch —
        valid only until the next call; callers copy what they keep.
        """
        k = int(sel.size)
        self._ensure_capacity(k)
        if self._rows is not None:
            sel = self._rows[sel]
        a = self._wa[:k]
        b = self._wb[:k]
        c = self._wc[:k]
        d = self._wd[:k]
        np.take(self._t_ff, sel, axis=0, out=a)
        np.multiply(alpha_q[:, None], a, out=c)     # c = work
        np.take(self._wpp, sel, axis=0, out=b)
        np.divide(c, b, out=a)
        np.floor(a, out=a)                          # a = n_ff
        np.multiply(a, b, out=d)
        np.subtract(c, d, out=c)                    # c = tau_last
        np.take(self._lam, sel, axis=0, out=b)
        with np.errstate(over="ignore"):
            # exp overflow -> inf is legitimate (hopeless MTBF configs),
            # exactly like the reference kernel.
            np.multiply(b, c, out=c)
            np.expm1(c, out=c)                      # c = expm1(lam tau_last)
            np.take(self._exp_period, sel, axis=0, out=b)
            np.multiply(a, b, out=a)                # a = n_ff * exp_period
            np.add(a, c, out=a)
            np.take(self._prefactor, sel, axis=0, out=b)
            np.multiply(b, a, out=a)
        zero = alpha_q <= 0.0
        if bool(np.any(zero)):
            # inf prefactor times the zero row would give nan; finished
            # tasks cost exactly nothing, like the reference.
            a[zero] = 0.0
        return a

    def raw_row(self, i: int, alpha_q: float) -> np.ndarray:
        """One raw Eq. (4) row — the single-miss ``profile()`` fast path.

        The batched gather/broadcast machinery of :meth:`raw_rows` is
        pure overhead at ``k = 1``; this runs the same operation
        sequence directly on the 1-D stacked-block row views (so the
        result stays bit-identical).  Returns backend-owned scratch —
        valid only until the next call.
        """
        self._ensure_capacity(1)
        a = self._wa[0]
        if alpha_q <= 0.0:
            a[:] = 0.0
            return a
        c = self._wc[0]
        d = self._wd[0]
        if self._rows is not None:
            i = self._rows[i]
        wpp = self._wpp[i]
        np.multiply(alpha_q, self._t_ff[i], out=c)  # c = work
        np.divide(c, wpp, out=a)
        np.floor(a, out=a)                          # a = n_ff
        np.multiply(a, wpp, out=d)
        np.subtract(c, d, out=c)                    # c = tau_last
        with np.errstate(over="ignore"):
            np.multiply(self._lam[i], c, out=c)
            np.expm1(c, out=c)                      # c = expm1(lam tau_last)
            np.multiply(a, self._exp_period[i], out=a)
            np.add(a, c, out=a)                     # a = n_ff exp_period + .
            np.multiply(self._prefactor[i], a, out=a)
        return a


_NUMBA_KERNEL = None


def _numba_kernel():
    """Compile (once per process) the per-element Eq. (4) recurrence."""
    global _NUMBA_KERNEL
    if _NUMBA_KERNEL is None:
        import math

        @numba.njit(cache=False, fastmath=False)  # IEEE order preserved
        def kernel(sel, alpha_q, t_ff, wpp, lam, prefactor, exp_period, out):
            for r in range(sel.shape[0]):
                i = sel[r]
                a = alpha_q[r]
                if a <= 0.0:
                    for s in range(out.shape[1]):
                        out[r, s] = 0.0
                    continue
                for s in range(out.shape[1]):
                    work = a * t_ff[i, s]
                    n_ff = math.floor(work / wpp[i, s])
                    tau_last = work - n_ff * wpp[i, s]
                    out[r, s] = prefactor[i, s] * (
                        n_ff * exp_period[i, s]
                        + math.expm1(lam[i, s] * tau_last)
                    )

        _NUMBA_KERNEL = kernel
    return _NUMBA_KERNEL


class NumbaProfileBackend(FusedProfileBackend):
    """The fused pass compiled per element by numba (optional gate).

    Same persistent blocks and scratch discipline as the fused backend;
    the elementwise recurrence runs inside one ``njit`` kernel
    (``fastmath=False`` keeps IEEE evaluation order, hence
    bit-identity).  Only constructible when :data:`NUMBA_AVAILABLE`.
    """

    name = "numba"

    def __init__(
        self, blocks: Dict[str, np.ndarray], rows: Optional[np.ndarray] = None
    ):
        if not NUMBA_AVAILABLE:  # pragma: no cover - guarded upstream
            raise ConfigurationError(
                "profile_backend='numba' requested but numba is not "
                "importable; resolve_profile_backend falls back to 'fused'"
            )
        super().__init__(blocks, rows)
        self._kernel = _numba_kernel()

    def raw_rows(self, sel: np.ndarray, alpha_q: np.ndarray) -> np.ndarray:
        k = int(sel.size)
        self._ensure_capacity(k)
        if self._rows is not None:
            sel = self._rows[sel]
        out = self._wa[:k]
        self._kernel(
            sel, alpha_q, self._t_ff, self._wpp, self._lam,
            self._prefactor, self._exp_period, out,
        )
        return out


def make_profile_backend(
    name: str,
    blocks: Dict[str, np.ndarray],
    rows: Optional[np.ndarray] = None,
) -> Optional[FusedProfileBackend]:
    """Instantiate the *resolved* backend (``None`` for the reference)."""
    resolved = resolve_profile_backend(name)
    if resolved == "reference":
        return None
    if resolved == "numba":
        return NumbaProfileBackend(blocks, rows)
    return FusedProfileBackend(blocks, rows)
