"""Property suite: every profile backend is bit-identical to "reference".

ISSUE 7's acceptance contract for the native-speed hot core: the fused
(and, when installed, numba) Eq. (4) backends and the ``DecisionCache``
``tau_last``-only profile patch must reproduce the reference substrate
*bit for bit* — not approximately — across the edge cases that could
plausibly break exact equality: zero-alpha rows (forced-zero masking),
single-slot grids (degenerate envelope), and overflowing ``inf``
prefactors (hopeless-MTBF configurations where ``exp`` saturates).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core.kernels import DecisionCache
from repro.resilience import (
    NUMBA_AVAILABLE,
    ExpectedTimeModel,
    ensure_alpha_vector,
    resolve_profile_backend,
)
from repro.tasks import uniform_pack

#: The fast backends under test; "numba" joins when the soft dependency
#: is importable (never required — the point of the gate).
FAST_BACKENDS = ("fused",) + (("numba",) if NUMBA_AVAILABLE else ())

# Modest spaces so every example builds in microseconds.  The smallest
# mtbf values push ``lam`` high enough that exp() overflows to an inf
# prefactor; pairs == 1 gives a single-slot grid.
n_tasks = st.integers(min_value=1, max_value=5)
grid_pairs = st.integers(min_value=1, max_value=24)
mtbf_years = st.floats(min_value=1e-4, max_value=100.0)
seeds = st.integers(min_value=0, max_value=2**16)
alphas = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))


def build_models(n, pairs, mtbf, seed, backends=FAST_BACKENDS):
    """One reference model plus one model per fast backend, same pack."""
    pack = uniform_pack(n, m_inf=8_000.0, m_sup=20_000.0, seed=seed)
    cluster = Cluster.with_mtbf_years(2 * pairs, mtbf)
    reference = ExpectedTimeModel(pack, cluster, profile_backend="reference")
    fast = {
        name: ExpectedTimeModel(pack, cluster, profile_backend=name)
        for name in backends
    }
    return reference, fast


class TestBackendBitIdentity:
    @given(
        n=n_tasks, pairs=grid_pairs, mtbf=mtbf_years, seed=seeds,
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_profile_rows_bit_identical(self, n, pairs, mtbf, seed, data):
        reference, fast = build_models(n, pairs, mtbf, seed)
        alpha_t = [data.draw(alphas) for _ in range(n)]
        want = reference.profile_matrix(range(n), alpha_t)
        for name, model in fast.items():
            got = model.profile_matrix(range(n), alpha_t)
            assert np.array_equal(got, want), name
            # The scalar accessor rides the same rows.
            for i in range(n):
                assert np.array_equal(
                    model.profile(i, alpha_t[i]),
                    reference.profile(i, alpha_t[i]),
                ), name

    @given(
        n=n_tasks, pairs=grid_pairs, mtbf=mtbf_years, seed=seeds,
        alpha=alphas,
    )
    @settings(max_examples=40, deadline=None)
    def test_profile_batch_bit_identical(self, n, pairs, mtbf, seed, alpha):
        reference, fast = build_models(n, pairs, mtbf, seed)
        want = reference.profile_batch(range(n), alpha)
        for name, model in fast.items():
            assert np.array_equal(
                model.profile_batch(range(n), alpha), want
            ), name

    @given(
        n=n_tasks, pairs=grid_pairs, mtbf=mtbf_years, seed=seeds,
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_profile_rows_into_bit_identical(self, n, pairs, mtbf, seed, data):
        # The engine's scratch-filling hot path (store=False leaves the
        # ring untouched, so every call re-evaluates through the backend).
        reference, fast = build_models(n, pairs, mtbf, seed)
        alpha_t = np.array([data.draw(alphas) for _ in range(n)])
        width = reference.j_grid.size
        want = reference.profile_rows_into(
            list(range(n)), alpha_t, np.empty((n, width)), store=False
        )
        for name, model in fast.items():
            got = model.profile_rows_into(
                list(range(n)), alpha_t, np.empty((n, width)), store=False
            )
            assert np.array_equal(got, want), name

    @given(pairs=grid_pairs, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_zero_alpha_rows_exactly_zero(self, pairs, seed):
        # Zero remaining work costs exactly 0.0 on every backend, even
        # when the inf prefactor would otherwise produce inf * 0 = nan.
        reference, fast = build_models(3, pairs, 1e-4, seed)
        for model in (reference, *fast.values()):
            assert np.all(model.profile_matrix(range(3), [0.0] * 3) == 0.0)

    @given(n=n_tasks, pairs=grid_pairs, seed=seeds, data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_overflow_inf_prefactor_bit_identical(self, n, pairs, seed, data):
        # mtbf = 1e-4 years over large tasks saturates exp(): the raw
        # Eq. (4) rows contain inf, and every backend must place the
        # same infs in the same slots (inf == inf under array_equal).
        reference, fast = build_models(n, pairs, 1e-4, seed)
        alpha_t = [data.draw(st.floats(min_value=0.5, max_value=1.0))
                   for _ in range(n)]
        want = reference.profile_matrix(range(n), alpha_t)
        assert np.isinf(want).any() or np.isfinite(want).all()
        for name, model in fast.items():
            assert np.array_equal(
                model.profile_matrix(range(n), alpha_t), want
            ), name


class TestDecisionCacheProfileDeltas:
    @given(
        n=st.integers(min_value=1, max_value=5), pairs=grid_pairs,
        mtbf=mtbf_years, seed=seeds, data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_tau_patch_bit_identical_to_reference(
        self, n, pairs, mtbf, seed, data
    ):
        # Two successive _profile_rows passes with slightly moved alphas:
        # rows whose N^ff held take the tau_last-only patch, rows whose
        # N^ff stepped re-evaluate — either way the result must equal the
        # reference substrate evaluated from scratch at the same alphas,
        # on the pass's column window (each pass over its own window,
        # so the second may need columns the first never evaluated).
        reference, fast = build_models(n, pairs, mtbf, seed, ("fused",))
        cache = DecisionCache(fast["fused"])
        width = fast["fused"].j_grid.size
        windows = st.integers(min_value=1, max_value=width)
        w1, w2 = data.draw(windows), data.draw(windows)
        sub = np.arange(n)
        first = np.array([data.draw(alphas) for _ in range(n)])
        # A relative nudge this small rarely moves floor(work / wpp),
        # so the second pass exercises the patch tier.
        second = first * (1.0 - 1e-9)
        cache._alpha_t[:n] = first
        cache._profile_rows(sub, w1)
        cache._alpha_t[:n] = second
        got = cache._profile_rows(sub, w2)
        want = reference.profile_matrix(range(n), second)
        assert np.array_equal(got, want[:, :w2])

    def test_tau_patch_tier_fires_on_stable_nff(self):
        # Deterministic counter check: identical alphas guarantee the
        # N^ff rows cannot move, so the second pass must patch every row.
        _, fast = build_models(4, 16, 0.02, 7, ("fused",))
        cache = DecisionCache(fast["fused"])
        width = fast["fused"].j_grid.size
        sub = np.arange(4)
        cache._alpha_t[:4] = [0.9, 0.7, 0.5, 0.0]
        cache._profile_rows(sub, width)
        assert cache.profile_rows_full == 4
        before = cache.profile_tau_patched
        first = cache._profile_rows(sub, width).copy()
        assert cache.profile_tau_patched == before + 4
        # And the patched rows equal the fully evaluated ones bit for bit.
        assert np.array_equal(
            first,
            fast["fused"].profile_matrix(range(4), [0.9, 0.7, 0.5, 0.0]),
        )


class TestSoftDependencyContract:
    def test_numba_request_always_safe(self):
        # Requesting "numba" never fails: it resolves to "numba" when
        # importable and degrades to "fused" otherwise.
        resolved = resolve_profile_backend("numba")
        assert resolved == ("numba" if NUMBA_AVAILABLE else "fused")
        pack = uniform_pack(2, m_inf=8_000.0, m_sup=20_000.0, seed=0)
        cluster = Cluster.with_mtbf_years(16, 0.02)
        model = ExpectedTimeModel(pack, cluster, profile_backend="numba")
        assert model.profile_backend == resolved
        assert model.requested_backend == "numba"

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_numba_backend_actually_selected(self):
        pack = uniform_pack(2, m_inf=8_000.0, m_sup=20_000.0, seed=0)
        cluster = Cluster.with_mtbf_years(16, 0.02)
        model = ExpectedTimeModel(pack, cluster, profile_backend="numba")
        assert model.profile_backend == "numba"


class TestAlphaBoundaryValidation:
    @given(n=n_tasks, pairs=grid_pairs, mtbf=mtbf_years, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_nonconforming_alphas_converted_once(self, n, pairs, mtbf, seed):
        # The cache-boundary fix: float32 / non-contiguous alphas are
        # normalised by ensure_alpha_vector at the accessor boundary and
        # produce the same bits as a conforming float64 vector.
        reference, fast = build_models(n, pairs, mtbf, seed)
        base = np.linspace(0.0, 1.0, 2 * n)
        strided = base[::2]              # non-contiguous view
        f32 = strided.astype(np.float32)  # wrong dtype
        want = reference.profile_matrix(range(n), np.ascontiguousarray(strided))
        for model in (reference, *fast.values()):
            assert np.array_equal(model.profile_matrix(range(n), strided), want)
        # float32 loses bits, so compare against the float64 promotion
        # of the same values — conversion happens once, at the boundary.
        promoted = ensure_alpha_vector(f32, n)
        assert promoted.dtype == np.float64
        assert promoted.flags["C_CONTIGUOUS"]
        want32 = reference.profile_matrix(range(n), promoted)
        for model in fast.values():
            assert np.array_equal(model.profile_matrix(range(n), f32), want32)
