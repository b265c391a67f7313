"""Rank loss, its analytic gradient, delta-rank, and the closed-form step."""

import re

import numpy as np
import pytest
import rank_step_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from rankprune import linalg, rank
from rankprune.rank import (
    DegenerateSpectrumError,
    DegenerateWeightError,
    RankLossConfig,
)


def finite_difference_gradient(w, k, eps=1e-6):
    """Central differences of rank_loss coordinate by coordinate, k held fixed."""
    fd = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        wp = w.copy()
        wp[idx] += eps
        wm = w.copy()
        wm[idx] -= eps
        fd[idx] = (rank.rank_loss(wp, k) - rank.rank_loss(wm, k)) / (2 * eps)
    return fd


def nondegenerate_matrix(rng, shape, k, min_gap=1e-3):
    while True:
        w = rng.normal(size=shape)
        sigma = np.linalg.svd(w / np.linalg.norm(w), compute_uv=False)
        if sigma[k - 1] - sigma[k] > min_gap:
            return w


class TestNormalize:
    def test_scales_to_unit(self):
        np.testing.assert_allclose(
            rank.normalize(np.diag([3.0, 4.0])), np.diag([0.6, 0.8]), atol=1e-12
        )

    def test_unit_norm_fixed_point(self):
        w = np.random.default_rng(0).normal(size=(4, 4))
        w /= np.linalg.norm(w)
        np.testing.assert_allclose(rank.normalize(w), w, atol=1e-12)

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegenerateWeightError):
            rank.normalize(np.zeros((3, 3)))

    def test_result_has_unit_norm(self):
        w = np.random.default_rng(1).normal(size=(5, 7)) * 37.0
        assert linalg.frobenius_norm(rank.normalize(w)) == pytest.approx(1.0, abs=1e-12)


class TestSelectK:
    def test_direct_arithmetic(self):
        sigma = np.sqrt([0.6, 0.3, 0.1])
        assert rank.select_k(sigma, 0.15) == 2

    def test_tie_breaks_small(self):
        sigma = np.sqrt([0.7, 0.2, 0.1])
        assert rank.select_k(sigma, 0.2) == 1

    def test_single_value(self):
        assert rank.select_k([1.0], 0.5) == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            rank.select_k([3.0, 2.0, 1.0], 0.2)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            r = int(rng.integers(2, 12))
            raw = np.sort(rng.random(r))[::-1] + 1e-3
            sigma = raw / np.sqrt(np.sum(raw**2))
            target = float(rng.uniform(0.01, 0.9))
            sq = sigma**2
            # exhaustive scan; strict < keeps the smaller k on ties
            best_k, best_val = None, None
            for k in range(1, r):
                val = abs(np.sum(sq[k:]) - target)
                if best_val is None or val < best_val:
                    best_k, best_val = k, val
            assert rank.select_k(sigma, target) == best_k


class TestRankLoss:
    def test_unit_diag(self):
        assert rank.rank_loss(np.diag([0.8, 0.6]), 1) == pytest.approx(-0.36, abs=1e-12)

    def test_rank_one_tail_empty(self):
        assert rank.rank_loss(np.diag([5.0, 0.0, 0.0]), 1) == pytest.approx(0.0, abs=1e-12)

    def test_matches_distance_definition(self):
        # the loss is literally -||Wbar - truncate(svd(Wbar), k)||_F^2
        w = np.random.default_rng(3).normal(size=(6, 4))
        wbar = rank.normalize(w)
        f = linalg.svd(wbar)
        direct = -linalg.frobenius_norm(wbar - linalg.truncate(f, 2)) ** 2
        assert rank.rank_loss(w, 2) == pytest.approx(direct, abs=1e-8)

    def test_scale_invariance(self):
        w = np.random.default_rng(4).normal(size=(5, 5))
        base = rank.rank_loss(w, 2)
        for c in (10.0, 0.003, 7.7e5):
            assert rank.rank_loss(c * w, 2) == pytest.approx(base, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = rng.normal(size=(6, 6))
            val = rank.rank_loss(w, int(rng.integers(1, 6)))
            assert -1.0 <= val <= 0.0

    def test_degenerate_weight(self):
        with pytest.raises(DegenerateWeightError):
            rank.rank_loss(np.zeros((3, 3)), 1)

    def test_k_bounds(self):
        w = np.random.default_rng(6).normal(size=(4, 4))
        with pytest.raises(ValueError):
            rank.rank_loss(w, 0)
        with pytest.raises(ValueError):
            rank.rank_loss(w, 4)  # k must stay below r

    def test_k_must_be_an_integer(self):
        w = np.diag([3.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="k=1.0 must be an integer"):
            rank.rank_loss(w, 1.0)
        with pytest.raises(ValueError, match="k=True must be an integer"):
            rank.rank_loss(w, True)
        assert rank.rank_loss(w, np.int64(1)) == rank.rank_loss(w, 1)


class TestRankLossGradient:
    def test_zero_tail_zero_gradient(self):
        w = np.diag([3.0, 2.0, 0.0, 0.0])
        g = rank.rank_loss_gradient(w, 2)
        np.testing.assert_allclose(g, np.zeros_like(w), atol=1e-12)

    def test_finite_differences_4x3(self):
        w = nondegenerate_matrix(np.random.default_rng(7), (4, 3), 1)
        g = rank.rank_loss_gradient(w, 1)
        fd = finite_difference_gradient(w, 1)
        rel = np.linalg.norm(fd - g) / np.linalg.norm(g)
        assert rel <= 1e-4

    def test_finite_differences_many(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            k = int(rng.integers(1, min(m, n)))
            w = nondegenerate_matrix(rng, (m, n), k)
            g = rank.rank_loss_gradient(w, k)
            fd = finite_difference_gradient(w, k)
            assert np.linalg.norm(fd - g) / np.linalg.norm(g) <= 1e-4

    def test_scaling_homogeneity(self):
        w = nondegenerate_matrix(np.random.default_rng(9), (5, 4), 2)
        g = rank.rank_loss_gradient(w, 2)
        g10 = rank.rank_loss_gradient(10.0 * w, 2)
        np.testing.assert_allclose(g10, g / 10.0, atol=1e-12)
        assert rank.rank_loss(10.0 * w, 2) == pytest.approx(rank.rank_loss(w, 2), abs=1e-12)

    def test_degenerate_boundary(self):
        with pytest.raises(DegenerateSpectrumError):
            rank.rank_loss_gradient(np.eye(3), 1)

    def test_k_must_be_an_integer(self):
        w = np.diag([3.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="k=1.0 must be an integer"):
            rank.rank_loss_gradient(w, 1.0)
        assert np.array_equal(rank.rank_loss_gradient(w, np.int64(1)), rank.rank_loss_gradient(w, 1))


class TestDeltaRank:
    def test_identity(self):
        # normalized identity has flat spectrum 1/sqrt(3); err(2) ~ 0.577 > 0.5
        assert rank.delta_rank(np.eye(3), 0.5) == 3

    def test_exact_rank_one(self):
        assert rank.delta_rank(np.diag([7.0, 0.0, 0.0]), 0.1) == 1

    def test_zero_matrix(self):
        assert rank.delta_rank(np.zeros((4, 4)), 0.1) == 0

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            rank.delta_rank(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            rank.delta_rank(np.eye(2), -0.3)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            w = rng.normal(size=(10, 10))
            wbar = rank.normalize(w)
            f = linalg.svd(wbar)
            expected = None
            for k in range(1, 11):
                if linalg.frobenius_norm(wbar - linalg.truncate(f, k)) < 0.1:
                    expected = k
                    break
            assert rank.delta_rank(w, 0.1) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_low_rank_error_scan(self, m, n, seed):
        # deltas on, just above and just below every tail error: where the
        # cumulative-sum errors and low_rank_error could disagree
        rng = np.random.default_rng(seed)
        w = rng.integers(-2, 3, size=(m, n)).astype(float)
        w[rng.random((m, n)) < 0.5] = 0.0
        sigma, _, _ = rank.layer_spectrum(w, 0.1)
        if sigma.size == 0:
            return
        f = linalg.SvdFactors(u=None, sigma=sigma, v=None)
        errors = [linalg.low_rank_error(f, k) for k in range(f.rank_bound)]
        deltas = [d for e in errors for d in (e, np.nextafter(e, 0.0), np.nextafter(e, 2.0)) if d > 0.0]
        for delta in deltas + [float(x) for x in 1.0 - rng.random(5)]:
            expected = next(k for k in range(1, f.rank_bound + 1) if linalg.low_rank_error(f, k) < delta)
            assert rank.layer_spectrum(w, delta)[1] == expected

    def test_monotone_in_delta(self):
        w = np.random.default_rng(11).normal(size=(8, 8))
        deltas = np.linspace(0.01, 0.99, 25)
        ranks = [rank.delta_rank(w, d) for d in deltas]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))


class TestRankStepPreview:
    def test_zero_step_identity(self):
        w = np.random.default_rng(12).normal(size=(5, 5))
        np.testing.assert_allclose(rank.rank_step_preview(w, 2, 0.0), w, atol=1e-12)

    def test_k_must_be_an_integer(self):
        w = np.diag([3.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="k=1.0 must be an integer"):
            rank.rank_step_preview(w, 1.0, 0.1)
        assert np.array_equal(rank.rank_step_preview(w, np.int64(1), 0.1), rank.rank_step_preview(w, 1, 0.1))

    def test_gamma_zero_checks_k(self):
        # k is checked before the gamma = 0 shortcut, as with any gamma
        w = np.diag([3.0, 2.0, 1.0])
        for k in (1.5, 99, True):
            with pytest.raises(ValueError, match=re.escape(f"k={k} must be an integer in [1, 2]")):
                rank.rank_step_preview(w, k, 0.0)
        got = rank.rank_step_preview(w, 2, 0.0)
        assert np.array_equal(got, w) and not np.shares_memory(got, w)

    def test_matches_generic_step(self):
        w = nondegenerate_matrix(np.random.default_rng(13), (5, 5), 2)
        got = rank.rank_step_preview(w, 2, 1e-3)
        want = rank_step_reference.rank_step(w, 2, 1e-3)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_tail_energy_strictly_increases(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            k = 2
            w = nondegenerate_matrix(rng, (6, 5), k)
            stepped = rank.rank_step_preview(w, k, 1e-2)

            def tail_frac(mat):
                s = np.linalg.svd(mat, compute_uv=False)
                return np.sum(s[k:] ** 2) / np.sum(s**2)

            assert tail_frac(stepped) > tail_frac(w)

    def test_preserves_singular_subspaces(self):
        w = nondegenerate_matrix(np.random.default_rng(15), (7, 4), 2)
        stepped = rank.rank_step_preview(w, 2, 1e-2)
        f0, f1 = linalg.svd(w), linalg.svd(stepped)
        cos_u = np.linalg.svd(f0.u.T @ f1.u, compute_uv=False)
        cos_v = np.linalg.svd(f0.v.T @ f1.v, compute_uv=False)
        assert np.arccos(np.clip(cos_u.min(), -1, 1)) <= 1e-6
        assert np.arccos(np.clip(cos_v.min(), -1, 1)) <= 1e-6


class TestRankLossConfig:
    def test_validation(self):
        RankLossConfig()  # defaults valid
        with pytest.raises(ValueError):
            RankLossConfig(target_error=0.0)
        with pytest.raises(ValueError):
            RankLossConfig(target_error=1.0)
        with pytest.raises(ValueError):
            RankLossConfig(lam=-0.1)
        with pytest.raises(ValueError):
            RankLossConfig(norm_floor=0.0)


class TestLayerRankTerm:
    def test_matches_individual_ops(self):
        cfg = RankLossConfig(target_error=0.2)
        w = np.random.default_rng(16).normal(size=(9, 6))
        term = rank.layer_rank_term(w, cfg)
        f = linalg.svd(rank.normalize(w))
        k = rank.select_k(f.sigma, 0.2)
        assert term.k == k
        assert term.loss == pytest.approx(rank.rank_loss(w, k), abs=1e-12)
        np.testing.assert_allclose(term.gradient, rank.rank_loss_gradient(w, k), atol=1e-12)

    def test_row_vector_degenerate(self):
        with pytest.raises(DegenerateSpectrumError):
            rank.layer_rank_term(np.ones((1, 5)), RankLossConfig())


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.05, max_value=20.0),
)
def test_scale_invariance_property(m, n, seed, c):
    w = np.random.default_rng(seed).normal(size=(m, n))
    k = min(m, n) - 1
    assert rank.rank_loss(c * w, k) == pytest.approx(rank.rank_loss(w, k), abs=1e-12)


def _with_dead_lines(rng, w, dead_rows, dead_cols):
    """w with all-zero rows and columns inserted at random positions."""
    m, n = w.shape
    rows = np.sort(rng.choice(m + dead_rows, size=m, replace=False))
    cols = np.sort(rng.choice(n + dead_cols, size=n, replace=False))
    out = np.zeros((m + dead_rows, n + dead_cols))
    out[np.ix_(rows, cols)] = w
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_dead_lines_leave_spectrum_and_delta_rank(m, n, dead_rows, dead_cols, seed):
    # nonzero integers: no dead line in the dense block, and a norm whose sum
    # of squares is exact in any summation order
    rng = np.random.default_rng(seed)
    dense = rng.integers(1, 4, size=(m, n)) * rng.choice([-1.0, 1.0], size=(m, n))
    sparse = _with_dead_lines(rng, dense, dead_rows, dead_cols)
    sigma, drank, _ = rank.layer_spectrum(dense, 0.1)
    sigma_s, drank_s, _ = rank.layer_spectrum(sparse, 0.1)
    r = min(sparse.shape)
    assert sigma_s.shape == (r,)
    np.testing.assert_array_equal(sigma_s[: len(sigma)], sigma)
    assert np.all(sigma_s[len(sigma):] == 0.0)
    assert drank_s == drank


def _svd_tail_gradient(w, target_error):
    """(k, G) from the SVD tail: G = -T/||W|| + W * c/||W||^3, T = 2 sum_{i>k} sigma_i u_i v_i^T."""
    norm = np.linalg.norm(w)
    u, s, vt = np.linalg.svd(w / norm, full_matrices=False)
    k = rank.select_k(s, target_error)
    t = 2.0 * (u[:, k:] * s[k:]) @ vt[k:]
    return k, -t / norm + w * (np.sum(w * t) / norm**3)


@pytest.mark.parametrize("dead", [(0, 0), (3, 0), (0, 4), (5, 2)])
def test_gram_gradient_matches_svd_tail(dead):
    rng = np.random.default_rng(17)
    cfg = RankLossConfig(target_error=0.2)
    for _ in range(40):
        m, n = int(rng.integers(2, 30)), int(rng.integers(2, 30))
        while True:
            w = _with_dead_lines(rng, rng.normal(size=(m, n)), *dead)
            sigma = np.linalg.svd(w / np.linalg.norm(w), compute_uv=False)
            k = rank.select_k(sigma, cfg.target_error)
            # away from a tied truncation boundary and from a tie in select_k
            tails = np.cumsum((sigma**2)[::-1])[::-1][1:]
            misfit = np.sort(np.abs(tails - cfg.target_error))
            if sigma[k - 1] - sigma[k] > 1e-3 and (len(misfit) < 2 or misfit[1] - misfit[0] > 1e-6):
                break
        want_k, want = _svd_tail_gradient(w, cfg.target_error)
        term = rank.layer_rank_term(w, cfg)
        assert term.k == want_k
        np.testing.assert_allclose(term.gradient, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())
        np.testing.assert_allclose(rank.rank_loss_gradient(w, k), want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


@pytest.mark.parametrize("dead", [(0, 0), (3, 2)])
def test_layout_does_not_move_a_bit(dead):
    # the same values in Fortran order or as a transposed view give the bits
    # of their C-order copy, with or without a dead row or column
    rng = np.random.default_rng(23)
    cfg = RankLossConfig()
    for _ in range(20):
        w = _with_dead_lines(rng, rng.normal(size=(int(rng.integers(3, 20)), int(rng.integers(3, 20)))), *dead)
        for x in (np.asfortranarray(w), w.T):
            c = np.ascontiguousarray(x)
            assert rank.layer_rank_term(x, cfg).gradient.tobytes() == rank.layer_rank_term(c, cfg).gradient.tobytes()
            assert rank.rank_step_preview(x, 1, 0.01).tobytes() == rank.rank_step_preview(c, 1, 0.01).tobytes()
            assert rank.layer_spectrum(x, 0.1)[0].tobytes() == rank.layer_spectrum(c, 0.1)[0].tobytes()


@pytest.mark.parametrize("shape, live", [((5, 6), "row"), ((6, 5), "row"), ((5, 6), "col"), ((1, 5), "row")])
def test_single_live_line_skips_rank_term(shape, live):
    w = np.zeros(shape)
    values = np.random.default_rng(18).normal(size=shape[1] if live == "row" else shape[0])
    if live == "row":
        w[shape[0] // 2] = values
    else:
        w[:, shape[1] // 2] = values
    with pytest.raises(DegenerateSpectrumError):
        rank.layer_rank_term(w, RankLossConfig())
    assert rank.layer_spectrum(w, 0.1, RankLossConfig())[1:] == (1, None)
