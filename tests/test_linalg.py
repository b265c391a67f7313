"""SVD and low-rank approximation contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankprune import linalg


def random_matrix(rng, max_dim=10):
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    return rng.normal(size=(m, n))


class TestSvd:
    def test_identity(self):
        f = linalg.svd(np.eye(3))
        np.testing.assert_allclose(f.sigma, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        f = linalg.svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(f.sigma, [3.0, 2.0, 1.0])
        np.testing.assert_array_equal(f.u, np.eye(3))
        np.testing.assert_array_equal(f.v, np.eye(3))

    def test_defining_equations(self):
        # A v_i = sigma_i u_i, straight from the definition
        w = np.random.default_rng(0).normal(size=(8, 5))
        f = linalg.svd(w)
        for i in range(len(f.sigma)):
            np.testing.assert_allclose(w @ f.v[:, i], f.sigma[i] * f.u[:, i], atol=1e-8)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            w = random_matrix(rng, max_dim=64)
            f = linalg.svd(w)
            recon = (f.u * f.sigma) @ f.v.T
            wnorm = linalg.frobenius_norm(w)
            assert linalg.frobenius_norm(recon - w) <= 1e-8 * max(1.0, wnorm)
            r = len(f.sigma)
            assert np.max(np.abs(f.u.T @ f.u - np.eye(r))) <= 1e-8
            assert np.max(np.abs(f.v.T @ f.v - np.eye(r))) <= 1e-8
            assert np.all(np.diff(f.sigma) <= 0)
            assert np.all(f.sigma >= 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            f = linalg.svd(random_matrix(rng))
            for i in range(len(f.sigma)):
                col = f.u[:, i]
                nz = np.nonzero(col)[0]
                if nz.size:
                    assert col[nz[0]] >= 0

    @pytest.mark.parametrize("zero_rows,zero_cols", [(0, 0), (1, 0), (3, 0), (0, 2), (2, 3), (5, 1)])
    def test_sign_rule_matches_column_loop(self, zero_rows, zero_cols):
        # leading all-zero rows push each left vector's first nonzero entry down
        rng = np.random.default_rng(zero_rows * 10 + zero_cols)
        for shape in ((8, 6), (6, 8), (7, 7)):
            w = rng.integers(-2, 3, size=shape).astype(float)
            w[:zero_rows] = 0.0
            w[:, :zero_cols] = 0.0
            u, s, vt = np.linalg.svd(w, full_matrices=False)
            v = vt.T.copy()
            for i in range(s.shape[0]):  # the rule one column at a time
                nz = np.nonzero(u[:, i])[0]
                if nz.size and u[nz[0], i] < 0.0:
                    u[:, i] = -u[:, i]
                    v[:, i] = -v[:, i]
            f = linalg.svd(w)
            np.testing.assert_array_equal(f.u, u)
            np.testing.assert_array_equal(f.v, v)
            np.testing.assert_array_equal(f.sigma, s)

    def test_determinism_bitwise(self):
        w = np.random.default_rng(3).normal(size=(12, 7))
        f1 = linalg.svd(w)
        f2 = linalg.svd(w.copy())
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.v, f2.v)

    def test_rejects_nonfinite(self):
        w = np.ones((2, 2))
        w[0, 0] = np.nan
        with pytest.raises(ValueError):
            linalg.svd(w)
        w[0, 0] = np.inf
        with pytest.raises(ValueError):
            linalg.svd(w)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            linalg.svd(np.ones(3))


class TestFrobeniusNorm:
    def test_three_four_five(self):
        assert linalg.frobenius_norm(np.diag([3.0, 4.0])) == pytest.approx(5.0)

    def test_zero(self):
        assert linalg.frobenius_norm(np.zeros((4, 2))) == 0.0

    def test_matches_sigma_energy(self):
        w = np.random.default_rng(4).normal(size=(6, 9))
        f = linalg.svd(w)
        assert linalg.frobenius_norm(w) == pytest.approx(
            np.sqrt(np.sum(f.sigma**2)), abs=1e-10
        )


class TestTruncate:
    def test_diagonal(self):
        f = linalg.svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(linalg.truncate(f, 2), np.diag([3.0, 2.0, 0.0]), atol=1e-12)

    def test_full_rank_reconstructs(self):
        w = np.random.default_rng(5).normal(size=(7, 4))
        f = linalg.svd(w)
        np.testing.assert_allclose(linalg.truncate(f, 4), w, atol=1e-8)

    def test_error_equals_sigma_tail(self):
        w = np.random.default_rng(6).normal(size=(6, 6))
        f = linalg.svd(w)
        err = linalg.frobenius_norm(w - linalg.truncate(f, 2))
        assert err == pytest.approx(np.sqrt(np.sum(f.sigma[2:] ** 2)), abs=1e-8)
        assert err == pytest.approx(linalg.low_rank_error(f.sigma, 2), abs=1e-8)

    def test_result_rank(self):
        w = np.random.default_rng(7).normal(size=(6, 6))
        f = linalg.svd(w)
        assert np.linalg.matrix_rank(linalg.truncate(f, 2)) <= 2

    def test_k_out_of_range(self):
        f = linalg.svd(np.eye(3))
        with pytest.raises(ValueError):
            linalg.truncate(f, 0)
        with pytest.raises(ValueError):
            linalg.truncate(f, 4)

    def test_k_must_be_an_integer(self):
        f = linalg.svd(np.diag([3.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="k=1.0 must be an integer"):
            linalg.truncate(f, 1.0)
        with pytest.raises(ValueError, match="k=True must be an integer"):
            linalg.truncate(f, True)
        assert np.array_equal(linalg.truncate(f, np.int64(2)), linalg.truncate(f, 2))


class TestLowRankError:
    def test_direct_sum(self):
        f = linalg.svd(np.diag([3.0, 2.0, 1.0]))
        assert linalg.low_rank_error(f.sigma, 1) == pytest.approx(np.sqrt(5.0), abs=1e-12)

    def test_full_rank_zero(self):
        f = linalg.svd(np.diag([3.0, 2.0, 1.0]))
        assert linalg.low_rank_error(f.sigma, 3) == 0.0

    def test_k_zero_is_full_norm(self):
        w = np.random.default_rng(8).normal(size=(5, 3))
        f = linalg.svd(w)
        assert linalg.low_rank_error(f.sigma, 0) == pytest.approx(linalg.frobenius_norm(w), abs=1e-10)

    def test_matches_explicit_distance(self):
        w = np.random.default_rng(9).normal(size=(8, 5))
        f = linalg.svd(w)
        for k in range(1, 6):
            explicit = linalg.frobenius_norm(w - linalg.truncate(f, k))
            assert linalg.low_rank_error(f.sigma, k) == pytest.approx(explicit, abs=1e-8)

    def test_out_of_range(self):
        f = linalg.svd(np.eye(2))
        with pytest.raises(ValueError):
            linalg.low_rank_error(f.sigma, -1)
        with pytest.raises(ValueError):
            linalg.low_rank_error(f.sigma, 3)

    def test_k_must_be_an_integer(self):
        f = linalg.svd(np.diag([3.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="k=1.0 must be an integer"):
            linalg.low_rank_error(f.sigma, 1.0)
        with pytest.raises(ValueError, match="k=False must be an integer"):
            linalg.low_rank_error(f.sigma, False)
        assert linalg.low_rank_error(f.sigma, np.int32(1)) == linalg.low_rank_error(f.sigma, 1)


def test_eckart_young_sampled():
    # no random rank-k matrix gets closer than the truncated SVD
    rng = np.random.default_rng(10)
    for _ in range(20):
        w = random_matrix(rng, max_dim=8)
        m, n = w.shape
        f = linalg.svd(w)
        wnorm = linalg.frobenius_norm(w)
        for k in range(1, min(m, n) + 1):
            best = linalg.low_rank_error(f.sigma, k)
            a = rng.normal(size=(100, m, k))
            b = rng.normal(size=(100, k, n))
            cand = a @ b
            norms = np.sqrt(np.sum(cand**2, axis=(1, 2)))
            norms[norms == 0] = 1.0
            cand *= (wnorm / norms)[:, None, None]
            dists = np.sqrt(np.sum((cand - w) ** 2, axis=(1, 2)))
            assert np.all(dists >= best - 1e-10)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_reconstruction_property(m, n, seed):
    w = np.random.default_rng(seed).normal(size=(m, n))
    f = linalg.svd(w)
    recon = (f.u * f.sigma) @ f.v.T
    assert linalg.frobenius_norm(recon - w) <= 1e-8 * max(1.0, linalg.frobenius_norm(w))
    assert np.all(np.diff(f.sigma) <= 0)
