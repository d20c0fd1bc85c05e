"""Tests for symmetric eigendecomposition, matrix log, and SPD distances."""

import numpy as np
import pytest
import scipy.linalg

from metricmanova.errors import DataError, SingularMatrixError
from metricmanova.spd import (
    SpdMatrix,
    matrix_exp_sym,
    matrix_log,
    ridge_repair,
    spd_distance,
    stack_airm_sq,
    stack_matrix_log,
    sym_eig,
)

from oracles import oracle_spd_distance


def random_spd(rng, dim, max_cond=1e3):
    """Random SPD matrix with bounded condition number."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = np.exp(rng.uniform(0.0, np.log(max_cond), size=dim))
    eigs = eigs / eigs.max()
    return (q * eigs[None, :]) @ q.T


class TestSymEig:
    def test_identity(self):
        w, v = sym_eig(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])

    def test_diagonal(self):
        w, v = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(w, [3.0, 1.0])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_two_by_two_hand_value(self):
        # [[2,1],[1,2]] has characteristic roots 3 and 1
        w, _ = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(w, [3.0, 1.0])

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(21)
        for dim in (2, 3, 5):
            for _ in range(20):
                A = random_spd(rng, dim)
                w, v = sym_eig(A)
                assert np.all(np.diff(w) <= 0)  # descending
                recon = (v * w[None, :]) @ v.T
                assert np.linalg.norm(recon - A) <= 1e-9 * max(1.0, np.linalg.norm(A))
                assert np.max(np.abs(v.T @ v - np.eye(dim))) < 1e-10

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestMatrixLog:
    def test_identity_gives_zero(self):
        assert np.allclose(matrix_log(np.eye(3)), np.zeros((3, 3)))

    def test_diagonal_closed_form(self):
        got = matrix_log(np.diag([np.e, 1.0]))
        assert np.allclose(got, np.diag([1.0, 0.0]), atol=1e-14)

    def test_round_trip(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        back = matrix_exp_sym(matrix_log(A))
        assert np.linalg.norm(back - A) <= 1e-8 * np.linalg.norm(A)

    def test_round_trip_random(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            A = random_spd(rng, 4, max_cond=1e6)
            back = matrix_exp_sym(matrix_log(A))
            assert np.linalg.norm(back - A) <= 1e-8 * np.linalg.norm(A)

    def test_singular_matrix_raises_named_error(self):
        with pytest.raises(SingularMatrixError) as err:
            matrix_log(np.diag([1.0, 0.0]))
        assert "eigenvalue" in str(err.value)


class TestSpdMatrix:
    def test_rejects_indefinite(self):
        with pytest.raises(DataError):
            SpdMatrix(np.diag([1.0, -0.5]))

    def test_allows_semidefinite(self):
        m = SpdMatrix(np.diag([1.0, 0.0]))
        assert not m.is_strictly_pd

    def test_ridge_repair_makes_usable(self):
        repaired = ridge_repair(np.diag([1.0, 0.0]))
        assert repaired.is_strictly_pd
        matrix_log(repaired)

    def test_ridge_flag_in_distance(self):
        singular = np.diag([1.0, 0.0])
        with pytest.raises(SingularMatrixError):
            spd_distance("AIRM", singular, np.eye(2))
        spd_distance("AIRM", singular, np.eye(2), ridge=True)


class TestSpdDistances:
    def test_zero_at_identity_of_arguments(self):
        rng = np.random.default_rng(23)
        A = random_spd(rng, 3)
        for kind in ("Euc", "AIRM", "LERM"):
            assert spd_distance(kind, A, A) == pytest.approx(0.0, abs=1e-9)

    def test_airm_diagonal_closed_form(self):
        assert spd_distance("AIRM", np.diag([np.e, 1.0]), np.eye(2)) == pytest.approx(1.0)

    def test_lerm_diagonal_closed_form(self):
        d = spd_distance("LERM", np.diag([4.0, 1.0]), np.eye(2))
        assert d == pytest.approx(np.log(4.0))
        assert d == pytest.approx(np.linalg.norm(matrix_log(np.diag([4.0, 1.0]))))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spd_distance("Euc", np.eye(2), np.eye(3))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            spd_distance("Bures", np.eye(2), np.eye(2))

    def test_metric_axioms_random_triples(self):
        rng = np.random.default_rng(24)
        for kind in ("Euc", "AIRM", "LERM"):
            for _ in range(60):
                A, B, C = (random_spd(rng, 3) for _ in range(3))
                dab = spd_distance(kind, A, B)
                assert dab == pytest.approx(spd_distance(kind, B, A), rel=1e-10, abs=1e-12)
                assert dab <= spd_distance(kind, A, C) + spd_distance(kind, C, B) + 1e-10

    def test_airm_affine_invariance(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            A, B = random_spd(rng, 3), random_spd(rng, 3)
            M = rng.normal(size=(3, 3))
            while abs(np.linalg.det(M)) < 0.1:
                M = rng.normal(size=(3, 3))
            d1 = spd_distance("AIRM", A, B)
            d2 = spd_distance("AIRM", M @ A @ M.T, M @ B @ M.T)
            assert abs(d1 - d2) < 1e-8 * d1

    def test_lerm_equals_euclidean_of_logs(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            A, B = random_spd(rng, 4), random_spd(rng, 4)
            assert spd_distance("LERM", A, B) == np.linalg.norm(
                matrix_log(A) - matrix_log(B)
            )

    def test_commuting_matrices_lerm_equals_airm(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            e1 = rng.uniform(0.2, 5.0, size=3)
            e2 = rng.uniform(0.2, 5.0, size=3)
            A = (q * e1[None, :]) @ q.T
            B = (q * e2[None, :]) @ q.T
            d_lerm = spd_distance("LERM", A, B)
            d_airm = spd_distance("AIRM", A, B)
            assert abs(d_lerm - d_airm) < 1e-9 * max(1.0, d_airm)


class TestBatchedPrimitives:
    # the scalar helpers are views of these kernels, so they are checked
    # against scipy rather than against the scalar path
    def test_stack_matrix_log_matches_scipy_logm(self):
        rng = np.random.default_rng(28)
        mats = np.stack([random_spd(rng, 3) for _ in range(10)])
        logs, valid = stack_matrix_log(mats)
        assert valid.all()
        for i in range(10):
            assert np.allclose(logs[i], scipy.linalg.logm(mats[i]), atol=1e-10)

    def test_stack_airm_matches_scipy_oracle(self):
        rng = np.random.default_rng(29)
        A = np.stack([random_spd(rng, 3) for _ in range(10)])
        B = np.stack([random_spd(rng, 3) for _ in range(10)])
        sq, valid = stack_airm_sq(A, B)
        assert valid.all()
        for i in range(10):
            assert np.sqrt(sq[i]) == pytest.approx(
                oracle_spd_distance("AIRM", A[i], B[i]), rel=1e-10
            )

    def test_stack_flags_singular_items(self):
        good = np.eye(2)
        bad = np.diag([1.0, 0.0])
        logs, valid = stack_matrix_log(np.stack([good, bad]))
        assert valid.tolist() == [True, False]
        sq, valid = stack_airm_sq(np.stack([good, bad]), np.stack([good, good]))
        assert valid.tolist() == [True, False]
