"""Tests for symmetric eigendecomposition, matrix log, and SPD distances."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from metricmanova.errors import DataError, SingularMatrixError
from metricmanova.spd import (
    SPD_FLOOR_REL,
    SpdMatrix,
    _matrix_log_lapack,
    _symmetrized,
    matrix_exp_sym,
    matrix_log,
    ridge_repair,
    spd_distance,
    stack_airm_sq,
    stack_matrix_log,
    sym_eig,
)

from oracles import (
    oracle_airm_sq,
    oracle_airm_sq_2x2,
    oracle_eigvals_2x2,
    oracle_eigvals_sym,
    oracle_generalized_eigvals,
    oracle_generalized_eigvals_2x2,
    oracle_matrix_log,
    oracle_matrix_log_2x2,
    oracle_spd_distance,
    solve_airm_sq,
)


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

    def test_tolerances_scale_with_tiny_matrices(self):
        # the PSD and symmetry tolerances are relative to the matrix's own
        # magnitude, not to max(1, magnitude)
        with pytest.raises(DataError, match="semi-definite"):
            SpdMatrix(np.diag([1e-12, -1e-11]))
        with pytest.raises(ValueError, match="not symmetric"):
            SpdMatrix(np.array([[1e-12, 5e-11], [0.0, 1e-12]]))
        with pytest.raises(DataError, match="semi-definite"):
            SpdMatrix(-np.eye(2))
        tiny = 1e-12 * np.array([[2.0, 1.0 + 1e-15], [1.0, 2.0]])
        assert SpdMatrix(tiny).is_strictly_pd
        assert np.array_equal(SpdMatrix(tiny).entries, 0.5 * (tiny + tiny.T))
        assert not SpdMatrix(np.diag([1e-12, -1e-30])).is_strictly_pd

    def test_empty_matrix_is_named(self):
        # numpy's "zero-size array to reduction operation maximum" came out here
        with pytest.raises(DataError, match=r"^matrix is empty, got shape \(0, 0\)$"):
            SpdMatrix(np.zeros((0, 0)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_entries_near_the_largest_float_stay_finite(self):
        # 0.5 * (A + A.T) overflowed here, and the Euc distance read nan
        big = np.diag([1.7e308, 1.0])
        assert SpdMatrix(big).entries.tolist() == big.tolist()
        assert spd_distance("Euc", big, np.diag([1.7e308, 2.0])) == 1.0

    def test_symmetrized_is_the_mean_of_both_triangles(self):
        """Where 0.5 * (A + A.T) and the halves 0.5a, 0.5b are finite and
        normal, the one symmetric-matrix rule gives its bits: pairs that
        agree are kept and pairs that differ become 0.5a + 0.5b."""
        rng = np.random.default_rng(40)
        tiny = np.finfo(float).tiny
        for _ in range(2000):
            dim = int(rng.integers(2, 6))
            upper = rng.normal(size=(dim, dim)) * 10.0 ** rng.integers(-300, 307)
            A = upper + upper.T
            A = np.where(rng.random((dim, dim)) < 0.5, A, A * (1.0 + 4e-11 * rng.uniform(-1, 1)))
            want = 0.5 * (A + A.T)
            normal = [np.isfinite(x) & ((np.abs(x) >= 2 * tiny) | (x == 0)) for x in (want, A, A.T)]
            ok = normal[0] & normal[1] & normal[2]
            got = _symmetrized(A)
            assert np.array_equal(got, got.T)
            assert np.array_equal(got[ok], want[ok])
            assert np.array_equal(got[A == A.T], A[A == A.T])

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
    # against scipy rather than against the scalar path; the 3x3 stacks here
    # take the Jacobi kernels, the 2x2 closed forms are TestClosedForms2x2
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
        sq, valid = stack_airm_sq(A, B, a_ok=stack_matrix_log(A)[1])
        assert valid.all()
        for i in range(10):
            assert np.sqrt(sq[i]) == pytest.approx(
                oracle_spd_distance("AIRM", A[i], B[i]), rel=1e-10
            )

    def test_stack_flags_singular_items(self):
        good = np.eye(2)
        bad = np.diag([1.0, 0.0])
        logs, a_ok = stack_matrix_log(np.stack([good, bad]))
        assert a_ok.tolist() == [True, False]
        sq, valid = stack_airm_sq(np.stack([good, bad]), np.stack([good, good]), a_ok=a_ok)
        assert valid.tolist() == [True, False]


# -- 2x2 closed forms against a 50-digit oracle -------------------------------
#
# Each cell of the grid is a condition number of A, up to the strict-PD floor,
# crossed with a B: random, or A + delta*P for a random PSD P of A's scale,
# the R_mu case of a pooled against a weighted covariance.  A cell passes when
# the closed form's worst relative error against the oracle is at most
# 4 x LAPACK's + 1e-14.  Near A = B LAPACK's own error grows as eps/delta
# (about 1e-4 at delta = 1e-10), so the gate is relative to the oracle, not a
# fixed distance from LAPACK's results.

KAPPAS = (1.0, 1.0 + 1e-14, 1.0 + 1e-8, 2.0, 1e3, 1e6, 1e9, 1e11, "floor")
B_KINDS = ("random", 1e-2, 1e-6, 1e-10)
GRID_ITEMS = 64
_EPS = np.finfo(float).eps
# an item whose oracle eigenvalue ratio lies within this many eps (times the
# condition of A, for A^-1 B) of the floor may take either mask
_FLOOR_MARGIN = 16.0


def rotated(rng, eig):
    """(n, 2, 2) exactly symmetric matrices with eigenvalues ``eig`` (n, 2)
    and random eigenvectors."""
    t = rng.uniform(0.0, np.pi, len(eig))
    c, s = np.cos(t), np.sin(t)
    Q = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    M = (Q * eig[:, None, :]) @ np.swapaxes(Q, -1, -2)
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def grid_cell(kappa, b_kind, n=GRID_ITEMS):
    """(A, B) stacks of one grid cell, seeded by the cell.  A has a random
    scale e^(+-[1, 4]), which keeps |log A| away from 0; "floor" spreads the
    condition of A by 5% either side of 1/SPD_FLOOR_REL."""
    rng = np.random.default_rng([KAPPAS.index(kappa), B_KINDS.index(b_kind)])
    scale = np.exp(rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 4.0, n))
    if kappa == "floor":
        kappa = np.exp(rng.uniform(-0.05, 0.05, n)) / SPD_FLOOR_REL
    A = rotated(rng, scale[:, None] * np.stack([np.ones(n), 1.0 / np.broadcast_to(kappa, n)], -1))
    if b_kind == "random":
        B = rotated(rng, np.exp(rng.uniform(-5.0, 5.0, (n, 2))))
    else:
        B = A + b_kind * rotated(rng, scale[:, None] * rng.uniform(0.0, 1.0, (n, 2)))
    return A, B


def _floor_distance(l1, l2):
    return abs(l2 - SPD_FLOOR_REL * max(l1, 0.0)) / abs(l1)


def airm_cell_errors(A, B):
    """(closed-form worst error, LAPACK worst error, items compared, items
    whose masks differ away from the floor) of stack_airm_sq on one cell."""
    sq_c, ok_c = stack_airm_sq(A, B, a_ok=stack_matrix_log(A)[1])
    sq_l, ok_l = solve_airm_sq(A, B)
    worst_c = worst_l = 0.0
    compared = mask_diffs = 0
    for i in range(len(A)):
        la1, la2 = oracle_eigvals_2x2(A[i])
        near = _floor_distance(la1, la2) <= _FLOOR_MARGIN * _EPS
        if la2 > 0.0:
            mu1, mu2 = oracle_generalized_eigvals_2x2(A[i], B[i])
            near |= _floor_distance(mu1, mu2) <= _FLOOR_MARGIN * _EPS * la1 / la2
        if ok_c[i] != ok_l[i] and not near:
            mask_diffs += 1
        if ok_c[i] and ok_l[i]:
            want = oracle_airm_sq_2x2(A[i], B[i])
            worst_c = max(worst_c, abs(sq_c[i] - want) / want)
            worst_l = max(worst_l, abs(sq_l[i] - want) / want)
            compared += 1
    return worst_c, worst_l, compared, mask_diffs


def log_cell_errors(A):
    """``airm_cell_errors`` for stack_matrix_log, relative in the Frobenius norm."""
    logs_c, ok_c = stack_matrix_log(A)
    logs_l, ok_l = _matrix_log_lapack(A)
    worst_c = worst_l = 0.0
    compared = mask_diffs = 0
    for i in range(len(A)):
        l1, l2 = oracle_eigvals_2x2(A[i])
        if ok_c[i] != ok_l[i] and _floor_distance(l1, l2) > _FLOOR_MARGIN * _EPS:
            mask_diffs += 1
        if ok_c[i] and ok_l[i]:
            want = oracle_matrix_log_2x2(A[i])
            norm = np.linalg.norm(want)
            worst_c = max(worst_c, np.linalg.norm(logs_c[i] - want) / norm)
            worst_l = max(worst_l, np.linalg.norm(logs_l[i] - want) / norm)
            compared += 1
    return worst_c, worst_l, compared, mask_diffs


class TestClosedForms2x2:
    @pytest.mark.parametrize("b_kind", B_KINDS)
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_airm_within_lapack_error(self, kappa, b_kind):
        worst_c, worst_l, compared, mask_diffs = airm_cell_errors(*grid_cell(kappa, b_kind))
        assert compared > 0
        assert mask_diffs == 0
        assert worst_c <= 4.0 * worst_l + 1e-14

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_matrix_log_within_lapack_error(self, kappa):
        A, _ = grid_cell(kappa, "random")
        worst_c, worst_l, compared, mask_diffs = log_cell_errors(A)
        assert compared > 0
        assert mask_diffs == 0
        assert worst_c <= 4.0 * worst_l + 1e-14

    def test_near_equal_airm_beats_lapack(self):
        # near A = B the closed form takes log1p of the eigenvalues of
        # L^-1 (B - A) L^-T, where LAPACK's log(mu) keeps an error of eps
        worst_c, worst_l, _, _ = airm_cell_errors(*grid_cell(2.0, 1e-10))
        assert worst_c <= 1e-14 < worst_l

    def test_small_generalized_eigenvalue_from_determinants(self):
        # A and B of condition 1e3 with unrelated eigenvectors give A^-1 B a
        # condition near 1e6; its small eigenvalue from det(B)/det(A) keeps
        # full precision, where C's own determinant would cancel
        n = 64
        A = rotated(np.random.default_rng(1), np.stack([np.ones(n), np.full(n, 1e-3)], -1))
        B = rotated(np.random.default_rng(2), np.stack([np.ones(n), np.full(n, 1e-3)], -1))
        worst_c, worst_l, compared, _ = airm_cell_errors(A, B)
        assert compared == n
        assert worst_c <= 1e-13 < worst_l

    def test_bad_items_are_invalid_with_finite_placeholders(self):
        nan, inf = np.nan, np.inf
        bad = np.array([
            [[nan, 0.0], [0.0, 1.0]],
            [[1.0, nan], [nan, 1.0]],
            [[inf, 0.0], [0.0, 1.0]],
            [[-inf, 0.0], [0.0, 1.0]],
            [[inf, inf], [inf, inf]],
            [[1.0, 0.0], [0.0, 0.0]],  # singular
            [[1.0, 1.0], [1.0, 1.0]],  # singular, off-diagonal
            [[1.0, 0.0], [0.0, -1.0]],  # indefinite
            [[-1.0, 0.0], [0.0, -2.0]],  # negative definite
            [[0.0, 0.0], [0.0, 0.0]],
            [[1.0, 0.0], [0.0, 1e-13]],  # below the strict-PD floor
        ])
        good = np.broadcast_to(np.array([[2.0, 0.5], [0.5, 1.0]]), bad.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logs, ok_log = stack_matrix_log(bad)
            sq_ab, ok_ab = stack_airm_sq(bad, good, a_ok=ok_log)
            sq_ba, ok_ba = stack_airm_sq(good, bad, a_ok=stack_matrix_log(good)[1])
            sq_bb, ok_bb = stack_airm_sq(bad, bad, a_ok=ok_log)
        for ok in (ok_log, ok_ab, ok_ba, ok_bb):
            assert not ok.any()
        for values in (logs, sq_ab, sq_ba, sq_bb):
            assert np.isfinite(values).all()
        assert ok_log.tolist() == _matrix_log_lapack(bad)[1].tolist()


# -- the 3x3 kernels against a 50-digit oracle --------------------------------
#
# Three spaces write out A's Cholesky factor and its inverse entry by entry
# and take the eigenvalues of C = L^-1 B L^-T, and the logs, by batched
# Jacobi rotations.  The same grid as above, with A's middle eigenvalue drawn
# log-uniformly between its extremes, gates AIRM against the solve-based
# LAPACK kernel (``oracles.solve_airm_sq``) and the log against LAPACK's eigh
# (``spd._matrix_log_lapack``).  The reference eigenvalues and logs come from
# 50-digit Jacobi rotations (``oracles.oracle_airm_sq``, ``oracle_matrix_log``).


def rotated3(rng, eig):
    """(n, 3, 3) exactly symmetric matrices with eigenvalues ``eig`` (n, 3)
    and random orthonormal eigenvectors."""
    Q = np.linalg.qr(rng.normal(size=(len(eig), 3, 3)))[0]
    M = (Q * eig[:, None, :]) @ np.swapaxes(Q, -1, -2)
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def grid_cell3(kappa, b_kind, n=GRID_ITEMS):
    """(A, B) 3x3 stacks of one grid cell, seeded by the cell, as ``grid_cell``."""
    rng = np.random.default_rng([3, KAPPAS.index(kappa), B_KINDS.index(b_kind)])
    scale = np.exp(rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 4.0, n))
    if kappa == "floor":
        kappa = np.exp(rng.uniform(-0.05, 0.05, n)) / SPD_FLOOR_REL
    inv = 1.0 / np.broadcast_to(kappa, n)
    eig = np.stack([np.ones(n), inv ** rng.uniform(0.0, 1.0, n), inv], -1)
    A = rotated3(rng, scale[:, None] * eig)
    if b_kind == "random":
        B = rotated3(rng, np.exp(rng.uniform(-5.0, 5.0, (n, 3))))
    else:
        B = A + b_kind * rotated3(rng, scale[:, None] * rng.uniform(0.0, 1.0, (n, 3)))
    return A, B


def _near_floor(eigvals, margin):
    """Whether the oracle eigenvalues lie within ``margin`` of the floor test."""
    return _floor_distance(eigvals[0], eigvals[-1]) <= margin


def airm3_cell_errors(A, B, log=stack_matrix_log, airm=stack_airm_sq):
    """(worst error, solve-based worst error, items compared, items whose
    masks differ away from the floor) of ``airm``, by default stack_airm_sq,
    with A's floor test from ``log``."""
    sq_c, ok_c = airm(A, B, a_ok=log(A)[1])
    sq_l, ok_l = solve_airm_sq(A, B)
    worst_c = worst_l = 0.0
    compared = mask_diffs = 0
    for i in range(len(A)):
        la = oracle_eigvals_sym(A[i])
        near = _near_floor(la, _FLOOR_MARGIN * _EPS)
        if la[-1] > 0.0:
            mu = oracle_generalized_eigvals(A[i], B[i])
            near |= _near_floor(mu, _FLOOR_MARGIN * _EPS * la[0] / la[-1])
        if ok_c[i] != ok_l[i] and not near:
            mask_diffs += 1
        if ok_c[i] and ok_l[i]:
            want = oracle_airm_sq(A[i], B[i])
            worst_c = max(worst_c, abs(sq_c[i] - want) / want)
            worst_l = max(worst_l, abs(sq_l[i] - want) / want)
            compared += 1
    return worst_c, worst_l, compared, mask_diffs


def log3_cell_errors(stack):
    """``log_cell_errors`` for 3x3 stacks: the Jacobi log against eigh's."""
    logs_c, ok_c = stack_matrix_log(stack)
    logs_l, ok_l = _matrix_log_lapack(stack)
    worst_c = worst_l = 0.0
    compared = mask_diffs = 0
    for i in range(len(stack)):
        if ok_c[i] != ok_l[i] and not _near_floor(oracle_eigvals_sym(stack[i]), _FLOOR_MARGIN * _EPS):
            mask_diffs += 1
        if ok_c[i] and ok_l[i]:
            want = oracle_matrix_log(stack[i])
            norm = np.linalg.norm(want)
            worst_c = max(worst_c, np.linalg.norm(logs_c[i] - want) / norm)
            worst_l = max(worst_l, np.linalg.norm(logs_l[i] - want) / norm)
            compared += 1
    return worst_c, worst_l, compared, mask_diffs


def floor_items(rng, ratios, n):
    """(len(ratios) * n, 3, 3) matrices of random scale and eigenvectors whose
    smallest eigenvalue is ``ratio`` times the largest."""
    ratio = np.repeat(ratios, n)
    scale = np.exp(rng.uniform(-4.0, 4.0, ratio.size))
    eig = np.stack([np.ones(ratio.size), ratio ** rng.uniform(0.0, 1.0, ratio.size), ratio], -1)
    return rotated3(rng, scale[:, None] * eig)


# smallest over largest eigenvalue: below, at and above the strict-PD floor
FLOOR_RATIOS = SPD_FLOOR_REL * np.array([0.95, 1.0, 1.05])


class TestCholeskyInverse3x3:
    @pytest.mark.parametrize("b_kind", B_KINDS)
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_airm_within_solve_error(self, kappa, b_kind):
        worst_c, worst_l, compared, mask_diffs = airm3_cell_errors(*grid_cell3(kappa, b_kind))
        assert compared > 0
        assert mask_diffs == 0
        assert worst_c <= 4.0 * worst_l + 1e-14

    def _check_masks(self, masks, eigvals, margin):
        """Each mask agrees with the floor test on the oracle eigenvalues,
        except within ``margin`` of the floor; returns the items checked."""
        checked = 0
        for i, lam in enumerate(eigvals):
            if _near_floor(lam, margin):
                continue
            want = lam[-1] > SPD_FLOOR_REL * max(lam[0], 0.0)
            for mask in masks:
                assert mask[i] == want, (i, lam)
            checked += 1
        return checked

    @staticmethod
    def _congruent(A, G):
        """L G L^T, L the Cholesky factor of A: A^-1 B has G's eigenvalues."""
        chol = np.linalg.cholesky(A)
        B = chol @ G @ np.swapaxes(chol, -1, -2)
        return 0.5 * (B + np.swapaxes(B, -1, -2))

    def test_a_side_masks_follow_the_floor(self):
        # A^-1 B keeps a condition of at most 10, so A decides every mask
        rng = np.random.default_rng(7)
        A = floor_items(rng, FLOOR_RATIOS, 12)
        B = self._congruent(A, rotated3(rng, np.exp(rng.uniform(-1.15, 1.15, (len(A), 3)))))
        logs, ok_log = stack_matrix_log(A)
        sq, ok = stack_airm_sq(A, B, a_ok=ok_log)
        eigvals = [oracle_eigvals_sym(a) for a in A]
        checked = self._check_masks((ok_log, ok), eigvals, _FLOOR_MARGIN * _EPS)
        assert checked >= 24  # every item below and above the floor
        for values in (logs, sq):
            assert np.isfinite(values).all()

    def test_b_side_masks_follow_the_floor(self):
        # G's eigenvalues, those of A^-1 B, lie around the floor, and A's
        # condition is at most 10
        rng = np.random.default_rng(8)
        G = floor_items(rng, FLOOR_RATIOS, 12)
        A = rotated3(rng, np.exp(rng.uniform(-1.15, 1.15, (len(G), 3))))
        B = self._congruent(A, G)
        sq, ok = stack_airm_sq(A, B, a_ok=stack_matrix_log(A)[1])
        margin = _FLOOR_MARGIN * _EPS * 10.0
        eigvals = [oracle_generalized_eigvals(a, b) for a, b in zip(A, B)]
        checked = self._check_masks((ok,), eigvals, margin)
        assert checked >= 24
        # LERM's mask is each matrix's own floor test
        ok_log = stack_matrix_log(B)[1]
        checked = self._check_masks((ok_log,), [oracle_eigvals_sym(b) for b in B], _FLOOR_MARGIN * _EPS)
        assert checked >= 24
        assert np.isfinite(sq).all()


class TestJacobi3x3:
    @pytest.mark.parametrize("b_kind", B_KINDS)
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_matrix_log_within_eigh_error(self, kappa, b_kind):
        worst_c, worst_l, compared, mask_diffs = log3_cell_errors(
            np.concatenate(grid_cell3(kappa, b_kind))
        )
        assert compared > 0
        assert mask_diffs == 0
        assert worst_c <= 4.0 * worst_l + 1e-14

    GOOD = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])

    @staticmethod
    def _bad_items():
        nan, inf = np.nan, np.inf
        tri = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        items = [
            np.diag([nan, 1.0, 1.0]),
            [[1.0, nan, 0.0], [nan, 1.0, 0.0], [0.0, 0.0, 1.0]],
            np.diag([inf, 1.0, 1.0]),
            np.diag([-inf, 1.0, 1.0]),
            np.full((3, 3), inf),
            [[1.0, inf, 0.0], [inf, 1.0, 0.0], [0.0, 0.0, 1.0]],
            np.zeros((3, 3)),
            np.diag([1.0, 1.0, 0.0]),  # singular
            np.ones((3, 3)),  # singular, eigenvalues 3, 0, 0
            np.diag([1.0, -1.0, 1.0]),  # indefinite
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],  # indefinite, zero diagonal
            -np.eye(3),  # negative definite
            np.diag([1.0, 1.0, 1e-13]),  # below the strict-PD floor
            np.eye(3),  # theta = 0/0 in every rotation
            np.diag([3.0, 2.0, 1.0]),
            [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]],  # eigenvalues 4, 1, 1
            [[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 3.0]],  # eigenvalues 3, 3, 1
            1e300 * tri,
            1e-300 * tri,
            np.diag([1e300, 1.0, 1e-300]),  # below the floor
        ]
        return np.array(items, dtype=float)

    @staticmethod
    def _floor(eigvals):
        return eigvals[-1] > SPD_FLOOR_REL * max(eigvals[0], 0.0)

    def test_items_do_not_depend_on_the_stack(self):
        # an item stops rotating once its own off-diagonal entries are
        # negligible, so alone it gives the bits it gives in any stack
        A, B = grid_cell3(1e3, "random")
        bad = self._bad_items()
        A = np.concatenate([A, bad])
        B = np.concatenate([B, np.broadcast_to(self.GOOD, bad.shape)])
        logs, ok = stack_matrix_log(A)
        sq, ok_sq = stack_airm_sq(A, B, a_ok=ok)
        for i in range(len(A)):
            logs_i, ok_i = stack_matrix_log(A[i:i + 1])
            sq_i, ok_sq_i = stack_airm_sq(A[i:i + 1], B[i:i + 1], a_ok=ok_i)
            assert np.array_equal(logs_i[0], logs[i]) and ok_i[0] == ok[i], i
            assert sq_i[0] == sq[i] and ok_sq_i[0] == ok_sq[i], i

    def test_bad_items_are_invalid_with_finite_placeholders(self):
        """Each mask is the floor test on the oracle's eigenvalues (False for
        a non-finite item), every placeholder is finite, and nothing warns."""
        bad = self._bad_items()
        good = np.broadcast_to(self.GOOD, bad.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logs, ok_log = stack_matrix_log(bad)
            sq_ab, ok_ab = stack_airm_sq(bad, good, a_ok=ok_log)
            sq_ba, ok_ba = stack_airm_sq(good, bad, a_ok=stack_matrix_log(good)[1])
            sq_bb, ok_bb = stack_airm_sq(bad, bad, a_ok=ok_log)
        finite = np.isfinite(bad).all(axis=(1, 2))
        want_log = [f and self._floor(oracle_eigvals_sym(m)) for f, m in zip(finite, bad)]
        assert ok_log.tolist() == want_log
        assert 0 < sum(want_log) < len(bad)

        def want_airm(a_side, A, B):  # ``finite`` is that of the bad side
            return [
                w and f and self._floor(oracle_generalized_eigvals(a, b))
                for w, f, a, b in zip(a_side, finite, A, B)
            ]

        assert ok_ab.tolist() == want_airm(want_log, bad, good)
        assert ok_ba.tolist() == want_airm([True] * len(bad), good, bad)
        assert ok_bb.tolist() == want_log  # A^-1 A = I
        for values in (logs, sq_ab, sq_ba, sq_bb):
            assert np.isfinite(values).all()


# -- one strict-PD decision per matrix ----------------------------------------
#
# The scalar API reads the stack kernels' masks, so near the floor, where
# LAPACK's eigh and the 2x2 closed form can round to opposite sides, every
# scalar call still agrees with the kernel's decision on the same matrix.

NEAR_FLOOR_RATIOS = SPD_FLOOR_REL * np.exp(np.linspace(-1e-3, 1e-3, 7))


def _raises_singular(fn, *args):
    """Whether ``fn(*args)`` raises SingularMatrixError, and its message."""
    try:
        fn(*args)
    except SingularMatrixError as err:
        return True, str(err)
    return False, ""


def near_floor_2x2(n):
    """(n, 2, 2) matrices of random scale and eigenvectors whose eigenvalue
    ratio lies within 0.1% of the floor."""
    rng = np.random.default_rng(2026)
    ratio = SPD_FLOOR_REL * np.exp(rng.uniform(-1e-3, 1e-3, n))
    scale = np.exp(rng.uniform(-4.0, 4.0, n))
    return rotated(rng, scale[:, None] * np.stack([np.ones(n), ratio], -1))


class TestOneDecisionPerMatrix:
    # LAPACK puts this matrix's small eigenvalue at 1.0000056e-12, just above
    # the floor, and the closed form just below; matrix_log used to return
    # the zero placeholder and the LERM distance to I read 0.0
    FOUND = np.array([
        [0.6374277219207505, -0.48074278075423066],
        [-0.48074278075423066, 0.36257227808024944],
    ])

    def test_found_matrix_raises_everywhere(self):
        assert not stack_matrix_log(self.FOUND[None])[1][0]
        assert not SpdMatrix(self.FOUND).is_strictly_pd
        with pytest.raises(SingularMatrixError, match="matrix_log"):
            matrix_log(self.FOUND)
        for kind in ("LERM", "AIRM"):
            with pytest.raises(SingularMatrixError, match=f"{kind} first argument"):
                spd_distance(kind, self.FOUND, np.eye(2))
            with pytest.raises(SingularMatrixError, match=f"{kind} second argument"):
                spd_distance(kind, np.eye(2), self.FOUND)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_scalar_calls_read_the_kernel_mask(self, dim):
        if dim == 2:
            A = near_floor_2x2(4000)
        else:
            A = floor_items(np.random.default_rng(11), NEAR_FLOOR_RATIOS, 100)
        mask = stack_matrix_log(A)[1]
        assert mask.any() and not mask.all()
        eye = np.eye(dim)
        for a, ok in zip(A, mask):
            assert SpdMatrix(a).is_strictly_pd == ok
            assert _raises_singular(matrix_log, a)[0] == (not ok)
            for kind in ("LERM", "AIRM"):
                raised, message = _raises_singular(spd_distance, kind, a, eye)
                # with B = I, A^-1 B shares A's ratio, so a valid A may still
                # fail AIRM's generalized test; the A side names A alone
                assert ("first argument" in message) == (not ok)
                if kind == "LERM":
                    assert raised == (not ok)
