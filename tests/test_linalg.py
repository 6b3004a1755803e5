import numpy as np
import pytest
from scipy.linalg import solve_triangular

from soilrct.errors import (DimensionError, InsufficientDataError,
                            SingularMatrixError)
from soilrct.linalg import (_back_substitute, hc2_least_squares,
                            least_squares, qr_factor)


def _random_system(rng, n, q):
    design = rng.standard_normal((n, q))
    design[:, 0] = 1.0
    response = rng.standard_normal(n)
    return design, response


def _oracle_systems():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(5, 60))
        q = int(rng.integers(1, min(6, n)))
        yield _random_system(rng, n, q)


def test_least_squares_matches_normal_equations_oracle():
    # independent oracle: solve (X'X) beta = X'y directly
    for design, response in _oracle_systems():
        oracle = np.linalg.solve(design.T @ design, design.T @ response)
        ours = least_squares(design, response)
        assert np.max(np.abs(ours - oracle)) < 1e-8


def test_least_squares_intercept_only_is_mean():
    design = np.ones((3, 1))
    response = np.array([1.0, 2.0, 3.0])
    assert least_squares(design, response) == pytest.approx([2.0])


def test_least_squares_exact_on_consistent_system():
    design = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    response = design @ np.array([0.5, -2.0])
    assert least_squares(design, response) == pytest.approx([0.5, -2.0])


def test_residuals_orthogonal_to_design():
    rng = np.random.default_rng(11)
    design, response = _random_system(rng, 40, 4)
    coeffs = least_squares(design, response)
    resid = response - design @ coeffs
    assert np.max(np.abs(design.T @ resid)) < 1e-8 * np.abs(response).max()


def test_rank_deficiency_names_offending_column():
    design = np.column_stack([np.ones(10), np.arange(10.0),
                              2.0 * np.arange(10.0)])
    with pytest.raises(SingularMatrixError) as exc:
        qr_factor(design)
    assert exc.value.column == 2


def test_zero_matrix_rejected():
    with pytest.raises(SingularMatrixError):
        qr_factor(np.zeros((4, 2)))


def test_underdetermined_rejected():
    with pytest.raises(InsufficientDataError):
        qr_factor(np.ones((2, 3)))


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        least_squares(np.ones((4, 2)), np.ones(5))


@pytest.mark.parametrize("q", range(1, 7))
def test_back_substitution_matches_lapack_to_round_off(q):
    # LAPACK's triangular solve as an oracle. Both solves are backward
    # stable, so each lies within about q eps cond(R) of the exact x and
    # they differ by at most twice that; the bound allows 4 q eps cond(R)
    # relative, in the max norm.
    rng = np.random.default_rng(100 + q)
    eps = np.finfo(np.float64).eps
    conds = []
    for _ in range(300):
        n = int(rng.integers(q, 300))
        scales = np.logspace(0.0, -rng.uniform(0.0, 4.0), q)
        _, rmat = qr_factor(rng.standard_normal((n, q)) * scales)
        cond = np.linalg.cond(rmat)
        conds.append(cond)
        for rhs in (rng.standard_normal(q), rng.standard_normal((q, n))):
            got = _back_substitute(rmat, rhs)
            want = solve_triangular(rmat, rhs)
            assert got.shape == want.shape
            tol = 4.0 * q * eps * cond * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= tol
    if q > 1:
        assert max(conds) > 1e3


def _lapack_fits(design, response):
    """`hc2_least_squares` as computed with LAPACK's triangular solve."""
    qmat, rmat = qr_factor(design)
    coeffs = solve_triangular(rmat, qmat.T @ response)
    resid = response - design @ coeffs
    leverage = np.einsum("ij,ij->i", qmat, qmat)
    a = solve_triangular(rmat, qmat.T)
    scaled = a * (resid / np.sqrt(np.clip(1.0 - leverage, 1e-12, None)))
    cov = scaled @ scaled.T
    return coeffs, resid, 0.5 * (cov + cov.T)


def test_fits_unchanged_from_lapack_solve():
    systems = list(_oracle_systems())
    systems.append(_random_system(np.random.default_rng(11), 40, 4))
    design = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 4.0]])
    systems.append((design, np.array([1.0, -0.5, 2.0, 0.25])))
    for design, response in systems:
        got = hc2_least_squares(design, response)
        assert least_squares(design, response).tobytes() == got[0].tobytes()
        for ours, want in zip(got, _lapack_fits(design, response)):
            assert np.max(np.abs(ours - want)) <= 1e-10 * np.max(np.abs(want))
