import numpy as np
import pytest

from soilrct.errors import (DimensionError, InsufficientDataError,
                            SingularMatrixError)
from soilrct.linalg import least_squares, qr_factor


def _random_system(rng, n, q):
    design = rng.standard_normal((n, q))
    design[:, 0] = 1.0
    response = rng.standard_normal(n)
    return design, response


def test_least_squares_matches_normal_equations_oracle():
    # independent oracle: solve (X'X) beta = X'y directly
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(5, 60))
        q = int(rng.integers(1, min(6, n)))
        design, response = _random_system(rng, n, q)
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

