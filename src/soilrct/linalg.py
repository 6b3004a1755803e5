"""Dense least-squares core.

All regression estimators in the package route through `least_squares`
or `hc2_least_squares`, which solve the problem by Householder QR rather
than normal equations: the QR route is backward stable and its triangular
factor exposes rank deficiency directly on the diagonal.
"""

import numpy as np

from .errors import DimensionError, InsufficientDataError, SingularMatrixError

#: Relative tolerance on the diagonal of R below which a column is
#: declared linearly dependent.
RANK_RTOL = 1e-10


def qr_factor(design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR factorization with a rank check.

    Raises SingularMatrixError naming the first offending column when a
    diagonal entry of R falls below RANK_RTOL relative to the largest.
    """
    design = np.asarray(design, dtype=np.float64)
    if design.ndim != 2:
        raise DimensionError(f"design must be 2-D, got shape {design.shape}")
    n, q = design.shape
    if n < q:
        raise InsufficientDataError(
            f"need at least as many rows as columns ({n} rows, {q} columns)")
    qmat, rmat = np.linalg.qr(design)
    diag = np.abs(np.diag(rmat))
    scale = diag.max(initial=0.0)
    if scale == 0.0:
        raise SingularMatrixError("design matrix is identically zero", column=0)
    bad = np.nonzero(diag <= RANK_RTOL * scale)[0]
    if bad.size:
        col = int(bad[0])
        raise SingularMatrixError(
            f"design matrix is rank deficient: column {col} is linearly "
            f"dependent on the preceding columns", column=col)
    return qmat, rmat


def _back_substitute(rmat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve R x = rhs for upper-triangular R by back substitution.

    `rhs` is a vector of length q or a (q, k) matrix; each row of x is
    found from the rows below it.  R comes from `qr_factor`, whose rank
    check keeps every diagonal entry away from zero.
    """
    x = np.array(rhs, dtype=np.float64)
    for i in range(rmat.shape[0] - 1, -1, -1):
        x[i] -= rmat[i, i + 1:] @ x[i + 1:]
        x[i] /= rmat[i, i]
    return x


def _solve(design: np.ndarray, response: np.ndarray) -> tuple:
    """Q, R, the float64 response and the coefficients of a QR solve."""
    response = np.asarray(response, dtype=np.float64)
    if response.ndim != 1 or response.shape[0] != np.shape(design)[0]:
        raise DimensionError(
            f"response shape {response.shape} does not match design "
            f"{np.shape(design)}")
    qmat, rmat = qr_factor(design)
    return qmat, rmat, response, _back_substitute(rmat, qmat.T @ response)


def least_squares(design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of `response` on the columns of `design`.

    Solved through the QR factorization of the design matrix; see
    `qr_factor` for the rank-deficiency diagnostics.
    """
    return _solve(design, response)[3]


def hc2_least_squares(design: np.ndarray, response: np.ndarray) -> tuple:
    """Least-squares coefficients, residuals and leverage-adjusted (HC2)
    sandwich covariance of the coefficients, from one QR factorization.

    Each squared residual is inflated by 1/(1 - h_i) where h_i is the
    hat-matrix diagonal, which removes the downward bias of the plain
    sandwich in small samples.  Leverages fall directly out of the QR
    factorization as squared row norms of Q.
    """
    qmat, rmat, response, coeffs = _solve(design, response)
    residuals = response - design @ coeffs
    leverage = np.einsum("ij,ij->i", qmat, qmat)
    # h_i = 1 exactly means the point is fit perfectly; its residual is 0
    denom = np.clip(1.0 - leverage, 1e-12, None)
    a = _back_substitute(rmat, qmat.T)
    scaled = a * (residuals / np.sqrt(denom))[np.newaxis, :]
    cov = scaled @ scaled.T
    return coeffs, residuals, 0.5 * (cov + cov.T)
