"""Dense linear-algebra kernels for small covariance matrices.

Everything operates on float64 numpy arrays of side <= ~11 (feature count
plus bias term). Functions are pure: inputs are never mutated and outputs
are freshly allocated. The premises are inverted here, as
(sym(S) + r I)^-1 with a trace-scaled ridge r. The rank-one correlation
updates of the conclusions run in place on the stacks, as
FuzzySystem.wrls_step and FuzzySystem.downdate_rows; DOWNDATE_GUARD is
their guard.
"""

from __future__ import annotations

import numpy as np

# Guard on the rank-one removal denominator: removing a point that carries
# nearly all the information in some direction would blow the matrix up.
DOWNDATE_GUARD = 1e-8

# Relative ridge applied before covariance inversion, with an absolute floor
# so a fully collapsed covariance (forgetting horizon 1) stays invertible.
RIDGE_SCALE = 1e-6
RIDGE_FLOOR = 1e-12


_EYE_CACHE: dict[int, np.ndarray] = {}


def _eye(d: int) -> np.ndarray:
    out = _EYE_CACHE.get(d)
    if out is None:
        out = np.eye(d)
        out.setflags(write=False)
        _EYE_CACHE[d] = out
    return out


def _check_square(mat: np.ndarray, dim: int, name: str) -> None:
    if mat.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {mat.shape}")


def ellipsoid_radius_along(cov: np.ndarray, direction: np.ndarray) -> float:
    """Radius of the unit-level ellipsoid {z : z @ cov^-1 @ z = 1} along a unit vector.

    Equals 1/sqrt(u @ cov^-1 @ u). Raises ValueError if cov is not symmetric
    positive definite or the direction is not (close to) unit length.
    """
    _check_square(cov, direction.shape[0], "cov")
    norm_sq = float(direction @ direction)
    if abs(norm_sq - 1.0) > 1e-6:
        raise ValueError(f"direction must be unit length, |u|^2 = {norm_sq}")
    if not np.allclose(cov, cov.T, rtol=1e-8, atol=1e-12):
        raise ValueError("covariance must be symmetric")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance must be positive definite") from exc
    quad = float(direction @ np.linalg.solve(cov, direction))
    if quad <= 0.0:
        raise ValueError("covariance must be positive definite")
    return 1.0 / np.sqrt(quad)


def regularized_inverse(cov: np.ndarray) -> np.ndarray:
    """Invert a (near-)symmetric covariance after adding a small trace-scaled ridge.

    The ridge is RIDGE_SCALE * trace/d with an absolute RIDGE_FLOOR, which keeps
    the inverse well defined even when the covariance has collapsed.
    """
    d = cov.shape[0]
    ridge = max(RIDGE_SCALE * float(cov.trace()) / d, RIDGE_FLOOR)
    sym = 0.5 * (cov + cov.T)
    return np.linalg.inv(sym + ridge * _eye(d))


def regularized_inverse_stack(covs: np.ndarray) -> np.ndarray:
    """regularized_inverse applied over a stack of matrices in one call.

    Bitwise identical per slice to the single-matrix version: the batched
    trace, maximum, and inversion all reduce each slice independently with
    the same operations the scalar path performs. Batching amortizes the
    inversion overhead on the per-sample hot path.
    """
    d = covs.shape[-1]
    traces = np.trace(covs, axis1=-2, axis2=-1)
    ridges = np.maximum(RIDGE_SCALE * traces / d, RIDGE_FLOOR)
    sym = covs + np.swapaxes(covs, -1, -2)
    sym *= 0.5
    sym += ridges[..., None, None] * _eye(d)
    return np.linalg.inv(sym)
