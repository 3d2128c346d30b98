"""Dense linear-algebra kernels for small covariance matrices.

Everything operates on float64 numpy arrays of side <= ~11 (feature count
plus bias term). Every premise is inverted here, at birth and after each
update, by one kernel: regularized_inverse_stack, (S + r I)^-1 with a
trace-scaled ridge r for each exactly symmetric matrix S of a stack. The
rank-one correlation updates of the conclusions run in place on the
stacks, as FuzzySystem.wrls_step and FuzzySystem.downdate_rows;
DOWNDATE_GUARD is their guard.

The inversion skips np.linalg.inv's Python wrapper: _inv calls the gufunc
behind it, numpy.linalg._umath_linalg.inv with signature 'd->d', under the
same errstate (a singular slice raises LinAlgError), which is exactly what
np.linalg.inv runs for a float64 stack. Should a numpy release move those
private names, _inv falls back to np.linalg.inv at import time.
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


try:
    from numpy.linalg import _umath_linalg
    from numpy.linalg._linalg import _raise_linalgerror_singular
    _umath_inv = _umath_linalg.inv
except (ImportError, AttributeError):
    _inv = np.linalg.inv
else:
    def _inv(a: np.ndarray) -> np.ndarray:
        """np.linalg.inv of a float64 stack, without its wrapper. An
        errstate cannot be entered twice, so each call builds its own."""
        with np.errstate(call=_raise_linalgerror_singular, invalid="call",
                         over="ignore", divide="ignore", under="ignore"):
            return _umath_inv(a, signature="d->d")


_EYE_CACHE: dict[int, np.ndarray] = {}


def _eye(d: int) -> np.ndarray:
    out = _EYE_CACHE.get(d)
    if out is None:
        out = np.eye(d)
        out.setflags(write=False)
        _EYE_CACHE[d] = out
    return out


def regularized_inverse_stack(covs: np.ndarray) -> np.ndarray:
    """(S + r I)^-1 for each matrix S of a stack (a fresh array).

    The ridge r is RIDGE_SCALE * trace(S)/d with an absolute RIDGE_FLOOR,
    which keeps the inverse well defined even when a covariance has
    collapsed. Precondition: every slice is exactly symmetric, bit for
    bit. The covariance stacks are by construction (each update adds a
    scaled outer product x x', whose entries commute; a birth's is
    sigma^2 I), and the snapshot loader rejects any other, so no
    symmetrization is needed. The trace, maximum and inversion reduce each
    slice independently, so a slice's result does not depend on the
    others in the stack. Batching amortizes the inversion overhead on the
    per-sample hot path.
    """
    d = covs.shape[-1]
    ridges = np.maximum(RIDGE_SCALE * covs.trace(axis1=-2, axis2=-1) / d,
                        RIDGE_FLOOR)
    # r I + S in one temporary; addition commutes exactly
    reg = ridges[..., None, None] * _eye(d)
    reg += covs
    return _inv(reg)
