"""Shared builders for the test suite: random PD matrices, streams, rule
bases, and the oracles the stacked kernels are checked against (single-
matrix forms, and the conclusion kernels with broadcast rank-one terms)."""

import numpy as np

from driftfis.fis import FuzzySystem, create_rule
from driftfis.linalg import DOWNDATE_GUARD, RIDGE_FLOOR, RIDGE_SCALE


def _check_square(mat, dim, name):
    if mat.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {mat.shape}")


def ellipsoid_radius_along(cov, direction):
    """Oracle: radius of the unit-level ellipsoid {z : z @ cov^-1 @ z = 1}
    along a unit vector.

    Equals 1/sqrt(u @ cov^-1 @ u), by a linear solve rather than a cached
    inverse. Raises ValueError if cov is not symmetric positive definite or
    the direction is not (close to) unit length.
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


def regularized_inverse(cov):
    """Oracle: one (near-)symmetric covariance, symmetrized, plus the
    trace-scaled ridge of regularized_inverse_stack, inverted on its own."""
    d = cov.shape[0]
    ridge = max(RIDGE_SCALE * float(cov.trace()) / d, RIDGE_FLOOR)
    sym = 0.5 * (cov + cov.T)
    return np.linalg.inv(sym + ridge * np.eye(d))


def random_pd(rng, d, scale=1.0):
    """Random symmetric positive definite matrix with eigenvalues in ~[0.3, 1.3]*scale.

    Symmetric bit for bit, like every covariance the model builds: the
    product q diag q' is symmetric only to rounding, so it is averaged with
    its transpose (a sum that commutes exactly).
    """
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = scale * rng.uniform(0.3, 1.3, size=d)
    m = q @ np.diag(eigs) @ q.T
    return 0.5 * (m + m.T)


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    # fix signs so the factorization is unique-ish; any orthogonal q works here
    return q * np.sign(np.diag(r))


def gaussian_stream(rng, n, centers, sigma=0.5, labels=None):
    """Class-conditional spherical Gaussians, one center per class, shuffled order."""
    centers = np.asarray(centers, dtype=float)
    c, d = centers.shape
    y = rng.integers(0, c, size=n) if labels is None else np.asarray(labels)
    X = centers[y] + rng.normal(0.0, sigma, size=(n, d))
    return X, y


def random_system(rng, n_rules, d, c, omega=100.0, spread=3.0):
    """Rule base with random centers/PD covariances and random consequent coefficients."""
    rules = []
    for i in range(n_rules):
        rule = create_rule(
            x=rng.uniform(-spread, spread, size=d),
            label=int(rng.integers(0, c)),
            sigma_init=1.0,
            omega=omega,
            n_classes=c,
            rule_id=i,
        )
        cov = random_pd(rng, d)
        rule.premise.cov[:] = cov
        rule.premise.cov_inv[:] = regularized_inverse(cov)
        rule.consequent.coeffs[:] = rng.standard_normal((d + 1, c))
        rules.append(rule)
    return FuzzySystem(n_features=d, n_classes=c, rules=rules)


def attach_rows(system, rules):
    """Append the rows of ``rules`` to ``system`` as auxiliary rows."""
    extra = FuzzySystem(system.n_features, system.n_classes, rules)
    system.set_rows(system.ids, system.born_classes,
                    np.arange(system.n_rows + extra.n_rows), extra=extra.stacks())


def blank_system(d, c, omegas):
    """One row per omega: a unit premise at the origin, zero coefficients
    and an omega * I correlation."""
    rules = [create_rule(np.zeros(d), 0, 1.0, float(omega), c, rule_id=i)
             for i, omega in enumerate(omegas)]
    return FuzzySystem(d, c, rules)


def advance_row(system, row, x, horizon=None):
    """advance_premises on one row, every other row at alpha 0, counting
    the row's hit as the learner does: alpha = 1/min(hits, horizon)."""
    system.hits[row] += 1
    hits = int(system.hits[row])
    alphas = np.zeros((system.n_rows, 1))
    alphas[row, 0] = 1.0 / (hits if horizon is None else min(hits, horizon))
    system.advance_premises(x, alphas, np.array([row], dtype=np.intp))


def entries(window):
    """A window's (sample, weight) pairs, oldest first."""
    xs, ws = window.ordered()
    return list(zip(xs, ws.tolist()))


# The conclusion kernels with broadcast rank-one terms. The kernels build
# those terms by einsum, which must give the same bits on every stack free
# of -0.0 correlation and coefficient entries.

def wrls_broadcast(corrs, coeffs, x_aug, weights, target, rows=None):
    """Oracle: FuzzySystem.wrls_step with broadcast outer products, in
    place on the (n, k, k)/(n, k, c) stacks; ``rows`` lists the rows that
    ``weights`` lines up with, every row by default."""
    if rows is not None:
        sub_r, sub_c = corrs[rows], coeffs[rows]
        wrls_broadcast(sub_r, sub_c, x_aug, weights, target)
        corrs[rows], coeffs[rows] = sub_r, sub_c
        return
    u = corrs @ x_aug
    s = np.einsum("nk,k->n", u, x_aug)
    f = weights / (1.0 + weights * s)
    outer = u[:, :, None] * u[:, None, :]
    outer *= f[:, None, None]
    corrs -= outer
    resid = target - x_aug @ coeffs
    gains = corrs @ x_aug
    outer = gains[:, :, None] * resid[:, None, :]
    outer *= weights[:, None, None]
    coeffs += outer


def downdate_rows_broadcast(stack, xs, weights, start=0):
    """Oracle: FuzzySystem.downdate_rows with a broadcast u u', in place on
    rows ``start`` to ``start + len(xs) - 1`` of the correlation stack;
    returns the per-row success mask."""
    corrs = stack[start:start + xs.shape[0]]
    u = np.matmul(corrs, xs[:, :, None])
    s = np.matmul(xs[:, None, :], u)[:, 0, 0]
    denom = 1.0 - weights * s
    ok = ~(np.abs(denom) < DOWNDATE_GUARD)
    keep = np.flatnonzero(ok)
    u = u[keep, :, 0]
    tmp = u[:, :, None] * u[:, None, :]
    tmp *= (weights[keep] / denom[keep])[:, None, None]
    corrs[keep] += tmp
    return ok


def downdate_pair_broadcast(stack, row, x_aug, weights):
    """Oracle: FuzzySystem.downdate_row_pair with broadcast u u' terms, in
    place on the correlation stack; returns the two success flags."""
    corr2 = stack[row:row + 2]
    u = corr2 @ x_aug
    s = u @ x_aug
    denom = 1.0 - weights * s
    ok0 = abs(float(denom[0])) >= DOWNDATE_GUARD
    ok1 = abs(float(denom[1])) >= DOWNDATE_GUARD
    if ok0 and ok1:
        corr2 += (weights / denom)[:, None, None] * (u[:, :, None] * u[:, None, :])
    elif ok0 or ok1:
        i = 0 if ok0 else 1
        corr2[i] += (float(weights[i]) / float(denom[i])) * (u[i][:, None] * u[i])
    return ok0, ok1


def has_negative_zero(arr):
    """Whether ``arr`` holds a -0.0 entry."""
    return bool(np.signbit(arr[arr == 0.0]).any())
