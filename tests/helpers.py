"""Shared builders for the test suite: random PD matrices, streams, rule bases."""

import numpy as np

from driftfis.fis import FuzzySystem, create_rule
from driftfis.linalg import regularized_inverse


def random_pd(rng, d, scale=1.0):
    """Random symmetric positive definite matrix with eigenvalues in ~[0.3, 1.3]*scale."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = scale * rng.uniform(0.3, 1.3, size=d)
    return q @ np.diag(eigs) @ q.T


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
    system.set_rows(system.rules, np.arange(system.n_rows + extra.n_rows),
                    extra=extra.stacks())


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
