"""Takagi-Sugeno fuzzy inference core.

A rule pairs an elliptical cluster premise (center + covariance, Cauchy
membership over the Mahalanobis distance) with a first-order polynomial
consequent per class, learned by weighted recursive least squares (WRLS).

The rule base itself evolves elsewhere; this module knows how to evaluate
and adapt rules and how to aggregate a base. FuzzySystem keeps every
premise and consequent in stacked arrays so the per-sample work is a fixed
number of batched array operations regardless of the rule count; the
dataclass fields of the rules it holds are views into those stacks. The
module-level functions (membership, update_premise, wrls_update) are the
single-rule reference semantics. advance_premises reproduces
update_premise bitwise row for row; the membership and WRLS paths match
their references to dot-product rounding. What every batched operation
does guarantee exactly is stack independence: a row's result is bitwise
identical no matter which other rows share the stack, so attaching
auxiliary rows can never perturb the principal ones, and an operation may
gather just the rows that carry weight (advance_premises, wrls_step and
downdate_rows take a row index, memberships_all a leading-row bound)
without changing any row's result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DOWNDATE_GUARD,
    mahalanobis_sq,
    regularized_inverse,
    regularized_inverse_stack,
)


class EmptySystemError(ValueError):
    """Prediction was requested from a rule base with no rules."""


class NonFiniteInputError(ValueError):
    """A sample has a NaN or infinite feature, or lies so far from every
    rule that the distances overflow and all memberships vanish."""


def augment(x: np.ndarray) -> np.ndarray:
    """Prepend the constant 1 so affine consequents become a single matmul."""
    out = np.empty(x.shape[0] + 1)
    out[0] = 1.0
    out[1:] = x
    return out


def one_hot(label: int, n_classes: int) -> np.ndarray:
    out = np.zeros(n_classes)
    out[label] = 1.0
    return out


@dataclass
class Premise:
    """Cluster antecedent: center, covariance, cached regularized inverse.

    ``hits`` counts the samples that most-activated the rule (including the
    founding sample). ``horizon`` caps the effective sample count in the
    fading factor; None means no forgetting.
    """

    center: np.ndarray
    cov: np.ndarray
    cov_inv: np.ndarray
    hits: int
    horizon: int | None = None


@dataclass
class Consequent:
    """Per-class affine coefficients plus the WRLS correlation matrix."""

    coeffs: np.ndarray  # (d+1, n_classes)
    corr: np.ndarray    # (d+1, d+1), starts at omega * I
    omega: float

    def copy(self) -> "Consequent":
        return Consequent(self.coeffs.copy(), self.corr.copy(), self.omega)


@dataclass
class Rule:
    id: int
    premise: Premise
    consequent: Consequent
    window: "object" = None  # DDFWindow when conclusion forgetting is tracked
    born_class: int | None = None


def membership(premise: Premise, x: np.ndarray) -> float:
    """Cauchy membership 1/(1 + squared Mahalanobis distance); 1 iff x == center."""
    return 1.0 / (1.0 + mahalanobis_sq(x, premise.center, premise.cov_inv))


def update_premise(premise: Premise, x: np.ndarray, refresh: bool = True) -> None:
    """Fold one sample into the center/covariance with the fading recursion.

    The blend weight is 1/min(hits, horizon) after counting the new sample,
    so an unbounded horizon reproduces the running mean exactly. The
    covariance residual uses the already-updated center. With
    ``refresh=False`` the cached inverse is left stale for the caller to
    rebuild. Rebinds the arrays; for premises owned by a FuzzySystem use
    FuzzySystem.advance_premises instead, which updates the stacks in place.
    """
    premise.hits += 1
    t = premise.hits if premise.horizon is None else min(premise.hits, premise.horizon)
    alpha = 1.0 / t
    center = (1.0 - alpha) * premise.center + alpha * x
    premise.center = center
    resid = x - center
    premise.cov = (1.0 - alpha) * premise.cov + alpha * (resid[:, None] * resid)
    if refresh:
        premise.cov_inv = regularized_inverse(premise.cov)


def wrls_update(con: Consequent, x_aug: np.ndarray, weight: float, target: np.ndarray) -> None:
    """One weighted recursive least squares step on all class columns jointly.

    Shrinks the correlation matrix by the weighted rank-one increment, then
    moves the coefficients along the updated gain toward the one-hot target.
    Zero weight is an exact no-op. Mutates the arrays in place.
    """
    if weight == 0.0:
        return
    corr = con.corr
    u = corr @ x_aug
    s = float(x_aug @ u)
    corr -= (weight / (1.0 + weight * s)) * (u[:, None] * u)
    resid = target - x_aug @ con.coeffs
    gain = corr @ x_aug
    con.coeffs += weight * (gain[:, None] * resid)


def create_rule(
    x: np.ndarray,
    label: int,
    sigma_init: float,
    omega: float,
    n_classes: int,
    rule_id: int,
    horizon: int | None = None,
    window: "object" = None,
) -> Rule:
    """Seed a rule at a sample: unit-scaled spherical premise, blank consequent."""
    d = x.shape[0]
    cov = (sigma_init ** 2) * np.eye(d)
    premise = Premise(
        center=x.copy(),
        cov=cov,
        cov_inv=regularized_inverse(cov),
        hits=1,
        horizon=horizon,
    )
    consequent = Consequent(
        coeffs=np.zeros((d + 1, n_classes)),
        corr=omega * np.eye(d + 1),
        omega=omega,
    )
    return Rule(id=rule_id, premise=premise, consequent=consequent,
                window=window, born_class=label)


class FuzzySystem:
    """An ordered rule base over a fixed feature/class signature.

    Premises and consequents live in stacked arrays; the Premise/Consequent
    objects of the rules hold row views into them, so reading a rule is
    natural while updates run as one batched operation over every row.

    A caller may also attach auxiliary (premise, consequent) rows behind
    the principal rules. They live in the same stacks but take no part in
    prediction: memberships, predict_scores and predict_class read only
    the leading principal rows and never evaluate an auxiliary one. The
    anticipation learner uses them for its shadow sub-rule pairs. The
    updates either run over the whole stack, where a zero weight leaves a
    row unchanged, or gather only the listed rows; both give each row the
    same bits, so attaching auxiliary rows never alters what the principal
    rows compute.

    Treat ``rules`` as read-only; structural changes must go through
    add_rule/set_rows so the stacks stay in sync.
    """

    def __init__(self, n_features: int, n_classes: int,
                 rules: list[Rule] | None = None):
        self.n_features = n_features
        self.n_classes = n_classes
        self._rules: list[Rule] = []
        self._aux: list[tuple[Premise, Consequent]] = []
        self.set_rows(list(rules) if rules else [])

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def rules(self) -> list[Rule]:
        return self._rules

    @property
    def n_aux(self) -> int:
        return len(self._aux)

    @property
    def n_rows(self) -> int:
        return len(self._rules) + len(self._aux)

    def set_rows(self, rules: list[Rule],
                 aux: list[tuple[Premise, Consequent]] | None = None) -> None:
        """Repack all rule/auxiliary arrays into fresh stacks and rebind views.

        ``aux`` defaults to keeping the currently attached auxiliary rows.
        Every premise/consequent object passed in ends up holding views
        into the new stacks (their previous arrays are copied first, so
        objects may arrive holding standalone arrays or stale views).
        """
        if aux is None:
            aux = self._aux
        d = self.n_features
        k = d + 1
        c = self.n_classes
        entries = [(r.premise, r.consequent) for r in rules] + list(aux)
        n = len(entries)
        centers = np.empty((n, d))
        covs = np.empty((n, d, d))
        invs = np.empty((n, d, d))
        corrs = np.empty((n, k, k))
        coeffs = np.empty((n, k, c))
        for i, (premise, con) in enumerate(entries):
            centers[i] = premise.center
            covs[i] = premise.cov
            invs[i] = premise.cov_inv
            corrs[i] = con.corr
            coeffs[i] = con.coeffs
            premise.center = centers[i]
            premise.cov = covs[i]
            premise.cov_inv = invs[i]
            con.corr = corrs[i]
            con.coeffs = coeffs[i]
        self._centers = centers
        self._covs = covs
        self._invs = invs
        self._corrs = corrs
        self._coeffs = coeffs
        self._rules = list(rules)
        self._aux = list(aux)

    def add_rule(self, rule: Rule) -> None:
        self.set_rows(self._rules + [rule])

    # -- evaluation ----------------------------------------------------

    def memberships_all(self, x: np.ndarray, stop: int | None = None) -> np.ndarray:
        """Raw membership of x in the stacked rows (principal then auxiliary).

        ``stop`` bounds the evaluation to the leading ``stop`` rows; by
        default every row is evaluated. The einsum is row-local, so a
        bounded call returns exactly the leading entries of the full one.
        """
        centers, invs = self._centers, self._invs
        if stop is not None:  # unbounded calls (learn_one) build no views
            centers, invs = centers[:stop], invs[:stop]
        diffs = x - centers
        quad = np.einsum("nd,nde,ne->n", diffs, invs, diffs)
        return 1.0 / (1.0 + quad)

    def memberships(self, x: np.ndarray) -> np.ndarray:
        """Raw membership of x in every rule, in rule order.

        Only the principal rows are evaluated; the auxiliary rows take no
        part in prediction.
        """
        if not self._rules:
            raise EmptySystemError("rule base is empty")
        return self.memberships_all(x, len(self._rules))

    def normalized_memberships(self, x: np.ndarray) -> np.ndarray:
        """Memberships rescaled to sum to one (all entries are positive)."""
        betas = self.memberships(x)
        return betas / betas.sum()

    def scores_from_memberships(self, betas: np.ndarray, x_aug: np.ndarray,
                                total: float | None = None) -> np.ndarray:
        """Class scores given precomputed raw rule memberships.

        ``total`` may pass in an already-computed betas.sum().
        """
        weights = betas / (betas.sum() if total is None else total)
        partial = x_aug @ self._coeffs[:len(self._rules)]  # (n, c)
        return weights @ partial

    def predict_scores(self, x: np.ndarray) -> np.ndarray:
        """Membership-weighted mixture of the per-rule affine class outputs.

        Raises NonFiniteInputError when the membership sum is not finite
        and positive: a NaN or infinite feature, or a sample whose
        distances overflow, would otherwise score NaN for every class.
        """
        betas = self.memberships(x)
        total = float(betas.sum())
        if not 0.0 < total < math.inf:
            raise NonFiniteInputError(
                f"sample {x.tolist()} has no finite positive membership sum "
                f"({total!r}); a feature is not finite or its distances overflow")
        return self.scores_from_memberships(betas, augment(x), total)

    def predict_class(self, x: np.ndarray) -> int:
        """Argmax class; ties resolve to the lowest class index."""
        return int(np.argmax(self.predict_scores(x)))

    # -- adaptation ----------------------------------------------------

    def advance_premises(self, x: np.ndarray, alphas: np.ndarray,
                         rows: np.ndarray | None = None) -> None:
        """Fading premise update of every row with its own blend weight.

        ``alphas`` has shape (n_rows, 1); a zero entry leaves that row's
        center and covariance unchanged. Each nonzero row matches
        update_premise bitwise. ``rows`` (a distinct-integer array) may
        list the nonzero-alpha rows; large stacks then blend and re-invert
        only those rows. Either way each row's result is the same bit for
        bit: the arithmetic is row-local, and a zero-alpha blend reproduces
        the stored values. Caller maintains hit counts.
        """
        centers = self._centers
        covs = self._covs
        if rows is None or covs.shape[0] <= 4 * rows.shape[0]:
            np.multiply(centers, 1.0 - alphas, out=centers)
            centers += alphas * x
            resids = x - centers
            a3 = alphas[:, :, None]
            np.multiply(covs, 1.0 - a3, out=covs)
            covs += a3 * (resids[:, :, None] * resids[:, None, :])
            self._invs[:] = regularized_inverse_stack(covs)
        else:
            a = alphas[rows]
            sub_c = centers[rows]
            np.multiply(sub_c, 1.0 - a, out=sub_c)
            sub_c += a * x
            centers[rows] = sub_c
            resids = x - sub_c
            a3 = a[:, :, None]
            sub_v = covs[rows]
            np.multiply(sub_v, 1.0 - a3, out=sub_v)
            sub_v += a3 * (resids[:, :, None] * resids[:, None, :])
            covs[rows] = sub_v
            self._invs[rows] = regularized_inverse_stack(sub_v)

    def quadratic_form_pair(self, row: int, vec: np.ndarray) -> np.ndarray:
        """vec @ cov_inv @ vec for stacked rows (row, row+1), as a length-2 array."""
        return np.einsum("d,nde,e->n", vec, self._invs[row:row + 2], vec)

    def wrls_step(self, x_aug: np.ndarray, weights: np.ndarray,
                  target: np.ndarray, rows: np.ndarray | None = None) -> None:
        """One WRLS step on stacked consequents with per-row weights.

        Each row follows wrls_update with that row's weight (equal to
        dot-product rounding, and independent of the other rows in the
        stack); weight 0 degenerates to a no-op exactly. Without ``rows``
        every stacked row steps and ``weights`` has shape (n_rows,). With
        ``rows`` (a distinct-integer array) ``weights`` lines up with
        ``rows`` and every other row keeps its values. Large stacks then
        gather, step and scatter back only the listed rows; small ones step
        every row, the others with weight 0. A row's result is the same bit
        for bit either way.
        """
        corrs = self._corrs
        if rows is None:
            _wrls_kernel(corrs, self._coeffs, x_aug, weights, target)
            return
        n_rows, k, _ = corrs.shape
        if (n_rows - rows.shape[0]) * k * k <= _GATHER_MIN_SKIPPED:
            full = np.zeros(n_rows)
            full[rows] = weights
            _wrls_kernel(corrs, self._coeffs, x_aug, full, target)
            return
        sub_r = corrs.take(rows, axis=0)
        sub_c = self._coeffs.take(rows, axis=0)
        _wrls_kernel(sub_r, sub_c, x_aug, weights, target)
        corrs[rows] = sub_r
        self._coeffs[rows] = sub_c

    def downdate_rows(self, rows: np.ndarray | None, xs: np.ndarray,
                      weights: np.ndarray) -> np.ndarray:
        """Remove one absorbed observation from each listed row's correlation.

        Row ``rows[i]`` sheds ``xs[i]`` with weight ``weights[i]``, the
        in-place counterpart of linalg.corr_decrement; ``rows`` must be
        distinct. ``rows`` None stands for the leading ``len(xs)`` rows,
        which are then updated in place rather than gathered and scattered.
        Returns the per-row success mask: a row whose downdate denominator
        falls within the guard of zero is left untouched. The stacked
        matmuls reproduce the single-row products bit for bit, so a row's
        result does not depend on the other rows listed.
        """
        if rows is None:
            corrs = self._corrs[:xs.shape[0]]
        else:
            corrs = self._corrs.take(rows, axis=0)
        u = np.matmul(corrs, xs[:, :, None])                  # (m, k, 1)
        s = np.matmul(xs[:, None, :], u)[:, 0, 0]
        denom = 1.0 - weights * s
        ok = ~(np.abs(denom) < DOWNDATE_GUARD)
        u = u[:, :, 0]
        if not ok.all():
            keep = np.flatnonzero(ok)
            rows = keep if rows is None else rows[keep]
            corrs, u = corrs[keep], u[keep]
            weights, denom = weights[keep], denom[keep]
        # u u' scaled in place: one temporary, and the same bits as
        # f * (u u'), since multiplication commutes exactly
        tmp = u[:, :, None] * u[:, None, :]
        tmp *= (weights / denom)[:, None, None]
        corrs += tmp
        if rows is not None:
            self._corrs[rows] = corrs
        return ok

    def downdate_row(self, row: int, x_aug: np.ndarray, weight: float) -> bool:
        """downdate_rows on a single row; False when the guard trips."""
        return bool(self.downdate_rows(np.array([row]), x_aug[None, :],
                                       np.array([weight]))[0])

    def downdate_row_pair(self, row: int, x_aug: np.ndarray,
                          weights: np.ndarray) -> tuple[bool, bool]:
        """downdate_row on rows (row, row+1) in one batched operation.

        The anticipation sub-rule pair absorbs and sheds samples in
        lockstep, so its two downdates share the departing sample (the
        batched denominators match the per-row ones to dot-product
        rounding). Falls back to per-row application when either
        denominator trips the guard; returns per-row success flags.
        """
        corr2 = self._corrs[row:row + 2]
        u = corr2 @ x_aug
        s = u @ x_aug
        denom = 1.0 - weights * s
        ok0 = abs(float(denom[0])) >= DOWNDATE_GUARD
        ok1 = abs(float(denom[1])) >= DOWNDATE_GUARD
        if ok0 and ok1:
            corr2 += (weights / denom)[:, None, None] * (u[:, :, None] * u[:, None, :])
        elif ok0:
            corr2[0] += (float(weights[0]) / float(denom[0])) * (u[0][:, None] * u[0])
        elif ok1:
            corr2[1] += (float(weights[1]) / float(denom[1])) * (u[1][:, None] * u[1])
        return ok0, ok1


# Gathering and scattering rows has a fixed cost; it pays once the rows it
# skips hold more correlation entries than this (measured crossover in the
# learner's n + 2 of 3n rows: about 8 rules at 3 features, 3-4 at 10).
_GATHER_MIN_SKIPPED = 256


def _wrls_kernel(corrs: np.ndarray, coeffs: np.ndarray, x_aug: np.ndarray,
                 weights: np.ndarray, target: np.ndarray) -> None:
    """FuzzySystem.wrls_step on the given (n, k, k)/(n, k, c) stacks, in place."""
    u = corrs @ x_aug                                        # (n, k)
    # einsum rather than u @ x_aug: BLAS gemv accumulates differently
    # depending on the matrix height, which would make a row's result
    # depend on how many other rows share the stack
    s = np.einsum("nk,k->n", u, x_aug)
    f = weights / (1.0 + weights * s)
    corrs -= f[:, None, None] * (u[:, :, None] * u[:, None, :])
    resid = target - x_aug @ coeffs                          # (n, c)
    gains = corrs @ x_aug
    coeffs += weights[:, None, None] * (gains[:, :, None] * resid[:, None, :])
