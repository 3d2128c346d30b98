"""Takagi-Sugeno fuzzy inference core.

A rule pairs an elliptical cluster premise (center + covariance, Cauchy
membership 1/(1 + (x-c)' S^-1 (x-c)) over the Mahalanobis distance) with
a first-order polynomial consequent per class, learned by weighted
recursive least squares (WRLS).

The rule base itself evolves elsewhere; this module knows how to evaluate
and adapt rules and how to aggregate a base. FuzzySystem keeps every
premise and consequent in stacked arrays so the per-sample work is a fixed
number of batched array operations regardless of the rule count. The
stacks are the only storage of those arrays: a rule is a row plus its
metadata, and structural changes are row gathers (set_rows). Each
operation has one implementation, the batched one, and what it
guarantees exactly is stack independence: a row's result is bitwise
identical no matter which other rows share the stack, so attaching
auxiliary rows can never perturb the principal ones, and an operation may
gather just the rows that carry weight (advance_premises, wrls_step and
downdate_rows take a row index, memberships_all a leading-row bound)
without changing any row's result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import (
    DOWNDATE_GUARD,
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


@dataclass
class Premise:
    """Cluster antecedent: center, covariance, cached regularized inverse.

    ``hits`` counts the samples that most-activated the rule (including the
    founding sample). ``horizon`` caps the effective sample count in the
    fading factor; None means no forgetting. A premise read from a
    FuzzySystem holds views of its row's arrays and a copy of its count.
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


class Rows(NamedTuple):
    """Row-aligned arrays in the layout of the FuzzySystem stacks."""

    centers: np.ndarray  # (m, d)
    covs: np.ndarray     # (m, d, d)
    invs: np.ndarray     # (m, d, d)
    hits: np.ndarray     # (m,) int64
    corrs: np.ndarray    # (m, d+1, d+1)
    coeffs: np.ndarray   # (m, d+1, n_classes)


@dataclass(eq=False)
class Rule:
    """A principal rule: its metadata and its row ``row`` of ``system``.

    ``premise`` and ``consequent`` read that row as views, ``window`` the
    same row of ``windows`` (a forgetting.WindowBank) when there is one.
    """

    id: int
    born_class: int | None = None
    windows: object = field(default=None, repr=False)
    system: "FuzzySystem | None" = field(default=None, repr=False)
    row: int = 0

    @property
    def premise(self) -> Premise:
        return self.system.premise(self.row)

    @property
    def consequent(self) -> Consequent:
        return self.system.consequent(self.row)

    @property
    def window(self):
        return None if self.windows is None else self.windows.window(self.row)


def create_rule(x: np.ndarray, label: int, sigma_init: float, omega: float,
                n_classes: int, rule_id: int) -> Rule:
    """Seed a rule at a sample, alone in a one-row system: unit-scaled
    spherical premise, one hit, blank consequent (zero coefficients, omega
    * I correlation)."""
    d = x.shape[0]
    cov = (sigma_init ** 2) * np.eye(d)
    seed = Rows(centers=x[None, :].copy(), covs=cov[None],
                invs=regularized_inverse(cov)[None],
                hits=np.ones(1, dtype=np.int64),
                corrs=(omega * np.eye(d + 1))[None],
                coeffs=np.zeros((1, d + 1, n_classes)))
    rule = Rule(id=rule_id, born_class=label)
    FuzzySystem(d, n_classes).set_rows([rule], np.zeros(1, np.intp), extra=seed)
    return rule


class FuzzySystem:
    """An ordered rule base over a fixed feature/class signature.

    The system owns its rules' arrays as five stacks (centers,
    covariances, cached inverses, correlations, coefficients) plus the hit
    counts in ``hits``, one row per rule: rule i is row i. Updates run as
    one batched operation over the rows.

    Rows after the principal rules are auxiliary. They take no part in
    prediction: memberships, predict_scores and predict_class read only
    the leading principal rows and never evaluate an auxiliary one. The
    anticipation learner keeps its shadow sub-rule pairs there. The
    updates either run over the whole stack, where a zero weight leaves a
    row unchanged, or gather only the listed rows; both give each row the
    same bits, so auxiliary rows never alter what the principal rows
    compute.

    Treat ``rules`` as read-only; structural changes go through set_rows.
    """

    def __init__(self, n_features: int, n_classes: int,
                 rules: list[Rule] | None = None):
        self.n_features = n_features
        self.n_classes = n_classes
        d, k = n_features, n_features + 1
        self._centers = np.empty((0, d))
        self._covs = np.empty((0, d, d))
        self._invs = np.empty((0, d, d))
        self.hits = np.empty(0, dtype=np.int64)
        self._corrs = np.empty((0, k, k))
        self._coeffs = np.empty((0, k, n_classes))
        self._rules: list[Rule] = []
        if rules:
            # each rule brings its row from the system it was read from
            rows = Rows(*(np.stack(parts) for parts in zip(*(
                [stack[r.row] for stack in r.system.stacks()] for r in rules))))
            self.set_rows(list(rules), np.arange(len(rules)), extra=rows)

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def rules(self) -> list[Rule]:
        return self._rules

    @property
    def n_rows(self) -> int:
        return self.hits.shape[0]

    def stacks(self) -> Rows:
        return Rows(self._centers, self._covs, self._invs, self.hits,
                    self._corrs, self._coeffs)

    def premise(self, row: int, horizon: int | None = None) -> Premise:
        """Row ``row``'s premise: views of its arrays, a copy of its hits."""
        return Premise(self._centers[row], self._covs[row], self._invs[row],
                       int(self.hits[row]), horizon)

    def consequent(self, row: int) -> Consequent:
        """Row ``row``'s consequent, as views of its arrays."""
        return Consequent(self._coeffs[row], self._corrs[row])

    def set_rows(self, rules: list[Rule], rows: np.ndarray,
                 con_rows: np.ndarray | None = None,
                 extra: Rows | None = None) -> None:
        """Rebuild the stacks as a gather of rows; ``rules`` lead them.

        New row i takes its premise (center, covariance, cached inverse,
        hits) from row ``rows[i]`` and its consequent (correlation,
        coefficients) from row ``con_rows[i]``, ``rows[i]`` by default.
        Indices from n_rows on address the rows of ``extra``, appended
        after the current ones. The first len(rules) new rows are the
        principal rules, in order, and each rule is bound to its row; any
        later row is auxiliary. Coefficient columns of classes added since
        the stacks were built start at zero.
        """
        stacks = self.stacks()
        if extra is not None:
            stacks = Rows(*map(np.concatenate, zip(stacks, extra)))
        if con_rows is None:
            con_rows = rows
        self._centers, self._covs, self._invs, self.hits = (
            stack.take(rows, axis=0) for stack in stacks[:4])
        self._corrs = stacks.corrs.take(con_rows, axis=0)
        coeffs = stacks.coeffs.take(con_rows, axis=0)
        grown = self.n_classes - coeffs.shape[2]
        if grown:
            coeffs = np.pad(coeffs, ((0, 0), (0, 0), (0, grown)))
        self._coeffs = coeffs
        for row, rule in enumerate(rules):
            rule.system, rule.row = self, row
        self._rules = list(rules)

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

        Row i with blend weight a = ``alphas[i]`` moves its center to
        c' = (1 - a) c + a x and its covariance to
        S' = (1 - a) S + a (x - c')(x - c')', the residual taken from the
        updated center, then re-inverts S' (regularized_inverse_stack).
        With a = 1/min(hits, horizon), hits counting the new sample, an
        unbounded horizon reproduces the running mean. ``alphas`` has
        shape (n_rows, 1); a zero entry leaves that row's center and
        covariance unchanged. ``rows`` (a distinct-integer array) may
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

    def pair_separation(self, row: int) -> float:
        """Drift separation of the sub-rule pair in rows (row, row+1).

        The gap between the two centers over the sum of the two premise
        ellipsoids' radii along it; a radius is 1/sqrt(u @ cov_inv @ u)
        for the unit gap direction u, infinite where that form is not
        positive. 0.0 while the centers coincide, inf when the spread is 0.
        """
        delta = self._centers[row + 1] - self._centers[row]
        gap_sq = float(delta @ delta)
        if gap_sq == 0.0:
            return 0.0
        gap = math.sqrt(gap_sq)
        q = self.quadratic_form_pair(row, delta / gap)
        q_slow = float(q[0])
        q_fast = float(q[1])
        spread = ((1.0 / math.sqrt(q_slow)) if q_slow > 0.0 else math.inf) \
            + ((1.0 / math.sqrt(q_fast)) if q_fast > 0.0 else math.inf)
        return gap / spread if spread > 0.0 else math.inf

    def wrls_step(self, x_aug: np.ndarray, weights: np.ndarray,
                  target: np.ndarray, rows: np.ndarray | None = None) -> None:
        """One WRLS step on stacked consequents with per-row weights.

        Row i with weight w, correlation C and coefficients P takes
        C' = C - w C x x' C / (1 + w x' C x), then
        P' = P + w C' x (t - x' P) for the one-hot target t, all class
        columns at once; x is ``x_aug``. A row's result does not depend on
        the other rows in the stack, and weight 0 leaves it unchanged
        exactly. Without ``rows`` every stacked row steps and ``weights``
        has shape (n_rows,). With ``rows`` (a distinct-integer array)
        ``weights`` lines up with ``rows`` and every other row keeps its
        values. Large stacks then gather, step and scatter back only the
        listed rows; small ones step every row, the others with weight 0.
        A row's result is the same bit for bit either way.
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

        Row ``rows[i]`` sheds x = ``xs[i]`` with weight w = ``weights[i]``:
        C' = C + w C x x' C / (1 - w x' C x), the exact inverse of the
        wrls_step correlation update, so that C'^-1 = C^-1 - w x x'.
        ``rows`` must be distinct. ``rows`` None stands for the leading
        ``len(xs)`` rows, which are then updated in place rather than
        gathered and scattered.
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
