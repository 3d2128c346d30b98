"""Takagi-Sugeno fuzzy inference core.

A rule pairs an elliptical cluster premise (center + covariance, Cauchy
membership 1/(1 + (x-c)' S^-1 (x-c)) over the Mahalanobis distance) with
a first-order polynomial consequent per class, learned by weighted
recursive least squares (WRLS).

The rule base itself evolves elsewhere; this module evaluates and adapts
rules and aggregates a base. FuzzySystem keeps every premise and
consequent in stacked arrays, so the per-sample work is a fixed number of
batched operations whatever the rule count. A rule is nothing but rows: a
row of each stack, its id and born class an entry of two int64 arrays.
The feature and class counts are read off the stack shapes. Structural
changes are row gathers (set_rows), a birth appends seed_row's one-row
stacks, class growth pads the coefficient stack with zero columns
(grow_classes), and a Rule is a view of rows built on demand. Each
operation has one implementation, the batched one, and it guarantees
stack independence: a row's result is bitwise identical whichever other
rows share the stack, so auxiliary rows never perturb the principal ones,
and an operation may work on just the rows that carry weight
(advance_premises and wrls_step gather a row index, memberships_all and
downdate_rows address a row range) without changing any result.

The einsum sites call numpy's C einsum, _einsum, directly: np.einsum with
optimize=False calls the same function after a Python wrapper. Should a
numpy release move that private name, _einsum falls back to np.einsum at
import time.

The conclusion kernels (wrls_step, downdate_rows, downdate_row_pair)
build their rank-one terms with _einsum rather than broadcasting, which
at 10 features skips numpy's broadcast loop over 11-element rows. Each
entry is the same single IEEE product, except that einsum writes a zero
product as +0.0. That, and weight 0 as the kernels' one way to skip a row
(a downdate whose guard trips gets factor 0), keep every stored bit
because no correlation or coefficient entry is ever -0.0, and x + (+-0.0)
is x for every other x. Each entry starts at +0.0 (omega * I, np.zeros,
class-growth padding), an IEEE sum or difference gives -0.0 only from an
operand already -0.0, and the snapshot loader rejects -0.0 there. A
center or covariance may hold -0.0 (a sample with a -0.0 feature can put
one there), so advance_premises keeps its broadcast product and touches
only the rows it lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import DOWNDATE_GUARD, regularized_inverse_stack

try:  # what np.einsum calls when optimize is False, minus its wrapper
    from numpy._core._multiarray_umath import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum


class EmptySystemError(ValueError):
    """Prediction was requested from a rule base with no rules."""


class NonFiniteInputError(ValueError):
    """A sample has a NaN or infinite feature, or lies so far from every
    rule that the distances overflow and all memberships vanish."""


def membership_sum(x: np.ndarray, betas: np.ndarray) -> float:
    """The sum of x's memberships ``betas``, the one non-finite input check
    of a model with rules: NonFiniteInputError unless it is finite and
    positive, which a NaN or infinite feature (each membership NaN or 0)
    or overflowing distances make it not."""
    total = float(np.add.reduce(betas))
    if not 0.0 < total < math.inf:
        raise NonFiniteInputError(
            f"sample {x.tolist()} has no finite positive membership sum "
            f"({total!r}); a feature is not finite or its distances overflow")
    return total


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
    founding sample). A premise read from a FuzzySystem holds views of its
    row's arrays and a copy of its count.
    """

    center: np.ndarray
    cov: np.ndarray
    cov_inv: np.ndarray
    hits: int


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


class Rule(NamedTuple):
    """A principal rule as FuzzySystem.rules hands it out: id, born class
    and views of its rows. A structural change (set_rows) builds new
    stacks, so a rule read before it keeps its old arrays, cut off."""

    id: int
    born_class: int
    premise: Premise
    consequent: Consequent
    window: object = None  # a forgetting.DDFWindow, when there is a bank


def seed_row(x: np.ndarray, sigma_init: float, omega: float,
             n_classes: int) -> Rows:
    """The one-row stacks of a rule seeded at a sample: spherical premise
    sigma_init^2 I, inverted by regularized_inverse_stack like every other
    premise, one hit, blank consequent (zero coefficients, omega * I
    correlation)."""
    d = x.shape[0]
    covs = ((sigma_init ** 2) * np.eye(d))[None]
    return Rows(centers=x[None, :].copy(), covs=covs,
                invs=regularized_inverse_stack(covs),
                hits=np.ones(1, dtype=np.int64),
                corrs=(omega * np.eye(d + 1))[None],
                coeffs=np.zeros((1, d + 1, n_classes)))


def create_rule(x: np.ndarray, label: int, sigma_init: float, omega: float,
                n_classes: int, rule_id: int) -> Rule:
    """A rule seeded at a sample (seed_row), as views of its own row."""
    seed = seed_row(x, sigma_init, omega, n_classes)
    return Rule(rule_id, label,
                Premise(seed.centers[0], seed.covs[0], seed.invs[0], 1),
                Consequent(seed.coeffs[0], seed.corrs[0]))


class FuzzySystem:
    """An ordered rule base over a fixed feature count and a class count
    that only grows; both are read off the stack shapes.

    The system owns its rules' arrays as five stacks (centers,
    covariances, cached inverses, correlations, coefficients) plus the hit
    counts in ``hits``, one row per rule: rule i is row i, with id
    ``ids[i]`` and born class ``born_classes[i]`` (int64 arrays). Updates
    run as one batched operation over the rows.

    Rows after the principal rules are auxiliary. They take no part in
    prediction: memberships, predict_scores and predict_class read only
    the leading principal rows and never evaluate an auxiliary one. The
    anticipation learner keeps its shadow sub-rule pairs there. The
    updates either run over the whole stack, where a zero weight leaves a
    row unchanged, or over only some rows (a gathered row index or a row
    range); both give each row the same bits, so auxiliary rows never
    alter what the principal rows compute.

    ``rules`` reads rule i's window from row i of ``windows``, a
    forgetting.WindowBank, if set. Structural changes go through set_rows,
    class growth through grow_classes.
    """

    def __init__(self, n_features: int, n_classes: int,
                 rules: list[Rule] | None = None):
        d, k = n_features, n_features + 1
        self._centers = np.empty((0, d))
        self._covs = np.empty((0, d, d))
        self._invs = np.empty((0, d, d))
        self.hits = np.empty(0, dtype=np.int64)
        self._corrs = np.empty((0, k, k))
        self._coeffs = np.empty((0, k, n_classes))
        self.ids = np.empty(0, dtype=np.int64)
        self.born_classes = np.empty(0, dtype=np.int64)
        self.windows = None
        if rules:  # each rule's row, stacked from its views
            rows = Rows(*map(np.stack, zip(*(
                (r.premise.center, r.premise.cov, r.premise.cov_inv,
                 np.int64(r.premise.hits), r.consequent.corr, r.consequent.coeffs)
                for r in rules))))
            ids, born = np.array([(r.id, r.born_class) for r in rules], np.int64).T
            self.set_rows(ids, born, np.arange(len(rules)), extra=rows)

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def rules(self) -> list[Rule]:
        """The principal rules in order, as views of the current rows."""
        windows = self.windows
        return [Rule(rule_id, born, self.premise(row), self.consequent(row),
                     None if windows is None else windows.window(row))
                for row, (rule_id, born) in enumerate(
                    zip(self.ids.tolist(), self.born_classes.tolist()))]

    @property
    def n_rows(self) -> int:
        return self.hits.shape[0]

    @property
    def n_features(self) -> int:
        return self._centers.shape[1]

    @property
    def n_classes(self) -> int:
        return self._coeffs.shape[2]

    def stacks(self) -> Rows:
        return Rows(self._centers, self._covs, self._invs, self.hits,
                    self._corrs, self._coeffs)

    def premise(self, row: int) -> Premise:
        """Row ``row``'s premise: views of its arrays, a copy of its hits."""
        return Premise(self._centers[row], self._covs[row], self._invs[row],
                       int(self.hits[row]))

    def consequent(self, row: int) -> Consequent:
        """Row ``row``'s consequent, as views of its arrays."""
        return Consequent(self._coeffs[row], self._corrs[row])

    def set_rows(self, ids: np.ndarray, born_classes: np.ndarray,
                 rows: np.ndarray, con_rows: np.ndarray | None = None,
                 extra: Rows | None = None) -> None:
        """Rebuild the stacks as a gather of rows behind new principal rules.

        New row i takes its premise (center, covariance, cached inverse,
        hits) from row ``rows[i]`` and its consequent (correlation,
        coefficients) from row ``con_rows[i]``, ``rows[i]`` by default.
        Indices from n_rows on address the rows of ``extra``, appended
        after the current ones. The first len(ids) new rows are the
        principal rules, rule i with id ``ids[i]`` and born class
        ``born_classes[i]`` (both int64 arrays, stored as given); any later
        row is auxiliary. ``extra`` has the current class count; only
        grow_classes changes it.
        """
        stacks = self.stacks()
        if extra is not None:
            stacks = Rows(*map(np.concatenate, zip(stacks, extra)))
        if con_rows is None:
            con_rows = rows
        self._centers, self._covs, self._invs, self.hits = (
            stack.take(rows, axis=0) for stack in stacks[:4])
        self._corrs, self._coeffs = (
            stack.take(con_rows, axis=0) for stack in stacks[4:])
        self.ids = ids
        self.born_classes = born_classes

    def grow_classes(self, n_classes: int) -> None:
        """Widen every row's coefficients to ``n_classes`` classes, the new
        columns zero. The stack is replaced only once the widened one
        exists, so a size too large to allocate leaves the system as it
        was."""
        zeros = np.zeros((*self._coeffs.shape[:2], n_classes - self.n_classes))
        self._coeffs = np.concatenate((self._coeffs, zeros), axis=2)

    # -- evaluation ----------------------------------------------------

    def memberships_all(self, x: np.ndarray, stop: int | None = None,
                        start: int = 0) -> np.ndarray:
        """Raw membership of x in the stacked rows (principal then auxiliary).

        Rows ``start`` to ``stop`` are evaluated, every row by default. The
        einsum is row-local, so a bounded call returns exactly the
        corresponding slice of the full one.
        """
        centers, invs = self._centers, self._invs
        if stop is not None or start:  # an unbounded call builds no views
            centers, invs = centers[start:stop], invs[start:stop]
        diffs = x - centers
        quad = _einsum("nd,nde,ne->n", diffs, invs, diffs)
        quad += 1.0
        return np.divide(1.0, quad, out=quad)

    def memberships(self, x: np.ndarray) -> np.ndarray:
        """Raw membership of x in every rule, in rule order.

        Only the principal rows are evaluated; the auxiliary rows take no
        part in prediction.
        """
        n = self.ids.shape[0]
        if not n:
            raise EmptySystemError("rule base is empty")
        return self.memberships_all(x, n)

    def scores_from_memberships(self, betas: np.ndarray, x_aug: np.ndarray,
                                total: float) -> np.ndarray:
        """Class scores given precomputed raw rule memberships and their
        sum ``total``, float(np.add.reduce(betas)) as predict_scores takes it.
        """
        weights = betas / total
        partial = x_aug @ self._coeffs[:self.ids.shape[0]]  # (n, c)
        return weights @ partial

    def predict_scores(self, x: np.ndarray) -> np.ndarray:
        """Membership-weighted mixture of the per-rule affine class outputs.

        Raises NonFiniteInputError when the membership sum is not finite
        and positive (membership_sum): a NaN or infinite feature, or
        overflowing distances, would otherwise score NaN for every class.
        """
        betas = self.memberships(x)
        return self.scores_from_memberships(betas, augment(x),
                                            membership_sum(x, betas))

    def predict_class(self, x: np.ndarray) -> int:
        """Argmax class; ties resolve to the lowest class index."""
        return int(self.predict_scores(x).argmax())

    # -- adaptation ----------------------------------------------------

    def advance_premises(self, x: np.ndarray, alphas: np.ndarray,
                         rows: np.ndarray) -> None:
        """Fading premise update of the listed rows, each with its own blend
        weight.

        Each row r of ``rows`` (a distinct-integer array), with blend
        weight a = ``alphas[r]``, moves its center to c' = (1 - a) c + a x
        and its covariance to S' = (1 - a) S + a (x - c')(x - c')', the
        residual taken from the updated center, then re-inverts S'
        (regularized_inverse_stack). With a = 1/min(hits, horizon), hits
        counting the new sample, an unbounded horizon reproduces the
        running mean. ``alphas`` has shape (n_rows, 1). The listed rows are
        gathered, blended, scattered back and re-inverted; every other row
        keeps its bytes, -0.0 entries included. The arithmetic is
        row-local, so a row's result does not depend on which other rows
        are listed or share the stack. Caller maintains hit counts.
        """
        a = alphas.take(rows, axis=0)
        keep = 1.0 - a
        centers = self._centers.take(rows, axis=0)
        centers *= keep
        centers += a * x
        resids = x - centers
        # a (r r') rather than (a r) r', in place: multiplication commutes
        outer = resids[:, :, None] * resids[:, None, :]
        outer *= a[:, :, None]
        covs = self._covs.take(rows, axis=0)
        covs *= keep[:, :, None]
        covs += outer
        self._centers[rows] = centers
        self._covs[rows] = covs
        self._invs[rows] = regularized_inverse_stack(covs)

    def quadratic_form_pair(self, row: int, vec: np.ndarray) -> np.ndarray:
        """vec @ cov_inv @ vec for stacked rows (row, row+1), as a length-2 array."""
        return _einsum("d,nde,e->n", vec, self._invs[row:row + 2], vec)

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
        q_slow, q_fast = self.quadratic_form_pair(row, delta / gap).tolist()
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
        listed rows; small ones step every row as without ``rows``, the
        others with weight 0. A row's result is the same bit for bit
        either way. Both hold while no correlation or coefficient entry is
        -0.0 (see the module docstring): the rank-one terms come from
        einsum, whose zero products are +0.0, and -0.0 - (+0.0) would keep
        a sign that -0.0 - (-0.0) drops.
        """
        corrs = self._corrs
        if rows is not None:
            n_rows, k, _ = corrs.shape
            if (n_rows - rows.shape[0]) * k * k > _GATHER_MIN_SKIPPED:
                sub_r = corrs.take(rows, axis=0)
                sub_c = self._coeffs.take(rows, axis=0)
                _wrls_kernel(sub_r, sub_c, x_aug, weights, target)
                corrs[rows] = sub_r
                self._coeffs[rows] = sub_c
                return
            full = np.zeros(n_rows)
            full[rows] = weights
            weights = full
        _wrls_kernel(corrs, self._coeffs, x_aug, weights, target)

    def downdate_rows(self, xs: np.ndarray, weights: np.ndarray,
                      start: int = 0) -> np.ndarray:
        """Remove one absorbed observation from each row of a row range.

        Row ``start + i`` sheds x = ``xs[i]`` with weight w = ``weights[i]``,
        in place: C' = C + w C x x' C / (1 - w x' C x), the exact inverse of
        the wrls_step correlation update, so that C'^-1 = C^-1 - w x x'.
        Returns the per-row success mask: a row whose downdate denominator
        falls within the guard of zero gets factor 0, which leaves it
        untouched. The stacked matmuls reproduce the single-row products
        bit for bit, so a row's result does not depend on the other rows
        in the range. The u u' term is an einsum, bitwise the broadcast
        product on correlations free of -0.0 entries (see the module
        docstring).
        """
        corrs = self._corrs[start:start + xs.shape[0]]
        u = np.matmul(corrs, xs[:, :, None])                  # (m, k, 1)
        s = np.matmul(xs[:, None, :], u)[:, 0, 0]
        denom = 1.0 - weights * s
        ok = ~(np.abs(denom) < DOWNDATE_GUARD)
        f = np.divide(weights, denom, out=np.zeros(denom.shape[0]), where=ok)
        # u u' scaled in place: one temporary, and the same bits as
        # f * (u u'), since multiplication commutes exactly
        tmp = _einsum("ni,nj->nij", u[:, :, 0], u[:, :, 0])
        tmp *= f[:, None, None]
        corrs += tmp
        return ok

    def downdate_row(self, row: int, x_aug: np.ndarray, weight: float) -> bool:
        """downdate_rows on the one-row range at ``row``; False when the
        guard trips."""
        return bool(self.downdate_rows(x_aug[None, :], np.array([weight]), row)[0])

    def downdate_row_pair(self, row: int, x_aug: np.ndarray,
                          weights: np.ndarray) -> tuple[bool, bool]:
        """downdate_row on rows (row, row+1) in one batched operation.

        The anticipation sub-rule pair absorbs and sheds samples in
        lockstep, so its two downdates share the departing sample (the
        batched denominators match the per-row ones to dot-product
        rounding). A side whose denominator trips the guard gets factor 0;
        returns per-row success flags. Beside these scalar flags, only the
        u and s matvecs set it apart from downdate_rows on the two rows.
        """
        corr2 = self._corrs[row:row + 2]
        u = corr2 @ x_aug
        s = u @ x_aug
        denom = 1.0 - weights * s
        ok0 = abs(float(denom[0])) >= DOWNDATE_GUARD
        ok1 = abs(float(denom[1])) >= DOWNDATE_GUARD
        if ok0 and ok1:
            f = weights / denom
        else:  # a tripped side gets factor 0, which leaves it unchanged
            f = np.divide(weights, denom, out=np.zeros(2), where=[ok0, ok1])
        tmp = _einsum("ni,nj->nij", u, u)
        tmp *= f[:, None, None]
        corr2 += tmp
        return ok0, ok1


# Gathering and scattering rows has a fixed cost; it pays once the rows it
# skips hold more correlation entries than this (measured crossover in the
# learner's n + 2 of 3n rows: about 8 rules at 3 features, 3-4 at 10).
_GATHER_MIN_SKIPPED = 256


def _wrls_kernel(corrs: np.ndarray, coeffs: np.ndarray, x_aug: np.ndarray,
                 weights: np.ndarray, target: np.ndarray) -> None:
    """FuzzySystem.wrls_step on the given (n, k, k)/(n, k, c) stacks, in place.

    The rank-one terms u u' and gain x residual are einsums: per entry the
    broadcast product, except that a zero product is +0.0, which leaves
    every stored entry's bits as they were while none is -0.0.
    """
    u = corrs @ x_aug                                        # (n, k)
    # einsum rather than u @ x_aug: BLAS gemv accumulates differently
    # depending on the matrix height, which would make a row's result
    # depend on how many other rows share the stack
    s = _einsum("nk,k->n", u, x_aug)
    f = weights / (1.0 + weights * s)
    # both outer products scaled in place: the same bits as scaling first,
    # since multiplication commutes exactly
    outer = _einsum("ni,nj->nij", u, u)
    outer *= f[:, None, None]
    corrs -= outer
    resid = target - x_aug @ coeffs                          # (n, c)
    gains = corrs @ x_aug
    outer = _einsum("ni,nc->nic", gains, resid)
    outer *= weights[:, None, None]
    coeffs += outer
