"""Unit tests for the dense linear-algebra kernels.

The Mahalanobis form and the rank-one correlation updates have no
standalone kernel: they are tested here through the FuzzySystem methods
that compute them (memberships_all, wrls_step, downdate_row). The
single-matrix oracles (regularized_inverse, ellipsoid_radius_along) live
in tests/helpers.py; their own properties are checked here too.
"""

import numpy as np
import pytest

from driftfis import fis, linalg
from driftfis.config import LearnerConfig
from driftfis.fis import FuzzySystem, create_rule
from driftfis.learner import AnticipatingClassifier
from driftfis.linalg import DOWNDATE_GUARD, regularized_inverse_stack
from driftfis.snapshot import state_bytes
from helpers import (
    blank_system,
    gaussian_stream,
    ellipsoid_radius_along,
    random_orthogonal,
    random_pd,
    regularized_inverse,
)


def squared_distance(x, center, cov_inv):
    """(x-center) @ cov_inv @ (x-center), read back from the membership
    1/(1 + that form) of a one-rule system."""
    rule = create_rule(center, 0, 1.0, 100.0, 1, rule_id=0)
    rule.premise.cov_inv[:] = cov_inv
    system = FuzzySystem(center.shape[0], 1, [rule])
    return 1.0 / system.memberships_all(x)[0] - 1.0


class TestMahalanobis:
    def test_zero_at_center(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 5):
            x = rng.standard_normal(d)
            a_inv = np.linalg.inv(random_pd(rng, d))
            assert squared_distance(x, x, a_inv) == 0.0

    def test_euclidean_reduction(self):
        # identity covariance degenerates to squared Euclidean distance
        x = np.array([3.0, 4.0])
        mu = np.zeros(2)
        assert squared_distance(x, mu, np.eye(2)) == pytest.approx(25.0)

    def test_diagonal_hand_value(self):
        # A = diag(4,1), offset (2,1): 4/4 + 1/1 = 2
        a_inv = np.diag([0.25, 1.0])
        assert squared_distance(np.array([2.0, 1.0]), np.zeros(2), a_inv) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            squared_distance(np.zeros(3), np.zeros(2), np.eye(2))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            x = rng.standard_normal(d)
            mu = rng.standard_normal(d)
            a = random_pd(rng, d)
            r = random_orthogonal(rng, d)
            base = squared_distance(x, mu, np.linalg.inv(a))
            rotated = squared_distance(r @ x, r @ mu, np.linalg.inv(r @ a @ r.T))
            assert rotated == pytest.approx(base, abs=1e-9, rel=1e-9)


def one_row(corr):
    """A one-row system holding ``corr`` as its correlation."""
    system = blank_system(corr.shape[0] - 1, 1, [1.0])
    system._corrs[0] = corr
    return system


def increment(system, x, w):
    """The wrls_step correlation update of row 0 alone."""
    system.wrls_step(x, np.array([w]), np.zeros(1))
    return system._corrs[0].copy()


class TestCorrUpdates:
    """wrls_step folds (x, w) into C, downdate_row removes it again."""

    def test_zero_weight_is_copy(self):
        corr = 100.0 * np.eye(3)
        x = np.array([1.0, 2.0, 3.0])
        system = one_row(corr)
        assert np.array_equal(increment(system, x, 0.0), corr)
        assert system.downdate_row(0, x, 0.0)
        assert np.array_equal(system._corrs[0], corr)

    def test_scalar_hand_computation(self):
        # C=100 I, x=(1,0), w=1: increment -> diag(100/101, 100), downdate restores
        system = one_row(100.0 * np.eye(2))
        x = np.array([1.0, 0.0])
        inc = increment(system, x, 1.0)
        assert inc[0, 0] == pytest.approx(100.0 / 101.0)
        assert inc[1, 1] == 100.0
        assert system.downdate_row(0, x, 1.0)
        assert system._corrs[0, 0, 0] == pytest.approx(100.0, abs=1e-10)

    def test_roundtrip_identity_case(self):
        corr = 100.0 * np.eye(2)
        system = one_row(corr)
        x = np.array([1.0, 0.0])
        increment(system, x, 1.0)
        assert system.downdate_row(0, x, 1.0)
        assert np.allclose(system._corrs[0], corr, atol=1e-10)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng.integers(1, 8)) + 1  # a system has at least one feature
            corr = random_pd(rng, k, scale=50.0)
            x = rng.standard_normal(k)
            w = float(rng.uniform(0.01, 1.0))
            system = one_row(corr)
            increment(system, x, w)
            assert system.downdate_row(0, x, w)
            assert np.linalg.norm(system._corrs[0] - corr) < 1e-8

    def test_increment_inverse_semantics(self):
        # C_new^-1 == C^-1 + w * x x^T
        rng = np.random.default_rng(3)
        corr = random_pd(rng, 4, scale=10.0)
        x = rng.standard_normal(4)
        w = 0.7
        new = increment(one_row(corr), x, w)
        lhs = np.linalg.inv(new)
        rhs = np.linalg.inv(corr) + w * np.outer(x, x)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_inputs_not_mutated(self):
        # the updates rewrite the stacks only, never the sample or weights
        system = one_row(100.0 * np.eye(2))
        x = np.array([1.0, 2.0])
        weights = np.array([0.5])
        system.wrls_step(x, weights, np.ones(1))
        system.downdate_row(0, x, 0.001)
        system.downdate_rows(x[None, :], weights)
        assert x.tolist() == [1.0, 2.0] and weights.tolist() == [0.5]

    def test_decrement_guard(self):
        # the downdate refuses exactly when |1 - w x'Cx| < DOWNDATE_GUARD
        x = np.array([1.0, 0.0])
        for margin, ok in ((2.0, True), (0.5, False), (0.0, False)):
            corr = np.diag([1.0 - margin * DOWNDATE_GUARD, 1.0])
            system = one_row(corr)
            assert system.downdate_row(0, x, 1.0) == ok
            if not ok:
                assert np.array_equal(system._corrs[0], corr)


class TestEllipsoidRadius:
    def test_sphere(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        assert ellipsoid_radius_along(np.eye(3), u) == pytest.approx(1.0)

    def test_principal_axis(self):
        assert ellipsoid_radius_along(np.diag([4.0, 1.0]), np.array([1.0, 0.0])) \
            == pytest.approx(2.0)

    def test_oblique_hand_value(self):
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        expected = 2.0 * np.sqrt(2.0 / 5.0)
        assert ellipsoid_radius_along(np.diag([4.0, 1.0]), u) == pytest.approx(expected)

    def test_scaling_property(self):
        rng = np.random.default_rng(5)
        a = random_pd(rng, 3)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        base = ellipsoid_radius_along(a, u)
        for c in (0.25, 4.0, 9.0):
            assert ellipsoid_radius_along(c * a, u) == pytest.approx(np.sqrt(c) * base)

    def test_rejects_bad_inputs(self):
        u = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            ellipsoid_radius_along(np.diag([1.0, -1.0]), u)  # not PD
        with pytest.raises(ValueError):
            ellipsoid_radius_along(np.array([[1.0, 0.5], [0.0, 1.0]]), u)  # asymmetric
        with pytest.raises(ValueError):
            ellipsoid_radius_along(np.eye(2), np.array([1.0, 1.0]))  # not unit length


class TestRegularizedInverse:
    """The single-matrix oracle of tests/helpers.py, and the stacked kernel
    every premise goes through."""

    def test_well_conditioned_close_to_plain_inverse(self):
        rng = np.random.default_rng(6)
        cov = random_pd(rng, 4)
        out = regularized_inverse(cov)
        assert np.allclose(out, np.linalg.inv(cov), rtol=1e-4)
        assert np.allclose(regularized_inverse_stack(cov[None])[0],
                           np.linalg.inv(cov), rtol=1e-4)

    def test_collapsed_covariance_stays_finite(self):
        for out in (regularized_inverse(np.zeros((3, 3))),
                    regularized_inverse_stack(np.zeros((1, 3, 3)))[0]):
            assert np.all(np.isfinite(out))
            # ridge floor turns the zero matrix into (floor * I)^-1
            assert out[0, 0] == pytest.approx(1e12)

    def test_symmetrizes_input(self):
        cov = np.array([[2.0, 0.3], [0.1, 1.0]])
        sym = 0.5 * (cov + cov.T)
        assert np.array_equal(regularized_inverse(cov), regularized_inverse(sym))

    def test_stack_matches_single_bitwise(self):
        # the hot path depends on slice-for-slice bit identity
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            d = int(rng.integers(1, 8))
            covs = np.empty((n, d, d))
            for i in range(n):
                covs[i] = random_pd(rng, d, scale=float(rng.uniform(0.01, 10.0)))
            stacked = regularized_inverse_stack(covs)
            for i in range(n):
                single = regularized_inverse(covs[i])
                assert stacked[i].tobytes() == single.tobytes()

    def test_stack_does_not_mutate_input(self):
        rng = np.random.default_rng(8)
        covs = np.stack([random_pd(rng, 3) for _ in range(4)])
        snap = covs.copy()
        regularized_inverse_stack(covs)
        assert np.array_equal(covs, snap)

    def test_guard_constant(self):
        assert DOWNDATE_GUARD == 1e-8


class TestDispatchBypass:
    """linalg._inv and fis._einsum skip numpy's Python wrappers; on the
    pinned numpy they must be bound and give the public functions' bits."""

    def test_private_names_resolve(self):
        # a numpy release that moves a private name makes its fast path fall
        # back to the public wrapper, a silent slowdown; name it in the log
        assert linalg._inv is not np.linalg.inv, \
            "linalg._inv fell back to the public numpy function np.linalg.inv"
        assert fis._einsum is not np.einsum, \
            "fis._einsum fell back to the public numpy function np.einsum"
        from numpy._core._multiarray_umath import c_einsum
        from numpy.linalg._umath_linalg import inv
        assert linalg._umath_inv is inv, \
            "linalg._inv does not call numpy.linalg._umath_linalg.inv"
        assert fis._einsum is c_einsum, \
            "fis._einsum is not numpy._core._multiarray_umath.c_einsum"

    @pytest.mark.parametrize("m", [1, 3, 200])
    def test_inv_matches_public_bitwise(self, m):
        rng = np.random.default_rng(40 + m)
        for d in range(1, 12):
            stack = np.stack([random_pd(rng, d, scale=float(rng.uniform(0.01, 10.0)))
                              for _ in range(m)])
            assert linalg._inv(stack).tobytes() == np.linalg.inv(stack).tobytes()

    def test_einsum_matches_public_bitwise(self):
        rng = np.random.default_rng(41)
        for n, d in ((1, 3), (6, 4), (75, 11)):
            diffs = rng.standard_normal((n, d))
            invs = np.stack([random_pd(rng, d) for _ in range(n)])
            vec = rng.standard_normal(d)
            cases = (("nd,nde,ne->n", diffs, invs, diffs),
                     ("d,nde,e->n", vec, invs, vec),
                     ("nk,k->n", diffs, vec))
            for operands in cases:
                assert (fis._einsum(*operands).tobytes()
                        == np.einsum(*operands).tobytes())

    def test_singular_stack_raises_and_restores_errstate(self):
        before = np.geterr()
        rng = np.random.default_rng(42)
        linalg._inv(np.stack([random_pd(rng, 3) for _ in range(2)]))
        assert np.geterr() == before
        singular = np.stack([np.eye(3), np.zeros((3, 3))])
        with pytest.raises(np.linalg.LinAlgError):
            linalg._inv(singular)
        assert np.geterr() == before

    def test_public_fallback_learns_the_same_state(self, monkeypatch):
        def learned():
            rng = np.random.default_rng(43)
            learner = AnticipatingClassifier(3, 2, LearnerConfig(ks=0.3, nmin=5))
            X, y = gaussian_stream(rng, 400, centers=[[0.0] * 3, [3.0] * 3])
            X[200:] += 2.0  # a shift, so the pairs separate and drifts fire
            for xi, yi in zip(X, y):
                learner.learn_one(xi, int(yi))
            assert learner.drift_log
            return state_bytes(learner)

        fast = learned()
        monkeypatch.setattr(linalg, "_inv", np.linalg.inv)
        monkeypatch.setattr(fis, "_einsum", np.einsum)
        assert learned() == fast
