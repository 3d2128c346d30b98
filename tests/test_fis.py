"""Unit tests for the Takagi-Sugeno core: rules, WRLS, and the stacked system."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfis import fis
from driftfis.fis import (
    EmptySystemError,
    FuzzySystem,
    augment,
    create_rule,
)
from driftfis.linalg import DOWNDATE_GUARD, regularized_inverse_stack
from helpers import (
    advance_row,
    attach_rows,
    blank_system,
    downdate_pair_broadcast,
    downdate_rows_broadcast,
    has_negative_zero,
    random_pd,
    random_system,
    regularized_inverse,
    wrls_broadcast,
)

ONE_HOT = np.eye(2)  # class targets of a two-class system


def lone_system(center):
    """A two-class system of one unit rule at ``center``."""
    rule = create_rule(center, 0, 1.0, 100.0, 2, rule_id=0)
    return FuzzySystem(center.shape[0], 2, [rule])


def test_augment_prepends_one():
    out = augment(np.array([2.0, 3.0]))
    assert np.array_equal(out, [1.0, 2.0, 3.0])


class TestMembership:
    """Cauchy membership 1/(1 + squared Mahalanobis distance)."""

    def test_center_is_one(self):
        system = lone_system(np.array([1.0, -2.0]))
        assert system.memberships(np.array([1.0, -2.0]))[0] == 1.0

    def test_unit_offset(self):
        beta = lone_system(np.zeros(2)).memberships(np.array([1.0, 0.0]))[0]
        assert beta == pytest.approx(0.5, rel=1e-5)  # ridge shifts it a hair

    def test_diagonal_hand_value(self):
        system = lone_system(np.zeros(2))
        system.premise(0).cov_inv[:] = np.diag([0.25, 1.0])
        beta = system.memberships(np.array([2.0, 1.0]))[0]
        assert beta == pytest.approx(1.0 / 3.0)


class TestUpdatePremise:
    """The fading premise recursion, through advance_premises."""

    def test_second_sample_gives_midpoint(self):
        system = lone_system(np.array([0.0, 0.0]))
        advance_row(system, 0, np.array([2.0, 4.0]))
        assert np.allclose(system.rules[0].premise.center, [1.0, 2.0])
        assert system.rules[0].premise.hits == 2

    def test_unbounded_horizon_is_running_mean(self):
        rng = np.random.default_rng(10)
        xs = rng.standard_normal((1000, 3))
        system = lone_system(xs[0])
        for x in xs[1:]:
            advance_row(system, 0, x)
        center = system.rules[0].premise.center
        assert np.max(np.abs(center - xs.mean(axis=0))) < 1e-12

    def test_horizon_one_tracks_sample(self):
        system = lone_system(np.zeros(2))
        system.hits[0] = 5
        x = np.array([3.0, -1.0])
        advance_row(system, 0, x, horizon=1)
        premise = system.rules[0].premise
        assert np.array_equal(premise.center, x)
        # residual from the fully-moved center is zero, so cov collapses fully
        assert np.array_equal(premise.cov, np.zeros((2, 2)))

    def test_matches_manual_recursion(self):
        # on the full-stack path (3 rows) and the gather path (9 rows, whose
        # 8 unlisted rows of 2 features outweigh _BLEND_MIN_SKIPPED); the
        # unlisted rows keep their bits
        rng = np.random.default_rng(11)
        xs = rng.standard_normal((50, 2))
        for n_rows, row in ((3, 1), (9, 4)):
            gathers = (n_rows - 1) * (2 * 2 + 21) > fis._BLEND_MIN_SKIPPED
            assert gathers == (n_rows == 9)
            system = random_system(rng, n_rows, 2, 2)
            system._centers[row] = xs[0]
            system._covs[row] = np.eye(2)
            frozen = [stack.copy() for stack in system.stacks()]
            mu = xs[0].copy()
            cov = np.eye(2)
            hits = 1
            for x in xs[1:]:
                advance_row(system, row, x, horizon=7)
                hits += 1
                alpha = 1.0 / min(hits, 7)
                mu = (1.0 - alpha) * mu + alpha * x
                resid = x - mu
                cov = (1.0 - alpha) * cov + alpha * np.outer(resid, resid)
            premise = system.rules[row].premise
            assert np.array_equal(premise.center, mu)
            assert np.array_equal(premise.cov, cov)
            assert premise.cov_inv.tobytes() == regularized_inverse(cov).tobytes()
            others = np.arange(n_rows) != row
            for stack, before in zip(system.stacks(), frozen):
                assert stack[others].tobytes() == before[others].tobytes()


class TestWrlsUpdate:
    """One WRLS step, through FuzzySystem.wrls_step."""

    def test_worked_single_step(self):
        # d=1, Omega=100, x_aug=(1,0), w=1, target=(1):
        # C -> diag(100/101, 100), Pi column -> (100/101, 0)
        system = blank_system(1, 1, [100.0])
        system.wrls_step(np.array([1.0, 0.0]), np.array([1.0]), np.array([1.0]))
        con = system.rules[0].consequent
        assert np.allclose(con.corr, np.diag([100.0 / 101.0, 100.0]))
        assert con.coeffs[0, 0] == pytest.approx(100.0 / 101.0)
        assert con.coeffs[1, 0] == 0.0

    def test_zero_weight_is_exact_noop(self):
        # zero-weight rows keep their bits, stepped whole or through a list
        for rows in (None, np.arange(3)):
            system = blank_system(2, 2, [50.0, 20.0, 10.0])
            system._coeffs[:] = 1.0
            before = [stack.copy() for stack in system.stacks()]
            system.wrls_step(np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.5, 0.0]),
                             ONE_HOT[0], rows)
            for row in (0, 2):
                assert system._coeffs[row].tobytes() == before[5][row].tobytes()
                assert system._corrs[row].tobytes() == before[4][row].tobytes()
            assert system._corrs[1].tobytes() != before[4][1].tobytes()

    def test_matches_batch_ridge_solution(self):
        rng = np.random.default_rng(12)
        d, c, t, omega = 3, 2, 200, 100.0
        system = blank_system(d, c, [omega])
        xs = np.column_stack([np.ones(t), rng.standard_normal((t, d))])
        ws = rng.uniform(0.0, 1.0, size=t)
        ys = np.eye(c)[rng.integers(0, c, size=t)]
        for x, w, y in zip(xs, ws, ys):
            system.wrls_step(x, np.array([w]), y)
        gram = np.eye(d + 1) / omega + (xs * ws[:, None]).T @ xs
        rhs = (xs * ws[:, None]).T @ ys
        expected = np.linalg.solve(gram, rhs)
        coeffs = system.rules[0].consequent.coeffs
        assert np.linalg.norm(coeffs - expected) / np.linalg.norm(expected) < 1e-8


class TestCreateRule:
    def test_definition(self):
        x = np.array([0.0, 0.0])
        rule = create_rule(x, 1, 1.0, 100.0, 2, rule_id=7)
        assert np.array_equal(rule.premise.center, x)
        assert rule.premise.center is not x
        assert np.array_equal(rule.premise.cov, np.eye(2))
        assert rule.premise.hits == 1
        assert np.array_equal(rule.consequent.corr, 100.0 * np.eye(3))
        assert np.array_equal(rule.consequent.coeffs, np.zeros((3, 2)))
        assert rule.id == 7
        assert rule.born_class == 1

    def test_sigma_scales_covariance(self):
        rule = create_rule(np.zeros(3), 0, 2.0, 100.0, 2, rule_id=0)
        assert np.array_equal(rule.premise.cov, 4.0 * np.eye(3))

    def test_deterministic_except_id(self):
        a = create_rule(np.ones(2), 0, 1.0, 100.0, 2, rule_id=0)
        b = create_rule(np.ones(2), 0, 1.0, 100.0, 2, rule_id=1)
        assert np.array_equal(a.premise.center, b.premise.center)
        assert np.array_equal(a.consequent.corr, b.consequent.corr)
        assert a.id != b.id

    @pytest.mark.parametrize("d", range(1, 12))
    @pytest.mark.parametrize("sigma", [1e-8, 1e-3, 0.1, 0.7, 1.0, 3.0, 1e4, 1e8])
    def test_birth_inverse_matches_the_single_matrix_oracle(self, d, sigma):
        # births invert sigma^2 I through the stacked kernel; every bit
        # must equal the symmetrizing single-matrix inverse
        rule = create_rule(np.zeros(d), 0, sigma, 100.0, 2, rule_id=0)
        expected = regularized_inverse((sigma ** 2) * np.eye(d))
        assert rule.premise.cov_inv.tobytes() == expected.tobytes()


class TestSystemEvaluation:
    def test_empty_system_raises(self):
        system = FuzzySystem(n_features=2, n_classes=2)
        with pytest.raises(EmptySystemError):
            system.memberships(np.zeros(2))
        with pytest.raises(EmptySystemError):
            system.predict_class(np.zeros(2))

    def test_single_rule_normalizes_to_one(self):
        rng = np.random.default_rng(13)
        system = random_system(rng, 1, 2, 2)
        betas = system.memberships(rng.standard_normal(2))
        assert np.array_equal(betas / betas.sum(), [1.0])

    def test_identical_rules_split_evenly(self):
        a = create_rule(np.zeros(2), 0, 1.0, 100.0, 2, rule_id=0)
        b = create_rule(np.zeros(2), 0, 1.0, 100.0, 2, rule_id=1)
        system = FuzzySystem(2, 2, [a, b])
        betas = system.memberships(np.array([0.7, -0.2]))
        assert np.allclose(betas / betas.sum(), [0.5, 0.5])

    def test_two_rule_hand_normalization(self):
        # centers (0,0) and (2,0), identity covariances, x at the first center:
        # beta = (1, 1/5) -> normalized (5/6, 1/6); ridge perturbs mildly
        a = create_rule(np.array([0.0, 0.0]), 0, 1.0, 100.0, 2, rule_id=0)
        b = create_rule(np.array([2.0, 0.0]), 0, 1.0, 100.0, 2, rule_id=1)
        system = FuzzySystem(2, 2, [a, b])
        betas = system.memberships(np.zeros(2))
        out = betas / betas.sum()
        assert out[0] == pytest.approx(5.0 / 6.0, rel=1e-5)
        assert out[1] == pytest.approx(1.0 / 6.0, rel=1e-5)

    def test_zero_consequents_score_zero(self):
        rule = create_rule(np.zeros(2), 0, 1.0, 100.0, 3, rule_id=0)
        system = FuzzySystem(2, 3, [rule])
        assert np.array_equal(system.predict_scores(np.array([1.0, 2.0])), np.zeros(3))

    def test_affine_evaluation(self):
        rule = create_rule(np.zeros(1), 0, 1.0, 100.0, 1, rule_id=0)
        rule.consequent.coeffs[:, 0] = [0.5, 1.0]
        system = FuzzySystem(1, 1, [rule])
        assert system.predict_scores(np.array([2.0]))[0] == pytest.approx(2.5)

    def test_symmetric_rules_tie_and_lowest_index_wins(self):
        a = create_rule(np.array([-1.0, 0.0]), 0, 1.0, 100.0, 2, rule_id=0)
        b = create_rule(np.array([1.0, 0.0]), 1, 1.0, 100.0, 2, rule_id=1)
        a.consequent.coeffs[0, 0] = 1.0   # rule a votes class 0 via its bias
        b.consequent.coeffs[0, 1] = 1.0   # rule b votes class 1
        system = FuzzySystem(2, 2, [a, b])
        scores = system.predict_scores(np.zeros(2))
        assert scores[0] == pytest.approx(scores[1])
        assert system.predict_class(np.zeros(2)) == 0

    def test_argmax_order(self):
        rule = create_rule(np.zeros(1), 0, 1.0, 100.0, 3, rule_id=0)
        rule.consequent.coeffs[0] = [0.1, 0.2, 0.7]
        system = FuzzySystem(1, 3, [rule])
        assert system.predict_class(np.zeros(1)) == 2

    def test_scores_with_precomputed_total(self):
        rng = np.random.default_rng(14)
        system = random_system(rng, 4, 3, 2)
        x = rng.standard_normal(3)
        betas = system.memberships(x)
        x_aug = augment(x)
        lazy = system.scores_from_memberships(betas, x_aug)
        eager = system.scores_from_memberships(betas, x_aug, float(betas.sum()))
        assert np.array_equal(lazy, eager)


class TestSystemBanks:
    def test_set_rows_rebinds_views(self):
        rng = np.random.default_rng(15)
        system = random_system(rng, 3, 2, 2)
        rule = system.rules[1]
        assert np.shares_memory(rule.premise.center, system._centers)
        assert np.shares_memory(rule.consequent.coeffs, system._coeffs)
        # bank writes are visible through the rule view and vice versa
        system._centers[1, 0] = 42.0
        assert rule.premise.center[0] == 42.0
        rule.consequent.coeffs[0, 0] = -7.0
        assert system._coeffs[1, 0, 0] == -7.0

    def test_memberships_all_matches_per_rule(self):
        # batched einsum vs the membership formula evaluated per rule: same
        # value up to dot-product rounding (the reduction orders differ)
        rng = np.random.default_rng(17)
        system = random_system(rng, 5, 3, 2)
        for _ in range(10):
            x = rng.standard_normal(3)
            batched = system.memberships(x)
            for i, rule in enumerate(system.rules):
                diff = x - rule.premise.center
                assert batched[i] == pytest.approx(
                    1.0 / (1.0 + diff @ rule.premise.cov_inv @ diff), rel=1e-12)

    def test_memberships_ignore_aux_rows(self):
        rng = np.random.default_rng(18)
        system = random_system(rng, 3, 2, 2)
        x = rng.standard_normal(2)
        before = system.memberships(x).copy()
        spare = create_rule(x, 0, 1.0, 100.0, 2, rule_id=99)
        attach_rows(system, [spare])
        after = system.memberships(x)
        assert np.array_equal(before, after)
        assert len(system.memberships_all(x)) == 4

    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize("n", [1, 2, 5, 30, 70])
    def test_bounded_memberships_equal_leading_rows(self, d, n):
        # the einsum is row-local, so bounding it to a row range must
        # reproduce that slice of the all-row call bitwise: the principal
        # rows, and each shadow pair n+2w .. n+2w+2 that learn_one scores
        # on its own
        rng = np.random.default_rng(1000 * d + n)
        system = random_system(rng, n, d, 2)
        attach_rows(system, random_system(rng, 2 * n, d, 2).rules)
        assert system.n_rows == 3 * n
        ranges = [(0, n), (0, 3 * n), (1, n), (n, 3 * n), (n - 1, n + 1)]
        ranges += [(n + 2 * w, n + 2 * w + 2) for w in range(n)]
        for _ in range(5):
            x = rng.standard_normal(d)
            full = system.memberships_all(x)
            bounded = system.memberships_all(x, n)
            assert bounded.shape == (n,)
            assert np.array_equal(bounded, full[:n])
            assert np.array_equal(system.memberships(x), full[:n])
            for start, stop in ranges:
                part = system.memberships_all(x, stop, start)
                assert part.shape == (stop - start,)
                assert part.tobytes() == full[start:stop].tobytes()


class TestBatchedAdaptation:
    """Each row's result is the same bit for bit whichever path of a batched
    operation computes it and whichever other rows share the stack."""

    def test_advance_premises_gather_path_matches_full(self):
        # stacks big enough to trigger the selective re-inversion
        rng = np.random.default_rng(20)
        sys_full = random_system(rng, 14, 3, 2)
        rng2 = np.random.default_rng(20)
        sys_rows = random_system(rng2, 14, 3, 2)
        x = rng.standard_normal(3)
        alphas = np.zeros((14, 1))
        alphas[2, 0] = 0.25
        alphas[9, 0] = 0.5
        sys_full.advance_premises(x, alphas.copy(), rows=None)
        rows = np.array([2, 9], dtype=np.intp)
        # gather branch actually taken
        assert (14 - rows.shape[0]) * (3 * 3 + 21) > fis._BLEND_MIN_SKIPPED
        sys_rows.advance_premises(x, alphas.copy(), rows=rows)
        assert sys_full._centers.tobytes() == sys_rows._centers.tobytes()
        assert sys_full._covs.tobytes() == sys_rows._covs.tobytes()
        assert sys_full._invs.tobytes() == sys_rows._invs.tobytes()

    def test_advance_premises_keeps_negative_zeros_of_unlisted_rows(self, monkeypatch):
        # a -0.0 center or covariance entry of a zero-alpha row keeps its
        # sign on both paths, which agree bit for bit
        system = random_system(np.random.default_rng(21), 12, 3, 2)
        system._centers[5, 2] = -0.0
        system._covs[5, 0, 1] = system._covs[5, 1, 0] = -0.0
        x = np.array([0.5, 1.0, 2.0])
        alphas = np.zeros((12, 1))
        rows = np.array([0, 4, 8], dtype=np.intp)
        alphas[rows, 0] = [0.5, 0.25, 1.0]
        results = []
        for skipped in (math.inf, -1):  # the full stack, then the gather
            blended = copy.deepcopy(system)
            monkeypatch.setattr(fis, "_BLEND_MIN_SKIPPED", skipped)
            blended.advance_premises(x, alphas, rows)
            results.append(blended)
        for blended in results:
            assert np.signbit(blended._centers[5, 2])
            assert np.signbit(blended._covs[5, [0, 1], [1, 0]]).all()
        full, gathered = results
        assert full._centers.tobytes() == gathered._centers.tobytes()
        assert full._covs.tobytes() == gathered._covs.tobytes()

    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4),
           n_rows=st.integers(1, 12), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_advance_premises_paths_agree_on_negative_zeros(self, seed, d,
                                                            n_rows, data):
        rng = np.random.default_rng(seed)
        system = random_system(rng, n_rows, d, 2)
        # -0.0 entries in the centers, the covariances (mirrored) and x,
        # where the blend's zero products can meet them
        marked = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=1))
        for row in marked:
            i, j = rng.integers(0, d, size=2)
            system._centers[row, i] = -0.0
            system._covs[row, i, j] = system._covs[row, j, i] = -0.0
        system._invs[:] = regularized_inverse_stack(system._covs)
        x = rng.standard_normal(d)
        x[rng.random(d) < 0.3] = -0.0
        rows = np.array(data.draw(st.lists(st.integers(0, n_rows - 1),
                                           unique=True)), dtype=np.intp)
        alphas = np.zeros((n_rows, 1))
        alphas[rows, 0] = data.draw(st.lists(
            st.sampled_from([1.0, 0.5, 1e-3]), min_size=len(rows),
            max_size=len(rows)))
        idle = np.setdiff1d(np.arange(n_rows), rows)
        results = []
        for skipped in (math.inf, -1):  # the full stack, then the gather
            blended = copy.deepcopy(system)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(fis, "_BLEND_MIN_SKIPPED", skipped)
                blended.advance_premises(x, alphas, rows)
            # a zero-alpha row keeps its bits, -0.0 entries included
            for stack in ("_centers", "_covs", "_invs"):
                assert (getattr(blended, stack)[idle].tobytes()
                        == getattr(system, stack)[idle].tobytes())
            results.append(blended)
        full, gathered = results
        assert full._centers.tobytes() == gathered._centers.tobytes()
        assert full._covs.tobytes() == gathered._covs.tobytes()
        assert full._invs.tobytes() == gathered._invs.tobytes()

    def test_wrls_step_independent_of_stack_mates(self):
        # a row's update must be bitwise identical no matter how many other
        # rows share the stack — the learner's shadow rows rely on this
        rng = np.random.default_rng(31)
        bare = random_system(rng, 3, 3, 2)
        rng2 = np.random.default_rng(31)
        packed = random_system(rng2, 3, 3, 2)
        extras = [create_rule(rng.standard_normal(3), 0, 1.0, 100.0, 2, rule_id=50 + j)
                  for j in range(6)]
        attach_rows(packed, extras)
        x_aug = augment(rng.standard_normal(3))
        target = ONE_HOT[0]
        weights3 = np.array([0.7, 0.1, 0.4])
        bare.wrls_step(x_aug, weights3, target)
        packed.wrls_step(x_aug, np.concatenate([weights3, rng.uniform(0, 1, 6)]),
                         target)
        for a, b in zip(bare.rules, packed.rules):
            assert a.consequent.coeffs.tobytes() == b.consequent.coeffs.tobytes()
            assert a.consequent.corr.tobytes() == b.consequent.corr.tobytes()

    def test_advance_premises_independent_of_stack_mates(self):
        rng = np.random.default_rng(32)
        bare = random_system(rng, 3, 3, 2)
        rng2 = np.random.default_rng(32)
        packed = random_system(rng2, 3, 3, 2)
        extras = [create_rule(rng.standard_normal(3), 0, 1.0, 100.0, 2, rule_id=60 + j)
                  for j in range(6)]
        attach_rows(packed, extras)
        x = rng.standard_normal(3)
        alphas3 = np.array([[0.5], [0.0], [0.125]])
        alphas9 = np.vstack([alphas3, rng.uniform(0, 1, (6, 1))])
        bare.advance_premises(x, alphas3)
        packed.advance_premises(x, alphas9)
        for a, b in zip(bare.rules, packed.rules):
            assert a.premise.center.tobytes() == b.premise.center.tobytes()
            assert a.premise.cov.tobytes() == b.premise.cov.tobytes()
            assert a.premise.cov_inv.tobytes() == b.premise.cov_inv.tobytes()

    def test_downdate_row_guard_leaves_row_untouched(self):
        rng = np.random.default_rng(23)
        system = random_system(rng, 1, 1, 2)
        # engineer a near-total removal: the lone informative sample
        system.rules[0].consequent.corr[:] = np.eye(2)
        before = system.rules[0].consequent.corr.tobytes()
        assert not system.downdate_row(0, np.array([1.0, 0.0]), 1.0)
        assert system.rules[0].consequent.corr.tobytes() == before

    @pytest.mark.parametrize("n_rows, d, gathers", [(9, 3, False), (40, 3, True),
                                                   (12, 10, True)])
    def test_wrls_step_rows_matches_full_stack(self, n_rows, d, gathers):
        # the rows step reproduces the full-stack step bit for bit on the
        # listed rows and leaves the others unchanged, on both of its paths
        rng = np.random.default_rng(34)
        full = random_system(rng, n_rows, d, 2)
        listed = random_system(np.random.default_rng(34), n_rows, d, 2)
        x_aug = augment(rng.standard_normal(d))
        for system in (full, listed):  # make the correlations generic
            for _ in range(3):
                system.wrls_step(augment(np.ones(d)), np.full(n_rows, 0.3),
                                 ONE_HOT[1])
        rows = np.array([0, 1, 2, 7, 8], dtype=np.intp)
        assert ((n_rows - 5) * (d + 1) ** 2 > fis._GATHER_MIN_SKIPPED) == gathers
        weights = np.zeros(n_rows)
        weights[rows] = [0.4, 0.0, 0.25, 0.01, 0.02]
        corrs_before = listed._corrs.copy()
        coeffs_before = listed._coeffs.copy()
        full.wrls_step(x_aug, weights, ONE_HOT[0])
        listed.wrls_step(x_aug, weights[rows], ONE_HOT[0], rows)
        assert full._corrs[rows].tobytes() == listed._corrs[rows].tobytes()
        assert full._coeffs[rows].tobytes() == listed._coeffs[rows].tobytes()
        others = np.setdiff1d(np.arange(n_rows), rows)
        assert listed._corrs[others].tobytes() == corrs_before[others].tobytes()
        assert listed._coeffs[others].tobytes() == coeffs_before[others].tobytes()

    def test_downdate_rows_matches_per_row_bitwise(self):
        rng = np.random.default_rng(28)
        batched = random_system(rng, 6, 3, 2)
        single = random_system(np.random.default_rng(28), 6, 3, 2)
        for system in (batched, single):
            system.wrls_step(augment(np.ones(3)), np.full(6, 0.5), ONE_HOT[0])
            system.rules[2].consequent.corr[:] = np.eye(4)  # guard row
        rows = np.array([4, 0, 2, 5], dtype=np.intp)
        xs = np.array([augment(rng.standard_normal(3)) for _ in rows])
        xs[2] = [1.0, 0.0, 0.0, 0.0]
        weights = np.array([0.6, 0.3, 1.0, 0.05])
        before = batched._corrs.copy()
        ok = batched.downdate_rows(rows, xs, weights)
        assert ok.tolist() == [True, True, False, True]
        for row, x, w, flag in zip(rows, xs, weights, ok):
            assert single.downdate_row(int(row), x, float(w)) == flag
            # the single-row arithmetic, written out
            corr = before[row]
            u = corr @ x
            denom = 1.0 - float(w) * float(x @ u)
            expected = (corr + (float(w) / denom) * (u[:, None] * u)
                        if abs(denom) >= DOWNDATE_GUARD else corr)
            assert batched._corrs[row].tobytes() == expected.tobytes()
        assert batched._corrs.tobytes() == single._corrs.tobytes()
        # the guard row and the unlisted rows are untouched
        for row in (1, 2, 3):
            assert batched._corrs[row].tobytes() == before[row].tobytes()

    @pytest.mark.parametrize("guard_row", [None, 1])
    def test_downdate_leading_rows_in_place_matches_listed_rows(self, guard_row):
        rng = np.random.default_rng(29)
        systems = [random_system(np.random.default_rng(29), 6, 3, 2)
                   for _ in range(2)]
        for system in systems:
            system.wrls_step(augment(np.ones(3)), np.full(6, 0.5), ONE_HOT[0])
            if guard_row is not None:
                system.rules[guard_row].consequent.corr[:] = np.eye(4)
        xs = np.array([augment(rng.standard_normal(3)) for _ in range(4)])
        if guard_row is not None:
            xs[guard_row] = [1.0, 0.0, 0.0, 0.0]
        weights = np.array([0.6, 1.0 if guard_row else 0.3, 0.2, 0.05])
        in_place, listed = systems
        ok = in_place.downdate_rows(None, xs, weights)
        assert ok.tolist() == listed.downdate_rows(
            np.arange(4, dtype=np.intp), xs, weights).tolist()
        assert ok.all() == (guard_row is None)
        assert in_place._corrs.tobytes() == listed._corrs.tobytes()

    def test_downdate_row_pair_matches_sequential(self):
        rng = np.random.default_rng(24)
        sys_a = random_system(rng, 2, 3, 2)
        rng2 = np.random.default_rng(24)
        sys_b = random_system(rng2, 2, 3, 2)
        x_aug = augment(rng.standard_normal(3))
        weights = np.array([0.5, 0.3])
        sys_a.wrls_step(x_aug, weights, ONE_HOT[1])
        sys_b.wrls_step(x_aug, weights, ONE_HOT[1])
        ok = sys_a.downdate_row_pair(0, x_aug, weights)
        assert ok == (True, True)
        assert sys_b.downdate_row(0, x_aug, float(weights[0]))
        assert sys_b.downdate_row(1, x_aug, float(weights[1]))
        # both paths undo the same increment; they agree to rounding, which
        # shows up as absolute dust on the cancelled off-diagonal entries
        np.testing.assert_allclose(sys_a._corrs, sys_b._corrs,
                                   rtol=1e-12, atol=1e-9)

    def test_downdate_row_pair_guard_fallback(self):
        rng = np.random.default_rng(25)
        system = random_system(rng, 2, 1, 2)
        # row 0 trips the guard, row 1 is fine and must still downdate
        system.rules[0].consequent.corr[:] = np.eye(2)
        x_aug = np.array([1.0, 0.0])
        system.rules[1].consequent.corr[:] = 100.0 * np.eye(2)
        system.wrls_step(x_aug, np.array([0.0, 0.7]), ONE_HOT[0])
        before_0 = system.rules[0].consequent.corr.tobytes()
        # the single-row downdate, written out
        corr = system.rules[1].consequent.corr.copy()
        u = corr @ x_aug
        expected_1 = corr + (0.7 / (1.0 - 0.7 * float(x_aug @ u))) * (u[:, None] * u)
        ok0, ok1 = system.downdate_row_pair(0, x_aug, np.array([1.0, 0.7]))
        assert (ok0, ok1) == (False, True)
        assert system.rules[0].consequent.corr.tobytes() == before_0
        assert system.rules[1].consequent.corr.tobytes() == expected_1.tobytes()

    def test_quadratic_form_pair(self):
        rng = np.random.default_rng(26)
        system = random_system(rng, 4, 3, 2)
        vec = rng.standard_normal(3)
        out = system.quadratic_form_pair(1, vec)
        for k, row in enumerate((1, 2)):
            inv = system.rules[row].premise.cov_inv
            assert out[k] == pytest.approx(float(vec @ inv @ vec), rel=1e-12)


def conclusion_system(rng, n_rows=10, d=4, c=3):
    """Random correlations in the even rows, blank ones (omega I, zero
    coefficients) in the odd rows. A sample with exact-zero entries then
    gives the rank-one terms zero products of both signs, and row 2 fits
    the class-0 target exactly at the zero sample."""
    system = random_system(rng, n_rows, d, c)
    for row in range(0, n_rows, 2):
        system._corrs[row] = random_pd(rng, d + 1, scale=50.0)
    system._coeffs[1::2] = 0.0
    system._coeffs[2] = 0.0
    system._coeffs[2, 0] = np.eye(c)[0]
    return system


def conclusion_samples(rng, d, count=6):
    """Augmented samples: the zero sample, two with exact zeros between
    negative entries, then random ones."""
    xs = rng.standard_normal((count, d))
    xs[0] = 0.0
    xs[1:3, ::2] = 0.0
    xs[1:3, 1::2] = -np.abs(xs[1:3, 1::2])
    return np.array([augment(x) for x in xs])


def negative_zero_products(u):
    """Whether the broadcast products u_i u_j of some row hold a -0.0."""
    return has_negative_zero(u[:, :, None] * u[:, None, :])


class TestConclusionKernelsMatchBroadcast:
    """The conclusion kernels build their rank-one terms by einsum; on
    stacks free of -0.0 entries each result equals the broadcast formulas
    (helpers) bit for bit, through zero weights, exact-zero sample entries
    and zero residuals."""

    @pytest.mark.parametrize("path", ["full", "padded", "gather"])
    def test_wrls_step(self, monkeypatch, path):
        rng = np.random.default_rng(40)
        system = conclusion_system(rng)
        n = system.n_rows
        rows = None if path == "full" else np.array([0, 1, 3, 5, 2, 8], dtype=np.intp)
        monkeypatch.setattr(fis, "_GATHER_MIN_SKIPPED",
                            -1 if path == "gather" else math.inf)
        corrs, coeffs = system._corrs.copy(), system._coeffs.copy()
        for step, x_aug in enumerate(conclusion_samples(rng, 4)):
            weights = rng.uniform(0.0, 1.0, n if rows is None else rows.shape[0])
            weights[::3] = 0.0
            target = np.eye(3)[step % 3]
            if step == 0:  # row 2 fits the target exactly
                assert not (target - x_aug @ coeffs[2]).any()
            elif step < 3:
                assert negative_zero_products(corrs @ x_aug)
            system.wrls_step(x_aug, weights, target, rows)
            wrls_broadcast(corrs, coeffs, x_aug, weights, target, rows)
            assert system._corrs.tobytes() == corrs.tobytes()
            assert system._coeffs.tobytes() == coeffs.tobytes()
            assert not has_negative_zero(corrs) and not has_negative_zero(coeffs)

    @pytest.mark.parametrize("listed", [False, True])
    def test_downdate_rows(self, listed):
        rng = np.random.default_rng(41)
        system = conclusion_system(rng)
        system._corrs[2] = np.eye(5)  # trips the guard on x = e0, weight 1
        rows = np.array([0, 7, 2, 5, 9], dtype=np.intp) if listed else None
        xs = conclusion_samples(rng, 4, count=5)
        xs[2] = np.eye(5)[0]
        weights = np.array([0.6, 0.3, 1.0, 0.0, 0.2])
        corrs = system._corrs.copy()
        before = corrs.copy()
        picked = corrs[:5] if rows is None else corrs[rows]
        assert negative_zero_products(np.matmul(picked, xs[:, :, None])[:, :, 0])
        ok = system.downdate_rows(rows, xs, weights)
        assert ok.tolist() == downdate_rows_broadcast(corrs, rows, xs, weights).tolist()
        assert ok.tolist() == [True, True, False, True, True]
        assert system._corrs.tobytes() == corrs.tobytes()
        # the tripped row, and the zero-weight one, keep their bits
        for row in (2, 5 if listed else 3):
            assert system._corrs[row].tobytes() == before[row].tobytes()
        assert not has_negative_zero(corrs)

    @pytest.mark.parametrize("tripped", [None, 0, 1])
    @pytest.mark.parametrize("row", [4, 7])
    def test_downdate_row_pair(self, row, tripped):
        rng = np.random.default_rng(42)
        system = conclusion_system(rng)
        x_aug = conclusion_samples(rng, 4)[1]
        weights = np.array([0.4, 0.7])
        if tripped is not None:  # x' C x = 1 at weight 1
            system._corrs[row + tripped] = np.eye(5) / float(x_aug @ x_aug)
            weights[tripped] = 1.0
        corrs = system._corrs.copy()
        assert negative_zero_products(corrs[row:row + 2] @ x_aug)
        before = corrs.copy()
        flags = system.downdate_row_pair(row, x_aug, weights)
        assert flags == downdate_pair_broadcast(corrs, row, x_aug, weights)
        assert flags == (tripped != 0, tripped != 1)
        assert system._corrs.tobytes() == corrs.tobytes()
        for side in (0, 1):  # only a tripped side keeps its bits
            kept = system._corrs[row + side].tobytes() == before[row + side].tobytes()
            assert kept == (side == tripped)
        assert not has_negative_zero(corrs)
