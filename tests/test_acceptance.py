"""Acceptance gate: one test per external guarantee, at pinned tolerances.

Every test prints a single ``[acceptance] criterion N (...): PASS/FAIL``
line so the whole gate reads off the terminal at a glance. Criteria 1-3
drive the stacked kernels and the forgetting code the learner runs
(FuzzySystem.wrls_step, WindowBank.forget with downdate_rows,
WindowBank.forget_pair with downdate_row_pair, advance_premises).
Expectations come from independent oracles: closed-form weighted ridge
solutions, correlations rebuilt from the window contents, a 50-digit
re-execution of the premise recursion, hand-checkable contingency tables,
and a plain reference classifier driven through the same batched
operations.
"""

import math
import time

import mpmath
import numpy as np

from driftfis import fis
from driftfis.config import ExperimentConfig, LearnerConfig
from driftfis.evaluation import mcnemar, run_experiment
from driftfis.fis import FuzzySystem, augment, create_rule, seed_row
from driftfis.forgetting import WindowBank
from driftfis.learner import AnticipatingClassifier
from helpers import advance_row, blank_system, random_system


def _report(capsys, num, name, ok, detail=""):
    line = f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line)


def _ridge_error(coeffs, Xa, w, Y, omega):
    """Relative distance of coeffs from the weighted ridge solution with
    an I/omega prior."""
    gram = np.eye(Xa.shape[1]) / omega + (Xa * w[:, None]).T @ Xa
    theta = np.linalg.solve(gram, (Xa * w[:, None]).T @ Y)
    scale = np.linalg.norm(theta)
    return float(np.linalg.norm(coeffs - theta)) / (scale if scale > 0.0 else 1.0)


def test_criterion_1_wrls_matches_closed_form(capsys):
    # sequential recursive updates must land on the batch weighted ridge
    # solution (I/omega prior) for any stream shape, row by row: on a
    # one-row and a many-row stack, each stepped whole and through a row
    # list, every row of the many-row stack with its own omega and weights
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    gathered = set()
    for _ in range(50):
        d = int(rng.integers(1, 11))
        c = int(rng.integers(1, 5))
        t = int(rng.integers(1, 501))
        omega = float(10.0 ** rng.uniform(-1.0, 2.0))
        X = rng.normal(size=(t, d))
        Y = rng.normal(size=(t, c))
        w = rng.uniform(0.0, 1.0, size=t)
        w[rng.random(t) < 0.1] = 0.0
        m = int(rng.integers(2, 13))
        omegas = 10.0 ** rng.uniform(-1.0, 2.0, size=m)
        W = rng.uniform(0.0, 1.0, size=(t, m))
        W[rng.random((t, m)) < 0.1] = 0.0
        listed = rng.permutation(m)[:int(rng.integers(1, m + 1))]
        gathered.add((m - listed.size) * (d + 1) ** 2 > fis._GATHER_MIN_SKIPPED)
        one, one_listed = blank_system(d, c, [omega]), blank_system(d, c, [omega])
        many, many_listed = blank_system(d, c, omegas), blank_system(d, c, omegas)
        row0 = np.zeros(1, dtype=np.intp)
        for i in range(t):
            x_aug = augment(X[i])
            one.wrls_step(x_aug, w[i:i + 1], Y[i])
            one_listed.wrls_step(x_aug, w[i:i + 1], Y[i], row0)
            many.wrls_step(x_aug, W[i], Y[i])
            many_listed.wrls_step(x_aug, W[i, listed], Y[i], listed)
        Xa = np.hstack([np.ones((t, 1)), X])
        W_listed = np.zeros_like(W)
        W_listed[:, listed] = W[:, listed]
        for system in (one, one_listed):
            worst = max(worst, _ridge_error(system._coeffs[0], Xa, w, Y, omega))
        for system, weights in ((many, W), (many_listed, W_listed)):
            for row in range(m):
                worst = max(worst, _ridge_error(system._coeffs[row], Xa,
                                                weights[:, row], Y, omegas[row]))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0 and gathered == {False, True}
    _report(capsys, 1, "recursive least squares vs closed form", ok,
            f"worst rel err {worst:.2e}, {elapsed:.2f}s for 50 streams")
    assert worst < 1e-8
    assert elapsed < 5.0
    assert gathered == {False, True}  # both row-list paths of wrls_step ran


def test_criterion_2_forgetting_window_consistency(capsys):
    # after every deferred-forgetting step the inverse correlation of each
    # row must equal its prior plus exactly the weighted outer products
    # still in its window: the principal rows forget through
    # WindowBank.forget, a slow/fast shadow pair in the same bank through
    # WindowBank.forget_pair, every row with its own omega and weights
    rng = np.random.default_rng(202)
    d, c, n = 3, 2, 4
    worst = 0.0
    for ws in (5, 20, 100):
        for _ in range(10):
            omegas = 10.0 ** rng.uniform(0.0, 2.0, size=n + 2)
            priors = np.eye(d + 1) / omegas[:, None, None]
            system = blank_system(d, c, omegas)
            bank = WindowBank(ws, d + 1)
            bank.set_rows(np.arange(n + 2))  # blank rows: n rules, one pair
            Xa = np.column_stack([np.ones(1000), rng.normal(size=(1000, d))])
            W = rng.uniform(0.0, 1.0, size=(1000, n + 2))
            W[rng.random((1000, n + 2)) < 0.1] = 0.0
            Y = np.eye(c)[rng.integers(0, c, size=1000)]
            for x_aug, weights, target in zip(Xa, W, Y):
                system.wrls_step(x_aug, weights, target)
                bank.forget(system, x_aug, weights[:n])
                bank.forget_pair(system, n, x_aug, float(weights[n]),
                                 float(weights[n + 1]))
                # every window records every sample, so the fills are equal
                xs, wts = bank.entries()
                xs = xs.reshape(n + 2, -1, d + 1)
                wts = wts.reshape(n + 2, -1)
                held = np.swapaxes(xs * wts[:, :, None], 1, 2) @ xs
                err = np.linalg.norm(np.linalg.inv(system._corrs)
                                     - (priors + held), axis=(1, 2))
                worst = max(worst, float(err.max()))
            assert not bank.counts()[1].any()

    # an increment followed by its exact downdate is an involution
    worst_rt = 0.0
    for _ in range(30):
        omegas = 10.0 ** rng.uniform(0.0, 2.0, size=3)
        system = blank_system(d, c, omegas)
        for _ in range(int(rng.integers(1, 30))):
            system.wrls_step(augment(rng.normal(size=d)),
                             rng.uniform(0.1, 1.0, size=3),
                             np.eye(c)[int(rng.integers(0, c))])
        corr_before = system._corrs.copy()
        x_aug = augment(rng.normal(size=d))
        wts = rng.uniform(0.1, 1.0, size=3)
        system.wrls_step(x_aug, wts, np.eye(c)[0])
        for row in range(3):
            assert system.downdate_row(row, x_aug, float(wts[row]))
        rel = (np.linalg.norm(system._corrs - corr_before, axis=(1, 2))
               / np.linalg.norm(corr_before, axis=(1, 2)))
        worst_rt = max(worst_rt, float(rel.max()))

    ok = worst < 1e-6 and worst_rt < 1e-8
    _report(capsys, 2, "forgetting window consistency", ok,
            f"worst identity err {worst:.2e}, worst roundtrip {worst_rt:.2e}")
    assert worst < 1e-6
    assert worst_rt < 1e-8


def _tracked_rows(x0):
    """(system, row) in a 3-row and a 9-row stack, every row a unit premise
    at x0; advance_premises blends just the tracked row of either."""
    return [(FuzzySystem(x0.shape[0], 2, [create_rule(x0, 0, 1.0, 100.0, 2, rule_id=i)
                                          for i in range(size)]), row)
            for size, row in ((3, 1), (9, 6))]


def test_criterion_3_premise_recursions(capsys):
    rng = np.random.default_rng(303)

    # unbounded horizon reproduces the running mean exactly
    d = 3
    X = rng.normal(size=(10_000, d)) * 2.0 + 0.5
    mean_err = 0.0
    for system, row in _tracked_rows(X[0]):
        for x in X[1:]:
            advance_row(system, row, x)
        center = system.rules[row].premise.center
        mean_err = max(mean_err, float(np.max(np.abs(center - X.mean(axis=0)))))

    # bounded horizon matches a 50-digit re-execution of the recursion
    tmax = 20
    X2 = rng.normal(size=(2000, 2))
    tracked = _tracked_rows(X2[0])
    for system, row in tracked:
        for x in X2[1:]:
            advance_row(system, row, x, tmax)
    with mpmath.workdps(50):
        center = [mpmath.mpf(float(v)) for v in X2[0]]
        cov = [[mpmath.mpf(1 if i == j else 0) for j in range(2)]
               for i in range(2)]
        hits = 1
        for x in X2[1:]:
            hits += 1
            alpha = mpmath.mpf(1) / min(hits, tmax)
            keep = 1 - alpha
            xs = [mpmath.mpf(float(v)) for v in x]
            center = [keep * center[i] + alpha * xs[i] for i in range(2)]
            resid = [xs[i] - center[i] for i in range(2)]
            cov = [[keep * cov[i][j] + alpha * resid[i] * resid[j]
                    for j in range(2)] for i in range(2)]
        center_err = cov_err = 0.0
        for system, row in tracked:
            premise = system.rules[row].premise
            center_err = max(center_err, *(abs(float(premise.center[i] - center[i]))
                                           for i in range(2)))
            cov_err = max(cov_err, *(abs(float(premise.cov[i, j] - cov[i][j]))
                                     for i in range(2) for j in range(2)))

    ok = mean_err < 1e-12 and center_err < 1e-12 and cov_err < 1e-12
    _report(capsys, 3, "premise recursion vs mean and 50-digit rerun", ok,
            f"mean err {mean_err:.2e}, center err {center_err:.2e}, "
            f"cov err {cov_err:.2e}")
    assert mean_err < 1e-12
    assert center_err < 1e-12
    assert cov_err < 1e-12


def test_criterion_4_membership_normalization(capsys):
    rng = np.random.default_rng(404)
    worst = 0.0
    evaluated = 0
    while evaluated < 1_000_000:
        system = random_system(rng, int(rng.integers(1, 9)),
                               int(rng.integers(1, 7)), int(rng.integers(1, 4)))
        X = rng.uniform(-5.0, 5.0, size=(50_000, system.n_features))
        for x in X:
            m = system.memberships(x)
            err = abs(float((m / m.sum()).sum()) - 1.0)
            if err > worst:
                worst = err
        evaluated += len(X)
    ok = worst < 1e-12
    _report(capsys, 4, "normalized memberships sum to one", ok,
            f"worst |sum-1| {worst:.2e} over {evaluated:,} evaluations")
    assert worst < 1e-12


def test_criterion_5_drift_detection_latency(capsys):
    # a 10-sigma jump of one class at sample 1000 must be flagged within
    # 300 samples in at least 18 of 20 seeds, with no earlier false alarm
    # in at least 18 of 20
    detected = 0
    clean = 0
    centers = np.array([[0.0, 0.0], [3.0, 3.0]])
    for seed in range(20):
        rng = np.random.default_rng(seed)
        learner = AnticipatingClassifier(2, 2, LearnerConfig(
            tmax1=200, tmax2=10, ks=0.5, nmin=20,
            strategy="naive", forgetting_mode="forget_am"))
        y = rng.integers(0, 2, 2000)
        X = centers[y] + rng.normal(0.0, 0.5, (2000, 2))
        late = y == 1
        late[:1000] = False
        X[late] += 5.0
        for i in range(2000):
            learner.learn_one(X[i], int(y[i]))
        idxs = [event.sample_index for event in learner.drift_log]
        if any(1000 <= i <= 1300 for i in idxs):
            detected += 1
        if not any(i < 1000 for i in idxs):
            clean += 1
    ok = detected >= 18 and clean >= 18
    _report(capsys, 5, "drift detection latency", ok,
            f"{detected}/20 seeds within 300 samples, {clean}/20 no false alarms")
    assert detected >= 18
    assert clean >= 18


def test_criterion_6_benchmark_strategy_ordering(capsys):
    # on the three standard streams the global replacement strategy must
    # at least match naive replacement (within 0.01) and no-forgetting,
    # and reach 0.90 on the sea stream; each dataset within two minutes
    arms = {
        "global": ("global", "forget_am"),
        "naive": ("naive", "forget_am"),
        "none": ("naive", "none"),
    }
    details = []
    ok = True
    for dataset in ("sea", "line", "sin"):
        t0 = time.perf_counter()
        acc = {}
        for name, (strategy, mode) in arms.items():
            cfg = ExperimentConfig(dataset=dataset, seed=0, learner=LearnerConfig(
                strategy=strategy, forgetting_mode=mode))
            acc[name] = run_experiment(cfg).result.mean_accuracy
        elapsed = time.perf_counter() - t0
        details.append(f"{dataset}: global {acc['global']:.3f} naive "
                       f"{acc['naive']:.3f} none {acc['none']:.3f} "
                       f"({elapsed:.0f}s)")
        ok = ok and acc["global"] >= acc["naive"] - 0.01
        ok = ok and acc["global"] >= acc["none"]
        ok = ok and elapsed < 120.0
        if dataset == "sea":
            ok = ok and acc["global"] >= 0.90
        assert acc["global"] >= acc["naive"] - 0.01, (dataset, acc)
        assert acc["global"] >= acc["none"], (dataset, acc)
        assert elapsed < 120.0, dataset
        if dataset == "sea":
            assert acc["global"] >= 0.90, acc
    _report(capsys, 6, "benchmark strategy ordering", ok, "; ".join(details))
    assert ok


def test_criterion_7_mcnemar_worked_example(capsys):
    truth = np.zeros(40, dtype=int)
    preds_a = np.zeros(40, dtype=int)
    preds_b = np.zeros(40, dtype=int)
    preds_b[:15] = 1     # a right, b wrong: n10 = 15
    preds_a[15:20] = 1   # a wrong, b right: n01 = 5
    out = mcnemar(preds_a, preds_b, truth)
    ok = (out.n10 == 15 and out.n01 == 5 and out.k_statistic == 5.0
          and out.verdict == "approx" and out.low_contingency
          and out.symbol() == "≈ (x)")

    rng = np.random.default_rng(707)
    symmetric = True
    for _ in range(100):
        t = rng.integers(0, 3, 60)
        pa = rng.integers(0, 3, 60)
        pb = rng.integers(0, 3, 60)
        fwd = mcnemar(pa, pb, t)
        rev = mcnemar(pb, pa, t)
        if (fwd.k_statistic != rev.k_statistic or fwd.n10 != rev.n01
                or fwd.n01 != rev.n10):
            symmetric = False
    ok = ok and symmetric
    _report(capsys, 7, "mcnemar worked example and symmetry", ok,
            f"K={out.k_statistic}, verdict {out.symbol()}")
    assert out.n10 == 15 and out.n01 == 5
    assert out.k_statistic == 5.0
    assert out.verdict == "approx" and out.low_contingency
    assert out.symbol() == "≈ (x)"
    assert symmetric


class PlainStreamingBaseline:
    """Reference classifier without any anticipation machinery.

    Drives the same batched FuzzySystem operations as the full learner but
    keeps no shadow rows: score, winner premise advance, one normalized
    WRLS step. Used to pin down that disabling detection and forgetting
    reduces the full learner to exactly this behavior, bit for bit.
    """

    def __init__(self, n_features, n_classes, sigma_init=1.0, omega=100.0):
        self.system = FuzzySystem(n_features=n_features, n_classes=n_classes)
        self.sigma_init = sigma_init
        self.omega = omega
        self.seen = set()
        self.next_id = 0
        self._x_aug = np.empty(n_features + 1)
        self._x_aug[0] = 1.0
        self._targets = np.eye(n_classes)

    def _birth(self, x, y):
        system = self.system
        n = len(system)
        system.set_rows(np.append(system.ids, self.next_id),
                        np.append(system.born_classes, y), np.arange(n + 1),
                        extra=seed_row(x, self.sigma_init, self.omega,
                                       system.n_classes))
        self.next_id += 1
        self.seen.add(y)

    def learn_one(self, x, y):
        system = self.system
        n = len(system)
        if not n:
            self._birth(x, y)
            return y
        betas = system.memberships(x)
        bsum = float(betas.sum())
        x_aug = self._x_aug
        x_aug[1:] = x
        prediction = int(np.argmax(
            system.scores_from_memberships(betas, x_aug, bsum)))
        if y not in self.seen:
            self._birth(x, y)
            betas = system.memberships(x)
            wvec = np.empty(len(system))
            np.divide(betas, betas.sum(), out=wvec)
            system.wrls_step(x_aug, wvec, self._targets[y])
            return prediction
        winner = int(np.argmax(betas))
        system.hits[winner] += 1
        alphas = np.zeros((n, 1))
        alphas[winner, 0] = 1.0 / int(system.hits[winner])
        system.advance_premises(x, alphas, np.array([winner], dtype=np.intp))
        wvec = np.empty(n)
        np.divide(betas, bsum, out=wvec)
        system.wrls_step(x_aug, wvec, self._targets[y])
        return prediction


def _equivalence_streams():
    rng = np.random.default_rng(808)
    streams = []

    centers3 = np.array([[0.0, 0.0, 0.0], [2.5, 2.5, 2.5]])
    y = rng.integers(0, 2, 500)
    X = centers3[y] + rng.normal(0.0, 1.0, (500, 3))
    streams.append(("two gaussians", X, y, 2))

    centers2 = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 4.0]])
    y = np.concatenate([rng.integers(0, 2, 200), rng.integers(0, 3, 300)])
    X = centers2[y] + rng.normal(0.0, 0.8, (500, 2))
    streams.append(("late third class", X, y, 3))

    X = rng.uniform(0.0, 10.0, (500, 3))
    y = (X.sum(axis=1) > 15.0).astype(int)
    streams.append(("uniform threshold", X, y, 2))
    return streams


def test_criterion_8_disabled_equals_plain_baseline(capsys):
    ok = True
    details = []
    for name, X, y, c in _equivalence_streams():
        learner = AnticipatingClassifier(X.shape[1], c, LearnerConfig(
            ks=math.inf, forgetting_mode="none"))
        base = PlainStreamingBaseline(X.shape[1], c)
        same_preds = True
        for i in range(len(y)):
            if learner.learn_one(X[i], int(y[i])) != base.learn_one(X[i], int(y[i])):
                same_preds = False
        same_state = len(learner.system.rules) == len(base.system.rules)
        if same_state:
            for ra, rb in zip(learner.system.rules, base.system.rules):
                same_state = same_state and ra.premise.hits == rb.premise.hits
                for arr_a, arr_b in (
                        (ra.premise.center, rb.premise.center),
                        (ra.premise.cov, rb.premise.cov),
                        (ra.premise.cov_inv, rb.premise.cov_inv),
                        (ra.consequent.coeffs, rb.consequent.coeffs),
                        (ra.consequent.corr, rb.consequent.corr)):
                    same_state = same_state and arr_a.tobytes() == arr_b.tobytes()
        ok = ok and same_preds and same_state
        details.append(f"{name}: preds {'=' if same_preds else '!='}, "
                       f"state {'=' if same_state else '!='}")
        assert same_preds, name
        assert same_state, name
        assert not learner.drift_log
    _report(capsys, 8, "disabled anticipation equals plain baseline", ok,
            "; ".join(details))
    assert ok


def test_criterion_9_throughput(capsys):
    rng = np.random.default_rng(909)
    centers = np.array([[0.0] * 4, [4.0] * 4])

    def blob(n, shift):
        y = rng.integers(0, 2, n)
        X = centers[y].copy()
        X[y == 0] += shift
        X += rng.normal(0.0, 1.0, (n, 4))
        return X, [int(v) for v in y]

    def feed(learner, X, y):
        learn = learner.learn_one
        for i in range(len(y)):
            learn(X[i], y[i])

    def rate(learner, shift, reps=3, n=5000):
        best = 0.0
        for _ in range(reps):
            X, y = blob(n, shift)
            learn = learner.learn_one
            t0 = time.perf_counter()
            for i in range(n):
                learn(X[i], y[i])
            best = max(best, n / (time.perf_counter() - t0))
        return best

    learner = AnticipatingClassifier(4, 2, LearnerConfig(ks=5.0, ws=50))
    X, y = blob(3000, np.zeros(4))
    feed(learner, X, y)
    rate_settled = rate(learner, np.zeros(4))
    rules_settled = learner.n_rules

    # stress figure (reported, not gated): force the rule base to the
    # envelope edge of ten rules by repeatedly relocating one class, then
    # re-measure on a stationary tail
    learner.config.ks = 0.32
    shift = np.zeros(4)
    fed = 0
    while learner.n_rules < 10 and fed < 40_000:
        shift[(fed // 400) % 4] += 3.0
        Xg, yg = blob(400, shift)
        for i in range(400):
            learner.learn_one(Xg[i], yg[i])
            fed += 1
            if learner.n_rules >= 10:
                break
    learner.config.ks = 5.0
    Xw, yw = blob(2000, shift)
    feed(learner, Xw, yw)
    rate_stress = rate(learner, shift)

    ok = rate_settled >= 10_000.0 and rules_settled <= 10
    _report(capsys, 9, "throughput", ok,
            f"{rate_settled:,.0f}/s at {rules_settled} rules; "
            f"stress {rate_stress:,.0f}/s at {learner.n_rules} rules")
    assert rules_settled <= 10
    assert learner.n_rules <= 10
    assert rate_settled >= 10_000.0
