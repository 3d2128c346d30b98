"""Kernel sweep: FuzzySystem kernels timed at fixed rule counts.

Each system is built from the public ``create_rule`` and constructor, so
the stack holds exactly ``n_rules`` rows (no shadow pairs). A kernel's
time is the best of ``REPEATS`` batches of ``CALLS`` calls, each batch on
a fresh copy of the system so mutating kernels start from the same state.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from driftfis.fis import FuzzySystem, create_rule

RULE_COUNTS = (2, 10, 30, 100)
KERNELS = ("memberships_all", "advance_premises", "wrls_step",
           "downdate_row_pair", "quadratic_form_pair", "predict_class")
REPEATS = 5
CALLS = 40
N_CLASSES = 2


def build_system(n_rules: int, d: int, rng) -> FuzzySystem:
    rules = [create_rule(rng.uniform(-1.0, 1.0, size=d), i % N_CLASSES,
                         sigma_init=1.0, omega=100.0, n_classes=N_CLASSES,
                         rule_id=i)
             for i in range(n_rules)]
    return FuzzySystem(d, N_CLASSES, rules)


def _calls(system: FuzzySystem, x: np.ndarray):
    """One zero-argument closure per kernel, with learner-like arguments."""
    n = system.n_rows
    x_aug = np.concatenate(([1.0], x))
    alphas = np.zeros((n, 1))
    rows = np.arange(min(3, n), dtype=np.intp)   # winner plus its pair
    alphas[rows, 0] = 0.01
    weights = np.full(n, 1.0 / n)
    target = np.eye(N_CLASSES)[0]
    pair_weights = np.full(2, 1e-4)
    unit = np.zeros_like(x)
    unit[0] = 1.0
    return {
        "memberships_all": lambda: system.memberships_all(x),
        "advance_premises": lambda: system.advance_premises(x, alphas, rows),
        "wrls_step": lambda: system.wrls_step(x_aug, weights, target),
        "downdate_row_pair": lambda: system.downdate_row_pair(0, x_aug, pair_weights),
        "quadratic_form_pair": lambda: system.quadratic_form_pair(0, unit),
        "predict_class": lambda: system.predict_class(x),
    }


def kernel_sweep(d: int, seed: int) -> dict[str, float]:
    """Best-of-k microseconds per call, keyed ``fis.<kernel>.r<N>_us``."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=d)
    out = {}
    for n_rules in RULE_COUNTS:
        base = build_system(n_rules, d, rng)
        for kernel in KERNELS:
            best = float("inf")
            for _ in range(REPEATS):
                call = _calls(copy.deepcopy(base), x)[kernel]
                t0 = time.perf_counter()
                for _ in range(CALLS):
                    call()
                best = min(best, time.perf_counter() - t0)
            out[f"fis.{kernel}.r{n_rules}_us"] = best / CALLS * 1e6
    return out
