"""Drift anticipation: shadow sub-rule pairs that track each principal rule.

Every principal rule carries an anticipated pair: a slow sub-rule (long
premise horizon) and a fast sub-rule (short horizon). Both start as copies
of the parent and adapt on the same samples the parent wins, so under a
stationary distribution they stay on top of each other, while under drift
the fast one slides toward the new data and the two centers separate. The
separation test, FuzzySystem.pair_separation, compares the center gap
against the sum of the ellipsoid radii of the two sub-rule clusters along
the gap direction.

A pair is state in two places only: its two rows of the FuzzySystem
stacks and the same two rows of the learner's WindowBank, next to each
other, plus its entry of the learner's int64 array of pair sample counts
(pair_seen). spawn_pair finishes those rows. AnticipatedPair and SubRule
are views of them, which AnticipatingClassifier.anticipations alone
builds; the snapshot writer reads the rows directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import AM_INITS
from .fis import Consequent, FuzzySystem, Premise
from .forgetting import DDFWindow


@dataclass
class SubRule:
    """One member of an anticipated pair: views of its premise, consequent
    and window rows."""

    premise: Premise
    consequent: Consequent
    window: DDFWindow


@dataclass
class AnticipatedPair:
    """Slow/fast shadow pair attached to one principal rule, as the learner
    hands it out: a view of the pair's rows
    (AnticipatingClassifier.anticipations)."""

    slow: SubRule
    fast: SubRule
    samples_seen: int = 0


def spawn_pair(system: FuzzySystem, rows: np.ndarray, slow_horizon: int,
               fast_horizon: int, init: str, omega: float) -> None:
    """Finish the shadow pairs whose rows were just copied from their parents.

    Each pair holds rows (row, row + 1) for a row in ``rows``, both copies
    of the parent rule's row (FuzzySystem.set_rows). Each sub-rule caps
    its hits at its horizon, which makes it exactly as plastic as one that
    had always lived at this horizon: a long-lived parent would otherwise
    pin the fast sub-rule's fading factor to 1/horizon. ``init`` "parent"
    keeps the consequent copy, "zero" restarts it blank (zero
    coefficients, omega * I correlation). The pairs' windows are blank
    rows of the window bank: the correlation copy already embodies the
    parent's window history, and re-evicting those samples would
    double-count them.
    """
    if init not in AM_INITS:
        raise ValueError(f"unknown anticipation init {init!r}")
    hits = system.hits
    hits[rows] = np.minimum(hits[rows], slow_horizon)
    hits[rows + 1] = np.minimum(hits[rows + 1], fast_horizon)
    if init == "zero":
        both = np.concatenate((rows, rows + 1))
        system._coeffs[both] = 0.0
        system._corrs[both] = omega * np.eye(system.n_features + 1)


@dataclass
class DriftEvent:
    """One detector firing: where, on which rule, and how separated."""

    sample_index: int
    rule_id: int
    strategy: str
    separation: float
