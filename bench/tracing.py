"""Per-layer spans recorded from outside the package.

``Tracer.installed()`` replaces the public functions of each driftfis
module with timing wrappers and restores the originals on exit. A span's
self time is its duration minus the durations of the spans it encloses,
so the self times of all spans inside ``evaluation.periodic_holdout`` add
up to that call's duration. Work counts are taken at the same boundaries
from the arguments, the return values and the enclosing span; the time
spent counting is kept out of every span's self time and reported as
``trace.counting_s``.

Functions imported by name into another module are wrapped at each place
they are looked up (``regularized_inverse_stack`` in ``fis``,
``spawn_pair`` in ``learner``, ``chunk_stream`` and ``model_state_hash``
in ``evaluation``), since rebinding the defining module alone would miss
those calls.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

from driftfis import (
    anticipation,
    evaluation,
    fis,
    forgetting,
    learner,
    linalg,
    snapshot,
    streams,
)

perf_counter = time.perf_counter


def _count_advance(counts, args, kwargs, result, parent):
    alphas = args[2]
    counts["fis.advance_premises.rows_active"] += int(np.count_nonzero(alphas))


def _count_wrls(counts, args, kwargs, result, parent):
    weights = args[2]
    counts["fis.wrls_step.rows"] += weights.shape[0]
    counts["fis.wrls_step.active_rows"] += int(np.count_nonzero(weights))


def _count_set_rows(counts, args, kwargs, result, parent):
    system = args[0]
    counts["fis.set_rows.rows_copied"] += system.n_rows
    counts["learner.max_stack_rows"] = max(counts["learner.max_stack_rows"],
                                           system.n_rows)


def _count_separation(counts, args, kwargs, result, parent):
    counts["anticipation.separation_tests"] += 1


def _count_downdate(counts, args, kwargs, result, parent):
    counts["forgetting.guard_skips"] += int(not result)


def _count_downdate_pair(counts, args, kwargs, result, parent):
    weights = args[3]
    for ok, weight in zip(result, weights):
        counts["forgetting.guard_skips"] += int(not ok and weight != 0.0)


def _count_push(counts, args, kwargs, result, parent):
    counts["forgetting.evictions"] += int(result is not None)


def _count_inverse(counts, args, kwargs, result, parent):
    counts["linalg.regularized_inverse_stack.matrices"] += result.shape[0]
    # advance_premises re-inverts exactly the rows it blended
    if parent == "fis.advance_premises":
        counts["fis.advance_premises.rows_blended"] += result.shape[0]


# (owner, attribute, span name, counter); owners are modules or classes
TARGETS = [
    (learner.AnticipatingClassifier, "learn_one", "learner.learn_one", None),
    (learner.AnticipatingClassifier, "predict_one", "learner.predict_one", None),
    (fis.FuzzySystem, "memberships_all", "fis.memberships_all", None),
    (fis.FuzzySystem, "advance_premises", "fis.advance_premises", _count_advance),
    (fis.FuzzySystem, "wrls_step", "fis.wrls_step", _count_wrls),
    (fis.FuzzySystem, "downdate_row_pair", "fis.downdate_row_pair", _count_downdate_pair),
    (fis.FuzzySystem, "downdate_row", "fis.downdate_row", _count_downdate),
    (fis.FuzzySystem, "quadratic_form_pair", "fis.quadratic_form_pair", _count_separation),
    (fis.FuzzySystem, "scores_from_memberships", "fis.scores_from_memberships", None),
    (fis.FuzzySystem, "predict_class", "fis.predict_class", None),
    (fis.FuzzySystem, "set_rows", "fis.set_rows", _count_set_rows),
    (fis, "regularized_inverse_stack", "linalg.regularized_inverse_stack", _count_inverse),
    (learner, "spawn_pair", "anticipation.spawn_pair", None),
    (forgetting.DDFWindow, "push", "forgetting.push", _count_push),
    (snapshot, "model_state_hash", "snapshot.model_state_hash", None),
    (evaluation, "model_state_hash", "snapshot.model_state_hash", None),
    (evaluation, "periodic_holdout", "evaluation.periodic_holdout", None),
    (streams, "make_stream", "streams.make_stream", None),
    (streams, "chunk_stream", "streams.chunk_stream", None),
    (evaluation, "chunk_stream", "streams.chunk_stream", None),
    (streams.Standardizer, "transform", "streams.Standardizer.transform", None),
]

if (fis.regularized_inverse_stack is not linalg.regularized_inverse_stack
        or learner.spawn_pair is not anticipation.spawn_pair):
    raise ImportError("driftfis no longer imports the traced functions by name")


class Tracer:
    """Span self times, call counts and work counts for one traced region."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.counting_s = 0.0
        self._child: list[float] = []  # time under child spans, per open span
        self._open: list[str] = []     # names of the open spans
        self._originals: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Zero all records in place (the wrappers hold these dicts)."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.counting_s = 0.0

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def _wrap(self, fn, name, counter):
        calls = self.calls
        self_s = self.self_s
        child = self._child
        open_spans = self._open

        def traced(*args, **kwargs):
            child.append(0.0)
            open_spans.append(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                self_s[name] += duration - child.pop()
                open_spans.pop()
                calls[name] += 1
                if child:
                    child[-1] += duration
            if counter is not None:
                t1 = perf_counter()
                counter(self.counts, args, kwargs, result,
                        open_spans[-1] if open_spans else None)
                spent = perf_counter() - t1
                self.counting_s += spent
                if child:
                    child[-1] += spent
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        try:
            for owner, attr, name, counter in TARGETS:
                original = vars(owner)[attr]
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield self
        finally:
            while self._originals:
                owner, attr, original = self._originals.pop()
                setattr(owner, attr, original)
