"""Streaming classifier with evolving fuzzy rules and drift anticipation.

The principal rule base predicts and adapts without forgetting. In its
shadow, every rule carries a slow/fast sub-rule pair trained on the same
samples; when the pair's centers separate beyond the configured threshold,
the rule is declared drifted and surgically replaced by its two sub-rules
(optionally swapping every other rule's conclusion for its own shadow
copy). Conclusion matrices may additionally use deferred directional
forgetting, in the shadow pairs and/or the principal system.

The FuzzySystem stacks hold every rule and sub-rule as a row: rule i is
row i, its shadow pair rows n+2i (slow) and n+2i+1 (fast); rule ids and
born classes are the system's two int64 arrays, the pairs' sample counts
the learner's int64 array pair_seen, the seen classes are the born ones,
and next_rule_id is one past the largest id. Births (one seed_row
appended) and replacements are row gathers of the stacks, the arrays and
the WindowBank (row r the window of stack row r), both through _set_rows,
whose spawn mask starts fresh pairs; class growth only pads the
coefficient stack with zero columns (FuzzySystem.grow_classes). Per
sample, one batched membership pass scores the principal rules and picks
the winner; only the winner's pair carries weight among the shadow rows.
On small stacks that pass scores every row, the pairs too; once the other
pairs' rows outweigh a second call (_SPLIT_MIN_SKIPPED), it stops at the
principal rows and a second call scores the winner's pair, with the same
bits. One batched premise update covers the winner and its pair, and
every sample but the founding one ends in _learn_conclusions: one batched
WRLS step over the principal rules and that pair (none on a class birth),
and the principal windows' forgetting. The rules and pairs handed out are
views of rows.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import replace
from types import MappingProxyType

import numpy as np

from .anticipation import AnticipatedPair, DriftEvent, SubRule, spawn_pair
from .config import ConfigError, LearnerConfig
from .fis import FuzzySystem, NonFiniteInputError, Rows, membership_sum, seed_row
from .forgetting import WindowBank

# Scoring only the winner's pair takes a second membership call; it pays
# once the 2(n - 1) other pair rows it skips cost more than this. A row
# costs about its d^2 inverse entries plus 21 entries' worth of fixed work
# (measured crossovers: 45 rules at 3 features, 37 at 4, 12 at 10).
_SPLIT_MIN_SKIPPED = 2640


class UnknownClassError(ValueError):
    """A label that is no class index: not an integer (an integral float
    counts as one, a bool, numpy's too, as 0 or 1), negative, or outside
    the declared class set with growth disabled."""


class AnticipatingClassifier:
    """Evolving Takagi-Sugeno classifier with per-rule drift anticipation.

    Streaming protocol: ``predict_one(x)`` scores a sample without side
    effects; ``learn_one(x, y)`` first predicts, then folds the labeled
    sample into the model, and returns that pre-update prediction.
    """

    def __init__(self, n_features: int, n_classes: int,
                 config: LearnerConfig | None = None):
        if n_features < 1 or n_classes < 1:
            raise ValueError("n_features and n_classes must be positive")
        # a copy, so the caller's object stays as given and later edits to
        # it cannot reach the model
        self.config = replace(config) if config is not None else LearnerConfig()
        self.config.validate()
        # numpy numbers, which validate admits, become the equal Python
        # ones, so the snapshot's JSON can encode them
        for name, value in vars(self.config).items():
            if isinstance(value, np.generic):
                setattr(self.config, name, value.item())
        # a seed premise is sigma_init^2 I; its ridge needs the trace,
        # n_features * sigma_init^2, finite
        if not self.config.sigma_init < math.sqrt(sys.float_info.max / n_features):
            raise ConfigError(
                f"sigma_init {self.config.sigma_init!r} is too large for "
                f"{n_features} features: the seed covariance's trace is not finite")
        # classless until _grow_classes below adds the declared ones
        self.system = FuzzySystem(n_features=n_features, n_classes=0)
        # every window's ring, row r that of system row r
        self.windows = WindowBank(self.config.ws, n_features + 1)
        self.system.windows = self.windows
        # the samples rule i's shadow pair has seen, in rule order
        self.pair_seen = np.empty(0, dtype=np.int64)
        self.drift_log: list[DriftEvent] = []
        self.samples_seen = 0
        self._x_aug = np.ones(n_features + 1)  # 1, then each sample's features
        self._grow_classes(n_classes)
        self._resize_buffers()

    # -- public surface ------------------------------------------------

    @property
    def n_rules(self) -> int:
        return len(self.system)

    @property
    def next_rule_id(self) -> int:
        """The id the next new rule takes: one past the largest rule id, 0
        before the first. A new rule's id is the largest, and a replaced
        rule leaves two larger ones behind, so no id is ever reused."""
        ids = self.system.ids
        return int(ids.max()) + 1 if ids.size else 0

    @property
    def anticipations(self) -> MappingProxyType[int, AnticipatedPair]:
        """Each rule's shadow pair by rule id, as a read-only mapping of
        views of the pair's stack and window rows."""
        system, windows = self.system, self.windows

        def sub(row):
            return SubRule(system.premise(row), system.consequent(row),
                           windows.window(row))

        slow_rows = range(len(system), system.n_rows, 2)
        return MappingProxyType({
            rule_id: AnticipatedPair(sub(row), sub(row + 1), int(seen))
            for rule_id, seen, row in zip(system.ids.tolist(), self.pair_seen, slow_rows)})

    def predict_one(self, x) -> int:
        """Class index for x from the principal system; no state change.

        Raises NonFiniteInputError for a NaN or infinite feature, or a
        sample so far from every rule that all memberships vanish.
        """
        x = self._check_features(x)
        return self.system.predict_class(x)

    def predict_scores(self, x) -> np.ndarray:
        x = self._check_features(x)
        return self.system.predict_scores(x)

    def learn_one(self, x, y) -> int:
        """Predict, then learn one labeled sample; returns the prediction.

        A NaN or infinite feature, or a sample so far from every rule that
        all memberships vanish, raises NonFiniteInputError before any state
        changes: the founding sample's features are checked directly, any
        later sample's through its membership sum (fis.membership_sum), as
        in predict_one. A label that is no class index raises
        UnknownClassError, also before any state changes.
        Every sample but the founding one ends in _learn_conclusions, a
        class's first one right after its rule's birth.
        """
        x = self._check_features(x)
        cfg = self.config
        system = self.system

        n = len(system)
        if not n:
            # Founding sample: nothing to predict from, so the model's
            # answer is the sample's own class by construction. It has no
            # membership sum to check, so its features are checked.
            if not np.isfinite(x).all():
                raise NonFiniteInputError(
                    f"features must be finite, got {x.tolist()}")
            y = self._check_label(y)
            self._give_birth(x, y)
            self.samples_seen += 1
            return y

        every = system.memberships_all(x) if self._fused else None
        betas = system.memberships_all(x, n) if every is None else every[:n]
        # every weight below divides by bsum (or the pair denominator); the
        # check runs before the label check can grow the classes
        bsum = membership_sum(x, betas)
        y = self._check_label(y)
        x_aug = self._x_aug
        x_aug[1:] = x
        prediction = int(
            system.scores_from_memberships(betas, x_aug, bsum).argmax())

        if y not in self.seen_classes:
            # First sample of a class seeds a rule there. The founding
            # sample is already baked into the new premise, so premise and
            # shadow-pair updates are skipped; conclusions still learn.
            self._give_birth(x, y)
            betas = system.memberships(x)
            total = betas.sum() if cfg.wrls_weight == "normalized" else 1.0
            self._learn_conclusions(x_aug, betas, total, y, n + 1)
            self.samples_seen += 1
            return prediction

        winner = int(betas.argmax())
        row_slow = n + 2 * winner
        row_fast = row_slow + 1
        # The winner's pair memberships from the pre-update premises, which
        # weight its conclusions: the first pass's if it scored every row,
        # else its two rows alone, with the same bits (row-local einsum).
        if every is None:
            beta_slow, beta_fast = system.memberships_all(
                x, row_fast + 1, row_slow).tolist()
        else:
            beta_slow, beta_fast = every.item(row_slow), every.item(row_fast)
        # The weights' divisors: the pair's and the principal rules' under
        # normalized weights, else 1.0, since x / 1.0 is x exactly
        if cfg.wrls_weight == "normalized":
            denom = beta_slow + beta_fast + bsum - float(betas[winner])
            if not 0.0 < denom < math.inf:
                raise NonFiniteInputError(
                    f"sample {x.tolist()} has no finite positive pair weight "
                    f"denominator ({denom!r}); its distances overflow")
            total = bsum
        else:
            denom = total = 1.0
        w_slow = beta_slow / denom
        w_fast = beta_fast / denom

        # Premise advance: the winner and its pair blend the sample in,
        # every other row keeps alpha 0. The horizon follows from the role.
        alphas = np.zeros((system.n_rows, 1))
        rows = np.array((winner, row_slow, row_fast), dtype=np.intp)
        hits = system.hits
        for row, horizon in ((winner, None), (row_slow, cfg.tmax1),
                             (row_fast, cfg.tmax2)):
            t = hits.item(row) + 1
            hits[row] = t
            alphas[row, 0] = 1.0 / (t if horizon is None else min(t, horizon))
        system.advance_premises(x, alphas, rows)

        # Of the pairs only the winner's carries weight, its virtual
        # rule-base weights; its rows and windows are disjoint from the
        # principal ones, so it forgets after them.
        wvec, wrows = self._wvec, self._wrows
        wvec[n] = w_slow
        wvec[n + 1] = w_fast
        wrows[n] = row_slow
        wrows[n + 1] = row_fast
        self._learn_conclusions(x_aug, betas, total, y, n + 2)
        if cfg.forgetting_mode != "none":
            self.windows.forget_pair(system, row_slow, x_aug, w_slow, w_fast)
        seen = self.pair_seen.item(winner) + 1
        self.pair_seen[winner] = seen

        if math.isfinite(cfg.ks) and seen > cfg.nmin:
            # ks > 0, so coinciding centers (separation 0.0) never fire
            separation = system.pair_separation(row_slow)
            if separation > cfg.ks:
                self._replace_rule(winner, separation)

        self.samples_seen += 1
        return prediction

    # -- internals -------------------------------------------------------

    def _check_features(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.system.n_features,):
            raise ValueError(
                f"expected {self.system.n_features} features, got shape {x.shape}")
        return x

    def _check_label(self, y) -> int:
        if not isinstance(y, (int, np.integer, np.bool_)) and not (
                isinstance(y, numbers.Real) and float(y).is_integer()):
            raise UnknownClassError(f"class label {y!r} is not an integer")
        y = int(y)
        if y < 0:
            raise UnknownClassError(f"negative class label {y}")
        if y >= self.system.n_classes:
            if not self.config.allow_class_growth:
                raise UnknownClassError(
                    f"class {y} outside declared range 0..{self.system.n_classes - 1}")
            self._grow_classes(y + 1)
        return y

    def _grow_classes(self, n_classes: int) -> None:
        """Widen the model to ``n_classes`` classes: each class's read-only
        one-hot WRLS target, and zero coefficient columns in every row.
        Both are built before either is assigned, so a size too large to
        allocate leaves the model as it was."""
        targets = np.eye(n_classes)
        targets.setflags(write=False)
        self.system.grow_classes(n_classes)
        self._targets = targets

    def _give_birth(self, x: np.ndarray, y: int) -> None:
        cfg, system = self.config, self.system
        ids = np.append(system.ids, np.int64(self.next_rule_id))  # never promoted
        # the newborn's row is appended after the current ones
        rows = np.append(np.arange(len(system)), system.n_rows)
        self._set_rows(ids, np.append(system.born_classes, y), rows, rows,
                       rows == system.n_rows,
                       extra=seed_row(x, cfg.sigma_init, cfg.omega, system.n_classes))

    def _set_rows(self, ids: np.ndarray, born_classes: np.ndarray,
                  rows: np.ndarray, con_rows: np.ndarray, spawn: np.ndarray,
                  extra: Rows | None = None) -> None:
        """Rebuild the stacks for new principal rules, their pairs behind.

        Rule j (id ``ids[j]``, born class ``born_classes[j]``) takes its
        premise from row ``rows[j]`` and its consequent from ``con_rows[j]``
        (FuzzySystem.set_rows; indices past its rows address ``extra``).
        Where the bool mask ``spawn`` is set, the rule gets a fresh pair
        from its new rows, whose sample count starts at 0; elsewhere its
        pair's rows and count move with it (the rule must then come from
        its own row). Each window follows its consequent; a spawned pair's
        and a newborn's start blank.
        """
        cfg = self.config
        system = self.system
        seen = np.zeros(len(ids), dtype=np.int64)
        seen[~spawn] = self.pair_seen[rows[~spawn]]
        kept = len(system) + 2 * rows  # a kept rule's slow row

        def with_pairs(src, spawned):
            slow = np.where(spawn, spawned, kept)
            fast = np.where(spawn, spawned, kept + 1)
            return np.concatenate((src, np.column_stack((slow, fast)).ravel()))

        # an index past the current rows is a blank window
        self.windows.set_rows(with_pairs(con_rows, system.n_rows))
        system.set_rows(ids, born_classes, with_pairs(rows, rows),
                        with_pairs(con_rows, con_rows), extra)
        spawn_pair(system, len(ids) + 2 * np.flatnonzero(spawn), cfg.tmax1,
                   cfg.tmax2, cfg.am_init, cfg.omega)
        self.pair_seen = seen
        self._resize_buffers()

    def _resize_buffers(self) -> None:
        """Fit the per-sample scratch arrays and the seen classes, those
        some rule was born in, to the current stacks."""
        n, d = len(self.system), self.system.n_features
        self.seen_classes = set(self.system.born_classes.tolist())
        # WRLS rows (every principal rule, then the winner's pair) and
        # their weights, in matching order
        self._wrows = np.arange(n + 2, dtype=np.intp)
        self._wvec = np.zeros(n + 2)
        # one membership pass over every row, unless scoring only the
        # winner's pair skips enough of the other pairs' rows to pay
        self._fused = 2 * (n - 1) * (d * d + 21) <= _SPLIT_MIN_SKIPPED

    def _learn_conclusions(self, x_aug: np.ndarray, betas: np.ndarray,
                           total: float, y: int, m: int) -> None:
        """The conclusion step of every sample but the founding one: weights
        betas / total for the principal rows, one WRLS step over the first
        m buffered rows (the principal ones, then the pair the caller wrote
        or none), then the principal windows' forgetting under forget_ps."""
        system = self.system
        wvec = self._wvec
        principal = np.divide(betas, total, out=wvec[:betas.shape[0]])
        system.wrls_step(x_aug, wvec[:m], self._targets[y], self._wrows[:m])
        if self.config.forgetting_mode == "forget_ps":
            self.windows.forget(system, x_aug, principal)

    def _replace_rule(self, winner: int, separation: float) -> None:
        """Swap the drifted rule for its two sub-rules (N grows by one).

        The sub-rules' rows become principal rows, whose premises do not
        forget. Under the global strategy every other rule also adopts its
        own shadow slow conclusion (and window), and all shadow pairs
        restart; under naive only the two new rules get fresh pairs.
        """
        cfg = self.config
        system = self.system
        n = len(system)
        old_id = system.ids.item(winner)
        # the two new rules take the winner's place and its born class
        pick = np.insert(np.arange(n), winner, winner)
        ids = system.ids[pick]
        first = self.next_rule_id  # read before _set_rows stores these two
        ids[winner:winner + 2] = (first, first + 1)
        row_slow = n + 2 * winner
        rows = np.concatenate((np.arange(winner), (row_slow, row_slow + 1),
                               np.arange(winner + 1, n)))
        # the two new rules spawn pairs; under global every other rule
        # adopts its slow sub-rule's conclusion and respawns its pair too
        spawn = np.zeros(n + 1, dtype=bool)
        spawn[winner:winner + 2] = True
        con_rows = rows
        if cfg.strategy == "global":
            con_rows = np.where(spawn, rows, n + 2 * rows)
            spawn[:] = True
        self._set_rows(ids, system.born_classes[pick], rows, con_rows, spawn)
        self.drift_log.append(DriftEvent(
            sample_index=self.samples_seen, rule_id=old_id,
            strategy=cfg.strategy, separation=separation))
