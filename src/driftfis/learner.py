"""Streaming classifier with evolving fuzzy rules and drift anticipation.

The principal rule base predicts and adapts without forgetting. In its
shadow, every rule carries a slow/fast sub-rule pair trained on the same
samples; when the pair's centers separate beyond the configured threshold,
the rule is declared drifted and surgically replaced by its two sub-rules
(optionally swapping every other rule's conclusion for its own shadow
copy). Conclusion matrices may additionally use deferred directional
forgetting, in the shadow pairs and/or the principal system.

The FuzzySystem stacks hold every rule and sub-rule as a row: rule i is
row i, its shadow pair rows n+2i (slow) and n+2i+1 (fast). Births and
replacements are row gathers. One batched membership pass, one batched
premise update, and one batched WRLS step per sample cover the principal
rules and the active pair together. The premise update and the WRLS step are told
which rows carry weight (the winner and its pair; every principal rule and
the winner's pair) and, on large stacks, touch only those. Conclusion
forgetting runs in the forgetting module: WindowBank.forget for every
principal window at once, forget_pair for the winner's pair.
"""

from __future__ import annotations

import math
import numbers
from types import MappingProxyType

import numpy as np

from .anticipation import AnticipatedPair, DriftEvent, PairState, spawn_pair
from .config import LearnerConfig
from .fis import FuzzySystem, NonFiniteInputError, Rows, Rule, create_rule
from .forgetting import WindowBank, forget_pair


class UnknownClassError(ValueError):
    """A label that is no class index: not an integer (an integral float
    counts as one), negative, or outside the declared class set with
    growth disabled."""


class AnticipatingClassifier:
    """Evolving Takagi-Sugeno classifier with per-rule drift anticipation.

    Streaming protocol: ``predict_one(x)`` scores a sample without side
    effects; ``learn_one(x, y)`` first predicts, then folds the labeled
    sample into the model, and returns that pre-update prediction.
    """

    def __init__(self, n_features: int, n_classes: int,
                 config: LearnerConfig | None = None):
        if n_features < 1:
            raise ValueError("n_features must be positive")
        if n_classes < 1:
            raise ValueError("n_classes must be positive")
        self.config = config if config is not None else LearnerConfig()
        self.config.validate()
        self.system = FuzzySystem(n_features=n_features, n_classes=n_classes)
        # the principal windows' rings, one row per rule
        self.windows = WindowBank(self.config.ws, n_features + 1)
        # the shadow pair of rule i, in rule order
        self.pairs: list[PairState] = []
        self.drift_log: list[DriftEvent] = []
        self.seen_classes: set[int] = set()
        self.samples_seen = 0
        self.next_rule_id = 0
        self._targets: np.ndarray | None = None
        self._x_aug = np.empty(n_features + 1)
        self._x_aug[0] = 1.0
        self._alphas = np.zeros((0, 1))
        self._rows3 = np.empty(3, dtype=np.intp)
        # rows of _alphas written last sample, zeroed lazily next sample
        self._stale_rows: tuple = ()
        # WRLS rows (every principal rule, then the winner's pair) and
        # their weights, in matching order
        self._wrows = np.zeros(2, dtype=np.intp)
        self._wvec = np.zeros(2)

    # -- public surface ------------------------------------------------

    @property
    def n_rules(self) -> int:
        return len(self.system.rules)

    @property
    def anticipations(self) -> MappingProxyType[int, AnticipatedPair]:
        """Each rule's shadow pair by rule id, as a read-only mapping."""
        return MappingProxyType({rule.id: self.pair_view(i)
                                 for i, rule in enumerate(self.system.rules)})

    def pair_view(self, i: int) -> AnticipatedPair:
        """Rule i's shadow pair, as a view of its rows."""
        cfg = self.config
        return self.pairs[i].view(self.system, len(self.system) + 2 * i,
                                  cfg.tmax1, cfg.tmax2)

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
        changes; a label that is no class index raises UnknownClassError,
        also before any state changes.
        """
        x = self._check_features(x)
        # a finite sum proves every feature finite; the exact test runs only
        # when it is not, because a sum of finite features can overflow
        if not math.isfinite(sum(x.tolist())) and not np.isfinite(x).all():
            raise NonFiniteInputError(f"features must be finite, got {x.tolist()}")
        cfg = self.config
        system = self.system

        if not system.rules:
            # Founding sample: nothing to predict from, so the model's
            # answer is the sample's own class by construction.
            y = self._check_label(y)
            self._give_birth(x, y)
            self.samples_seen += 1
            return y

        n = len(system.rules)
        all_betas = system.memberships_all(x)
        betas = all_betas[:n]
        bsum = float(betas.sum())
        # every weight below divides by bsum (or by the pair denominator),
        # so check it before the label check can grow the classes
        if not 0.0 < bsum < math.inf:
            raise NonFiniteInputError(
                f"sample {x.tolist()} has no finite positive membership sum "
                f"({bsum!r}); its distances overflow")
        y = self._check_label(y)
        x_aug = self._x_aug
        x_aug[1:] = x
        prediction = int(np.argmax(
            system.scores_from_memberships(betas, x_aug, bsum)))

        if y not in self.seen_classes:
            # First sample of a class seeds a rule there. The founding
            # sample is already baked into the new premise, so premise and
            # shadow-pair updates are skipped; conclusions still learn.
            self._give_birth(x, y)
            betas = system.memberships(x)
            self._update_conclusions_only(x_aug, betas, y)
            self.samples_seen += 1
            return prediction

        winner = int(np.argmax(betas))
        pair = self.pairs[winner]
        row_slow = n + 2 * winner
        row_fast = row_slow + 1
        # Sub-rule memberships from the pre-update premises, consistent
        # with betas (they came out of the same batched evaluation). The
        # pair's conclusion weights come from them, before any state change.
        beta_slow = float(all_betas[row_slow])
        beta_fast = float(all_betas[row_fast])
        if cfg.wrls_weight == "normalized":
            denom = beta_slow + beta_fast + bsum - float(betas[winner])
            if not 0.0 < denom < math.inf:
                raise NonFiniteInputError(
                    f"sample {x.tolist()} has no finite positive pair weight "
                    f"denominator ({denom!r}); its distances overflow")
            w_slow = beta_slow / denom
            w_fast = beta_fast / denom
        else:
            w_slow = beta_slow
            w_fast = beta_fast

        # Premise advance: the winner and its pair blend the sample in,
        # every other row keeps alpha 0. The horizon follows from the role.
        alphas = self._alphas
        for row in self._stale_rows:
            alphas[row, 0] = 0.0
        self._stale_rows = (winner, row_slow, row_fast)
        rows = self._rows3
        rows[0] = winner
        rows[1] = row_slow
        rows[2] = row_fast
        hits = system.hits
        for row, horizon in ((winner, None), (row_slow, cfg.tmax1),
                             (row_fast, cfg.tmax2)):
            t = hits.item(row) + 1
            hits[row] = t
            alphas[row, 0] = 1.0 / (t if horizon is None else min(t, horizon))
        system.advance_premises(x, alphas, rows)

        # One WRLS step over the rows that carry weight: principal
        # conclusions with their (normalized) memberships, then the
        # winner's pair with its virtual rule-base weights. Every other
        # pair would have weight zero, so it is left out.
        wvec = self._wvec
        if cfg.wrls_weight == "normalized":
            np.divide(betas, bsum, out=wvec[:n])
        else:
            wvec[:n] = betas
        wvec[n] = w_slow
        wvec[n + 1] = w_fast
        wrows = self._wrows
        wrows[n] = row_slow
        wrows[n + 1] = row_fast
        system.wrls_step(x_aug, wvec, self._target(y), wrows)

        # Deferred directional forgetting: windows record the sample and
        # the correlation matrices shed whatever falls out.
        mode = cfg.forgetting_mode
        if mode != "none":
            forget_pair(system, row_slow, pair.slow_window, pair.fast_window,
                        x_aug, w_slow, w_fast)
            if mode == "forget_ps":
                self.windows.forget(system, x_aug, wvec[:n])
        pair.samples_seen += 1

        if math.isfinite(cfg.ks) and pair.samples_seen > cfg.nmin:
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
        if not isinstance(y, (int, np.integer)) and not (
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
        system = self.system
        system.n_classes = n_classes
        system.set_rows(system.rules, np.arange(system.n_rows))

    def _give_birth(self, x: np.ndarray, y: int) -> None:
        cfg = self.config
        system = self.system
        n = len(system)
        rule = create_rule(x, y, cfg.sigma_init, cfg.omega, system.n_classes,
                           rule_id=self.next_rule_id)
        rule.windows = self.windows
        self.next_rule_id += 1
        self.seen_classes.add(y)
        # the newborn's row is appended after the current ones
        rows = np.append(np.arange(n), system.n_rows)
        self._set_rows(system.rules + [rule], rows, rows, self.pairs + [None],
                       extra=rule.system.stacks())

    def _set_rows(self, rules: list[Rule], rows: np.ndarray,
                  con_rows: np.ndarray, pairs: list[PairState | None],
                  extra: Rows | None = None) -> None:
        """Rebuild the system stacks for a new rule list, pairs behind it.

        Rule j takes its premise from current row ``rows[j]`` and its
        consequent from ``con_rows[j]`` (FuzzySystem.set_rows; indices
        past its rows address ``extra``); its window follows the
        consequent (WindowBank.set_rows). ``pairs[j]`` is the state of the
        rule's shadow pair: a kept pair's rows move with their rule, which
        must then come from its own current row; None spawns a fresh pair
        from the rule's new rows.
        """
        cfg = self.config
        system = self.system
        self.windows.set_rows(con_rows, [window for pair in self.pairs for window
                                         in (pair.slow_window, pair.fast_window)])
        spawn = np.array([pair is None for pair in pairs])
        kept = len(system) + 2 * rows  # a kept rule's slow row

        def with_pairs(src):
            slow = np.where(spawn, src, kept)
            fast = np.where(spawn, src, kept + 1)
            return np.concatenate((src, np.column_stack((slow, fast)).ravel()))

        system.set_rows(rules, with_pairs(rows), with_pairs(con_rows), extra)
        fresh = iter(spawn_pair(system, len(rules) + 2 * np.flatnonzero(spawn),
                                cfg.tmax1, cfg.tmax2, cfg.ws, cfg.am_init,
                                cfg.omega))
        self.pairs = [next(fresh) if pair is None else pair for pair in pairs]
        self._resize_buffers()

    def _resize_buffers(self) -> None:
        """Fit the per-sample scratch arrays to the current stacks."""
        n = len(self.system)
        self._alphas = np.zeros((self.system.n_rows, 1))
        self._stale_rows = ()
        self._wrows = np.arange(n + 2, dtype=np.intp)
        self._wvec = np.zeros(n + 2)

    def _target(self, y: int) -> np.ndarray:
        """Cached one-hot row for the label (read-only; never mutated)."""
        targets = self._targets
        if targets is None or targets.shape[0] != self.system.n_classes:
            targets = np.eye(self.system.n_classes)
            targets.setflags(write=False)
            self._targets = targets
        return targets[y]

    def _update_conclusions_only(self, x_aug: np.ndarray, betas: np.ndarray,
                                 y: int) -> None:
        """Principal-only conclusion step (used on class-birth samples)."""
        n = len(self.system.rules)
        wvec = self._wvec[:n]
        if self.config.wrls_weight == "normalized":
            np.divide(betas, betas.sum(), out=wvec)
        else:
            wvec[:] = betas
        self.system.wrls_step(x_aug, wvec, self._target(y), self._wrows[:n])
        if self.config.forgetting_mode == "forget_ps":
            self.windows.forget(self.system, x_aug, wvec)

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
        old = system.rules[winner]
        new_rules = [Rule(id=self.next_rule_id + k, born_class=old.born_class,
                          windows=self.windows) for k in (0, 1)]
        self.next_rule_id += 2
        rules = system.rules[:winner] + new_rules + system.rules[winner + 1:]
        row_slow = n + 2 * winner
        rows = np.concatenate((np.arange(winner), (row_slow, row_slow + 1),
                               np.arange(winner + 1, n)))
        if cfg.strategy == "global":
            adopts = np.ones(n + 1, dtype=bool)
            adopts[winner:winner + 2] = False
            con_rows = np.where(adopts, n + 2 * rows, rows)
            pairs = [None] * (n + 1)
        else:
            con_rows = rows
            pairs = self.pairs[:winner] + [None, None] + self.pairs[winner + 1:]
        self._set_rows(rules, rows, con_rows, pairs)
        self.drift_log.append(DriftEvent(
            sample_index=self.samples_seen, rule_id=old.id,
            strategy=cfg.strategy, separation=separation))
