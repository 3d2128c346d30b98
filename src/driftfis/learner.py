"""Streaming classifier with evolving fuzzy rules and drift anticipation.

The principal rule base predicts and adapts without forgetting. In its
shadow, every rule carries a slow/fast sub-rule pair trained on the same
samples; when the pair's centers separate beyond the configured threshold,
the rule is declared drifted and surgically replaced by its two sub-rules
(optionally swapping every other rule's conclusion for its own shadow
copy). Conclusion matrices may additionally use deferred directional
forgetting, in the shadow pairs and/or the principal system.

The shadow pairs live as auxiliary rows of the FuzzySystem, so one batched
membership pass, one batched premise update, and one batched WRLS step per
sample cover the principal rules and the active pair together. The premise
update and the WRLS step are told which rows carry weight (the winner and
its pair; every principal rule and the winner's pair) and, on large stacks,
touch only those. Principal conclusion forgetting sheds all its evictions
in one batched downdate.
"""

from __future__ import annotations

import math

import numpy as np

from .anticipation import AnticipatedPair, DriftEvent, spawn_pair
from .config import LearnerConfig
from .fis import FuzzySystem, Rule, create_rule
from .forgetting import DDFWindow, frozen_copy, record_sample


class UnknownClassError(ValueError):
    """A label outside the declared class set arrived with growth disabled."""


class NonFiniteInputError(ValueError):
    """A sample to learn from has a NaN or infinite feature, or lies so far
    from every rule that the distances overflow and all memberships vanish."""


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
        self.anticipations: dict[int, AnticipatedPair] = {}
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

    def predict_one(self, x) -> int:
        """Class index for x from the principal system; no state change."""
        x = self._check_features(x)
        return self.system.predict_class(x)

    def predict_scores(self, x) -> np.ndarray:
        x = self._check_features(x)
        return self.system.predict_scores(x)

    def learn_one(self, x, y) -> int:
        """Predict, then learn one labeled sample; returns the prediction.

        A NaN or infinite feature, or a sample so far from every rule that
        all memberships vanish, raises NonFiniteInputError before any state
        changes.
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
        rules = system.rules
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
        rule = rules[winner]
        pair = self.anticipations[rule.id]
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
        # every other row keeps alpha 0.
        alphas = self._alphas
        for row in self._stale_rows:
            alphas[row, 0] = 0.0
        self._stale_rows = (winner, row_slow, row_fast)
        rows = self._rows3
        rows[0] = winner
        rows[1] = row_slow
        rows[2] = row_fast
        for row, premise in ((winner, rule.premise),
                             (row_slow, pair.slow.premise),
                             (row_fast, pair.fast.premise)):
            premise.hits += 1
            h = premise.horizon
            t = premise.hits if h is None else min(premise.hits, h)
            alphas[row, 0] = 1.0 / t
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
            shared = frozen_copy(x_aug)
            where, xs, ws = record_sample(
                [pair.slow.window, pair.fast.window], shared, [w_slow, w_fast])
            if where:
                self._evict_pair(pair, row_slow, where, xs[0], ws)
            if mode == "forget_ps":
                self._forget_principal(shared, wvec[:n])
        pair.samples_seen += 1

        if math.isfinite(cfg.ks) and pair.samples_seen > cfg.nmin:
            # Inline equivalent of pair.separation(_premise_radius), with
            # the two quadratic forms batched through the stacks.
            delta = pair.fast.premise.center - pair.slow.premise.center
            gap_sq = float(delta @ delta)
            if gap_sq > 0.0:
                gap = math.sqrt(gap_sq)
                q = system.quadratic_form_pair(row_slow, delta / gap)
                q_slow = float(q[0])
                q_fast = float(q[1])
                spread = ((1.0 / math.sqrt(q_slow)) if q_slow > 0.0 else math.inf) \
                    + ((1.0 / math.sqrt(q_fast)) if q_fast > 0.0 else math.inf)
                separation = gap / spread if spread > 0.0 else math.inf
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
        extra = n_classes - self.system.n_classes
        for rule in self.system.rules:
            rule.consequent.coeffs = _pad_columns(rule.consequent.coeffs, extra)
        for pair in self.anticipations.values():
            for sub in (pair.slow, pair.fast):
                sub.consequent.coeffs = _pad_columns(sub.consequent.coeffs, extra)
        self.system.n_classes = n_classes
        self._sync_banks()

    def _give_birth(self, x: np.ndarray, y: int) -> None:
        cfg = self.config
        rule = create_rule(
            x, y, cfg.sigma_init, cfg.omega, self.system.n_classes,
            rule_id=self.next_rule_id, horizon=None, window=DDFWindow(cfg.ws),
        )
        self.next_rule_id += 1
        self.anticipations[rule.id] = spawn_pair(
            rule, cfg.tmax1, cfg.tmax2, cfg.ws, cfg.am_init)
        self.seen_classes.add(y)
        self._sync_banks(self.system.rules + [rule])

    def _sync_banks(self, rules: list[Rule] | None = None) -> None:
        """Repack the system stacks after any structural change.

        Auxiliary rows mirror the rule order: the shadow pair of rule i
        occupies rows n+2i (slow) and n+2i+1 (fast).
        """
        system = self.system
        if rules is None:
            rules = system.rules
        aux = []
        for rule in rules:
            pair = self.anticipations[rule.id]
            aux.append((pair.slow.premise, pair.slow.consequent))
            aux.append((pair.fast.premise, pair.fast.consequent))
        system.set_rows(rules, aux)
        n = len(rules)
        self._alphas = np.zeros((system.n_rows, 1))
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
            self._forget_principal(frozen_copy(x_aug), wvec)

    def _forget_principal(self, shared: np.ndarray, weights: np.ndarray) -> None:
        """Record a sample in every principal window and shed the evictions.

        ``shared`` is a frozen copy of the augmented sample and ``weights``
        the principal conclusion weights it was learned with. All evictions
        that carry weight go through one batched downdate; a row whose
        guard trips keeps its matrix and counts the skip on its window.
        """
        rules = self.system.rules
        where, xs, ws = record_sample([r.window for r in rules], shared,
                                      weights.tolist())
        if not where:
            return
        ok = self.system.downdate_rows(np.array(where), np.array(xs),
                                       np.array(ws))
        for i in np.flatnonzero(~ok).tolist():
            rules[where[i]].window.skipped += 1

    def _evict_pair(self, pair: AnticipatedPair, row_slow: int,
                    where: list[int], old_x: np.ndarray, ws: list[float]) -> None:
        """Shed the sample leaving the pair windows (they leave together).

        ``where``/``ws`` list the windows (0 slow, 1 fast) whose eviction
        carries weight, as record_sample returns them.
        """
        w_old = [0.0, 0.0]
        for i, w in zip(where, ws):
            w_old[i] = w
        ok_slow, ok_fast = self.system.downdate_row_pair(row_slow, old_x,
                                                         np.array(w_old))
        if not ok_slow and w_old[0] != 0.0:
            pair.slow.window.skipped += 1
        if not ok_fast and w_old[1] != 0.0:
            pair.fast.window.skipped += 1

    def _replace_rule(self, winner: int, separation: float) -> None:
        """Swap the drifted rule for its two sub-rules (N grows by one).

        Under the global strategy every other rule also adopts its own
        shadow slow conclusion (and window), and all shadow pairs restart;
        under naive only the two new rules get fresh pairs.
        """
        cfg = self.config
        system = self.system
        old = system.rules[winner]
        pair = self.anticipations.pop(old.id)

        new_rules = []
        for sub in (pair.slow, pair.fast):
            sub.premise.horizon = None  # principal premises do not forget
            rule = Rule(id=self.next_rule_id, premise=sub.premise,
                        consequent=sub.consequent, window=sub.window,
                        born_class=old.born_class)
            self.next_rule_id += 1
            new_rules.append(rule)
        rules = list(system.rules)
        rules[winner:winner + 1] = new_rules

        if cfg.strategy == "global":
            new_ids = {new_rules[0].id, new_rules[1].id}
            for rule in rules:
                if rule.id in new_ids:
                    continue
                other = self.anticipations[rule.id]
                rule.consequent = other.slow.consequent
                rule.window = other.slow.window
            self.anticipations = {
                rule.id: spawn_pair(rule, cfg.tmax1, cfg.tmax2, cfg.ws, cfg.am_init)
                for rule in rules
            }
        else:
            for rule in new_rules:
                self.anticipations[rule.id] = spawn_pair(
                    rule, cfg.tmax1, cfg.tmax2, cfg.ws, cfg.am_init)

        self._sync_banks(rules)
        self.drift_log.append(DriftEvent(
            sample_index=self.samples_seen, rule_id=old.id,
            strategy=cfg.strategy, separation=separation))


def _premise_radius(premise, unit_direction: np.ndarray) -> float:
    """Ellipsoid radius along a unit direction from the cached inverse."""
    q = float(unit_direction @ premise.cov_inv @ unit_direction)
    if q <= 0.0:
        return math.inf
    return 1.0 / math.sqrt(q)


def _pad_columns(mat: np.ndarray, extra: int) -> np.ndarray:
    out = np.zeros((mat.shape[0], mat.shape[1] + extra))
    out[:, :mat.shape[1]] = mat
    return out
