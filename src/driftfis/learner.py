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
sample cover the principal rules and the active pair together; rows not
involved in a given sample ride along with zero weight, which the batched
operations treat as an exact no-op.
"""

from __future__ import annotations

import math

import numpy as np

from .anticipation import AnticipatedPair, DriftEvent, spawn_pair
from .config import LearnerConfig
from .fis import FuzzySystem, Rule, create_rule
from .forgetting import DDFWindow


class UnknownClassError(ValueError):
    """A label outside the declared class set arrived with growth disabled."""


class NonFiniteInputError(ValueError):
    """A sample to learn from has a NaN or infinite feature."""


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
        self._wvec = np.zeros(0)
        self._rows3 = np.empty(3, dtype=np.intp)
        # rows of _alphas/_wvec written last sample, zeroed lazily next sample
        self._stale_rows: tuple = ()
        self._stale_aux: tuple = ()

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

        A NaN or infinite feature raises NonFiniteInputError before any
        state changes.
        """
        x = self._check_features(x)
        # a finite sum proves every feature finite; the exact test runs only
        # when it is not, because a sum of finite features can overflow
        if not math.isfinite(sum(x.tolist())) and not np.isfinite(x).all():
            raise NonFiniteInputError(f"features must be finite, got {x.tolist()}")
        y = self._check_label(y)
        cfg = self.config
        system = self.system
        rules = system.rules

        if not rules:
            # Founding sample: nothing to predict from, so the model's
            # answer is the sample's own class by construction.
            self._give_birth(x, y)
            self.samples_seen += 1
            return y

        n = len(rules)
        all_betas = system.memberships_all(x)
        betas = all_betas[:n]
        bsum = float(betas.sum())
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
        # with betas (they came out of the same batched evaluation).
        beta_slow = float(all_betas[row_slow])
        beta_fast = float(all_betas[row_fast])

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

        # One WRLS step over all rows: principal conclusions with their
        # (normalized) memberships, the winner's pair with its virtual
        # rule-base weights, every other pair with weight zero.
        wvec = self._wvec
        if cfg.wrls_weight == "normalized":
            np.divide(betas, bsum, out=wvec[:n])
            denom = beta_slow + beta_fast + bsum - float(betas[winner])
            w_slow = beta_slow / denom
            w_fast = beta_fast / denom
        else:
            wvec[:n] = betas
            w_slow = beta_slow
            w_fast = beta_fast
        for row in self._stale_aux:
            wvec[row] = 0.0
        self._stale_aux = (row_slow, row_fast)
        wvec[row_slow] = w_slow
        wvec[row_fast] = w_fast
        target = self._target(y)
        system.wrls_step(x_aug, wvec, target)

        # Deferred directional forgetting: windows record the sample and
        # the correlation matrices shed whatever falls out.
        mode = cfg.forgetting_mode
        if mode != "none":
            evicted = pair.slow.window.push(x_aug, w_slow)
            evicted_fast = pair.fast.window.push(x_aug, w_fast)
            if evicted is not None:
                self._evict_pair(pair, row_slow, evicted, evicted_fast)
            if mode == "forget_ps":
                for i, r in enumerate(rules):
                    old = r.window.push(x_aug, float(wvec[i]))
                    if old is not None and old[1] != 0.0:
                        if not system.downdate_row(i, old[0], old[1]):
                            r.window.skipped += 1
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
        n_rows = system.n_rows
        self._alphas = np.zeros((n_rows, 1))
        self._wvec = np.zeros(n_rows)
        self._stale_rows = ()
        self._stale_aux = ()

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
        system = self.system
        n = len(system.rules)
        wvec = self._wvec
        if self.config.wrls_weight == "normalized":
            np.divide(betas, betas.sum(), out=wvec[:n])
        else:
            wvec[:n] = betas
        wvec[n:] = 0.0
        system.wrls_step(x_aug, wvec, self._target(y))
        if self.config.forgetting_mode == "forget_ps":
            for i, r in enumerate(system.rules):
                old = r.window.push(x_aug, float(wvec[i]))
                if old is not None and old[1] != 0.0:
                    if not system.downdate_row(i, old[0], old[1]):
                        r.window.skipped += 1

    def _evict_pair(self, pair: AnticipatedPair, row_slow: int,
                    evicted_slow, evicted_fast) -> None:
        """Shed the sample leaving the pair windows (they leave together)."""
        old_x = evicted_slow[0]
        w_old = np.array([evicted_slow[1], evicted_fast[1]])
        if evicted_slow[1] == 0.0 and evicted_fast[1] == 0.0:
            return
        ok_slow, ok_fast = self.system.downdate_row_pair(row_slow, old_x, w_old)
        if not ok_slow and evicted_slow[1] != 0.0:
            pair.slow.window.skipped += 1
        if not ok_fast and evicted_fast[1] != 0.0:
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
