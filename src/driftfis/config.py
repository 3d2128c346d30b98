"""Typed run configuration and flat KEY=VALUE config-file parsing.

Experiments are described by a flat namespace of documented keys so the
same names work in config files, as CLI overrides, and inside results
files. Values are coerced to the declared field types; unknown keys and
out-of-range values raise ConfigError.
"""

from __future__ import annotations

import math
import numbers
import typing
from dataclasses import dataclass, field, fields

STRATEGIES = ("naive", "global")
FORGETTING_MODES = ("none", "forget_ps", "forget_am")
WRLS_WEIGHTS = ("normalized", "raw")
AM_INITS = ("parent", "zero")


class ConfigError(ValueError):
    """Invalid configuration key, value, or combination."""


@dataclass
class LearnerConfig:
    """Hyperparameters of the anticipating classifier.

    ks may be ``inf`` to disable drift detection entirely; omega and
    sigma_init must be finite.
    """

    tmax1: int = 200
    tmax2: int = 10
    ks: float = 0.5
    nmin: int = 20
    ws: int = 50
    omega: float = 100.0
    sigma_init: float = 1.0
    strategy: str = "naive"
    forgetting_mode: str = "forget_am"
    wrls_weight: str = "normalized"
    am_init: str = "parent"
    allow_class_growth: bool = False

    def validate(self) -> None:
        """ConfigError unless every field has its type and lies in range:
        the horizons, nmin and ws integers (bool is none), ks, omega and
        sigma_init real numbers (bool is none), omega and sigma_init
        finite, allow_class_growth a bool."""
        for name in ("tmax1", "tmax2", "nmin", "ws"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("ks", "omega", "sigma_init"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if not isinstance(self.allow_class_growth, bool):
            raise ConfigError(f"allow_class_growth must be a bool, got "
                              f"{self.allow_class_growth!r}")
        if self.tmax1 < 1 or self.tmax2 < 1:
            raise ConfigError("tmax1 and tmax2 must be positive")
        if self.tmax1 <= self.tmax2:
            raise ConfigError("tmax1 (slow horizon) must exceed tmax2 (fast horizon)")
        if not (self.ks > 0.0):  # also rejects NaN
            raise ConfigError("ks must be positive (use inf to disable detection)")
        if self.nmin < 0:
            raise ConfigError("nmin must be nonnegative")
        if self.ws < 1:
            raise ConfigError("ws (window size) must be at least 1")
        if not 0.0 < self.omega < math.inf:  # also rejects NaN
            raise ConfigError("omega must be positive and finite")
        if not 0.0 < self.sigma_init < math.inf:
            raise ConfigError("sigma_init must be positive and finite")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}")
        if self.forgetting_mode not in FORGETTING_MODES:
            raise ConfigError(f"forgetting_mode must be one of {FORGETTING_MODES}")
        if self.wrls_weight not in WRLS_WEIGHTS:
            raise ConfigError(f"wrls_weight must be one of {WRLS_WEIGHTS}")
        if self.am_init not in AM_INITS:
            raise ConfigError(f"am_init must be one of {AM_INITS}")


@dataclass
class ExperimentConfig:
    """One benchmark cell: a stream, a learner, and hold-out chunk sizes.

    ``dataset`` is a generator name (sea, hyperplane, line, sin, sinh,
    plane10d) or a path to a CSV file. Unset stream-shape fields fall back
    to the generator's standard benchmark shape. ``noise`` applies to sea;
    ``drift_mag``/``flip_prob`` to hyperplane; ``swaps`` (comma-separated
    sample positions) to the boundary-swap generators.
    """

    dataset: str = "sea"
    n_samples: int = 0          # 0 = generator preset
    trs: int = 0                # 0 = generator preset
    tes: int = 0                # 0 = generator preset
    seed: int = 0
    standardize: bool = True
    noise: float = 0.0
    drift_mag: float = 0.001
    flip_prob: float = 0.05
    swaps: str = ""
    out: str = ""
    learner: LearnerConfig = field(default_factory=LearnerConfig)

    def validate(self) -> None:
        self.learner.validate()
        if not self.dataset:
            raise ConfigError("dataset must be set")
        if self.n_samples < 0 or self.trs < 0 or self.tes < 0:
            raise ConfigError("n_samples, trs, tes must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not (0.0 <= self.noise < 1.0):
            raise ConfigError("noise must be in [0, 1)")
        if not (0.0 <= self.flip_prob <= 1.0):
            raise ConfigError("flip_prob must be in [0, 1]")
        if not (0.0 <= self.drift_mag < math.inf):
            raise ConfigError("drift_mag must be nonnegative and finite")
        if self.swaps:
            self.swap_positions()  # raises on malformed input

    def swap_positions(self) -> list[int]:
        if not self.swaps:
            return []
        try:
            positions = [int(tok) for tok in self.swaps.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"swaps must be comma-separated integers: {self.swaps!r}") from exc
        if any(p < 0 for p in positions):
            raise ConfigError("swap positions must be nonnegative")
        return sorted(positions)


def _coerce(raw: str, target_type: type, key: str):
    raw = raw.strip()
    if target_type is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected boolean, got {raw!r}")
    if target_type is int:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected integer, got {raw!r}") from exc
    if target_type is float:
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected number, got {raw!r}") from exc
        if math.isnan(value):
            raise ConfigError(f"{key}: NaN is not a valid value")
        return value
    return raw


def _field_types() -> dict[str, tuple[str, type]]:
    """Map flat key -> (owner, type) where owner is 'experiment' or 'learner'."""
    mapping: dict[str, tuple[str, type]] = {}
    learner_hints = typing.get_type_hints(LearnerConfig)
    for f in fields(LearnerConfig):
        mapping[f.name] = ("learner", learner_hints[f.name])
    experiment_hints = typing.get_type_hints(ExperimentConfig)
    for f in fields(ExperimentConfig):
        if f.name == "learner":
            continue
        mapping[f.name] = ("experiment", experiment_hints[f.name])
    return mapping


_FIELD_TYPES = _field_types()


def config_keys() -> list[str]:
    """All recognized flat config keys, for help text and docs."""
    return sorted(_FIELD_TYPES)


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat KEY=VALUE file; '#' starts a comment, blank lines ignored.

    A file that is not UTF-8 text raises ConfigError; an unreadable one, OSError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    values: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {line.rstrip()!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def build_experiment_config(values: dict[str, str]) -> ExperimentConfig:
    """Assemble and validate an ExperimentConfig from flat string values."""
    cfg = ExperimentConfig()
    for key, raw in values.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown configuration key {key!r}")
        owner, typ = _FIELD_TYPES[key]
        value = _coerce(raw, typ, key)
        if owner == "learner":
            setattr(cfg.learner, key, value)
        else:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def experiment_config_to_dict(cfg: ExperimentConfig) -> dict:
    """Flatten a config back to the documented key namespace (JSON-friendly)."""
    out: dict = {}
    for f in fields(ExperimentConfig):
        if f.name == "learner":
            continue
        out[f.name] = getattr(cfg, f.name)
    for f in fields(LearnerConfig):
        out[f.name] = getattr(cfg.learner, f.name)
    return out
