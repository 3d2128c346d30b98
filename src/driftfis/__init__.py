"""Evolving fuzzy classification for drifting data streams.

The package pairs a streaming Takagi-Sugeno classifier (evolving rule
base, drift anticipation via slow/fast shadow rules, deferred directional
forgetting of conclusions) with synthetic drift-stream generators and a
periodic hold-out benchmark harness with McNemar significance reporting.
"""

from .config import ConfigError, ExperimentConfig, LearnerConfig
from .evaluation import (
    HoldoutResult,
    McNemarOutcome,
    mcnemar,
    periodic_holdout,
    run_experiment,
)
from .fis import EmptySystemError, FuzzySystem
from .learner import AnticipatingClassifier, NonFiniteInputError, UnknownClassError
from .snapshot import load_model, model_state_hash, save_model
from .streams import (
    Standardizer,
    Stream,
    StreamParseError,
    chunk_stream,
    gen_boundary_swap,
    gen_hyperplane,
    gen_plane10d,
    gen_sea,
    inject_class_swap,
    load_csv,
    make_stream,
    save_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AnticipatingClassifier",
    "ConfigError",
    "EmptySystemError",
    "ExperimentConfig",
    "FuzzySystem",
    "HoldoutResult",
    "LearnerConfig",
    "McNemarOutcome",
    "NonFiniteInputError",
    "Standardizer",
    "Stream",
    "StreamParseError",
    "UnknownClassError",
    "chunk_stream",
    "gen_boundary_swap",
    "gen_hyperplane",
    "gen_plane10d",
    "gen_sea",
    "inject_class_swap",
    "load_csv",
    "load_model",
    "make_stream",
    "mcnemar",
    "model_state_hash",
    "periodic_holdout",
    "run_experiment",
    "save_csv",
    "save_model",
    "__version__",
]
