"""Tests for config validation, coercion, and KEY=VALUE file parsing."""

import math

import numpy as np
import pytest

from driftfis.config import (
    ConfigError,
    ExperimentConfig,
    LearnerConfig,
    build_experiment_config,
    config_keys,
    experiment_config_to_dict,
    parse_config_file,
)


class TestLearnerValidation:
    def test_defaults_are_valid(self):
        LearnerConfig().validate()

    @pytest.mark.parametrize("overrides", [
        {"tmax1": 0}, {"tmax2": 0}, {"tmax1": 10, "tmax2": 10},
        {"tmax1": 5, "tmax2": 10}, {"ks": 0.0}, {"ks": -1.0},
        {"ks": float("nan")}, {"nmin": -1}, {"ws": 0}, {"omega": 0.0},
        {"sigma_init": 0.0}, {"strategy": "bold"}, {"forgetting_mode": "all"},
        {"wrls_weight": "squared"}, {"am_init": "median"},
        # in range but of the wrong type
        {"tmax1": 200.5}, {"tmax2": 10.0}, {"nmin": 20.5}, {"ws": "50"},
        {"nmin": True}, {"ks": True}, {"ks": "0.5"}, {"omega": None},
        {"sigma_init": False}, {"allow_class_growth": "yes"},
        {"allow_class_growth": "false"}, {"allow_class_growth": 1},
        # out of range: an infinite or NaN scale
        {"omega": math.inf}, {"sigma_init": math.inf},
        {"omega": math.nan}, {"sigma_init": math.nan},
    ])
    def test_rejects_bad_values(self, overrides):
        cfg = LearnerConfig(**overrides)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_infinite_ks_is_allowed(self):
        LearnerConfig(ks=math.inf).validate()

    def test_numpy_numbers_are_allowed(self):
        LearnerConfig(tmax1=np.int64(200), tmax2=np.int32(10), nmin=np.int64(20),
                      ws=np.int16(50), ks=np.float64(0.5), omega=np.float32(100.0),
                      sigma_init=np.int64(1)).validate()


class TestExperimentValidation:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    def test_swaps_parsing(self):
        cfg = ExperimentConfig(swaps="600,300")
        assert cfg.swap_positions() == [300, 600]
        assert ExperimentConfig(swaps="").swap_positions() == []

    def test_bad_swaps(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(swaps="a,b").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(swaps="-5").validate()

    def test_bad_ranges(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset="").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(n_samples=-1).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(noise=1.0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(flip_prob=1.5).validate()


class TestConfigFile:
    def test_parse_ignores_comments_and_blanks(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# benchmark cell\n"
            "\n"
            "dataset=line   # generator\n"
            "ks = 0.7\n"
            "n_samples=500\n",
            encoding="utf-8")
        assert parse_config_file(str(path)) == {
            "dataset": "line", "ks": "0.7", "n_samples": "500"}

    def test_parse_rejects_bare_words(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dataset=line\nverbose\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bad.cfg:2"):
            parse_config_file(str(path))

    def test_build_routes_learner_keys(self):
        cfg = build_experiment_config(
            {"dataset": "sin", "ks": "0.8", "ws": "25", "strategy": "global"})
        assert cfg.dataset == "sin"
        assert cfg.learner.ks == 0.8
        assert cfg.learner.ws == 25
        assert cfg.learner.strategy == "global"

    def test_build_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            build_experiment_config({"learning_rate": "0.1"})

    def test_bool_coercion(self):
        for raw, expected in (("true", True), ("1", True), ("on", True),
                              ("false", False), ("0", False), ("off", False)):
            cfg = build_experiment_config({"standardize": raw})
            assert cfg.standardize is expected
        with pytest.raises(ConfigError):
            build_experiment_config({"standardize": "maybe"})

    def test_numeric_coercion_errors(self):
        with pytest.raises(ConfigError, match="expected integer"):
            build_experiment_config({"ws": "many"})
        with pytest.raises(ConfigError, match="expected number"):
            build_experiment_config({"ks": "high"})
        with pytest.raises(ConfigError, match="NaN"):
            build_experiment_config({"ks": "nan"})

    def test_inf_ks_via_file_value(self):
        cfg = build_experiment_config({"ks": "inf"})
        assert cfg.learner.ks == math.inf

    def test_built_config_is_validated(self):
        with pytest.raises(ConfigError):
            build_experiment_config({"tmax1": "5", "tmax2": "10"})

    def test_flatten_covers_every_key(self):
        cfg = ExperimentConfig(dataset="sea", learner=LearnerConfig(ks=0.9))
        flat = experiment_config_to_dict(cfg)
        assert sorted(flat) == config_keys()
        assert flat["ks"] == 0.9
        assert flat["dataset"] == "sea"

    def test_flatten_rebuild_roundtrip(self):
        cfg = ExperimentConfig(dataset="line", n_samples=700, seed=4,
                               learner=LearnerConfig(ks=0.6, ws=30,
                                                     strategy="global"))
        flat = {k: str(v) for k, v in experiment_config_to_dict(cfg).items()}
        rebuilt = build_experiment_config(flat)
        assert rebuilt == cfg
