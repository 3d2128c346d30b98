"""End-to-end tests of the command-line interface (main called in-process)."""

import json

import pytest

from driftfis import AnticipatingClassifier, cli, load_model
from driftfis.evaluation import RESULTS_FORMAT, load_results
from driftfis.snapshot import state_dict


@pytest.fixture(autouse=True)
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    return tmp_path


def write_config(tmp_path, name="exp.cfg", **values):
    path = tmp_path / name
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()),
                    encoding="utf-8")
    return str(path)


def fast_line_values(**extra):
    values = dict(dataset="line", n_samples=450, trs=100, tes=50, seed=2)
    values.update(extra)
    return values


class TestGenerate:
    def test_writes_csv_and_sidecar(self, outdir, capsys):
        out = outdir / "stream.csv"
        assert cli.main(["generate", "--dataset", "line",
                         "--n-samples", "200", "--out", str(out)]) == 0
        assert out.exists()
        assert (outdir / "stream.meta.json").exists()
        captured = capsys.readouterr().out
        assert "wrote 200 samples" in captured
        assert str(out) in captured

    def test_same_seed_same_bytes(self, outdir, capsys):
        a, b = outdir / "a.csv", outdir / "b.csv"
        for path in (a, b):
            assert cli.main(["generate", "--dataset", "sea", "--seed", "5",
                             "--n-samples", "100", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_output_name_in_outdir(self, outdir, capsys):
        assert cli.main(["generate", "--dataset", "sin",
                         "--n-samples", "50", "--seed", "3"]) == 0
        assert (outdir / "sin-seed3.csv").exists()

    def test_rejects_csv_dataset(self, outdir, capsys):
        assert cli.main(["generate", "--dataset", "data.csv"]) == 2
        assert "generator name" in capsys.readouterr().err


class TestRun:
    def test_run_writes_results(self, outdir, tmp_path, capsys):
        cfg = write_config(tmp_path, **fast_line_values())
        out = outdir / "res.json"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "mean_accuracy=" in stdout
        assert "chunks=3" in stdout
        payload = load_results(str(out))
        assert payload["format"] == RESULTS_FORMAT
        assert payload["config"]["dataset"] == "line"
        assert payload["n_chunks"] == 3

    def test_default_output_name(self, outdir, capsys):
        args = ["run", "--dataset", "line", "--n-samples", "450",
                "--trs", "100", "--tes", "50"]
        assert cli.main(args) == 0
        assert (outdir / "run-line-seed0.json").exists()

    def test_cli_flag_overrides_config_file(self, outdir, tmp_path, capsys):
        cfg = write_config(tmp_path, **fast_line_values(seed=2))
        out = outdir / "res.json"
        assert cli.main(["run", "--config", cfg, "--seed", "9",
                         "--out", str(out)]) == 0
        assert load_results(str(out))["config"]["seed"] == 9

    def test_missing_csv_is_a_data_error(self, outdir, capsys):
        code = cli.main(["run", "--dataset", str(outdir / "absent.csv"),
                         "--trs", "10", "--tes", "10"])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_fails(self, outdir, tmp_path, capsys):
        path = tmp_path / "typo.cfg"
        path.write_text("datset=line\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(path)]) == 2

    def test_malformed_config_file_fails(self, outdir, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("just some words\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(path)]) == 2

    def test_malformed_snapshot_is_a_data_error(self, outdir, tmp_path,
                                                monkeypatch, capsys):
        # no command reads a model file yet, so one is loaded inside "run"
        learner = AnticipatingClassifier(2, 2)
        learner.learn_one([0.0, 0.0], 0)
        state = state_dict(learner)
        del state["config"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(state), encoding="utf-8")
        monkeypatch.setattr(cli, "run_experiment",
                            lambda cfg: load_model(str(path)))
        assert cli.main(["run", "--dataset", "line"]) == 3
        assert "missing key 'config'" in capsys.readouterr().err


class TestCompare:
    def test_identical_configs_are_indistinguishable(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **fast_line_values())
        assert cli.main(["compare", "--config-a", cfg, "--config-b", cfg]) == 0
        row = capsys.readouterr().out.strip()
        assert "n01=0 n10=0" in row
        assert "K=0.000" in row
        assert "− (x)" in row

    def test_different_streams_rejected(self, tmp_path, capsys):
        cfg_a = write_config(tmp_path, "a.cfg", **fast_line_values(seed=1))
        cfg_b = write_config(tmp_path, "b.cfg", **fast_line_values(seed=2))
        assert cli.main(["compare", "--config-a", cfg_a,
                         "--config-b", cfg_b]) == 2
        assert "same stream" in capsys.readouterr().err

    def test_results_files_worked_example(self, tmp_path, capsys):
        # 15 vs 5 discordant errors: K = 10^2/20 = 5.0, approx verdict,
        # flagged because only 20 discordant pairs back the statistic
        truths = [0] * 40
        preds_a = [0] * 40
        preds_b = [0] * 40
        preds_b[:15] = [1] * 15
        preds_a[15:20] = [1] * 5
        paths = []
        for name, preds, acc in (("a.json", preds_a, 35 / 40),
                                 ("b.json", preds_b, 25 / 40)):
            payload = {"format": RESULTS_FORMAT, "version": 1,
                       "mean_accuracy": acc, "predictions": preds,
                       "truths": truths}
            path = tmp_path / name
            path.write_text(json.dumps(payload), encoding="utf-8")
            paths.append(str(path))
        assert cli.main(["compare", "--results-a", paths[0],
                         "--results-b", paths[1]]) == 0
        row = capsys.readouterr().out.strip()
        assert "n01=5 n10=15" in row
        assert "K=5.000" in row
        assert "≈ (x)" in row

    def test_results_files_with_different_truths(self, tmp_path, capsys):
        for name, truths in (("a.json", [0, 1]), ("b.json", [1, 0])):
            payload = {"format": RESULTS_FORMAT, "version": 1,
                       "mean_accuracy": 1.0, "predictions": [0, 1],
                       "truths": truths}
            (tmp_path / name).write_text(json.dumps(payload), encoding="utf-8")
        assert cli.main(["compare", "--results-a", str(tmp_path / "a.json"),
                         "--results-b", str(tmp_path / "b.json")]) == 2
        assert "different test streams" in capsys.readouterr().err

    def test_results_flags_must_pair(self, tmp_path, capsys):
        assert cli.main(["compare", "--results-a", "only.json"]) == 2
        assert "together" in capsys.readouterr().err

    def test_config_flags_required_without_results(self, capsys):
        assert cli.main(["compare"]) == 2

    def test_sweep_ks_emits_one_row_per_value(self, tmp_path, capsys):
        cfg_a = write_config(tmp_path, "a.cfg", **fast_line_values())
        cfg_b = write_config(tmp_path, "b.cfg",
                             **fast_line_values(strategy="global"))
        assert cli.main(["compare", "--config-a", cfg_a, "--config-b", cfg_b,
                         "--sweep-ks", "0.5,0.8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("ks=0.5 ")
        assert lines[1].startswith("ks=0.8 ")
        assert all("K=" in line for line in lines)

    def test_sweep_ks_rejects_garbage(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **fast_line_values())
        assert cli.main(["compare", "--config-a", cfg, "--config-b", cfg,
                         "--sweep-ks", "fast,slow"]) == 2
        assert cli.main(["compare", "--config-a", cfg, "--config-b", cfg,
                         "--sweep-ks", ","]) == 2


class TestTune:
    def test_tune_selects_and_writes_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dataset="line", n_samples=1250,
                           trs=150, tes=50, seed=1)
        tuned_path = tmp_path / "tuned.cfg"
        assert cli.main(["tune", "--config", cfg, "--out", str(tuned_path)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("ks=") >= len(cli.KS_GRID)
        assert stdout.count("ws=") >= len(cli.WS_GRID)
        selected = [line for line in stdout.splitlines()
                    if line.startswith("selected ")]
        assert len(selected) == 1
        assert tuned_path.exists()
        # the tuned file parses back and matches the announcement
        from driftfis.config import build_experiment_config, parse_config_file
        tuned = build_experiment_config(parse_config_file(str(tuned_path)))
        token_ks, token_ws = selected[0].split()[1:3]
        assert tuned.learner.ks == float(token_ks.split("=")[1])
        assert tuned.learner.ws == int(token_ws.split("=")[1])

    def test_tune_needs_room_for_validation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dataset="line", n_samples=300,
                           trs=150, tes=50)
        assert cli.main(["tune", "--config", cfg]) == 2
        assert "validation slice" in capsys.readouterr().err


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
