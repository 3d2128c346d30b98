"""Tests for stream generators, CSV round trips, chunking, standardization."""

import re

import numpy as np
import pytest

from driftfis.streams import (
    PRESETS,
    SEA_THRESHOLDS,
    Standardizer,
    Stream,
    StreamParseError,
    boundary_side,
    chunk_stream,
    default_chunk_sizes,
    gen_boundary_swap,
    gen_hyperplane,
    gen_plane10d,
    gen_sea,
    load_csv,
    make_stream,
    save_csv,
)


class TestSea:
    def test_shape_and_ranges(self):
        s = gen_sea(1000, seed=3)
        assert s.X.shape == (1000, 3)
        assert s.y.shape == (1000,)
        assert s.X.min() >= 0.0 and s.X.max() <= 10.0
        assert set(np.unique(s.y)) <= {0, 1}
        assert s.n_features == 3
        assert s.n_classes == 2

    def test_labels_follow_block_thresholds(self):
        s = gen_sea(4000, seed=1)
        block = 1000
        for i, theta in enumerate(SEA_THRESHOLDS):
            seg = slice(i * block, (i + 1) * block)
            expected = (s.X[seg, 0] + s.X[seg, 1] <= theta).astype(int)
            assert np.array_equal(s.y[seg], expected)

    def test_third_feature_is_irrelevant(self):
        s = gen_sea(4000, seed=1)
        # labels are fully determined without feature 2
        expected = (s.X[:, 0] + s.X[:, 1] <= np.repeat(SEA_THRESHOLDS, 1000))
        assert np.array_equal(s.y, expected.astype(int))

    def test_deterministic_in_seed(self):
        a, b = gen_sea(500, seed=9), gen_sea(500, seed=9)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        c = gen_sea(500, seed=10)
        assert not np.array_equal(a.X, c.X)

    def test_noise_flips_about_the_requested_rate(self):
        clean = gen_sea(20000, noise=0.0, seed=4)
        noisy = gen_sea(20000, noise=0.1, seed=4)
        assert np.array_equal(clean.X, noisy.X)
        rate = float(np.mean(clean.y != noisy.y))
        assert 0.08 < rate < 0.12

    @pytest.mark.parametrize("n, noise", [(4000, 0.0), (4003, 0.0), (4003, 0.2)])
    def test_matches_the_threshold_array_formula(self, n, noise):
        # the labels as a full threshold array and np.where computed them
        s = gen_sea(n, noise=noise, seed=5)
        rng = np.random.default_rng(5)
        X = rng.uniform(0.0, 10.0, size=(n, 3))
        block = n // len(SEA_THRESHOLDS)
        thetas = np.repeat(SEA_THRESHOLDS, [block] * 3 + [n - 3 * block])
        y = (X[:, 0] + X[:, 1] <= thetas).astype(np.int64)
        if noise > 0.0:
            y = np.where(rng.random(n) < noise, 1 - y, y)
        assert s.X.tobytes() == X.tobytes()
        assert s.y.dtype == np.int64 and s.y.tobytes() == y.tobytes()

    def test_meta(self):
        s = gen_sea(800, noise=0.05, seed=7)
        assert s.meta["generator"] == "sea"
        assert s.meta["seed"] == 7
        assert s.meta["noise"] == 0.05
        assert s.meta["thresholds"] == list(SEA_THRESHOLDS)
        assert s.meta["block_size"] == 200


class TestHyperplane:
    def test_shape_and_balance(self):
        s = gen_hyperplane(5000, n_features=4, seed=2)
        assert s.X.shape == (5000, 4)
        assert s.X.min() >= 0.0 and s.X.max() <= 1.0
        # the adaptive threshold keeps classes roughly balanced
        assert 0.3 < s.y.mean() < 0.7

    def test_zero_drift_is_a_fixed_plane(self):
        s = gen_hyperplane(2000, n_features=5, drift_mag=0.0, seed=6)
        w = np.array(s.meta["init_weights"])
        expected = (s.X @ w >= 0.5 * w.sum()).astype(int)
        assert np.array_equal(s.y, expected)

    def test_drift_actually_moves_labels(self):
        fixed = gen_hyperplane(20000, drift_mag=0.0, seed=8)
        moving = gen_hyperplane(20000, drift_mag=0.01, flip_prob=0.0, seed=8)
        assert np.array_equal(fixed.X, moving.X)
        late = slice(10000, None)
        assert np.mean(fixed.y[late] != moving.y[late]) > 0.01


class TestBoundarySide:
    def test_line(self):
        assert boundary_side("line", [0.5, 0.5], [0.8, 0.2]).tolist() == [1, 0]

    def test_sin(self):
        # sin(pi/2) = 1: above at 1.5, below at 0.5
        assert boundary_side("sin", [np.pi / 2] * 2, [1.5, 0.5]).tolist() == [1, 0]

    def test_sinh(self):
        # sinh(2)/sinh(2) = 1 at x1 = 2
        assert boundary_side("sinh", [2.0, 2.0], [1.5, 0.5]).tolist() == [1, 0]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            boundary_side("cubic", [0.0], [0.0])


class TestBoundarySwap:
    def test_labels_invert_at_swap(self):
        s = gen_boundary_swap("line", 1000, seed=5)
        side = boundary_side("line", s.X[:, 0], s.X[:, 1])
        assert np.array_equal(s.y[:500], side[:500])
        assert np.array_equal(s.y[500:], 1 - side[500:])
        assert s.meta["swaps"] == [500]

    def test_double_swap_restores_mapping(self):
        s = gen_boundary_swap("sin", 900, swaps=[300, 600], seed=5)
        side = boundary_side("sin", s.X[:, 0], s.X[:, 1])
        assert np.array_equal(s.y[:300], side[:300])
        assert np.array_equal(s.y[300:600], 1 - side[300:600])
        assert np.array_equal(s.y[600:], side[600:])

    def test_no_swaps(self):
        s = gen_boundary_swap("sinh", 400, swaps=[], seed=5)
        side = boundary_side("sinh", s.X[:, 0], s.X[:, 1])
        assert np.array_equal(s.y, side)

    def test_inputs_stationary_across_swap(self):
        # the whole point of the swap: only labels change, inputs do not
        s = gen_boundary_swap("line", 2000, seed=0)
        lo, hi = s.X[:1000], s.X[1000:]
        assert abs(lo.mean() - hi.mean()) < 0.05

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_boundary_swap("spiral", 100)


class TestPlane10d:
    def test_swap_switches_weight_vector(self):
        s = gen_plane10d(1200, seed=3)
        w_a = np.array(s.meta["weights_a"])
        w_b = np.array(s.meta["weights_b"])
        y_a = (s.X @ w_a >= 0.5 * w_a.sum()).astype(int)
        y_b = (s.X @ w_b >= 0.5 * w_b.sum()).astype(int)
        assert np.array_equal(s.y[:600], y_a[:600])
        assert np.array_equal(s.y[600:], y_b[600:])
        assert s.X.shape == (1200, 10)

    def test_custom_swap_positions(self):
        s = gen_plane10d(300, seed=3, swaps=[100])
        w_a = np.array(s.meta["weights_a"])
        y_a = (s.X @ w_a >= 0.5 * w_a.sum()).astype(int)
        assert np.array_equal(s.y[:100], y_a[:100])
        assert s.meta["swaps"] == [100]


class TestCsv:
    # seeds 2 and 3 start with class 1: indexed by first appearance, their
    # classes would come back swapped
    @pytest.mark.parametrize("seed", [12, 2, 3])
    def test_roundtrip(self, tmp_path, seed):
        s = gen_sea(50, seed=seed)
        path = tmp_path / "stream.csv"
        save_csv(s, str(path))
        back = load_csv(str(path))
        assert np.array_equal(back.X, s.X)  # repr floats survive exactly
        assert np.array_equal(back.y, s.y)
        assert back.n_classes == s.n_classes
        assert (tmp_path / "stream.meta.json").exists()

    def test_sidecar_contents(self, tmp_path):
        import json
        s = gen_sea(50, noise=0.1, seed=12)
        path = tmp_path / "stream.csv"
        save_csv(s, str(path))
        sidecar = json.loads((tmp_path / "stream.meta.json").read_text())
        assert sidecar["meta"] == s.meta
        assert sidecar["n_samples"] == 50
        assert sidecar["n_features"] == 3
        assert sidecar["n_classes"] == 2
        assert sidecar["label_names"] == ["0", "1"]

    def test_label_order_is_first_appearance(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("f0,label\n1.0,b\n2.0,a\n3.0,b\n", encoding="utf-8")
        s = load_csv(str(path))
        assert s.label_names == ["b", "a"]
        assert s.y.tolist() == [0, 1, 0]

    @staticmethod
    def labels_with_sidecar(tmp_path, rows, sidecar):
        """labels.csv holding one feature and the given labels, and its
        sidecar holding the given text."""
        path = tmp_path / "labels.csv"
        path.write_text("f0,label\n" + "".join(
            f"{i}.0,{label}\n" for i, label in enumerate(rows)), encoding="utf-8")
        (tmp_path / "labels.meta.json").write_bytes(
            sidecar if isinstance(sidecar, bytes) else sidecar.encode())
        return str(path)

    def test_sidecar_order_maps_labels(self, tmp_path):
        path = self.labels_with_sidecar(
            tmp_path, ["b", "a", "b"], '{"label_names": ["a", "b", "z"]}')
        s = load_csv(path)
        assert s.label_names == ["a", "b", "z"]
        assert s.y.tolist() == [1, 0, 1]
        assert s.n_classes == 3  # a recorded class need not appear

    def test_label_missing_from_sidecar(self, tmp_path):
        path = self.labels_with_sidecar(
            tmp_path, ["a", "c"], '{"label_names": ["a", "b"]}')
        with pytest.raises(StreamParseError,
                           match=r"labels\.csv:3: unknown label 'c'"):
            load_csv(path)

    def test_sidecar_without_an_order_keeps_first_appearance(self, tmp_path):
        path = self.labels_with_sidecar(
            tmp_path, ["b", "a"], '{"label_names": null}')
        s = load_csv(path)
        assert s.label_names == ["b", "a"]
        assert s.y.tolist() == [0, 1]

    @pytest.mark.parametrize("sidecar", [
        "{not json", b"\xff\xfe{}", "[]", "{}", '{"label_names": "ab"}',
        '{"label_names": ["a", 1]}', '{"label_names": ["a", "a"]}',
        '{"label_names": [" a"]}',
    ], ids=["not-json", "not-utf8", "not-an-object", "no-order",
            "order-not-a-list", "non-string-name", "duplicate-name",
            "padded-name"])
    def test_malformed_sidecar(self, tmp_path, sidecar):
        path = self.labels_with_sidecar(tmp_path, ["a"], sidecar)
        with pytest.raises(StreamParseError,
                           match=r"labels\.meta\.json: malformed sidecar"):
            load_csv(path)

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"f0,label\n1.0,\xff\n")
        with pytest.raises(StreamParseError, match=r"binary\.csv: not UTF-8"):
            load_csv(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(StreamParseError, match="empty file"):
            load_csv(str(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "headeronly.csv"
        path.write_text("f0,label\n", encoding="utf-8")
        with pytest.raises(StreamParseError, match="no data rows"):
            load_csv(str(path))

    def test_too_few_columns(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("label\nx\n", encoding="utf-8")
        with pytest.raises(StreamParseError, match="at least one feature"):
            load_csv(str(path))

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f0,f1,label\n1.0,2.0,a\n1.0,a\n", encoding="utf-8")
        with pytest.raises(StreamParseError, match=r"ragged\.csv:3"):
            load_csv(str(path))

    def test_non_numeric_feature_reports_line(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("f0,label\noops,a\n", encoding="utf-8")
        with pytest.raises(StreamParseError, match=r"alpha\.csv:2: non-numeric"):
            load_csv(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_feature_reports_line(self, tmp_path, value):
        path = tmp_path / "wild.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,a\n1.0,{value},b\n",
                        encoding="utf-8")
        with pytest.raises(StreamParseError, match=r"wild\.csv:3: non-finite"):
            load_csv(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(StreamParseError, match="cannot open"):
            load_csv(str(tmp_path / "nope.csv"))

    def test_named_labels_roundtrip(self, tmp_path):
        s = Stream(X=np.array([[1.0], [2.0]]), y=np.array([1, 0]),
                   label_names=["spam", "ham"])
        path = tmp_path / "named.csv"
        save_csv(s, str(path))
        text = path.read_text()
        assert "ham" in text and "spam" in text
        back = load_csv(str(path))
        assert back.label_names == ["spam", "ham"]
        assert back.y.tolist() == [1, 0]

    @pytest.mark.parametrize("padded", [" spam", "spam\t"])
    def test_padded_label_name_rejected_before_writing(self, tmp_path, padded):
        # load_csv strips every label cell, so such a name could not read back
        s = Stream(X=np.array([[1.0], [2.0]]), y=np.array([1, 0]),
                   label_names=[padded, "ham"])
        path = tmp_path / "named.csv"
        with pytest.raises(ValueError, match=re.escape(repr(padded))):
            save_csv(s, str(path))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("y, names, problem", [
        # load_csv rejects a sidecar whose names repeat
        ([0, 1], ["a", "a"], "not distinct"),
        # names[-1] would write "b", read back as class 1
        ([0, -1], ["a", "b"], "indexes no name"),
        # names[2] would fail halfway through the CSV, with no sidecar
        ([0, 2], ["a", "b"], "indexes no name"),
    ], ids=["duplicate-name", "negative-label", "label-past-names"])
    def test_bad_labels_rejected_before_writing(self, tmp_path, y, names,
                                                problem):
        s = Stream(X=np.array([[1.0], [2.0]]), y=np.array(y), label_names=names)
        with pytest.raises(ValueError, match=problem):
            save_csv(s, str(tmp_path / "named.csv"))
        assert list(tmp_path.iterdir()) == []


class TestChunking:
    def test_basic_split(self):
        s = Stream(X=np.arange(20).reshape(10, 2).astype(float),
                   y=np.arange(10), meta={})
        pairs = chunk_stream(s, 3, 2)
        assert len(pairs) == 2
        X_tr, y_tr, X_te, y_te = pairs[0]
        assert np.array_equal(y_tr, [0, 1, 2])
        assert np.array_equal(y_te, [3, 4])
        X_tr2, y_tr2, _, y_te2 = pairs[1]
        assert np.array_equal(y_tr2, [5, 6, 7])
        assert np.array_equal(y_te2, [8, 9])
        # views into the stream, not copies
        assert np.shares_memory(X_tr, s.X)

    def test_partial_tail_dropped(self):
        s = Stream(X=np.zeros((11, 1)), y=np.zeros(11, dtype=int), meta={})
        assert len(chunk_stream(s, 3, 2)) == 2

    def test_preset_scale(self):
        s = gen_sea(PRESETS["sea"][0], seed=0)
        pairs = chunk_stream(s, 250, 250)
        assert len(pairs) == 200

    def test_errors(self):
        s = Stream(X=np.zeros((4, 1)), y=np.zeros(4, dtype=int), meta={})
        with pytest.raises(ValueError):
            chunk_stream(s, 0, 2)
        with pytest.raises(ValueError):
            chunk_stream(s, 3, 2)


class TestStandardizer:
    def test_standardizes(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(500, 2))
        z = Standardizer().fit(X).transform(X)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_frozen_at_fit(self):
        sc = Standardizer().fit(np.array([[0.0], [2.0]]))
        out = sc.transform(np.array([[4.0]]))
        assert out[0, 0] == pytest.approx(3.0)  # (4 - 1) / 1

    def test_constant_feature_passes_through(self):
        X = np.array([[1.0, 5.0], [1.0, 7.0]])
        z = Standardizer().fit(X).transform(X)
        assert np.array_equal(z[:, 0], [0.0, 0.0])
        assert np.isfinite(z).all()

    def test_unfitted_raises(self):
        with pytest.raises(ValueError):
            Standardizer().transform(np.zeros((2, 2)))

    def test_transform_is_the_plain_formula_and_leaves_its_input(self):
        rng = np.random.default_rng(6)
        X = rng.normal(5.0, 3.0, size=(300, 3))
        X[:, 1] = 2.5  # a constant feature, scaled by 1
        sc = Standardizer().fit(X)
        held = X.copy()
        z = sc.transform(X)
        assert X.tobytes() == held.tobytes()
        assert z.tobytes() == ((X - sc.mean) / sc.scale).tobytes()
        assert z.base is None and z is not X


class TestMakeStream:
    def test_dispatches_generators(self):
        assert make_stream("sea", n_samples=100).meta["generator"] == "sea"
        assert make_stream("hyperplane", n_samples=100).meta["generator"] == "hyperplane"
        assert make_stream("line", n_samples=100).meta["generator"] == "line"
        assert make_stream("plane10d", n_samples=100).meta["generator"] == "plane10d"

    def test_preset_sample_counts(self):
        for name, (n, _, _) in PRESETS.items():
            assert len(make_stream(name)) == n

    def test_csv_path(self, tmp_path):
        s = gen_sea(30, seed=1)
        path = tmp_path / "c.csv"
        save_csv(s, str(path))
        back = make_stream(str(path))
        assert np.array_equal(back.y, s.y)

    def test_unknown_dataset(self):
        with pytest.raises(StreamParseError, match="unknown dataset"):
            make_stream("mystery")

    def test_default_chunk_sizes(self):
        assert default_chunk_sizes("sea") == (250, 250)
        assert default_chunk_sizes("line") == (200, 50)
        assert default_chunk_sizes("other.csv") is None
