import struct

import numpy as np
import pytest

from qatlab.datasets import (
    Dataset,
    batches,
    gen_classification,
    gen_regression,
    load_csv,
    load_idx,
    make_calibration,
)


class TestDatasetInvariants:
    def _base(self, **kw):
        args = dict(
            inputs=np.zeros((10, 2)),
            targets=np.zeros(10),
            train_idx=np.arange(8),
            eval_idx=np.array([8, 9]),
            calib_idx=np.array([0, 1]),
            task="regression",
        )
        args.update(kw)
        return Dataset(**args)

    def test_valid(self):
        d = self._base()
        assert d.train_x.shape == (8, 2)
        assert d.eval_y.shape == (2,)

    def test_eval_train_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            self._base(eval_idx=np.array([7, 9]))

    def test_calib_outside_train_rejected(self):
        with pytest.raises(ValueError, match="calibration"):
            self._base(calib_idx=np.array([9]))

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="bounds"):
            self._base(train_idx=np.arange(11))

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="task"):
            self._base(task="ranking")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            self._base(targets=np.zeros(9))


class TestRegression:
    def test_identity_teacher_no_noise(self):
        d = gen_regression(seed=3, n=50, dim=4, teacher=(), noise=0.0)
        np.testing.assert_array_equal(d.targets, d.inputs)

    def test_variance_moment(self):
        # var(target) = var(uniform) + noise^2 for the identity teacher
        d = gen_regression(seed=0, n=100_000, dim=2, teacher=(), noise=0.3)
        expect = 1.0 / 12.0 + 0.09
        got = d.targets.var(axis=0)
        np.testing.assert_allclose(got, expect, rtol=0.05)

    def test_teacher_changes_targets(self):
        d = gen_regression(seed=1, n=40, dim=3, teacher=(8,), noise=0.0)
        assert not np.allclose(d.targets, d.inputs)

    def test_deterministic(self):
        a = gen_regression(seed=7, n=64, dim=5)
        b = gen_regression(seed=7, n=64, dim=5)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)
        np.testing.assert_array_equal(a.calib_idx, b.calib_idx)
        c = gen_regression(seed=8, n=64, dim=5)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_split_sizes(self):
        d = gen_regression(seed=0, n=1000, dim=2)
        assert len(d.eval_idx) == 200
        assert len(d.train_idx) == 800
        assert len(d.calib_idx) == 80

    def test_inputs_in_unit_cube(self):
        d = gen_regression(seed=2, n=500, dim=3)
        assert d.inputs.min() >= 0.0 and d.inputs.max() < 1.0


class TestClassification:
    def test_balanced_counts(self):
        d = gen_classification(seed=0, n=1001, classes=3)
        counts = np.bincount(d.targets, minlength=3)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 1001

    def test_blobs_nearest_center_separable(self):
        # Default spread keeps clusters far apart: the nearest true center
        # classifies essentially every point.
        d = gen_classification(seed=5, n=2000, classes=3, dim=2)
        centers = np.stack(
            [d.inputs[d.targets == c].mean(axis=0) for c in range(3)]
        )
        dist = ((d.inputs[:, None, :] - centers[None]) ** 2).sum(-1)
        acc = (dist.argmin(axis=1) == d.targets).mean()
        assert acc >= 0.995

    def test_blobs_high_dim(self):
        d = gen_classification(seed=1, n=300, classes=3, dim=16)
        assert d.inputs.shape == (300, 16)
        # Rotated one-hot corners keep pairwise center distances equal.
        centers = np.stack(
            [d.inputs[d.targets == c].mean(axis=0) for c in range(3)]
        )
        gaps = [np.linalg.norm(centers[i] - centers[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        assert np.ptp(gaps) < 1.0

    def test_spirals_radius_grows(self):
        d = gen_classification(
            seed=2, n=900, classes=3, mode="spirals", noise=0.0, separation=4.0
        )
        r = np.linalg.norm(d.inputs, axis=1)
        assert r.min() > 0.2 and r.max() < 4.5

    def test_spirals_need_2d(self):
        with pytest.raises(ValueError, match="2-d"):
            gen_classification(seed=0, n=90, mode="spirals", dim=3)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            gen_classification(seed=0, n=90, mode="moons")

    def test_deterministic(self):
        a = gen_classification(seed=4, n=120, classes=4, dim=4)
        b = gen_classification(seed=4, n=120, classes=4, dim=4)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)


def write_idx_images(path, arrays):
    n = len(arrays)
    h, w = arrays[0].shape
    blob = struct.pack(">BBBB", 0, 0, 0x08, 3)
    blob += struct.pack(">III", n, h, w)
    for a in arrays:
        blob += a.astype(np.uint8).tobytes()
    path.write_bytes(blob)


def write_idx_labels(path, labels):
    blob = struct.pack(">BBBB", 0, 0, 0x08, 1)
    blob += struct.pack(">I", len(labels))
    blob += bytes(labels)
    path.write_bytes(blob)


class TestLoadIdx:
    def test_exact_pixels(self, tmp_path):
        imgs = [
            np.arange(6, dtype=np.uint8).reshape(3, 2),
            np.array([[250, 0], [1, 255], [128, 7]], dtype=np.uint8),
        ]
        p = tmp_path / "imgs.idx"
        write_idx_images(p, imgs)
        d = load_idx(p, eval_fraction=0.0)
        assert d.inputs.shape == (2, 6)
        np.testing.assert_array_equal(
            d.inputs, np.stack([i.reshape(-1) for i in imgs]) / 255.0
        )

    def test_labels_paired(self, tmp_path):
        imgs = [np.zeros((2, 2), dtype=np.uint8)] * 3
        write_idx_images(tmp_path / "x.idx", imgs)
        write_idx_labels(tmp_path / "y.idx", [2, 0, 1])
        d = load_idx(tmp_path / "x.idx", tmp_path / "y.idx", eval_fraction=0.0)
        np.testing.assert_array_equal(np.sort(d.targets), [0, 1, 2])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(b"\x01\x00\x08\x03" + b"\x00" * 16)
        with pytest.raises(ValueError, match="offset 0"):
            load_idx(p)

    def test_bad_dtype_byte(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(b"\x00\x00\x0d\x03" + b"\x00" * 16)
        with pytest.raises(ValueError, match="offset 2"):
            load_idx(p)

    def test_truncated_payload(self, tmp_path):
        imgs = [np.zeros((4, 4), dtype=np.uint8)] * 2
        p = tmp_path / "x.idx"
        write_idx_images(p, imgs)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_idx(p)

    def test_label_count_mismatch(self, tmp_path):
        write_idx_images(tmp_path / "x.idx", [np.zeros((2, 2), dtype=np.uint8)] * 3)
        write_idx_labels(tmp_path / "y.idx", [0, 1])
        with pytest.raises(ValueError, match="count"):
            load_idx(tmp_path / "x.idx", tmp_path / "y.idx")


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1.5,2.0,0.25\n-3.0,0.5,1.75\n")
        d = load_csv(p, target="y", eval_fraction=0.0)
        np.testing.assert_array_equal(d.inputs, [[1.5, 2.0], [-3.0, 0.5]])
        np.testing.assert_array_equal(d.targets, [[0.25], [1.75]])

    def test_target_column_position(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y,a\n9.0,1.0\n8.0,2.0\n")
        d = load_csv(p, target="y", eval_fraction=0.0)
        np.testing.assert_array_equal(d.inputs, [[1.0], [2.0]])

    def test_classification_targets(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n0.5,1\n0.7,0\n")
        d = load_csv(p, target="y", task="classification", eval_fraction=0.0)
        assert d.targets.dtype == np.int64

    def test_non_integer_class_label(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n0.5,1.5\n")
        with pytest.raises(ValueError, match="integer"):
            load_csv(p, target="y", task="classification")

    def test_negative_class_label(self, tmp_path):
        # A label of -1 would index the last logit and train silently.
        p = tmp_path / "d.csv"
        p.write_text("a,y\n0.5,1\n0.7,-1\n")
        with pytest.raises(ValueError, match="integers >= 0"):
            load_csv(p, target="y", task="classification")

    def test_malformed_cell_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n1.0,2.0\nbogus,3.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(p, target="y")

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n1.0,2.0,9.9\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(p, target="y")

    def test_missing_target_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ValueError, match="no column"):
            load_csv(p, target="y")

    def test_no_data_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n")
        with pytest.raises(ValueError, match="no data"):
            load_csv(p, target="y")

    def test_oversized_field(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n" + "1" * 200_000 + ",2.0\n")
        with pytest.raises(ValueError, match="field larger than field limit"):
            load_csv(p, target="y")

    def test_unknown_schema_key(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n1.0,2.0\n")
        with pytest.raises(TypeError, match="normalize"):
            load_csv(p, target="y", normalize=True)


class TestMakeCalibration:
    def test_exact_count(self):
        d = gen_regression(seed=0, n=1250, dim=2)  # train split: 1000 rows
        c = make_calibration(d, 0.1, seed=11)
        assert len(c.calib_idx) == 100
        assert np.isin(c.calib_idx, c.train_idx).all()

    def test_full_fraction(self):
        d = gen_regression(seed=0, n=100, dim=2)
        c = make_calibration(d, 1.0, seed=0)
        np.testing.assert_array_equal(np.sort(c.calib_idx), np.sort(c.train_idx))

    def test_deterministic(self):
        d = gen_regression(seed=0, n=200, dim=2)
        a = make_calibration(d, 0.25, seed=3)
        b = make_calibration(d, 0.25, seed=3)
        np.testing.assert_array_equal(a.calib_idx, b.calib_idx)
        c = make_calibration(d, 0.25, seed=4)
        assert not np.array_equal(a.calib_idx, c.calib_idx)

    def test_fraction_bounds(self):
        d = gen_regression(seed=0, n=100, dim=2)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                make_calibration(d, bad, seed=0)

    def test_original_untouched(self):
        d = gen_regression(seed=0, n=100, dim=2)
        before = d.calib_idx.copy()
        make_calibration(d, 0.5, seed=9)
        np.testing.assert_array_equal(d.calib_idx, before)


class TestBatches:
    def test_training_drops_short_tail(self):
        got = list(batches(10, 4, drop_last=True))
        assert [len(b) for b in got] == [4, 4]

    def test_eval_keeps_tail(self):
        got = list(batches(10, 4, drop_last=False))
        assert [len(b) for b in got] == [4, 4, 2]
        np.testing.assert_array_equal(np.concatenate(got), np.arange(10))

    def test_exact_multiple(self):
        got = list(batches(8, 4, drop_last=True))
        assert [len(b) for b in got] == [4, 4]

    def test_shuffled_covers_everything(self):
        from qatlab.numeric import Rng

        got = np.concatenate(list(batches(12, 5, drop_last=False, rng=Rng(0))))
        np.testing.assert_array_equal(np.sort(got), np.arange(12))

    def test_bad_size(self):
        with pytest.raises(ValueError):
            list(batches(10, 0, drop_last=True))
