"""Tests for the IDX and CSV loaders, feature scaling and splitting.

Every fixture file is written into pytest's `tmp_path`.
"""

import struct

import numpy as np
import pytest

from mtjsc.datasets import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    SONAR_SCHEMA,
    WINE_SCHEMA,
    CsvSchema,
    DataError,
    Dataset,
    apply_scaling,
    downscale_14x14,
    fit_scaling,
    load_csv_dataset,
    load_mnist,
    split_dataset,
)


def write_idx(path, magic, data):
    header = struct.pack(f">{1 + data.ndim}I", magic, *data.shape)
    path.write_bytes(header + data.astype(np.uint8).tobytes())
    return path


def idx_pair(tmp_path, images, labels):
    return (write_idx(tmp_path / "images.idx3", IDX_IMAGES_MAGIC, images),
            write_idx(tmp_path / "labels.idx1", IDX_LABELS_MAGIC, labels))


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (5, 28, 28), dtype=np.uint8)
        labels = np.array([3, 1, 4, 1, 5], dtype=np.uint8)
        data = load_mnist(*idx_pair(tmp_path, images, labels))
        assert data.n_classes == 10
        assert np.array_equal(data.labels, labels)
        assert data.features.shape == (5, 784)
        assert np.array_equal(data.features,
                              2.0 * images.reshape(5, -1) / 255.0 - 1.0)
        assert np.array_equal(data.scaling_lo, np.zeros(784))
        assert np.array_equal(data.scaling_hi, np.full(784, 255.0))

    def test_bad_magic(self, tmp_path):
        images = np.zeros((2, 28, 28), dtype=np.uint8)
        good = write_idx(tmp_path / "labels.idx1", IDX_LABELS_MAGIC,
                         np.zeros(2, dtype=np.uint8))
        # a label file where the image file belongs
        with pytest.raises(DataError, match="bad IDX magic"):
            load_mnist(write_idx(tmp_path / "images.idx3", IDX_LABELS_MAGIC,
                                 images), good)

    def test_truncated_header(self, tmp_path):
        images = tmp_path / "images.idx3"
        images.write_bytes(struct.pack(">2I", IDX_IMAGES_MAGIC, 2))
        labels = write_idx(tmp_path / "labels.idx1", IDX_LABELS_MAGIC,
                           np.zeros(2, dtype=np.uint8))
        with pytest.raises(DataError, match="truncated IDX header"):
            load_mnist(images, labels)

    def test_truncated_body(self, tmp_path):
        images, labels = idx_pair(tmp_path, np.zeros((2, 28, 28)),
                                  np.zeros(2))
        images.write_bytes(images.read_bytes()[:-1])
        with pytest.raises(DataError, match="truncated IDX body"):
            load_mnist(images, labels)

    def test_count_mismatch(self, tmp_path):
        with pytest.raises(DataError, match="count mismatch"):
            load_mnist(*idx_pair(tmp_path, np.zeros((3, 28, 28)),
                                 np.zeros(2)))


class TestCsv:
    def test_named_label_column(self, tmp_path):
        path = write_text(tmp_path, "wine.csv",
                          '"fixed acidity";"quality";"alcohol"\n'
                          "7.4;5;9.4\n"
                          "7.8;6;9.8\n")
        data = load_csv_dataset(path, WINE_SCHEMA)
        assert np.array_equal(data.features, [[7.4, 9.4], [7.8, 9.8]])
        assert np.array_equal(data.labels, [5, 6])
        assert data.n_classes == 10

    def test_missing_named_column(self, tmp_path):
        path = write_text(tmp_path, "wine.csv", "a;b\n1;2\n")
        with pytest.raises(DataError, match="missing column 'quality'"):
            load_csv_dataset(path, WINE_SCHEMA)

    def test_label_map(self, tmp_path):
        path = write_text(tmp_path, "sonar.csv", "0.1,0.2,R\n0.3,0.4,M\n")
        data = load_csv_dataset(path, SONAR_SCHEMA)
        assert np.array_equal(data.features, [[0.1, 0.2], [0.3, 0.4]])
        assert np.array_equal(data.labels, [0, 1])

    def test_unknown_label(self, tmp_path):
        path = write_text(tmp_path, "sonar.csv", "0.1,0.2,R\n0.3,0.4,X\n")
        with pytest.raises(DataError, match=r":2: unknown label 'X'"):
            load_csv_dataset(path, SONAR_SCHEMA)

    def test_ragged_rows(self, tmp_path):
        path = write_text(tmp_path, "sonar.csv", "0.1,0.2,R\n0.3,M\n")
        with pytest.raises(DataError, match="inconsistent column counts"):
            load_csv_dataset(path, SONAR_SCHEMA)

    def test_unparsable_cell(self, tmp_path):
        path = write_text(tmp_path, "sonar.csv", "0.1,0.2,R\n0.3,abc,M\n")
        with pytest.raises(DataError, match=":2: unparsable cell"):
            load_csv_dataset(path, SONAR_SCHEMA)

    def test_row_too_short_for_named_label(self, tmp_path):
        path = write_text(tmp_path, "wine.csv",
                          '"fixed acidity";"quality";"alcohol"\n'
                          "7.4;5;9.4\n"
                          "2\n")
        with pytest.raises(DataError, match=r"wine.csv:3: 1 cells, too few "
                                            r"for label column 'quality' "
                                            r"\(index 1\)"):
            load_csv_dataset(path, WINE_SCHEMA)

    @pytest.mark.parametrize("column", [2, -3])
    def test_row_too_short_for_label_index(self, tmp_path, column):
        path = write_text(tmp_path, "t.csv", "0.1,0.2,1\n0.3,1\n")
        schema = CsvSchema(label_column=column, n_classes=2)
        with pytest.raises(DataError, match=rf"t.csv:2: 2 cells, too few for "
                                            rf"label column {column}$"):
            load_csv_dataset(path, schema)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty file"):
            load_csv_dataset(write_text(tmp_path, "e.csv", "\n"), SONAR_SCHEMA)


class TestScaling:
    def test_constant_feature(self):
        raw = Dataset(np.array([[1.0, 5.0], [3.0, 5.0], [2.0, 5.0]]),
                      np.zeros(3, dtype=int), n_classes=1)
        scaled = fit_scaling(raw)
        assert np.array_equal(scaled.features[:, 0], [-1.0, 1.0, 0.0])
        # zero span: the constant column maps to -1 rather than dividing by 0
        assert np.array_equal(scaled.features[:, 1], [-1.0, -1.0, -1.0])
        assert np.array_equal(scaled.scaling_lo, [1.0, 5.0])
        assert np.array_equal(scaled.scaling_hi, [3.0, 5.0])

    def test_apply_replays_reference_map(self):
        train = fit_scaling(Dataset(np.array([[0.0, 10.0], [4.0, 20.0]]),
                                    np.zeros(2, dtype=int), n_classes=1))
        test = Dataset(np.array([[1.0, 15.0], [8.0, 0.0]]),
                       np.zeros(2, dtype=int), n_classes=1)
        scaled = apply_scaling(test, train)
        # out-of-range values clip to the unit interval
        assert np.array_equal(scaled.features, [[-0.5, 0.0], [1.0, -1.0]])
        assert scaled.scaling_lo is train.scaling_lo
        assert scaled.scaling_hi is train.scaling_hi

    def test_apply_needs_reference_scaling(self):
        data = Dataset(np.zeros((2, 1)), np.zeros(2, dtype=int), n_classes=1)
        with pytest.raises(DataError, match="no scaling"):
            apply_scaling(data, data)


class TestSplit:
    @staticmethod
    def numbered(n):
        return Dataset(np.arange(n, dtype=float)[:, None], np.arange(n) % 2,
                       n_classes=2)

    @pytest.mark.parametrize("size", [0, 10, -1, 11])
    def test_bounds(self, size):
        with pytest.raises(DataError):
            split_dataset(self.numbered(10), size, seed=0)

    def test_partition_and_labels(self):
        first, rest = split_dataset(self.numbered(10), 3, seed=0)
        assert (len(first), len(rest)) == (3, 7)
        assert (first.split, rest.split) == ("train", "test")
        rows = np.concatenate([first.features[:, 0], rest.features[:, 0]])
        assert sorted(rows) == list(range(10))
        assert np.array_equal(first.labels, first.features[:, 0].astype(int) % 2)

    def test_seeded_determinism(self):
        a, _ = split_dataset(self.numbered(50), 20, seed=7)
        b, _ = split_dataset(self.numbered(50), 20, seed=7)
        c, _ = split_dataset(self.numbered(50), 20, seed=8)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)


class TestDownscale:
    def test_known_pattern(self):
        # each 2x2 block holds its block index plus 0, 1, 2 and 3 (mean +1.5)
        block = np.add.outer(np.arange(14) * 14, np.arange(14)).astype(float)
        img = np.kron(block, np.ones((2, 2)))
        img += np.tile([[0.0, 1.0], [2.0, 3.0]], (14, 14))
        data = Dataset(img.reshape(1, 784), np.zeros(1, dtype=int), n_classes=1)
        pooled = downscale_14x14(data)
        assert np.array_equal(pooled.features[0], np.arange(196) + 1.5)
        assert pooled.scaling_lo is None and pooled.scaling_hi is None

    def test_keeps_pixel_scaling(self, tmp_path):
        data = load_mnist(*idx_pair(tmp_path, np.zeros((1, 28, 28)),
                                    np.zeros(1)))
        pooled = downscale_14x14(data)
        assert np.array_equal(pooled.scaling_lo, np.zeros(196))
        assert np.array_equal(pooled.scaling_hi, np.full(196, 255.0))

    def test_rejects_other_widths(self):
        data = Dataset(np.zeros((1, 196)), np.zeros(1, dtype=int), n_classes=1)
        with pytest.raises(DataError, match="784"):
            downscale_14x14(data)
