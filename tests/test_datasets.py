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
        # the pixel map is fixed; only fit_scaling splits carry a map
        assert data.scaling_lo is None and data.scaling_hi is None

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

    def test_mapped_label_outside_the_classes_named(self, tmp_path):
        path = write_text(tmp_path, "sonar.csv", "0.1,0.2,R\n0.3,0.4,M\n")
        schema = CsvSchema(label_map={"R": 0, "M": 5}, n_classes=2)
        with pytest.raises(DataError, match=r"^labels must lie in \[0, 2\); "
                                            r"label 1 is 5$"):
            load_csv_dataset(path, schema)

    def test_label_map_sizes_the_classes(self, tmp_path):
        """Without n_classes, a label map names every class, even one no
        row of the file holds."""
        path = write_text(tmp_path, "sonar.csv", "0.1,0.2,R\n0.3,0.4,R\n")
        data = load_csv_dataset(path, CsvSchema(label_map={"R": 0, "M": 1}))
        assert data.n_classes == 2
        assert data.labels.tolist() == [0, 0]

    def test_zero_classes_named(self, tmp_path):
        """n_classes 0 is refused as a class count, not taken as unset."""
        path = write_text(tmp_path, "t.csv", "0.1,0.2,7\n0.3,0.4,3\n")
        with pytest.raises(DataError, match=r"^n_classes must be an integer "
                                            r">= 1, got 0$"):
            load_csv_dataset(path, CsvSchema(n_classes=0))

    def test_ragged_rows(self, tmp_path):
        path = write_text(tmp_path, "sonar.csv", "0.1,0.2,R\n0.3,M\n")
        with pytest.raises(DataError, match="inconsistent column counts"):
            load_csv_dataset(path, SONAR_SCHEMA)

    def test_unparsable_cell(self, tmp_path):
        path = write_text(tmp_path, "sonar.csv", "0.1,0.2,R\n0.3,abc,M\n")
        with pytest.raises(DataError, match=":2: unparsable cell"):
            load_csv_dataset(path, SONAR_SCHEMA)

    def test_bad_cell_after_blank_lines_names_its_file_line(self, tmp_path):
        path = write_text(tmp_path, "sonar.csv", "0.1,0.2,R\n\n\n0.3,abc,M\n")
        with pytest.raises(DataError, match=r"sonar.csv:4: unparsable cell"):
            load_csv_dataset(path, SONAR_SCHEMA)

    def test_bad_label_after_blank_line_names_its_file_line(self, tmp_path):
        path = write_text(tmp_path, "wine.csv",
                          '"fixed acidity";"quality";"alcohol"\n'
                          "7.4;5;9.4\n"
                          "\n"
                          "7.8;1.5;9.8\n")
        with pytest.raises(DataError, match=r"wine.csv:4: label '1.5' is not "
                                            r"a whole number$"):
            load_csv_dataset(path, WINE_SCHEMA)

    def test_unparsable_label(self, tmp_path):
        path = write_text(tmp_path, "t.csv", "0.1,0.2,1\n0.3,0.4,abc\n")
        with pytest.raises(DataError, match=r"t.csv:2: unparsable label "
                                            r"'abc'$"):
            load_csv_dataset(path, CsvSchema(n_classes=2))

    def test_named_label_column_needs_a_header(self, tmp_path):
        path = write_text(tmp_path, "t.csv", "0.1,0.2,1\n")
        with pytest.raises(DataError, match=r"^named label column requires a "
                                            r"header row$"):
            load_csv_dataset(path, CsvSchema(label_column="quality"))

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
        path = write_text(tmp_path, "t.csv", "0,0.2,1\n0.3,1\n")
        schema = CsvSchema(label_column=column, n_classes=2)
        with pytest.raises(DataError, match=rf"t.csv:2: 2 cells, too few for "
                                            rf"label column {column}$"):
            load_csv_dataset(path, schema)

    @pytest.mark.parametrize("cell", ["1.5", "inf", "nan"])
    def test_label_not_a_whole_number(self, tmp_path, cell):
        path = write_text(tmp_path, "t.csv", f"0.1,0.2,1\n0.3,0.4,{cell}\n")
        with pytest.raises(DataError, match=rf"t.csv:2: label '{cell}' is not "
                                            rf"a whole number"):
            load_csv_dataset(path, CsvSchema(n_classes=2))

    @pytest.mark.parametrize("cell, n_classes, bound", [
        ("1e300", None, "9223372036854775808"),
        ("9223372036854775808", None, "9223372036854775808"),
        ("1e300", 2, "2"),
        ("2", 2, "2"),
        ("-1", None, "9223372036854775808"),
    ])
    def test_label_out_of_range(self, tmp_path, cell, n_classes, bound):
        """A whole-number label that no class or no int64 holds is refused
        by file, line and cell, not by a bare OverflowError."""
        path = write_text(tmp_path, "t.csv", f"0.1,0.2,1\n0.3,0.4,{cell}\n")
        with pytest.raises(DataError, match=rf"t.csv:2: label '{cell}' is "
                                            rf"outside \[0, {bound}\)$"):
            load_csv_dataset(path, CsvSchema(n_classes=n_classes))

    def test_largest_int64_label_loads(self, tmp_path):
        path = write_text(tmp_path, "t.csv", "0.1,0.2,9223372036854774784\n")
        data = load_csv_dataset(path, CsvSchema())
        assert data.labels.tolist() == [9223372036854774784]

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty file"):
            load_csv_dataset(write_text(tmp_path, "e.csv", "\n"), SONAR_SCHEMA)

    def test_header_only_file(self, tmp_path):
        path = write_text(tmp_path, "wine.csv",
                          '"fixed acidity";"quality";"alcohol"\n')
        with pytest.raises(DataError, match="wine.csv: no data rows below "
                                            "the header"):
            load_csv_dataset(path, WINE_SCHEMA)


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

    def test_apply_refuses_feature_count_mismatch(self):
        train = fit_scaling(Dataset(np.zeros((2, 3)), np.zeros(2, dtype=int),
                                    n_classes=1))
        test = Dataset(np.zeros((2, 2)), np.zeros(2, dtype=int), n_classes=1)
        with pytest.raises(DataError, match="dataset has 2 features, but the "
                                            "reference scaling has 3"):
            apply_scaling(test, train)

    def test_fit_refuses_an_empty_split(self):
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), n_classes=2)
        with pytest.raises(DataError, match=r"^cannot fit a scaling on an "
                                            r"empty split \(0 rows of 3 "
                                            r"features\)$"):
            fit_scaling(empty)


class TestFeatures:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_feature_named(self, bad):
        features = np.zeros((3, 2))
        features[1, 1] = features[2, 0] = bad
        with pytest.raises(DataError, match=f"features must be finite; "
                                            f"row 1, column 1 is {bad}"):
            Dataset(features, np.zeros(3, dtype=int), n_classes=1)


class TestLabels:
    @pytest.mark.parametrize("labels, message", [
        ([0.0, 0.5, 1.5], r"label 1 is 0.5"),
        ([1.0, np.nan], r"label 1 is nan"),
        ([np.inf, 0.0], r"label 0 is inf")])
    def test_refuses_fractional_or_non_finite(self, labels, message):
        with pytest.raises(DataError, match=message):
            Dataset(np.zeros((len(labels), 1)), np.array(labels), n_classes=2)

    @pytest.mark.parametrize("n_classes", [2.5, True, 0, -1, "2", None])
    def test_refuses_n_classes_that_is_not_a_count(self, n_classes):
        with pytest.raises(DataError, match=rf"n_classes must be an integer "
                                            rf">= 1, got {n_classes!r}$"):
            Dataset(np.zeros((2, 1)), np.array([0, 1]), n_classes=n_classes)

    def test_accepts_numpy_integer_n_classes(self):
        data = Dataset(np.zeros((2, 1)), np.array([0, 1]),
                       n_classes=np.int64(2))
        assert data.n_classes == 2

    @pytest.mark.parametrize("labels, at", [([0, 3, 2], "label 1 is 3"),
                                            ([0, 1, -1], "label 2 is -1")])
    def test_out_of_range_label_named(self, labels, at):
        with pytest.raises(DataError, match=rf"^labels must lie in \[0, 2\); "
                                            rf"{at}$"):
            Dataset(np.zeros((3, 1)), np.array(labels), n_classes=2)

    def test_refuses_labels_that_are_not_numbers(self):
        with pytest.raises(DataError, match=r"^labels must be whole numbers, "
                                            r"got dtype <U1$"):
            Dataset(np.zeros((2, 1)), np.array(["a", "b"]), n_classes=2)

    @pytest.mark.parametrize("features, labels", [
        (np.zeros(3), np.zeros(3, dtype=int)),
        (np.zeros((3, 2)), np.zeros(2, dtype=int))],
        ids=["1-D features", "label count"])
    def test_refuses_features_without_one_label_per_row(self, features,
                                                        labels):
        with pytest.raises(DataError, match=r"^features must be \(D, I\) with "
                                            r"one label per row$"):
            Dataset(features, labels, n_classes=1)

    def test_whole_float_labels_become_integers(self):
        data = Dataset(np.zeros((2, 1)), np.array([1.0, 0.0]), n_classes=2)
        assert data.labels.dtype == np.int64
        assert data.labels.tolist() == [1, 0]


class TestSplit:
    @staticmethod
    def numbered(n):
        return Dataset(np.arange(n, dtype=float)[:, None], np.arange(n) % 2,
                       n_classes=2)

    @pytest.mark.parametrize("size", [0, 10, -1, 11])
    def test_bounds(self, size):
        with pytest.raises(DataError):
            split_dataset(self.numbered(10), size, seed=0)

    @pytest.mark.parametrize("size", [2.5, True, 3.0, None])
    def test_refuses_size_that_is_not_a_count(self, size):
        with pytest.raises(DataError, match=rf"split size must be an integer, "
                                            rf"got {size!r}"):
            split_dataset(self.numbered(10), size, seed=0)

    def test_accepts_numpy_integer_size(self):
        first, _ = split_dataset(self.numbered(10), np.int64(3), seed=0)
        assert len(first) == 3

    def test_partition_and_labels(self):
        first, rest = split_dataset(self.numbered(10), 3, seed=0)
        assert (len(first), len(rest)) == (3, 7)
        rows = np.concatenate([first.features[:, 0], rest.features[:, 0]])
        assert sorted(rows) == list(range(10))
        assert np.array_equal(first.labels, first.features[:, 0].astype(int) % 2)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_refuses_bad_seed(self, seed):
        with pytest.raises(DataError, match=rf"seed must be a non-negative "
                                            rf"integer, got {seed!r}"):
            split_dataset(self.numbered(10), 3, seed=seed)

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

    def test_drops_a_fitted_map(self):
        """A 784-feature map does not describe the pooled rows."""
        data = fit_scaling(Dataset(np.arange(1568.0).reshape(2, 784),
                                   np.zeros(2, dtype=int), n_classes=1))
        pooled = downscale_14x14(data)
        assert pooled.scaling_lo is None and pooled.scaling_hi is None

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
    def test_matches_the_two_axis_mean(self, n):
        """Bit for bit the numpy mean over each 2x2 block, on random pixels
        and on the pixel extremes 0 and 255."""
        rng = np.random.default_rng(n)
        pixels = rng.integers(0, 256, (n, 784)).astype(float)
        pixels[0, :392], pixels[-1, 392:] = 0.0, 255.0
        for features in (2.0 * pixels / 255.0 - 1.0,
                         rng.standard_normal((n, 784))):
            data = Dataset(features, np.zeros(n, dtype=int), n_classes=1)
            expected = features.reshape(-1, 14, 2, 14, 2).mean(axis=(2, 4))
            assert np.array_equal(downscale_14x14(data).features,
                                  expected.reshape(-1, 196))

    def test_rejects_other_widths(self):
        data = Dataset(np.zeros((1, 196)), np.zeros(1, dtype=int), n_classes=1)
        with pytest.raises(DataError, match="784"):
            downscale_14x14(data)
