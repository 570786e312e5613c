"""Dataset ingestion: IDX image files, delimited numeric tables, scaling.

Every loader produces a `Dataset` whose labels are integer class indices.
`load_mnist` maps pixels to [-1, 1] itself; `load_csv_dataset` keeps raw
units.  `fit_scaling` maps a training split to [-1, 1] and keeps its
per-feature map on that split, so that `apply_scaling` replays the same
affine map on unseen data.  Only those splits carry a map: a network is
trained on, saved and run with features already in [-1, 1].
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .network import _label_problem
from .sng import _is_count, _is_seed

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray          # (D, I) floats in [-1, 1]
    labels: np.ndarray            # (D,) integer class ids
    n_classes: int
    scaling_lo: np.ndarray | None = None   # fit_scaling's per-feature source range
    scaling_hi: np.ndarray | None = None

    def __post_init__(self):
        if not _is_count(self.n_classes):
            raise DataError(f"n_classes must be an integer >= 1, got "
                            f"{self.n_classes!r}")
        f = np.ascontiguousarray(self.features, dtype=float)
        problem = _label_problem(np.asarray(self.labels))
        if problem:
            raise DataError(problem)
        y = np.ascontiguousarray(self.labels, dtype=np.int64)
        if f.ndim != 2 or y.shape != (f.shape[0],):
            raise DataError("features must be (D, I) with one label per row")
        finite = np.isfinite(f)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise DataError(f"features must be finite; row {i}, column {j} "
                            f"is {f[i, j]}")
        bad = np.flatnonzero((y < 0) | (y >= self.n_classes))
        if bad.size:
            raise DataError(f"labels must lie in [0, {self.n_classes}); label "
                            f"{bad[0]} is {y[bad[0]].item()!r}")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "Dataset":
        return replace(self, features=self.features[idx], labels=self.labels[idx])


def _scale_to_unit(raw: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    span = np.where(hi > lo, hi - lo, 1.0)
    return np.clip(2.0 * (raw - lo) / span - 1.0, -1.0, 1.0)


def _read_idx(path, magic: int, rank: int) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(4 * (1 + rank))
        if len(header) < 4 * (1 + rank):
            raise DataError(f"{path}: truncated IDX header")
        words = struct.unpack(f">{1 + rank}I", header)
        if words[0] != magic:
            raise DataError(f"{path}: bad IDX magic 0x{words[0]:08x}, "
                            f"expected 0x{magic:08x}")
        shape = words[1:]
        count = int(np.prod(shape))
        body = fh.read(count)
        if len(body) != count:
            raise DataError(f"{path}: truncated IDX body "
                            f"({len(body)} of {count} bytes)")
        return np.frombuffer(body, dtype=np.uint8).reshape(shape)


def load_mnist(path_images, path_labels) -> Dataset:
    """Load an IDX image/label pair; pixels map [0, 255] -> [-1, 1].

    The map is fixed, so the dataset carries none for `apply_scaling`.
    """
    images = _read_idx(path_images, IDX_IMAGES_MAGIC, rank=3)
    labels = _read_idx(path_labels, IDX_LABELS_MAGIC, rank=1)
    if images.shape[0] != labels.shape[0]:
        raise DataError(f"image/label count mismatch: "
                        f"{images.shape[0]} vs {labels.shape[0]}")
    # 2 * pixel / 255 - 1, in place, so loading holds one float copy.
    features = images.reshape(images.shape[0], -1).astype(float)
    features *= 2.0
    features /= 255.0
    features -= 1.0
    return Dataset(features, labels.astype(np.int64), n_classes=10)


def downscale_14x14(dataset: Dataset) -> Dataset:
    """2x2 average pooling of 28x28 rows down to 196 features; the pooled
    rows carry no scaling map."""
    if dataset.n_features != 784:
        raise DataError("downscale_14x14 expects 784-feature rows")
    imgs = dataset.features.reshape(-1, 28, 28)
    # The mean over each 2x2 block in numpy's own pairwise order for
    # mean(axis=(2, 4)) of the (-1, 14, 2, 14, 2) view, so bit for bit the
    # same, without its slow strided reduction.
    top, bottom = imgs[:, 0::2], imgs[:, 1::2]
    pooled = ((top[..., 0::2] + top[..., 1::2])
              + (bottom[..., 0::2] + bottom[..., 1::2])) / 4
    flat = pooled.reshape(-1, 196)
    return replace(dataset, features=flat, scaling_lo=None, scaling_hi=None)


@dataclass(frozen=True)
class CsvSchema:
    """Column layout of a delimited numeric table."""

    delimiter: str = ","
    label_column: int | str = -1       # index, or header name when has_header
    has_header: bool = False
    label_map: dict | None = None      # raw label string -> class id
    n_classes: int | None = None


SONAR_SCHEMA = CsvSchema(delimiter=",", label_column=-1,
                         label_map={"R": 0, "M": 1}, n_classes=2)
WINE_SCHEMA = CsvSchema(delimiter=";", label_column="quality",
                        has_header=True, n_classes=10)


def load_csv_dataset(path, schema: CsvSchema) -> Dataset:
    """Parse a delimited numeric table into raw features and labels.

    Features keep their raw units here; apply `fit_scaling` on the training
    split and `apply_scaling` everywhere to land in [-1, 1].
    """
    rows = []
    with open(path) as fh:
        lines = [(k, ln.strip()) for k, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")
    label_idx = schema.label_column
    if schema.has_header:
        (_, first), *lines = lines
        header = [h.strip().strip('"') for h in first.split(schema.delimiter)]
        if isinstance(label_idx, str):
            if label_idx not in header:
                raise DataError(f"{path}: missing column {label_idx!r}")
            label_idx = header.index(label_idx)
    elif isinstance(label_idx, str):
        raise DataError("named label column requires a header row")
    if not lines:
        raise DataError(f"{path}: no data rows below the header")
    column = (f"{schema.label_column!r} (index {label_idx})"
              if isinstance(schema.label_column, str) else str(label_idx))
    labels = []
    for ln_no, line in lines:
        cells = [c.strip().strip('"') for c in line.split(schema.delimiter)]
        if not -len(cells) <= label_idx < len(cells):
            raise DataError(f"{path}:{ln_no}: {len(cells)} cells, too few for "
                            f"label column {column}")
        raw_label = cells[label_idx]
        del cells[label_idx if label_idx >= 0 else len(cells) + label_idx]
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise DataError(f"{path}:{ln_no}: unparsable cell ({exc})") from None
        if schema.label_map is not None:
            if raw_label not in schema.label_map:
                raise DataError(f"{path}:{ln_no}: unknown label {raw_label!r}")
            labels.append(schema.label_map[raw_label])
        else:
            try:
                label = float(raw_label)
            except ValueError:
                raise DataError(f"{path}:{ln_no}: unparsable label "
                                f"{raw_label!r}") from None
            if _label_problem(np.array([label])):
                raise DataError(f"{path}:{ln_no}: label {raw_label!r} is "
                                "not a whole number")
            # int64 holds every label; a class count that is not an integer
            # >= 1 is left for Dataset to name.
            bound = (schema.n_classes if _is_count(schema.n_classes)
                     else np.iinfo(np.int64).max + 1)
            if not 0 <= label < bound:
                raise DataError(f"{path}:{ln_no}: label {raw_label!r} is "
                                f"outside [0, {bound})")
            labels.append(int(label))
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: inconsistent column counts {sorted(widths)}")
    features = np.array(rows, dtype=float)
    labels = np.array(labels, dtype=np.int64)
    n_classes = schema.n_classes
    if n_classes is None:
        # A label map names every class, present in this file or not.
        n_classes = (max(schema.label_map.values()) + 1
                     if schema.label_map is not None else int(labels.max()) + 1)
    return Dataset(features, labels, n_classes=n_classes)


def fit_scaling(dataset: Dataset) -> Dataset:
    """Per-feature min/max scaling fitted on this split."""
    if not len(dataset):
        raise DataError(f"cannot fit a scaling on an empty split (0 rows of "
                        f"{dataset.n_features} features)")
    lo = dataset.features.min(axis=0)
    hi = dataset.features.max(axis=0)
    return replace(dataset, features=_scale_to_unit(dataset.features, lo, hi),
                   scaling_lo=lo, scaling_hi=hi)


def apply_scaling(dataset: Dataset, reference: Dataset) -> Dataset:
    """Replay the reference split's affine map on another split."""
    if reference.scaling_lo is None:
        raise DataError("reference dataset carries no scaling parameters")
    if dataset.n_features != reference.scaling_lo.size:
        raise DataError(f"dataset has {dataset.n_features} features, but the "
                        f"reference scaling has {reference.scaling_lo.size}")
    return replace(dataset,
                   features=_scale_to_unit(dataset.features,
                                           reference.scaling_lo,
                                           reference.scaling_hi),
                   scaling_lo=reference.scaling_lo,
                   scaling_hi=reference.scaling_hi)


def split_dataset(dataset: Dataset, first_size: int, seed) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split into (first, rest)."""
    if isinstance(first_size, bool) or not isinstance(first_size, (int, np.integer)):
        raise DataError(f"split size must be an integer, got {first_size!r}")
    if not 0 < first_size < len(dataset):
        raise DataError(f"split size must be inside the dataset of "
                        f"{len(dataset)} rows, got {first_size}")
    if not _is_seed(seed):
        raise DataError(f"seed must be a non-negative integer, got {seed!r}")
    order = np.random.default_rng(seed).permutation(len(dataset))
    return dataset.subset(order[:first_size]), dataset.subset(order[first_size:])
