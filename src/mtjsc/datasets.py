"""Dataset ingestion: IDX image files, delimited numeric tables, scaling.

All loaders produce a `Dataset` whose features are scaled to [-1, 1] and
whose labels are integer class indices, with the scaling parameters kept on
the dataset so the same affine map can be replayed on unseen data.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray          # (D, I) floats in [-1, 1]
    labels: np.ndarray            # (D,) integer class ids
    n_classes: int
    scaling_lo: np.ndarray | None = None   # per-feature affine map source range
    scaling_hi: np.ndarray | None = None
    split: str = ""

    def __post_init__(self):
        f = np.ascontiguousarray(self.features, dtype=float)
        y = np.ascontiguousarray(self.labels, dtype=np.int64)
        if f.ndim != 2 or y.shape != (f.shape[0],):
            raise DataError("features must be (D, I) with one label per row")
        if not np.all(np.isfinite(f)):
            raise DataError("features contain non-finite values")
        if y.size and (y.min() < 0 or y.max() >= self.n_classes):
            raise DataError("labels must lie in [0, n_classes)")
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
    """Load an IDX image/label pair; pixels map [0, 255] -> [-1, 1]."""
    images = _read_idx(path_images, IDX_IMAGES_MAGIC, rank=3)
    labels = _read_idx(path_labels, IDX_LABELS_MAGIC, rank=1)
    if images.shape[0] != labels.shape[0]:
        raise DataError(f"image/label count mismatch: "
                        f"{images.shape[0]} vs {labels.shape[0]}")
    flat = images.reshape(images.shape[0], -1).astype(float)
    features = 2.0 * flat / 255.0 - 1.0
    return Dataset(features, labels.astype(np.int64), n_classes=10,
                   scaling_lo=np.zeros(flat.shape[1]),
                   scaling_hi=np.full(flat.shape[1], 255.0))


def downscale_14x14(dataset: Dataset) -> Dataset:
    """2x2 average pooling of 28x28 rows down to 196 features."""
    if dataset.n_features != 784:
        raise DataError("downscale_14x14 expects 784-feature rows")
    imgs = dataset.features.reshape(-1, 28, 28)
    pooled = imgs.reshape(-1, 14, 2, 14, 2).mean(axis=(2, 4))
    flat = pooled.reshape(-1, 196)
    return replace(dataset, features=flat,
                   scaling_lo=None if dataset.scaling_lo is None
                   else np.zeros(196),
                   scaling_hi=None if dataset.scaling_hi is None
                   else np.full(196, 255.0))


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
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")
    start = 0
    label_idx = schema.label_column
    if schema.has_header:
        header = [h.strip().strip('"') for h in lines[0].split(schema.delimiter)]
        start = 1
        if isinstance(label_idx, str):
            if label_idx not in header:
                raise DataError(f"{path}: missing column {label_idx!r}")
            label_idx = header.index(label_idx)
    elif isinstance(label_idx, str):
        raise DataError("named label column requires a header row")
    column = (f"{schema.label_column!r} (index {label_idx})"
              if isinstance(schema.label_column, str) else str(label_idx))
    labels = []
    for ln_no, line in enumerate(lines[start:], start + 1):
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
                labels.append(int(float(raw_label)))
            except ValueError:
                raise DataError(f"{path}:{ln_no}: unparsable label "
                                f"{raw_label!r}") from None
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: inconsistent column counts {sorted(widths)}")
    features = np.array(rows, dtype=float)
    labels = np.array(labels, dtype=np.int64)
    n_classes = schema.n_classes or int(labels.max()) + 1
    return Dataset(features, labels, n_classes=n_classes)


def fit_scaling(dataset: Dataset) -> Dataset:
    """Per-feature min/max scaling fitted on this split."""
    lo = dataset.features.min(axis=0)
    hi = dataset.features.max(axis=0)
    return replace(dataset, features=_scale_to_unit(dataset.features, lo, hi),
                   scaling_lo=lo, scaling_hi=hi)


def apply_scaling(dataset: Dataset, reference: Dataset) -> Dataset:
    """Replay the reference split's affine map on another split."""
    if reference.scaling_lo is None:
        raise DataError("reference dataset carries no scaling parameters")
    return replace(dataset,
                   features=_scale_to_unit(dataset.features,
                                           reference.scaling_lo,
                                           reference.scaling_hi),
                   scaling_lo=reference.scaling_lo,
                   scaling_hi=reference.scaling_hi)


def split_dataset(dataset: Dataset, first_size: int, seed) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split into (first, rest)."""
    if not 0 < first_size < len(dataset):
        raise DataError("split size must be inside the dataset")
    order = np.random.default_rng(seed).permutation(len(dataset))
    first = dataset.subset(order[:first_size])
    rest = dataset.subset(order[first_size:])
    return (replace(first, split="train"), replace(rest, split="test"))
