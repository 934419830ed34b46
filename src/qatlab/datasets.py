"""Synthetic task generators, file loaders, and split bookkeeping.  The
builders' signatures are the schema of the ``dataset`` config section."""

import csv
import dataclasses
import inspect
import struct
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Literal

import numpy as np

from .numeric import Rng

REGRESSION = "regression"
CLASSIFICATION = "classification"

_IDX_UBYTE = 0x08

# Rows of blob points drawn at a time: 1.6 MB at 784 features.
BLOB_BLOCK_ROWS = 256
# The panel width and crossover size that ilaenv gives DGEQRF and DORGQR in
# the reference-LAPACK/OpenBLAS build numpy bundles.  Another LAPACK (MKL,
# Accelerate) may block differently; tests/test_datasets.py
# test_centers_equal_full_qr must then fail.
QR_PANEL, QR_CROSSOVER = 32, 128


@dataclass
class Dataset:
    """Array-backed dataset with explicit train / eval / calibration splits.

    Splits are index arrays into ``inputs`` / ``targets``.  The calibration
    subset must come from the training split; eval rows never appear in
    training.  Each access to a ``*_x`` or ``*_y`` property copies its
    split's rows, so training gathers each batch's rows from ``inputs``
    through ``train_idx`` instead.
    """

    inputs: np.ndarray
    targets: np.ndarray
    train_idx: np.ndarray
    eval_idx: np.ndarray
    calib_idx: np.ndarray
    task: str

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets)
        self.train_idx = np.asarray(self.train_idx, dtype=np.int64)
        self.eval_idx = np.asarray(self.eval_idx, dtype=np.int64)
        self.calib_idx = np.asarray(self.calib_idx, dtype=np.int64)
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown task {self.task!r}")
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets disagree on length")
        n = len(self.inputs)
        for name in ("train_idx", "eval_idx", "calib_idx"):
            idx = getattr(self, name)
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ValueError(f"{name} out of bounds")
        if np.intersect1d(self.train_idx, self.eval_idx).size:
            raise ValueError("train and eval splits overlap")
        if not np.isin(self.calib_idx, self.train_idx).all():
            raise ValueError("calibration rows must come from the training split")

    # The rows of each split.
    train_x = property(lambda self: self.inputs[self.train_idx])
    train_y = property(lambda self: self.targets[self.train_idx])
    eval_x = property(lambda self: self.inputs[self.eval_idx])
    eval_y = property(lambda self: self.targets[self.eval_idx])
    calib_x = property(lambda self: self.inputs[self.calib_idx])
    calib_y = property(lambda self: self.targets[self.calib_idx])


def make_calibration(d: Dataset, fraction: float, seed: int) -> Dataset:
    """Return a copy of ``d`` whose calibration split is a fresh subsample
    of its training rows.  ``fraction`` is relative to the training split."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    train = d.train_idx
    k = max(1, int(round(fraction * len(train))))
    k = min(k, len(train))
    order = Rng(seed).child("calib").permutation(len(train))
    return dataclasses.replace(d, calib_idx=np.sort(train[order[:k]]))


def _split_dataset(x, y, task, seed, eval_fraction, calib_fraction) -> Dataset:
    """``Dataset`` of the rows (x, y): the first ``eval_fraction`` of a
    ``Rng(seed).child("split")`` permutation are eval rows, the rest train,
    and a calibration subsample of the training rows is drawn."""
    if not 0.0 <= eval_fraction < 1.0:
        raise ValueError("eval_fraction must be in [0, 1)")
    perm = Rng(seed).child("split").permutation(len(x))
    k = int(round(eval_fraction * len(x)))
    d = Dataset(x, y, perm[k:], perm[:k], perm[:0], task)
    return make_calibration(d, calib_fraction, seed)


def _teacher_forward(x, widths, rng):
    dims = [x.shape[1], *widths, x.shape[1]]
    h = x
    for i in range(len(dims) - 1):
        w = rng.normal((dims[i + 1], dims[i])) / np.sqrt(dims[i])
        h = h @ w.T
        if i < len(dims) - 2:
            h = np.tanh(h)
    return h


def gen_regression(
    seed: int,
    n: int = 1000,
    dim: int = 8,
    teacher: tuple[int, ...] = (16,),
    noise: float = 0.05,
    eval_fraction: float = 0.2,
    calib_fraction: float = 0.1,
) -> Dataset:
    """Inputs uniform on [0, 1)^dim; targets from a fixed random tanh net
    plus Gaussian noise.  ``teacher=()`` means the identity map, so with
    ``noise=0`` the targets equal the inputs."""
    if n < 2 or dim < 1:
        raise ValueError("need n >= 2 and dim >= 1")
    root = Rng(seed)
    x = root.child("inputs").uniform((n, dim), 0.0, 1.0)
    y = x if len(tuple(teacher)) == 0 else _teacher_forward(x, tuple(teacher), root.child("teacher"))
    if noise > 0.0:
        y = y + noise * root.child("noise").normal((n, dim))
    return _split_dataset(x, y, REGRESSION, seed, eval_fraction, calib_fraction)


def _blob_centers(classes, dim, separation, rng):
    if dim >= classes:
        # Rotated one-hot corners: pairwise distance separation * sqrt(2).
        # The rotation is Q of a dim x dim normal draw's QR, of which the
        # corners use the first `classes` columns.  Above dim QR_CROSSOVER,
        # numpy's bundled LAPACK factors and forms those columns from the
        # first QR_PANEL columns alone, with the same calls, so a QR of just
        # those columns has the same bits on that build (and only under its
        # block sizes; see QR_PANEL).  Fewer columns than a panel do not.
        k = QR_PANEL if dim > QR_CROSSOVER and classes <= QR_PANEL else dim
        g = np.empty((dim, k))
        for start in range(0, dim, BLOB_BLOCK_ROWS):
            rows = slice(start, min(start + BLOB_BLOCK_ROWS, dim))
            g[rows] = rng.normal((rows.stop - start, dim))[:, :k]
        q, _ = np.linalg.qr(g)
        basis = np.zeros((classes, k))
        basis[np.arange(classes), np.arange(classes)] = separation
        return basis @ q.T
    if dim == 2:
        ang = 2.0 * np.pi * np.arange(classes) / classes
        return separation * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    raise ValueError("blobs need dim >= classes or dim == 2")


def gen_classification(
    seed: int,
    n: int = 1000,
    classes: int = 3,
    kind: str = "blobs",
    dim: int = 2,
    noise: float = 1.0,
    separation: float = 6.0,
    eval_fraction: float = 0.2,
    calib_fraction: float = 0.1,
) -> Dataset:
    """Labelled point clouds.  blobs: far-separated Gaussian clusters,
    linearly separable at the default spread.  spirals: interleaved 2-d
    arms, not linearly separable."""
    if n < classes or classes < 2:
        raise ValueError("need n >= classes >= 2")
    root = Rng(seed)
    counts = np.full(classes, n // classes)
    counts[: n % classes] += 1  # balanced up to +-1
    labels = np.repeat(np.arange(classes), counts)

    order = root.child("shuffle").permutation(n)  # drawn row order[j] becomes row j
    if kind == "blobs":
        centers = _blob_centers(classes, dim, separation, root.child("centers"))
        points = root.child("points")
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n)
        # Philox gives the same normals in blocks as in one draw, so each
        # block of drawn rows goes straight to its shuffled rows, and no
        # other (n, dim) array than x is ever made.
        x = np.empty((n, dim))
        for start in range(0, n, BLOB_BLOCK_ROWS):
            rows = slice(start, min(start + BLOB_BLOCK_ROWS, n))
            block = points.normal((rows.stop - start, dim))
            block *= noise
            block += centers[labels[rows]]
            x[pos[rows]] = block
    elif kind == "spirals":
        if dim != 2:
            raise ValueError("spirals are 2-d")
        t = root.child("radius").uniform((n,), 0.1, 1.0)
        theta = 2.0 * np.pi * (1.5 * t + labels / classes)
        r = separation * t
        x = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        x = (x + noise * root.child("points").normal((n, 2)))[order]
    else:
        raise ValueError(f"unknown kind {kind!r}")

    y = labels[order].astype(np.int64)
    return _split_dataset(x, y, CLASSIFICATION, seed, eval_fraction, calib_fraction)


def _read_exact(buf, offset, count, path):
    if offset + count > len(buf):
        raise ValueError(
            f"{path}: truncated at offset {offset}, "
            f"needed {count} bytes but only {len(buf) - offset} remain"
        )
    return buf[offset : offset + count], offset + count


def _parse_idx(path):
    with open(path, "rb") as fh:
        buf = memoryview(fh.read())  # slices are views, not copies of the payload
    head, off = _read_exact(buf, 0, 4, path)
    zeros, dtype, ndim = head[:2], head[2], head[3]
    if zeros != b"\x00\x00":
        raise ValueError(f"{path}: bad magic at offset 0: {head[:4].hex()}")
    if dtype != _IDX_UBYTE:
        raise ValueError(f"{path}: unsupported dtype byte 0x{dtype:02x} at offset 2")
    if ndim not in (1, 3):
        raise ValueError(f"{path}: unsupported dimension count {ndim} at offset 3")
    dims = []
    for _ in range(ndim):
        raw, off = _read_exact(buf, off, 4, path)
        dims.append(struct.unpack(">I", raw)[0])
    count = int(np.prod(dims)) if dims else 0
    payload, off = _read_exact(buf, off, count, path)
    if off != len(buf):
        raise ValueError(f"{path}: {len(buf) - off} trailing bytes at offset {off}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(
    path: str,
    labels_path: str | None = None,
    eval_fraction: float = 0.2,
    seed: int = 0,
    calib_fraction: float = 0.1,
) -> Dataset:
    """Load a big-endian IDX image file at ``path`` (and an optional label
    file).  Pixels are scaled to [0, 1]; rows are flattened to (n, h*w)."""
    images = _parse_idx(path)
    if images.ndim != 3:
        raise ValueError(f"{path}: expected a rank-3 image file")
    n = images.shape[0]
    x = images.reshape(n, -1).astype(np.float64)
    x /= 255.0
    if labels_path is not None:
        labels = _parse_idx(labels_path)
        if labels.ndim != 1:
            raise ValueError(f"{labels_path}: expected a rank-1 label file")
        if len(labels) != n:
            raise ValueError(f"label count {len(labels)} does not match image count {n}")
        y = labels.astype(np.int64)
    else:
        y = np.zeros(n, dtype=np.int64)
    return _split_dataset(x, y, CLASSIFICATION, seed, eval_fraction, calib_fraction)


def load_csv(
    path: str,
    target: str = "target",
    task: Literal["regression", "classification"] = REGRESSION,
    eval_fraction: float = 0.2,
    seed: int = 0,
    calib_fraction: float = 0.1,
) -> Dataset:
    """Load a numeric CSV with a header row; the ``target`` column holds
    the targets and every other column is a feature.  Every cell must be a
    finite number; one that is not (``abc``, ``nan``, ``inf``, ``1e400``)
    is rejected with its line."""
    header, records, error = None, array("d"), None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            # Each record goes into the flat buffer as doubles as it is read.
            # After the first record error the reading goes on, so that a
            # csv.Error further on still comes first.
            for row in reader:
                if error is not None:
                    continue
                if len(row) != len(header):
                    error = f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                    continue
                try:
                    records.extend([float(cell) for cell in row])
                except ValueError as exc:
                    error = f"line {reader.line_num}: {exc}"
        except csv.Error as exc:
            raise ValueError(f"{path}: {exc}") from None
    if header is None:
        raise ValueError(f"{path}: empty file")
    if target not in header:
        raise ValueError(f"{path}: no column named {target!r} in header")
    t_col = header.index(target)
    if error is not None:
        raise ValueError(f"{path}: {error}")
    if not records:
        raise ValueError(f"{path}: no data rows")
    values = np.frombuffer(records, dtype=np.float64).reshape(-1, len(header))
    finite = np.isfinite(values)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]  # the first in row-major order
        lineno, cell = _record_cell(path, i, j)
        raise ValueError(
            f"{path}: line {lineno}: column {header[j]!r} is not a finite number: {cell!r}"
        )

    x = np.delete(values, t_col, axis=1)
    y = values[:, t_col].copy()
    if task == CLASSIFICATION:
        if not np.array_equal(y, np.round(y)) or (y < 0).any():
            raise ValueError(f"{path}: classification targets must be integers >= 0")
        y = y.astype(np.int64)
    else:
        y = y[:, None]
    return _split_dataset(x, y, task, seed, eval_fraction, calib_fraction)


def _record_cell(path: str, i: int, j: int) -> tuple[int, str]:
    """The physical line that ends data record i of a CSV file, and the
    text of its cell j."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        row = next(islice(reader, i + 1, None))  # record 0 is the header
        return reader.line_num, row[j]


# dataset.kind -> builder; blobs and spirals are gen_classification's kinds.
# Plain functions, not partials: perfbench's tracer rebinds the functions it
# finds in module dicts, and would not see the calls through a partial.
BUILDERS = {
    "blobs": gen_classification,
    "spirals": gen_classification,
    "regression": gen_regression,
    "idx": load_idx,
    "csv": load_csv,
}


def build_dataset(spec: dict) -> Dataset:
    """Build a checked ``dataset`` section's data: ``BUILDERS[kind]`` gets
    the spec keys its signature takes, and its own defaults fill the rest.
    Every task uses training and eval rows, so neither split may be empty."""
    build = BUILDERS[spec["kind"]]
    params = inspect.signature(build).parameters
    d = build(**{k: v for k, v in spec.items() if k in params})
    if not (d.train_idx.size and d.eval_idx.size):
        raise ValueError(
            f"{d.train_idx.size} training and {d.eval_idx.size} eval rows; need one of each"
        )
    return d


def batches(n: int, size: int, drop_last: bool, rng=None):
    """Yield index arrays of at most ``size`` rows.  Training passes an rng
    (shuffled order, short tail dropped); evaluation keeps the tail."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    order = rng.permutation(n) if rng is not None else np.arange(n)
    for start in range(0, n, size):
        chunk = order[start : start + size]
        if drop_last and len(chunk) < size:
            return
        yield chunk
