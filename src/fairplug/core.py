"""Shared domain types: datasets, distribution statistics, trade-off parameters.

Everything downstream -- estimators, decision rules, metrics, the
experiment harness -- speaks in terms of the three types defined here.

A :class:`Dataset` holds the ``(x, y, ybar)`` triplets: a feature matrix,
a binary label vector and a binary sensitive-attribute vector.  Labels
are stored as signed reals rather than booleans so that the privacy
pipeline's rescaled label domain ``{-C, +C}`` reuses the same type, with
the magnitude ``C`` carried in :attr:`Dataset.label_scale`.  The feature
matrix is in memory, or file-backed: a read-only ``np.memmap`` of a
prepared ``features.npy`` whose pages are never read.  Every pass over a
file-backed matrix copies it out a block of rows at a time
(:func:`_row_blocks`), so at most one block of it is resident.

:class:`DistStats` packages the three base-rate probabilities

* ``pi``     -- P(Y = +1), the positive-class prior,
* ``pi_bar`` -- P(Ybar = +1), the positive-group prior,
* ``beta``   -- P(Ybar = +1 | Y = +1), the positive-group prior among
  positives,

all of which the theory assumes strictly positive.  Empirically
degenerate values (an estimate of exactly 0 or 1) are hard errors, never
clamped: they signal that a conditional quantity downstream would be
undefined.

All types are immutable after construction and safe to share across
threads; every operation in this module is a pure function of its
inputs (for a file-backed matrix, of the file as it was loaded).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, DegenerateDataError, ValidationError

__all__ = [
    "Dataset",
    "DistStats",
    "FairnessParams",
    "compute_dist_stats",
]


#: Bytes of a matrix's rows that one pass over it holds at a time.
_BLOCK_BYTES = 1 << 20


def _file_stat(handle) -> tuple[int, int, int, int]:
    """``(st_dev, st_ino, st_size, st_mtime_ns)`` of an open file."""
    stat = os.fstat(handle.fileno())
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


@dataclass(frozen=True)
class _FeatureFile:
    """The ``.npy`` file behind a file-backed feature matrix.

    Its C-ordered float64 rows start at byte ``offset`` of ``path``, and
    ``stat`` is :func:`_file_stat` of the file as it was loaded.
    """

    path: Path
    offset: int
    stat: tuple[int, int, int, int]

    def check(self, handle) -> None:
        """A :class:`DataError` unless ``handle`` is still the file as it was loaded."""
        if _file_stat(handle) != self.stat:
            raise DataError(f"{self.path} was rewritten after it was loaded; load it again")


def _row_blocks(features: np.ndarray, source: _FeatureFile | None = None, digest=None):
    """Yield ``(start, block)``: ``features``' rows in blocks of about 1 MiB, in order.

    ``block`` holds rows ``start`` to ``start + len(block)``.  For an
    in-memory matrix (``source`` None) each block is a view.  For a
    file-backed one, each pass opens ``source.path`` again and checks,
    when it opens the file and after its last block, that the file is as
    it was loaded.  Each block is copied out of the file with
    ``readinto`` into one buffer reused for every block, so a block is
    overwritten by the next and the matrix's mapping is never read.
    ``digest``, if given, is fed every byte a file-backed pass reads: the
    file from ``source.offset`` to its end.
    """
    n, k = features.shape
    rows = max(1, _BLOCK_BYTES // max(1, 8 * k))
    if source is None:
        for start in range(0, n, rows):
            yield start, features[start : start + rows]
        return
    buffer = np.empty((min(rows, n), k))
    view = memoryview(buffer).cast("B")
    with open(source.path, "rb") as handle:
        source.check(handle)
        handle.seek(source.offset)
        for start in range(0, n, rows):
            block = buffer[: min(rows, n - start)]
            # a buffered readinto reads until the block is full or the file ends
            if handle.readinto(view[: block.nbytes]) != block.nbytes:
                raise DataError(f"{source.path}: the file ends before its rows do")
            if digest is not None:
                digest.update(view[: block.nbytes])
            yield start, block
        while digest is not None and (tail := handle.read(_BLOCK_BYTES)):
            digest.update(tail)
        source.check(handle)


def _all_finite(features: np.ndarray, source: _FeatureFile | None = None, digest=None) -> bool:
    """Whether every entry of ``features`` is finite: one :func:`_row_blocks` pass, one reused mask."""
    mask = None
    for _, block in _row_blocks(features, source, digest):
        if mask is None:
            mask = np.empty(block.shape, dtype=bool)
        if not np.isfinite(block, out=mask[: len(block)]).all():
            return False
    return True


def _readonly(a: np.ndarray, copy: bool = True) -> np.ndarray:
    """``a`` as a read-only float array, copied unless ``copy`` is false."""
    if copy:
        a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix plus signed binary labels and sensitive attributes.

    Parameters
    ----------
    features : (n, d) array of finite reals.
    labels : (n,) array over {-label_scale, +label_scale}.
    sensitive : (n,) array over {-1, +1}.
    label_scale : positive magnitude of the label encoding (1.0 normally,
        C in (0, 1) after privacy preprocessing).

    A dataset may contain a single label class or sensitive group; it is
    the *statistics* computed from it that reject degeneracy, not the
    container.
    """

    features: np.ndarray
    labels: np.ndarray
    sensitive: np.ndarray
    label_scale: float = 1.0

    # The file behind a file-backed ``features``; set only by :meth:`_adopt`.
    _source = None

    def __post_init__(self) -> None:
        self._check_and_freeze(copy=True)

    @classmethod
    def _adopt(
        cls,
        features: np.ndarray,
        labels: np.ndarray,
        sensitive: np.ndarray,
        label_scale: float = 1.0,
        source: _FeatureFile | None = None,
        digest=None,
    ) -> "Dataset":
        """A dataset that takes over arrays nothing else writes to.

        For a caller that has just built the arrays (a loader, the
        norm-bounding transform, a synthetic draw): they are checked as
        the constructor checks them and made read-only in place, not
        copied.  An array that is not float64 (an int ``.npy`` file, say)
        is converted, and the converted copy is kept.  An already
        read-only array, such as another dataset's column, may be shared.
        With ``source``, ``features`` is the read-only ``np.memmap`` of
        that file and is kept as it is; the check reads the file, not the
        mapping, and feeds ``digest`` the bytes it reads (see
        :func:`_row_blocks`).  The public constructor copies every array
        it is given; these are the only two ways a dataset is built.
        """
        dataset = cls.__new__(cls)
        vars(dataset).update(
            features=features, labels=labels, sensitive=sensitive, label_scale=label_scale,
            _source=source,
        )
        dataset._check_and_freeze(copy=False, digest=digest)
        return dataset

    def _check_and_freeze(self, copy: bool, digest=None) -> None:
        if self._source is None:
            features = np.asarray(self.features, dtype=float)
        else:
            features = self.features
        labels = np.asarray(self.labels, dtype=float)
        sensitive = np.asarray(self.sensitive, dtype=float)
        if features.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {features.shape}")
        n = features.shape[0]
        if n < 1:
            raise ValidationError("dataset must contain at least one row")
        if labels.shape != (n,) or sensitive.shape != (n,):
            raise ValidationError(
                "row-count mismatch: "
                f"features {features.shape}, labels {labels.shape}, sensitive {sensitive.shape}"
            )
        if not _all_finite(features, self._source, digest):
            raise ValidationError("features contain non-finite entries")
        scale = float(self.label_scale)
        if not (np.isfinite(scale) and scale > 0):
            raise ValidationError(f"label_scale must be a positive real, got {scale}")
        if not np.all(np.isin(labels, (-scale, scale))):
            raise ValidationError(
                f"labels must take values in {{-{scale}, +{scale}}}"
            )
        if not np.all(np.isin(sensitive, (-1.0, 1.0))):
            raise ValidationError("sensitive values must be -1 or +1")
        object.__setattr__(self, "features", _readonly(features, copy))
        object.__setattr__(self, "labels", _readonly(labels, copy))
        object.__setattr__(self, "sensitive", _readonly(sensitive, copy))
        object.__setattr__(self, "label_scale", scale)

    @property
    def n(self) -> int:
        """Number of rows."""
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        """Number of feature columns."""
        return int(self.features.shape[1])

    def _row_index(self, indices) -> np.ndarray:
        """``indices`` as a non-empty 1-D int array of this dataset's rows."""
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise ValidationError("rows must be a non-empty 1-D index array")
        if idx.min() < 0 or idx.max() >= self.n:
            raise ValidationError("row index out of range")
        return idx


def _check_prob(name: str, value: float, *, allow_one: bool) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    if value <= 0.0:
        raise ValidationError(f"{name} must be > 0 (standing assumption), got {value}")
    if value > 1.0 or (value == 1.0 and not allow_one):
        raise ValidationError(f"{name} out of range: {value}")
    return value


@dataclass(frozen=True)
class DistStats:
    """Base-rate statistics (pi, pi_bar, beta), each in (0, 1].

    Zero values are rejected at construction: the theory's standing
    assumption is that all three are strictly positive.
    """

    pi: float
    pi_bar: float
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "pi", _check_prob("pi", self.pi, allow_one=True))
        object.__setattr__(self, "pi_bar", _check_prob("pi_bar", self.pi_bar, allow_one=True))
        object.__setattr__(self, "beta", _check_prob("beta", self.beta, allow_one=True))


@dataclass(frozen=True)
class FairnessParams:
    """Trade-off weight and the two cost parameters.

    ``lam`` is the fairness trade-off weight (any real; written ``lam``
    because ``lambda`` is reserved in Python).  ``c`` is the
    cost-sensitive risk's false-positive cost on the target distribution;
    ``c_bar`` plays the same role on the sensitive-attribute
    distribution.  Both costs must lie strictly inside (0, 1).
    """

    lam: float
    c: float
    c_bar: float

    def __post_init__(self) -> None:
        lam = float(self.lam)
        c = float(self.c)
        c_bar = float(self.c_bar)
        if not np.isfinite(lam):
            raise ValidationError(f"lam must be a finite real, got {lam}")
        for name, value in (("c", c), ("c_bar", c_bar)):
            if not (np.isfinite(value) and 0.0 < value < 1.0):
                raise ValidationError(f"{name} must lie strictly inside (0, 1), got {value}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "c_bar", c_bar)


def compute_dist_stats(dataset: Dataset) -> DistStats:
    """Empirical (pi, pi_bar, beta) from a dataset.

    ``pi`` is the fraction of positive labels, ``pi_bar`` the fraction of
    positive sensitive values, and ``beta`` the fraction of positive
    sensitive values among positively labeled rows.

    Raises
    ------
    DegenerateDataError
        If any of the three estimates equals 0 or 1 exactly.  Such a
        dataset violates the standing assumption that all base rates are
        strictly positive (for both signs), and every conditional rate
        built on the missing cell would be undefined.
    """

    if not isinstance(dataset, Dataset):
        raise ValidationError(f"expected Dataset, got {type(dataset).__name__}")
    pos_label = dataset.labels > 0
    pos_sens = dataset.sensitive > 0
    n = dataset.n
    pi = float(np.count_nonzero(pos_label)) / n
    pi_bar = float(np.count_nonzero(pos_sens)) / n
    if pi in (0.0, 1.0):
        raise DegenerateDataError(f"empirical pi = {pi}: one label class is absent")
    if pi_bar in (0.0, 1.0):
        raise DegenerateDataError(f"empirical pi_bar = {pi_bar}: one sensitive group is absent")
    n_pos = int(np.count_nonzero(pos_label))
    beta = float(np.count_nonzero(pos_label & pos_sens)) / n_pos
    if beta in (0.0, 1.0):
        raise DegenerateDataError(
            f"empirical beta = {beta}: a (label=+1, group) cell is empty"
        )
    return DistStats(pi=pi, pi_bar=pi_bar, beta=beta)
