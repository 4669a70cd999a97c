"""Shared domain types: datasets, distribution statistics, trade-off parameters.

Everything downstream -- estimators, decision rules, metrics, the
experiment harness -- speaks in terms of the three types defined here.

A :class:`Dataset` holds the ``(x, y, ybar)`` triplets: a feature matrix,
a binary label vector and a binary sensitive-attribute vector.  Labels
are stored as signed reals rather than booleans so that the privacy
pipeline's rescaled label domain ``{-C, +C}`` reuses the same type, with
the magnitude ``C`` carried in :attr:`Dataset.label_scale`.

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
threads; every operation in this module is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ValidationError

__all__ = [
    "Dataset",
    "DistStats",
    "FairnessParams",
    "compute_dist_stats",
]


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

    def __post_init__(self) -> None:
        self._check_and_freeze(copy=True)

    @classmethod
    def _adopt(
        cls,
        features: np.ndarray,
        labels: np.ndarray,
        sensitive: np.ndarray,
        label_scale: float = 1.0,
    ) -> "Dataset":
        """A dataset that takes over arrays nothing else writes to.

        For a caller that has just built the arrays (a loader, the
        norm-bounding transform, a synthetic draw): they are checked as
        the constructor checks them and made read-only in place, not
        copied.  An array that is not float64 (an int ``.npy`` file, say)
        is converted, and the converted copy is kept.  An already
        read-only array, such as another dataset's column, may be shared.
        The public constructor copies every array it is given; these are
        the only two ways a dataset is built.
        """
        dataset = cls.__new__(cls)
        vars(dataset).update(
            features=features, labels=labels, sensitive=sensitive, label_scale=label_scale
        )
        dataset._check_and_freeze(copy=False)
        return dataset

    def _check_and_freeze(self, copy: bool) -> None:
        features = np.asarray(self.features, dtype=float)
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
        # NaN and +-inf propagate through min and max, so no per-cell mask
        # is built; ``initial`` keeps a zero-width matrix legal.
        low, high = features.min(initial=0.0), features.max(initial=0.0)
        if not (np.isfinite(low) and np.isfinite(high)):
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
