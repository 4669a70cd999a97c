"""Grid-sweep experiment engine over (lam, c, c_bar) with split repeats.

For each split: preprocess with the train-fitted norm-bounding
transform, fit the two estimators once, privatize the sensitive-
attribute estimator once (when a finite privacy budget is given), and
then walk the whole parameter grid -- each grid point is pure
post-processing of the same fitted pair, so the sweep consumes exactly
one noise draw per split no matter how large the grid is.

The walk goes one lam slice at a time.  The estimator outputs on the
test split (:func:`fairplug.plugin.coordinates`), the estimated prior
and the group cells are computed and checked once per split.  Each
slice is an ``(n_c * n_c_bar, n_test)`` boolean array of predictions,
one row per cost point, filled by one unchecked
:func:`fairplug.plugin.setting_score` call per grid point; a slice
holds ``n_c * n_c_bar * n_test`` booleans (81 * 4,500 bytes, 0.36 MB,
on the default grid with a 4,500-row test split), and the full
``n_lam * n_c * n_c_bar * n_test`` array is never built.  From each
slice the sweep takes integer counts -- true positives, true negatives
and predicted positives in the two fairness cells -- and every grid
point becomes one record with balanced accuracy
``0.5 * (tp / n_pos + tn / n_neg)`` and the fairness violation, the gap
between the cells' positive-prediction rates.

Records then reduce to a trade-off curve: balanced-accuracy bins of
width 2.5% starting at 50%, the minimum violation per bin within each
split (a lower envelope), and mean with population standard deviation
across splits for bins wherever they are present.

The preprocessing runs regardless of the budget so private and
non-private sweeps see identical inputs and differ only in the noise.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._pool import map_tasks
from .core import FairnessParams
from .cpe import FitConfig
from .data import PreparedData, apply_dp_transform, fit_dp_transform
from .errors import DataError, ValidationError
from .kvformat import format_float
from .plugin import (
    DPAR_BLIND,
    EO_BLIND,
    SETTINGS,
    coordinates,
    fit_plugin,
    is_aware,
    is_eo,
    setting_score,
)
from .privacy import dp_plugin_pipeline

# Imported but not called here: perfbench's tracer wraps these names at
# ``fairplug.sweep.<name>``.
from .cpe import predict_proba  # noqa: F401
from .plugin import score_dpar_aware  # noqa: F401
from .plugin import score_dpar_blind  # noqa: F401
from .plugin import score_eo_aware  # noqa: F401
from .plugin import score_eo_blind  # noqa: F401

__all__ = [
    "GridRange",
    "SweepGrid",
    "SweepRecord",
    "BinStat",
    "TradeoffCurve",
    "FLAG_DEGENERATE",
    "default_grid",
    "run_sweep",
    "bin_min_violation",
    "aggregate_curves",
    "write_records_csv",
    "read_records_csv",
    "write_tradeoff_csv",
]

log = logging.getLogger("fairplug.sweep")

FLAG_DEGENERATE = "degenerate-test-cell"

DEFAULT_BIN_WIDTH = 0.025

#: Slack, in bin widths, added before a balanced accuracy is floored to
#: its bin; see :func:`bin_indices` for why it is exact.
BIN_EDGE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class GridRange:
    """Inclusive arithmetic range; the step must tile it exactly."""

    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        start, stop, step = (float(self.start), float(self.stop), float(self.step))
        if not all(np.isfinite(v) for v in (start, stop, step)):
            raise ValidationError("range endpoints and step must be finite")
        if step <= 0:
            raise ValidationError(f"step must be positive, got {step}")
        if stop < start:
            raise ValidationError(f"stop {stop} must not precede start {start}")
        count = (stop - start) / step
        if abs(count - round(count)) > 1e-6:
            raise ValidationError(
                f"step {step} does not tile [{start}, {stop}] to an inclusive grid"
            )
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "step", step)

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, int(round((self.stop - self.start) / self.step)) + 1)


@dataclass(frozen=True)
class SweepGrid:
    """The three parameter ranges traversed per split."""

    lam: GridRange = GridRange(-10.0, 10.0, 0.5)
    c: GridRange = GridRange(0.1, 0.9, 0.1)
    c_bar: GridRange = GridRange(0.1, 0.9, 0.1)

    @property
    def cardinality(self) -> int:
        return self.lam.values().size * self.c.values().size * self.c_bar.values().size


def default_grid() -> SweepGrid:
    """The protocol grid: 41 fairness strengths x 9 x 9 costs = 3321 points."""
    return SweepGrid()


@dataclass(frozen=True)
class SweepRecord:
    """One grid point on one split; flagged records carry NaN metrics."""

    split_id: int
    lam: float
    c: float
    c_bar: float
    bal_acc: float
    violation: float
    flag: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "split_id", int(self.split_id))
        for name in ("lam", "c", "c_bar", "bal_acc", "violation"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not self.flag:
            for name in ("bal_acc", "violation"):
                value = getattr(self, name)
                if not np.isfinite(value):
                    raise ValidationError(f"unflagged record has non-finite {name}")
            if not (0.0 <= self.bal_acc <= 1.0 and 0.0 <= self.violation <= 1.0):
                raise ValidationError("bal_acc and violation must lie in [0, 1]")

    @property
    def ok(self) -> bool:
        return self.flag == ""


@dataclass(frozen=True)
class BinStat:
    bin_low: float
    mean: float
    std: float
    n_splits: int


@dataclass(frozen=True)
class TradeoffCurve:
    """Present bins only, each aligned to the 0.50 + k * width lattice."""

    bins: tuple[BinStat, ...]
    bin_width: float = DEFAULT_BIN_WIDTH

    def __post_init__(self) -> None:
        width = float(self.bin_width)
        if not (0.0 < width <= 0.5):
            raise ValidationError(f"bin_width must lie in (0, 0.5], got {width}")
        previous = -1.0
        for stat in self.bins:
            offset = (stat.bin_low - 0.5) / width
            if abs(offset - round(offset)) > 1e-9 or stat.bin_low < 0.5 - 1e-9:
                raise ValidationError(f"bin_low {stat.bin_low} is off the bin lattice")
            if stat.bin_low <= previous:
                raise ValidationError("bins must be sorted strictly increasing")
            previous = stat.bin_low
        object.__setattr__(self, "bin_width", width)


def _run_split(task) -> list[SweepRecord]:
    (
        dataset,
        train_idx,
        test_idx,
        lam_values,
        c_values,
        c_bar_values,
        setting,
        eps_p,
        config,
        pipeline_seed,
        split_id,
        dp_c,
    ) = task
    train_raw = dataset.subset(train_idx)
    test_raw = dataset.subset(test_idx)
    transform = fit_dp_transform(train_raw, dp_c)
    train = apply_dp_transform(transform, train_raw)
    test = apply_dp_transform(transform, test_raw)
    base_params = FairnessParams(lam=0.0, c=0.5, c_bar=0.5)
    if math.isfinite(eps_p):
        rule_base = dp_plugin_pipeline(train, setting, base_params, config, eps_p, pipeline_seed)
    else:
        rule_base = fit_plugin(train, setting, base_params, config)

    label_pos = test.labels > 0
    label_neg = ~label_pos
    group_pos = test.sensitive > 0
    if is_eo(setting):
        cells = (label_pos & ~group_pos, label_pos & group_pos)
    else:
        cells = (~group_pos, group_pos)
    n_pos = int(np.count_nonzero(label_pos))
    n_neg = test.n - n_pos
    n_a, n_b = (int(np.count_nonzero(cell)) for cell in cells)
    # One row of a slice per (c, c_bar) point, c_bar varying fastest.
    points = [(c, c_bar) for c in c_values.tolist() for c_bar in c_bar_values.tolist()]
    records: list[SweepRecord] = []
    if min(n_pos, n_neg, n_a, n_b) == 0:
        log.warning("split %d: degenerate test cell; flagging every grid point", split_id)
        for lam in lam_values:
            for c, c_bar in points:
                records.append(
                    SweepRecord(split_id, lam, c, c_bar, math.nan, math.nan, flag=FLAG_DEGENERATE)
                )
        return records

    groups = test.sensitive if is_aware(setting) else None
    first, second = coordinates(rule_base, test.features, groups)
    pred_pos = np.empty((len(points), test.n), dtype=bool)
    for lam in lam_values:
        for row, (c, c_bar) in enumerate(points):
            scores = setting_score(setting, first, second, rule_base.pi_hat, lam, c, c_bar)
            np.greater(scores, 0.0, out=pred_pos[row])
        tp = np.count_nonzero(pred_pos & label_pos, axis=1)
        tn = n_neg - np.count_nonzero(pred_pos & label_neg, axis=1)
        pos_a, pos_b = (np.count_nonzero(pred_pos & cell, axis=1) for cell in cells)
        bal_acc = 0.5 * (tp / n_pos + tn / n_neg)
        violation = np.abs(pos_a / n_a - pos_b / n_b)
        for (c, c_bar), b, v in zip(points, bal_acc.tolist(), violation.tolist()):
            records.append(SweepRecord(split_id, lam, c, c_bar, b, v))
    return records


def run_sweep(
    prepared: PreparedData,
    grid: SweepGrid,
    setting: str,
    eps_p: float,
    cpe_config: FitConfig,
    seed: int,
    *,
    dp_norm_c: float = 0.5,
    jobs: int = 1,
) -> list[SweepRecord]:
    """Traverse the grid on every split of a prepared dataset.

    ``eps_p`` is the per-split privacy budget; pass ``math.inf`` for a
    non-private sweep (the preprocessing still runs, so results stay
    comparable across budgets).  Finite budgets are limited to the
    blind settings.  Records come back in canonical (split, lam, c,
    c_bar) order, bit-identical for a fixed seed.
    """

    if setting not in SETTINGS:
        raise ValidationError(f"unknown setting {setting!r}")
    eps_p = float(eps_p)
    if math.isnan(eps_p) or eps_p <= 0.0:
        raise ValidationError(f"eps_p must be positive (math.inf disables privacy), got {eps_p}")
    if math.isfinite(eps_p) and setting not in (EO_BLIND, DPAR_BLIND):
        raise ValidationError(
            f"a finite privacy budget supports the blind settings only, got {setting!r}"
        )
    if not isinstance(cpe_config, FitConfig):
        raise ValidationError("cpe_config must be a FitConfig")
    lam_values = grid.lam.values()
    c_values = grid.c.values()
    c_bar_values = grid.c_bar.values()
    # Each range is sorted, so its two ends bound every grid point.
    for end in (0, -1):
        FairnessParams(lam=lam_values[end], c=c_values[end], c_bar=c_bar_values[end])
    tasks = []
    for split_id, (train_idx, _val_idx, test_idx) in enumerate(prepared.splits):
        pipeline_seed = int(np.random.SeedSequence((int(seed), split_id)).generate_state(1)[0])
        tasks.append(
            (
                prepared.dataset,
                train_idx,
                test_idx,
                lam_values,
                c_values,
                c_bar_values,
                setting,
                eps_p,
                cpe_config,
                pipeline_seed,
                split_id,
                float(dp_norm_c),
            )
        )
    per_split = map_tasks(_run_split, tasks, jobs)
    return [record for split_records in per_split for record in split_records]


def _bin_count(bin_width: float) -> int:
    count = 0.5 / bin_width
    if abs(count - round(count)) > 1e-9:
        raise ValidationError(f"bin width {bin_width} does not tile [0.5, 1.0]")
    return int(round(count))


def bin_indices(bal_acc, bin_width: float = DEFAULT_BIN_WIDTH) -> np.ndarray:
    """Bin index of each balanced accuracy at or above 0.5.

    Bin k is [0.5 + k*w, 0.5 + (k+1)*w), left-closed, and the top bin
    also takes 1.0.  An accuracy exactly on an edge can come out of the
    float division a few ulps below the integer it should hit, so
    :data:`BIN_EDGE_TOLERANCE` is added before flooring.  That is exact
    for counts: ``bal_acc = 0.5*(tp/n_pos + tn/n_neg)`` makes the offset
    ``(bal_acc - 0.5)/w`` equal ``n_bins*N/(n_pos*n_neg)`` for an integer
    ``N``, so an offset that is not an integer lies at least
    ``1/(n_pos*n_neg)`` below the next one, more than the tolerance
    while ``n_pos*n_neg < 1e9``.
    """

    n_bins = _bin_count(bin_width)
    offset = (np.asarray(bal_acc, dtype=float) - 0.5) / bin_width
    return np.minimum(np.floor(offset + BIN_EDGE_TOLERANCE), n_bins - 1).astype(int)


def bin_min_violation(
    records: list[SweepRecord], bin_width: float = DEFAULT_BIN_WIDTH
) -> dict[float, float]:
    """Per-bin minimum violation for one split's records (lower envelope).

    Bins are those of :func:`bin_indices`.  Records below 0.5 balanced
    accuracy or flagged as degenerate contribute nowhere.  Returns only
    the nonempty bins, keyed by bin_low.
    """

    kept = [record for record in records if record.ok and record.bal_acc >= 0.5]
    indices = bin_indices([record.bal_acc for record in kept], bin_width)
    envelope: dict[int, float] = {}
    for index, record in zip(indices.tolist(), kept):
        current = envelope.get(index)
        if current is None or record.violation < current:
            envelope[index] = record.violation
    return {0.5 + index * bin_width: value for index, value in sorted(envelope.items())}


def aggregate_curves(
    per_split_curves: list[dict[float, float]], bin_width: float = DEFAULT_BIN_WIDTH
) -> TradeoffCurve:
    """Mean and population std of the per-split minima, bin by bin.

    A bin appears in the output when at least one split has it; its
    statistics run over exactly the splits contributing to it.
    """

    _bin_count(bin_width)
    all_bins = sorted({bin_low for curve in per_split_curves for bin_low in curve})
    stats = []
    for bin_low in all_bins:
        values = np.array([curve[bin_low] for curve in per_split_curves if bin_low in curve])
        stats.append(
            BinStat(
                bin_low=bin_low,
                mean=float(values.mean()),
                std=float(values.std(ddof=0)),
                n_splits=values.size,
            )
        )
    return TradeoffCurve(bins=tuple(stats), bin_width=bin_width)


_RECORD_HEADER = ["split_id", "lambda", "c", "c_bar", "bal_acc", "violation", "flags"]


def write_records_csv(records: list[SweepRecord], path: str | Path) -> None:
    """Write sweep records with the canonical seven-column header."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_RECORD_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.split_id,
                    format_float(r.lam),
                    format_float(r.c),
                    format_float(r.c_bar),
                    format_float(r.bal_acc),
                    format_float(r.violation),
                    r.flag,
                ]
            )


def read_records_csv(path: str | Path) -> list[SweepRecord]:
    """Inverse of :func:`write_records_csv`."""
    records: list[SweepRecord] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _RECORD_HEADER:
            raise DataError(f"{path}: unexpected records header {header}")
        for row in reader:
            if len(row) != len(_RECORD_HEADER):
                raise DataError(f"{path}: malformed record row {row}")
            records.append(
                SweepRecord(
                    split_id=int(row[0]),
                    lam=float(row[1]),
                    c=float(row[2]),
                    c_bar=float(row[3]),
                    bal_acc=float(row[4]),
                    violation=float(row[5]),
                    flag=row[6],
                )
            )
    return records


def write_tradeoff_csv(curve: TradeoffCurve, path: str | Path) -> None:
    """Write the aggregated curve: bin_low, mean, std, n."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bin_low", "mean", "std", "n"])
        for stat in curve.bins:
            writer.writerow(
                [
                    format_float(stat.bin_low),
                    format_float(stat.mean),
                    format_float(stat.std),
                    stat.n_splits,
                ]
            )
