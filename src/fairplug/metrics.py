"""Confusion counts, the rates they give, and the trade-off objective.

Every rate in the package is an integer count over a class size.  The
three public counters each read one truth:

* :func:`empirical_rates`: the label, over all rows;
* :func:`eo_dbar_rates`: the sensitive attribute, over Y = +1 rows;
* :func:`dpar_dbar_rates`: the sensitive attribute, over all rows.

Each takes boolean predictions (True predicts +1) and boolean truths
and returns a :class:`Counts` record: predicted positives among truth
+1 rows and among truth -1 rows, and the two class sizes.  Predictions
may carry leading axes, such as one row per grid point of a sweep
slice; the predicted-positive counts then carry the same axes.  The
rates are the counts over their class size, NaN where the class is
empty.

The central object is the performance measure

    Psi(f) = -CS(f; D, c) + lam * CS_dbar(f)

where ``CS(f; D, c) = c (1-pi) FPR + pi (1-c) FNR`` is the prior-weighted
cost-sensitive risk on the target distribution, and ``CS_dbar`` is the
cost-sensitive risk of the classifier *against the sensitive attribute*
on the comparison distribution of the chosen fairness criterion:

* equal-opportunity (``criterion='eo'``): the comparison distribution is
  (X, Ybar) restricted to Y = +1 rows; its class prior is
  ``beta = P(Ybar=+1 | Y=+1)`` and the counts are those of
  :func:`eo_dbar_rates`.
* demographic-parity (``criterion='dpar'``): the comparison distribution
  is (X, Ybar) over all rows; its class prior is ``pi_bar = P(Ybar=+1)``
  and the counts are those of :func:`dpar_dbar_rates`.

In both cases the second term uses the *prior-weighted* cost-sensitive
risk with the comparison distribution's own class prior.  That is the
form whose pointwise maximizer is exactly the closed-form plug-in score
of each setting (a direct derivative computation: the prior weights
cancel the conditioning denominators), which is what the exhaustive
oracle tests verify.

The scalar measures (the two risks, :func:`mean_difference`,
:func:`disparate_impact`, :func:`performance_measure`) raise
:class:`DegenerateDataError` when a class they divide by is empty;
:func:`violation` gives NaN there instead, as the sweep records it.
Ranges of ``pi`` and the costs are checked where they are built, in
:class:`DistStats` and :class:`FairnessParams`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DistStats, FairnessParams
from .errors import DegenerateDataError, ValidationError

__all__ = [
    "Counts",
    "empirical_rates",
    "eo_dbar_rates",
    "dpar_dbar_rates",
    "cost_sensitive_risk",
    "balanced_csr",
    "disparate_impact",
    "mean_difference",
    "violation",
    "performance_measure",
]


def _divide(numerator, denominator) -> np.ndarray:
    """``numerator / denominator`` in float64, NaN where the denominator is 0."""
    numerator, denominator = np.broadcast_arrays(numerator, denominator)
    out = np.full(numerator.shape, np.nan)
    return np.divide(numerator, denominator, out=out, where=denominator != 0)


@dataclass(frozen=True)
class Counts:
    """Predicted positives per truth class, and the class sizes.

    Fields are int64 scalars or arrays of one shape.  FNR is ``1 - TPR``
    and TNR is ``(n_neg - pos_in_neg) / n_neg``; the two forms of a
    complement can differ in the last bit, and these are the ones the
    regret curves and ``records.csv`` are computed with.
    """

    pos_in_pos: np.ndarray  # predicted +1 among truth +1 rows
    pos_in_neg: np.ndarray  # predicted +1 among truth -1 rows
    n_pos: np.ndarray
    n_neg: np.ndarray

    @property
    def tpr(self) -> np.ndarray:
        return _divide(self.pos_in_pos, self.n_pos)

    @property
    def fpr(self) -> np.ndarray:
        return _divide(self.pos_in_neg, self.n_neg)

    @property
    def tnr(self) -> np.ndarray:
        return _divide(self.n_neg - self.pos_in_neg, self.n_neg)

    @property
    def fnr(self) -> np.ndarray:
        return 1.0 - self.tpr


def _count(predictions: np.ndarray, truth: np.ndarray, rows: np.ndarray | None = None) -> Counts:
    """Counts of boolean ``predictions`` against boolean ``truth``, on ``rows`` if given."""
    positive, negative = truth, ~truth
    if rows is not None:
        positive, negative = positive & rows, negative & rows
    return Counts(
        np.count_nonzero(predictions & positive, axis=-1),
        np.count_nonzero(predictions & negative, axis=-1),
        np.count_nonzero(positive),
        np.count_nonzero(negative),
    )


def empirical_rates(predictions: np.ndarray, truth: np.ndarray) -> Counts:
    """Counts of ``predictions`` against ``truth`` over all rows."""
    return _count(predictions, truth)


def eo_dbar_rates(predictions: np.ndarray, labels: np.ndarray, sensitive: np.ndarray) -> Counts:
    """Counts against the sensitive attribute on Y=+1 rows.

    This is the equal-opportunity comparison distribution: restrict to
    positively labeled rows and treat the sensitive attribute as the
    truth.
    """

    return _count(predictions, sensitive, labels)


def dpar_dbar_rates(predictions: np.ndarray, sensitive: np.ndarray) -> Counts:
    """Counts against the sensitive attribute on all rows."""
    return _count(predictions, sensitive)


def _require_classes(rates: Counts) -> None:
    if 0 in (rates.n_pos, rates.n_neg):
        raise DegenerateDataError(
            "a truth class is empty; its conditional rates are undefined "
            f"(positives={rates.n_pos}, negatives={rates.n_neg})"
        )


def cost_sensitive_risk(rates: Counts, pi: float, c: float) -> float:
    """Prior-weighted cost-sensitive risk  c (1-pi) FPR + pi (1-c) FNR."""
    _require_classes(rates)
    return c * (1.0 - pi) * rates.fpr + pi * (1.0 - c) * rates.fnr


def balanced_csr(rates: Counts, c: float) -> float:
    """Balanced cost-sensitive risk  c FPR + (1-c) FNR  (prior weights dropped).

    No command reports it; it stays public as one of the named measures
    of acceptance criterion 12, whose ratio and difference equivalences
    are stated in it, :func:`mean_difference` and :func:`disparate_impact`.
    """
    _require_classes(rates)
    return c * rates.fpr + (1.0 - c) * rates.fnr


def violation(rates: Counts) -> np.ndarray:
    """|FPR - TPR|: the gap between the two groups' positive rates.

    On :func:`eo_dbar_rates` counts this is the equal-opportunity gap,
    on :func:`dpar_dbar_rates` counts the parity gap; NaN where a group
    is empty.
    """

    return np.abs(rates.fpr - rates.tpr)


def mean_difference(rates: Counts) -> float:
    """P(pred=+1 | group -1) - P(pred=+1 | group +1), in [-1, 1].

    ``rates`` are :func:`dpar_dbar_rates` counts.  No command reports it;
    it stays public as a named measure of acceptance criterion 12.
    """

    _require_classes(rates)
    return rates.fpr - rates.tpr


def disparate_impact(rates: Counts) -> float:
    """P(pred=+1 | group -1) / P(pred=+1 | group +1), from :func:`dpar_dbar_rates` counts.

    Raises :class:`DegenerateDataError` when group +1 has no predicted
    positives (the ratio is undefined; use :func:`mean_difference` there
    instead).  No command reports it; it stays public as a named measure
    of acceptance criterion 12.
    """

    _require_classes(rates)
    if rates.pos_in_pos == 0:
        raise DegenerateDataError(
            "positive rate of group +1 is 0; disparate impact is undefined"
        )
    return rates.fpr / rates.tpr


def performance_measure(
    rates_d: Counts,
    rates_dbar: Counts,
    stats: DistStats,
    params: FairnessParams,
    criterion: str,
) -> float:
    """The fairness-aware objective  -CS(f; D, c) + lam * CS_dbar(f).

    ``rates_d`` are the counts against the label, ``rates_dbar`` those
    on the criterion's comparison distribution; ``criterion`` selects
    that distribution's class prior: ``beta`` for ``'eo'``, ``pi_bar``
    for ``'dpar'``.
    """

    if criterion not in ("eo", "dpar"):
        raise ValidationError(f"criterion must be 'eo' or 'dpar', got {criterion!r}")
    prior = stats.beta if criterion == "eo" else stats.pi_bar
    first = cost_sensitive_risk(rates_d, stats.pi, params.c)
    return -first + params.lam * cost_sensitive_risk(rates_dbar, prior, params.c_bar)
