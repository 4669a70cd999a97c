"""Rates, cost-sensitive risks, fairness measures, the objective, regret.

The central object is the performance measure

    Psi(f) = -CS(f; D, c) + lam * CS_dbar(f)

where ``CS(f; D, c) = c (1-pi) FPR + pi (1-c) FNR`` is the prior-weighted
cost-sensitive risk on the target distribution, and ``CS_dbar`` is the
cost-sensitive risk of the classifier *against the sensitive attribute*
on the comparison distribution of the chosen fairness criterion:

* equal-opportunity (``criterion='eo'``): the comparison distribution is
  (X, Ybar) restricted to Y = +1 rows; its class prior is
  ``beta = P(Ybar=+1 | Y=+1)`` and the rates are those of
  :func:`eo_dbar_rates`.
* demographic-parity (``criterion='dpar'``): the comparison distribution
  is (X, Ybar) over all rows; its class prior is ``pi_bar = P(Ybar=+1)``
  and the rates are those of :func:`dpar_dbar_rates`.

In both cases the second term uses the *prior-weighted* cost-sensitive
risk with the comparison distribution's own class prior.  That is the
form whose pointwise maximizer is exactly the closed-form plug-in score
of each setting (a direct derivative computation: the prior weights
cancel the conditioning denominators), which is what the exhaustive
oracle tests verify.  A balanced variant (``balanced_dbar=True``) that
drops the prior weights is also exposed; switching to it amounts to a
re-parametrization of the trade-off weight along the same frontier
family.

Sign conventions: predictions and truths are +-1 vectors;
"positive rate" always means the rate of predicting +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DistStats, FairnessParams
from .errors import DegenerateDataError, ValidationError

__all__ = [
    "GroupRates",
    "PerformanceInputs",
    "empirical_rates",
    "eo_dbar_rates",
    "dpar_dbar_rates",
    "cost_sensitive_risk",
    "balanced_csr",
    "disparate_impact",
    "mean_difference",
    "eo_violation",
    "performance_measure",
    "regret",
]

_RATE_TOL = 1e-12


@dataclass(frozen=True)
class GroupRates:
    """TPR/TNR/FPR/FNR with respect to one conditional distribution."""

    tpr: float
    tnr: float
    fpr: float
    fnr: float

    def __post_init__(self) -> None:
        for name in ("tpr", "tnr", "fpr", "fnr"):
            value = float(getattr(self, name))
            if not (np.isfinite(value) and -_RATE_TOL <= value <= 1.0 + _RATE_TOL):
                raise ValidationError(f"{name} out of [0, 1]: {value}")
            object.__setattr__(self, name, value)
        if abs(self.tpr + self.fnr - 1.0) > _RATE_TOL:
            raise ValidationError(f"tpr + fnr = {self.tpr + self.fnr} != 1")
        if abs(self.tnr + self.fpr - 1.0) > _RATE_TOL:
            raise ValidationError(f"tnr + fpr = {self.tnr + self.fpr} != 1")


def _sign_vectors(*arrays):
    out = []
    n = None
    for a in arrays:
        v = np.asarray(a, dtype=float).ravel()
        if n is None:
            n = v.size
        elif v.size != n:
            raise ValidationError("vector length mismatch")
        if n == 0:
            raise ValidationError("empty vectors")
        if not np.all(np.isfinite(v)) or np.any(v == 0):
            raise ValidationError("entries must be signed non-zero reals")
        out.append(v > 0)
    return out


def empirical_rates(predictions, truth) -> GroupRates:
    """Plug-in frequencies of the four rates of ``predictions`` vs ``truth``.

    Both vectors are +-1 (any positive value counts as +1).  Raises
    :class:`DegenerateDataError` if a truth class is absent, since the
    corresponding conditional rate would be undefined.
    """

    pred_pos, truth_pos = _sign_vectors(predictions, truth)
    n_pos = int(np.count_nonzero(truth_pos))
    n_neg = truth_pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateDataError(
            "a truth class is absent; conditional rates are undefined "
            f"(positives={n_pos}, negatives={n_neg})"
        )
    tpr = float(np.count_nonzero(pred_pos & truth_pos)) / n_pos
    fpr = float(np.count_nonzero(pred_pos & ~truth_pos)) / n_neg
    return GroupRates(tpr=tpr, tnr=1.0 - fpr, fpr=fpr, fnr=1.0 - tpr)


def eo_dbar_rates(predictions, labels, sensitive) -> GroupRates:
    """Rates of ``predictions`` against the sensitive attribute on Y=+1 rows.

    This is the equal-opportunity comparison distribution: restrict to
    positively labeled rows and treat the sensitive attribute as the
    truth.  Raises if either group is absent among the positives.
    """

    pred_pos, label_pos, sens_pos = _sign_vectors(predictions, labels, sensitive)
    if not label_pos.any():
        raise DegenerateDataError("no positively labeled rows; EO comparison undefined")
    keep = label_pos
    return empirical_rates(
        np.where(pred_pos[keep], 1.0, -1.0), np.where(sens_pos[keep], 1.0, -1.0)
    )


def dpar_dbar_rates(predictions, sensitive) -> GroupRates:
    """Rates of ``predictions`` against the sensitive attribute on all rows."""
    return empirical_rates(predictions, sensitive)


def _check_cost(name: str, value: float) -> float:
    value = float(value)
    if not (np.isfinite(value) and 0.0 < value < 1.0):
        raise ValidationError(f"{name} must lie strictly inside (0, 1), got {value}")
    return value


def cost_sensitive_risk(rates: GroupRates, pi: float, c: float) -> float:
    """Prior-weighted cost-sensitive risk  c (1-pi) FPR + pi (1-c) FNR."""
    pi = float(pi)
    if not (np.isfinite(pi) and 0.0 < pi < 1.0):
        raise ValidationError(f"pi must lie strictly inside (0, 1), got {pi}")
    c = _check_cost("c", c)
    return c * (1.0 - pi) * rates.fpr + pi * (1.0 - c) * rates.fnr


def balanced_csr(rates: GroupRates, c: float) -> float:
    """Balanced cost-sensitive risk  c FPR + (1-c) FNR  (prior weights dropped)."""
    c = _check_cost("c", c)
    return c * rates.fpr + (1.0 - c) * rates.fnr


def _group_positive_rates(predictions, sensitive):
    pred_pos, sens_pos = _sign_vectors(predictions, sensitive)
    n_plus = int(np.count_nonzero(sens_pos))
    n_minus = sens_pos.size - n_plus
    if n_plus == 0 or n_minus == 0:
        raise DegenerateDataError(
            f"a sensitive group is absent (plus={n_plus}, minus={n_minus})"
        )
    rate_minus = float(np.count_nonzero(pred_pos & ~sens_pos)) / n_minus
    rate_plus = float(np.count_nonzero(pred_pos & sens_pos)) / n_plus
    return rate_minus, rate_plus


def disparate_impact(predictions, sensitive) -> float:
    """P(pred=+1 | group -1) / P(pred=+1 | group +1).

    Raises :class:`DegenerateDataError` when the denominator group's
    positive rate is 0 (the ratio is undefined; use
    :func:`mean_difference` there instead).
    """

    rate_minus, rate_plus = _group_positive_rates(predictions, sensitive)
    if rate_plus == 0.0:
        raise DegenerateDataError(
            "positive rate of group +1 is 0; disparate impact is undefined"
        )
    return rate_minus / rate_plus


def mean_difference(predictions, sensitive) -> float:
    """P(pred=+1 | group -1) - P(pred=+1 | group +1), in [-1, 1]."""
    rate_minus, rate_plus = _group_positive_rates(predictions, sensitive)
    return rate_minus - rate_plus


def eo_violation(predictions, truth, sensitive) -> float:
    """Absolute gap in group true-positive rates, |TPR(+1) - TPR(-1)|.

    TPRs are computed over positively labeled rows of each sensitive
    group; both (Y=+1, group) cells must be non-empty.
    """

    pred_pos, truth_pos, sens_pos = _sign_vectors(predictions, truth, sensitive)
    cell_plus = truth_pos & sens_pos
    cell_minus = truth_pos & ~sens_pos
    n_plus = int(np.count_nonzero(cell_plus))
    n_minus = int(np.count_nonzero(cell_minus))
    if n_plus == 0 or n_minus == 0:
        raise DegenerateDataError(
            f"an (Y=+1, group) cell is empty (plus={n_plus}, minus={n_minus})"
        )
    tpr_plus = float(np.count_nonzero(pred_pos & cell_plus)) / n_plus
    tpr_minus = float(np.count_nonzero(pred_pos & cell_minus)) / n_minus
    return abs(tpr_plus - tpr_minus)


@dataclass(frozen=True)
class PerformanceInputs:
    """Arguments of the performance measure.

    ``rates_d`` are the classifier's rates against the label on the
    target distribution; ``rates_dbar`` its rates against the sensitive
    attribute on the criterion's comparison distribution
    (:func:`eo_dbar_rates` or :func:`dpar_dbar_rates`).
    """

    rates_d: GroupRates
    rates_dbar: GroupRates
    stats: DistStats
    params: FairnessParams

    def __post_init__(self) -> None:
        if not isinstance(self.rates_d, GroupRates) or not isinstance(
            self.rates_dbar, GroupRates
        ):
            raise ValidationError("rates_d and rates_dbar must be GroupRates")
        if not isinstance(self.stats, DistStats):
            raise ValidationError("stats must be DistStats")
        if not isinstance(self.params, FairnessParams):
            raise ValidationError("params must be FairnessParams")


def performance_measure(
    inputs: PerformanceInputs, criterion: str = "eo", *, balanced_dbar: bool = False
) -> float:
    """The fairness-aware objective  -CS(f; D, c) + lam * CS_dbar(f).

    ``criterion`` selects the comparison distribution's class prior:
    ``beta`` for ``'eo'``, ``pi_bar`` for ``'dpar'``.  With
    ``balanced_dbar=True`` the second term drops the prior weights
    (balanced variant); the default prior-weighted form is the one whose
    exact maximizer is the closed-form plug-in score.
    """

    if criterion not in ("eo", "dpar"):
        raise ValidationError(f"criterion must be 'eo' or 'dpar', got {criterion!r}")
    params = inputs.params
    stats = inputs.stats
    first = cost_sensitive_risk(inputs.rates_d, stats.pi, params.c)
    if balanced_dbar:
        second = balanced_csr(inputs.rates_dbar, params.c_bar)
    else:
        prior = stats.beta if criterion == "eo" else stats.pi_bar
        second = cost_sensitive_risk(inputs.rates_dbar, prior, params.c_bar)
    return -first + params.lam * second


def regret(measure_f: float, measure_opt: float) -> float:
    """Optimal measure minus achieved measure.

    Non-negative for a true optimum; Monte-Carlo estimates may dip
    slightly negative and callers must tolerance that.  Raw values are
    never clamped here.
    """

    return float(measure_opt) - float(measure_f)
