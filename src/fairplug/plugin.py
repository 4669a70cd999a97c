"""The four plug-in decision rules and their score functions.

Each fairness setting has a closed-form optimal score; a plug-in rule
substitutes estimated regression functions (and the estimated positive
prior where needed) into that score and classifies by its sign:

* ``eo-blind``    s(x)       = {1 - (lam/pi)(eta_bar(x, +1) - c_bar)} eta(x) - c
* ``eo-aware``    s(x, -1)   = {1 + (lam/pi) c_bar} eta(x, -1) - c
                  s(x, +1)   = {1 - (lam/pi)(1 - c_bar)} eta(x, +1) - c
* ``dpar-blind``  s(x)       = eta(x) - {c + lam (eta_bar(x) - c_bar)}
* ``dpar-aware``  s(x, ybar) = eta(x, ybar) - c + lam c_bar - lam 1{ybar = +1}

The classifier is +1 when the score is strictly positive and -1
otherwise; a score of exactly 0 classifies as -1 (the zero-height
Heaviside convention).  Callers threshold the score themselves, as
``score(...) > 0``.

Blind rules carry two estimators (``eta`` on features, ``eta_bar`` on
features or features-plus-label); aware rules carry a single estimator
over (features, sensitive).  EO rules additionally carry ``pi_hat``,
always estimated on the *training* split.  The EO-blind rule evaluates
``eta_bar`` at the positive label input; :attr:`PlugInRule.positive_label`
records which stored encoding that is (+1 normally, +C after privacy
preprocessing).

Every scorer -- :func:`score`, the grid sweep, and the geometry
module's margins, raster signs, polyline and asymptote -- goes
through two functions.  :func:`coordinates` is the coordinate map: it
picks the estimator outputs a setting's score reads and checks them.
:func:`setting_score` is the score dispatch: it applies the setting's
formula above to those outputs, broadcasting over arrays of
``(lam, c, c_bar)``.  The four ``score_*`` formulas are plain
arithmetic and check nothing themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .core import Dataset, FairnessParams, compute_dist_stats
from .cpe import (
    ARITY_FEATURES,
    ARITY_FEATURES_PLUS_LABEL,
    ARITY_FEATURES_PLUS_SENSITIVE,
    FitConfig,
    LinearCpe,
    append_columns,
    fit_eta,
    fit_eta_aware,
    fit_eta_bar_dpar,
    fit_eta_bar_eo,
    predict_proba,
)
from .errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .privacy import PrivatizedCpe

__all__ = [
    "EO_BLIND",
    "EO_AWARE",
    "DPAR_BLIND",
    "DPAR_AWARE",
    "SETTINGS",
    "is_aware",
    "is_eo",
    "criterion_for",
    "PlugInRule",
    "score_eo_blind",
    "score_eo_aware",
    "score_dpar_blind",
    "score_dpar_aware",
    "setting_score",
    "coordinates",
    "score",
    "fit_plugin",
    "with_params",
]

EO_BLIND = "eo-blind"
EO_AWARE = "eo-aware"
DPAR_BLIND = "dpar-blind"
DPAR_AWARE = "dpar-aware"
SETTINGS = (EO_BLIND, EO_AWARE, DPAR_BLIND, DPAR_AWARE)


def _check_setting(setting: str) -> str:
    if setting not in SETTINGS:
        raise ValidationError(f"unknown setting {setting!r}; expected one of {SETTINGS}")
    return setting


def is_aware(setting: str) -> bool:
    """Whether the sensitive attribute is an input at prediction time."""
    return _check_setting(setting) in (EO_AWARE, DPAR_AWARE)


def is_eo(setting: str) -> bool:
    """Whether the setting targets equal opportunity (else demographic parity)."""
    return _check_setting(setting) in (EO_BLIND, EO_AWARE)


def criterion_for(setting: str) -> str:
    """Performance-measure criterion tag ('eo' or 'dpar') for a setting."""
    return "eo" if is_eo(setting) else "dpar"


def _check_unit(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    # min/max propagate NaN, which fails both comparisons; +-inf fail one.
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValidationError(f"{name} must lie in [0, 1]")
    return arr


def _check_pi(pi: float) -> float:
    pi = float(pi)
    if not (np.isfinite(pi) and 0.0 < pi <= 1.0):
        raise ValidationError(f"pi must lie in (0, 1], got {pi}")
    return pi


def _check_group(y_bar) -> np.ndarray:
    arr = np.asarray(y_bar, dtype=float)
    if not np.all(np.isin(arr, (-1.0, 1.0))):
        raise ValidationError("y_bar must be -1 or +1")
    return arr


def score_eo_blind(eta_x, eta_bar_x1, pi, lam, c, c_bar):
    """Equal-opportunity score without test-time group access.

    ``eta_bar_x1`` is the sensitive-attribute estimator evaluated at the
    positive label input.
    """
    return (1 - (lam / pi) * (eta_bar_x1 - c_bar)) * eta_x - c


def score_eo_aware(eta_xy, y_bar, pi, lam, c, c_bar):
    """Equal-opportunity score with test-time group access (two branches)."""
    coef_minus = 1 + (lam / pi) * c_bar
    coef_plus = 1 - (lam / pi) * (1 - c_bar)
    return np.where(y_bar > 0, coef_plus, coef_minus) * eta_xy - c


def score_dpar_blind(eta_x, eta_bar_x, lam, c, c_bar):
    """Demographic-parity score without test-time group access."""
    return eta_x - (c + lam * (eta_bar_x - c_bar))


def score_dpar_aware(eta_xy, y_bar, lam, c, c_bar):
    """Demographic-parity score with test-time group access."""
    return eta_xy - c + lam * c_bar - lam * (y_bar > 0)


def setting_score(setting: str, first, second, pi, lam, c, c_bar):
    """The score dispatch: the setting's formula at :func:`coordinates` output.

    ``first, second`` are the two arrays :func:`coordinates` returns and
    are taken as checked; ``pi`` is read by the EO settings only.  The
    parameters broadcast against the coordinates, so ``c`` and ``c_bar``
    of shape ``(k, 1)`` against ``(n,)`` coordinates score ``k`` grid
    points on ``n`` rows in one ``(k, n)`` call.  The formulas use only
    integer constants, so on :class:`fractions.Fraction` scalars they
    evaluate exactly, which :func:`fairplug.geometry.margin_membership`
    relies on near the boundary.
    """

    if setting == EO_BLIND:
        return score_eo_blind(first, second, pi, lam, c, c_bar)
    if setting == EO_AWARE:
        return score_eo_aware(first, second, pi, lam, c, c_bar)
    if setting == DPAR_BLIND:
        return score_dpar_blind(first, second, lam, c, c_bar)
    _check_setting(setting)
    return score_dpar_aware(first, second, lam, c, c_bar)


@dataclass(frozen=True, eq=False)
class PlugInRule:
    """A fitted decision rule: setting tag, parameters, and estimators.

    ``pi_hat`` is required by the EO settings and ignored by the DPar
    ones.  Blind settings require ``eta_bar``; aware settings require a
    single ``eta`` over (features, sensitive) and no ``eta_bar``.
    ``privacy`` optionally carries the privatization record when the
    rule came out of the private pipeline.
    """

    setting: str
    params: FairnessParams
    eta: LinearCpe
    eta_bar: LinearCpe | None = None
    pi_hat: float | None = None
    positive_label: float = 1.0
    privacy: "PrivatizedCpe | None" = None

    def __post_init__(self) -> None:
        _check_setting(self.setting)
        if not isinstance(self.params, FairnessParams):
            raise ValidationError("params must be FairnessParams")
        if not isinstance(self.eta, LinearCpe):
            raise ValidationError("eta must be a LinearCpe")
        if is_eo(self.setting):
            if self.pi_hat is None:
                raise ValidationError(f"setting {self.setting!r} requires pi_hat")
            _check_pi(self.pi_hat)
        if is_aware(self.setting):
            if self.eta_bar is not None:
                raise ValidationError(
                    f"setting {self.setting!r} uses a single (x, ybar) estimator; "
                    "eta_bar must be absent"
                )
            if self.eta.input_arity != ARITY_FEATURES_PLUS_SENSITIVE:
                raise ValidationError(
                    f"setting {self.setting!r} requires eta with arity "
                    f"{ARITY_FEATURES_PLUS_SENSITIVE!r}, got {self.eta.input_arity!r}"
                )
        else:
            if self.eta_bar is None:
                raise ValidationError(f"setting {self.setting!r} requires eta_bar")
            if self.eta.input_arity != ARITY_FEATURES:
                raise ValidationError(
                    f"setting {self.setting!r} requires eta with arity "
                    f"{ARITY_FEATURES!r}, got {self.eta.input_arity!r}"
                )
            expected = (
                ARITY_FEATURES_PLUS_LABEL if self.setting == EO_BLIND else ARITY_FEATURES
            )
            if self.eta_bar.input_arity != expected:
                raise ValidationError(
                    f"setting {self.setting!r} requires eta_bar with arity "
                    f"{expected!r}, got {self.eta_bar.input_arity!r}"
                )
        scale = float(self.positive_label)
        if not (np.isfinite(scale) and scale > 0):
            raise ValidationError(f"positive_label must be positive, got {scale}")
        object.__setattr__(self, "positive_label", scale)


def _as_rows(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise ValidationError(f"x must be a vector or a matrix, got ndim={arr.ndim}")


def coordinates(rule: PlugInRule, x, y_bar=None) -> tuple[np.ndarray, np.ndarray]:
    """The coordinate map: the per-row estimator outputs a rule scores on.

    ``x`` is a matrix of feature rows.  Returns ``(eta(x), eta_bar(x, +label))``
    for eo-blind, ``(eta(x), eta_bar(x))`` for dpar-blind and
    ``(eta(x, y_bar), y_bar)`` for the aware settings, where ``y_bar``
    (scalar or per-row vector over +-1) is required exactly for the
    aware settings.  Both arrays are checked here, once per batch of
    rows, so :func:`setting_score` can score any number of parameter
    points on them.
    """

    rows = np.asarray(x, dtype=float)
    if is_aware(rule.setting):
        if y_bar is None:
            raise ValidationError(f"setting {rule.setting!r} requires y_bar at prediction time")
        groups = np.broadcast_to(_check_group(y_bar), (rows.shape[0],))
        eta_xy = predict_proba(rule.eta, append_columns(rows, groups))
        return _check_unit("eta_xy", eta_xy), groups
    if y_bar is not None:
        raise ValidationError(f"setting {rule.setting!r} does not accept y_bar")
    eta_x = _check_unit("eta_x", predict_proba(rule.eta, rows))
    if rule.setting == EO_BLIND:
        eta_bar_x = predict_proba(rule.eta_bar, append_columns(rows, rule.positive_label))
    else:
        eta_bar_x = predict_proba(rule.eta_bar, rows)
    return eta_x, _check_unit("eta_bar_x", eta_bar_x)


def score(rule: PlugInRule, x, y_bar=None):
    """Evaluate the rule's score at feature vector(s) ``x``.

    ``y_bar`` (scalar or per-row vector over +-1) is required exactly for
    the aware settings.  Returns a float for a single vector, an array
    for a matrix of rows.
    """

    rows, single = _as_rows(x)
    params = rule.params
    value = setting_score(
        rule.setting, *coordinates(rule, rows, y_bar), rule.pi_hat, params.lam, params.c,
        params.c_bar,
    )
    value = np.asarray(value, dtype=float)
    return float(value[0]) if single else value


def fit_plugin(
    train: Dataset,
    setting: str,
    params: FairnessParams,
    config: FitConfig,
    *,
    pi_override: float | None = None,
) -> PlugInRule:
    """Fit the estimators a setting needs on the training split.

    ``pi_override`` substitutes a known true prior for the empirical
    one (EO settings only), for harnesses that study the known-prior
    regime.
    """

    _check_setting(setting)
    pi_hat: float | None = None
    if is_eo(setting):
        pi_hat = float(pi_override) if pi_override is not None else compute_dist_stats(train).pi
    if is_aware(setting):
        eta = fit_eta_aware(train, config)
        eta_bar = None
    else:
        eta = fit_eta(train, config)
        eta_bar = fit_eta_bar_eo(train, config) if setting == EO_BLIND else fit_eta_bar_dpar(
            train, config
        )
    return PlugInRule(
        setting=setting,
        params=params,
        eta=eta,
        eta_bar=eta_bar,
        pi_hat=pi_hat,
        positive_label=train.label_scale,
    )


def with_params(rule: PlugInRule, params: FairnessParams) -> PlugInRule:
    """Re-assemble the rule with new (lam, c, c_bar), reusing its estimators.

    Re-assembly is pure post-processing: no data access, and -- for
    privatized rules -- no additional noise or budget.
    """

    return replace(rule, params=params)
