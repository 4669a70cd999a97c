"""Output-perturbation privacy for the sensitive-attribute estimator.

The private pipeline fits the label estimator and the positive prior
exactly as usual -- they never read the sensitive column -- and fits
the sensitive-attribute estimator by regularized ERM, then adds one
draw of heavy-tailed vector noise to its weights.  The noise density
is proportional to exp(-gamma * ||b||_2) with gamma = n * reg * eps / 2,
calibrated by the ERM sensitivity bound 2 / (n * reg).

Each privatization leaves one :class:`PrivatizedCpe` record with five
fields: the fitted estimator ``base``, the ``noise`` vector, the
per-split ``eps_p``, the training size ``n`` and the ``seed`` of the
draw.  Nothing derived is stored: ``gamma`` is the property
``n * base.lambda_reg * eps_p / 2``, with ``reg`` read from the fit
itself, and the noise dimension is the length of ``base.weights``.

Every decision rule built from the noisy weights is post-processing:
any number of rules, over any parameter grid, can be assembled from one
privatized estimator without drawing noise again or weakening the
guarantee.  A module-level draw counter makes that auditable.

What a whole sweep releases is wider than one estimator.  ``eps_p`` is
a per-split budget: a sweep privatizes one estimator per split, and a
row that lies in the training sets of k splits is covered, by basic
composition, at k * eps_p, not eps_p.  Random splits can put a row in
every training set, so a 20-split sweep at eps_p = 1 can be as weak as
20-DP for that row.  The evaluation is outside the guarantee: the
``pos_a``, ``pos_b``, ``n_a`` and ``n_b`` counts in ``records.csv`` (and
the violation read from them) are counted from the test split's raw
sensitive column, with no noise, and are not protected.

The guarantee is pure (delta = 0) differential privacy with respect to
one individual's sensitive attribute.  Its calibration has two
preconditions, and both are enforced, not assumed: every joint
feature-label row has Euclidean norm at most 1 (:func:`dp_plugin_pipeline`
rejects training data that the data module's preprocessing has not
bounded), and the fit regularized the full weight vector, intercept
included (the estimator module always does).

Why 2 / (n * reg) holds with the intercept column: the fit's design row
is z_i = [u_i; 1] for a joint feature-label row u_i of norm at most 1,
so ||z_i|| <= sqrt(2), not 1.  Neighbouring datasets differ only in
one target t_i (the sensitive attribute).  Flipping it changes that
row's loss gradient by -t_i * z_i * (sigmoid(m) + sigmoid(-m)) =
-t_i * z_i, where m is the row's margin, so the objective's gradient
moves by ||z_i|| / n <= sqrt(2) / n.  The objective is reg-strongly
convex, so the two minimizers lie within sqrt(2) / (n * reg) <=
2 / (n * reg) of each other.

The calibration is for the exact minimizer.  A fit whose gradient norm
is at most tau lies within tau / reg of it, so two such fits on
neighbouring datasets lie within 2 / (n * reg) + 2 * tau / reg, and the
released weights are (eps * (1 + n * tau))-private: an approximate
minimizer inflates eps by at most the factor 1 + n * ||grad J(w)||.
:func:`privatize` therefore rejects a fit that stopped at its iteration
cap above its tolerance.

Whether a private fit releases at all must not depend on the sensitive
column either, or the abort itself tells neighbours apart.  The
sensitivity argument above never uses both classes, and with reg > 0
the minimizer exists for any targets, so :func:`dp_plugin_pipeline`
fits the sensitive-attribute estimator on a column that holds one group
too, and takes the prior from the labels alone.  Its aborts on a label
column with one class, on rows above the norm bound and on reg <= 0
read no sensitive value.  One abort still depends on the sensitive
column: the unconverged fit, since the sensitive values steer the
iterates.  It is kept, because the noise is calibrated for a converged
fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, FairnessParams
from .cpe import FitConfig, LinearCpe, fit_estimator
from .errors import NumericError, ValidationError
from .plugin import DPAR_BLIND, EO_BLIND, ESTIMATORS, PlugInRule

__all__ = [
    "PrivatizedCpe",
    "sample_noise",
    "noise_draw_count",
    "privatize",
    "dp_plugin_pipeline",
]

_NOISE_DRAWS = 0

NORM_TOLERANCE = 1e-9


def _check_regularized(lambda_reg: float) -> None:
    if lambda_reg <= 0.0:
        raise ValidationError(
            "lambda_reg must be positive: unregularized ERM has unbounded sensitivity, "
            "so no finite noise scale gives a privacy guarantee"
        )


def _check_calibration(model: LinearCpe, n: int, eps_p: float) -> tuple[int, float]:
    """``(n, eps_p)`` as numbers, once the calibration's inputs are legal."""
    if not isinstance(model, LinearCpe):
        raise ValidationError("model must be a LinearCpe")
    _check_regularized(model.lambda_reg)
    n = int(n)
    if n < 1:
        raise ValidationError(f"n must be at least 1, got {n}")
    eps_p = float(eps_p)
    if not (np.isfinite(eps_p) and eps_p > 0.0):
        raise ValidationError(f"eps_p must be positive and finite, got {eps_p}")
    return n, eps_p


def _gamma(n: int, lambda_reg: float, eps_p: float) -> float:
    return n * lambda_reg * eps_p / 2.0


@dataclass(frozen=True, eq=False)
class PrivatizedCpe:
    """A fitted estimator plus the one noise vector added to its weights.

    The record holds the calibration's inputs once -- the fit ``base``
    (which carries ``lambda_reg``), the training size ``n`` and the
    per-split ``eps_p`` -- with the ``seed`` of the draw; ``gamma`` and
    the noise dimension follow from them.
    """

    base: LinearCpe
    noise: np.ndarray
    eps_p: float
    n: int
    seed: int

    def __post_init__(self) -> None:
        n, eps_p = _check_calibration(self.base, self.n, self.eps_p)
        noise = np.array(self.noise, dtype=float)
        if noise.shape != self.base.weights.shape:
            raise ValidationError("noise must match the weight vector's shape")
        if not np.all(np.isfinite(noise)):
            raise ValidationError("noise must be finite")
        noise.setflags(write=False)
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "eps_p", eps_p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def gamma(self) -> float:
        """The noise rate n * lambda_reg * eps_p / 2."""
        return _gamma(self.n, self.base.lambda_reg, self.eps_p)

    @property
    def private(self) -> LinearCpe:
        """The released estimator: base weights plus noise.

        It has no fit record (``grad_norm``, ``n_iters`` and ``converged``
        are ``None``): the noisy weights are not a minimizer of anything,
        and the fit's record stays on :attr:`base`.
        """
        return LinearCpe(
            weights=self.base.weights + self.noise,
            lambda_reg=self.base.lambda_reg,
            input_arity=self.base.input_arity,
        )


def sample_noise(dim: int, gamma: float, seed) -> np.ndarray:
    """One draw from the density proportional to exp(-gamma * ||b||_2).

    The radial marginal of that density is Gamma(shape=dim, rate=gamma),
    so the draw is a Gamma radius times a uniform sphere direction.
    Increments the module draw counter for budget audits.
    """

    global _NOISE_DRAWS
    dim = int(dim)
    if dim < 1:
        raise ValidationError(f"dim must be at least 1, got {dim}")
    gamma = float(gamma)
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ValidationError(f"gamma must be positive and finite, got {gamma}")
    rng = np.random.default_rng(seed)
    radius = rng.gamma(shape=dim, scale=1.0 / gamma)
    direction = rng.normal(size=dim)
    norm = float(np.linalg.norm(direction))
    while norm == 0.0:  # measure-zero, but never divide by zero
        direction = rng.normal(size=dim)
        norm = float(np.linalg.norm(direction))
    _NOISE_DRAWS += 1
    return radius * direction / norm


def noise_draw_count() -> int:
    """Process-wide number of noise draws so far (audit hook).

    Draws made in ``--jobs`` worker processes count once their caller
    has added them with :func:`_add_worker_draws`.
    """
    return _NOISE_DRAWS


def _add_worker_draws(count: int) -> None:
    """Count ``count`` draws that another process made on this one's behalf."""
    global _NOISE_DRAWS
    _NOISE_DRAWS += int(count)


def privatize(model: LinearCpe, n: int, eps_p: float, seed: int) -> PrivatizedCpe:
    """Add calibrated output-perturbation noise to a fitted estimator.

    The calibration reads ``lambda_reg`` from the model, the strength it
    was fitted with; zero regularization has unbounded sensitivity and
    is rejected.  A fit that stopped above its tolerance raises
    :class:`NumericError`; a model without a fit record (built by hand)
    is taken as given.  Every rejection comes before the draw, so a
    rejected call draws no noise.
    """

    n, eps_p = _check_calibration(model, n, eps_p)
    if model.converged is False:
        raise NumericError(
            f"the fit stopped after {model.n_iters} iterations with gradient norm "
            f"{model.grad_norm:.3e} above its tolerance; the noise is calibrated for "
            "the exact minimizer, so raise max_iters or the tolerance"
        )
    noise = sample_noise(model.weights.size, _gamma(n, model.lambda_reg, eps_p), seed)
    return PrivatizedCpe(base=model, noise=noise, eps_p=eps_p, n=n, seed=seed)


def _check_joint_norms(train: Dataset) -> None:
    # One sum of squares per row, with no design-sized squares matrix.
    joint_sq = np.einsum("ij,ij->i", train.features, train.features) + train.labels**2
    worst = float(np.sqrt(joint_sq.max()))
    if worst > 1.0 + NORM_TOLERANCE:
        raise ValidationError(
            f"a training row has joint feature-label norm {worst:.6g} > 1; run the "
            "data module's norm-bounding preprocessing first"
        )


def dp_plugin_pipeline(
    train: Dataset,
    setting: str,
    params: FairnessParams,
    cpe_config: FitConfig,
    eps_p: float,
    seed: int,
) -> PlugInRule:
    """Fit a blind plug-in rule whose sensitive-attribute part is private.

    The positive prior and the label estimator carry no noise: they
    never read the sensitive column.  The prior is the labels' positive
    share, the ``count / n`` of :func:`fairplug.core.compute_dist_stats`,
    without its checks on the sensitive column.  The sensitive-attribute
    estimator is fitted with ``allow_one_class`` and privatized once.
    So a training split whose sensitive column holds one group releases
    like its neighbour with one value flipped, rather than aborting on
    an empty group or (label, group) cell as :func:`fairplug.plugin.fit_plugin`
    does.  The returned rule carries the privatization record, and
    re-assembling it under other (lam, c, c_bar) values is noise-free
    post-processing.  An unregularized ``cpe_config`` and training data
    with a joint feature-label row of norm above 1 are rejected with
    :class:`ValidationError` before any fit.
    """

    if setting not in (EO_BLIND, DPAR_BLIND):
        raise ValidationError(
            f"the private pipeline covers the blind settings only, got {setting!r}"
        )
    if not isinstance(cpe_config, FitConfig):
        raise ValidationError("cpe_config must be a FitConfig")
    _check_regularized(cpe_config.lambda_reg)
    _check_joint_norms(train)
    eta_arity, eta_bar_arity = ESTIMATORS[setting]
    eta = fit_estimator(train, "labels", eta_arity, cpe_config)
    eta_bar = fit_estimator(train, "sensitive", eta_bar_arity, cpe_config, allow_one_class=True)
    record = privatize(eta_bar, train.n, eps_p, seed)
    pi_hat = None
    if setting == EO_BLIND:
        pi_hat = float(np.count_nonzero(train.labels > 0)) / train.n
    return PlugInRule(
        setting=setting,
        params=params,
        eta=eta,
        eta_bar=record.private,
        pi_hat=pi_hat,
        positive_label=train.label_scale,
        privacy=record,
    )
