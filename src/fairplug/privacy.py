"""Output-perturbation privacy for the sensitive-attribute estimator.

The private pipeline fits the label estimator and the positive prior
exactly as usual -- they never read the sensitive column -- and fits
the sensitive-attribute estimator by regularized ERM, then adds one
draw of heavy-tailed vector noise to its weights.  The noise density
is proportional to exp(-gamma * ||b||_2) with gamma = n * reg * eps / 2,
calibrated by the ERM sensitivity bound 2 / (n * reg).

Everything downstream of the noisy weights is post-processing: any
number of decision rules, over any parameter grid, can be assembled
from one privatized estimator without drawing noise again or weakening
the guarantee.  A module-level draw counter makes that auditable.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, FairnessParams, compute_dist_stats
from .cpe import FitConfig, LinearCpe, fit_eta, fit_eta_bar_dpar, fit_eta_bar_eo
from .errors import NumericError, ValidationError
from .plugin import DPAR_BLIND, EO_BLIND, PlugInRule

__all__ = [
    "PrivacyBudget",
    "PrivatizedCpe",
    "sample_noise",
    "noise_draw_count",
    "privatize",
    "dp_plugin_pipeline",
]

_NOISE_DRAWS = 0

NORM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PrivacyBudget:
    """The noise calibration record: eps, the rate gamma, and its inputs."""

    eps_p: float
    gamma: float
    dim: int
    n: int
    lambda_reg: float

    def __post_init__(self) -> None:
        eps_p = float(self.eps_p)
        gamma = float(self.gamma)
        lam = float(self.lambda_reg)
        n = int(self.n)
        dim = int(self.dim)
        if not (np.isfinite(eps_p) and eps_p > 0.0):
            raise ValidationError(f"eps_p must be positive and finite, got {eps_p}")
        if not (np.isfinite(gamma) and gamma > 0.0):
            raise ValidationError(f"gamma must be positive and finite, got {gamma}")
        if n < 1 or dim < 1:
            raise ValidationError("n and dim must be positive integers")
        if lam <= 0.0:
            raise ValidationError(f"lambda_reg must be positive, got {lam}")
        expected = n * lam * eps_p / 2.0
        if abs(gamma - expected) > 1e-9 * max(1.0, abs(expected)):
            raise ValidationError(
                f"gamma must equal n * lambda_reg * eps_p / 2 = {expected}, got {gamma}"
            )
        object.__setattr__(self, "eps_p", eps_p)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lambda_reg", lam)


@dataclass(frozen=True, eq=False)
class PrivatizedCpe:
    """A fitted estimator plus the one noise vector added to its weights."""

    base: LinearCpe
    noise: np.ndarray
    budget: PrivacyBudget
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.base, LinearCpe):
            raise ValidationError("base must be a LinearCpe")
        noise = np.array(self.noise, dtype=float)
        if noise.shape != self.base.weights.shape:
            raise ValidationError("noise must match the weight vector's shape")
        if not np.all(np.isfinite(noise)):
            raise ValidationError("noise must be finite")
        if noise.shape[0] != self.budget.dim:
            raise ValidationError("budget dim must match the noise dimension")
        noise.setflags(write=False)
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "seed", int(self.seed))

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
    """Process-wide number of noise draws so far (audit hook)."""
    return _NOISE_DRAWS


def privatize(
    model: LinearCpe, n: int, lambda_reg: float, eps_p: float, seed: int
) -> PrivatizedCpe:
    """Add calibrated output-perturbation noise to a fitted estimator.

    ``lambda_reg`` must be the strength the model was actually fitted
    with (checked against the model's record); zero regularization has
    unbounded sensitivity and is rejected.  A fit that stopped above its
    tolerance raises :class:`NumericError`; a model without a fit record
    (built by hand) is taken as given.
    """

    if not isinstance(model, LinearCpe):
        raise ValidationError("model must be a LinearCpe")
    lambda_reg = float(lambda_reg)
    if lambda_reg <= 0.0:
        raise ValidationError(
            "lambda_reg must be positive: unregularized ERM has unbounded sensitivity, "
            "so no finite noise scale gives a privacy guarantee"
        )
    if abs(model.lambda_reg - lambda_reg) > 1e-12 * max(1.0, lambda_reg):
        raise ValidationError(
            f"model was fitted with lambda_reg={model.lambda_reg}, not {lambda_reg}; "
            "the calibration only covers the fitted strength"
        )
    if model.converged is False:
        raise NumericError(
            f"the fit stopped after {model.n_iters} iterations with gradient norm "
            f"{model.grad_norm:.3e} above its tolerance; the noise is calibrated for "
            "the exact minimizer, so raise max_iters or the tolerance"
        )
    n = int(n)
    if n < 1:
        raise ValidationError(f"n must be at least 1, got {n}")
    eps_p = float(eps_p)
    if not (np.isfinite(eps_p) and eps_p > 0.0):
        raise ValidationError(f"eps_p must be positive and finite, got {eps_p}")
    dim = model.weights.shape[0]
    gamma = n * lambda_reg * eps_p / 2.0
    noise = sample_noise(dim, gamma, seed)
    budget = PrivacyBudget(eps_p=eps_p, gamma=gamma, dim=dim, n=n, lambda_reg=lambda_reg)
    return PrivatizedCpe(base=model, noise=noise, budget=budget, seed=int(seed))


def _check_joint_norms(train: Dataset) -> None:
    joint_sq = np.sum(train.features**2, axis=1) + train.labels**2
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

    The positive prior and the label estimator are computed without
    noise (they never read the sensitive column); the sensitive-
    attribute estimator is fitted, privatized once, and embedded.  The
    returned rule carries the privatization record, and re-assembling
    it under other (lam, c, c_bar) values is noise-free post-processing.
    Training data with a joint feature-label row of norm above 1 is
    rejected with :class:`ValidationError`.
    """

    if setting not in (EO_BLIND, DPAR_BLIND):
        raise ValidationError(
            f"the private pipeline covers the blind settings only, got {setting!r}"
        )
    if not isinstance(cpe_config, FitConfig):
        raise ValidationError("cpe_config must be a FitConfig")
    _check_joint_norms(train)
    pi_hat = compute_dist_stats(train).pi if setting == EO_BLIND else None
    eta = fit_eta(train, cpe_config)
    if setting == EO_BLIND:
        eta_bar_fit = fit_eta_bar_eo(train, cpe_config)
    else:
        eta_bar_fit = fit_eta_bar_dpar(train, cpe_config)
    record = privatize(eta_bar_fit, train.n, cpe_config.lambda_reg, eps_p, seed)
    return PlugInRule(
        setting=setting,
        params=params,
        eta=eta,
        eta_bar=record.private,
        pi_hat=pi_hat,
        positive_label=train.label_scale,
        privacy=record,
    )
