"""Synthetic distributions with analytically known regression functions.

A :class:`SyntheticDistribution` pairs a compact feature law with
logistic-link regression functions whose weights are known exactly, so
the optimal decision rules can be constructed outright rather than
estimated.  That turns the package's statistical claims into testable
ones: fitted rules can be scored against the exact optimum (regret),
consistency can be watched along a sample-size schedule, and the
fairness/accuracy frontier and its finite-sample gap can be measured.

The label model: x ~ feature law; y = +1 with probability eta(x);
ybar = +1 with probability eta_bar(x, y); both are
:class:`~fairplug.cpe.LinearCpe` models, evaluated by
:func:`~fairplug.cpe.predict_proba` as fitted ones are, so an exact rule
and a population read the same bits.  The population quantities
of the rules (class and group priors, a rule's regret, the frontier and
the trade-off gap's costs, the margin mass, and an estimator's tail
P(|true - fitted| >= eps)) are weighted sums over one
:class:`Population`, a deterministic tensor-grid quadrature of the
feature law built once per run, not Monte Carlo, so exact-rule
construction and evaluation are seed-free; only the training samples
are drawn.

The sensitive-attribute regression takes the label as a numeric +-1
input.  When its label weight is zero the sensitive attribute is
conditionally independent of the label given features; only then are
the group-marginal regression x -> P(ybar = +1 | x) and the aware
regression (x, ybar) -> P(y = +1 | x, ybar) themselves logistic, which
is what exact rule construction for the parity-blind and the two aware
settings requires.  Constructions that need this raise a clear error
when the label weight is nonzero.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._pool import map_tasks
from .core import Dataset, DistStats, FairnessParams
from .cpe import (
    ARITY_FEATURES,
    ARITY_FEATURES_PLUS_LABEL,
    ARITY_FEATURES_PLUS_SENSITIVE,
    FitConfig,
    LinearCpe,
    fit_estimator,
    predict_proba,
)
from .errors import DataError, ValidationError
from .kvformat import parse_float_vector, read_kv
from .metrics import Counts, cost_sensitive_risk, performance_measure
from .plugin import (
    DPAR_BLIND,
    EO_BLIND,
    ESTIMATORS,
    PlugInRule,
    criterion_for,
    fit_plugin,
    is_aware,
    is_eo,
    score,
    with_params,
)

# Imported but not called here: perfbench's tracer wraps these names at
# ``fairplug.synthetic.<name>``.
from .metrics import dpar_dbar_rates  # noqa: F401
from .metrics import empirical_rates  # noqa: F401
from .metrics import eo_dbar_rates  # noqa: F401

__all__ = [
    "COMPLEXITY_TARGETS",
    "UniformBoxLaw",
    "TruncatedGaussianLaw",
    "DiscreteLaw",
    "SyntheticDistribution",
    "Population",
    "RegretPoint",
    "RegretCurve",
    "TradeoffResult",
    "SampleComplexityResult",
    "law_dim",
    "sample_x",
    "quadrature",
    "sample",
    "true_stats",
    "bayes_classifier",
    "population",
    "population_counts",
    "population_measure",
    "estimate_regret",
    "consistency_curve",
    "frontier",
    "tradeoff_gap",
    "estimate_sample_complexity",
    "reference_eo",
    "reference_dpar",
    "load_distribution",
]

log = logging.getLogger("fairplug.synthetic")

#: How many fresh draws replace a degenerate (single-class) training
#: sample before the harness gives up.
MAX_RESAMPLES = 25

_GAUSS_NODE_CAP = 256
_GAUSS_TOTAL_TARGET = 200_000


def _readonly_vector(name: str, value, length: int | None = None) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a vector")
    if length is not None and arr.shape[0] != length:
        raise ValidationError(f"{name} must have length {length}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class UniformBoxLaw:
    """Uniform feature law on an axis-aligned box (density constant on it)."""

    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self) -> None:
        lows = _readonly_vector("lows", self.lows)
        highs = _readonly_vector("highs", self.highs, lows.shape[0])
        if lows.shape[0] == 0:
            raise ValidationError("box must have at least one dimension")
        if not np.all(lows < highs):
            raise ValidationError("each low must be strictly below its high")
        with np.errstate(over="ignore"):
            widths = highs - lows
        if not np.all(np.isfinite(widths)):
            raise ValidationError("each box width must be finite")
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    @property
    def dim(self) -> int:
        return self.lows.shape[0]


@dataclass(frozen=True, eq=False)
class TruncatedGaussianLaw:
    """Independent Gaussians truncated to a box (density bounded on it)."""

    mean: np.ndarray
    std: np.ndarray
    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self) -> None:
        mean = _readonly_vector("mean", self.mean)
        d = mean.shape[0]
        if d == 0:
            raise ValidationError("law must have at least one dimension")
        std = _readonly_vector("std", self.std, d)
        lows = _readonly_vector("lows", self.lows, d)
        highs = _readonly_vector("highs", self.highs, d)
        if not np.all(std > 0):
            raise ValidationError("std must be strictly positive")
        if not np.all(lows < highs):
            raise ValidationError("each low must be strictly below its high")
        mass = 1.0
        for j in range(d):
            lo = (lows[j] - mean[j]) / std[j]
            hi = (highs[j] - mean[j]) / std[j]
            mass *= 0.5 * (math.erf(hi / math.sqrt(2)) - math.erf(lo / math.sqrt(2)))
        if mass < 1e-2:
            raise ValidationError(
                f"box keeps only {mass:.2e} of the Gaussian mass; widen the box or "
                "move the mean so rejection sampling stays practical"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)
        object.__setattr__(self, "_accept_mass", float(mass))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True, eq=False)
class DiscreteLaw:
    """Finite-support feature law: atoms with probability masses.

    An extension beyond the continuous laws: exact quadrature over a
    handful of atoms is what makes exhaustive-search optimality checks
    feasible.
    """

    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0 or points.shape[1] == 0:
            raise ValidationError("points must be a nonempty (k, d) matrix")
        if not np.all(np.isfinite(points)):
            raise ValidationError("points must be finite")
        masses = _readonly_vector("masses", self.masses, points.shape[0])
        if not np.all(masses > 0):
            raise ValidationError("masses must be strictly positive")
        total = float(masses.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"masses must sum to 1, got {total}")
        masses = masses / total
        points.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "masses", masses)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


FeatureLaw = UniformBoxLaw | TruncatedGaussianLaw | DiscreteLaw

LAW_UNIFORM = "uniform-box"
LAW_GAUSSIAN = "truncated-gaussian"
LAW_DISCRETE = "discrete"


def law_dim(law: FeatureLaw) -> int:
    if isinstance(law, (UniformBoxLaw, TruncatedGaussianLaw, DiscreteLaw)):
        return law.dim
    raise ValidationError(f"unknown feature law {type(law).__name__}")


def sample_x(law: FeatureLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n feature rows from the law using the supplied generator.

    A uniform box is ``rng.random((n, d))`` scaled in place by the widths,
    then shifted by the lows.  ``Generator.uniform(lows, highs, size)``
    computes ``low + width * u`` from the same doubles ``u``, drawn in
    the same C order, with the same two correctly rounded operations, so
    the rows are bit-identical to it without its per-element broadcast
    of the bounds or its result-sized temporaries.
    """
    n = int(n)
    if n <= 0:
        raise ValidationError(f"sample size must be positive, got {n}")
    if isinstance(law, UniformBoxLaw):
        x = rng.random((n, law.dim))
        x *= law.highs - law.lows
        x += law.lows
        return x
    if isinstance(law, TruncatedGaussianLaw):
        out = np.empty((0, law.dim))
        batch = max(n, int(math.ceil(2.0 * n / law._accept_mass)))
        while out.shape[0] < n:
            draw = rng.normal(law.mean, law.std, size=(batch, law.dim))
            keep = np.all((draw >= law.lows) & (draw <= law.highs), axis=1)
            out = np.vstack([out, draw[keep]])
        return out[:n].copy()  # a view would keep the surplus draws alive
    if isinstance(law, DiscreteLaw):
        idx = rng.choice(law.points.shape[0], size=n, p=law.masses)
        return law.points[idx]
    raise ValidationError(f"unknown feature law {type(law).__name__}")


def _gauss_legendre_grid(
    lows: np.ndarray, highs: np.ndarray, nodes_per_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    base_nodes, base_weights = np.polynomial.legendre.leggauss(nodes_per_dim)
    axis_nodes, axis_weights = [], []
    for lo, hi in zip(lows, highs):
        half = 0.5 * (hi - lo)
        axis_nodes.append(0.5 * (hi + lo) + half * base_nodes)
        axis_weights.append(half * base_weights)
    mesh = np.meshgrid(*axis_nodes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    weights = axis_weights[0]
    for axis in axis_weights[1:]:
        weights = np.multiply.outer(weights, axis)
    return nodes, np.asarray(weights).ravel()


def quadrature(law: FeatureLaw, total: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic nodes and probability weights integrating the law.

    Exact for a discrete law; for the continuous laws a tensor
    Gauss-Legendre grid (weighted by the density and renormalized on
    the grid) whose per-dimension size is set by a budget of roughly
    ``total`` nodes, at least 16 and at most 256 per dimension.  A
    budget of 50,000 gives 224 per axis in 2-D, any budget from 65,536
    on gives 256, and any budget up to 16**5 gives 16 per axis in 5-D.
    """

    total = int(total)
    if total <= 0:
        raise ValidationError(f"sample size must be positive, got a budget of {total} nodes")
    if isinstance(law, DiscreteLaw):
        return law.points, law.masses
    d = law_dim(law)
    nodes_per_dim = min(_GAUSS_NODE_CAP, max(16, int(round(total ** (1.0 / d)))))
    nodes, weights = _gauss_legendre_grid(law.lows, law.highs, nodes_per_dim)
    if isinstance(law, TruncatedGaussianLaw):
        z = (nodes - law.mean) / law.std
        weights = weights * np.exp(-0.5 * np.sum(z * z, axis=1))
    return nodes, weights / weights.sum()


@dataclass(frozen=True, eq=False)
class SyntheticDistribution:
    """Feature law plus exact logistic regression functions, as :class:`LinearCpe` models.

    ``w_eta`` has layout [feature weights..., intercept] and defines
    P(y = +1 | x); ``w_eta_bar`` has layout [feature weights..., label
    weight, intercept] and defines P(ybar = +1 | x, y).  The true
    regression functions are derived from them as unregularized
    :class:`LinearCpe` models: ``eta`` on the features, ``eta_bar`` on
    the features and the label column.  The group-marginal model of
    P(ybar = +1 | x) exists exactly when the label weight is zero;
    :meth:`require_eta_bar_dpar` returns it or raises.
    """

    law: FeatureLaw
    w_eta: np.ndarray
    w_eta_bar: np.ndarray
    eta: LinearCpe = field(init=False)
    eta_bar: LinearCpe = field(init=False)
    _eta_bar_dpar: LinearCpe | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        d = law_dim(self.law)
        w_eta = _readonly_vector("w_eta", self.w_eta, d + 1)
        w_eta_bar = _readonly_vector("w_eta_bar", self.w_eta_bar, d + 2)
        object.__setattr__(self, "w_eta", w_eta)
        object.__setattr__(self, "w_eta_bar", w_eta_bar)
        object.__setattr__(self, "eta", _true_model(w_eta, ARITY_FEATURES))
        object.__setattr__(self, "eta_bar", _true_model(w_eta_bar, ARITY_FEATURES_PLUS_LABEL))
        dpar = None
        if w_eta_bar[-2] == 0.0:
            dpar = _true_model(np.delete(w_eta_bar, -2), ARITY_FEATURES)
        object.__setattr__(self, "_eta_bar_dpar", dpar)

    def require_eta_bar_dpar(self) -> LinearCpe:
        """The model of P(ybar = +1 | x); requires the zero-label-weight structure."""
        if self._eta_bar_dpar is None:
            raise ValidationError(
                "this distribution's sensitive attribute depends on the label given "
                "features (nonzero label weight), so P(ybar | x) is a mixture, not "
                "logistic; exact group-marginal and aware rules are unavailable"
            )
        return self._eta_bar_dpar


def _true_model(weights: np.ndarray, arity: str) -> LinearCpe:
    return LinearCpe(weights=weights, lambda_reg=0.0, input_arity=arity)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample(dist: SyntheticDistribution, n: int, seed) -> Dataset:
    """Draw an i.i.d. dataset: x from the law, then y, then ybar.

    ``seed`` is an integer, an integer tuple, or a Generator; integer
    seeds make the draw reproducible bit-for-bit.  Each +-1 label is
    ``(u < p) * 2 - 1``: a boolean times 2 is exactly 0 or 2, and
    subtracting 1 in place gives exactly -1 or +1, the values a masked
    select of the two constants would give, without its branch.
    """

    rng = _as_rng(seed)
    x = sample_x(dist.law, n, rng)
    y = (rng.random(n) < predict_proba(dist.eta, x)) * 2.0
    y -= 1.0
    ybar = (rng.random(n) < predict_proba(dist.eta_bar, x, y)) * 2.0
    ybar -= 1.0
    return Dataset._adopt(x, y, ybar)


def true_stats(dist: SyntheticDistribution) -> DistStats:
    """Class/group priors of a :func:`population` at a 200k-node budget (seed-free).

    For code that has no population of its own; a run reads its priors
    from its population's ``stats``.
    """
    return population(dist, _GAUSS_TOTAL_TARGET).stats


def bayes_classifier(
    dist: SyntheticDistribution,
    setting: str,
    params: FairnessParams,
    true_pi: float,
) -> PlugInRule:
    """The exact optimal rule: true regression weights and the label prior ``true_pi``.

    A run passes its population's prior; only the EO settings read it.
    The aware settings and the parity-blind setting require the
    zero-label-weight structure (see the class docstring); otherwise
    their exact regression functions fall outside the linear-logistic
    family and this raises.
    """

    pi_hat = float(true_pi) if is_eo(setting) else None
    if is_aware(setting):
        dist.require_eta_bar_dpar()
        eta = _true_model(np.insert(dist.w_eta, -1, 0.0), ARITY_FEATURES_PLUS_SENSITIVE)
        return PlugInRule(setting=setting, params=params, eta=eta, pi_hat=pi_hat)
    eta_bar = dist.eta_bar if setting == EO_BLIND else dist.require_eta_bar_dpar()
    return PlugInRule(setting=setting, params=params, eta=dist.eta, eta_bar=eta_bar, pi_hat=pi_hat)


@dataclass(frozen=True, eq=False)
class Population:
    """A distribution on quadrature nodes: the one population measure.

    ``weights[i]`` is node ``i``'s probability weight ``w_i`` and
    ``masses[k, i]`` is ``w_i * P(y, ybar | x_i)`` for the k-th (y, ybar)
    pair of (+1, +1), (-1, +1), (+1, -1), (-1, -1), so rows 0 and 1 hold
    group +1 and rows 0 and 2 label +1; ``totals`` are the row sums.
    ``stats`` are the priors pi, pi_bar and beta integrated on the same
    nodes.  A rule's positives on the nodes, weighted by these masses,
    give its population rates (:func:`population_counts`): for a blind
    rule ``f``, for example, ``TPR = sum(w * f * eta) / pi``.  Build one
    per run with :func:`population` and score every rule on it.
    """

    dist: SyntheticDistribution
    nodes: np.ndarray
    weights: np.ndarray
    masses: np.ndarray
    totals: np.ndarray
    stats: DistStats


def population(dist: SyntheticDistribution, budget: int) -> Population:
    """The distribution's joint masses and priors on :func:`quadrature` nodes of about ``budget``.

    The priors are weighted sums of the regression functions
    (``pi = w @ eta``), not sums of the masses, which round differently.
    A law whose label prior is 0 has no priors (:class:`DistStats`
    rejects it).
    """
    nodes, weights = quadrature(dist.law, budget)
    eta = predict_proba(dist.eta, nodes)
    label_pos = weights * eta
    label_neg = weights * (1.0 - eta)
    plus = predict_proba(dist.eta_bar, nodes, 1.0)
    minus = predict_proba(dist.eta_bar, nodes, -1.0)
    pi = float(weights @ eta)
    joint_pos = float(weights @ (eta * plus))
    pi_bar = joint_pos + float(weights @ ((1.0 - eta) * minus))
    stats = DistStats(pi=pi, pi_bar=pi_bar, beta=joint_pos / pi if pi > 0.0 else 0.0)
    masses = np.stack(
        [label_pos * plus, label_neg * minus, label_pos * (1.0 - plus), label_neg * (1.0 - minus)]
    )
    return Population(dist, nodes, weights, masses, masses.sum(axis=1), stats)


def population_counts(pop: Population, rule: PlugInRule) -> tuple[Counts, Counts, Counts]:
    """The rule's positives as masses: against the label, on the EO and parity comparisons.

    The three records are what :func:`~fairplug.metrics.empirical_rates`,
    :func:`~fairplug.metrics.eo_dbar_rates` and
    :func:`~fairplug.metrics.dpar_dbar_rates` count on a sample, with
    probability masses in place of row counts.  An aware rule's decision
    ``f(x, ybar)`` is weighted by the masses of its own group.
    """
    if is_aware(rule.setting):
        positive = np.concatenate(
            [
                pop.masses[:2].sum(axis=1, where=score(rule, pop.nodes, 1.0) > 0),
                pop.masses[2:].sum(axis=1, where=score(rule, pop.nodes, -1.0) > 0),
            ]
        )
    else:
        positive = pop.masses.sum(axis=1, where=score(rule, pop.nodes) > 0)
    both_pos, neg_pos, pos_neg, both_neg = positive  # (y, ybar) in the masses' row order
    mass_pp, mass_np, mass_pn, mass_nn = pop.totals
    label = Counts(both_pos + pos_neg, neg_pos + both_neg, mass_pp + mass_pn, mass_np + mass_nn)
    eo = Counts(both_pos, pos_neg, mass_pp, mass_pn)
    dpar = Counts(both_pos + neg_pos, pos_neg + both_neg, mass_pp + mass_np, mass_pn + mass_nn)
    return label, eo, dpar


def population_measure(
    pop: Population, rule: PlugInRule, setting: str, params: FairnessParams
) -> float:
    """The rule's population Psi under ``setting``'s criterion, priors from ``pop.stats``."""
    label, eo, dpar = population_counts(pop, rule)
    comparison = eo if is_eo(setting) else dpar
    return float(performance_measure(label, comparison, pop.stats, params, criterion_for(setting)))


def estimate_regret(
    rule: PlugInRule,
    pop: Population,
    setting: str,
    params: FairnessParams,
    *,
    best: float | None = None,
) -> float:
    """Shortfall of the rule's Psi against the exact rule's, both by quadrature on ``pop``.

    ``best`` is the exact rule's :func:`population_measure` on ``pop``;
    a caller that scores many rules computes it once and passes it.
    The exact rule maximizes Psi's integrand node by node, so the regret
    of any rule is nonnegative up to rounding.
    """
    if best is None:
        boc = bayes_classifier(pop.dist, setting, params, true_pi=pop.stats.pi)
        best = population_measure(pop, boc, setting, params)
    return best - population_measure(pop, rule, setting, params)


@dataclass(frozen=True)
class RegretPoint:
    n: int
    mean_regret: float
    std_regret: float
    trials: int


@dataclass(frozen=True)
class RegretCurve:
    """Per-sample-size regret summary; resample retries are recorded."""

    points: tuple[RegretPoint, ...]
    resamples: int = 0


def _default_fit_config(n: int, config: FitConfig | None) -> FitConfig:
    if config is not None:
        return config
    return FitConfig(lambda_reg=0.1 / math.sqrt(n))


def _sample_non_degenerate(
    dist: SyntheticDistribution,
    n: int,
    seed_parts: tuple[int, ...],
    fit: Callable[[Dataset], object],
) -> tuple[object, int]:
    """Run ``fit`` on a fresh draw, redrawing degenerate samples.

    Returns (fit result, number of redraws).  Gives up after
    MAX_RESAMPLES redraws with the last error chained.
    """

    last_error: Exception | None = None
    for attempt in range(MAX_RESAMPLES + 1):
        train = sample(dist, n, seed_parts + (attempt,))
        try:
            return fit(train), attempt
        except DataError as exc:
            last_error = exc
            log.warning("degenerate draw at n=%d (attempt %d): %s", n, attempt, exc)
    raise DataError(
        f"could not draw a non-degenerate training sample of size {n} "
        f"after {MAX_RESAMPLES} retries"
    ) from last_error


def _consistency_trial(
    setting, params, n, seed, config, known_pi, pop, best, trial
) -> tuple[float, int]:
    """One (n, trial) cell: fit on a fresh draw, then its regret on the run's nodes."""
    pi_override = pop.stats.pi if known_pi else None

    def build(train: Dataset) -> PlugInRule:
        return fit_plugin(train, setting, params, config, pi_override=pi_override)

    rule, retries = _sample_non_degenerate(pop.dist, n, (seed, n, trial, 0), build)
    return estimate_regret(rule, pop, setting, params, best=best), retries


def consistency_curve(
    pop: Population,
    setting: str,
    params: FairnessParams,
    n_schedule: Sequence[int],
    trials: int,
    seed: int,
    *,
    config: FitConfig | None = None,
    known_pi: bool = False,
    jobs: int = 1,
) -> RegretCurve:
    """Mean/std regret of freshly fitted rules along a sample-size schedule.

    Each (n, trial) cell trains on its own derived-seed draw of
    ``pop.dist``, so trial values do not depend on how many trials run.
    Every regret is taken by quadrature on the run's population ``pop``
    against the exact rule's Psi, scored once per run, and the priors
    are ``pop.stats``.
    ``known_pi`` switches the EO settings to the known-prior regime;
    the default regularization schedule shrinks as 1/sqrt(n) so the
    estimators stay consistent.
    """

    sizes = [int(n) for n in n_schedule]
    if not sizes or any(n <= 0 for n in sizes):
        raise ValidationError("n_schedule must contain positive sizes")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValidationError("n_schedule sizes must be strictly increasing")
    trials = int(trials)
    if trials <= 0:
        raise ValidationError("trials must be positive")
    boc = bayes_classifier(pop.dist, setting, params, true_pi=pop.stats.pi)
    best = population_measure(pop, boc, setting, params)
    points: list[RegretPoint] = []
    resamples = 0
    for n in sizes:
        run = partial(
            _consistency_trial, setting, params, n, int(seed),
            _default_fit_config(n, config), known_pi, pop, best,
        )
        results = list(map_tasks(run, range(trials), jobs))
        regrets = np.array([r for r, _ in results])
        resamples += sum(retry for _, retry in results)
        points.append(
            RegretPoint(
                n=n,
                mean_regret=float(regrets.mean()),
                std_regret=float(regrets.std(ddof=0)),
                trials=trials,
            )
        )
    return RegretCurve(points=tuple(points), resamples=resamples)


def frontier(pop: Population, lam: float, params: FairnessParams) -> float:
    """Population cost paid for fairness at strength lam (EO-blind rule).

    The cost-sensitive risk of the exact fairness-adjusted rule minus
    that of the unconstrained cost-sensitive optimum (the same rule at
    lam = 0, which predicts ``eta(x) > c``), that is
    E[(c - eta(x)) (f_lam(x) - 1{eta(x) > c})], by quadrature on the
    run's population ``pop``, with its prior ``pop.stats.pi``.  Exactly
    zero at lam = 0; nonnegative in population.
    """

    lam_params = FairnessParams(lam=float(lam), c=params.c, c_bar=params.c_bar)
    boc = bayes_classifier(pop.dist, EO_BLIND, lam_params, true_pi=pop.stats.pi)
    return _cost_difference(pop, boc)


def _cost_difference(pop: Population, rule: PlugInRule) -> float:
    """Label cost of ``rule`` minus that of its lam = 0 re-assembly, on ``pop``."""
    c = rule.params.c
    zero = with_params(rule, FairnessParams(lam=0.0, c=c, c_bar=rule.params.c_bar))
    cost, cost_zero = (
        cost_sensitive_risk(population_counts(pop, r)[0], pop.stats.pi, c) for r in (rule, zero)
    )
    return float(cost - cost_zero)


@dataclass(frozen=True)
class TradeoffResult:
    """Fitted-rule cost gap beside the population frontier at the same lam."""

    gap: float
    frontier: float
    gap_std: float
    n: int
    trials: int

    @property
    def excess(self) -> float:
        """Finite-sample part of the gap (gap minus frontier)."""
        return self.gap - self.frontier


def _tradeoff_trial(lam, params, n, seed, config, pop, trial) -> tuple[float, int]:
    """One trial: |cost of the lam rule - cost of its lam = 0 re-assembly|."""
    lam_params = FairnessParams(lam=lam, c=params.c, c_bar=params.c_bar)

    def build(train: Dataset) -> PlugInRule:
        return fit_plugin(train, EO_BLIND, lam_params, config)

    rule_lam, retries = _sample_non_degenerate(pop.dist, n, (seed, n, trial, 0), build)
    return abs(_cost_difference(pop, rule_lam)), retries


def tradeoff_gap(
    pop: Population,
    lam: float,
    params: FairnessParams,
    n: int,
    trials: int,
    seed: int,
    *,
    config: FitConfig | None = None,
    jobs: int = 1,
) -> TradeoffResult:
    """Average |cost(fitted at lam) - cost(fitted at 0)| beside the frontier.

    The lam = 0 rule reuses the lam rule's estimators (parameter
    re-assembly), so each trial fits once.  Costs and the frontier are
    population costs by quadrature on the run's population ``pop``, with
    its prior ``pop.stats.pi``.  The gap minus the frontier is the
    finite-sample excess that should shrink with n.
    """

    n = int(n)
    trials = int(trials)
    if n <= 0 or trials <= 0:
        raise ValidationError("n and trials must be positive")
    run = partial(
        _tradeoff_trial, float(lam), params, n, int(seed), _default_fit_config(n, config), pop
    )
    results = list(map_tasks(run, range(trials), jobs))
    gaps = np.array([g for g, _ in results])
    return TradeoffResult(
        gap=float(gaps.mean()),
        frontier=frontier(pop, lam, params),
        gap_std=float(gaps.std(ddof=0)),
        n=n,
        trials=trials,
    )


@dataclass(frozen=True)
class SampleComplexityResult:
    """Outcome of the smallest-sufficient-n search for estimator accuracy."""

    n: int
    converged: bool
    probes: tuple[tuple[int, float], ...]
    eps: float
    delta_prime: float
    delta: float
    trials: int


#: Each sample-complexity target's estimator, as (target column, input arity).
_COMPLEXITY_ESTIMATORS = {
    "eta": ("labels", ESTIMATORS[EO_BLIND][0]),
    "eta_bar_eo": ("sensitive", ESTIMATORS[EO_BLIND][1]),
    "eta_bar_dpar": ("sensitive", ESTIMATORS[DPAR_BLIND][1]),
}
COMPLEXITY_TARGETS = tuple(_COMPLEXITY_ESTIMATORS)


def _accuracy_checks(pop: Population, which: str) -> tuple[tuple, ...]:
    """``(columns, truth, weights)`` per input ``which`` is scored on, built once per run.

    ``eta_bar_eo`` takes (x, y), at the label column y = +1 and -1 under
    the label masses; the others take the nodes alone (no column) under
    their weights.  ``truth`` is the true model at those inputs.
    """
    dist, nodes, masses = pop.dist, pop.nodes, pop.masses
    if which == "eta_bar_eo":
        return (
            ((1.0,), predict_proba(dist.eta_bar, nodes, 1.0), masses[0] + masses[2]),
            ((-1.0,), predict_proba(dist.eta_bar, nodes, -1.0), masses[1] + masses[3]),
        )
    truth = dist.eta if which == "eta" else dist.require_eta_bar_dpar()
    return (((), predict_proba(truth, nodes), pop.weights),)


def _complexity_trial(pop, which, n, seed, eps, config, checks, trial) -> float:
    """One (n, trial) cell: fit on a fresh draw; its P(|true - fitted| >= eps) on ``pop``."""
    target, arity = _COMPLEXITY_ESTIMATORS[which]
    fit = partial(fit_estimator, target=target, arity=arity, config=config)
    model, _ = _sample_non_degenerate(pop.dist, n, (seed, n, trial, 0), fit)
    tail = 0.0
    for columns, truth, weights in checks:
        deviation = predict_proba(model, pop.nodes, *columns)
        deviation -= truth
        tail += float(weights @ (np.abs(deviation, out=deviation) >= eps))
    return tail


def estimate_sample_complexity(
    pop: Population,
    target: tuple[float, float],
    delta: float,
    trials: int,
    seed: int,
    *,
    which: str = "eta",
    start: int = 32,
    cap: int = 65536,
    config: FitConfig | None = None,
    jobs: int = 1,
) -> SampleComplexityResult:
    """Smallest probed n making the estimator (eps, delta_prime)-accurate.

    Success at n means: in at least a 1 - delta fraction of trials, the
    fit's P(|true - fitted| >= eps) on the run's population ``pop`` is at
    most delta_prime.  The search doubles from ``start`` until success,
    then bisects down to ``start`` granularity; hitting ``cap`` without
    success returns the cap with ``converged=False``.  The bisection
    brackets from the last size that failed, also where ``cap`` clipped
    the doubling.  ``which``
    selects the regression function under study.  Each probe's trials
    run through :func:`fairplug._pool.map_tasks` on their own seeds, so
    the result does not depend on ``jobs``.
    """

    eps, delta_prime = (float(target[0]), float(target[1]))
    if not (0.0 < eps < 1.0) or not (0.0 < delta_prime < 1.0):
        raise ValidationError("target (eps, delta_prime) components must lie in (0, 1)")
    delta = float(delta)
    if not (0.0 < delta < 1.0):
        raise ValidationError("delta must lie in (0, 1)")
    if which not in COMPLEXITY_TARGETS:
        raise ValidationError(f"which must be one of {COMPLEXITY_TARGETS}, got {which!r}")
    trials = int(trials)
    start, cap = (int(start), int(cap))
    if trials <= 0 or start <= 1 or cap < start:
        raise ValidationError("trials must be positive and 1 < start <= cap")

    checks = _accuracy_checks(pop, which)  # eta_bar_dpar: raises unless P(ybar | x) is logistic
    required = 1.0 - delta - 1e-12
    probes: list[tuple[int, float]] = []

    def passes(n: int) -> bool:
        run = partial(
            _complexity_trial, pop, which, n, int(seed), eps, _default_fit_config(n, config), checks
        )
        fraction = sum(tail <= delta_prime for tail in map_tasks(run, range(trials), jobs)) / trials
        probes.append((n, fraction))
        return fraction >= required

    n, low = start, 0  # low: the last size that failed, or 0 before any did
    converged = passes(n)
    while not converged and n < cap:
        low, n = n, min(2 * n, cap)
        converged = passes(n)
    high = n
    while converged and high - low > start and low >= start:
        mid = (high + low) // 2
        if passes(mid):
            high = mid
        else:
            low = mid
    return SampleComplexityResult(
        n=high,
        converged=converged,
        probes=tuple(probes),
        eps=eps,
        delta_prime=delta_prime,
        delta=delta,
        trials=trials,
    )


def reference_eo() -> SyntheticDistribution:
    """Shipped reference distribution for the equal-opportunity studies.

    Two uniform features on [-1, 1]^2; the sensitive attribute depends
    on the label given features, so only the EO constructions apply
    exactly.
    """

    return SyntheticDistribution(
        law=UniformBoxLaw(lows=np.array([-1.0, -1.0]), highs=np.array([1.0, 1.0])),
        w_eta=np.array([2.0, -1.5, 0.3]),
        w_eta_bar=np.array([1.2, 0.8, 0.7, -0.4]),
    )


def reference_dpar() -> SyntheticDistribution:
    """Shipped reference distribution for the parity and aware studies.

    Same feature law and label regression as :func:`reference_eo`, but
    the sensitive attribute is conditionally independent of the label,
    so every exact construction (both aware rules, the group marginal)
    is available.
    """

    return SyntheticDistribution(
        law=UniformBoxLaw(lows=np.array([-1.0, -1.0]), highs=np.array([1.0, 1.0])),
        w_eta=np.array([2.0, -1.5, 0.3]),
        w_eta_bar=np.array([-1.0, 1.4, 0.0, 0.2]),
    )


#: law tag -> (law class, the fields a distribution file holds for it)
_VECTOR_LAWS = {
    LAW_UNIFORM: (UniformBoxLaw, ("lows", "highs")),
    LAW_GAUSSIAN: (TruncatedGaussianLaw, ("mean", "std", "lows", "highs")),
}


def load_distribution(path: str | Path, digest=None) -> SyntheticDistribution:
    """The distribution a ``simulate --dist`` file describes.

    The file is a key = value record: ``law`` is the law's tag
    (``uniform-box``, ``truncated-gaussian`` or ``discrete``), then its
    fields as space-separated float vectors -- ``lows`` and ``highs``;
    ``mean``, ``std``, ``lows`` and ``highs``; or ``point.0``,
    ``point.1``, ... and ``masses`` -- and last ``w_eta`` and
    ``w_eta_bar``.

    Every key is read or rejected: a key the law's layout does not name
    (a stray one, such as the derivable ``w_eta_bar_dpar``, or a
    ``point.N`` after a gap in the numbering) is a :class:`DataError`
    naming the key and the file.  So is a value that does not parse as a
    finite float vector of the right length (``path: key: ...``) or
    that the law's constructor rejects (``path: law: ...``).  ``digest``
    is :func:`~fairplug.kvformat.read_kv`'s: it is fed the bytes parsed.
    """
    record = read_kv(path, digest)

    def take(key: str) -> str:
        try:
            return record.pop(key)
        except KeyError:
            raise DataError(f"{path}: missing distribution field {key!r}") from None

    def checked(key: str, build: Callable):
        try:
            return build()
        except (DataError, ValidationError) as exc:
            raise DataError(f"{path}: {key}: {exc}") from None

    def vector(key: str, length: int | None = None) -> np.ndarray:
        text = take(key)
        return checked(key, lambda: _readonly_vector(key, parse_float_vector(text), length))

    law_tag = take("law")
    if law_tag == LAW_DISCRETE:
        rows = []
        while f"point.{len(rows)}" in record:
            rows.append(vector(f"point.{len(rows)}", len(rows[0]) if rows else None))
        if not rows:
            raise DataError(f"{path}: discrete law has no point.N rows")
        law_type, fields = DiscreteLaw, {"points": np.array(rows), "masses": vector("masses")}
    elif law_tag in _VECTOR_LAWS:
        law_type, names = _VECTOR_LAWS[law_tag]
        fields = {name: vector(name) for name in names}
    else:
        raise DataError(f"{path}: unknown law tag {law_tag!r}")
    law = checked("law", lambda: law_type(**fields))
    d = law_dim(law)
    w_eta, w_eta_bar = vector("w_eta", d + 1), vector("w_eta_bar", d + 2)
    if record:
        raise DataError(f"{path}: unknown distribution key {next(iter(record))!r}")
    return SyntheticDistribution(law=law, w_eta=w_eta, w_eta_bar=w_eta_bar)
