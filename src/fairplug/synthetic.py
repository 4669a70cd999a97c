"""Synthetic distributions with analytically known regression functions.

A :class:`SyntheticDistribution` pairs a compact feature law with
logistic-link regression functions whose weights are known exactly, so
the optimal decision rules can be constructed outright rather than
estimated.  That turns the package's statistical claims into testable
ones: fitted rules can be scored against the exact optimum (regret),
consistency can be watched along a sample-size schedule, and the
fairness/accuracy frontier and its finite-sample gap can be measured.

The label model: x ~ feature law; y = +1 with probability eta(x);
ybar = +1 with probability eta_bar(x, y).  All population quantities
(class and group priors, a rule's regret, the frontier and the
trade-off gap's costs, the margin mass) come from deterministic
tensor-grid quadrature over the feature law, never Monte Carlo, so
exact-rule construction and evaluation are seed-free; only the training
samples are drawn.

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

import csv
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
    fit_eta,
    fit_eta_bar_dpar,
    fit_eta_bar_eo,
    predict_proba,
    sigmoid,
)
from .errors import DataError, ValidationError
from .kvformat import (
    format_float,
    format_float_vector,
    parse_float_vector,
    read_kv,
    write_kv,
)
from .metrics import Counts, cost_sensitive_risk, performance_measure
from .plugin import (
    EO_BLIND,
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
    "save_distribution",
    "load_distribution",
    "write_curve_csv",
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
        return out[:n]
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


def quadrature(law: FeatureLaw, total: int = _GAUSS_TOTAL_TARGET) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic nodes and probability weights integrating the law.

    Exact for a discrete law; for the continuous laws a tensor
    Gauss-Legendre grid (weighted by the density and renormalized on
    the grid) whose per-dimension size is set by a budget of roughly
    ``total`` nodes, at least 16 and at most 256 per dimension.  The
    default of 200k is what :func:`true_stats` integrates with (256 per
    axis in 2-D); a budget of 50,000 gives 224 per axis in 2-D, and any
    budget up to 16**5 gives 16 per axis in 5-D.
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
    """Feature law plus exact logistic regression-function weights.

    ``w_eta`` has layout [feature weights..., intercept] and defines
    P(y = +1 | x); ``w_eta_bar`` has layout [feature weights..., label
    weight, intercept] and defines P(ybar = +1 | x, y).  The
    group-marginal weights ``w_eta_bar_dpar`` are derived, never free:
    they exist exactly when the label weight is zero.
    """

    law: FeatureLaw
    w_eta: np.ndarray
    w_eta_bar: np.ndarray
    w_eta_bar_dpar: np.ndarray | None = field(init=False)

    def __post_init__(self) -> None:
        d = law_dim(self.law)
        w_eta = _readonly_vector("w_eta", self.w_eta, d + 1)
        w_eta_bar = _readonly_vector("w_eta_bar", self.w_eta_bar, d + 2)
        object.__setattr__(self, "w_eta", w_eta)
        object.__setattr__(self, "w_eta_bar", w_eta_bar)
        derived = np.delete(w_eta_bar, -2) if w_eta_bar[-2] == 0.0 else None
        if derived is not None:
            derived.setflags(write=False)
        object.__setattr__(self, "w_eta_bar_dpar", derived)

    @property
    def dim(self) -> int:
        return law_dim(self.law)

    @property
    def label_weight(self) -> float:
        return float(self.w_eta_bar[-2])

    @property
    def supports_dpar(self) -> bool:
        """True when ybar is conditionally independent of y given x."""
        return self.label_weight == 0.0

    def eta(self, x) -> np.ndarray:
        """P(y = +1 | x) at feature rows (or one vector)."""
        rows = np.atleast_2d(np.asarray(x, dtype=float))
        logits = rows @ self.w_eta[:-1]
        logits += self.w_eta[-1]
        values = sigmoid(logits)
        return values if np.ndim(x) == 2 else float(values[0])

    def eta_bar_eo(self, x, y) -> np.ndarray:
        """P(ybar = +1 | x, y) with y a +-1 scalar or per-row vector."""
        rows = np.atleast_2d(np.asarray(x, dtype=float))
        y_arr = np.broadcast_to(np.asarray(y, dtype=float), (rows.shape[0],))
        logits = rows @ self.w_eta_bar[:-2]
        logits += y_arr * self.w_eta_bar[-2]
        logits += self.w_eta_bar[-1]
        values = sigmoid(logits)
        return values if np.ndim(x) == 2 else float(values[0])

    def eta_bar_dpar(self, x) -> np.ndarray:
        """P(ybar = +1 | x); requires the zero-label-weight structure."""
        weights = self._require_dpar_weights()
        rows = np.atleast_2d(np.asarray(x, dtype=float))
        logits = rows @ weights[:-1]
        logits += weights[-1]
        values = sigmoid(logits)
        return values if np.ndim(x) == 2 else float(values[0])

    def _require_dpar_weights(self) -> np.ndarray:
        if self.w_eta_bar_dpar is None:
            raise ValidationError(
                "this distribution's sensitive attribute depends on the label given "
                "features (nonzero label weight), so P(ybar | x) is a mixture, not "
                "logistic; exact group-marginal and aware rules are unavailable"
            )
        return self.w_eta_bar_dpar


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
    y = (rng.random(n) < dist.eta(x)) * 2.0
    y -= 1.0
    ybar = (rng.random(n) < dist.eta_bar_eo(x, y)) * 2.0
    ybar -= 1.0
    return Dataset(features=x, labels=y, sensitive=ybar)


def true_stats(dist: SyntheticDistribution) -> DistStats:
    """Exact class/group priors by quadrature (seed-free)."""
    nodes, weights = quadrature(dist.law)
    eta = np.asarray(dist.eta(nodes))
    bar_plus = np.asarray(dist.eta_bar_eo(nodes, 1.0))
    bar_minus = np.asarray(dist.eta_bar_eo(nodes, -1.0))
    pi = float(weights @ eta)
    joint_pos = float(weights @ (eta * bar_plus))
    pi_bar = joint_pos + float(weights @ ((1.0 - eta) * bar_minus))
    return DistStats(pi=pi, pi_bar=pi_bar, beta=joint_pos / pi)


def _true_eta_cpe(dist: SyntheticDistribution) -> LinearCpe:
    return LinearCpe(weights=np.array(dist.w_eta), lambda_reg=0.0, input_arity=ARITY_FEATURES)


def bayes_classifier(
    dist: SyntheticDistribution,
    setting: str,
    params: FairnessParams,
    true_pi: float | None = None,
) -> PlugInRule:
    """The exact optimal rule: true regression weights, quadrature prior.

    The aware settings and the parity-blind setting require the
    zero-label-weight structure (see the class docstring); otherwise
    their exact regression functions fall outside the linear-logistic
    family and this raises.
    """

    pi_hat = None
    if is_eo(setting):
        pi_hat = float(true_pi) if true_pi is not None else true_stats(dist).pi
    if is_aware(setting):
        dist._require_dpar_weights()
        aware_weights = np.insert(dist.w_eta, -1, 0.0)
        eta = LinearCpe(
            weights=aware_weights, lambda_reg=0.0, input_arity=ARITY_FEATURES_PLUS_SENSITIVE
        )
        return PlugInRule(setting=setting, params=params, eta=eta, pi_hat=pi_hat)
    if setting == EO_BLIND:
        eta_bar = LinearCpe(
            weights=np.array(dist.w_eta_bar),
            lambda_reg=0.0,
            input_arity=ARITY_FEATURES_PLUS_LABEL,
        )
    else:
        eta_bar = LinearCpe(
            weights=np.array(dist._require_dpar_weights()),
            lambda_reg=0.0,
            input_arity=ARITY_FEATURES,
        )
    return PlugInRule(
        setting=setting, params=params, eta=_true_eta_cpe(dist), eta_bar=eta_bar, pi_hat=pi_hat
    )


@dataclass(frozen=True, eq=False)
class Population:
    """A distribution on quadrature nodes: the one population measure.

    ``masses[k, i]`` is ``w_i * P(y, ybar | x_i)`` for the k-th (y, ybar)
    pair of (+1, +1), (-1, +1), (+1, -1), (-1, -1), so rows 0 and 1 hold
    group +1 and rows 0 and 2 label +1; ``totals`` are the row sums, the
    four joint probabilities.
    A rule's positives on the nodes, weighted by these masses, give its
    population rates (:func:`population_counts`): for a blind rule ``f``,
    for example, ``TPR = sum(w * f * eta) / pi``.  Build one per run with
    :func:`population` and score every rule on it.
    """

    dist: SyntheticDistribution
    nodes: np.ndarray
    masses: np.ndarray
    totals: np.ndarray


def population(dist: SyntheticDistribution, budget: int) -> Population:
    """The distribution's joint masses on :func:`quadrature` nodes of about ``budget``."""
    nodes, weights = quadrature(dist.law, budget)
    eta = np.asarray(dist.eta(nodes))
    label_pos = weights * eta
    label_neg = weights * (1.0 - eta)
    plus = np.asarray(dist.eta_bar_eo(nodes, 1.0))
    minus = np.asarray(dist.eta_bar_eo(nodes, -1.0))
    masses = np.stack(
        [label_pos * plus, label_neg * minus, label_pos * (1.0 - plus), label_neg * (1.0 - minus)]
    )
    return Population(dist=dist, nodes=nodes, masses=masses, totals=masses.sum(axis=1))


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
    pop: Population,
    rule: PlugInRule,
    setting: str,
    params: FairnessParams,
    stats: DistStats,
) -> float:
    """The rule's population Psi under ``setting``'s criterion, priors from ``stats``."""
    label, eo, dpar = population_counts(pop, rule)
    comparison = eo if is_eo(setting) else dpar
    return float(performance_measure(label, comparison, stats, params, criterion_for(setting)))


def estimate_regret(
    rule: PlugInRule,
    pop: Population,
    setting: str,
    params: FairnessParams,
    *,
    stats: DistStats | None = None,
    best: float | None = None,
) -> float:
    """Shortfall of the rule's Psi against the exact rule's, both by quadrature on ``pop``.

    ``best`` is the exact rule's :func:`population_measure` on ``pop``;
    a caller that scores many rules computes it once and passes it.
    The exact rule maximizes Psi's integrand node by node, so the regret
    of any rule is nonnegative up to rounding.
    """
    if stats is None:
        stats = true_stats(pop.dist)
    if best is None:
        boc = bayes_classifier(pop.dist, setting, params, true_pi=stats.pi)
        best = population_measure(pop, boc, setting, params, stats)
    return best - population_measure(pop, rule, setting, params, stats)


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

    def __post_init__(self) -> None:
        sizes = [p.n for p in self.points]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValidationError("sample sizes must be strictly increasing")


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
    dist, setting, params, n, seed, config, known_pi, pop, stats, best, trial
) -> tuple[float, int]:
    """One (n, trial) cell: fit on a fresh draw, then its regret on the run's nodes."""
    pi_override = stats.pi if known_pi else None

    def build(train: Dataset) -> PlugInRule:
        return fit_plugin(train, setting, params, config, pi_override=pi_override)

    rule, retries = _sample_non_degenerate(dist, n, (seed, n, trial, 0), build)
    regret = estimate_regret(rule, pop, setting, params, stats=stats, best=best)
    return regret, retries


def consistency_curve(
    dist: SyntheticDistribution,
    setting: str,
    params: FairnessParams,
    n_schedule: Sequence[int],
    trials: int,
    m_eval: int,
    seed: int,
    *,
    config: FitConfig | None = None,
    known_pi: bool = False,
    jobs: int = 1,
) -> RegretCurve:
    """Mean/std regret of freshly fitted rules along a sample-size schedule.

    Each (n, trial) cell trains on its own derived-seed draw, so trial
    values do not depend on how many trials run.  Every regret is taken
    by quadrature on one :func:`population` of about ``m_eval`` nodes,
    built once per run, against the exact rule's Psi, scored once per
    run.
    ``known_pi`` switches the EO settings to the known-prior regime;
    the default regularization schedule shrinks as 1/sqrt(n) so the
    estimators stay consistent.
    """

    sizes = [int(n) for n in n_schedule]
    if not sizes or any(n <= 0 for n in sizes):
        raise ValidationError("n_schedule must contain positive sizes")
    trials = int(trials)
    if trials <= 0:
        raise ValidationError("trials must be positive")
    stats = true_stats(dist)
    pop = population(dist, m_eval)
    boc = bayes_classifier(dist, setting, params, true_pi=stats.pi)
    best = population_measure(pop, boc, setting, params, stats)
    points: list[RegretPoint] = []
    resamples = 0
    for n in sizes:
        run = partial(
            _consistency_trial, dist, setting, params, n, int(seed),
            _default_fit_config(n, config), known_pi, pop, stats, best,
        )
        results = map_tasks(run, range(trials), jobs)
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


def frontier(
    dist: SyntheticDistribution,
    lam: float,
    params: FairnessParams,
    m_eval: int,
    *,
    stats: DistStats | None = None,
) -> float:
    """Population cost paid for fairness at strength lam (EO-blind rule).

    The cost-sensitive risk of the exact fairness-adjusted rule minus
    that of the unconstrained cost-sensitive optimum (the same rule at
    lam = 0, which predicts ``eta(x) > c``), that is
    E[(c - eta(x)) (f_lam(x) - 1{eta(x) > c})], by quadrature on about
    ``m_eval`` nodes.  Exactly zero at lam = 0; nonnegative in population.
    """

    if stats is None:
        stats = true_stats(dist)
    return _frontier(population(dist, m_eval), lam, params, stats)


def _frontier(pop: Population, lam: float, params: FairnessParams, stats: DistStats) -> float:
    lam_params = FairnessParams(lam=float(lam), c=params.c, c_bar=params.c_bar)
    boc = bayes_classifier(pop.dist, EO_BLIND, lam_params, true_pi=stats.pi)
    return _cost_difference(pop, boc, stats.pi, params.c)


def _cost_difference(pop: Population, rule: PlugInRule, pi: float, c: float) -> float:
    """Label cost of ``rule`` minus that of its lam = 0 re-assembly, on ``pop``."""
    zero = with_params(rule, FairnessParams(lam=0.0, c=rule.params.c, c_bar=rule.params.c_bar))
    cost, cost_zero = (
        cost_sensitive_risk(population_counts(pop, r)[0], pi, c) for r in (rule, zero)
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


def _tradeoff_trial(dist, lam, params, n, seed, config, pop, stats, trial) -> tuple[float, int]:
    """One trial: |cost of the lam rule - cost of its lam = 0 re-assembly|."""
    lam_params = FairnessParams(lam=lam, c=params.c, c_bar=params.c_bar)

    def build(train: Dataset) -> PlugInRule:
        return fit_plugin(train, EO_BLIND, lam_params, config)

    rule_lam, retries = _sample_non_degenerate(dist, n, (seed, n, trial, 0), build)
    return abs(_cost_difference(pop, rule_lam, stats.pi, params.c)), retries


def tradeoff_gap(
    dist: SyntheticDistribution,
    lam: float,
    params: FairnessParams,
    n: int,
    trials: int,
    m_eval: int,
    seed: int,
    *,
    config: FitConfig | None = None,
    jobs: int = 1,
) -> TradeoffResult:
    """Average |cost(fitted at lam) - cost(fitted at 0)| beside the frontier.

    The lam = 0 rule reuses the lam rule's estimators (parameter
    re-assembly), so each trial fits once.  Costs and the frontier are
    population costs by quadrature on one :func:`population` of about
    ``m_eval`` nodes, built once per run.  The gap minus the frontier is
    the finite-sample excess that should shrink with n.
    """

    n = int(n)
    trials = int(trials)
    if n <= 0 or trials <= 0:
        raise ValidationError("n and trials must be positive")
    stats = true_stats(dist)
    pop = population(dist, m_eval)
    run = partial(
        _tradeoff_trial, dist, float(lam), params, n, int(seed),
        _default_fit_config(n, config), pop, stats,
    )
    results = map_tasks(run, range(trials), jobs)
    gaps = np.array([g for g, _ in results])
    return TradeoffResult(
        gap=float(gaps.mean()),
        frontier=_frontier(pop, lam, params, stats),
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


COMPLEXITY_TARGETS = ("eta", "eta_bar_eo", "eta_bar_dpar")
_COMPLEXITY_FITTERS = dict(zip(COMPLEXITY_TARGETS, (fit_eta, fit_eta_bar_eo, fit_eta_bar_dpar)))


def _complexity_trial(dist, which, n, m_check, seed, eps, delta_prime, config, trial) -> bool:
    """One (n, trial) cell: fit on a fresh draw; True when it is accurate enough."""
    fitter = _COMPLEXITY_FITTERS[which]
    model, _ = _sample_non_degenerate(
        dist, n, (seed, n, trial, 0), lambda train: fitter(train, config)
    )
    rng = np.random.default_rng((seed, n, trial, 7))
    if which == "eta_bar_eo":
        check = sample(dist, m_check, rng)
        inputs = np.hstack([check.features, check.labels[:, None]])
        truth = np.asarray(dist.eta_bar_eo(check.features, check.labels))
    else:
        inputs = sample_x(dist.law, m_check, rng)
        truth = np.asarray(dist.eta(inputs) if which == "eta" else dist.eta_bar_dpar(inputs))
    deviations = np.abs(truth - np.asarray(predict_proba(model, inputs)))
    return float(np.mean(deviations >= eps)) <= delta_prime


def estimate_sample_complexity(
    dist: SyntheticDistribution,
    target: tuple[float, float],
    delta: float,
    trials: int,
    seed: int,
    *,
    which: str = "eta",
    start: int = 32,
    cap: int = 65536,
    m_check: int = 4000,
    config: FitConfig | None = None,
    jobs: int = 1,
) -> SampleComplexityResult:
    """Smallest probed n making the estimator (eps, delta_prime)-accurate.

    Success at n means: in at least a 1 - delta fraction of trials, the
    Monte-Carlo estimate of P(|true - fitted| >= eps) is at most
    delta_prime.  The search doubles from ``start`` until success, then
    bisects down to ``start`` granularity; hitting ``cap`` without
    success returns the cap with ``converged=False``.  ``which``
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
    if which == "eta_bar_dpar":
        dist._require_dpar_weights()
    trials = int(trials)
    start, cap = (int(start), int(cap))
    if trials <= 0 or start <= 1 or cap < start:
        raise ValidationError("trials must be positive and 1 < start <= cap")

    required = 1.0 - delta - 1e-12
    probes: list[tuple[int, float]] = []

    def passes(n: int) -> bool:
        run = partial(
            _complexity_trial, dist, which, n, int(m_check), int(seed), eps, delta_prime,
            _default_fit_config(n, config),
        )
        fraction = sum(map_tasks(run, range(trials), jobs)) / trials
        probes.append((n, fraction))
        return fraction >= required

    n = start
    converged = passes(n)
    while not converged and n < cap:
        n = min(2 * n, cap)
        converged = passes(n)
    high, low = n, n // 2
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


def save_distribution(dist: SyntheticDistribution, path: str | Path) -> None:
    """Persist the distribution as a flat text record.

    No command writes one; this is the writer of the file format that
    ``simulate --dist`` reads through :func:`load_distribution`, kept
    public so a distribution file can be made from code and so the
    round-trip tests can pin the format.
    """
    items: list[tuple[str, str]] = []
    if isinstance(dist.law, UniformBoxLaw):
        items.append(("law", LAW_UNIFORM))
        items.append(("lows", format_float_vector(dist.law.lows)))
        items.append(("highs", format_float_vector(dist.law.highs)))
    elif isinstance(dist.law, TruncatedGaussianLaw):
        items.append(("law", LAW_GAUSSIAN))
        items.append(("mean", format_float_vector(dist.law.mean)))
        items.append(("std", format_float_vector(dist.law.std)))
        items.append(("lows", format_float_vector(dist.law.lows)))
        items.append(("highs", format_float_vector(dist.law.highs)))
    else:
        items.append(("law", LAW_DISCRETE))
        for index, row in enumerate(dist.law.points):
            items.append((f"point.{index}", format_float_vector(row)))
        items.append(("masses", format_float_vector(dist.law.masses)))
    items.append(("w_eta", format_float_vector(dist.w_eta)))
    items.append(("w_eta_bar", format_float_vector(dist.w_eta_bar)))
    write_kv(path, items)


def load_distribution(path: str | Path) -> SyntheticDistribution:
    """Inverse of :func:`save_distribution`."""
    record = read_kv(path)
    try:
        law_tag = record["law"]
        if law_tag == LAW_UNIFORM:
            law: FeatureLaw = UniformBoxLaw(
                lows=np.array(parse_float_vector(record["lows"])),
                highs=np.array(parse_float_vector(record["highs"])),
            )
        elif law_tag == LAW_GAUSSIAN:
            law = TruncatedGaussianLaw(
                mean=np.array(parse_float_vector(record["mean"])),
                std=np.array(parse_float_vector(record["std"])),
                lows=np.array(parse_float_vector(record["lows"])),
                highs=np.array(parse_float_vector(record["highs"])),
            )
        elif law_tag == LAW_DISCRETE:
            rows = []
            index = 0
            while f"point.{index}" in record:
                rows.append(parse_float_vector(record[f"point.{index}"]))
                index += 1
            if not rows:
                raise DataError(f"{path}: discrete law has no point.N rows")
            law = DiscreteLaw(
                points=np.array(rows), masses=np.array(parse_float_vector(record["masses"]))
            )
        else:
            raise DataError(f"{path}: unknown law tag {law_tag!r}")
        return SyntheticDistribution(
            law=law,
            w_eta=np.array(parse_float_vector(record["w_eta"])),
            w_eta_bar=np.array(parse_float_vector(record["w_eta_bar"])),
        )
    except KeyError as exc:
        raise DataError(f"{path}: missing distribution field {exc}") from exc


def write_curve_csv(curve: RegretCurve, path: str | Path) -> None:
    """Write the curve as CSV with header n, mean, std, trials."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "mean", "std", "trials"])
        for point in curve.points:
            writer.writerow(
                [
                    point.n,
                    format_float(point.mean_regret),
                    format_float(point.std_regret),
                    point.trials,
                ]
            )
