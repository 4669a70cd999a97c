"""Decision-boundary geometry in regression-function coordinates.

The blind rules threshold a score that is bilinear (equal opportunity)
or affine (demographic parity) in the pair ``(u, v)``, where ``u`` is
the sensitive-attribute regression value and ``v`` the label regression
value.  The zero set of that score is a hyperbola or a line; the aware
rules reduce to a pair of scalar thresholds, one per group.

This module provides those boundary objects, margin-set membership (is
a point's ``2*eps`` square close enough to the boundary to be flipped
by estimation error of size ``eps``), Monte-Carlo margin mass, and the
derived bound constants used by the finite-sample analysis.

Margin membership for the square geometries is a corner sign test: a
bilinear (or affine) function attains its extrema over an axis-aligned
rectangle at the rectangle's corners, so the square meets the zero set
exactly when the corner values do not all share a strict sign.  The
square is treated as closed -- touching counts as intersecting.

True margin mass needs the true regression functions, so it is only
available through a synthetic sampler; on fitted models the plug-in
proxy sampler substitutes estimates and the result is labeled a proxy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .core import DistStats, FairnessParams, _check_prob
from .errors import ValidationError
from .plugin import (
    DPAR_AWARE,
    DPAR_BLIND,
    EO_AWARE,
    EO_BLIND,
    PlugInRule,
    coordinates,
    is_aware,
)

__all__ = [
    "Hyperbola",
    "BoundaryLine",
    "ThresholdPair",
    "BoundConstants",
    "boundary_score",
    "asymptote_x",
    "square_intersects_hyperbola",
    "square_intersects_line",
    "in_threshold_margin",
    "margin_membership",
    "estimate_margin_mass",
    "bound_constants",
    "eo_aware_thresholds",
    "dpar_aware_thresholds",
    "geometry_for",
    "plugin_proxy_sampler",
    "write_raster_csv",
]

#: Sampler contract: ``sampler(rng, count)`` returns the per-point
#: coordinate arrays a geometry consumes -- ``(u, v)`` for Hyperbola and
#: BoundaryLine, ``(v_minus, v_plus)`` for ThresholdPair.
Sampler = Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class Hyperbola:
    """Zero set of (1 + lam*c_bar/pi) v - (lam/pi) u v - c in the (u, v) plane."""

    lam: float
    pi: float
    c: float
    c_bar: float

    def __post_init__(self) -> None:
        lam = float(self.lam)
        if not np.isfinite(lam):
            raise ValidationError(f"lam must be finite, got {lam}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "pi", _check_prob("pi", self.pi, allow_one=True))
        object.__setattr__(self, "c", _check_prob("c", self.c, allow_one=False))
        object.__setattr__(self, "c_bar", _check_prob("c_bar", self.c_bar, allow_one=False))


@dataclass(frozen=True)
class BoundaryLine:
    """Zero set of v - lam*u + lam*c_bar - c in the (u, v) plane."""

    lam: float
    c: float
    c_bar: float

    def __post_init__(self) -> None:
        lam = float(self.lam)
        if not np.isfinite(lam):
            raise ValidationError(f"lam must be finite, got {lam}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "c", _check_prob("c", self.c, allow_one=False))
        object.__setattr__(self, "c_bar", _check_prob("c_bar", self.c_bar, allow_one=False))


@dataclass(frozen=True)
class ThresholdPair:
    """Per-group score thresholds for the aware settings.

    ``t_minus`` applies on the group -1 regression axis, ``t_plus`` on
    the group +1 axis.
    """

    t_minus: float
    t_plus: float
    setting: str

    def __post_init__(self) -> None:
        if self.setting not in (EO_AWARE, DPAR_AWARE):
            raise ValidationError(
                f"threshold pair setting must be {EO_AWARE!r} or {DPAR_AWARE!r}, "
                f"got {self.setting!r}"
            )
        for name, value in (("t_minus", self.t_minus), ("t_plus", self.t_plus)):
            value = float(value)
            if not np.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class BoundConstants:
    """Finite-sample bound constants derived from margin mass.

    ``b_const`` is the flip-probability budget (estimation tail plus
    margin mass), ``g_const`` the worst prior-normalized version of it,
    and ``q_const`` the deviation scale the tail bound is stated above.
    """

    delta_prime: float
    margin_mass: float
    b_const: float
    g_const: float
    q_const: float

    def __post_init__(self) -> None:
        for name in ("delta_prime", "margin_mass", "b_const", "g_const", "q_const"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value < 0.0:
                raise ValidationError(f"{name} must be finite and nonnegative, got {value}")
            object.__setattr__(self, name, value)
        if abs(self.b_const - (self.delta_prime + self.margin_mass)) > 1e-12:
            raise ValidationError("b_const must equal delta_prime + margin_mass")


def boundary_score(geometry: Hyperbola | BoundaryLine, u, v):
    """Evaluate the boundary's defining score at (u, v); broadcasts."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if isinstance(geometry, Hyperbola):
        value = (
            (1.0 + geometry.lam * geometry.c_bar / geometry.pi) * v
            - (geometry.lam / geometry.pi) * u * v
            - geometry.c
        )
    elif isinstance(geometry, BoundaryLine):
        value = v - geometry.lam * u + geometry.lam * geometry.c_bar - geometry.c
    else:
        raise ValidationError(
            f"boundary_score takes a Hyperbola or BoundaryLine, got {type(geometry).__name__}"
        )
    return float(value) if value.ndim == 0 else value


def asymptote_x(h: Hyperbola) -> float:
    """u-coordinate of the vertical asymptote, c_bar + pi/lam.

    At lam = 0 the boundary degenerates to the horizontal line v = c
    and has no vertical asymptote.
    """

    if not isinstance(h, Hyperbola):
        raise ValidationError(f"asymptote_x takes a Hyperbola, got {type(h).__name__}")
    if h.lam == 0.0:
        raise ValidationError("lam = 0 boundary is a horizontal line; no vertical asymptote")
    return h.c_bar + h.pi / h.lam


def _check_eps_square(eps: float) -> float:
    eps = float(eps)
    if not (np.isfinite(eps) and 0.0 < eps < 0.5):
        raise ValidationError(f"eps must lie in (0, 1/2), got {eps}")
    return eps


def _corner_meets_zero(geometry: Hyperbola | BoundaryLine, u, v, eps: float):
    """Vectorized corner sign test over 2*eps squares centred at (u, v)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    corners = [
        boundary_score(geometry, u + du, v + dv)
        for du in (-eps, eps)
        for dv in (-eps, eps)
    ]
    stacked = np.stack([np.atleast_1d(np.asarray(c, dtype=float)) for c in corners])
    return (stacked.min(axis=0) <= 0.0) & (stacked.max(axis=0) >= 0.0)


def square_intersects_hyperbola(h: Hyperbola, center: tuple[float, float], eps: float) -> bool:
    """Whether the closed 2*eps square at ``center`` meets the hyperbola.

    Exact: the score is bilinear, so its extrema over an axis-aligned
    square sit at the corners.
    """

    if not isinstance(h, Hyperbola):
        raise ValidationError(
            f"square_intersects_hyperbola takes a Hyperbola, got {type(h).__name__}"
        )
    eps = _check_eps_square(eps)
    u, v = (float(center[0]), float(center[1]))
    return bool(_corner_meets_zero(h, u, v, eps)[0])


def square_intersects_line(line: BoundaryLine, center: tuple[float, float], eps: float) -> bool:
    """Whether the closed 2*eps square at ``center`` meets the line."""
    if not isinstance(line, BoundaryLine):
        raise ValidationError(
            f"square_intersects_line takes a BoundaryLine, got {type(line).__name__}"
        )
    eps = _check_eps_square(eps)
    u, v = (float(center[0]), float(center[1]))
    return bool(_corner_meets_zero(line, u, v, eps)[0])


def in_threshold_margin(t: float, value, eps: float):
    """Closed scalar margin test |value - t| <= eps; broadcasts over value."""
    eps = float(eps)
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValidationError(f"eps must be positive, got {eps}")
    t = float(t)
    if not np.isfinite(t):
        raise ValidationError(f"t must be finite, got {t}")
    value = np.asarray(value, dtype=float)
    result = np.abs(value - t) <= eps
    return bool(result) if result.ndim == 0 else result


def margin_membership(geometry, coords: tuple[np.ndarray, np.ndarray], eps: float) -> np.ndarray:
    """Vectorized margin-set membership for sampled coordinate pairs.

    For square geometries ``coords`` is (u, v); for a ThresholdPair it
    is (v_minus, v_plus) and a point is in the margin when either
    branch value is within eps of its threshold.
    """

    first, second = (np.asarray(coords[0], dtype=float), np.asarray(coords[1], dtype=float))
    if first.shape != second.shape:
        raise ValidationError("coordinate arrays must share a shape")
    if isinstance(geometry, (Hyperbola, BoundaryLine)):
        eps = _check_eps_square(eps)
        return _corner_meets_zero(geometry, first, second, eps)
    if isinstance(geometry, ThresholdPair):
        near_minus = in_threshold_margin(geometry.t_minus, first, eps)
        near_plus = in_threshold_margin(geometry.t_plus, second, eps)
        return np.atleast_1d(near_minus | near_plus)
    raise ValidationError(f"unsupported geometry type {type(geometry).__name__}")


def estimate_margin_mass(
    sampler: Sampler, geometry, eps: float, m: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo margin mass and its binomial standard error.

    Draws ``m`` points through ``sampler`` from the stream seeded by
    ``(seed, 0)`` and counts margin members.
    """

    m = int(m)
    if m <= 0:
        raise ValidationError(f"sample count must be positive, got {m}")
    coords = sampler(np.random.default_rng((int(seed), 0)), m)
    member = margin_membership(geometry, coords, eps)
    if member.shape != (m,):
        raise ValidationError(
            f"sampler returned {member.shape[0]} coordinates for a request of {m}"
        )
    p_hat = int(member.sum()) / m
    return p_hat, float(np.sqrt(p_hat * (1.0 - p_hat) / m))


def bound_constants(
    mass: float, delta_prime: float, stats: DistStats, params: FairnessParams
) -> BoundConstants:
    """Assemble the flip-budget, prior-normalized, and deviation constants."""
    mass = float(mass)
    if not (np.isfinite(mass) and 0.0 <= mass <= 1.0):
        raise ValidationError(f"mass must lie in [0, 1], got {mass}")
    delta_prime = float(delta_prime)
    if not (np.isfinite(delta_prime) and delta_prime >= 0.0):
        raise ValidationError(f"delta_prime must be nonnegative, got {delta_prime}")
    if not isinstance(stats, DistStats):
        raise ValidationError("stats must be DistStats")
    if not isinstance(params, FairnessParams):
        raise ValidationError("params must be FairnessParams")
    if stats.pi >= 1.0:
        raise ValidationError("bound constants need pi < 1 (the 1 - pi denominator)")
    if stats.beta >= 1.0:
        raise ValidationError("bound constants need beta < 1 (the 1 - beta denominator)")
    b = delta_prime + mass
    g = max(b / (1.0 - stats.pi), b / (stats.pi * stats.beta), b / (stats.pi * (1.0 - stats.beta)))
    scale = max(
        params.c * (1.0 - stats.pi),
        (1.0 - params.c) * stats.pi,
        abs(params.lam) * params.c_bar * (1.0 - stats.beta),
        abs(params.lam) * (1.0 - params.c_bar) * stats.beta,
    )
    q = 4.0 * g * scale
    result = BoundConstants(
        delta_prime=delta_prime, margin_mass=mass, b_const=b, g_const=g, q_const=q
    )
    if abs(result.q_const - 4.0 * result.g_const * scale) > 1e-12:
        raise ValidationError("q_const postcondition failed")
    return result


def eo_aware_thresholds(params: FairnessParams, pi: float) -> ThresholdPair:
    """Per-group thresholds equivalent to the equal-opportunity aware score."""
    pi = _check_prob("pi", pi, allow_one=True)
    denom_minus = 1.0 + params.lam * params.c_bar / pi
    denom_plus = 1.0 + params.lam * (params.c_bar - 1.0) / pi
    if denom_minus == 0.0 or denom_plus == 0.0:
        raise ValidationError(
            "degenerate parameters: an aware score coefficient vanishes, so no finite "
            "threshold exists for that group"
        )
    return ThresholdPair(
        t_minus=params.c / denom_minus, t_plus=params.c / denom_plus, setting=EO_AWARE
    )


def dpar_aware_thresholds(params: FairnessParams) -> ThresholdPair:
    """Per-group thresholds equivalent to the demographic-parity aware score."""
    return ThresholdPair(
        t_minus=params.c - params.lam * params.c_bar,
        t_plus=params.c + params.lam - params.lam * params.c_bar,
        setting=DPAR_AWARE,
    )


def geometry_for(setting: str, params: FairnessParams, pi: float | None = None):
    """Boundary object for a setting (EO settings require ``pi``)."""
    if setting == EO_BLIND:
        if pi is None:
            raise ValidationError("eo-blind geometry requires pi")
        return Hyperbola(lam=params.lam, pi=pi, c=params.c, c_bar=params.c_bar)
    if setting == DPAR_BLIND:
        return BoundaryLine(lam=params.lam, c=params.c, c_bar=params.c_bar)
    if setting == EO_AWARE:
        if pi is None:
            raise ValidationError("eo-aware geometry requires pi")
        return eo_aware_thresholds(params, pi)
    if setting == DPAR_AWARE:
        return dpar_aware_thresholds(params)
    raise ValidationError(f"unknown setting {setting!r}")


def plugin_proxy_sampler(rule: PlugInRule, features: np.ndarray) -> Sampler:
    """Sampler over fitted estimates -- a plug-in proxy, not true mass.

    Resamples rows of ``features`` with replacement and projects them
    through the rule's fitted estimators.  Because the coordinates are
    estimates rather than true regression values, masses computed from
    this sampler are proxies; report them under a proxy label.
    """

    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValidationError("features must be a nonempty matrix")

    def sample(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        rows = features[rng.integers(0, features.shape[0], size=count)]
        if is_aware(rule.setting):
            return coordinates(rule, rows, -1.0)[0], coordinates(rule, rows, 1.0)[0]
        eta, eta_bar = coordinates(rule, rows)
        return eta_bar, eta

    return sample


def write_raster_csv(
    geometry: Hyperbola | BoundaryLine, n: int, eps: float, path: str | Path
) -> int:
    """Raster the unit square: rows of (u, v, sign, in_margin) CSV.

    The grid is the inclusive n-by-n lattice over [0, 1]^2; ``sign`` is
    the sign of the boundary score at the lattice point and
    ``in_margin`` flags 2*eps-square intersection.  Returns the number
    of data rows written.
    """

    if not isinstance(geometry, (Hyperbola, BoundaryLine)):
        raise ValidationError("raster export covers the square geometries only")
    n = int(n)
    if n < 2:
        raise ValidationError(f"raster size must be at least 2, got {n}")
    eps = _check_eps_square(eps)
    axis = np.linspace(0.0, 1.0, n)
    grid_u, grid_v = np.meshgrid(axis, axis, indexing="ij")
    flat_u, flat_v = grid_u.ravel(), grid_v.ravel()
    scores = np.asarray(boundary_score(geometry, flat_u, flat_v))
    signs = np.sign(scores).astype(int)
    member = margin_membership(geometry, (flat_u, flat_v), eps).astype(int)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["u", "v", "sign", "in_margin"])
        for u, v, s, flag in zip(flat_u, flat_v, signs, member):
            writer.writerow([f"{u:.10g}", f"{v:.10g}", int(s), int(flag)])
    return n * n
