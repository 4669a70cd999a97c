"""Decision-boundary geometry in regression-function coordinates.

A plug-in rule classifies by the sign of its setting's score, so its
decision boundary is the zero set of that score.  The blind scores are
bilinear (equal opportunity) or affine (demographic parity) in the pair
``(eta, eta_bar)`` of label and sensitive-attribute regression values;
the aware scores are affine in ``eta(x, ybar)`` within each group.

This module provides margin-set membership (is a point's closed
``2*eps`` box close enough to the boundary to be flipped by estimation
error of size ``eps``), Monte-Carlo margin mass, the unit-square raster
and boundary polyline, the vertical asymptote of the equal-opportunity
blind boundary, and the derived bound constants used by the
finite-sample analysis.

Every margin, raster sign, polyline and asymptote evaluates
:func:`fairplug.plugin.setting_score`, the same arithmetic that
classifies, on coordinates in :func:`fairplug.plugin.coordinates` order;
no score formula is restated here.  Margin membership is a corner sign
test: each score is affine in each coordinate, so its extrema over an
axis-aligned box sit at the box's corners, and the box meets the zero
set exactly when the corner values do not all share a strict sign.  The
box is treated as closed -- touching counts as intersecting.  The blind
settings test the four corners on ``(eta, eta_bar)``; the aware settings
test the two ends of each group's interval on ``eta(x, -1)`` and
``eta(x, +1)`` and take the union over the groups.

True margin mass needs the true regression functions, so it is only
available through a synthetic distribution: ``simulate --experiment
sample-complexity`` draws features from the distribution's law, maps
them through its exact ``(eta, eta_bar)`` and reports the mass with the
bound constants built from it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import DistStats, FairnessParams, _check_prob
from .errors import ValidationError
from .plugin import EO_BLIND, is_aware, is_eo, setting_score

__all__ = [
    "BoundConstants",
    "asymptote_x",
    "margin_membership",
    "estimate_margin_mass",
    "bound_constants",
    "check_raster",
    "write_raster_csv",
    "boundary_polyline",
]

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


def _check_pi(setting: str, pi):
    """``pi`` is read by the EO settings only, so only they check it."""
    if not is_eo(setting):
        return pi
    if pi is None:
        raise ValidationError(f"setting {setting!r} requires pi")
    return _check_prob("pi", pi, allow_one=True)


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not (np.isfinite(eps) and 0.0 < eps < 0.5):
        raise ValidationError(f"eps must lie in (0, 1/2), got {eps}")
    return eps


def asymptote_x(params: FairnessParams, pi: float) -> float | None:
    """eta_bar-coordinate of the eo-blind boundary's vertical asymptote.

    The eo-blind score is ``k(eta_bar) * eta - c`` with ``k`` affine in
    ``eta_bar``; the boundary runs off to infinity where ``k`` vanishes.
    ``k`` is the score at ``eta = 1`` with ``c = 0``, so its root comes
    from two score evaluations, at ``eta_bar = 0`` and ``eta_bar = 1``.
    Returns None when those agree -- at lam = 0, or when |lam/pi| is
    below float resolution so the rule's own arithmetic cannot tell the
    two apart: the boundary the rule draws is then the horizontal line
    eta = c, which has no vertical asymptote.
    """

    pi = _check_pi(EO_BLIND, pi)
    k_at_0, k_at_1 = (
        float(setting_score(EO_BLIND, 1.0, eta_bar, pi, params.lam, 0.0, params.c_bar))
        for eta_bar in (0.0, 1.0)
    )
    if k_at_0 == k_at_1:
        return None
    return k_at_0 / (k_at_0 - k_at_1)


def margin_membership(
    setting: str,
    params: FairnessParams,
    pi,
    coords: tuple[np.ndarray, np.ndarray],
    eps: float,
) -> np.ndarray:
    """Vectorized margin-set membership for sampled coordinate pairs.

    ``coords`` is ``(eta, eta_bar)`` for the blind settings and
    ``(eta(x, -1), eta(x, +1))`` for the aware ones; ``pi`` is read by
    the EO settings only.  A point is a member when the closed box of
    half-width ``eps`` around it meets the zero set of the setting's
    score (for the aware settings: in either group).
    """

    pi = _check_pi(setting, pi)
    eps = _check_eps(eps)
    first, second = (np.asarray(coords[0], dtype=float), np.asarray(coords[1], dtype=float))
    if first.shape != second.shape:
        raise ValidationError("coordinate arrays must share a shape")

    def meets_zero(corners) -> np.ndarray:
        values = np.stack(
            [
                np.atleast_1d(setting_score(setting, a, b, pi, params.lam, params.c, params.c_bar))
                for a, b in corners
            ]
        )
        return (values.min(axis=0) <= 0.0) & (values.max(axis=0) >= 0.0)

    if is_aware(setting):
        return meets_zero([(first - eps, -1.0), (first + eps, -1.0)]) | meets_zero(
            [(second - eps, 1.0), (second + eps, 1.0)]
        )
    return meets_zero([(first + de, second + db) for de in (-eps, eps) for db in (-eps, eps)])


def estimate_margin_mass(
    coords: tuple[np.ndarray, np.ndarray],
    setting: str,
    params: FairnessParams,
    pi,
    eps: float,
) -> tuple[float, float]:
    """Monte-Carlo margin mass and its binomial standard error.

    ``coords`` holds one coordinate pair per sampled point, in the
    :func:`margin_membership` order; the mass is the share of margin
    members among them.
    """

    member = margin_membership(setting, params, pi, coords, eps)
    m = member.size
    if m == 0:
        raise ValidationError("sample count must be positive, got no coordinates")
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


def check_raster(n: int) -> int:
    """The raster size (lattice points per axis, at least 2), validated."""
    n = int(n)
    if n < 2:
        raise ValidationError(f"raster size must be at least 2, got {n}")
    return n


def write_raster_csv(
    setting: str, params: FairnessParams, pi, n: int, eps: float, path: str | Path
) -> np.ndarray:
    """Raster the unit square: rows of (u, v, sign, in_margin) CSV.

    The grid is the inclusive n-by-n lattice over [0, 1]^2 with ``u``
    the sensitive-attribute coordinate ``eta_bar`` and ``v`` the label
    coordinate ``eta`` of a blind setting; ``sign`` is the sign of the
    setting's score at the lattice point and ``in_margin`` flags
    2*eps-box intersection.  Returns the ``in_margin`` flags as an
    ``(n, n)`` boolean array indexed ``[u, v]``, one entry per data row.
    """

    if is_aware(setting):
        raise ValidationError(f"raster export covers the blind settings only, got {setting!r}")
    pi = _check_pi(setting, pi)
    n, eps = check_raster(n), _check_eps(eps)
    axis = np.linspace(0.0, 1.0, n)
    grid_u, grid_v = np.meshgrid(axis, axis, indexing="ij")
    flat_u, flat_v = grid_u.ravel(), grid_v.ravel()
    scores = setting_score(setting, flat_v, flat_u, pi, params.lam, params.c, params.c_bar)
    signs = np.sign(scores).astype(int)
    member = margin_membership(setting, params, pi, (flat_v, flat_u), eps)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["u", "v", "sign", "in_margin"])
        for u, v, s, flag in zip(flat_u, flat_v, signs, member):
            writer.writerow([f"{u:.10g}", f"{v:.10g}", int(s), int(flag)])
    return member.reshape(n, n)


def boundary_polyline(
    setting: str, params: FairnessParams, pi, axis: np.ndarray
) -> list[tuple[float, float]]:
    """Zero-level points of a blind setting's score, one per raster column.

    The score is affine in ``eta`` (the vertical axis) at each fixed
    ``eta_bar`` (the horizontal one), so the root on each column is exact
    from the scores at ``eta = 0`` and ``eta = 1``.
    """

    bottom, top = (
        setting_score(setting, eta, axis, pi, params.lam, params.c, params.c_bar)
        for eta in (0.0, 1.0)
    )
    points = []
    for u, low, high in zip(axis, bottom, top):
        if low == high:
            continue
        t = low / (low - high)
        if 0.0 <= t <= 1.0:
            points.append((float(u), float(t)))
    return points
