"""Decision-boundary geometry in regression-function coordinates.

A plug-in rule classifies by the sign of its setting's score, so its
decision boundary is the zero set of that score.  The blind scores are
bilinear (equal opportunity) or affine (demographic parity) in the pair
``(eta, eta_bar)`` of label and sensitive-attribute regression values;
the aware scores are affine in ``eta(x, ybar)`` within each group.

This module provides margin-set membership (is a point's closed
``2*eps`` box close enough to the boundary to be flipped by estimation
error of size ``eps``), weighted margin mass, the unit-square raster
and boundary polyline, the vertical asymptote of the equal-opportunity
blind boundary, and the derived bound constants used by the
finite-sample analysis.  The raster is returned as columns over the
exact ``np.linspace(0, 1, n)`` lattice; ``fairplug geometry`` writes
them as ``raster.csv`` with the table writer every command uses, so the
``u`` and ``v`` text reads back as the lattice's doubles.

Every margin, raster sign, polyline and asymptote evaluates
:func:`fairplug.plugin.setting_score`, the same arithmetic that
classifies, on coordinates in :func:`fairplug.plugin.coordinates` order;
no score formula is restated here.  Margin membership is a corner sign
test: each score is affine in each coordinate, so its extrema over an
axis-aligned box sit at the box's corners, and the box meets the zero
set exactly when the corner values do not all share a strict sign.  The
box is treated as closed -- touching counts as intersecting -- and is
the exact box around the given doubles: a row whose extreme corner
score lies within ``_EXACT_BAND`` of zero, where rounding could flip
the sign test, is decided again with :class:`fractions.Fraction`
corners and scores.  The blind
settings test the four corners on ``(eta, eta_bar)``; the aware settings
test the two ends of each group's interval on ``eta(x, -1)`` and
``eta(x, +1)`` and take the union over the groups.

True margin mass needs the true regression functions, so it is only
available through a synthetic distribution: ``simulate --experiment
sample-complexity`` maps the nodes of the run's population, the one its
accuracy check is scored on, through the exact ``(eta, eta_bar)``,
weights the margin members by the node weights and reports the mass with
the bound constants built from it and the population's priors.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "raster",
    "boundary_polyline",
]

#: A margin row whose extreme corner score lies within this of zero is
#: decided again in exact arithmetic.  Rounding moves a corner score by a
#: few ulps of its largest term, far below this while |lam/pi| stays
#: under about 1e6; the band only bounds how many rows pay for the exact
#: test, whose decision does not depend on it.
_EXACT_BAND = 1e-9

#: Points :func:`margin_membership` scores at a time, so its corner scores
#: are a few chunk-sized arrays whatever the number of points.
_MEMBERSHIP_CHUNK = 1 << 16


@dataclass(frozen=True)
class BoundConstants:
    """Finite-sample bound constants derived from margin mass.

    ``b_const`` is the flip-probability budget, the property
    ``delta_prime + margin_mass`` (estimation tail plus margin mass);
    ``g_const`` is the worst prior-normalized version of it, and
    ``q_const`` the deviation scale the tail bound is stated above.
    """

    delta_prime: float
    margin_mass: float
    g_const: float
    q_const: float

    def __post_init__(self) -> None:
        for name in ("delta_prime", "margin_mass", "g_const", "q_const"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value < 0.0:
                raise ValidationError(f"{name} must be finite and nonnegative, got {value}")
            object.__setattr__(self, name, value)

    @property
    def b_const(self) -> float:
        return self.delta_prime + self.margin_mass


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
    score (for the aware settings: in either group).  Membership is
    decided point by point, so the points are scored
    ``_MEMBERSHIP_CHUNK`` at a time into one boolean mask.
    """

    pi = _check_pi(setting, pi)
    eps = _check_eps(eps)
    first, second = (np.atleast_1d(np.asarray(v, dtype=float)) for v in coords[:2])
    if first.shape != second.shape:
        raise ValidationError("coordinate arrays must share a shape")

    def meets_zero(a, b, a_offsets, b_offsets) -> np.ndarray:
        """Per row: does some corner ``(a + da, b + db)`` score <= 0 and some >= 0?"""
        corners = [(da, db) for da in a_offsets for db in b_offsets]
        values = np.stack(
            [
                setting_score(setting, a + da, b + db, pi, params.lam, params.c, params.c_bar)
                for da, db in corners
            ]
        )
        low, high = values.min(axis=0), values.max(axis=0)
        member = (low <= 0.0) & (high >= 0.0)
        near = np.flatnonzero((np.abs(low) <= _EXACT_BAND) | (np.abs(high) <= _EXACT_BAND))
        if not near.size:
            return member
        # imported here: it loads decimal, 0.4 MiB that runs without such rows never use
        from fractions import Fraction

        exact = (
            Fraction(pi) if is_eo(setting) else None,
            *(Fraction(v) for v in (params.lam, params.c, params.c_bar)),
        )
        b = np.broadcast_to(b, a.shape)
        for i in near:
            a_i, b_i = Fraction(a.flat[i]), Fraction(b.flat[i])
            scores = [
                setting_score(setting, a_i + Fraction(da), b_i + Fraction(db), *exact)
                for da, db in corners
            ]
            member.flat[i] = min(scores) <= 0 <= max(scores)
        return member

    ends = (-eps, eps)
    member = np.empty(first.shape, dtype=bool)
    flat, first, second = member.reshape(-1), first.reshape(-1), second.reshape(-1)
    for start in range(0, flat.size, _MEMBERSHIP_CHUNK):
        part = slice(start, start + _MEMBERSHIP_CHUNK)
        if is_aware(setting):
            flat[part] = meets_zero(first[part], -1.0, ends, (0.0,))
            flat[part] |= meets_zero(second[part], 1.0, ends, (0.0,))
        else:
            flat[part] = meets_zero(first[part], second[part], ends, ends)
    return member


def estimate_margin_mass(
    coords: tuple[np.ndarray, np.ndarray],
    weights: np.ndarray,
    setting: str,
    params: FairnessParams,
    pi,
    eps: float,
) -> float:
    """Margin mass: the total weight of the margin members.

    ``coords`` holds one coordinate pair per point, in the
    :func:`margin_membership` order, and ``weights`` each point's
    probability weight: quadrature weights, or ``1/m`` each for ``m``
    sampled points.
    """

    member = margin_membership(setting, params, pi, coords, eps)
    weights = np.asarray(weights, dtype=float)
    if member.size == 0:
        raise ValidationError("point count must be positive, got no coordinates")
    if weights.shape != member.shape:
        raise ValidationError("weights must hold one weight per coordinate pair")
    return float(weights @ member)


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
    return BoundConstants(delta_prime=delta_prime, margin_mass=mass, g_const=g, q_const=q)


def check_raster(n: int) -> int:
    """The raster size (lattice points per axis, at least 2), validated."""
    n = int(n)
    if n < 2:
        raise ValidationError(f"raster size must be at least 2, got {n}")
    return n


def raster(
    setting: str, params: FairnessParams, pi, n: int, eps: float
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """Raster the unit square: the ``(u, v, sign, in_margin)`` columns and the margin mask.

    The grid is the inclusive n-by-n lattice ``np.linspace(0, 1, n)``
    on both axes, ``u`` the sensitive-attribute coordinate ``eta_bar``
    and ``v`` the label coordinate ``eta`` of a blind setting, one
    column entry per lattice point with ``u`` varying slowest.  ``sign``
    is the sign (-1, 0 or 1) of the setting's score at the point and
    ``in_margin`` flags 2*eps-box intersection.  The mask is the same
    flags as an ``(n, n)`` boolean array indexed ``[u, v]``.
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
    return (flat_u, flat_v, signs, member.astype(int)), member.reshape(n, n)


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
