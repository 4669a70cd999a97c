"""Boundary geometry, margin membership, and finite-sample constants."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairplug import geometry
from fairplug.core import DistStats, FairnessParams
from fairplug.errors import ValidationError
from fairplug.geometry import (
    BoundConstants,
    asymptote_x,
    bound_constants,
    boundary_polyline,
    estimate_margin_mass,
    margin_membership,
    raster,
)
from fairplug.plugin import (
    DPAR_AWARE,
    DPAR_BLIND,
    EO_AWARE,
    EO_BLIND,
    SETTINGS,
    score_dpar_aware,
    score_eo_aware,
    setting_score,
)

from oracles import dense_square_intersects, hyperbola_value, line_value

UNIT = st.floats(0.0, 1.0, allow_nan=False)


def uniform_square(seed, count):
    """``count`` uniform coordinate pairs from the stream seeded by ``(seed, 0)``."""
    rng = np.random.default_rng((seed, 0))
    return rng.random(count), rng.random(count)


def in_margin(setting, params, pi, center, eps):
    """Membership of one blind point given as ``(u, v) = (eta_bar, eta)``."""
    u, v = center
    return bool(margin_membership(setting, params, pi, ([v], [u]), eps)[0])


def raster_columns(setting, params, pi, n):
    """The ``(u, v, sign, in_margin)`` columns of a raster at eps = 0.05."""
    return raster(setting, params, pi, n, 0.05)[0]


class TestBoundaryObjects:
    def test_parameter_validation(self):
        params = FairnessParams(1.0, 0.5, 0.5)
        with pytest.raises(ValidationError, match="lam"):
            FairnessParams(lam=float("nan"), c=0.5, c_bar=0.5)
        with pytest.raises(ValidationError, match="c "):
            FairnessParams(lam=1.0, c=1.0, c_bar=0.5)
        for setting in (EO_BLIND, EO_AWARE):
            with pytest.raises(ValidationError, match="pi"):
                margin_membership(setting, params, 0.0, ([0.5], [0.5]), 0.05)
        # pi is not read by the parity settings, so it is not checked there
        margin_membership(DPAR_BLIND, params, 0.0, ([0.5], [0.5]), 0.05)
        # lam = 0 and pi = 1 both legal
        margin_membership(EO_BLIND, FairnessParams(0.0, 0.5, 0.5), 1.0, ([0.5], [0.5]), 0.05)

    def test_bound_constants_invariant(self):
        # b_const is derived, so it cannot disagree with its two terms.
        got = BoundConstants(delta_prime=0.1, margin_mass=0.2, g_const=1.0, q_const=0.5)
        assert got.b_const == 0.1 + 0.2
        got = bound_constants(0.3, 0.07, DistStats(pi=0.4, pi_bar=0.5, beta=0.5),
                              FairnessParams(lam=1.0, c=0.5, c_bar=0.5))
        assert got.b_const == got.delta_prime + got.margin_mass
        with pytest.raises(ValidationError, match="margin_mass"):
            BoundConstants(delta_prime=0.1, margin_mass=-0.2, g_const=1.0, q_const=0.5)


class TestBoundaryScore:
    def test_hand_values(self):
        # raster 5 has the dyadic lattice 0, 1/4, 1/2, 3/4, 1 on both axes
        u, v, sign, _ = raster_columns(EO_BLIND, FairnessParams(1.0, 0.5, 0.5), 0.5, 5)
        sign_at = {(a, b): s for a, b, s in zip(u, v, sign)}
        assert sign_at[(0.0, 0.25)] == 0.0  # (1 + 1) * 0.25 - 0.5
        assert sign_at[(0.5, 0.5)] == 0.0
        assert sign_at[(0.0, 1.0)] == 1.0
        assert sign_at[(1.0, 0.0)] == -1.0
        u, v, sign, _ = raster_columns(DPAR_BLIND, FairnessParams(2.0, 0.5, 0.25), None, 5)
        sign_at = {(a, b): s for a, b, s in zip(u, v, sign)}
        assert sign_at[(0.25, 0.5)] == 0.0
        assert sign_at[(0.5, 0.5)] == -1.0
        assert sign_at[(0.0, 0.5)] == 1.0

    def test_matches_independent_transcription(self):
        lam, pi, c, c_bar = -2.2, 0.7, 0.35, 0.6
        params = FairnessParams(lam, c, c_bar)
        for setting, value in (
            (EO_BLIND, lambda u, v: hyperbola_value(lam, pi, c, c_bar, u, v)),
            (DPAR_BLIND, lambda u, v: line_value(lam, c, c_bar, u, v)),
        ):
            u, v, sign, _ = raster_columns(setting, params, pi, 21)
            reference = value(u, v)
            clear = np.abs(reference) > 1e-12
            assert clear.sum() > 400
            assert np.array_equal(sign[clear], np.sign(reference[clear]))

    @pytest.mark.parametrize(
        "setting, lam, pi, c, c_bar",
        [(EO_BLIND, -3.6, 0.85, 0.8, 0.9), (DPAR_BLIND, 1.0, 0.85, 0.5, 0.5)],
    )
    def test_raster_sign_is_the_rule_score_sign(self, setting, lam, pi, c, c_bar):
        u, v, sign, _ = raster_columns(setting, FairnessParams(lam, c, c_bar), pi, 201)
        axis = np.linspace(0.0, 1.0, 201)
        grid_u, grid_v = np.meshgrid(axis, axis, indexing="ij")
        assert u.tobytes() == grid_u.ravel().tobytes()
        assert v.tobytes() == grid_v.ravel().tobytes()
        scores = setting_score(setting, grid_v.ravel(), grid_u.ravel(), pi, lam, c, c_bar)
        expected = np.sign(scores)
        assert np.array_equal(sign, expected)


class TestAsymptote:
    def test_formula(self):
        assert asymptote_x(FairnessParams(0.4, 0.5, 0.9), 0.85) == pytest.approx(
            0.9 + 0.85 / 0.4, rel=1e-14
        )

    def test_lambda_zero_has_none(self):
        assert asymptote_x(FairnessParams(0.0, 0.5, 0.5), 0.5) is None
        # the score's eta coefficient is exactly 1 across the square here,
        # so the rule's boundary is the flat line of lam = 0
        assert asymptote_x(FairnessParams(1e-17, 0.5, 0.5), 0.85) is None
        with pytest.raises(ValidationError, match="pi"):
            asymptote_x(FairnessParams(1.0, 0.5, 0.5), 0.0)


class TestSquareIntersection:
    def test_horizontal_line_distance(self):
        flat = FairnessParams(lam=0.0, c=0.5, c_bar=0.5)
        eps = 0.0625  # dyadic, so the box's edge lies on the line v = 0.5 exactly
        assert in_margin(DPAR_BLIND, flat, None, (0.3, 0.5 + eps), eps)  # touching counts
        assert in_margin(DPAR_BLIND, flat, None, (0.3, 0.5 - eps), eps)
        assert not in_margin(DPAR_BLIND, flat, None, (0.3, 0.5 + 1.01 * eps), eps)
        # the double nearest 0.55, less the double nearest 0.05, is 0.5 + 4.2e-17:
        # rounded arithmetic would call that box touching, the exact test does not
        assert not in_margin(DPAR_BLIND, flat, None, (0.3, 0.5 + 0.05), 0.05)
        assert in_margin(EO_BLIND, flat, 0.5, (0.9, 0.52), 0.05)
        assert not in_margin(EO_BLIND, flat, 0.5, (0.9, 0.58), 0.05)

    def test_type_and_eps_validation(self):
        params = FairnessParams(lam=1.0, c=0.5, c_bar=0.5)
        for setting in SETTINGS:
            for bad_eps in (0.0, 0.5, -0.1, float("nan")):
                with pytest.raises(ValidationError, match="eps"):
                    margin_membership(setting, params, 0.5, ([0.5], [0.5]), bad_eps)

    @given(
        st.floats(-3.0, 3.0),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
        UNIT,
        UNIT,
        st.floats(0.01, 0.2),
    )
    @example(lam=1.5, c=0.05, c_bar=0.05, u0=0.0, v0=0.0, eps=0.01)
    @settings(max_examples=80)
    def test_line_matches_interval_oracle(self, lam, c, c_bar, u0, v0, eps):
        """Affine case has an exact independent check: map the u-interval
        through the line and intersect with the v-interval, in exact
        arithmetic on the same doubles.  The pinned example touches the box
        at a corner in real numbers but misses it by 8.7e-19 in these
        doubles."""
        lam, c, c_bar, u0, v0, eps = (Fraction(v) for v in (lam, c, c_bar, u0, v0, eps))
        ends = [lam * u - lam * c_bar + c for u in (u0 - eps, u0 + eps)]
        lo, hi = min(ends), max(ends)
        expected = (lo <= v0 + eps) and (hi >= v0 - eps)
        lam, c, c_bar, u0, v0, eps = (float(v) for v in (lam, c, c_bar, u0, v0, eps))
        params = FairnessParams(lam=lam, c=c, c_bar=c_bar)
        assert in_margin(DPAR_BLIND, params, None, (u0, v0), eps) == expected

    def test_spot_agreement_with_dense_oracle(self):
        gen = np.random.default_rng(42)
        for _ in range(15):
            lam = float(gen.uniform(-3, 3))
            pi = float(gen.uniform(0.2, 0.9))
            c = float(gen.uniform(0.1, 0.9))
            c_bar = float(gen.uniform(0.1, 0.9))
            center = (float(gen.random()), float(gen.random()))
            eps = float(gen.uniform(0.02, 0.15))
            params = FairnessParams(lam=lam, c=c, c_bar=c_bar)
            hit_h, _ = dense_square_intersects(
                lambda uu, vv: hyperbola_value(lam, pi, c, c_bar, uu, vv), center, eps
            )
            hit_l, _ = dense_square_intersects(
                lambda uu, vv: line_value(lam, c, c_bar, uu, vv), center, eps
            )
            assert in_margin(EO_BLIND, params, pi, center, eps) == hit_h
            assert in_margin(DPAR_BLIND, params, None, center, eps) == hit_l


class TestThresholdMargin:
    def test_closed_boundary(self):
        # dpar-aware at lam = 0 thresholds both groups at c = 0.5; dyadic
        # values make every corner score exact
        flat = FairnessParams(lam=0.0, c=0.5, c_bar=0.5)
        far = np.full(3, 0.0)
        values = np.array([0.625, 0.6251, 0.375])
        got = margin_membership(DPAR_AWARE, flat, None, (values, far), 0.125)
        assert got.tolist() == [True, False, True]
        values = np.array([0.25, 0.375, 0.75])
        got = margin_membership(DPAR_AWARE, flat, None, (far, values), 0.125)
        assert got.tolist() == [False, True, False]

    def test_validation(self):
        flat = FairnessParams(lam=0.0, c=0.5, c_bar=0.5)
        with pytest.raises(ValidationError, match="eps"):
            margin_membership(DPAR_AWARE, flat, None, ([0.5], [0.5]), 0.0)
        with pytest.raises(ValidationError, match="requires pi"):
            margin_membership(EO_AWARE, flat, None, ([0.5], [0.5]), 0.1)


class TestMarginMembership:
    def test_threshold_pair_is_union_of_branches(self):
        # dpar-aware (0.5, 0.5, 0.5): thresholds 0.25 for group -1, 0.75 for +1
        params = FairnessParams(lam=0.5, c=0.5, c_bar=0.5)
        v_minus = np.array([0.25, 0.9, 0.5])
        v_plus = np.array([0.1, 0.74, 0.5])
        got = margin_membership(DPAR_AWARE, params, None, (v_minus, v_plus), 0.05)
        assert got.tolist() == [True, True, False]

    def test_shape_mismatch(self):
        params = FairnessParams(lam=1.0, c=0.5, c_bar=0.5)
        with pytest.raises(ValidationError, match="share a shape"):
            margin_membership(DPAR_BLIND, params, None, (np.zeros(3), np.zeros(2)), 0.05)

    def test_unsupported_geometry(self):
        params = FairnessParams(lam=1.0, c=0.5, c_bar=0.5)
        with pytest.raises(ValidationError, match="unknown setting"):
            margin_membership("parity", params, 0.5, (np.zeros(2), np.zeros(2)), 0.05)


def uniform_mass(setting, params, seed, count, eps):
    """Margin mass of ``count`` uniform points at weight ``1/count``, with its binomial SE."""
    coords = uniform_square(seed, count)
    mass = estimate_margin_mass(coords, np.full(count, 1.0 / count), setting, params, None, eps)
    return mass, float(np.sqrt(mass * (1.0 - mass) / count))


class TestMarginMass:
    def test_deterministic_per_plan(self):
        flat = FairnessParams(lam=0.0, c=0.5, c_bar=0.5)
        assert uniform_mass(DPAR_BLIND, flat, 7, 4000, 0.05) == uniform_mass(
            DPAR_BLIND, flat, 7, 4000, 0.05
        )

    def test_uniform_mass_near_two_eps(self):
        flat = FairnessParams(lam=0.0, c=0.5, c_bar=0.5)
        mass, se = uniform_mass(DPAR_BLIND, flat, 11, 20000, 0.05)
        assert abs(mass - 0.1) <= 4 * se + 1e-9

    def test_threshold_pair_mass(self):
        # per-group thresholds 0.25 and 0.75: mass 0.1 + 0.1 - 0.1 * 0.1
        params = FairnessParams(lam=0.5, c=0.5, c_bar=0.5)
        mass, se = uniform_mass(DPAR_AWARE, params, 13, 20000, 0.05)
        assert abs(mass - 0.19) <= 4 * se + 1e-9

    def test_weights_sum_over_members(self):
        flat = FairnessParams(lam=0.0, c=0.5, c_bar=0.5)
        coords = (np.array([0.5, 0.9, 0.52]), np.zeros(3))
        weights = np.array([0.25, 0.5, 0.125])
        assert estimate_margin_mass(coords, weights, DPAR_BLIND, flat, None, 0.05) == 0.375

    def test_bad_inputs(self):
        flat = FairnessParams(lam=0.0, c=0.5, c_bar=0.5)
        with pytest.raises(ValidationError, match="positive"):
            estimate_margin_mass(
                (np.zeros(0), np.zeros(0)), np.zeros(0), DPAR_BLIND, flat, None, 0.05
            )
        with pytest.raises(ValidationError, match="one weight per"):
            estimate_margin_mass((np.zeros(2), np.zeros(2)), np.ones(3), DPAR_BLIND, flat, None, 0.05)


class TestBoundConstants:
    def test_hand_values(self):
        stats = DistStats(pi=0.4, pi_bar=0.5, beta=0.5)
        params = FairnessParams(lam=1.0, c=0.5, c_bar=0.5)
        got = bound_constants(0.1, 0.05, stats, params)
        assert got.b_const == pytest.approx(0.15)
        assert got.g_const == pytest.approx(0.75)
        assert got.q_const == pytest.approx(4 * 0.75 * 0.3)

    def test_degenerate_priors_rejected(self):
        params = FairnessParams(lam=1.0, c=0.5, c_bar=0.5)
        with pytest.raises(ValidationError, match="pi < 1"):
            bound_constants(0.1, 0.05, DistStats(pi=1.0, pi_bar=0.5, beta=0.5), params)
        with pytest.raises(ValidationError, match="beta < 1"):
            bound_constants(0.1, 0.05, DistStats(pi=0.5, pi_bar=0.5, beta=1.0), params)
        with pytest.raises(ValidationError, match="mass"):
            bound_constants(1.2, 0.05, DistStats(pi=0.5, pi_bar=0.5, beta=0.5), params)


class TestAwareThresholds:
    """Each aware group's margin is the eps-interval around its threshold,
    here computed by hand from the score formulas."""

    def test_eo_thresholds_zero_the_score(self):
        params = FairnessParams(lam=0.4, c=0.3, c_bar=0.5)
        t_minus, t_plus = 0.3 / 1.4, 0.3 / 0.6  # c / (1 + (lam/pi) c_bar), ...
        lcc = (params.lam, params.c, params.c_bar)
        assert score_eo_aware(t_minus, -1.0, 0.5, *lcc) == pytest.approx(0.0, abs=1e-15)
        assert score_eo_aware(t_plus, 1.0, 0.5, *lcc) == pytest.approx(0.0, abs=1e-15)
        eps, far = 0.01, 0.99
        got = margin_membership(
            EO_AWARE, params, 0.5,
            ([t_minus, t_minus + 2 * eps, far], [far, far, t_plus - 2 * eps]),
            eps,
        )
        assert got.tolist() == [True, False, False]
        got = margin_membership(EO_AWARE, params, 0.5, ([far], [t_plus + 0.5 * eps]), eps)
        assert got.tolist() == [True]

    def test_dpar_thresholds_zero_the_score(self):
        params = FairnessParams(lam=0.6, c=0.5, c_bar=0.4)
        t_minus, t_plus = 0.5 - 0.6 * 0.4, 0.5 + 0.6 - 0.6 * 0.4
        lcc = (params.lam, params.c, params.c_bar)
        assert 0.0 <= t_minus <= 1.0 and 0.0 <= t_plus <= 1.0
        assert score_dpar_aware(t_minus, -1.0, *lcc) == pytest.approx(0.0, abs=1e-15)
        assert score_dpar_aware(t_plus, 1.0, *lcc) == pytest.approx(0.0, abs=1e-15)
        eps, far = 0.01, 0.0
        got = margin_membership(
            DPAR_AWARE, params, None,
            ([t_minus + 0.5 * eps, far, far], [far, t_plus - 0.5 * eps, t_plus + 2 * eps]),
            eps,
        )
        assert got.tolist() == [True, True, False]

    def test_vanishing_coefficient_group_has_no_margin(self):
        # eo-aware at lam/pi = -2, c_bar = 1/2: group -1's eta coefficient is
        # 0, so its score is -c everywhere and no estimate can flip it;
        # group +1 (coefficient 2, threshold 1/4) sits far from eta = 1
        params = FairnessParams(lam=-1.0, c=0.5, c_bar=0.5)
        coords = (np.linspace(0.0, 1.0, 11), np.ones(11))
        assert not margin_membership(EO_AWARE, params, 0.5, coords, 0.49).any()
        coords = (np.linspace(0.0, 1.0, 11), np.full(11, 0.25))
        assert margin_membership(EO_AWARE, params, 0.5, coords, 0.49).all()


class TestGeometryFor:
    def test_dispatch(self):
        """Each setting's membership reads that setting's own score: a
        point on one boundary is in the margin of that setting only."""
        params = FairnessParams(lam=1.0, c=0.5, c_bar=0.5)
        pi, eps = 0.5, 0.01
        on_boundary = {
            # u = eta_bar = 0.25: eo-blind coefficient 1 - 2 * (0.25 - 0.5) = 1.5
            EO_BLIND: ([0.5 / 1.5], [0.25]),
            # dpar-blind: eta = c + lam (eta_bar - c_bar) = 0.75
            DPAR_BLIND: ([0.75], [0.75]),
            # eo-aware group -1: coefficient 1 + 2 * 0.5 = 2, threshold 0.25
            EO_AWARE: ([0.25], [0.5]),
            # dpar-aware group +1: threshold c - lam c_bar + lam = 1
            DPAR_AWARE: ([0.5], [1.0]),
        }
        for point_setting, coords in on_boundary.items():
            for setting in SETTINGS:
                got = bool(margin_membership(setting, params, pi, coords, eps)[0])
                assert got == (setting == point_setting), (point_setting, setting)

    def test_eo_requires_pi(self):
        params = FairnessParams(lam=1.0, c=0.5, c_bar=0.5)
        for setting in (EO_BLIND, EO_AWARE):
            with pytest.raises(ValidationError, match="requires pi"):
                margin_membership(setting, params, None, ([0.5], [0.5]), 0.05)
        with pytest.raises(ValidationError, match="requires pi"):
            raster(EO_BLIND, params, None, 5, 0.05)
        with pytest.raises(ValidationError, match="unknown setting"):
            margin_membership("parity", params, None, ([0.5], [0.5]), 0.05)


class TestChunkedMembership:
    @pytest.mark.parametrize("setting", SETTINGS)
    def test_chunked_mask_is_the_one_shot_mask(self, monkeypatch, setting):
        # Dyadic parameters and a 1/16 lattice put many box corners exactly
        # on the boundary, so the exact re-decision runs in several chunks.
        params, pi, eps = FairnessParams(lam=1.0, c=0.5, c_bar=0.5), 0.5, 0.0625
        lattice = np.arange(17) / 16
        first, second = (axis.ravel() for axis in np.meshgrid(lattice, lattice))
        random_first, random_second = uniform_square(3, 200)
        coords = (np.concatenate([first, random_first]), np.concatenate([second, random_second]))
        corners = [
            setting_score(setting, coords[0] + da, coords[1] + db, pi, 1.0, 0.5, 0.5)
            for da in (-eps, eps)
            for db in ((0.0,) if setting in (EO_AWARE, DPAR_AWARE) else (-eps, eps))
        ]
        assert (np.stack(corners) == 0.0).any()
        monkeypatch.setattr(geometry, "_MEMBERSHIP_CHUNK", coords[0].size)
        one_shot = margin_membership(setting, params, pi, coords, eps)
        monkeypatch.setattr(geometry, "_MEMBERSHIP_CHUNK", 7)
        chunked = margin_membership(setting, params, pi, coords, eps)
        assert one_shot.any() and not one_shot.all()
        assert chunked.tolist() == one_shot.tolist()
        square_coords = (first.reshape(17, 17), second.reshape(17, 17))
        square = margin_membership(setting, params, pi, square_coords, eps)
        assert square.shape == (17, 17)
        assert square.ravel().tolist() == one_shot[: first.size].tolist()


class TestRasterExport:
    def test_layout_and_margin_column(self):
        flat = FairnessParams(lam=0.0, c=0.5, c_bar=0.5)
        columns, mask = raster(DPAR_BLIND, flat, None, 5, 0.05)
        assert mask.shape == (5, 5) and mask.dtype == bool
        assert all(column.shape == (25,) for column in columns)
        for u, v, sign, flag in zip(*(column.tolist() for column in columns)):
            assert sign in (-1, 0, 1) and isinstance(sign, int)
            expected = abs(v - 0.55) <= 1e-12 or abs(v - 0.45) <= 1e-12 or 0.45 < v < 0.55
            assert flag == int(expected)
        # the mask is the in_margin column, in row order
        assert mask.ravel().astype(int).tolist() == columns[3].tolist()

    @pytest.mark.parametrize("setting,params,pi", [
        (EO_BLIND, FairnessParams(-3.6, 0.8, 0.9), 0.85),
        (DPAR_BLIND, FairnessParams(1.0, 0.8, 0.9), None),
    ])
    def test_boundary_polyline_is_on_the_zero_set(self, setting, params, pi):
        axis = np.linspace(0.0, 1.0, 41)
        points = boundary_polyline(setting, params, pi, axis)
        assert points
        for u, v in points:
            assert u in axis and 0.0 <= v <= 1.0
            value = setting_score(setting, v, u, pi, params.lam, params.c, params.c_bar)
            assert abs(float(value)) <= 1e-12

    def test_validation(self):
        flat = FairnessParams(lam=0.0, c=0.5, c_bar=0.5)
        with pytest.raises(ValidationError, match="at least 2"):
            raster(DPAR_BLIND, flat, None, 1, 0.05)
        for setting in (EO_AWARE, DPAR_AWARE):
            with pytest.raises(ValidationError, match="blind settings only"):
                raster(setting, flat, 0.5, 5, 0.05)
