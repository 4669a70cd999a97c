"""Boundary geometry, margin membership, and finite-sample constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairplug.core import DistStats, FairnessParams
from fairplug.cpe import predict_proba
from fairplug.errors import ValidationError
from fairplug.geometry import (
    BoundaryLine,
    BoundConstants,
    Hyperbola,
    ThresholdPair,
    asymptote_x,
    bound_constants,
    boundary_score,
    dpar_aware_thresholds,
    eo_aware_thresholds,
    estimate_margin_mass,
    geometry_for,
    in_threshold_margin,
    margin_membership,
    plugin_proxy_sampler,
    square_intersects_hyperbola,
    square_intersects_line,
    write_raster_csv,
)
from fairplug.plugin import (
    DPAR_AWARE,
    DPAR_BLIND,
    EO_AWARE,
    EO_BLIND,
    FitConfig,
    fit_plugin,
    score_dpar_aware,
    score_eo_aware,
)

from oracles import dense_square_intersects, hyperbola_value, line_value
from test_plugin import make_dataset

UNIT = st.floats(0.0, 1.0, allow_nan=False)


def uniform_square(rng, count):
    return rng.random(count), rng.random(count)


class TestBoundaryObjects:
    def test_parameter_validation(self):
        with pytest.raises(ValidationError, match="lam"):
            Hyperbola(lam=float("nan"), pi=0.5, c=0.5, c_bar=0.5)
        with pytest.raises(ValidationError, match="pi"):
            Hyperbola(lam=1.0, pi=0.0, c=0.5, c_bar=0.5)
        with pytest.raises(ValidationError, match="c "):
            BoundaryLine(lam=1.0, c=1.0, c_bar=0.5)
        Hyperbola(lam=0.0, pi=1.0, c=0.5, c_bar=0.5)  # lam = 0 and pi = 1 both legal

    def test_threshold_pair_setting_tag(self):
        ThresholdPair(t_minus=0.2, t_plus=1.4, setting=EO_AWARE)
        with pytest.raises(ValidationError, match="setting"):
            ThresholdPair(t_minus=0.2, t_plus=0.4, setting=EO_BLIND)
        with pytest.raises(ValidationError, match="finite"):
            ThresholdPair(t_minus=float("inf"), t_plus=0.4, setting=DPAR_AWARE)

    def test_bound_constants_invariant(self):
        BoundConstants(delta_prime=0.1, margin_mass=0.2, b_const=0.3, g_const=1.0, q_const=0.5)
        with pytest.raises(ValidationError, match="b_const"):
            BoundConstants(
                delta_prime=0.1, margin_mass=0.2, b_const=0.4, g_const=1.0, q_const=0.5
            )


class TestBoundaryScore:
    def test_hand_values(self):
        h = Hyperbola(lam=1.0, pi=0.5, c=0.5, c_bar=0.5)
        assert boundary_score(h, 0.0, 0.25) == pytest.approx(0.0)
        assert boundary_score(h, 0.5, 0.5) == pytest.approx(2 * 0.5 - 2 * 0.25 - 0.5)
        line = BoundaryLine(lam=2.0, c=0.5, c_bar=0.3)
        assert boundary_score(line, 0.3, 0.5) == pytest.approx(0.0)

    def test_matches_independent_transcription(self):
        gen = np.random.default_rng(3)
        u, v = gen.random(50), gen.random(50)
        h = Hyperbola(lam=-2.2, pi=0.7, c=0.35, c_bar=0.6)
        line = BoundaryLine(lam=-2.2, c=0.35, c_bar=0.6)
        assert boundary_score(h, u, v) == pytest.approx(
            hyperbola_value(-2.2, 0.7, 0.35, 0.6, u, v), abs=1e-14
        )
        assert boundary_score(line, u, v) == pytest.approx(
            line_value(-2.2, 0.35, 0.6, u, v), abs=1e-14
        )

    def test_rejects_other_types(self):
        pair = dpar_aware_thresholds(FairnessParams(1.0, 0.5, 0.5))
        with pytest.raises(ValidationError, match="Hyperbola or BoundaryLine"):
            boundary_score(pair, 0.5, 0.5)


class TestAsymptote:
    def test_formula(self):
        h = Hyperbola(lam=0.4, pi=0.85, c=0.5, c_bar=0.9)
        assert asymptote_x(h) == pytest.approx(0.9 + 0.85 / 0.4)

    def test_lambda_zero_has_none(self):
        with pytest.raises(ValidationError, match="horizontal line"):
            asymptote_x(Hyperbola(lam=0.0, pi=0.5, c=0.5, c_bar=0.5))


class TestSquareIntersection:
    def test_horizontal_line_distance(self):
        line = BoundaryLine(lam=0.0, c=0.5, c_bar=0.5)
        eps = 0.05
        assert square_intersects_line(line, (0.3, 0.5 + eps), eps)  # touching counts
        assert square_intersects_line(line, (0.3, 0.5 - eps), eps)
        assert not square_intersects_line(line, (0.3, 0.5 + 1.01 * eps), eps)
        degenerate = Hyperbola(lam=0.0, pi=0.5, c=0.5, c_bar=0.5)
        assert square_intersects_hyperbola(degenerate, (0.9, 0.52), 0.05)
        assert not square_intersects_hyperbola(degenerate, (0.9, 0.58), 0.05)

    def test_type_and_eps_validation(self):
        line = BoundaryLine(lam=1.0, c=0.5, c_bar=0.5)
        h = Hyperbola(lam=1.0, pi=0.5, c=0.5, c_bar=0.5)
        with pytest.raises(ValidationError, match="Hyperbola"):
            square_intersects_hyperbola(line, (0.5, 0.5), 0.05)
        with pytest.raises(ValidationError, match="BoundaryLine"):
            square_intersects_line(h, (0.5, 0.5), 0.05)
        for bad_eps in (0.0, 0.5, -0.1):
            with pytest.raises(ValidationError, match="eps"):
                square_intersects_line(line, (0.5, 0.5), bad_eps)

    @given(
        st.floats(-3.0, 3.0),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
        UNIT,
        UNIT,
        st.floats(0.01, 0.2),
    )
    @settings(max_examples=80)
    def test_line_matches_interval_oracle(self, lam, c, c_bar, u0, v0, eps):
        """Affine case has an exact independent check: map the u-interval
        through the line and intersect with the v-interval."""
        line = BoundaryLine(lam=lam, c=c, c_bar=c_bar)
        ends = [lam * u - lam * c_bar + c for u in (u0 - eps, u0 + eps)]
        lo, hi = min(ends), max(ends)
        expected = (lo <= v0 + eps) and (hi >= v0 - eps)
        assert square_intersects_line(line, (u0, v0), eps) == expected

    def test_spot_agreement_with_dense_oracle(self):
        gen = np.random.default_rng(42)
        for _ in range(15):
            lam = float(gen.uniform(-3, 3))
            pi = float(gen.uniform(0.2, 0.9))
            c = float(gen.uniform(0.1, 0.9))
            c_bar = float(gen.uniform(0.1, 0.9))
            center = (float(gen.random()), float(gen.random()))
            eps = float(gen.uniform(0.02, 0.15))
            h = Hyperbola(lam=lam, pi=pi, c=c, c_bar=c_bar)
            line = BoundaryLine(lam=lam, c=c, c_bar=c_bar)
            hit_h, _ = dense_square_intersects(
                lambda uu, vv: hyperbola_value(lam, pi, c, c_bar, uu, vv), center, eps
            )
            hit_l, _ = dense_square_intersects(
                lambda uu, vv: line_value(lam, c, c_bar, uu, vv), center, eps
            )
            assert square_intersects_hyperbola(h, center, eps) == hit_h
            assert square_intersects_line(line, center, eps) == hit_l


class TestThresholdMargin:
    def test_closed_boundary(self):
        # dyadic values so the distance comparison is exact
        assert in_threshold_margin(0.5, 0.625, 0.125)
        assert not in_threshold_margin(0.5, 0.6251, 0.125)
        values = np.array([0.25, 0.375, 0.75])
        assert in_threshold_margin(0.5, values, 0.125).tolist() == [False, True, False]

    def test_validation(self):
        with pytest.raises(ValidationError, match="eps"):
            in_threshold_margin(0.5, 0.5, 0.0)
        with pytest.raises(ValidationError, match="t must be finite"):
            in_threshold_margin(float("nan"), 0.5, 0.1)


class TestMarginMembership:
    def test_threshold_pair_is_union_of_branches(self):
        pair = ThresholdPair(t_minus=0.25, t_plus=0.75, setting=DPAR_AWARE)
        v_minus = np.array([0.25, 0.9, 0.5])
        v_plus = np.array([0.1, 0.74, 0.5])
        got = margin_membership(pair, (v_minus, v_plus), 0.05)
        assert got.tolist() == [True, True, False]

    def test_shape_mismatch(self):
        line = BoundaryLine(lam=1.0, c=0.5, c_bar=0.5)
        with pytest.raises(ValidationError, match="share a shape"):
            margin_membership(line, (np.zeros(3), np.zeros(2)), 0.05)

    def test_unsupported_geometry(self):
        with pytest.raises(ValidationError, match="unsupported"):
            margin_membership(object(), (np.zeros(2), np.zeros(2)), 0.05)


class TestMarginMass:
    def test_deterministic_per_plan(self):
        line = BoundaryLine(lam=0.0, c=0.5, c_bar=0.5)
        a = estimate_margin_mass(uniform_square, line, 0.05, 4000, seed=7, shards=4)
        b = estimate_margin_mass(uniform_square, line, 0.05, 4000, seed=7, shards=4)
        assert a == b

    def test_uniform_mass_near_two_eps(self):
        line = BoundaryLine(lam=0.0, c=0.5, c_bar=0.5)
        mass, se = estimate_margin_mass(uniform_square, line, 0.05, 20000, seed=11)
        assert abs(mass - 0.1) <= 4 * se + 1e-9

    def test_threshold_pair_mass(self):
        pair = ThresholdPair(t_minus=0.25, t_plus=0.75, setting=EO_AWARE)
        mass, se = estimate_margin_mass(uniform_square, pair, 0.05, 20000, seed=13)
        assert abs(mass - 0.19) <= 4 * se + 1e-9

    def test_bad_inputs(self):
        line = BoundaryLine(lam=0.0, c=0.5, c_bar=0.5)
        with pytest.raises(ValidationError, match="positive"):
            estimate_margin_mass(uniform_square, line, 0.05, 0, seed=1)
        with pytest.raises(ValidationError, match="shards"):
            estimate_margin_mass(uniform_square, line, 0.05, 10, seed=1, shards=11)

        def short_sampler(rng, count):
            return rng.random(count - 1), rng.random(count - 1)

        with pytest.raises(ValidationError, match="sampler returned"):
            estimate_margin_mass(short_sampler, line, 0.05, 10, seed=1)


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
    def test_eo_thresholds_zero_the_score(self):
        params = FairnessParams(lam=0.4, c=0.3, c_bar=0.5)
        pair = eo_aware_thresholds(params, pi=0.5)
        lcc = (params.lam, params.c, params.c_bar)
        assert score_eo_aware(pair.t_minus, -1.0, 0.5, *lcc) == pytest.approx(0.0, abs=1e-15)
        assert score_eo_aware(pair.t_plus, 1.0, 0.5, *lcc) == pytest.approx(0.0, abs=1e-15)

    def test_dpar_thresholds_zero_the_score(self):
        params = FairnessParams(lam=0.6, c=0.5, c_bar=0.4)
        pair = dpar_aware_thresholds(params)
        lcc = (params.lam, params.c, params.c_bar)
        assert 0.0 <= pair.t_minus <= 1.0 and 0.0 <= pair.t_plus <= 1.0
        assert score_dpar_aware(pair.t_minus, -1.0, *lcc) == pytest.approx(0.0, abs=1e-15)
        assert score_dpar_aware(pair.t_plus, 1.0, *lcc) == pytest.approx(0.0, abs=1e-15)

    def test_vanishing_coefficient_rejected(self):
        with pytest.raises(ValidationError, match="no finite"):
            eo_aware_thresholds(FairnessParams(lam=-1.0, c=0.5, c_bar=0.5), pi=0.5)


class TestGeometryFor:
    def test_dispatch(self):
        params = FairnessParams(lam=0.4, c=0.5, c_bar=0.5)
        assert isinstance(geometry_for(EO_BLIND, params, pi=0.5), Hyperbola)
        assert isinstance(geometry_for(DPAR_BLIND, params), BoundaryLine)
        assert isinstance(geometry_for(EO_AWARE, params, pi=0.5), ThresholdPair)
        assert isinstance(geometry_for(DPAR_AWARE, params), ThresholdPair)

    def test_eo_requires_pi(self):
        params = FairnessParams(lam=1.0, c=0.5, c_bar=0.5)
        for setting in (EO_BLIND, EO_AWARE):
            with pytest.raises(ValidationError, match="requires pi"):
                geometry_for(setting, params)
        with pytest.raises(ValidationError, match="unknown setting"):
            geometry_for("parity", params)


class TestPluginProxySampler:
    def test_blind_coordinates_are_estimates(self):
        train = make_dataset(seed=21)
        rule = fit_plugin(
            train, DPAR_BLIND, FairnessParams(1.0, 0.5, 0.5), FitConfig(seed=2)
        )
        sampler = plugin_proxy_sampler(rule, train.features)
        rng = np.random.default_rng(5)
        u, v = sampler(rng, 40)
        assert u.shape == v.shape == (40,)
        # replaying the stream recovers which rows were drawn
        rows = train.features[np.random.default_rng(5).integers(0, len(train.features), 40)]
        assert u == pytest.approx(predict_proba(rule.eta_bar, rows))
        assert v == pytest.approx(predict_proba(rule.eta, rows))

    def test_aware_coordinates_are_branch_estimates(self):
        train = make_dataset(seed=22)
        rule = fit_plugin(
            train, DPAR_AWARE, FairnessParams(1.0, 0.5, 0.5), FitConfig(seed=2)
        )
        sampler = plugin_proxy_sampler(rule, train.features)
        v_minus, v_plus = sampler(np.random.default_rng(6), 25)
        rows = train.features[np.random.default_rng(6).integers(0, len(train.features), 25)]
        minus_inputs = np.hstack([rows, -np.ones((25, 1))])
        plus_inputs = np.hstack([rows, np.ones((25, 1))])
        assert v_minus == pytest.approx(predict_proba(rule.eta, minus_inputs))
        assert v_plus == pytest.approx(predict_proba(rule.eta, plus_inputs))

    def test_empty_features_rejected(self):
        train = make_dataset(seed=23)
        rule = fit_plugin(
            train, DPAR_BLIND, FairnessParams(1.0, 0.5, 0.5), FitConfig(seed=2)
        )
        with pytest.raises(ValidationError, match="nonempty"):
            plugin_proxy_sampler(rule, np.empty((0, 2)))


class TestRasterExport:
    def test_layout_and_margin_column(self, tmp_path):
        line = BoundaryLine(lam=0.0, c=0.5, c_bar=0.5)
        path = tmp_path / "raster.csv"
        count = write_raster_csv(line, 5, 0.05, path)
        assert count == 25
        lines = path.read_text().splitlines()
        assert lines[0] == "u,v,sign,in_margin"
        assert len(lines) == 26
        rows = [line.split(",") for line in lines[1:]]
        for u, v, sign, flag in rows:
            assert int(sign) in (-1, 0, 1)
            expected = abs(float(v) - 0.55) <= 1e-12 or abs(float(v) - 0.45) <= 1e-12
            expected = expected or (0.45 < float(v) < 0.55)
            assert int(flag) == int(expected)

    def test_validation(self, tmp_path):
        line = BoundaryLine(lam=0.0, c=0.5, c_bar=0.5)
        with pytest.raises(ValidationError, match="at least 2"):
            write_raster_csv(line, 1, 0.05, tmp_path / "x.csv")
        pair = dpar_aware_thresholds(FairnessParams(1.0, 0.5, 0.5))
        with pytest.raises(ValidationError, match="square geometries"):
            write_raster_csv(pair, 5, 0.05, tmp_path / "x.csv")
