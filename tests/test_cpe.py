"""Class-probability estimation: objective gradient, fit, prediction."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairplug import data
from fairplug.core import Dataset
from fairplug.cpe import (
    ARITY_FEATURES,
    ARITY_FEATURES_PLUS_LABEL,
    ARITY_FEATURES_PLUS_SENSITIVE,
    FitConfig,
    LinearCpe,
    _DIRECT_MAX_WIDTH,
    _HESSIAN_BLOCK,
    _hessian,
    _margins,
    _objective_and_grad,
    _weighted_columns,
    fit,
    fit_estimator,
    predict_proba,
    sigmoid,
)
from fairplug.errors import DegenerateDataError, NumericError, ValidationError

import oracles
from oracles import finite_difference_grad


def test_sigmoid_extremes_and_midpoint():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(800.0) == 1.0  # saturates without overflow
    assert sigmoid(-800.0) == 0.0
    assert sigmoid(np.array([-1.0, 1.0])).shape == (2,)
    assert sigmoid(2.0) == pytest.approx(1.0 / (1.0 + np.exp(-2.0)), abs=1e-15)


def assert_same_bits(got, want):
    """Equal bit patterns, except that any NaN matches any NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def assert_within_ulps(got: float, want: float, ulps: int):
    """At most ``ulps`` units in the last place apart; non-finite values of one class."""
    if not math.isfinite(want):
        assert math.isnan(got) if math.isnan(want) else got == want
        return
    assert math.isfinite(got)

    def ordinal(value: float) -> int:  # consecutive doubles have consecutive ordinals
        bits = int(np.float64(value).view(np.int64))
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)

    assert abs(ordinal(got) - ordinal(want)) <= ulps, (got, want)


#: The objective's loss is ``max(-m, 0) + log1p(e)``, the oracle's is
#: ``logaddexp(0, -m)``: the same formula through different exp/log1p code.
OBJECTIVE_ULPS = 4


# Every float64 class: signed zeros, subnormals, the overflow edge of exp
# (|z| near 709.78), the underflow edge (exp(-745) is the last subnormal)
# and beyond it, infinities and NaN.
_EDGES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 709.78, -709.78, 745.0, -745.0,
    745.2, -745.2, 800.0, -800.0, math.inf, -math.inf, math.nan,
)
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(_EDGES)


class TestSigmoidBitExact:
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=40), elements=_ANY_FLOAT))
    @settings(max_examples=200)
    def test_array_matches_two_branch_oracle(self, z):
        assert_same_bits(sigmoid(z), oracles.sigmoid(z))

    @given(_ANY_FLOAT)
    def test_scalar_returns_float_matching_oracle(self, z):
        for scalar in (z, np.float64(z), np.array(z)):
            got = sigmoid(scalar)
            assert type(got) is float
            assert_same_bits(got, oracles.sigmoid(z))

    def test_strided_view_matches_oracle(self):
        z = np.linspace(-800.0, 800.0, 4001)[::3]
        assert_same_bits(sigmoid(z), oracles.sigmoid(z))


@pytest.mark.parametrize("n_columns", [0, 1, 2])
def test_weighted_columns_are_the_stacked_design_times_the_factor(n_columns):
    # the Hessian's buffer values: the rows, the columns, then the intercept, scaled
    gen = np.random.default_rng(11)
    rows, columns = gen.normal(size=(7, 3)), [gen.normal(size=7) for _ in range(n_columns)]
    factor = gen.random(7)
    got = _weighted_columns(rows, columns, factor, 2, np.empty((4 + n_columns, 4)))
    stacked = np.hstack([rows, *(column[:, None] for column in columns), np.ones((7, 1))])
    assert_same_bits(got, (stacked[2:6] * factor[2:6, None]).T)


class TestAllocations:
    """tracemalloc peaks of the logistic kernels, in units of one per-row vector."""

    @staticmethod
    def peak_bytes(function, *args):
        tracemalloc.start()
        try:
            function(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sigmoid_peak(self):
        # The masked select held |z|, exp, the mask, the selected numerator
        # and the quotient at once (3.0x).
        z = np.random.default_rng(0).normal(size=50_000) * 5.0
        assert self.peak_bytes(sigmoid, z) <= 2.5 * z.nbytes

    def test_objective_and_grad_peak(self):
        # The fresh-array evaluation peaked at 7.0x.
        gen = np.random.default_rng(1)
        n = 16_384
        rows, columns = gen.normal(size=(n, 2)), [np.where(gen.random(n) < 0.5, -0.5, 0.5)]
        targets = np.where(gen.random(n) < 0.5, -1.0, 1.0)
        w = gen.normal(size=4)
        peak = self.peak_bytes(_objective_and_grad, w, rows, columns, targets, 0.1)
        assert peak <= 6 * n * 8

    def test_hessian_peak(self):
        # (X' * c) @ X held a design-sized product (8.0x a per-row vector
        # per column); the blocked Gram form holds one block of rows.
        gen = np.random.default_rng(2)
        n = 20_000
        rows, columns = gen.normal(size=(n, 50)), [gen.normal(size=n)]
        p = gen.random(n)
        peak = self.peak_bytes(_hessian, p, rows, columns, 0.1)
        assert peak <= 8 * _HESSIAN_BLOCK + 2 * p.nbytes


    def test_finiteness_check_holds_no_cell_sized_mask(self):
        # np.isfinite of the whole input held one byte per entry (1.6 MB here).
        gen = np.random.default_rng(3)
        rows, column = gen.normal(size=(31_500, 51)), np.ones(31_500)
        rows[-1, -1] = np.nan
        targets = np.where(gen.random(31_500) < 0.5, -1.0, 1.0)

        def rejected():
            with pytest.raises(ValidationError, match="non-finite"):
                fit(rows, targets, FitConfig(), column)

        assert self.peak_bytes(rejected) <= rows.size // 4


class TestHessian:
    @staticmethod
    def pieces(gen, n, width):
        """Rows and at most one column that make a design ``width`` wide with its intercept."""
        columns = [np.where(gen.random(n) < 0.5, -0.5, 0.5)] if width > 1 else []
        return gen.normal(size=(n, width - 1 - len(columns))), columns

    @pytest.mark.parametrize("k", [1, 3, _DIRECT_MAX_WIDTH + 1, 52])
    @pytest.mark.parametrize("past_block", [-1, 0, 1])
    def test_matches_the_dense_form(self, k, past_block):
        # n just below, at and one row past a block of weighted rows.
        n = _HESSIAN_BLOCK // k + past_block
        gen = np.random.default_rng(k + past_block)
        rows, columns = self.pieces(gen, n, k)
        design = np.hstack([rows, *(column[:, None] for column in columns), np.ones((n, 1))])
        p = gen.random(n)
        hessian = _hessian(p, rows, columns, 0.25)
        # X' diag(p(1-p)) X, without the n x n diagonal matrix.  An entry that
        # cancels to near 0 carries the rounding of its terms, so the
        # tolerance is relative to the sum of the terms' magnitudes.
        curvature = (p * (1.0 - p))[:, None]
        want = (design * curvature).T @ design / n + 0.25 * np.eye(k)
        magnitude = (np.abs(design) * curvature).T @ np.abs(design) / n + 0.25 * np.eye(k)
        assert np.all(np.abs(hessian - want) <= 1e-12 * magnitude)
        if k > _DIRECT_MAX_WIDTH:
            # the Gram form of the stacked design's weighted blocks, bit for bit
            weighted = design * np.sqrt(curvature)
            step = _HESSIAN_BLOCK // k
            gram = np.zeros((k, k))
            for start in range(0, n, step):
                gram += weighted[start : start + step].T @ weighted[start : start + step]
            assert hessian.tobytes() == (gram / n + 0.25 * np.eye(k)).tobytes()
            assert np.array_equal(hessian, hessian.T)


class TestLinearCpe:
    def test_validation(self):
        with pytest.raises(ValidationError, match="length >= 2"):
            LinearCpe(np.array([1.0]), 0.0, ARITY_FEATURES)
        with pytest.raises(ValidationError, match="arity"):
            LinearCpe(np.array([1.0, 2.0]), 0.0, "bogus")
        with pytest.raises(ValidationError, match="lambda_reg"):
            LinearCpe(np.array([1.0, 2.0]), -0.5, ARITY_FEATURES)

    def test_weights_frozen_and_in_dim(self):
        model = LinearCpe(np.array([1.0, -2.0, 0.5]), 0.1, ARITY_FEATURES)
        assert model.in_dim == 2
        with pytest.raises(ValueError):
            model.weights[0] = 0.0


class TestObjectiveGradient:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_gradient_matches_finite_differences(self, case_seed):
        gen = np.random.default_rng(case_seed)
        n, d = 12, 3
        rows = gen.normal(size=(n, d))
        targets = np.where(gen.random(n) < 0.5, -1.0, 1.0)
        if abs(targets.sum()) == n:  # single class: flip one
            targets[0] = -targets[0]
        columns = [rows[:, -1]]
        rows = rows[:, :-1]
        lam = float(gen.uniform(0.0, 0.5))
        w0 = gen.normal(size=d + 1)

        _, grad, _ = _objective_and_grad(w0, rows, columns, targets, lam)
        numeric = finite_difference_grad(
            lambda w: _objective_and_grad(w, rows, columns, targets, lam)[0], w0
        )
        assert np.allclose(grad, numeric, atol=5e-6)

    def test_regularizer_includes_intercept(self):
        rows = np.array([[1.0], [-1.0]])
        targets = np.array([1.0, -1.0])
        w = np.array([0.0, 3.0])  # all of the weight sits on the intercept
        # margins t * (w . [x; 1]) are +3 and -3
        mean_loss = (math.log1p(math.exp(-3.0)) + math.log1p(math.exp(3.0))) / 2.0
        lam = 0.5
        obj, _, _ = _objective_and_grad(w, rows, [], targets, lam)
        assert obj == pytest.approx(mean_loss + 0.5 * lam * 9.0, rel=1e-14)

    @given(st.integers(0, 10_000), st.sampled_from([0.0, 1.0, 50.0, 1e3]))
    @settings(max_examples=40)
    def test_shared_link_matches_two_sigmoid_oracle_bit_for_bit(self, case_seed, scale):
        # scale 0 puts every margin at exactly 0; 1e3 pushes margins past
        # the range where exp(-|z|) is representable.
        gen = np.random.default_rng(case_seed)
        n, d = 30, 3
        rows, columns = gen.normal(size=(n, d - 1)), [np.where(gen.random(n) < 0.5, -0.5, 0.5)]
        targets = np.where(gen.random(n) < 0.5, -1.0, 1.0)
        w = gen.normal(size=d + 1) * scale
        lam = float(gen.uniform(0.0, 0.5))

        _, grad, p = _objective_and_grad(w, rows, columns, targets, lam)
        z = _margins(w, rows, columns)
        assert_same_bits(p, oracles.sigmoid(z))
        coef = -targets * oracles.sigmoid(-(targets * z))
        pieces = [*(rows.T @ coef), columns[0] @ coef, coef.sum()]
        assert_same_bits(grad, np.array(pieces) / n + lam * w)

    @given(
        hnp.arrays(np.float64, st.integers(1, 40), elements=_ANY_FLOAT),
        st.data(),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    def test_matches_masked_select_oracle_at_every_float_class(self, z, data, lam):
        # One row column, a unit weight and a -0 intercept (x + -0 is x) make
        # the margins z, so they reach every edge class; on one row that
        # includes exact zeros of both signs.
        targets = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=z.size,
                                              max_size=z.size)))
        rows, w = z[:, None], np.array([1.0, -0.0])
        with np.errstate(all="ignore"):
            obj, grad, p = _objective_and_grad(w, rows, [], targets, lam)
            want_obj, want_grad, want_p = oracles.objective_and_grad(w, rows, [], targets, lam)
        assert_same_bits(grad, want_grad)
        assert_same_bits(p, want_p)
        assert_within_ulps(obj, want_obj, OBJECTIVE_ULPS)

    @given(st.integers(0, 10_000), st.sampled_from([0.0, 1.0, 50.0, 1e3]))
    @settings(max_examples=40)
    def test_matches_masked_select_oracle_on_random_designs(self, case_seed, scale):
        gen = np.random.default_rng(case_seed)
        rows, columns = gen.normal(size=(30, 2)), [gen.normal(size=30)]
        targets = np.where(gen.random(30) < 0.5, -1.0, 1.0)
        w = gen.normal(size=4) * scale
        obj, grad, p = _objective_and_grad(w, rows, columns, targets, 0.25)
        want_obj, want_grad, want_p = oracles.objective_and_grad(w, rows, columns, targets, 0.25)
        assert_same_bits(grad, want_grad)
        assert_same_bits(p, want_p)
        assert_within_ulps(obj, want_obj, OBJECTIVE_ULPS)

    def test_fits_take_the_oracle_objectives_steps(self, monkeypatch):
        # The objective only gates the Armijo test, so its last-ulp
        # differences from the oracle must not change a single step.
        def outcomes() -> list:
            results = []
            for seed in range(240):
                gen = np.random.default_rng(seed)
                n, d = int(gen.integers(20, 200)), int(gen.integers(1, 5))
                x = gen.normal(size=(n, d)) * (0.1, 1.0, 10.0)[seed % 3]
                if seed % 4 == 0:  # separable: the first feature decides the label
                    y = np.where(x[:, 0] > 0, 1.0, -1.0)
                else:
                    y = np.where(gen.random(n) < sigmoid(x @ gen.normal(size=d)), 1.0, -1.0)
                if np.all(y == y[0]):
                    y[0] = -y[0]
                lam = (0.0, 1e-4, 1e-2, 1.0, 0.0)[seed % 5]
                try:
                    model = fit(x, y, FitConfig(lambda_reg=lam, max_iters=60))
                except NumericError as exc:
                    results.append(str(exc))
                    continue
                results.append((model.weights.tobytes(), model.grad_norm, model.n_iters))
            return results

        production = outcomes()
        monkeypatch.setattr("fairplug.cpe._objective_and_grad", oracles.objective_and_grad)
        assert outcomes() == production


class TestFit:
    def test_input_validation(self):
        config = FitConfig()
        with pytest.raises(ValidationError, match="2-D"):
            fit(np.zeros(3), np.ones(3), config)
        with pytest.raises(ValidationError, match="targets shape"):
            fit(np.zeros((3, 1)), np.ones(2), config)
        with pytest.raises(ValidationError, match="-1 or \\+1"):
            fit(np.zeros((2, 1)), np.array([1.0, 0.0]), config)
        with pytest.raises(DegenerateDataError, match="single class"):
            fit(np.zeros((2, 1)), np.array([1.0, 1.0]), config)
        with pytest.raises(ValidationError, match="non-finite"):
            fit(np.array([[0.0], [np.inf]]), np.array([1.0, -1.0]), config)
        with pytest.raises(ValidationError, match="non-finite"):
            fit(np.zeros((2, 1)), np.array([1.0, -1.0]), config, np.array([0.0, np.nan]))
        with pytest.raises(ValidationError, match="extra columns"):
            fit(np.zeros((2, 1)), np.array([1.0, -1.0]), config, np.zeros(3))

    @pytest.mark.parametrize("lambda_reg", [1e-2, 1e-4])
    def test_one_class_is_allowed_only_when_regularized(self, lambda_reg):
        gen = np.random.default_rng(4)
        x, y = gen.uniform(-0.5, 0.5, size=(40, 2)), np.ones(40)
        model = fit(x, y, FitConfig(lambda_reg=lambda_reg), allow_one_class=True)
        assert model.converged
        assert np.all(predict_proba(model, x) > 0.5)
        with pytest.raises(DegenerateDataError, match="single class"):
            fit(x, y, FitConfig(lambda_reg=0.0), allow_one_class=True)

    @pytest.mark.parametrize("k", [6, 50], ids=["direct hessian", "gram hessian"])
    def test_fit_scores_its_rows_as_predict_proba_does(self, monkeypatch, k):
        # The fit's link values come from the margin helper predict_proba
        # calls, so at the weights it returns they are predict_proba's bits.
        gen = np.random.default_rng(9)
        x = gen.normal(size=(120, k))
        column = np.where(gen.random(120) < 0.5, -0.5, 0.5)
        y = np.where(gen.random(120) < sigmoid(x[:, 0] + column), 1.0, -1.0)
        evaluations = []

        def objective(w, *args):
            result = _objective_and_grad(w, *args)
            evaluations.append((w, result[2].copy()))
            return result

        monkeypatch.setattr("fairplug.cpe._objective_and_grad", objective)
        model = fit(x, y, FitConfig(lambda_reg=1e-3, tolerance=1e-10), column)
        w, p = next((w, p) for w, p in reversed(evaluations) if np.array_equal(w, model.weights))
        assert_same_bits(p, predict_proba(model, x, column))
        assert_same_bits(p, oracles.sigmoid(_margins(w, x, [column])))

    def test_recovers_planted_logistic_probabilities(self):
        gen = np.random.default_rng(3)
        w_true = np.array([1.5, -2.0, 0.4])
        x = gen.uniform(-1, 1, size=(6000, 2))
        p = sigmoid(x @ w_true[:2] + w_true[2])
        y = np.where(gen.random(6000) < p, 1.0, -1.0)
        model = fit(x, y, FitConfig(lambda_reg=1e-4, max_iters=2000, tolerance=1e-8))
        grid = gen.uniform(-1, 1, size=(500, 2))
        fitted = predict_proba(model, grid)
        exact = sigmoid(grid @ w_true[:2] + w_true[2])
        assert float(np.max(np.abs(fitted - exact))) < 0.05

    def test_converged_fit_reports_small_gradient(self):
        gen = np.random.default_rng(4)
        x = gen.normal(size=(200, 2))
        y = np.where(gen.random(200) < 0.5, -1.0, 1.0)
        model = fit(x, y, FitConfig(lambda_reg=1e-2, tolerance=1e-8, max_iters=5000))
        assert model.grad_norm is not None and model.grad_norm <= 1e-8
        assert model.n_iters is not None and model.n_iters >= 1
        assert model.converged is True

    def test_iteration_cap_returns_partial_fit_with_residual(self):
        gen = np.random.default_rng(5)
        x = gen.normal(size=(300, 3))
        y = np.where(x[:, 0] > 0, 1.0, -1.0)
        model = fit(x, y, FitConfig(lambda_reg=1e-3, max_iters=2, tolerance=1e-12))
        assert model.n_iters == 2
        assert model.grad_norm > 1e-12
        assert model.converged is False

    def test_converges_where_the_objective_cannot_resolve_progress(self):
        # Features of scale 1e3 give curvature of order 1e5, so the last Newton
        # steps decrease the objective by less than its rounding error while
        # the gradient is still far above the tolerance.
        for seed in range(10):
            gen = np.random.default_rng(seed)
            x = gen.normal(size=(500, 5)) * 1e3
            y = np.where(gen.random(500) < sigmoid(x[:, 0] / 1e3), 1.0, -1.0)
            model = fit(x, y, FitConfig(lambda_reg=1e-2, tolerance=1e-10, max_iters=50))
            assert model.converged, (seed, model.grad_norm)

    def test_deterministic_for_fixed_inputs(self):
        gen = np.random.default_rng(6)
        x = gen.normal(size=(150, 2))
        y = np.where(gen.random(150) < 0.4, -1.0, 1.0)
        a = fit(x, y, FitConfig())
        b = fit(x, y, FitConfig())
        assert np.array_equal(a.weights, b.weights)


@pytest.fixture(scope="module")
def german_bounded(german_csv):
    """The German surrogate after the sweep's norm-bounding transform."""
    schema = data.load_schema(data.bundled_schema_path("german_gender"))
    dataset = data.load_csv_report(german_csv, schema)[0]
    return data.fit_dp_transform(dataset, np.arange(dataset.n))[1]


class TestNewtonConvergence:
    @pytest.mark.parametrize(("target", "arity"), [
        pytest.param("labels", ARITY_FEATURES, id="fit_eta"),
        pytest.param("sensitive", ARITY_FEATURES_PLUS_LABEL, id="fit_eta_bar_eo"),
    ])
    def test_small_lambda_converges_with_certificate(self, german_bounded, target, arity):
        lam = 1e-4
        first = fit_estimator(german_bounded, target, arity, FitConfig(lambda_reg=lam))
        assert first.converged and first.grad_norm <= 1e-6 and first.n_iters <= 20
        tight = fit_estimator(
            german_bounded, target, arity, FitConfig(lambda_reg=lam, tolerance=1e-12)
        )
        assert tight.converged and tight.n_iters <= 20
        # lambda-strong convexity puts each fit within grad_norm / lambda of
        # the one minimizer.
        gap = float(np.linalg.norm(first.weights - tight.weights))
        assert gap <= (first.grad_norm + tight.grad_norm) / lam

    @pytest.mark.parametrize("lam", [1e-2, 1e-4])
    @pytest.mark.parametrize("target", ["labels", "sensitive"])
    def test_direct_solve_matches_least_squares_newton(self, german_bounded, lam, target):
        # With lambda > 0 the Hessian is positive definite, so the direct
        # solve takes the least-squares Newton steps up to rounding.
        rows = german_bounded.features
        if target == "sensitive":
            rows = np.hstack([rows, german_bounded.labels[:, None]])
        targets = np.sign(getattr(german_bounded, target))
        model = fit(rows, targets, FitConfig(lambda_reg=lam))
        weights, iters = oracles.newton_fit_lstsq(rows, targets, lam)
        assert model.n_iters == iters
        assert np.linalg.norm(model.weights - weights) <= 1e-12 * np.linalg.norm(weights)

    def test_zero_lambda_with_singular_hessian(self, german_bounded):
        # The standardized one-hot columns and the intercept are collinear,
        # so at lambda = 0 the Hessian is singular.
        rows = np.hstack([german_bounded.features, german_bounded.labels[:, None]])
        design = np.hstack([rows, np.ones((rows.shape[0], 1))])
        assert np.linalg.matrix_rank(design) < design.shape[1]
        model = fit_estimator(
            german_bounded, "sensitive", ARITY_FEATURES_PLUS_LABEL, FitConfig(lambda_reg=0.0)
        )
        assert model.converged and model.n_iters <= 20


class TestWrappers:
    def make_dataset(self, scale=1.0):
        gen = np.random.default_rng(8)
        feats = gen.normal(size=(50, 2))
        labels = np.where(gen.random(50) < 0.5, -scale, scale)
        sens = np.where(gen.random(50) < 0.5, -1.0, 1.0)
        return Dataset(feats, labels, sens, label_scale=scale)

    def test_arities_assigned(self):
        ds = self.make_dataset()
        config = FitConfig(max_iters=50)
        for target, arity in [
            ("labels", ARITY_FEATURES),
            ("sensitive", ARITY_FEATURES_PLUS_LABEL),
            ("labels", ARITY_FEATURES_PLUS_SENSITIVE),
        ]:
            model = fit_estimator(ds, target, arity, config)
            assert model.input_arity == arity and model.converged is True

    def test_unknown_target_or_arity_rejected(self):
        for target, arity in (("features", ARITY_FEATURES), ("labels", "features-plus-both")):
            with pytest.raises(ValidationError, match="cannot fit"):
                fit_estimator(self.make_dataset(), target, arity, FitConfig())

    def test_eo_design_uses_stored_label_encoding(self):
        # With labels rescaled to +-C the label column feeds the fit as +-C,
        # so the two fits see genuinely different designs.
        config = FitConfig(max_iters=200)
        full, scaled = (
            fit_estimator(self.make_dataset(scale), "sensitive", ARITY_FEATURES_PLUS_LABEL, config)
            for scale in (1.0, 0.5)
        )
        assert not np.allclose(full.weights, scaled.weights)


class TestPredictProba:
    def test_vector_and_matrix_forms(self):
        model = LinearCpe(np.array([1.0, -1.0, 0.0]), 0.0, ARITY_FEATURES)
        single = predict_proba(model, np.array([0.3, 0.3]))
        batch = predict_proba(model, np.array([[0.3, 0.3], [0.0, 0.0]]))
        assert isinstance(single, float)
        assert single == pytest.approx(0.5)
        assert batch.shape == (2,) and batch[1] == pytest.approx(0.5)

    def test_dimension_mismatch_rejected(self):
        model = LinearCpe(np.array([1.0, -1.0, 0.0]), 0.0, ARITY_FEATURES)
        with pytest.raises(ValidationError, match="arity"):
            predict_proba(model, np.zeros(3))
        with pytest.raises(ValidationError, match="arity"):
            predict_proba(model, np.zeros((4, 2)), 1.0)

    @given(st.integers(0, 10_000), st.integers(1, 60), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_columns_follow_the_split_expression_bit_for_bit(self, seed, n, k):
        # rows @ w[:k], then each column times its weight, then the intercept,
        # for a scalar and a per-row column, on one row vector and on a matrix
        rng = np.random.default_rng(seed)
        w = rng.normal(size=k + 3)
        model = LinearCpe(w, 0.0, ARITY_FEATURES)
        rows = rng.normal(size=(n, k))
        column = rng.choice([-0.6, 0.6], size=n)
        logits = rows @ w[:k] + 0.6 * w[k] + column * w[k + 1] + w[-1]
        got = predict_proba(model, rows, 0.6, column)
        assert got.tobytes() == oracles.sigmoid(logits).tobytes()
        first = rows[:1] @ w[:k] + 0.6 * w[k] + column[:1] * w[k + 1] + w[-1]
        assert predict_proba(model, rows[0], 0.6, column[:1]) == oracles.sigmoid(first)[0]

    def test_column_of_the_wrong_length_rejected(self):
        model = LinearCpe(np.array([1.0, -1.0, 0.5, 0.0]), 0.0, ARITY_FEATURES_PLUS_LABEL)
        rows = np.zeros((4, 2))
        assert predict_proba(model, rows, np.ones(4)).shape == (4,)
        for column in (np.ones(3), np.ones(5), np.ones((4, 1))):
            with pytest.raises(ValidationError, match="column 0"):
                predict_proba(model, rows, column)
