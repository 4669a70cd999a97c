"""Class-probability estimation by regularized logistic ERM.

The decision rules consume two kinds of conditional-probability models:
``eta`` estimating P(Y = +1 | inputs) and ``eta_bar`` estimating
P(Ybar = +1 | inputs).  All of them are linear-logistic models

    p(z) = sigmoid(w . [z; 1])

fitted by minimizing the regularized empirical risk

    J(w) = (1/n) sum_i log(1 + exp(-t_i * w . [z_i; 1])) + (L/2) ||w||^2

with the natural-log logistic loss (whose derivative magnitude is
bounded by 1, a property the privacy analysis relies on) and a ridge
penalty of strength ``lambda_reg``.  The intercept is always
regularized, so the objective is ``lambda_reg``-strongly convex over
the full parameter vector -- the privacy guarantee needs exactly that.

The optimizer is damped Newton (iteratively reweighted least squares)
with Armijo backtracking, started from the zero vector.  The objective
is smooth and ``lambda_reg``-strongly convex, and the design has at
most a few dozen columns, so each step solves one small Hessian system
and a fit converges in a handful of steps; ``max_iters`` counts those
steps.  The minimizer is unique, the iterates are deterministic, and a
converged fit certifies ``||w - w*|| <= grad_norm / lambda_reg``.  With
``lambda_reg > 0`` the Hessian is positive definite and the system is
solved directly (LU); at ``lambda_reg = 0`` it can be singular, and a
least-squares solve gives the minimum-norm Newton direction.

A fit reads its input where it lies: the ``(n, k)`` rows and the
``(n,)`` extra columns are never stacked into a design ``[rows,
*columns, 1]``.  The margin is :func:`predict_proba`'s (one helper,
:func:`_margins`), the gradient is assembled from one product per
piece, and the Hessian's data term ``X' diag(p(1-p)) X / n`` comes from
a buffer the pieces fill: one block of rows at a time, or, for a design
of at most eight columns, as many per-row vectors (see :func:`_hessian`).

:func:`fit_estimator` fits every estimator the decision rules need
(:data:`fairplug.plugin.ESTIMATORS` gives their arities): the sign of
the labels or of the sensitive column, on the features and the column
:data:`ARITY_COLUMNS` names for the input's arity, in its *stored*
encoding -- so a label input is ``{-C, +C}`` after privacy
preprocessing, which keeps the joint input under the norm bound.

Prediction takes the extra columns as the fit does:
``predict_proba(model, rows, *columns)`` scores ``[rows, *columns]`` by
the fit's own margin, so no input block is built there either.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .core import Dataset, _all_finite
from .errors import DegenerateDataError, NumericError, ValidationError

__all__ = [
    "ARITY_FEATURES",
    "ARITY_FEATURES_PLUS_LABEL",
    "ARITY_FEATURES_PLUS_SENSITIVE",
    "ARITIES",
    "ARITY_COLUMNS",
    "LinearCpe",
    "FitConfig",
    "fit",
    "predict_proba",
    "fit_estimator",
    "sigmoid",
]

logger = logging.getLogger(__name__)

ARITY_FEATURES = "features-only"
ARITY_FEATURES_PLUS_LABEL = "features-plus-label"
ARITY_FEATURES_PLUS_SENSITIVE = "features-plus-sensitive"
ARITIES = (ARITY_FEATURES, ARITY_FEATURES_PLUS_LABEL, ARITY_FEATURES_PLUS_SENSITIVE)
#: The dataset column each arity adds to the features as an input, if any.
ARITY_COLUMNS = {
    ARITY_FEATURES: None,
    ARITY_FEATURES_PLUS_LABEL: "labels",
    ARITY_FEATURES_PLUS_SENSITIVE: "sensitive",
}


def sigmoid(z):
    """Numerically stable logistic link, elementwise.

    The stable formula is ``1 / (1 + exp(-z))`` for ``z >= 0`` and
    ``exp(z) / (1 + exp(z))`` below.  With ``e = exp(-|z|)`` and
    ``d = 1 + e`` these are ``1 / d`` and ``e / d``: ``e`` is ``exp(-z)``
    on the first branch and ``exp(z)`` on the second.  Choosing the
    numerator by the sign of ``z`` therefore applies the same IEEE
    operations to the same operands as the two-branch formula, so the
    result is bit-identical to it.  The choice is ``max(e, z >= 0)``
    rather than a masked select: ``e`` lies in [0, 1], so the maximum
    with 1 is 1 and the maximum with 0 is ``e`` (never -0), and a NaN
    ``e`` propagates, so a NaN input stays NaN as in the ``e / d``
    branch.  The maximum has no data-dependent branch to mispredict.
    Negation, ``exp``, ``+ 1`` and the division run in place; each is
    the same correctly rounded operation on the same operand, so the
    order of buffers changes no bit.  A 0-d input returns a float.
    """
    z = np.asarray(z, dtype=float)
    values = np.atleast_1d(z)
    e = np.abs(values)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, values >= 0)
    e += 1.0
    out /= e
    return float(out[0]) if z.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class LinearCpe:
    """A fitted linear-logistic class-probability estimator.

    ``weights`` has length (input dimension + 1); the **last** entry is
    the intercept.  ``input_arity`` declares the input layout the model
    expects, so rules can verify they are wiring the right estimator
    into the right slot.  ``grad_norm``/``n_iters`` record the fit
    residual and ``converged`` whether it met the fit's tolerance; they
    are metadata, not part of the model identity, and are not persisted,
    so a model built by hand has no fit record.
    """

    weights: np.ndarray
    lambda_reg: float
    input_arity: str
    grad_norm: float | None = None
    n_iters: int | None = None
    converged: bool | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise ValidationError(
                f"weights must be a 1-D vector of length >= 2, got shape {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights contain non-finite entries")
        if self.input_arity not in ARITIES:
            raise ValidationError(
                f"unknown input_arity {self.input_arity!r}; expected one of {ARITIES}"
            )
        lam = float(self.lambda_reg)
        if not (np.isfinite(lam) and lam >= 0.0):
            raise ValidationError(f"lambda_reg must be a finite real >= 0, got {lam}")
        w = np.array(w, copy=True)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "lambda_reg", lam)

    @property
    def in_dim(self) -> int:
        """Expected input vector length (intercept excluded)."""
        return int(self.weights.size - 1)


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters for :func:`fit`."""

    lambda_reg: float = 1e-2
    max_iters: int = 500
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lambda_reg) and self.lambda_reg >= 0.0):
            raise ValidationError(f"lambda_reg must be >= 0, got {self.lambda_reg}")
        if int(self.max_iters) < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValidationError(f"tolerance must be > 0, got {self.tolerance}")


#: Relative rounding error allowed for the objective (a mean of n logistic
#: losses) when deciding whether a Newton step's decrease is measurable.
_ROUNDOFF = 1e-15


def _margins(w, rows, columns):
    """``w . [rows, *columns, 1]`` per row, with no ``[rows, *columns]`` block.

    ``rows @ w[:k]``, then ``column * w[j]`` added for each column in
    turn, then the intercept: the one margin of :func:`fit` and
    :func:`predict_proba`, so a model scores its training rows with the
    bits its fit saw.  A column may be a scalar or a per-row vector.
    """
    k = rows.shape[1]
    z = rows @ w[:k]
    for j, column in enumerate(columns, start=k):
        z += column * w[j]
    z += w[-1]
    return z


def _objective_and_grad(w, rows, columns, targets, lambda_reg):
    """Objective, gradient and link values ``p = sigmoid(margins)`` at ``w``.

    The margins are :func:`_margins`'s.  The targets are +-1, so
    ``|margins| = |z|`` and one ``e = exp(-|z|)`` serves both
    ``sigmoid(-margins)`` (gradient) and ``sigmoid(z)`` (returned for
    the Hessian), each bit-identical to :func:`sigmoid`:
    the numerators are ``max(e, margins <= 0)`` and ``max(e, z >= 0)``,
    exact for the reason given there.  The per-row buffers are reused in
    place (``-margins`` becomes the loss, then the gradient coefficient;
    ``z`` becomes ``p``), and the coefficient is ``-(q * t)`` rather than
    ``(-t) * q``; IEEE negation is exact and rounding is symmetric in
    sign, so both give the same bits.  The gradient's data term is
    ``[rows.T @ coef, column @ coef, ..., coef.sum()] / n``.

    The same ``e`` gives the loss: ``log(1 + exp(-m)) = max(-m, 0) +
    log1p(exp(-|m|))`` exactly, and ``exp(-|m|) = e``.  This is the
    formula ``np.logaddexp(0, -m)`` evaluates, with no second ``exp``;
    the two differ only where numpy's vectorized ``exp``/``log1p`` round
    differently from the scalar libm calls inside ``logaddexp``, by a few
    ulps of the objective (at most 2 over 3,000 random designs).  The
    gradient and ``p`` do not depend on it, and the objective only gates
    the Armijo test, so fits take the same steps.  Infinite and NaN
    margins give the same non-finite losses as ``logaddexp``.
    """
    n, k = rows.shape
    z = _margins(w, rows, columns)
    neg_margins = targets * z
    np.negative(neg_margins, out=neg_margins)
    loss_is_large = neg_margins >= 0  # margins <= 0, also for -0 and NaN
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    losses = np.log1p(e)
    losses += np.maximum(neg_margins, 0.0, out=neg_margins)
    obj = float(losses.mean()) + 0.5 * lambda_reg * float(np.dot(w, w))
    # d/dm log(1+exp(-m)) = -sigmoid(-m); |.| <= 1 always
    coef = np.maximum(e, loss_is_large, out=losses)
    p = np.maximum(e, z >= 0, out=z)
    e += 1.0
    coef /= e
    p /= e
    coef *= targets
    np.negative(coef, out=coef)
    grad = np.empty_like(w)
    grad[:k] = rows.T @ coef
    for j, column in enumerate(columns, start=k):
        grad[j] = column @ coef
    grad[-1] = coef.sum()
    grad /= n
    grad += lambda_reg * w
    return obj, grad, p


#: Elements of the reused buffer that holds one block of weighted design rows.
_HESSIAN_BLOCK = 1 << 17
#: Widest design whose Hessian is the direct product (see :func:`_hessian`).
_DIRECT_MAX_WIDTH = 8


def _weighted_columns(rows, columns, factor, start, out):
    """``([rows, *columns, 1] * factor[:, None]).T`` for rows ``start`` to ``start + m``, in ``out``.

    ``out`` is a C-ordered ``(width, m)`` buffer: each input column,
    times ``factor``, fills one of its rows, and its last row is
    ``factor`` itself (``1 * f`` is ``f``), so its values are those of
    the stacked design's rows times ``factor``, transposed.
    """
    stop = start + out.shape[1]
    k = rows.shape[1]
    factor = factor[start:stop]
    # A transposing copy, then a multiply along contiguous rows: 3.3 ms a
    # 31,500 x 50 pass, against 5.2 ms for one multiply that reads the
    # rows across their stride.
    out[:k] = rows[start:stop].T
    out[:k] *= factor
    for j, column in enumerate(columns, start=k):
        np.multiply(column[start:stop], factor, out=out[j])
    out[-1] = factor
    return out


def _hessian(p, rows, columns, lambda_reg):
    """``X' diag(p(1-p)) X / n + lambda * I`` for ``X = [rows, *columns, 1]``, by X's width.

    ``X`` is never built: :func:`_weighted_columns` fills a buffer from
    the pieces.  For widths above ``_DIRECT_MAX_WIDTH`` the data term is
    a Gram product over row blocks: with ``w = sqrt(p(1-p))`` it is ``S'
    S / n`` for ``S = X * w[:, None]``.  ``S'`` is built ``_HESSIAN_BLOCK
    // width`` rows at a time in one reused buffer and each block's ``S_b'
    S_b`` is added to the sum.  numpy runs it as a symmetric rank-k
    update, so the result is exactly symmetric.

    Narrower designs take the direct product ``(X * c)' X`` with ``c =
    p(1-p)``: ``(X * c)'`` times the rows, times each column, and summed
    for the intercept.  At a few columns the Gram form is slower (at
    16,384 rows, one BLAS thread: 0.09 against 0.17 ms at width 3, 0.13
    against 0.16 ms at width 4, even at width 8), and the direct form's
    ``(width, n)`` buffer is at most ``_DIRECT_MAX_WIDTH`` per-row
    vectors.  That product is not exactly symmetric.
    """
    n, k = rows.shape
    width = k + len(columns) + 1
    curvature = 1.0 - p
    curvature *= p
    if width <= _DIRECT_MAX_WIDTH:
        scaled = _weighted_columns(rows, columns, curvature, 0, np.empty((width, n)))
        hessian = np.empty((width, width))
        hessian[:, :k] = scaled @ rows
        for j, column in enumerate(columns, start=k):
            hessian[:, j] = scaled @ column
        hessian[:, -1] = scaled.sum(axis=1)
    else:
        weight = np.sqrt(curvature, out=curvature)
        step = _HESSIAN_BLOCK // width
        scaled = np.empty((width, min(step, n)))
        hessian = np.zeros((width, width))
        for start in range(0, n, step):
            block = _weighted_columns(rows, columns, weight, start, scaled[:, : n - start])
            hessian += block @ block.T
    hessian /= n
    return hessian + lambda_reg * np.eye(width)


def fit(
    rows, targets, config: FitConfig, *extra_columns, allow_one_class: bool = False
) -> LinearCpe:
    """Minimize the regularized logistic objective on (rows, targets).

    Damped Newton from the zero vector: each step solves ``H d = grad``
    with the Hessian ``H = X' diag(p(1-p)) X / n + lambda * I``, whose
    data term is a Gram product accumulated over row blocks for designs
    wider than eight columns (its rounding may move the weights by an ulp
    against the direct product; see :func:`_hessian`), and backtracks
    along ``-d`` until the Armijo test holds with slope ``grad . d``.
    The Hessian's link values ``p`` come from the objective evaluation
    that accepted the iterate; they equal ``sigmoid`` of its margins bit
    for bit, so reusing them saves one margin pass and one exponential
    per step without moving any iterate.  ``max_iters`` caps the number
    of Newton steps.  With ``lambda_reg > 0``, ``H`` is at least ``lambda
    * I`` and so positive definite, and an LU solve (``np.linalg.solve``)
    finds the direction: the same direction up to rounding as an SVD
    least-squares solve, at a small fraction of its cost.  With ``lambda_reg = 0`` the Hessian
    can be singular (one-hot columns plus the intercept are collinear);
    the least-squares solve then takes the minimum-norm direction.  A
    step whose solve fails takes the gradient instead.

    ``rows`` and ``extra_columns`` are read where they lie, a training
    split's arrays included: nothing the size of ``rows`` is copied or
    built.  The finiteness check reads the rows a block at a time.

    Parameters
    ----------
    rows : (n, k) matrix of inputs (the intercept is added internally).
    targets : (n,) vector over {-1, +1}; both classes must be present
        (a single class is a DegenerateDataError) unless ``allow_one_class``.
    config : optimization hyperparameters.
    extra_columns : (n,) vectors taken as inputs after ``rows``, so the
        fit runs on ``[rows, *extra_columns]`` without that matrix being built.
    allow_one_class : accept single-class targets when ``lambda_reg > 0``:
        the objective is then strongly convex, so its minimizer exists for
        any targets.  Unregularized, a single class has no minimizer and
        is still a DegenerateDataError.

    Returns
    -------
    LinearCpe with ``input_arity = 'features-only'`` (:func:`fit_estimator`
    tags the arity of its input) whose gradient norm at the returned
    weights is <= ``config.tolerance`` (``converged``), or the
    ``max_iters`` iterate with the achieved residual in ``grad_norm``.
    """

    rows = np.asarray(rows, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValidationError(f"rows must be a non-empty 2-D matrix, got shape {rows.shape}")
    if targets.shape != (rows.shape[0],):
        raise ValidationError(
            f"targets shape {targets.shape} does not match {rows.shape[0]} rows"
        )
    if any(np.shape(column) != targets.shape for column in extra_columns):
        raise ValidationError(f"extra columns must have {rows.shape[0]} rows")
    if not np.all(np.isin(targets, (-1.0, 1.0))):
        raise ValidationError("targets must take values -1 or +1")
    one_class = np.all(targets > 0) or np.all(targets < 0)
    if one_class and not (allow_one_class and config.lambda_reg > 0.0):
        raise DegenerateDataError("targets contain a single class; both classes are required")

    columns = [np.asarray(column, dtype=float) for column in extra_columns]
    if not (_all_finite(rows) and all(np.isfinite(column).all() for column in columns)):
        raise ValidationError("rows contain non-finite entries")
    w = np.zeros(rows.shape[1] + len(columns) + 1)
    lam = float(config.lambda_reg)
    obj, grad, p = _objective_and_grad(w, rows, columns, targets, lam)
    if not np.isfinite(obj):
        raise NumericError("objective is non-finite at the starting point")

    grad_norm = float(np.linalg.norm(grad))
    iters = 0
    while grad_norm > config.tolerance and iters < int(config.max_iters):
        iters += 1
        hessian = _hessian(p, rows, columns, lam)
        try:
            if lam > 0.0:
                direction = np.linalg.solve(hessian, grad)
            else:
                direction = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        except np.linalg.LinAlgError:
            direction = grad
        slope = float(grad @ direction)
        # Armijo backtracking: shrink until sufficient decrease holds.  Once
        # the predicted decrease is below the objective's rounding error the
        # test compares noise, so the full step is taken.
        resolvable = slope > _ROUNDOFF * obj
        step = 1.0
        while True:
            w_new = w - step * direction
            obj_new, grad_new, p_new = _objective_and_grad(w_new, rows, columns, targets, lam)
            if np.isfinite(obj_new) and (
                obj_new <= obj - 1e-4 * step * slope or not resolvable
            ):
                break
            step *= 0.5
            if step < 1e-18:
                raise NumericError(
                    "line search failed: no admissible step (objective may be non-smooth "
                    "due to exploding inputs)"
                )
        w, obj, grad, p = w_new, obj_new, grad_new, p_new
        grad_norm = float(np.linalg.norm(grad))
    converged = grad_norm <= config.tolerance
    if not converged:
        logger.debug(
            "fit stopped at max_iters=%d with residual gradient norm %.3e",
            config.max_iters,
            grad_norm,
        )
    return LinearCpe(
        weights=w,
        lambda_reg=lam,
        input_arity=ARITY_FEATURES,
        grad_norm=grad_norm,
        n_iters=iters,
        converged=converged,
    )


def predict_proba(model: LinearCpe, rows, *columns):
    """``sigmoid(w . [rows, *columns, 1])`` for one vector or a stack of rows.

    ``rows`` is a vector (returns a float) or an ``(n, k)`` matrix
    (returns an ``(n,)`` array), and each of ``columns`` a scalar or a
    per-row vector, taken as :func:`fit` takes its extra columns; ``k``
    plus the number of columns must be the model's ``in_dim``.  No
    ``[rows, *columns]`` block is built: the logit is the fit's margin
    (:func:`_margins`), ``rows @ w[:k]``, then ``column * w[j]`` added
    for each column in turn, then the intercept.  Outputs lie strictly
    inside (0, 1) up to floating-point rounding.  A single row and the same row inside a matrix can differ
    in the last bit: OpenBLAS runs the 1-row product ``x[None, :] @ w``
    through another kernel than ``X @ w`` (0.6448326625371976 alone
    against 0.6448326625371977 as row 0 of a 2 x 6 matrix).
    """

    x = np.asarray(rows, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    k = x.shape[-1] if x.ndim else 0
    if x.ndim != 2 or k + len(columns) != model.in_dim:
        raise ValidationError(
            f"input dimension {k} + {len(columns)} columns does not match "
            f"model arity {model.input_arity!r} (expects {model.in_dim})"
        )
    columns = [np.asarray(column, dtype=float) for column in columns]
    for j, column in enumerate(columns):
        if column.ndim and column.shape != (x.shape[0],):
            raise ValidationError(
                f"column {j} has shape {column.shape}; expected a scalar or {x.shape[0]} rows"
            )
    z = _margins(model.weights, x, columns)
    p = sigmoid(z)
    return float(p[0]) if single else p


def fit_estimator(
    dataset: Dataset, target: str, arity: str, config: FitConfig, *, allow_one_class: bool = False
) -> LinearCpe:
    """Fit the sign of ``dataset``'s ``target`` column on an input of ``arity``.

    ``target`` is ``"labels"`` or ``"sensitive"``; the input is the
    features, then the column :data:`ARITY_COLUMNS` names for ``arity``.
    ``allow_one_class`` is :func:`fit`'s.
    """
    if target not in ("labels", "sensitive") or arity not in ARITY_COLUMNS:
        raise ValidationError(f"cannot fit {target!r} on an input of arity {arity!r}")
    column = ARITY_COLUMNS[arity]
    model = fit(
        dataset.features, np.sign(getattr(dataset, target)), config,
        *(() if column is None else (getattr(dataset, column),)),
        allow_one_class=allow_one_class,
    )
    return model if arity == model.input_arity else replace(model, input_arity=arity)
