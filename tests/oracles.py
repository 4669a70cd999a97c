"""Independent reference computations used by the test suite.

Everything in this file is deliberately written from first principles
(plain Python loops, exact :class:`fractions.Fraction` arithmetic where
the inputs are rational) and imports nothing from the package under
test.  Tests compare package outputs against these slower second
routes; if both agree, a shared transcription error is far less likely.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# four-point discrete instances and the brute-force optimal classifier


@dataclass(frozen=True)
class DiscreteInstance:
    """A four-atom joint distribution over (x, y, ybar).

    ``masses[i]`` is P(X = atom_i); ``eta[i]`` is P(Y=+1 | atom_i);
    ``eta_bar[i][j]`` is P(Ybar=+1 | atom_i, Y=y_j) with y_0 = -1 and
    y_1 = +1.
    """

    atoms: tuple[tuple[float, ...], ...]
    masses: tuple[float, ...]
    eta: tuple[float, ...]
    eta_bar: tuple[tuple[float, float], ...]

    @property
    def n_atoms(self) -> int:
        return len(self.masses)


def joint_cells(inst: DiscreteInstance) -> list[tuple[int, int, int, float]]:
    """All (atom index, y, ybar, probability mass) cells."""

    cells = []
    for i in range(inst.n_atoms):
        for y, p_y in ((-1, 1.0 - inst.eta[i]), (1, inst.eta[i])):
            p_bar = inst.eta_bar[i][0 if y < 0 else 1]
            for ybar, p_b in ((-1, 1.0 - p_bar), (1, p_bar)):
                cells.append((i, y, ybar, inst.masses[i] * p_y * p_b))
    return cells


def exact_psi(
    inst: DiscreteInstance,
    predict,
    criterion: str,
    lam: float,
    c: float,
    c_bar: float,
) -> float:
    """The fairness-aware objective of ``predict(i, ybar) -> +-1``, exactly.

    Computed as -CS(f; D, c) + lam * CS(f; Dbar, prior) with the
    prior-weighted cost-sensitive risk
    CS = c (1 - prior) FPR + (1 - c) prior FNR, where for the EO
    criterion Dbar is the law of (X, Ybar) given Y = +1 and for DPar
    it is the unconditional law of (X, Ybar).
    """

    cells = joint_cells(inst)

    # target-distribution risk: label = y
    mass_pos = sum(m for _, y, _, m in cells if y > 0)
    mass_neg = sum(m for _, y, _, m in cells if y < 0)
    fp = sum(m for i, y, b, m in cells if y < 0 and predict(i, b) > 0)
    fn = sum(m for i, y, b, m in cells if y > 0 and predict(i, b) < 0)
    fpr = fp / mass_neg
    fnr = fn / mass_pos
    cs_d = c * mass_neg * fpr + (1.0 - c) * mass_pos * fnr

    # comparison distribution: label = ybar
    if criterion == "eo":
        pool = [(i, b, m) for i, y, b, m in cells if y > 0]
    elif criterion == "dpar":
        pool = [(i, b, m) for i, _, b, m in cells]
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    total = sum(m for _, _, m in pool)
    bar_pos = sum(m for _, b, m in pool if b > 0)
    bar_neg = total - bar_pos
    fp_bar = sum(m for i, b, m in pool if b < 0 and predict(i, b) > 0)
    fn_bar = sum(m for i, b, m in pool if b > 0 and predict(i, b) < 0)
    prior = bar_pos / total
    cs_dbar = c_bar * (1.0 - prior) * (fp_bar / bar_neg) + (1.0 - c_bar) * prior * (
        fn_bar / bar_pos
    )
    return -cs_d + lam * cs_dbar


def enumerate_predictors(n_atoms: int, aware: bool):
    """Every deterministic classifier on the instance's input space.

    Blind classifiers map atoms to signs (2^n of them); aware
    classifiers map (atom, ybar) pairs to signs (4^n).
    """

    if not aware:
        for signs in itertools.product((-1, 1), repeat=n_atoms):
            yield lambda i, b, s=signs: s[i]
    else:
        for signs in itertools.product((-1, 1), repeat=2 * n_atoms):
            yield lambda i, b, s=signs: s[2 * i + (0 if b < 0 else 1)]


def brute_force_psi(
    inst: DiscreteInstance,
    criterion: str,
    aware: bool,
    lam: float,
    c: float,
    c_bar: float,
) -> tuple[float, float, object]:
    """(best value, runner-up value, best predictor) over all classifiers."""

    best_value, second_value, best_predict = -math.inf, -math.inf, None
    for predict in enumerate_predictors(inst.n_atoms, aware):
        value = exact_psi(inst, predict, criterion, lam, c, c_bar)
        if value > best_value:
            best_value, second_value, best_predict = value, best_value, predict
        elif value > second_value:
            second_value = value
    return best_value, second_value, best_predict


# ---------------------------------------------------------------------------
# exact rational rates on integer-count populations


@dataclass(frozen=True)
class CountPopulation:
    """A finite (prediction sign, label sign) population with integer counts.

    ``counts[(pred, label)]`` holds a nonnegative integer for each of
    the four sign combinations.
    """

    counts: dict

    def _label_total(self, label: int) -> int:
        return self.counts[(1, label)] + self.counts[(-1, label)]

    def rate(self, pred: int, label: int) -> Fraction:
        total = self._label_total(label)
        return Fraction(self.counts[(pred, label)], total)

    @property
    def fpr(self) -> Fraction:
        return self.rate(1, -1)

    @property
    def fnr(self) -> Fraction:
        return self.rate(-1, 1)

    @property
    def tpr(self) -> Fraction:
        return self.rate(1, 1)

    def cs_balanced(self, cost: Fraction) -> Fraction:
        return cost * self.fpr + (1 - cost) * self.fnr

    def cs_weighted(self, cost: Fraction) -> Fraction:
        n = sum(self.counts.values())
        prior = Fraction(self._label_total(1), n)
        return cost * (1 - prior) * self.fpr + (1 - cost) * prior * self.fnr

    def disparate_impact(self) -> Fraction | None:
        """FPR / TPR with the label read as the group; None when undefined."""
        if self.tpr == 0:
            return None
        return self.fpr / self.tpr

    def mean_difference(self) -> Fraction:
        return self.fpr - self.tpr


def population_from_arrays(predictions, labels) -> CountPopulation:
    counts = {(p, t): 0 for p in (-1, 1) for t in (-1, 1)}
    for p, t in zip(predictions, labels):
        counts[(1 if p > 0 else -1, 1 if t > 0 else -1)] += 1
    return CountPopulation(counts)


def exact_performance_measure(
    predictions,
    labels,
    sensitive,
    criterion: str,
    lam: Fraction,
    c: Fraction,
    c_bar: Fraction,
) -> Fraction:
    """Prior-weighted fairness-aware objective on empirical arrays, exactly."""

    first = population_from_arrays(predictions, labels).cs_weighted(c)
    if criterion == "eo":
        keep = [i for i, y in enumerate(labels) if y > 0]
        pool_pred = [predictions[i] for i in keep]
        pool_group = [sensitive[i] for i in keep]
    else:
        pool_pred, pool_group = list(predictions), list(sensitive)
    second = population_from_arrays(pool_pred, pool_group).cs_weighted(c_bar)
    return -first + lam * second


# ---------------------------------------------------------------------------
# grid-sweep confusion counts, one grid point and one row at a time


def brute_force_sweep_counts(score, first, second, labels, sensitive, points, criterion):
    """Per grid point ``(tp, tn, pos_a, pos_b)`` of ``score > 0``, and the four totals.

    ``score(first[i], second[i], lam, c, c_bar)`` is called for every row
    ``i`` at every ``(lam, c, c_bar)`` in ``points``; a row is predicted +1
    when it is strictly positive.  Fairness cell ``a`` holds the rows with
    a negative sensitive attribute and cell ``b`` the others; under the
    ``'eo'`` criterion both keep only the rows with a positive label.
    Returns the list of per-point counts and ``(n_pos, n_neg, n_a, n_b)``.
    """

    rows = list(zip(first, second, labels, sensitive))
    in_cell = [criterion != "eo" or y > 0 for _, _, y, _ in rows]
    totals = (
        sum(1 for _, _, y, _ in rows if y > 0),
        sum(1 for _, _, y, _ in rows if y < 0),
        sum(1 for (_, _, _, s), cell in zip(rows, in_cell) if cell and s < 0),
        sum(1 for (_, _, _, s), cell in zip(rows, in_cell) if cell and s > 0),
    )
    hits = []
    for lam, c, c_bar in points:
        tp = tn = pos_a = pos_b = 0
        for (u, v, y, s), cell in zip(rows, in_cell):
            positive = score(u, v, lam, c, c_bar) > 0
            if positive and y > 0:
                tp += 1
            if not positive and y < 0:
                tn += 1
            if positive and cell:
                if s < 0:
                    pos_a += 1
                else:
                    pos_b += 1
        hits.append((tp, tn, pos_a, pos_b))
    return hits, totals


# ---------------------------------------------------------------------------
# decision-boundary curves, transcribed independently


def hyperbola_value(lam: float, pi: float, c: float, c_bar: float, u: float, v: float) -> float:
    return (1.0 + lam * c_bar / pi) * v - (lam / pi) * u * v - c


def line_value(lam: float, c: float, c_bar: float, u: float, v: float) -> float:
    return v - lam * u + lam * c_bar - c


def dense_square_intersects(value_fn, center: tuple[float, float], eps: float, n: int = 200):
    """Dense-grid zero bracketing over the closed 2*eps square.

    Returns (intersects, resolution_bound) where the bound is a
    Lipschitz-style estimate of how large |value| can be at a zero the
    grid failed to bracket: max-gradient-norm times the grid diagonal.
    """

    u0, v0 = center
    us = np.linspace(u0 - eps, u0 + eps, n)
    vs = np.linspace(v0 - eps, v0 + eps, n)
    grid_u, grid_v = np.meshgrid(us, vs, indexing="ij")
    values = value_fn(grid_u, grid_v)
    hit = bool(values.min() <= 0.0 <= values.max())

    h = 1e-6
    grad_max = 0.0
    for u in (u0 - eps, u0, u0 + eps):
        for v in (v0 - eps, v0, v0 + eps):
            du = (value_fn(u + h, v) - value_fn(u - h, v)) / (2 * h)
            dv = (value_fn(u, v + h) - value_fn(u, v - h)) / (2 * h)
            grad_max = max(grad_max, math.hypot(du, dv))
    spacing = 2.0 * eps / (n - 1)
    return hit, grad_max * spacing * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# privacy noise density, by rejection on a bounding box


def rejection_noise_2d(gamma: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draws from density proportional to exp(-gamma * ||b||_2) in 2-D.

    Proposal: uniform on the box [-R, R]^2 with R = 30 / gamma (the
    discarded tail mass is below e^-30 times polynomial factors).
    Acceptance probability exp(-gamma * ||b||).
    """

    radius = 30.0 / gamma
    out = np.empty((count, 2))
    filled = 0
    while filled < count:
        batch = max(4 * (count - filled), 256)
        proposals = rng.uniform(-radius, radius, size=(batch, 2))
        norms = np.hypot(proposals[:, 0], proposals[:, 1])
        keep = proposals[rng.random(batch) < np.exp(-gamma * norms)]
        take = min(len(keep), count - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


# ---------------------------------------------------------------------------
# numerical differentiation


def finite_difference_grad(objective, w: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar objective at w."""

    w = np.asarray(w, dtype=float)
    grad = np.empty_like(w)
    for k in range(w.size):
        bump = np.zeros_like(w)
        bump[k] = h
        grad[k] = (objective(w + bump) - objective(w - bump)) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# logistic link


def sigmoid(z):
    """The logistic link by its two stable branches, evaluated separately.

    ``1 / (1 + exp(-z))`` on the entries with ``z >= 0`` and
    ``exp(z) / (1 + exp(z))`` on the rest (NaN included), each branch
    computed on its own compressed entries and scattered back.  Never
    overflows; a 0-d input returns a float.
    """

    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return float(out) if out.ndim == 0 else out


def objective_and_grad(w, rows, columns, targets, lambda_reg):
    """The logistic objective, gradient and link by masked selects.

    The same formulas as ``cpe._objective_and_grad``, with each
    numerator chosen by ``np.where`` and a fresh array per operation;
    the reference for its branch-free, in-place evaluation.  The margins
    and the gradient's data term are assembled from the same pieces in
    the same order (``rows @ w[:k]``, each column times its weight, the
    intercept), so the two differ only in the link.  The loss is
    ``np.logaddexp(0, -m)``, which the production loss, built from the
    shared ``exp(-|z|)``, matches to a few ulps.
    """

    n, k = rows.shape
    z = rows @ w[:k]
    for j, column in enumerate(columns, start=k):
        z = z + column * w[j]
    z = z + w[-1]
    margins = targets * z
    obj = float(np.logaddexp(0.0, -margins).mean()) + 0.5 * lambda_reg * float(np.dot(w, w))
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    coef = -targets * (np.where(margins <= 0, 1.0, e) / d)
    pieces = [*(rows.T @ coef), *(column @ coef for column in columns), coef.sum()]
    grad = np.array(pieces) / n + lambda_reg * w
    return obj, grad, np.where(z >= 0, 1.0, e) / d


def newton_fit_lstsq(rows, targets, lambda_reg, tolerance=1e-6, max_iters=500):
    """Damped Newton from zero with every direction from an SVD least-squares solve.

    The reference for ``cpe.fit`` at ``lambda_reg > 0``: the same start,
    Armijo test and stopping rule, each Newton system ``H d = grad``
    solved by ``np.linalg.lstsq`` and each quantity computed by
    :func:`objective_and_grad`.  Returns the weights and the number of
    Newton steps.
    """

    design = np.hstack([rows, np.ones((rows.shape[0], 1))])
    n, k = design.shape
    w = np.zeros(k)
    obj, grad, p = objective_and_grad(w, rows, [], targets, lambda_reg)
    iters = 0
    while np.linalg.norm(grad) > tolerance and iters < max_iters:
        iters += 1
        hessian = (design.T * (p * (1.0 - p))) @ design / n + lambda_reg * np.eye(k)
        direction = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        slope = float(grad @ direction)
        step = 1.0
        while True:
            w_new = w - step * direction
            obj_new, grad_new, p_new = objective_and_grad(w_new, rows, [], targets, lambda_reg)
            # Below the objective's rounding error the full step is taken.
            if obj_new <= obj - 1e-4 * step * slope or slope <= 1e-15 * obj:
                break
            step *= 0.5
        w, obj, grad, p = w_new, obj_new, grad_new, p_new
    return w, iters


def uniform_box(rng, lows, highs, n):
    """``n`` rows uniform on the box ``[lows, highs)``, by ``Generator.uniform``.

    The reference for ``synthetic.sample_x`` on a uniform box, which
    must consume the generator and return the rows bit for bit as this
    broadcast draw does.
    """

    return rng.uniform(lows, highs, size=(n, len(lows)))


def true_eta(dist, x):
    """P(y = +1 | x) written out from the weights: ``sigmoid(x @ w[:-1] + w[-1])``."""
    w = dist.w_eta
    return sigmoid(x @ w[:-1] + w[-1])


def true_eta_bar(dist, x, y):
    """P(ybar = +1 | x, y) written out from the weights, ``y`` a scalar or per-row vector.

    The label term is added between the features' product and the
    intercept, the order ``cpe.predict_proba`` applies its extra column.
    """
    w = dist.w_eta_bar
    return sigmoid(x @ w[:-2] + y * w[-2] + w[-1])


def sample_labels(rng, x, dist):
    """The +-1 labels ``synthetic.sample`` draws after the features, by masked selects.

    ``rng`` is positioned after the feature draw; the probabilities are
    :func:`true_eta` and :func:`true_eta_bar` of ``dist``.
    """

    y = np.where(rng.uniform(size=len(x)) < true_eta(dist, x), 1.0, -1.0)
    ybar = np.where(rng.uniform(size=len(x)) < true_eta_bar(dist, x, y), 1.0, -1.0)
    return y, ybar


def quadrature_priors(dist, nodes, weights) -> tuple[float, float, float]:
    """``(pi, pi_bar, beta)`` as weighted sums of the regression functions on the nodes.

    The reference for the priors of ``synthetic.population`` (and so of
    ``synthetic.true_stats``), which must repeat these sums bit for bit
    on the same nodes and weights.
    """

    eta = true_eta(dist, nodes)
    bar_plus = true_eta_bar(dist, nodes, 1.0)
    bar_minus = true_eta_bar(dist, nodes, -1.0)
    pi = float(weights @ eta)
    joint_pos = float(weights @ (eta * bar_plus))
    pi_bar = joint_pos + float(weights @ ((1.0 - eta) * bar_minus))
    return pi, pi_bar, joint_pos / pi


def per_draw_psi(decisions, y, ybar, criterion, lam, c, c_bar, pi, pi_bar, beta):
    """Per-draw terms whose mean estimates Psi of the decisions on the draw.

    Psi = -CS(label) + lam * CS(comparison) with every rate's class size
    taken from the true priors, so each rate is a mean over the draw and
    so is Psi: for the label, ``-c (1-pi) FPR - pi (1-c) FNR`` is the mean
    of ``-c f [y=-1] + (1-c) f [y=+1] - pi (1-c)``; for equal opportunity
    the comparison rates are over Y = +1 rows (class sizes ``pi beta``
    and ``pi (1-beta)``), for parity over all rows (``pi_bar``).
    """

    f = np.asarray(decisions, dtype=float)
    pos, grp = y > 0, ybar > 0
    label = -c * f * ~pos + (1 - c) * f * pos - pi * (1 - c)
    if criterion == "eo":
        comparison = (c_bar * f * (pos & ~grp) - (1 - c_bar) * f * (pos & grp)) / pi
        comparison += beta * (1 - c_bar)
    else:
        comparison = c_bar * f * ~grp - (1 - c_bar) * f * grp + pi_bar * (1 - c_bar)
    return label + lam * comparison


# ---------------------------------------------------------------------------
# CSV ingest, row then column


def csv_records(handle) -> list[tuple[int, list[str]]]:
    """``(physical start line, cells)`` of every record ``csv.reader`` yields.

    The reference for ``fairplug.data._records``; ``handle`` yields lines
    as a ``newline=""`` text file does.
    """

    reader = csv.reader(handle)
    records, start = [], 1
    for cells in reader:
        records.append((start, cells))
        start = reader.line_num + 1
    return records


class ReferenceLoadError(Exception):
    """A load failure; ``kind`` names the package exception it stands for."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _reference_sign(value, positive, legal, column, line, path) -> float:
    if value in positive:
        return 1.0
    if legal is not None and value not in legal:
        raise ReferenceLoadError(
            "DataError", f"{path}:{line}: unmappable value {value!r} in column {column!r}"
        )
    return -1.0


def reference_load_csv(path, schema) -> dict:
    """Load a headered CSV the two-pass way: keep every row's strings, then encode.

    ``schema`` is any object with the attributes of ``fairplug.data.CsvSchema``.
    Records are numbered by the physical line they start on, from the
    reader's ``line_num``, so a quoted cell spanning lines moves later
    numbers as it does in ``fairplug.data``.  The file is read as
    ``utf-8-sig``, so one leading byte-order mark is not part of the
    header.  Returns the ``features``, ``labels`` and ``sensitive`` arrays
    and the ``LoadReport`` fields under ``report``, with the SHA-256 of
    the whole file.
    """

    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise ReferenceLoadError("DataError", f"{path}: file is empty") from None
        indices = []
        for column in schema.used_columns:
            if column not in header:
                raise ReferenceLoadError("DataError", f"{path}: required column {column!r} is missing")
            if header.count(column) > 1:
                raise ReferenceLoadError(
                    "DataError", f"{path}: column {column!r} appears more than once in the header"
                )
            indices.append(header.index(column))
        kept_rows, kept_lines, labels, sensitive = [], [], [], []
        rows_read = rows_dropped = 0
        next_line = reader.line_num + 1
        for row in reader:
            line_number, next_line = next_line, reader.line_num + 1
            if not row or all(not cell.strip() for cell in row):
                continue
            rows_read += 1
            if len(row) != len(header):
                raise ReferenceLoadError(
                    "DataError", f"{path}:{line_number}: expected {len(header)} cells, got {len(row)}"
                )
            cells = [row[i].strip() for i in indices]
            if not schema.missing_values.isdisjoint(cells):
                rows_dropped += 1
                continue
            kept_rows.append(cells[: len(schema.features)])
            kept_lines.append(line_number)
            labels.append(
                _reference_sign(cells[-2], schema.label_positive, schema.label_values,
                                schema.label_column, line_number, path)
            )
            sensitive.append(
                _reference_sign(cells[-1], schema.sensitive_positive, schema.sensitive_values,
                                schema.sensitive_column, line_number, path)
            )
    if not kept_rows:
        raise ReferenceLoadError("DegenerateDataError", f"{path}: no usable rows after cleaning")

    levels = {}
    columns = []
    for j, (name, kind) in enumerate(schema.features):
        raw = [cells[j] for cells in kept_rows]
        if kind == "numeric":
            numbers = []
            for v, line in zip(raw, kept_lines):
                try:
                    number = float(v)
                except ValueError as exc:
                    raise ReferenceLoadError(
                        "DataError",
                        f"{path}:{line}: column {name!r} has a non-numeric value: {exc}",
                    ) from exc
                if not math.isfinite(number):
                    raise ReferenceLoadError(
                        "DataError", f"{path}:{line}: column {name!r} has a non-finite value {v!r}"
                    )
                numbers.append(number)
            columns.append(np.array(numbers)[:, None])
        else:
            order, seen = [], {}
            for v in raw:
                if v not in seen:
                    seen[v] = len(order)
                    order.append(v)
            levels[name] = tuple(order)
            onehot = np.zeros((len(raw), len(order)))
            onehot[np.arange(len(raw)), [seen[v] for v in raw]] = 1.0
            columns.append(onehot)
    features = np.hstack(columns)
    return {
        "features": features,
        "labels": np.array(labels),
        "sensitive": np.array(sensitive),
        "report": {
            "rows_read": rows_read,
            "rows_dropped": rows_dropped,
            "feature_width": features.shape[1],
            "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest(),
            "categorical_levels": levels,
        },
    }
