"""Command-line front door.

Five subcommands cover the artifact surface: ``prepare`` (CSV ->
prepared split directory), ``sweep`` (grid traversal over prepared
splits), ``simulate`` (synthetic experiments), ``geometry`` (margin
rasters), and ``report`` (aggregate sweep records into a trade-off
curve and plot).  Every run writes a ``manifest.kv`` under ``--out``
recording the fully resolved configuration and the SHA-256 of each
input file, and contains no timestamps, so identical inputs with the
same seed produce byte-identical output trees.  For ``simulate`` that
holds only at a fixed BLAS thread count (for example
``OPENBLAS_NUM_THREADS=1``): its fits' results can move in the last
bits with the number of threads.

Each command declares its options once, in one table of
``(name, parser, default, help)`` entries.  Options may also be supplied
through ``--config FILE`` (flat ``key = value`` text, keys named like the
long flags with underscores); explicit flags override file values, which
override built-in defaults.  A flag and a config value are both text
until the entry's parser reads them, so they share one parse and range
check, and every option is resolved before the command does any work.
``seed`` is a key for every command and falls back to ``$FAIRPLUG_SEED``,
then 0; ``jobs`` is a key only for ``sweep`` and ``simulate``, the two
commands with independent splits or trials to spread over processes.
A run that fails removes the ``--out`` directory if it created it; an
``--out`` that existed before the run is never touched.

Exit codes: 0 success, 2 usage/validation error, 3 data error, 4
numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import logging
import math
import os
import shutil
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from . import data, geometry, plugin, svg, sweep, synthetic
from .core import FairnessParams, _check_prob
from .cpe import FitConfig
from .errors import DataError, NumericError, ValidationError
from .kvformat import format_float, read_kv, write_kv

__all__ = ["main"]

log = logging.getLogger(__name__)

_ENV_SEED = "FAIRPLUG_SEED"


# ---------------------------------------------------------------------------
# option parsers: text in, value out, ValueError (or ValidationError) on bad text


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"expected a boolean, got {text!r}")


def _parse_eps_p(text: str) -> float:
    value = math.inf if text.strip().lower() in ("inf", "infinity") else float(text)
    if math.isnan(value) or value <= 0:
        raise ValidationError(f"eps-p must be positive or 'inf', got {text!r}")
    return value


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise ValidationError("expected at least one integer")
    return values


def _parse_params(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValidationError(
            f"takes four comma-separated numbers (lam,pi,c,c_bar), got {text!r}"
        )
    try:
        lam, pi, c, c_bar = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"values must be numeric, got {text!r}") from exc
    # a prior outside (0, 1] is wrong whether or not the setting reads it
    return lam, _check_prob("pi", pi, allow_one=True), c, c_bar


class _GridText(str):
    """The ``--grid`` text as given, which the manifest records, and the grid it names."""

    grid: sweep.SweepGrid


def _parse_grid(text: str) -> _GridText:
    """``default`` or ``lam=a:b:step,c=a:b:step,c_bar=a:b:step``: any subset, each axis once."""

    spec = _GridText(text)
    if not text.strip():
        raise ValidationError("grid is empty; give 'default' or lam=a:b:s,c=a:b:s,c_bar=a:b:s")
    if text.strip().lower() == "default":
        spec.grid = sweep.default_grid()
        return spec
    ranges = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise ValidationError(f"grid entry {entry!r} is not name=start:stop:step")
        name, _, spec_text = entry.partition("=")
        name = name.strip()
        if name not in ("lam", "c", "c_bar"):
            raise ValidationError(f"unknown grid axis {name!r} (expected lam, c, c_bar)")
        if name in ranges:
            raise ValidationError(f"grid axis {name!r} is given more than once")
        pieces = spec_text.split(":")
        if len(pieces) != 3:
            raise ValidationError(f"grid range {spec_text!r} is not start:stop:step")
        try:
            start, stop, step = (float(p) for p in pieces)
        except ValueError as exc:
            raise ValidationError(f"grid range {spec_text!r} must be numeric") from exc
        ranges[name] = sweep.GridRange(start, stop, step)
    default = sweep.default_grid()
    spec.grid = sweep.SweepGrid(
        lam=ranges.get("lam", default.lam),
        c=ranges.get("c", default.c),
        c_bar=ranges.get("c_bar", default.c_bar),
    )
    return spec


def _parse_jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}")
    return jobs


def _parse_bin_width(text: str) -> float:
    width = float(text)
    sweep._bin_count(width)
    return width


def _parse_band_scale(text: str) -> float:
    scale = float(text)
    if not (math.isfinite(scale) and scale >= 0.0):
        raise ValidationError(f"band scale must be finite and at least 0, got {text!r}")
    return scale


def _choice(options: tuple[str, ...], lead: str):
    """A parser that accepts exactly ``options``; ``lead`` opens its error message."""

    def parse(text: str) -> str:
        if text not in options:
            raise ValidationError(f"{lead} {text!r}; expected one of {options}")
        return text

    return parse


# ---------------------------------------------------------------------------
# option resolution and run records

#: Default of an option that has none: resolution fails unless it is given.
_REQUIRED = object()

_OUT = ("out", str, _REQUIRED, "output directory (created if missing)")
_SEED = ("seed", int, 0, f"master seed (falls back to ${_ENV_SEED}, then 0)")
_JOBS = ("jobs", _parse_jobs, 1, "worker processes for independent splits/trials")
_SETTING = ("setting", _choice(plugin.SETTINGS, "unknown setting"), plugin.EO_BLIND,
            "one of " + ", ".join(plugin.SETTINGS))
_BIN_WIDTH = ("bin_width", _parse_bin_width, sweep.DEFAULT_BIN_WIDTH,
              "balanced-accuracy bin width; must tile [0.5, 1]")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _resolve(table: tuple, args: argparse.Namespace) -> tuple[dict, int, int]:
    """Each option's value: from its flag, else the config file, else its default.

    ``seed`` alone also reads ``$FAIRPLUG_SEED`` before its default.  Returns
    the options the manifest records, the seed and the job count.  A value
    that fails its entry's parser is a ValidationError naming the option and
    where the value came from.
    """

    config = {} if args.config is None else read_kv(args.config)
    unknown = set(config) - {entry[0] for entry in table}
    if unknown:
        raise ValidationError(f"config file sets unknown keys: {sorted(unknown)}")
    resolved = {}
    for name, parse, default, _ in table:
        text, source = getattr(args, name), _flag(name)
        if text is None and name in config:
            text, source = config[name], f"{name} (from {args.config})"
        elif text is None and name == "seed":
            text, source = os.environ.get(_ENV_SEED), f"${_ENV_SEED}"
        try:
            resolved[name] = default if text is None else parse(text)
        except ValueError as exc:
            raise ValidationError(f"{source}: {exc}") from exc
    missing = [name for name, value in resolved.items() if value is _REQUIRED]
    if missing:
        raise ValidationError(f"{_flag(missing[0])} is required")
    return resolved, resolved.pop("seed"), resolved.pop("jobs", 1)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else format_float(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _write_manifest(
    out_dir: Path, command: str, resolved: dict, seed: int, extra: dict[str, str]
) -> None:
    """``manifest.kv``: the command, its seed and resolved options, then ``extra``.

    Every ``input.<name>.sha256`` in ``extra`` is the digest of the
    bytes the command parsed, taken as it read them, never by a second
    read of the file.
    """
    items = {"command": command, "seed": str(seed)}
    for dest, value in resolved.items():
        items[f"config.{dest}"] = _format_value(value)
    items.update(extra)
    write_kv(out_dir / "manifest.kv", sorted(items.items()))


def _out_dir(resolved: dict) -> Path:
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


_PREPARE = (
    ("input", str, _REQUIRED, "source CSV file"),
    ("schema", str, _REQUIRED, "bundled schema name or schema file path"),
    ("dp_norm", data._check_c, 0.5, "DP norm cap C in (0, 1)"),
    ("repeats", int, 20, "number of randomized splits"),
    _SEED,
    _OUT,
)


def cmd_prepare(resolved: dict, seed: int, jobs: int) -> int:
    schema_name = resolved["schema"]
    if schema_name in data.list_bundled_schemas():
        schema_path = data.bundled_schema_path(schema_name)
    else:
        schema_path = Path(schema_name)
        if not schema_path.exists():
            raise ValidationError(
                f"schema {schema_name!r} is neither a bundled name "
                f"{data.list_bundled_schemas()} nor an existing file"
            )
    schema_digest = hashlib.sha256()
    schema = data.load_schema(schema_path, schema_digest)
    dataset, report = data.load_csv_report(resolved["input"], schema)
    plan = data.SplitPlan(n_repeats=resolved["repeats"], master_seed=seed)
    splits = data.make_splits(dataset, plan)
    out = _out_dir(resolved)
    meta = {
        "schema": schema_name,
        "dp_norm_c": format_float(resolved["dp_norm"]),
        "rows_read": report.rows_read,
        "rows_dropped": report.rows_dropped,
        "feature_width": report.feature_width,
        "n_repeats": plan.n_repeats,
        "master_seed": plan.master_seed,
    }
    data.save_prepared(out, dataset, splits, meta)
    _write_manifest(
        out,
        "prepare",
        resolved,
        seed,
        {
            "input.schema.sha256": schema_digest.hexdigest(),
            "input.csv.sha256": report.sha256,
            "result.rows": str(dataset.n),
            "result.splits": str(len(splits)),
        },
    )
    print(
        f"prepared {dataset.n} rows ({report.rows_dropped} dropped, "
        f"{report.feature_width} features) with {len(splits)} splits -> {out}"
    )
    return 0


_SWEEP = (
    ("prepared", str, _REQUIRED, "prepared dataset directory"),
    _SETTING,
    ("eps_p", _parse_eps_p, 1.0, "per-split privacy budget ('inf' disables DP)"),
    ("grid", _parse_grid, _parse_grid("default"), "'default' or lam=a:b:s,c=a:b:s,c_bar=a:b:s"),
    ("dp_norm", data._check_c, None, "DP norm cap C in (0, 1); defaults to the prepared one"),
    ("cpe_lambda", float, 1e-2, "ridge strength of the class-probability fits"),
    _BIN_WIDTH,
    _SEED,
    _JOBS,
    _OUT,
)


def cmd_sweep(resolved: dict, seed: int, jobs: int) -> int:
    prepared_dir = Path(resolved["prepared"])
    prepared = data.load_prepared(prepared_dir)
    if resolved["dp_norm"] is None:
        resolved["dp_norm"] = float(prepared.meta.get("dp_norm_c", 0.5))
    grid = resolved["grid"].grid
    cpe_config = FitConfig(lambda_reg=resolved["cpe_lambda"])
    table = sweep.run_sweep(
        prepared,
        grid,
        resolved["setting"],
        resolved["eps_p"],
        cpe_config,
        seed,
        dp_norm_c=resolved["dp_norm"],
        jobs=jobs,
    )
    out = _out_dir(resolved)
    sweep.write_records_csv(table, out / "records.csv")
    curve = sweep.tradeoff_curve(table, resolved["bin_width"])
    _write_tradeoff_csv(curve, out / "curve.csv")
    flagged = int(np.count_nonzero(table.degenerate))
    _write_manifest(
        out,
        "sweep",
        resolved,
        seed,
        {
            **{f"input.{name}.sha256": digest for name, digest in prepared.digests.items()},
            "result.grid_points": str(grid.cardinality),
            "result.records": str(len(table)),
            "result.flagged": str(flagged),
        },
    )
    print(
        f"swept {grid.cardinality} grid points over {len(prepared.splits)} splits "
        f"({flagged} flagged records) -> {out}"
    )
    return 0


_EXPERIMENTS = ("consistency", "frontier", "tradeoff-gap", "sample-complexity")

_SIMULATE = (
    ("experiment", _choice(_EXPERIMENTS, "unknown experiment"), _REQUIRED,
     "one of " + ", ".join(_EXPERIMENTS)),
    ("dist", str, "reference-eo", "distribution file, reference-eo, or reference-dpar"),
    _SETTING,
    ("lam", float, 1.0, "fairness trade-off weight"),
    ("c", float, 0.5, "false-positive cost on the label, in (0, 1)"),
    ("c_bar", float, 0.5, "false-positive cost on the sensitive attribute, in (0, 1)"),
    ("n", int, 2048, "training size (tradeoff-gap)"),
    ("n_schedule", _parse_int_list, (256, 1024, 4096), "consistency sizes"),
    ("trials", int, 10, "independent trials"),
    ("m_eval", int, 100_000, "node budget of the run's one population, priors included"),
    ("known_pi", _parse_bool, False, "EO settings use the true label prior (known-prior regime)"),
    ("cpe_lambda", float, None, "ridge strength of the class-probability fits"),
    ("which", _choice(synthetic.COMPLEXITY_TARGETS, "unknown sample-complexity target"),
     "eta", "one of " + ", ".join(synthetic.COMPLEXITY_TARGETS)),
    ("eps_target", geometry._check_eps, 0.1,
     "error size eps in (0, 0.5), also the margin half-width (sample-complexity)"),
    ("delta_prime", float, 0.1, "allowed P(|error| >= eps) per trial (sample-complexity)"),
    ("delta", float, 0.2, "allowed share of failing trials (sample-complexity)"),
    ("start", int, 32, "smallest probed n (sample-complexity)"),
    ("cap", int, 65536, "largest probed n (sample-complexity)"),
    _SEED,
    _JOBS,
    _OUT,
)


def _resolve_distribution(name: str) -> tuple[synthetic.SyntheticDistribution, dict[str, str]]:
    """The law ``--dist`` names, and the manifest's digest of its file (none for a reference)."""
    if name == "reference-eo":
        return synthetic.reference_eo(), {}
    if name == "reference-dpar":
        return synthetic.reference_dpar(), {}
    path = Path(name)
    if not path.exists():
        raise ValidationError(
            f"--dist {name!r} is neither reference-eo, reference-dpar, nor an existing file"
        )
    digest = hashlib.sha256()
    return synthetic.load_distribution(path, digest), {"input.dist.sha256": digest.hexdigest()}


def cmd_simulate(resolved: dict, seed: int, jobs: int) -> int:
    experiment = resolved["experiment"]
    # Only consistency takes a rule; the others run eo-blind or no rule at all.
    if experiment != "consistency" and resolved["setting"] != plugin.EO_BLIND:
        raise ValidationError(
            f"--setting {resolved['setting']} applies to --experiment consistency only; "
            f"{experiment} takes no other setting than {plugin.EO_BLIND}"
        )
    dist, extra = _resolve_distribution(resolved["dist"])
    params = FairnessParams(resolved["lam"], resolved["c"], resolved["c_bar"])
    fit_config = (
        None
        if resolved["cpe_lambda"] is None
        else FitConfig(lambda_reg=resolved["cpe_lambda"])
    )
    pop = synthetic.population(dist, resolved["m_eval"])
    if experiment == "consistency":
        curve = synthetic.consistency_curve(
            pop,
            resolved["setting"],
            params,
            resolved["n_schedule"],
            resolved["trials"],
            seed,
            config=fit_config,
            known_pi=resolved["known_pi"],
            jobs=jobs,
        )
        out = _out_dir(resolved)
        _write_csv_rows(
            out / "curve.csv",
            ["n", "mean", "std", "trials"],
            [[p.n, p.mean_regret, p.std_regret, p.trials] for p in curve.points],
        )
        sizes = np.array([p.n for p in curve.points], dtype=float)
        means = np.array([p.mean_regret for p in curve.points])
        stds = np.array([p.std_regret for p in curve.points])
        svg.write_svg(
            svg.line_plot_svg(
                "mean regret", sizes, means, (means - stds, means + stds),
                title=f"Regret vs sample size ({resolved['setting']})",
                x_label="training samples",
                y_label="regret",
                x_log=True,
            ),
            out / "curve.svg",
        )
        extra["result.final_mean_regret"] = format_float(curve.points[-1].mean_regret)
        extra["result.resamples"] = str(curve.resamples)
    elif experiment == "frontier":
        value = synthetic.frontier(pop, resolved["lam"], params)
        out = _out_dir(resolved)
        _write_csv_rows(
            out / "frontier.csv",
            ["lambda", "c", "c_bar", "m_eval", "frontier"],
            [[params.lam, params.c, params.c_bar, resolved["m_eval"], value]],
        )
        extra["result.frontier"] = format_float(value)
    elif experiment == "tradeoff-gap":
        result = synthetic.tradeoff_gap(
            pop,
            resolved["lam"],
            params,
            resolved["n"],
            resolved["trials"],
            seed,
            config=fit_config,
            jobs=jobs,
        )
        out = _out_dir(resolved)
        _write_csv_rows(
            out / "gap.csv",
            ["lambda", "c", "c_bar", "n", "trials", "gap", "gap_std", "frontier", "excess"],
            [
                [
                    params.lam,
                    params.c,
                    params.c_bar,
                    result.n,
                    result.trials,
                    result.gap,
                    result.gap_std,
                    result.frontier,
                    result.excess,
                ]
            ],
        )
        extra["result.gap"] = format_float(result.gap)
        extra["result.excess"] = format_float(result.excess)
    else:
        constants = _margin_constants(pop, params, resolved)
        result = synthetic.estimate_sample_complexity(
            pop,
            (resolved["eps_target"], resolved["delta_prime"]),
            resolved["delta"],
            resolved["trials"],
            seed,
            which=resolved["which"],
            start=resolved["start"],
            cap=resolved["cap"],
            config=fit_config,
            jobs=jobs,
        )
        out = _out_dir(resolved)
        _write_csv_rows(
            out / "complexity.csv",
            ["n", "converged", "eps", "delta_prime", "delta", "trials", "which"],
            [
                [
                    result.n,
                    int(result.converged),
                    result.eps,
                    result.delta_prime,
                    result.delta,
                    result.trials,
                    resolved["which"],
                ]
            ],
        )
        _write_csv_rows(
            out / "probes.csv",
            ["n", "success_rate"],
            [[n, rate] for n, rate in result.probes],
        )
        extra["result.n"] = str(result.n)
        extra["result.converged"] = "true" if result.converged else "false"
        for name in ("margin_mass", "b_const", "g_const", "q_const"):
            extra[f"result.{name}"] = format_float(getattr(constants, name))

    _write_manifest(out, f"simulate.{experiment}", resolved, seed, extra)
    print(f"simulate {experiment} on {resolved['dist']} -> {out}")
    return 0


def _margin_constants(
    pop: synthetic.Population, params: FairnessParams, resolved: dict
) -> geometry.BoundConstants:
    """Finite-sample constants of the exact eo-blind rule at ``--eps-target``.

    The margin mass is the weight of the margin members among the nodes
    of the run's population, mapped through their true ``(eta, eta_bar)``,
    and the priors are the population's.
    """

    stats = pop.stats
    rule = synthetic.bayes_classifier(pop.dist, plugin.EO_BLIND, params, stats.pi)
    coords = plugin.coordinates(rule, pop.nodes)
    mass = geometry.estimate_margin_mass(
        coords, pop.weights, plugin.EO_BLIND, params, stats.pi, resolved["eps_target"]
    )
    return geometry.bound_constants(mass, resolved["delta_prime"], stats, params)


def _write_csv_rows(path: Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """Every table a command writes: floats by ``format_float``, anything else by ``str``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [format_float(v) if isinstance(v, float) else str(v) for v in row]
            )


def _write_tradeoff_csv(curve: sweep.TradeoffCurve, path: Path) -> None:
    _write_csv_rows(
        path,
        ["bin_low", "mean", "std", "n"],
        [[stat.bin_low, stat.mean, stat.std, stat.n_splits] for stat in curve.bins],
    )


_GEOMETRY = (
    ("params", _parse_params, _REQUIRED, "lam,pi,c,c_bar"),
    ("setting",
     _choice((plugin.EO_BLIND, plugin.DPAR_BLIND),
             "geometry rasters cover the blind settings only, got"),
     plugin.EO_BLIND, f"{plugin.EO_BLIND} or {plugin.DPAR_BLIND}"),
    ("eps", geometry._check_eps, 0.05, "margin half-width in (0, 0.5)"),
    ("raster", lambda text: geometry.check_raster(int(text)), 201,
     "lattice points per axis, at least 2"),
    ("svg", _parse_bool, False, "also draw the margin region as raster.svg"),
    _SEED,
    _OUT,
)


def cmd_geometry(resolved: dict, seed: int, jobs: int) -> int:
    lam, pi, c, c_bar = resolved["params"]
    setting = resolved["setting"]
    params = FairnessParams(lam, c, c_bar)
    asym = geometry.asymptote_x(params, pi) if setting == plugin.EO_BLIND else None
    out = _out_dir(resolved)
    n = resolved["raster"]
    columns, mask = geometry.raster(setting, params, pi, n, resolved["eps"])
    _write_csv_rows(
        out / "raster.csv",
        ["u", "v", "sign", "in_margin"],
        zip(*(column.tolist() for column in columns)),
    )
    extra = {"result.rows": str(mask.size)}
    annotation = ""
    if asym is not None:
        extra["result.asymptote_x"] = format_float(asym)
        annotation = f"vertical asymptote at u = {asym:.6g}"
    if resolved["svg"]:
        axis = np.linspace(0.0, 1.0, n)
        svg.write_svg(
            svg.region_plot_svg(
                axis,
                mask,
                geometry.boundary_polyline(setting, params, pi, axis),
                title=f"{setting} margin region (eps={resolved['eps']:g})",
                annotation=annotation,
            ),
            out / "raster.svg",
        )
    _write_manifest(out, "geometry", resolved, seed, extra)
    print(f"rastered {mask.size} points for {setting} -> {out}")
    return 0


_REPORT = (
    ("records", str, _REQUIRED,
     "records.csv (15 columns, with the integer counts) or its directory"),
    ("band_scale", _parse_band_scale, 0.2, "half-height of the band, in standard deviations"),
    _BIN_WIDTH,
    _SEED,
    _OUT,
)


def cmd_report(resolved: dict, seed: int, jobs: int) -> int:
    records_path = Path(resolved["records"])
    if records_path.is_dir():
        records_path = records_path / "records.csv"
    if not records_path.exists():
        raise DataError(f"no records file at {records_path}")
    digest = hashlib.sha256()
    table = sweep.read_records_csv(records_path, digest)
    curve = sweep.tradeoff_curve(table, resolved["bin_width"])
    if not curve.bins:
        raise DataError("no usable (unflagged, bal_acc >= 0.5) records to aggregate")
    out = _out_dir(resolved)
    _write_tradeoff_csv(curve, out / "curve.csv")
    xs = np.array([b.bin_low for b in curve.bins])
    means = np.array([b.mean for b in curve.bins])
    stds = np.array([b.std for b in curve.bins])
    scale = resolved["band_scale"]
    svg.write_svg(
        svg.line_plot_svg(
            "mean min violation", xs, means, (means - scale * stds, means + scale * stds),
            title="Fairness violation vs balanced accuracy",
            x_label="balanced-accuracy bin (lower edge)",
            y_label="minimum violation",
        ),
        out / "curve.svg",
    )
    _write_manifest(
        out,
        "report",
        resolved,
        seed,
        {"input.records.sha256": digest.hexdigest(), "result.bins": str(len(curve.bins))},
    )
    print(f"aggregated {len(table)} records into {len(curve.bins)} bins -> {out}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly and entry point

#: command -> (handler, one-line help, option table)
_COMMANDS = {
    "prepare": (cmd_prepare, "encode a CSV and write repeated splits", _PREPARE),
    "sweep": (cmd_sweep, "traverse the (lam, c, c_bar) grid per split", _SWEEP),
    "simulate": (cmd_simulate, "synthetic-distribution experiments", _SIMULATE),
    "geometry": (cmd_geometry, "raster a decision-boundary margin", _GEOMETRY),
    "report": (cmd_report, "aggregate sweep records into a trade-off curve", _REPORT),
}


def build_parser() -> argparse.ArgumentParser:
    """Flags generated from the option tables; every value arrives as text.

    Flags must be spelled out: with abbreviations a removed flag such as
    ``--m`` would silently set the one it prefixes (``--m-eval``).
    """

    parser = argparse.ArgumentParser(
        prog="fairplug",
        description="Fairness-aware cost-sensitive classification toolkit",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, table) in _COMMANDS.items():
        sub = commands.add_parser(command, help=summary, allow_abbrev=False)
        sub.add_argument("--config", help="flat key=value config file; flags override it")
        for name, parse, _, help_text in table:
            # a boolean option is a switch: present means "true"
            switch = {"action": "store_const", "const": "true"} if parse is _parse_bool else {}
            sub.add_argument(_flag(name), dest=name, help=help_text, **switch)
    return parser


def _first_missing(path: Path) -> Path | None:
    """The outermost directory that creating ``path`` would create, if any."""

    return next((p for p in (*reversed(path.parents), path) if not p.exists()), None)


#: glibc ``mallopt`` parameters (``malloc.h``) and the values ``main`` sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD = 1 << 30  # 1 GiB
_MMAP_THRESHOLD = 32 << 20  # 32 MiB: glibc's own dynamic ceiling on 64-bit


def _keep_freed_pages() -> None:
    """Make glibc keep freed heap pages instead of returning them to the kernel.

    By default glibc serves blocks of 128 KiB and more with their own
    ``mmap`` and trims the heap top once 128 KiB of it are free, raising
    both thresholds as it sees large blocks freed.  A run frees
    row-sized numpy temporaries all the time, so each fresh one faults
    its pages in again.  Raising the mmap threshold to 32 MiB puts those
    blocks on the heap, and raising the trim threshold to 1 GiB keeps the
    heap's freed pages mapped for the next temporary.  Both must be set:
    setting either one turns off glibc's dynamic adjustment of the other,
    so the mmap threshold alone leaves the heap trimmed at every 128 KiB,
    and the trim threshold alone maps every block of 128 KiB or more
    afresh; either way a run faults more pages than with the defaults.
    (A 20-trial ``simulate --experiment consistency`` at n = 16384 took
    47k minor faults with the defaults, 111k with the mmap threshold
    alone, 123k with the trim threshold alone and 1.3k with both, on
    x86-64 glibc 2.36.)  So the trim threshold is set only once the mmap
    threshold was accepted.  Where ``mallopt`` does not exist (not
    glibc) this does nothing.
    """

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_pages()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler, _, table = _COMMANDS[args.command]
    created = None
    code = 1
    try:
        resolved, seed, jobs = _resolve(table, args)
        created = _first_missing(Path(resolved["out"]))
        code = handler(resolved, seed, jobs)
    except ValidationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        code = 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        code = 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        code = 4
    finally:
        if code != 0 and created is not None:
            shutil.rmtree(created, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
