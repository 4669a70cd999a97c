"""Command-line front door.

Five subcommands cover the artifact surface: ``prepare`` (CSV ->
prepared split directory), ``sweep`` (grid traversal over prepared
splits), ``simulate`` (synthetic experiments), ``geometry`` (margin
rasters), and ``report`` (aggregate sweep records into a trade-off
curve and plot).  Every run writes a ``manifest.kv`` under ``--out``
recording the fully resolved configuration and the SHA-256 of each
input file, and contains no timestamps, so identical inputs with the
same seed produce byte-identical output trees.

Options may also be supplied through ``--config FILE`` (flat
``key = value`` text, keys named like the long flags with underscores);
explicit flags override file values, which override built-in defaults.
Exit codes: 0 success, 2 usage/validation error, 3 data error, 4
numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import data, geometry, plugin, svg, sweep, synthetic
from .core import FairnessParams
from .cpe import FitConfig
from .errors import DataError, NumericError, ValidationError
from .kvformat import format_float, read_kv, write_kv

__all__ = ["main"]

log = logging.getLogger(__name__)

_ENV_SEED = "FAIRPLUG_SEED"


# ---------------------------------------------------------------------------
# option plumbing


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
            f"--params takes four comma-separated numbers (lam,pi,c,c_bar), got {text!r}"
        )
    try:
        lam, pi, c, c_bar = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"--params values must be numeric, got {text!r}") from exc
    return lam, pi, c, c_bar


def _parse_grid(text: str) -> sweep.SweepGrid:
    """``default`` or ``lam=a:b:step,c=a:b:step,c_bar=a:b:step`` (any subset)."""

    if text.strip().lower() == "default":
        return sweep.default_grid()
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
        pieces = spec_text.split(":")
        if len(pieces) != 3:
            raise ValidationError(f"grid range {spec_text!r} is not start:stop:step")
        try:
            start, stop, step = (float(p) for p in pieces)
        except ValueError as exc:
            raise ValidationError(f"grid range {spec_text!r} must be numeric") from exc
        ranges[name] = sweep.GridRange(start, stop, step)
    default = sweep.default_grid()
    return sweep.SweepGrid(
        lam=ranges.get("lam", default.lam),
        c=ranges.get("c", default.c),
        c_bar=ranges.get("c_bar", default.c_bar),
    )


def _load_config_file(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    return read_kv(path)


def _resolve(args: argparse.Namespace, option_specs: dict, config: dict[str, str]) -> dict:
    """Merge CLI values, config-file values, and defaults, in that order."""

    resolved = {}
    for dest, (parser, default) in option_specs.items():
        cli_value = getattr(args, dest, None)
        if cli_value is not None:
            resolved[dest] = cli_value
        elif dest in config:
            resolved[dest] = parser(config[dest])
        else:
            resolved[dest] = default
    unknown = set(config) - set(option_specs) - {"seed", "jobs"}
    if unknown:
        raise ValidationError(f"config file sets unknown keys: {sorted(unknown)}")
    return resolved


def _resolve_seed(args: argparse.Namespace, config: dict[str, str]) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    if "seed" in config:
        return int(config["seed"])
    env = os.environ.get(_ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValidationError(f"{_ENV_SEED} must be an integer, got {env!r}") from exc
    return 0


def _resolve_jobs(args: argparse.Namespace, config: dict[str, str]) -> int:
    value = getattr(args, "jobs", None)
    if value is None:
        value = int(config.get("jobs", 1))
    jobs = int(value)
    if jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {jobs}")
    return jobs


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else format_float(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(
    out_dir: Path,
    command: str,
    resolved: dict,
    seed: int,
    inputs: dict[str, Path],
    extra: dict[str, str] | None = None,
) -> None:
    items = {"command": command, "seed": str(seed)}
    for dest, value in resolved.items():
        items[f"config.{dest}"] = _format_value(value)
    for name, path in inputs.items():
        items[f"input.{name}.sha256"] = _sha256(path)
    items.update(extra or {})
    write_kv(out_dir / "manifest.kv", sorted(items.items()))


def _out_dir(resolved: dict) -> Path:
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


_PREPARE_OPTIONS = {
    "input": (str, None),
    "schema": (str, None),
    "dp_norm": (float, 0.5),
    "repeats": (int, 20),
    "out": (str, None),
}


def cmd_prepare(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    resolved = _resolve(args, _PREPARE_OPTIONS, config)
    seed = _resolve_seed(args, config)
    for required in ("input", "schema", "out"):
        if resolved[required] is None:
            raise ValidationError(f"--{required} is required")
    data._check_c(resolved["dp_norm"])
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
    schema = data.load_schema(schema_path)
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
        {"csv": Path(resolved["input"]), "schema": schema_path},
        {"result.rows": str(dataset.n), "result.splits": str(len(splits))},
    )
    print(
        f"prepared {dataset.n} rows ({report.rows_dropped} dropped, "
        f"{report.feature_width} features) with {len(splits)} splits -> {out}"
    )
    return 0


_SWEEP_OPTIONS = {
    "prepared": (str, None),
    "setting": (str, plugin.EO_BLIND),
    "eps_p": (_parse_eps_p, 1.0),
    "grid": (str, "default"),
    "dp_norm": (float, None),
    "cpe_lambda": (float, 1e-2),
    "bin_width": (float, sweep.DEFAULT_BIN_WIDTH),
    "out": (str, None),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    resolved = _resolve(args, _SWEEP_OPTIONS, config)
    seed = _resolve_seed(args, config)
    jobs = _resolve_jobs(args, config)
    for required in ("prepared", "out"):
        if resolved[required] is None:
            raise ValidationError(f"--{required} is required")
    sweep._bin_count(resolved["bin_width"])
    prepared_dir = Path(resolved["prepared"])
    prepared = data.load_prepared(prepared_dir)
    if resolved["dp_norm"] is None:
        resolved["dp_norm"] = float(prepared.meta.get("dp_norm_c", 0.5))
    grid = _parse_grid(resolved["grid"])
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
    sweep.write_tradeoff_csv(curve, out / "curve.csv")
    inputs = {
        name: prepared_dir / name
        for name in ("features.npy", "labels.npy", "sensitive.npy", "meta.kv")
    }
    inputs.update((path.name, path) for path in data.split_paths(prepared_dir))
    flagged = int(np.count_nonzero(table.degenerate))
    _write_manifest(
        out,
        "sweep",
        resolved,
        seed,
        inputs,
        {
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


_SIMULATE_OPTIONS = {
    "experiment": (str, None),
    "dist": (str, "reference-eo"),
    "setting": (str, plugin.EO_BLIND),
    "lam": (float, 1.0),
    "c": (float, 0.5),
    "c_bar": (float, 0.5),
    "n": (int, 2048),
    "n_schedule": (_parse_int_list, (256, 1024, 4096)),
    "trials": (int, 10),
    "m_eval": (int, 100_000),
    "m": (int, 200_000),
    "known_pi": (_parse_bool, False),
    "cpe_lambda": (float, None),
    "which": (str, "eta"),
    "eps_target": (float, 0.1),
    "delta_prime": (float, 0.1),
    "delta": (float, 0.2),
    "start": (int, 32),
    "cap": (int, 65536),
    "out": (str, None),
}

_EXPERIMENTS = ("consistency", "frontier", "tradeoff-gap", "sample-complexity")


def _resolve_distribution(name: str) -> tuple[synthetic.SyntheticDistribution, Path | None]:
    if name == "reference-eo":
        return synthetic.reference_eo(), None
    if name == "reference-dpar":
        return synthetic.reference_dpar(), None
    path = Path(name)
    if not path.exists():
        raise ValidationError(
            f"--dist {name!r} is neither reference-eo, reference-dpar, nor an existing file"
        )
    return synthetic.load_distribution(path), path


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    resolved = _resolve(args, _SIMULATE_OPTIONS, config)
    seed = _resolve_seed(args, config)
    jobs = _resolve_jobs(args, config)
    if resolved["out"] is None:
        raise ValidationError("--out is required")
    experiment = resolved["experiment"]
    if experiment not in _EXPERIMENTS:
        raise ValidationError(f"unknown experiment {experiment!r}; expected one of {_EXPERIMENTS}")
    dist, dist_path = _resolve_distribution(resolved["dist"])
    params = FairnessParams(resolved["lam"], resolved["c"], resolved["c_bar"])
    fit_config = (
        None
        if resolved["cpe_lambda"] is None
        else FitConfig(lambda_reg=resolved["cpe_lambda"])
    )
    # Each experiment validates its inputs and runs before --out is created,
    # so a rejected or failed run leaves no directory behind.
    extra: dict[str, str] = {}
    if experiment == "consistency":
        curve = synthetic.consistency_curve(
            dist,
            resolved["setting"],
            params,
            resolved["n_schedule"],
            resolved["trials"],
            resolved["m_eval"],
            seed,
            config=fit_config,
            known_pi=resolved["known_pi"],
            jobs=jobs,
        )
        out = _out_dir(resolved)
        synthetic.write_curve_csv(curve, out / "curve.csv")
        sizes = np.array([p.n for p in curve.points], dtype=float)
        means = np.array([p.mean_regret for p in curve.points])
        stds = np.array([p.std_regret for p in curve.points])
        svg.write_svg(
            svg.line_plot_svg(
                [("mean regret", sizes, means)],
                title=f"Regret vs sample size ({resolved['setting']})",
                x_label="training samples",
                y_label="regret",
                bands=[(sizes, means - stds, means + stds)],
                x_log=True,
            ),
            out / "curve.svg",
        )
        extra["result.final_mean_regret"] = format_float(curve.points[-1].mean_regret)
        extra["result.resamples"] = str(curve.resamples)
    elif experiment == "frontier":
        value = synthetic.frontier(dist, resolved["lam"], params, resolved["m"], seed)
        out = _out_dir(resolved)
        _write_csv_rows(
            out / "frontier.csv",
            ["lambda", "c", "c_bar", "m", "frontier"],
            [[params.lam, params.c, params.c_bar, resolved["m"], value]],
        )
        extra["result.frontier"] = format_float(value)
    elif experiment == "tradeoff-gap":
        result = synthetic.tradeoff_gap(
            dist,
            resolved["lam"],
            params,
            resolved["n"],
            resolved["trials"],
            resolved["m_eval"],
            seed,
            config=fit_config,
            frontier_m=resolved["m"],
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
        result = synthetic.estimate_sample_complexity(
            dist,
            (resolved["eps_target"], resolved["delta_prime"]),
            resolved["delta"],
            resolved["trials"],
            seed,
            which=resolved["which"],
            start=resolved["start"],
            cap=resolved["cap"],
            config=fit_config,
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

    inputs = {} if dist_path is None else {"dist": dist_path}
    _write_manifest(out, f"simulate.{experiment}", resolved, seed, inputs, extra)
    print(f"simulate {experiment} on {resolved['dist']} -> {out}")
    return 0


def _write_csv_rows(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [format_float(v) if isinstance(v, float) else str(v) for v in row]
            )


_GEOMETRY_OPTIONS = {
    "params": (_parse_params, None),
    "setting": (str, plugin.EO_BLIND),
    "eps": (float, 0.05),
    "raster": (int, 201),
    "svg": (_parse_bool, False),
    "out": (str, None),
}


def cmd_geometry(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    resolved = _resolve(args, _GEOMETRY_OPTIONS, config)
    seed = _resolve_seed(args, config)
    for required in ("params", "out"):
        if resolved[required] is None:
            raise ValidationError(f"--{required} is required")
    lam, pi, c, c_bar = resolved["params"]
    setting = resolved["setting"]
    if setting not in (plugin.EO_BLIND, plugin.DPAR_BLIND):
        raise ValidationError(
            f"geometry rasters cover the blind settings only, got {setting!r}"
        )
    params = FairnessParams(lam, c, c_bar)
    asym = geometry.asymptote_x(params, pi) if setting == plugin.EO_BLIND else None
    geometry.check_raster(resolved["raster"], resolved["eps"])  # before --out is created
    out = _out_dir(resolved)
    rows = geometry.write_raster_csv(
        setting, params, pi, resolved["raster"], resolved["eps"], out / "raster.csv"
    )
    extra = {"result.rows": str(rows)}
    annotation = ""
    if asym is not None:
        extra["result.asymptote_x"] = format_float(asym)
        annotation = f"vertical asymptote at u = {asym:.6g}"
    if resolved["svg"]:
        n = int(resolved["raster"])
        axis = np.linspace(0.0, 1.0, n)
        grid_u, grid_v = np.meshgrid(axis, axis, indexing="ij")
        mask = geometry.margin_membership(
            setting, params, pi, (grid_v.ravel(), grid_u.ravel()), resolved["eps"]
        ).reshape(n, n)
        svg.write_svg(
            svg.region_plot_svg(
                axis,
                mask,
                _boundary_polyline(setting, params, pi, axis),
                title=f"{setting} margin region (eps={resolved['eps']:g})",
                annotation=annotation,
            ),
            out / "raster.svg",
        )
    _write_manifest(out, "geometry", resolved, seed, {}, extra)
    print(f"rastered {rows} points for {setting} -> {out}")
    return 0


def _boundary_polyline(
    setting: str, params: FairnessParams, pi: float, axis: np.ndarray
) -> list[tuple[float, float]]:
    """Zero-level points of a blind setting's score, one per raster column.

    The score is affine in ``eta`` (the vertical axis) at each fixed
    ``eta_bar`` (the horizontal one), so the root on each column is exact
    from the scores at ``eta = 0`` and ``eta = 1``.
    """

    bottom, top = (
        plugin.setting_score(setting, eta, axis, pi, params.lam, params.c, params.c_bar)
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


_REPORT_OPTIONS = {
    "records": (str, None),
    "band_scale": (float, 0.2),
    "bin_width": (float, sweep.DEFAULT_BIN_WIDTH),
    "out": (str, None),
}


def cmd_report(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    resolved = _resolve(args, _REPORT_OPTIONS, config)
    seed = _resolve_seed(args, config)
    for required in ("records", "out"):
        if resolved[required] is None:
            raise ValidationError(f"--{required} is required")
    records_path = Path(resolved["records"])
    if records_path.is_dir():
        records_path = records_path / "records.csv"
    if not records_path.exists():
        raise DataError(f"no records file at {records_path}")
    table = sweep.read_records_csv(records_path)
    curve = sweep.tradeoff_curve(table, resolved["bin_width"])
    if not curve.bins:
        raise DataError("no usable (unflagged, bal_acc >= 0.5) records to aggregate")
    out = _out_dir(resolved)
    sweep.write_tradeoff_csv(curve, out / "curve.csv")
    xs = np.array([b.bin_low for b in curve.bins])
    means = np.array([b.mean for b in curve.bins])
    stds = np.array([b.std for b in curve.bins])
    scale = resolved["band_scale"]
    svg.write_svg(
        svg.line_plot_svg(
            [("mean min violation", xs, means)],
            title="Fairness violation vs balanced accuracy",
            x_label="balanced-accuracy bin (lower edge)",
            y_label="minimum violation",
            bands=[(xs, means - scale * stds, means + scale * stds)],
        ),
        out / "curve.svg",
    )
    _write_manifest(
        out,
        "report",
        resolved,
        seed,
        {"records": records_path},
        {"result.bins": str(len(curve.bins))},
    )
    print(f"aggregated {len(table)} records into {len(curve.bins)} bins -> {out}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file; flags override it")
    sub.add_argument("--seed", type=int, help=f"master seed (falls back to ${_ENV_SEED}, then 0)")
    sub.add_argument("--jobs", type=int, help="worker processes for independent splits/trials")
    sub.add_argument("--out", help="output directory (created if missing)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairplug",
        description="Fairness-aware cost-sensitive classification toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    prepare = commands.add_parser("prepare", help="encode a CSV and write repeated splits")
    prepare.add_argument("--input", help="source CSV file")
    prepare.add_argument("--schema", help="bundled schema name or schema file path")
    prepare.add_argument("--dp-norm", dest="dp_norm", type=float, help="DP norm cap C in (0, 1)")
    prepare.add_argument("--repeats", type=int, help="number of randomized splits")
    _add_common(prepare)
    prepare.set_defaults(handler=cmd_prepare)

    sweep_cmd = commands.add_parser("sweep", help="traverse the (lam, c, c_bar) grid per split")
    sweep_cmd.add_argument("--prepared", help="prepared dataset directory")
    sweep_cmd.add_argument("--setting", choices=plugin.SETTINGS)
    sweep_cmd.add_argument(
        "--eps-p", dest="eps_p", type=_parse_eps_p, help="privacy budget ('inf' disables DP)"
    )
    sweep_cmd.add_argument("--grid", help="'default' or lam=a:b:s,c=a:b:s,c_bar=a:b:s")
    sweep_cmd.add_argument("--dp-norm", dest="dp_norm", type=float)
    sweep_cmd.add_argument("--cpe-lambda", dest="cpe_lambda", type=float)
    sweep_cmd.add_argument("--bin-width", dest="bin_width", type=float)
    _add_common(sweep_cmd)
    sweep_cmd.set_defaults(handler=cmd_sweep)

    simulate = commands.add_parser("simulate", help="synthetic-distribution experiments")
    simulate.add_argument("--experiment", choices=_EXPERIMENTS)
    simulate.add_argument("--dist", help="distribution file, reference-eo, or reference-dpar")
    simulate.add_argument("--setting", choices=plugin.SETTINGS)
    simulate.add_argument("--lam", type=float)
    simulate.add_argument("--c", type=float)
    simulate.add_argument("--c-bar", dest="c_bar", type=float)
    simulate.add_argument("--n", type=int, help="training size (tradeoff-gap)")
    simulate.add_argument(
        "--n-schedule", dest="n_schedule", type=_parse_int_list, help="consistency sizes"
    )
    simulate.add_argument("--trials", type=int)
    simulate.add_argument("--m-eval", dest="m_eval", type=int, help="evaluation draw size")
    simulate.add_argument("--m", type=int, help="Monte-Carlo draws (frontier)")
    simulate.add_argument(
        "--known-pi", dest="known_pi", action="store_const", const=True, default=None
    )
    simulate.add_argument("--cpe-lambda", dest="cpe_lambda", type=float)
    simulate.add_argument("--which", choices=synthetic.COMPLEXITY_TARGETS)
    simulate.add_argument("--eps-target", dest="eps_target", type=float)
    simulate.add_argument("--delta-prime", dest="delta_prime", type=float)
    simulate.add_argument("--delta", type=float)
    simulate.add_argument("--start", type=int, help="smallest probed n (sample-complexity)")
    simulate.add_argument("--cap", type=int, help="largest probed n (sample-complexity)")
    _add_common(simulate)
    simulate.set_defaults(handler=cmd_simulate)

    geometry_cmd = commands.add_parser("geometry", help="raster a decision-boundary margin")
    geometry_cmd.add_argument("--params", type=_parse_params, help="lam,pi,c,c_bar")
    geometry_cmd.add_argument("--setting", choices=(plugin.EO_BLIND, plugin.DPAR_BLIND))
    geometry_cmd.add_argument("--eps", type=float, help="margin half-width in (0, 0.5)")
    geometry_cmd.add_argument("--raster", type=int, help="lattice points per axis")
    geometry_cmd.add_argument("--svg", action="store_const", const=True, default=None)
    _add_common(geometry_cmd)
    geometry_cmd.set_defaults(handler=cmd_geometry)

    report = commands.add_parser("report", help="aggregate sweep records into a trade-off curve")
    report.add_argument(
        "--records", help="records.csv (15 columns, with the integer counts) or its directory"
    )
    report.add_argument("--band-scale", dest="band_scale", type=float)
    report.add_argument("--bin-width", dest="bin_width", type=float)
    _add_common(report)
    report.set_defaults(handler=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
