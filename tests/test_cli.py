"""End-to-end tests of the command-line layer.

Each subcommand is exercised through :func:`fairplug.cli.main` with
small inputs; assertions cover exit codes, the resolved-option
precedence (flags over config file over defaults), manifest contents,
and the output-file schemas.  Numerical behavior of the underlying
routines is covered by the per-module tests, not re-proven here.
"""

from __future__ import annotations

import csv
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fairplug
from fairplug import cli, cpe, data, geometry, sweep, synthetic
from fairplug.cli import main
from fairplug.core import FairnessParams
from fairplug.errors import DataError
from fairplug.kvformat import read_kv
from fairplug.plugin import EO_BLIND

import oracles

GEO_PARAMS = "0.4,0.85,0.8,0.9"
SMALL_GRID = "lam=-1:1:1,c=0.3:0.7:0.2,c_bar=0.4:0.6:0.1"  # 27 points


def write_config(path: Path, **items) -> Path:
    path.write_text("".join(f"{key} = {value}\n" for key, value in items.items()))
    return path


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def prepared_dir(tmp_path_factory, tiny_csv, tiny_schema) -> Path:
    out = tmp_path_factory.mktemp("cli_prep")
    code = main(
        [
            "prepare",
            "--input", str(tiny_csv),
            "--schema", str(tiny_schema),
            "--dp-norm", "0.6",
            "--repeats", "2",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory, prepared_dir) -> Path:
    out = tmp_path_factory.mktemp("cli_sweep")
    code = main(
        [
            "sweep",
            "--prepared", str(prepared_dir),
            "--grid", SMALL_GRID,
            "--eps-p", "inf",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["geometry", "--no-such-flag"]) == 2
        capsys.readouterr()

    def test_removed_flag_is_not_read_as_an_abbreviation(self, tmp_path, capsys):
        # --m was removed; it must not silently set --m-eval, the flag it prefixes
        out = tmp_path / "o"
        assert main(["simulate", "--experiment", "frontier", "--m", "2000", "--out", str(out)]) == 2
        assert "unrecognized arguments: --m 2000" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "prepare" in capsys.readouterr().out

    def test_missing_required_option(self, tmp_path, capsys):
        assert main(["prepare", "--out", str(tmp_path / "o")]) == 2
        assert "required" in capsys.readouterr().err

    def test_data_error_maps_to_3(self, tmp_path, capsys):
        code = main(["report", "--records", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_bad_eps_p_rejected_by_parser(self, capsys):
        for value in ("-1", "nan"):
            assert main(["sweep", "--eps-p", value]) == 2
            assert "eps-p must be positive or 'inf'" in capsys.readouterr().err

    def test_invalid_jobs(self, prepared_dir, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--prepared", str(prepared_dir),
                "--jobs", "0",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "jobs" in capsys.readouterr().err

    def test_missing_prepared_dir_is_data_error(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--prepared", str(tmp_path / "nowhere"),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 3
        capsys.readouterr()


class TestSeedResolution:
    def run_geometry(self, out: Path, *extra: str) -> int:
        return main(
            ["geometry", "--params", GEO_PARAMS, "--raster", "11", "--out", str(out), *extra]
        )

    def test_flag_seed(self, tmp_path, capsys):
        assert self.run_geometry(tmp_path, "--seed", "9") == 0
        assert read_kv(tmp_path / "manifest.kv")["seed"] == "9"
        capsys.readouterr()

    def test_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FAIRPLUG_SEED", "7")
        assert self.run_geometry(tmp_path) == 0
        assert read_kv(tmp_path / "manifest.kv")["seed"] == "7"
        capsys.readouterr()

    def test_flag_beats_env_and_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FAIRPLUG_SEED", "7")
        config = write_config(tmp_path / "cfg.kv", seed=5)
        assert self.run_geometry(tmp_path, "--config", str(config), "--seed", "9") == 0
        assert read_kv(tmp_path / "manifest.kv")["seed"] == "9"
        capsys.readouterr()

    def test_config_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FAIRPLUG_SEED", "7")
        config = write_config(tmp_path / "cfg.kv", seed=5)
        assert self.run_geometry(tmp_path, "--config", str(config)) == 0
        assert read_kv(tmp_path / "manifest.kv")["seed"] == "5"
        capsys.readouterr()

    def test_default_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("FAIRPLUG_SEED", raising=False)
        assert self.run_geometry(tmp_path) == 0
        assert read_kv(tmp_path / "manifest.kv")["seed"] == "0"
        capsys.readouterr()

    def test_non_integer_env_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FAIRPLUG_SEED", "not-a-number")
        assert self.run_geometry(tmp_path) == 2
        assert "FAIRPLUG_SEED" in capsys.readouterr().err


class TestConfigFile:
    def test_flags_override_config_values(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.kv", params=GEO_PARAMS, raster=11, eps=0.1)
        out = tmp_path / "out"
        code = main(["geometry", "--config", str(config), "--raster", "21", "--out", str(out)])
        assert code == 0
        manifest = read_kv(out / "manifest.kv")
        assert manifest["config.raster"] == "21"  # flag wins
        assert manifest["config.eps"] == "0.1"  # config wins over default 0.05
        assert manifest["config.params"] == GEO_PARAMS
        assert manifest["result.rows"] == "441"
        capsys.readouterr()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.kv", params=GEO_PARAMS, rasterr=5)
        assert main(["geometry", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "rasterr" in capsys.readouterr().err

    def test_seed_and_jobs_keys_are_legal(self, prepared_dir, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.kv", params=GEO_PARAMS, seed=4)
        assert main(["geometry", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        assert read_kv(tmp_path / "o" / "manifest.kv")["seed"] == "4"
        # jobs is a key of the two commands that spread work over processes
        config = write_config(tmp_path / "jobs.kv", jobs=2)
        grid = "lam=0:0:1,c=0.5:0.5:1,c_bar=0.5:0.5:1"
        sweep_args = ["--prepared", str(prepared_dir), "--grid", grid, "--eps-p", "inf"]
        sweep_args += ["--config", str(config), "--out", str(tmp_path / "s")]
        assert main(["sweep", *sweep_args]) == 0
        sim_args = ["--experiment", "frontier", "--m-eval", "2000", "--config", str(config)]
        assert main(["simulate", *sim_args, "--out", str(tmp_path / "f")]) == 0
        capsys.readouterr()

    def test_jobs_key_rejected_by_geometry(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.kv", params=GEO_PARAMS, jobs=1)
        assert main(["geometry", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "unknown keys: ['jobs']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


#: (command, option, bad value, message) -- one or more bad values per validated option
BAD_VALUES = [
    *(("prepare", "dp_norm", v, "label magnitude C must lie in (0, 1)")
      for v in ("0", "1", "2", "nan")),
    ("prepare", "repeats", "x", "invalid literal for int()"),
    ("prepare", "seed", "x", "invalid literal for int()"),
    ("sweep", "setting", "bogus", "unknown setting"),
    ("sweep", "eps_p", "nan", "eps-p must be positive or 'inf'"),
    ("sweep", "grid", "lam=0:1", "is not start:stop:step"),
    ("sweep", "grid", "lam=0:1:0.5,lam=-1:1:1", "grid axis 'lam' is given more than once"),
    ("sweep", "grid", "c_bar=0.5:0.5:1,c=0.5:0.5:1,c_bar=0.5:0.5:1",
     "grid axis 'c_bar' is given more than once"),
    *(("sweep", "grid", v, "grid is empty") for v in ("", " ")),
    ("sweep", "dp_norm", "1.5", "label magnitude C must lie in (0, 1)"),
    ("sweep", "cpe_lambda", "abc", "could not convert"),
    *(("sweep", "bin_width", v, "bin width") for v in ("0", "-0.025", "nan", "0.03")),
    ("sweep", "seed", "x", "invalid literal for int()"),
    ("sweep", "jobs", "y", "invalid literal for int()"),
    ("sweep", "jobs", "0", "jobs must be at least 1"),
    ("simulate", "experiment", "bogus", "unknown experiment"),
    ("simulate", "setting", "bogus", "unknown setting"),
    ("simulate", "lam", "abc", "could not convert"),
    ("simulate", "trials", "1.5", "invalid literal for int()"),
    ("simulate", "n_schedule", "64,x", "comma-separated integers"),
    ("simulate", "known_pi", "maybe", "expected a boolean"),
    ("simulate", "which", "eta_hat", "unknown sample-complexity target"),
    *(("simulate", "eps_target", v, "eps must lie in (0, 1/2)") for v in ("0", "0.5", "nan")),
    ("simulate", "jobs", "-5", "jobs must be at least 1"),
    ("geometry", "params", "a,b,c,d", "must be numeric"),
    ("geometry", "setting", "eo-aware", "blind settings only"),
    ("geometry", "eps", "0.5", "eps must lie in (0, 1/2)"),
    ("geometry", "raster", "x", "invalid literal for int()"),
    ("geometry", "raster", "1", "raster size must be at least 2"),
    ("geometry", "svg", "maybe", "expected a boolean"),
    *(("report", "band_scale", v, "band scale must be finite and at least 0")
      for v in ("-3", "nan", "inf")),
    ("report", "bin_width", "0.03", "does not tile"),
]

SWITCHES = ("known_pi", "svg")  # flags without a value; only a config file can hold a bad one


def flag(option: str) -> str:
    return "--" + option.replace("_", "-")


def valid_options(command: str, request) -> dict[str, str]:
    """Options with which ``command`` would run; each case replaces one of them."""

    if command == "prepare":
        return {
            "input": str(request.getfixturevalue("tiny_csv")),
            "schema": str(request.getfixturevalue("tiny_schema")),
        }
    if command == "sweep":
        prepared = request.getfixturevalue("prepared_dir")
        return {"prepared": str(prepared), "grid": SMALL_GRID, "eps_p": "inf"}
    if command == "report":
        return {"records": str(request.getfixturevalue("sweep_out"))}
    if command == "simulate":
        return {"experiment": "frontier", "m_eval": "2000"}
    return {"params": GEO_PARAMS, "raster": "11"}


class TestOptionValidation:
    """A bad value, as a flag or as a config value, exits 2 and leaves no --out."""

    @pytest.mark.parametrize(
        "command, option, value, message, form",
        [
            pytest.param(*case, form, id=f"{case[0]}-{case[1]}={case[2]}-{form}")
            for case in BAD_VALUES
            for form in ("flag", "config")
            if not (form == "flag" and case[1] in SWITCHES)
        ],
    )
    def test_bad_value(self, request, tmp_path, capsys, command, option, value, message, form):
        options = valid_options(command, request)
        options.pop(option, None)
        argv = [command]
        for name, text in options.items():
            argv += [flag(name), text]
        if form == "flag":
            argv += [flag(option), value]
            source = flag(option)
        else:
            argv += ["--config", str(write_config(tmp_path / "cfg.kv", **{option: value}))]
            source = f"{option} (from"
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert source in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["frontier", "tradeoff-gap", "sample-complexity"])
    @pytest.mark.parametrize("setting", ["eo-aware", "dpar-blind", "dpar-aware"])
    def test_setting_is_for_consistency_only(self, tmp_path, capsys, experiment, setting):
        out = tmp_path / "out"
        argv = ["simulate", "--experiment", experiment, "--setting", setting, "--m-eval", "2000"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--setting {setting} applies to --experiment consistency only" in err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["eo-blind", "dpar-blind"])
    @pytest.mark.parametrize(
        "pi, message",
        [("5", "pi out of range"), ("0", "pi must be > 0"), ("nan", "pi must be finite")],
    )
    def test_prior_is_checked_for_every_setting(self, tmp_path, capsys, setting, pi, message):
        out = tmp_path / "out"
        argv = ["geometry", f"--params=0.4,{pi},0.8,0.9", "--setting", setting, "--raster", "11"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "--params" in err
        assert not out.exists()


def fake_libc(accepts: int = 1) -> tuple[SimpleNamespace, list[tuple[int, int]]]:
    """A C library whose ``mallopt`` records its calls and returns ``accepts``."""

    calls: list[tuple[int, int]] = []

    def mallopt(param: int, value: int) -> int:
        calls.append((param, value))
        return accepts

    return SimpleNamespace(mallopt=mallopt), calls


class TestHeapPolicy:
    def test_sets_mmap_then_trim_threshold(self, monkeypatch):
        libc, calls = fake_libc()
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cli._keep_freed_pages()
        assert calls == [(-3, 32 << 20), (-1, 1 << 30)]

    def test_trim_threshold_alone_is_never_set(self, monkeypatch):
        # a refused mmap threshold leaves glibc's dynamic thresholds alone
        libc, calls = fake_libc(accepts=0)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cli._keep_freed_pages()
        assert calls == [(-3, 32 << 20)]

    @pytest.mark.parametrize("missing", ["no symbol", "no library"])
    def test_missing_mallopt_does_nothing(self, monkeypatch, tmp_path, capsys, missing):
        def cdll(name):
            if missing == "no library":
                raise OSError("cannot open shared object")
            return object()

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli._keep_freed_pages() is None
        argv = ["geometry", "--params", GEO_PARAMS, "--raster", "11"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "raster.csv").exists()
        capsys.readouterr()


def _undecodable_copy(path: Path) -> int:
    """Put a 0xFF byte at the start of the file's second line; return that line number."""
    raw = path.read_bytes()
    cut = raw.index(b"\n") + 1
    path.write_bytes(raw[:cut] + b"\xff" + raw[cut:])
    return 2


@pytest.mark.parametrize("source", ["simulate --dist", "simulate --config", "prepare --schema",
                                    "sweep meta.kv"])
def test_non_utf8_key_value_file_is_a_data_error(source, request, tmp_path, capsys):
    if source == "simulate --dist":
        bad = tmp_path / "dist.kv"
        synthetic.save_distribution(synthetic.reference_eo(), bad)
        argv = ["simulate", "--experiment", "frontier", "--m-eval", "1000", "--dist", str(bad)]
    elif source == "simulate --config":
        bad = write_config(tmp_path / "cfg.kv", experiment="frontier", m_eval=1000)
        argv = ["simulate", "--config", str(bad)]
    elif source == "prepare --schema":
        bad = tmp_path / "german.kv"
        shutil.copy(data.bundled_schema_path("german_gender"), bad)
        argv = ["prepare", "--input", str(request.getfixturevalue("german_csv")),
                "--schema", str(bad)]
    else:
        prepared = tmp_path / "prepared"
        shutil.copytree(request.getfixturevalue("prepared_dir"), prepared)
        bad = prepared / "meta.kv"
        argv = ["sweep", "--prepared", str(prepared), "--grid", SMALL_GRID, "--eps-p", "inf"]
    line = _undecodable_copy(bad)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}:{line}: not UTF-8 text")
    assert "Traceback" not in err
    assert not out.exists()


class TestFailedRunCleanup:
    ARGV = ["geometry", "--params", GEO_PARAMS, "--raster", "11", "--svg"]  # raster.csv, then svg

    @staticmethod
    def fail_plot(monkeypatch, error: type[Exception]) -> None:
        def write_svg(*args, **kwargs):
            raise error("plot could not be written")

        monkeypatch.setattr("fairplug.svg.write_svg", write_svg)

    def test_out_created_by_the_run_is_removed(self, tmp_path, monkeypatch, capsys):
        self.fail_plot(monkeypatch, DataError)
        # the run creates new/ as well as new/out, so it removes both
        assert main([*self.ARGV, "--out", str(tmp_path / "new" / "out")]) == 3
        assert "plot could not be written" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_unexpected_error_also_removes_it(self, tmp_path, monkeypatch):
        self.fail_plot(monkeypatch, RuntimeError)
        with pytest.raises(RuntimeError):
            main([*self.ARGV, "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o").exists()

    def test_out_that_existed_is_left_in_place(self, tmp_path, monkeypatch, capsys):
        self.fail_plot(monkeypatch, DataError)
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        assert main([*self.ARGV, "--out", str(out)]) == 3
        capsys.readouterr()
        assert (out / "keep.txt").read_text() == "kept"
        assert (out / "raster.csv").exists()


class TestPrepare:
    def test_output_tree(self, prepared_dir):
        for name in (
            "features.npy",
            "labels.npy",
            "sensitive.npy",
            "split_00.npy",
            "split_01.npy",
            "meta.kv",
            "manifest.kv",
        ):
            assert (prepared_dir / name).exists()

    def test_meta_records_dp_norm(self, prepared_dir):
        meta = read_kv(prepared_dir / "meta.kv")
        assert meta["dp_norm_c"] == "0.6"
        assert meta["n_repeats"] == "2"

    def test_manifest_contents(self, prepared_dir):
        manifest = read_kv(prepared_dir / "manifest.kv")
        assert manifest["command"] == "prepare"
        assert manifest["config.dp_norm"] == "0.6"
        assert manifest["result.splits"] == "2"
        digest = manifest["input.csv.sha256"]
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")

    def test_round_trips_through_load_prepared(self, prepared_dir):
        prepared = data.load_prepared(prepared_dir)
        assert prepared.dataset.n == 240
        assert len(prepared.splits) == 2

    def test_bundled_schema_name(self, german_csv, tmp_path, capsys):
        out = tmp_path / "german"
        code = main(
            [
                "prepare",
                "--input", str(german_csv),
                "--schema", "german_gender",
                "--repeats", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "prepared 1000 rows" in capsys.readouterr().out
        assert read_kv(out / "meta.kv")["schema"] == "german_gender"

    @pytest.mark.parametrize("defect", ["undecodable byte", "oversized quoted cell"])
    def test_malformed_text_is_a_data_error(self, tiny_csv, tiny_schema, tmp_path, capsys, defect):
        text = tiny_csv.read_bytes()
        cut = text.index(b"\n", len(text) // 2) + 1
        if defect == "undecodable byte":
            bad, message = b"\xff", "not UTF-8 text"
        else:
            bad, message = b'"' + b"x" * (csv.field_size_limit() + 1) + b'"', "field larger"
        source = tmp_path / "bad.csv"
        source.write_bytes(text[:cut] + bad + text[cut:])
        out = tmp_path / "o"
        code = main(
            ["prepare", "--input", str(source), "--schema", str(tiny_schema), "--out", str(out)]
        )
        assert code == 3
        line = text[:cut].count(b"\n") + 1
        assert f"bad.csv:{line}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "quoting, newline, encoding",
        [
            (csv.QUOTE_ALL, "\r\n", "utf-8"),
            (csv.QUOTE_MINIMAL, "\n", "utf-8"),
            (csv.QUOTE_ALL, "\r\n", "utf-8-sig"),
            (csv.QUOTE_MINIMAL, "\r\n", "utf-8-sig"),
        ],
        ids=["quoted-crlf", "lf", "bom-quoted-crlf", "bom-crlf"],
    )
    def test_quoting_and_line_ends_give_the_same_arrays(
        self, prepared_dir, tiny_csv, tiny_schema, tmp_path, capsys, quoting, newline, encoding
    ):
        # a leading byte-order mark is not part of the first header cell
        with open(tiny_csv, newline="") as source:
            rows = list(csv.reader(source))
        copy = tmp_path / "copy.csv"
        with open(copy, "w", newline="", encoding=encoding) as handle:
            csv.writer(handle, quoting=quoting, lineterminator=newline).writerows(rows)
        assert copy.read_bytes() != tiny_csv.read_bytes()
        out = tmp_path / "o"
        # the prepared_dir fixture's options
        options = ["--dp-norm", "0.6", "--repeats", "2", "--seed", "3"]
        argv = ["prepare", "--input", str(copy), "--schema", str(tiny_schema), *options]
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        for name in ("features.npy", "labels.npy", "sensitive.npy", "split_00.npy",
                     "split_01.npy"):
            assert (out / name).read_bytes() == (prepared_dir / name).read_bytes()

    @pytest.mark.parametrize("value", ["nan", "1e999"])
    def test_non_finite_cell_is_a_data_error(self, tiny_csv, tiny_schema, tmp_path, capsys, value):
        with open(tiny_csv, newline="") as source:
            rows = list(csv.reader(source))
        rows[7][0] = value
        copy = tmp_path / "copy.csv"
        with open(copy, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        out = tmp_path / "o"
        code = main(
            ["prepare", "--input", str(copy), "--schema", str(tiny_schema), "--out", str(out)]
        )
        assert code == 3
        message = f"copy.csv:8: column 'x1' has a non-finite value '{value}'"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_schema_rejected(self, tiny_csv, tmp_path, capsys):
        code = main(
            [
                "prepare",
                "--input", str(tiny_csv),
                "--schema", "no_such_schema",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "neither a bundled name" in capsys.readouterr().err

    def test_misspelt_schema_key_is_a_data_error(self, german_csv, tmp_path, capsys):
        schema = tmp_path / "german.kv"
        text = data.bundled_schema_path("german_gender").read_text()
        schema.write_text(text.replace("label_values =", "label_valuez ="))
        out = tmp_path / "o"
        code = main(
            ["prepare", "--input", str(german_csv), "--schema", str(schema), "--out", str(out)]
        )
        assert code == 3
        assert "unknown schema key 'label_valuez'" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_records_and_curve_written(self, sweep_out, prepared_dir):
        records = sweep.read_records_csv(sweep_out / "records.csv")
        assert len(records) == 27 * 2
        header, rows = read_csv(sweep_out / "curve.csv")
        assert header == ["bin_low", "mean", "std", "n"]
        assert rows
        manifest = read_kv(sweep_out / "manifest.kv")
        assert manifest["command"] == "sweep"
        assert manifest["config.eps_p"] == "inf"
        assert manifest["result.grid_points"] == "27"
        assert manifest["result.records"] == "54"

    def test_inputs_hashed_from_the_bytes_read(self, sweep_out, prepared_dir):
        manifest = read_kv(sweep_out / "manifest.kv")
        hashed = {key[len("input."):-len(".sha256")] for key in manifest if key.startswith("input.")}
        assert hashed == {path.name for path in prepared_dir.iterdir()} - {"manifest.kv"}
        for name in hashed:
            digest = hashlib.sha256((prepared_dir / name).read_bytes()).hexdigest()
            assert manifest[f"input.{name}.sha256"] == digest, name

    def test_split_files_hashed(self, prepared_dir, tmp_path, capsys):
        prepared = tmp_path / "prepared"
        shutil.copytree(prepared_dir, prepared)
        grid = "lam=0:0:1,c=0.5:0.5:1,c_bar=0.5:0.5:1"
        args = ["sweep", "--prepared", str(prepared), "--grid", grid, "--eps-p", "inf"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        split = prepared / "split_01.npy"
        np.save(split, np.roll(np.load(split), 1))
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        before = read_kv(tmp_path / "a" / "manifest.kv")
        after = read_kv(tmp_path / "b" / "manifest.kv")
        assert before["input.split_00.npy.sha256"] == after["input.split_00.npy.sha256"]
        assert before["input.split_01.npy.sha256"] != after["input.split_01.npy.sha256"]
        capsys.readouterr()

    @pytest.mark.parametrize(
        "defect",
        ["text features", "label_scale abc", "dp_norm_c abc", "dp_norm_c 2.0", "last split role 7"],
    )
    def test_malformed_prepared_directory_is_a_data_error(
        self, prepared_dir, tmp_path, capsys, defect
    ):
        prepared = tmp_path / "prepared"
        shutil.copytree(prepared_dir, prepared)
        if defect == "text features":
            bad = prepared / "features.npy"
            bad.write_text("not an array\n")
        elif defect == "label_scale abc":
            bad = prepared / "meta.kv"
            bad.write_text(bad.read_text().replace("label_scale = 1.0", "label_scale = abc"))
        elif defect.startswith("dp_norm_c"):
            bad = prepared / "meta.kv"
            text = bad.read_text()
            assert "dp_norm_c = 0.6\n" in text
            bad.write_text(text.replace("dp_norm_c = 0.6", defect.replace(" ", " = ")))
        else:
            bad = prepared / "split_01.npy"
            roles = np.load(bad)
            np.save(bad, np.where(roles == 2, 7, roles).astype(roles.dtype))
        out = tmp_path / "out"
        args = ["sweep", "--prepared", str(prepared), "--grid", SMALL_GRID, "--eps-p", "inf"]
        assert main([*args, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and bad.name in err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["eo-blind", "dpar-blind"])
    @pytest.mark.parametrize("eps_p, code", [("inf", 3), ("1", 0)], ids=["non-private", "private"])
    def test_one_group_training_splits(self, prepared_dir, tmp_path, capsys, setting, eps_p, code):
        # Every row in group +1: the non-private fit needs both groups, the
        # private one releases (its test cells are then all flagged degenerate).
        prepared = tmp_path / "prepared"
        shutil.copytree(prepared_dir, prepared)
        sensitive = prepared / "sensitive.npy"
        np.save(sensitive, np.ones_like(np.load(sensitive)))
        out = tmp_path / "out"
        args = ["--prepared", str(prepared), "--grid", SMALL_GRID, "--setting", setting]
        assert main(["sweep", *args, "--eps-p", eps_p, "--out", str(out)]) == code
        if code == 3:
            assert capsys.readouterr().err.startswith("data error: ")
            assert not out.exists()
        else:
            capsys.readouterr()
            table = sweep.read_records_csv(out / "records.csv")
            assert table.degenerate.all()

    def test_outputs_agree_across_jobs_and_report(self, prepared_dir, sweep_out, tmp_path, capsys):
        # the sweep_out fixture ran the same sweep serially
        args = ["--prepared", str(prepared_dir), "--grid", SMALL_GRID, "--eps-p", "inf"]
        assert main(["sweep", *args, "--seed", "3", "--jobs", "2", "--out", str(tmp_path / "j2")]) == 0
        assert main(["report", "--records", str(sweep_out), "--out", str(tmp_path / "report")]) == 0
        for name in ("records.csv", "curve.csv"):
            assert (tmp_path / "j2" / name).read_bytes() == (sweep_out / name).read_bytes()
        curve = (sweep_out / "curve.csv").read_bytes()
        assert (tmp_path / "report" / "curve.csv").read_bytes() == curve
        capsys.readouterr()

    def test_dp_norm_defaults_from_prepared_meta(self, sweep_out):
        manifest = read_kv(sweep_out / "manifest.kv")
        assert manifest["config.dp_norm"] == "0.6"

    def test_dp_norm_flag_overrides_meta(self, prepared_dir, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            [
                "sweep",
                "--prepared", str(prepared_dir),
                "--grid", "lam=0:0:1,c=0.5:0.5:1,c_bar=0.5:0.5:1",
                "--eps-p", "inf",
                "--dp-norm", "0.5",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert read_kv(out / "manifest.kv")["config.dp_norm"] == "0.5"
        capsys.readouterr()

    def test_private_run_and_determinism(self, prepared_dir, tmp_path, capsys):
        args = [
            "sweep",
            "--prepared", str(prepared_dir),
            "--grid", SMALL_GRID,
            "--eps-p", "1.0",
            "--seed", "5",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()
        manifest_a = read_kv(out_a / "manifest.kv")
        manifest_b = read_kv(out_b / "manifest.kv")
        manifest_a.pop("config.out"), manifest_b.pop("config.out")
        assert manifest_a == manifest_b
        assert manifest_a["config.eps_p"] == "1.0"
        capsys.readouterr()

    def test_aware_setting_needs_infinite_budget(self, prepared_dir, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--prepared", str(prepared_dir),
                "--setting", "eo-aware",
                "--eps-p", "1.0",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "blind settings only" in capsys.readouterr().err

    def test_malformed_grid_rejected(self, prepared_dir, tmp_path, capsys):
        base = ["sweep", "--prepared", str(prepared_dir), "--out", str(tmp_path / "o")]
        assert main(base + ["--grid", "lam=0:1"]) == 2
        assert main(base + ["--grid", "q=0:1:0.5"]) == 2
        assert main(base + ["--grid", "lam"]) == 2
        capsys.readouterr()


class TestSimulate:
    def test_out_required(self, capsys):
        assert main(["simulate", "--experiment", "frontier"]) == 2
        capsys.readouterr()

    def test_unknown_experiment_via_config(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.kv", experiment="bogus")
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_dist_rejected(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--experiment", "frontier",
                "--dist", str(tmp_path / "missing.kv"),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_rejected_dist_value_is_a_data_error(self, tmp_path, capsys):
        dist = tmp_path / "dist.kv"
        synthetic.save_distribution(synthetic.reference_eo(), dist)
        dist.write_text(dist.read_text().replace("w_eta = 2.0", "w_eta = nan"))
        out = tmp_path / "o"
        argv = ["simulate", "--experiment", "frontier", "--m-eval", "1000", "--dist", str(dist)]
        assert main([*argv, "--out", str(out)]) == 3
        assert f"data error: {dist}: w_eta: w_eta must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad, message",
        [
            (["--trials", "0", "--m-eval", "1000"], "trials must be positive"),
            (["--trials", "1", "--m-eval", "0"], "sample size must be positive"),
        ],
    )
    def test_rejected_consistency_run_leaves_no_out_directory(self, tmp_path, capsys, bad,
                                                              message):
        out = tmp_path / "s0"
        args = ["--experiment", "consistency", "--dist", "reference-eo", "--setting", "eo-blind",
                "--lam", "1", "--c", "0.5", "--c-bar", "0.5", "--n-schedule", "256"]
        assert main(["simulate", *args, *bad, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_consistency(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            [
                "simulate",
                "--experiment", "consistency",
                "--n-schedule", "64,128",
                "--trials", "2",
                "--m-eval", "2000",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out / "curve.csv")
        assert header == ["n", "mean", "std", "trials"]
        assert [row[0] for row in rows] == ["64", "128"]
        assert [row[3] for row in rows] == ["2", "2"]
        # floats are written by format_float, so each cell reads back its own text
        assert all(repr(float(cell)) == cell for row in rows for cell in row[1:3])
        assert (out / "curve.svg").exists()
        manifest = read_kv(out / "manifest.kv")
        assert manifest["command"] == "simulate.consistency"
        assert manifest["result.final_mean_regret"] == rows[-1][1]
        assert float(rows[-1][1]) >= 0.0
        capsys.readouterr()

    def test_frontier_zero_at_lambda_zero(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            [
                "simulate",
                "--experiment", "frontier",
                "--lam", "0",
                "--m-eval", "20000",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out / "frontier.csv")
        assert header == ["lambda", "c", "c_bar", "m_eval", "frontier"]
        assert rows == [["0.0", "0.5", "0.5", "20000", "0.0"]]
        assert read_kv(out / "manifest.kv")["result.frontier"] == "0.0"
        capsys.readouterr()

    def test_tradeoff_gap(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            [
                "simulate",
                "--experiment", "tradeoff-gap",
                "--lam", "1",
                "--n", "256",
                "--trials", "2",
                "--m-eval", "2000",
                "--seed", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out / "gap.csv")
        assert header == [
            "lambda", "c", "c_bar", "n", "trials", "gap", "gap_std", "frontier", "excess",
        ]
        assert len(rows) == 1
        manifest = read_kv(out / "manifest.kv")
        gap = float(manifest["result.gap"])
        excess = float(manifest["result.excess"])
        row = dict(zip(header, rows[0]))
        assert float(row["gap"]) == gap
        assert excess == pytest.approx(gap - float(row["frontier"]))
        capsys.readouterr()

    def test_sample_complexity(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            [
                "simulate",
                "--experiment", "sample-complexity",
                "--eps-target", "0.45",
                "--delta-prime", "0.45",
                "--delta", "0.5",
                "--trials", "2",
                "--start", "32",
                "--cap", "128",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out / "complexity.csv")
        assert header == ["n", "converged", "eps", "delta_prime", "delta", "trials", "which"]
        assert rows[0][0] == "32" and rows[0][1] == "1" and rows[0][6] == "eta"
        probe_header, probe_rows = read_csv(out / "probes.csv")
        assert probe_header == ["n", "success_rate"]
        assert probe_rows[0][0] == "32"
        manifest = read_kv(out / "manifest.kv")
        assert manifest["result.converged"] == "true"
        assert manifest["result.n"] == "32"
        mass = float(manifest["result.margin_mass"])
        # at eps 0.45 every node's box meets the boundary: the mass is the
        # nodes' total weight, 1 up to the rounding of its sum
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert float(manifest["result.b_const"]) == pytest.approx(0.45 + mass, abs=1e-12)
        assert float(manifest["result.q_const"]) > float(manifest["result.g_const"]) > 0.0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args",
        [
            ["--experiment", "consistency", "--n-schedule", "32", "--trials", "1"],
            ["--experiment", "frontier"],
            ["--experiment", "tradeoff-gap", "--n", "64", "--trials", "1"],
            ["--experiment", "sample-complexity", "--eps-target", "0.45", "--delta-prime",
             "0.45", "--delta", "0.5", "--trials", "1", "--start", "32", "--cap", "32"],
        ],
        ids=lambda args: args[1],
    )
    def test_each_run_builds_one_quadrature(self, tmp_path, capsys, monkeypatch, args):
        calls = []
        real = synthetic.quadrature
        monkeypatch.setattr(synthetic, "quadrature", lambda *a: calls.append(a) or real(*a))
        assert main(["simulate", *args, "--m-eval", "2000", "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_sample_complexity_constants_match_geometry(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["--experiment", "sample-complexity", "--eps-target", "0.05", "--trials", "1",
                "--start", "32", "--cap", "32", "--m-eval", "20000", "--seed", "6"]
        assert main(["simulate", *args, "--out", str(out)]) == 0
        capsys.readouterr()
        dist = synthetic.reference_eo()
        pop = synthetic.population(dist, 20000)
        stats, nodes, weights = pop.stats, pop.nodes, pop.weights
        params = FairnessParams(1.0, 0.5, 0.5)
        coords = (oracles.true_eta(dist, nodes), oracles.true_eta_bar(dist, nodes, 1.0))
        member = geometry.margin_membership(EO_BLIND, params, stats.pi, coords, 0.05)
        expected = geometry.bound_constants(float(weights[member].sum()), 0.1, stats, params)
        manifest = read_kv(out / "manifest.kv")
        for name in ("margin_mass", "b_const", "g_const", "q_const"):
            assert float(manifest[f"result.{name}"]) == pytest.approx(getattr(expected, name))

    def test_rejected_bound_constants_stop_the_run_before_any_fit(
        self, tmp_path, capsys, monkeypatch
    ):
        # a sensitive intercept of 50 rounds P(ybar = +1 | x, y = +1) to 1 at
        # every node, so beta is 1 and the bound constants are rejected
        dist = synthetic.reference_eo()
        path = tmp_path / "dist.kv"
        synthetic.save_distribution(
            synthetic.SyntheticDistribution(
                law=dist.law, w_eta=dist.w_eta, w_eta_bar=np.array([1.2, 0.8, 0.7, 50.0])
            ),
            path,
        )
        fits = []
        real_fit = cpe.fit
        monkeypatch.setattr(cpe, "fit", lambda *a, **k: fits.append(1) or real_fit(*a, **k))
        out = tmp_path / "o"
        code = main(
            ["simulate", "--experiment", "sample-complexity", "--dist", str(path),
             "--m-eval", "1000", "--out", str(out)]
        )
        assert code == 2
        assert "beta < 1" in capsys.readouterr().err
        assert fits == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment",
        [
            ["--experiment", "consistency", "--setting", "dpar-blind", "--n-schedule", "4",
             "--trials", "5", "--m-eval", "1000"],
            ["--experiment", "sample-complexity", "--which", "eta_bar_dpar", "--start", "2",
             "--cap", "4", "--trials", "5", "--m-eval", "1000"],
        ],
        ids=["consistency", "sample-complexity"],
    )
    def test_single_class_draws_are_redrawn(self, tmp_path, capsys, experiment):
        # some draws of 2 or 4 rows hold a single class of the fitted target:
        # degenerate draws, which the trial redraws instead of failing the run
        out = tmp_path / "o"
        assert main(["simulate", *experiment, "--dist", "reference-dpar", "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "manifest.kv").exists()


class TestGeometry:
    def test_raster_and_asymptote(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["geometry", "--params", GEO_PARAMS, "--raster", "21", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "raster.csv")
        assert header == ["u", "v", "sign", "in_margin"]
        assert len(rows) == 21 * 21
        # u and v read back as the lattice's doubles, u varying slowest
        axis = np.linspace(0.0, 1.0, 21)
        grid_u, grid_v = np.meshgrid(axis, axis, indexing="ij")
        u, v = (np.array([float(row[i]) for row in rows]) for i in (0, 1))
        assert u.tobytes() == grid_u.ravel().tobytes()
        assert v.tobytes() == grid_v.ravel().tobytes()
        assert {row[2] for row in rows} <= {"-1", "0", "1"}
        assert {row[3] for row in rows} == {"0", "1"}
        manifest = read_kv(out / "manifest.kv")
        assert manifest["result.rows"] == "441"
        assert float(manifest["result.asymptote_x"]) == pytest.approx(3.025, abs=1e-9)
        assert "rastered 441 points" in capsys.readouterr().out

    def test_svg_carries_asymptote_annotation(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            [
                "geometry",
                "--params", GEO_PARAMS,
                "--raster", "21",
                "--svg", "--out", str(out),
            ]
        )
        assert code == 0
        text = (out / "raster.svg").read_text()
        assert "vertical asymptote" in text
        assert "3.025" in text
        capsys.readouterr()

    def test_lambda_zero_has_no_asymptote_entry(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["geometry", "--params", "0,0.85,0.8,0.9", "--raster", "11", "--out", str(out)])
        assert code == 0
        assert "result.asymptote_x" not in read_kv(out / "manifest.kv")
        capsys.readouterr()

    def test_line_geometry_has_no_asymptote_entry(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            [
                "geometry",
                "--setting", "dpar-blind",
                "--params", GEO_PARAMS,
                "--raster", "11",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "result.asymptote_x" not in read_kv(out / "manifest.kv")
        capsys.readouterr()

    def test_zero_raster_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["geometry", "--params", GEO_PARAMS, "--raster", "0", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "bad, message",
        [(("--raster", "1"), "raster size must be at least 2"), (("--eps", "0.5"), "eps must lie")],
    )
    def test_rejected_run_leaves_no_out_directory(self, tmp_path, capsys, bad, message):
        out = tmp_path / "g1"
        assert main(["geometry", "--params", GEO_PARAMS, *bad, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_aware_setting_rejected(self, tmp_path, capsys):
        # the flag and the config value go through the same option parser
        code = main(
            [
                "geometry",
                "--setting", "eo-aware",
                "--params", GEO_PARAMS,
                "--out", str(tmp_path / "a"),
            ]
        )
        assert code == 2
        config = write_config(tmp_path / "cfg.kv", params=GEO_PARAMS, setting="eo-aware")
        code = main(["geometry", "--config", str(config), "--out", str(tmp_path / "b")])
        assert code == 2
        assert "blind settings only" in capsys.readouterr().err

    def test_malformed_params(self, tmp_path, capsys):
        base = ["geometry", "--out", str(tmp_path / "o")]
        assert main(base + ["--params", "0.4,0.85,0.8"]) == 2
        assert main(base + ["--params", "a,b,c,d"]) == 2
        capsys.readouterr()


def test_cli_import_skips_unused_heavy_modules():
    # a fresh interpreter, so modules other tests imported do not count
    src = str(Path(fairplug.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys, fairplug.cli; "
        "print([m for m in ('xml.sax.saxutils', 'urllib.request', 'concurrent.futures.process') "
        "if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert result.stdout.strip() == "[]"


def test_failed_process_exits_3_and_leaves_no_out(tiny_csv, tiny_schema, tmp_path):
    # the exit code and the clean-up as a real process sees them, not cli.main's return
    text = tiny_csv.read_bytes()
    cut = text.index(b"\n", len(text) // 2) + 1
    source = tmp_path / "bad.csv"
    source.write_bytes(text[:cut] + b"\xff" + text[cut:])
    out = tmp_path / "o"
    env = {**os.environ, "PYTHONPATH": str(Path(fairplug.__file__).resolve().parents[1])}
    argv = ["prepare", "--input", str(source), "--schema", str(tiny_schema), "--out", str(out)]
    result = subprocess.run(
        [sys.executable, "-m", "fairplug.cli", *argv], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 3
    line = text[:cut].count(b"\n") + 1
    assert f"{source}:{line}: not UTF-8 text" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


class TestReport:
    def test_aggregates_sweep_records(self, sweep_out, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["report", "--records", str(sweep_out), "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "curve.csv")
        assert header == ["bin_low", "mean", "std", "n"]
        assert rows
        assert (out / "curve.svg").exists()
        manifest = read_kv(out / "manifest.kv")
        assert manifest["command"] == "report"
        assert int(manifest["result.bins"]) == len(rows)
        assert manifest["config.band_scale"] == "0.2"
        capsys.readouterr()

    def test_accepts_records_file_path(self, sweep_out, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["report", "--records", str(sweep_out / "records.csv"), "--out", str(out)])
        assert code == 0
        capsys.readouterr()

    def test_header_only_records_is_data_error(self, sweep_out, tmp_path, capsys):
        records = tmp_path / "records.csv"
        header = (sweep_out / "records.csv").read_bytes().split(b"\r\n")[0]
        records.write_bytes(header + b"\r\n")
        code = main(["report", "--records", str(records), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "holds no sweep records" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "defect, message",
        [("hash", "records.csv:12: malformed record row"),
         ("off-grid", "records.csv:32: grid point differs from point 3 of split 0")],
        ids=["hash", "off-grid"],
    )
    def test_malformed_records_line_is_data_error(self, sweep_out, tmp_path, capsys, defect,
                                                  message):
        # Record k is on line k + 2; the 27-point grid puts record 30 in split 1.
        lines = (sweep_out / "records.csv").read_bytes().split(b"\r\n")
        if defect == "hash":
            lines[11] = b"#" + lines[11]
        else:
            split, _lam, rest = lines[31].split(b",", 2)
            assert split == b"1"
            lines[31] = b"1,7.25," + rest
        records = tmp_path / "records.csv"
        records.write_bytes(b"\r\n".join(lines))
        out = tmp_path / "o"
        assert main(["report", "--records", str(records), "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_undecodable_records_is_data_error(self, sweep_out, tmp_path, capsys):
        text = (sweep_out / "records.csv").read_bytes()
        cut = text.index(b"\r\n", len(text) // 2) + 2
        records = tmp_path / "records.csv"
        records.write_bytes(text[:cut] + b"\xff" + text[cut:])
        out = tmp_path / "o"
        code = main(["report", "--records", str(records), "--out", str(out)])
        assert code == 3
        line = text[:cut].count(b"\r\n") + 1
        assert f"records.csv:{line}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()
