"""Schema-driven CSV loading, norm-bounding transform, split generation."""

import csv
import hashlib
import logging
import os
import re
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import make_german_surrogate

from fairplug import core as core_module
from fairplug import data as data_module
from fairplug.core import Dataset
from fairplug.cpe import (
    ARITY_FEATURES,
    ARITY_FEATURES_PLUS_SENSITIVE,
    FitConfig,
    fit_estimator,
    predict_proba,
)
from fairplug.data import (
    CsvSchema,
    SPLIT_RATIOS,
    LoadReport,
    SplitPlan,
    apply_dp_transform,
    bundled_schema_path,
    fit_dp_transform,
    list_bundled_schemas,
    load_csv_report,
    load_prepared,
    load_schema,
    make_splits,
    save_prepared,
)
from fairplug.errors import DataError, DegenerateDataError, ValidationError


def write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(str(v) for v in row) + "\n")


#: ``csv.writer`` quoting for an unquoted copy and a copy with every cell quoted.
QUOTINGS = [csv.QUOTE_MINIMAL, csv.QUOTE_ALL]
BASIC_SCHEMA = CsvSchema(
    features=(("age", "numeric"), ("city", "categorical")),
    label_column="label",
    label_positive=frozenset({"y"}),
    sensitive_column="grp",
    sensitive_positive=frozenset({"a"}),
)


class TestSchemaValidation:
    def test_duplicate_feature_names(self):
        with pytest.raises(ValidationError, match="unique"):
            CsvSchema(
                features=(("x", "numeric"), ("x", "numeric")),
                label_column="label",
                label_positive=frozenset({"y"}),
                sensitive_column="grp",
                sensitive_positive=frozenset({"a"}),
            )

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            CsvSchema(
                features=(("x", "ordinal"),),
                label_column="label",
                label_positive=frozenset({"y"}),
                sensitive_column="grp",
                sensitive_positive=frozenset({"a"}),
            )

    def test_special_column_overlap(self):
        with pytest.raises(ValidationError, match="distinct"):
            CsvSchema(
                features=(("x", "numeric"),),
                label_column="same",
                label_positive=frozenset({"y"}),
                sensitive_column="same",
                sensitive_positive=frozenset({"a"}),
            )
        with pytest.raises(ValidationError, match="special and a feature"):
            CsvSchema(
                features=(("label", "numeric"),),
                label_column="label",
                label_positive=frozenset({"y"}),
                sensitive_column="grp",
                sensitive_positive=frozenset({"a"}),
            )


class TestLoadSchema:
    def test_reads_fixture_schema(self, tiny_schema):
        schema = load_schema(tiny_schema)
        assert schema.features == (
            ("x1", "numeric"),
            ("x2", "numeric"),
            ("color", "categorical"),
        )
        assert schema.label_positive == frozenset({"yes"})
        assert schema.missing_values == frozenset({"", "?"})

    def test_malformed_feature_entry(self, tmp_path):
        path = tmp_path / "schema.kv"
        path.write_text(
            "feature.0 = age\nlabel_column = l\nlabel_positive = y\n"
            "sensitive_column = s\nsensitive_positive = a\n"
        )
        with pytest.raises(DataError, match="name:kind"):
            load_schema(path)

    def test_missing_required_field(self, tmp_path):
        path = tmp_path / "schema.kv"
        path.write_text("feature.0 = age:numeric\nlabel_column = l\n")
        with pytest.raises(DataError, match="missing schema field"):
            load_schema(path)

    def test_no_features(self, tmp_path):
        path = tmp_path / "schema.kv"
        path.write_text(
            "label_column = l\nlabel_positive = y\n"
            "sensitive_column = s\nsensitive_positive = a\n"
        )
        with pytest.raises(DataError, match="no feature"):
            load_schema(path)

    @pytest.mark.parametrize(
        "extra, key",
        [
            ("label_valuez = y,n\n", "label_valuez"),
            ("feature.2 = height:numeric\n", "feature.2"),
            ("drop_columns = other\n", "drop_columns"),
        ],
    )
    def test_unread_key_rejected(self, tmp_path, extra, key):
        # A misspelt key, a feature after a gap in the numbering and the
        # retired drop_columns would otherwise load as if absent.
        path = tmp_path / "schema.kv"
        path.write_text(
            "feature.0 = age:numeric\nlabel_column = l\nlabel_positive = y\n"
            "sensitive_column = s\nsensitive_positive = a\n" + extra
        )
        with pytest.raises(DataError, match=re.escape(f"{path}: unknown schema key '{key}'")):
            load_schema(path)


class TestBundledSchemas:
    def test_listing(self):
        names = list_bundled_schemas()
        assert "german_gender" in names
        assert "adult_gender" in names

    def test_bundled_files_parse(self):
        for name in list_bundled_schemas():
            schema = load_schema(bundled_schema_path(name))
            assert schema.features

    def test_unknown_name(self):
        with pytest.raises(DataError, match="available"):
            bundled_schema_path("compas_gender")


class TestLoadCsv:
    def test_fixture_round_numbers(self, tiny_csv, tiny_schema):
        schema = load_schema(tiny_schema)
        dataset, report = load_csv_report(tiny_csv, schema)
        assert report.rows_read == 240
        assert report.rows_dropped == 0
        assert dataset.n == 240
        # two numerics plus one-hot over three colors
        assert report.feature_width == 5
        assert set(report.categorical_levels) == {"color"}
        assert sorted(report.categorical_levels["color"]) == ["blue", "green", "red"]

    def test_categorical_order_is_first_appearance(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(
            path,
            ["age", "city", "label", "grp"],
            [
                [30, "oslo", "y", "a"],
                [40, "lima", "n", "b"],
                [50, "oslo", "y", "b"],
            ],
        )
        dataset, report = load_csv_report(path, BASIC_SCHEMA)
        assert report.categorical_levels["city"] == ("oslo", "lima")
        assert dataset.features.tolist() == [
            [30.0, 1.0, 0.0],
            [40.0, 0.0, 1.0],
            [50.0, 1.0, 0.0],
        ]
        assert dataset.labels.tolist() == [1.0, -1.0, 1.0]
        assert dataset.sensitive.tolist() == [1.0, -1.0, -1.0]

    def test_missing_rows_dropped_and_counted(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(
            path,
            ["age", "city", "label", "grp"],
            [
                [30, "oslo", "y", "a"],
                ["?", "lima", "n", "b"],
                [50, "", "y", "b"],
                [60, "lima", "n", "a"],
            ],
        )
        dataset, report = load_csv_report(path, BASIC_SCHEMA)
        assert report.rows_read == 4
        assert report.rows_dropped == 2
        assert dataset.n == 2

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("age,city,label,grp\n30,oslo,y,a\n\n40,lima,n,b\n")
        _, report = load_csv_report(path, BASIC_SCHEMA)
        assert report.rows_read == 2

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_loads_like_a_file(self, tmp_path):
        # a pipe reports size 0, so the loader must read past its stated size
        pipe = tmp_path / "data.csv"
        os.mkfifo(pipe)
        writer = threading.Thread(
            target=pipe.write_text, args=("age,city,label,grp\n30,oslo,y,a\n40,lima,n,b\n",),
            daemon=True,
        )
        writer.start()
        dataset, report = load_csv_report(pipe, BASIC_SCHEMA)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert dataset.features.tolist() == [[30.0, 1.0, 0.0], [40.0, 0.0, 1.0]]
        assert report.rows_read == 2

    def test_missing_column(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["age", "label", "grp"], [[30, "y", "a"]])
        with pytest.raises(DataError, match="required column"):
            load_csv_report(path, BASIC_SCHEMA)

    def test_repeated_used_column_rejected(self, tmp_path):
        # Two header cells named "age" leave the age of each row ambiguous;
        # a repeated column the schema does not use is harmless.
        path = tmp_path / "data.csv"
        write_csv(path, ["age", "city", "label", "age", "grp"], [[30, "oslo", "y", 31, "a"]])
        with pytest.raises(DataError, match="'age' appears more than once"):
            load_csv_report(path, BASIC_SCHEMA)
        write_csv(path, ["note", "age", "city", "label", "grp", "note"], [[0, 30, "oslo", "y", "a", 1]])
        assert load_csv_report(path, BASIC_SCHEMA)[0].features.tolist() == [[30.0, 1.0]]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv_report(path, BASIC_SCHEMA)

    def test_ragged_row_names_its_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("age,city,label,grp\n30,oslo,y,a\n40,lima,n\n")
        with pytest.raises(DataError, match=":3"):
            load_csv_report(path, BASIC_SCHEMA)

    def test_error_names_the_physical_line(self, tmp_path):
        # the quoted cell on line 2 spans two lines, so the bad row starts on line 4
        strict = CsvSchema(
            features=BASIC_SCHEMA.features,
            label_column="label",
            label_positive=frozenset({"y"}),
            label_values=frozenset({"y", "n"}),
            sensitive_column="grp",
            sensitive_positive=frozenset({"a"}),
        )
        path = tmp_path / "data.csv"
        path.write_text('age,city,label,grp\n30,"os\nlo",y,a\n40,lima,maybe,b\n')
        with pytest.raises(DataError, match=r"data\.csv:4: unmappable value 'maybe'"):
            load_csv_report(path, strict)
        path.write_text('age,city,label,grp\n30,"os\nlo",y,a\n\n40,lima,n\n')
        with pytest.raises(DataError, match=r"data\.csv:5: expected 4 cells, got 3"):
            load_csv_report(path, strict)

    def test_row_errors_precede_non_numeric_values(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("age,city,label,grp\nold,oslo,y,a\n40,lima\n")
        with pytest.raises(DataError, match=":3: expected 4 cells"):
            load_csv_report(path, BASIC_SCHEMA)

    def test_first_non_numeric_column_in_schema_order(self, tmp_path):
        schema = CsvSchema(
            features=(("age", "numeric"), ("city", "categorical"), ("score", "numeric")),
            label_column="label",
            label_positive=frozenset({"y"}),
            sensitive_column="grp",
            sensitive_positive=frozenset({"a"}),
        )
        path = tmp_path / "data.csv"
        path.write_text("score,age,city,label,grp\nhigh,30,oslo,y,a\n1,young,lima,n,b\n2,old,lima,n,b\n")
        with pytest.raises(DataError, match=":3: column 'age' has a non-numeric value: .*'young'"):
            load_csv_report(path, schema)

    @pytest.mark.parametrize("quoting", QUOTINGS, ids=["scanned", "quoted"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_is_a_data_error_naming_its_line(self, tmp_path, quoting, value):
        # line 3 holds the value too but is dropped for its missing city, so
        # line 5 is the first kept row that holds it
        path = tmp_path / "data.csv"
        rows = [["age", "city", "label", "grp"], ["30", "oslo", "y", "a"], [value, "?", "y", "a"],
                ["31", "lima", "n", "b"], [value, "lima", "n", "b"], [value, "oslo", "y", "a"]]
        _rewrite(path, rows, quoting=quoting)
        message = f"data.csv:5: column 'age' has a non-finite value '{value}'"
        with pytest.raises(DataError, match=re.escape(message) + "$"):
            load_csv_report(path, BASIC_SCHEMA)

    @pytest.mark.parametrize("quoting", QUOTINGS, ids=["scanned", "quoted"])
    def test_non_numeric_value_names_its_line(self, tmp_path, quoting):
        path = tmp_path / "data.csv"
        rows = [["age", "city", "label", "grp"], ["30", "oslo", "y", "a"],
                ["old", "lima", "n", "b"]]
        _rewrite(path, rows, quoting=quoting)
        message = "data.csv:3: column 'age' has a non-numeric value: could not convert string"
        with pytest.raises(DataError, match=re.escape(message)):
            load_csv_report(path, BASIC_SCHEMA)

    def test_value_set_strictness(self, tmp_path):
        strict = CsvSchema(
            features=(("age", "numeric"),),
            label_column="label",
            label_positive=frozenset({"y"}),
            sensitive_column="grp",
            sensitive_positive=frozenset({"a"}),
            label_values=frozenset({"y", "n"}),
        )
        path = tmp_path / "data.csv"
        write_csv(path, ["age", "label", "grp"], [[30, "y", "a"], [31, "maybe", "b"]])
        with pytest.raises(DataError, match="unmappable"):
            load_csv_report(path, strict)
        relaxed = CsvSchema(
            features=(("age", "numeric"),),
            label_column="label",
            label_positive=frozenset({"y"}),
            sensitive_column="grp",
            sensitive_positive=frozenset({"a"}),
        )
        dataset = load_csv_report(path, relaxed)[0]
        assert dataset.labels.tolist() == [1.0, -1.0]

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["age", "city", "label", "grp"], [["old", "oslo", "y", "a"]])
        with pytest.raises(DataError, match="non-numeric"):
            load_csv_report(path, BASIC_SCHEMA)

    def test_all_rows_dropped(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["age", "city", "label", "grp"], [["?", "oslo", "y", "a"]])
        with pytest.raises(DegenerateDataError, match="no usable rows"):
            load_csv_report(path, BASIC_SCHEMA)

    def test_deterministic_bytes_to_arrays(self, tiny_csv, tiny_schema):
        schema = load_schema(tiny_schema)
        a = load_csv_report(tiny_csv, schema)[0]
        b = load_csv_report(tiny_csv, schema)[0]
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


# the differential test: a schema with two numeric columns, one categorical,
# strict labels, and an unused column that carries quoted commas and newlines
DIFF_SCHEMA = CsvSchema(
    features=(("age", "numeric"), ("city", "categorical"), ("score", "numeric")),
    label_column="label",
    label_positive=frozenset({"y"}),
    label_values=frozenset({"y", "n"}),
    sensitive_column="grp",
    sensitive_positive=frozenset({"a"}),
)
# Unicode blanks that ``str.strip`` removes: \xa0, \u3000, \v and \x1c.  Cells
# over 16 bytes that differ only after byte 16, or only in their length, and
# a used cell holding a NUL.
_NUMBERS = [" 3 ", "1e3", "-0", "1_0", "2.5", "7", "-1.25e-2", "+4", "0", "\xa07\u3000",
            "0.000000000000000001", "0.000000000000000002"]
_CELLS = {
    "age": st.sampled_from(_NUMBERS * 4 + ["?", "", "old", "1__0", "nan", "-inf"]),
    "score": st.sampled_from(_NUMBERS * 4 + ["?", "0x10", "1e999", "inf"]),
    "city": st.sampled_from(["oslo", "lima", " oslo ", "\xa0oslo\u3000", "\x0blima\x1c", "a,b",
                             "x\ny", 'say "hi"', "?", "LIMA", "unemp/unskilled non res",
                             "unemp/unskilled non rez", "unemp/unskilled non re", "smörgåsbord",
                             "os\x00lo"]),
    "label": st.sampled_from(["y", "n", " y", "n ", "y", "n", "?", "maybe", "\u3000y", "n\xa0"]),
    "grp": st.sampled_from(["a", "b", " a ", "b", "?", "\x1ca\x0b"]),
    "note": st.sampled_from(["", "free text", "comma, inside", "two\nlines", "  "] * 6
                            + ["nul\x00byte", "lone\rreturn"]),
}


def _quote(cell: str, force: bool) -> str:
    if force or any(ch in cell for ch in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _unquoted(cell: str) -> bool:
    return not any(ch in cell for ch in ',"\n')


@st.composite
def csv_texts(draw) -> str:
    header = draw(st.permutations(list(_CELLS)))
    # about half the texts have no quote and mostly full rows; the others quote
    # cells, some of them spanning lines, and may end lines with a lone \r
    quoted = draw(st.booleans())
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"] if quoted else ["\n", "\r\n"]))
    lines = [",".join(f" {name}" if draw(st.booleans()) else name for name in header)]
    # a few rows with no comma, quote or newline in a cell
    for _ in range(draw(st.integers(0, 4))):
        lines.append(",".join(draw(_CELLS[name].filter(_unquoted)) for name in header))
    rows = ["row"] * (6 if quoted else 60)
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(rows + ["blank", "spaces", "commas", "note", "ragged"]))
        if shape == "blank":
            lines.append("")
        elif shape == "spaces":
            lines.append("   ")
        elif shape == "commas":
            lines.append("," * (len(header) - 1))
        elif shape == "note":  # every used cell empty, the unused one not
            lines.append(",".join("x" if name == "note" else " " for name in header))
        else:
            if quoted:
                cells = [_quote(draw(_CELLS[name]), draw(st.booleans())) for name in header]
            else:
                cells = [draw(_CELLS[name].filter(_unquoted)) for name in header]
            if shape == "ragged":
                cells = cells[: draw(st.integers(1, len(cells) - 1))]
            lines.append(",".join(cells))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + newline.join(lines) + draw(st.sampled_from(["", newline]))


def _outcome(path, schema):
    """The dataset's bytes and the report of a load, or the error it raised."""
    try:
        dataset, report = load_csv_report(path, schema)
    except DataError as exc:
        return type(exc).__name__, str(exc)
    arrays = (dataset.features, dataset.labels, dataset.sensitive)
    return [(array.shape, array.tobytes()) for array in arrays], report


def _loads_like_the_reference(path, schema):
    """The arrays, report or error of a load are those of ``oracles.reference_load_csv``."""
    try:
        expected = oracles.reference_load_csv(path, schema)
    except oracles.ReferenceLoadError as exc:
        with pytest.raises((DataError, DegenerateDataError)) as caught:
            load_csv_report(path, schema)
        assert type(caught.value).__name__ == exc.kind
        assert str(caught.value) == str(exc)
        return
    dataset, report = load_csv_report(path, schema)
    for name in ("features", "labels", "sensitive"):
        got, want = getattr(dataset, name), expected[name]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name
    assert report == LoadReport(**expected["report"])


#: Cells of one RFC 4180 record, quoted as ``_quote`` does, from an alphabet of
#: separators, quotes, blanks and NUL; half the records are three cells wide.
_RFC_CELLS = st.builds(
    _quote, st.text(alphabet=st.sampled_from(list('ab ,"\r\n\x00')), max_size=6), st.booleans()
)
_RFC_RECORDS = st.one_of(
    st.lists(_RFC_CELLS, min_size=3, max_size=3), st.lists(_RFC_CELLS, min_size=1, max_size=4)
)
#: Columns x, y and z of an ``x,y,z`` header, with no missing marker in the alphabet.
XYZ_SCHEMA = CsvSchema(
    features=(("x", "categorical"),),
    label_column="y",
    label_positive=frozenset({"a"}),
    sensitive_column="z",
    sensitive_positive=frozenset({"b"}),
    missing_values=frozenset({"?"}),
)


class TestLoaderMatchesReference:
    """The column-coded loader against the row-then-column reference in ``oracles``."""

    @pytest.fixture(scope="class")
    def csv_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("differential") / "data.csv"

    @given(text=csv_texts())
    def test_same_arrays_report_and_errors(self, csv_path, text):
        csv_path.write_bytes(text.encode("utf-8"))
        _loads_like_the_reference(csv_path, DIFF_SCHEMA)

    def test_csv_writer_files_are_scanned(self, tmp_path):
        # csv.writer ends every line in CRLF; LF, no final newline, a
        # byte-order mark, quotes around every cell and a blank line
        path = make_german_surrogate(tmp_path / "german.csv", n=500)
        schema = load_schema(bundled_schema_path("german_gender"))
        raw = path.read_bytes()
        lf = raw.replace(b"\r\n", b"\n")
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        _rewrite(path, rows, quoting=csv.QUOTE_ALL)
        quoted = path.read_bytes()
        middle = lf.index(b"\n", len(lf) // 2) + 1
        for variant in (raw, lf, lf.rstrip(b"\n"), b"\xef\xbb\xbf" + raw, quoted,
                        lf[:middle] + b"\n" + lf[middle:]):
            path.write_bytes(variant)
            _loads_like_the_reference(path, schema)

    def test_colliding_keys_fall_back_to_a_dict(self, german_csv):
        # a zero mixer gives every cell of a column one sort key
        schema = load_schema(bundled_schema_path("german_gender"))
        expected = _outcome(german_csv, schema)
        with patch.object(data_module, "_MIX", np.uint64(0)):
            assert _outcome(german_csv, schema) == expected

    def test_german_surrogate(self, german_csv):
        schema = load_schema(bundled_schema_path("german_gender"))
        dataset, report = load_csv_report(german_csv, schema)
        expected = oracles.reference_load_csv(german_csv, schema)
        assert dataset.features.tobytes() == expected["features"].tobytes()
        assert dataset.labels.tobytes() == expected["labels"].tobytes()
        assert dataset.sensitive.tobytes() == expected["sensitive"].tobytes()
        assert report == LoadReport(**expected["report"])


@given(
    cells=st.lists(
        st.one_of(
            st.text(alphabet=st.sampled_from(list("ab \t\x0b\x1c\x00é\xa0\u3000\u2028")), max_size=20),
            # long cells that tie on length and differ only at the end
            st.builds(
                lambda count, tail: "a" * count + tail,
                st.integers(0, 100),
                st.sampled_from(["", "b", "é", " "]),
            ),
        ),
        max_size=40,
    )
)
def test_coder_matches_a_dict_of_stripped_values(cells):
    encoded = [cell.encode() for cell in cells]
    lengths = np.array([len(cell) for cell in encoded], dtype=np.int64)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    buffer = np.frombuffer(b"".join(encoded) + bytes(16), dtype=np.uint8)
    codes, values = data_module._code(buffer, starts, ends)
    code_of: dict[str, int] = {}
    for cell in cells:
        code_of.setdefault(cell.strip(), len(code_of))
    assert values == list(code_of)
    assert codes.dtype == np.int32
    assert codes.tolist() == [code_of[cell.strip()] for cell in cells]


@pytest.fixture(scope="module")
def records_path(tmp_path_factory):
    return tmp_path_factory.mktemp("records") / "data.csv"


@given(
    lines=st.lists(st.tuples(_RFC_RECORDS, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8),
    head=st.sampled_from(["", "x,y,z\n", "x,y,z\r\nz\r\r\n,\n"]),
    ended=st.booleans(),
)
def test_records_match_the_csv_reader(records_path, lines, head, ended):
    """RFC 4180 records as csv.reader cuts them, numbered by the physical line each starts on."""
    text = head + "".join(",".join(cells) + newline for cells, newline in lines)
    if lines and not ended:
        text = text.removesuffix(lines[-1][1])
    records_path.write_bytes(text.encode("utf-8"))
    _loads_like_the_reference(records_path, XYZ_SCHEMA)


def test_words_rounds_do_not_grow_with_the_longest_cell():
    # one round per 8 bytes of a 100,000-byte cell took a third of a second
    def rounds(longest):
        lengths = np.array([5] * 1_999 + [longest])
        buffer = np.zeros(lengths.sum() + 16, dtype=np.uint8)
        loads = np.ndarray((len(buffer) - 7,), dtype="<u8", buffer=buffer, strides=(1,))
        return len(list(data_module._words(loads, np.cumsum(lengths) - lengths, lengths)))

    assert rounds(100_000) == rounds(16) == 2


def test_blanks_after_every_comma_load_like_none(tmp_path):
    # UCI Adult separates its cells with ", ", which puts a blank at the edge of every cell
    path = make_german_surrogate(tmp_path / "german.csv", n=500)
    schema = load_schema(bundled_schema_path("german_gender"))
    plain_arrays, plain_report = _outcome(path, schema)
    path.write_bytes(path.read_bytes().replace(b",", b", "))
    arrays, report = _outcome(path, schema)
    assert arrays == plain_arrays
    assert replace(report, sha256="") == replace(plain_report, sha256="")


def test_ascii_blanks_are_stripped_without_decoding_a_cell():
    # cells of a ", "-separated file; decoding one would call the module's str
    cells = [" 3", "a ", "\t\x0bb c\x1c ", "   ", "", "d", " \x1fe\r"]
    encoded = [cell.encode() for cell in cells]
    ends = np.cumsum([len(cell) for cell in encoded])
    starts = ends - [len(cell) for cell in encoded]
    buffer = np.frombuffer(b"".join(encoded) + bytes(16), dtype=np.uint8)
    with patch.object(data_module, "str", side_effect=AssertionError, create=True):
        data_module._strip(buffer, starts, ends)
    assert [bytes(buffer[a:b]).decode() for a, b in zip(starts, ends)] == [c.strip() for c in cells]


class TestMalformedText:
    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"age,city,label,grp\r\n30,oslo,y,a\r40,li\xffma,n,b\n")
        # placed in the bytes already read: a pipe could not be read again
        with patch.object(Path, "read_bytes", side_effect=AssertionError):
            with pytest.raises(DataError, match=r"data\.csv:3: not UTF-8 text: .*0xff"):
                load_csv_report(path, BASIC_SCHEMA)

    def test_undecodable_byte_past_the_first_read(self, tmp_path):
        path = make_german_surrogate(tmp_path / "german.csv", n=2_000)
        text = path.read_bytes()
        cut = text.index(b"\n", len(text) // 2) + 1
        path.write_bytes(text[:cut] + b"\xff" + text[cut:])
        line = text[:cut].count(b"\n") + 1
        schema = load_schema(bundled_schema_path("german_gender"))
        with pytest.raises(DataError, match=rf"german\.csv:{line}: not UTF-8 text"):
            load_csv_report(path, schema)

    def test_undecodable_byte_after_multibyte_text(self, tmp_path):
        # text decoded seven bytes at a time; the bad byte keeps its file offset and line
        path = tmp_path / "data.csv"
        text = "age,city,label,grp\n30,ĺódź,y,a\n40,\u3000 oslo,n,b\n"
        path.write_text(text, encoding="utf-8")
        with patch.object(data_module, "_SCAN_BLOCK", 7):
            _, report = load_csv_report(path, BASIC_SCHEMA)
            assert report.categorical_levels["city"] == ("ĺódź", "oslo")
            path.write_bytes(text.encode() + b"50,li\xc3ma,y,a\n")
            with pytest.raises(DataError, match=r"data\.csv:4: not UTF-8 text: .*0xc3 in position 55"):
                load_csv_report(path, BASIC_SCHEMA)

    def test_cell_over_the_csv_field_limit(self, tmp_path):
        path = tmp_path / "data.csv"
        big = "x" * (csv.field_size_limit() + 1)
        path.write_text(f'age,city,label,grp\n30,oslo,y,a\n40,"{big}",n,b\n')
        with pytest.raises(DataError, match=r"data\.csv:3: field larger than field limit"):
            load_csv_report(path, BASIC_SCHEMA)
        # an unquoted cell that long fails the same way
        path.write_text(f"age,city,label,grp\n30,oslo,y,a\n40,{big},n,b\n")
        with pytest.raises(DataError, match=r"data\.csv:3: field larger than field limit"):
            load_csv_report(path, BASIC_SCHEMA)
        # the limit counts characters: one at the limit, over it in bytes, loads
        wide = "é" * csv.field_size_limit()
        path.write_text(f"age,city,label,grp\n30,oslo,y,a\n40,{wide},n,b\n", encoding="utf-8")
        assert load_csv_report(path, BASIC_SCHEMA)[1].categorical_levels["city"] == ("oslo", wide)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('30,oslo,y,a\n40,li"ma,n,b\n', 'data.csv:3: quote inside an unquoted cell'),
            ('30,"os\nlo",y,a\n40,"li"ma,n,b\n', 'data.csv:4: text after a closing quote'),
            ('30,oslo,y,a\n40,"lima,n,b\n50,oslo,y,a\n',
             'data.csv:3: quote still open at the end of the file'),
        ],
        ids=["inside", "after", "open"],
    )
    def test_quoting_outside_rfc_4180_names_its_line(self, tmp_path, text, message):
        # csv.reader reads these as li"ma, as lima, and as one ragged record to the end
        path = tmp_path / "data.csv"
        path.write_text("age,city,label,grp\n" + text)
        with pytest.raises(DataError, match=re.escape(message) + "$"):
            load_csv_report(path, BASIC_SCHEMA)


def _traced_load(path, schema):
    """``load_csv_report(path, schema)`` and its tracemalloc peak.

    The byte buffer and separator index are traced bytearrays here, not
    untraced mappings.
    """
    tracemalloc.start()
    try:
        with patch.object(data_module, "_anonymous", bytearray):
            loaded = load_csv_report(path, schema)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return loaded, peak


def _rewrite(path, rows, **options):
    with path.open("w", newline="", encoding=options.pop("encoding", "utf-8")) as handle:
        csv.writer(handle, **options).writerows(rows)


def test_load_peak_memory_is_a_small_multiple_of_the_features(tmp_path):
    # the row-then-column loader peaked near 5.8x, holding every cell as a string;
    # the one-pass loader that copied its matrix into the dataset, near 2.5x
    path = make_german_surrogate(tmp_path / "german.csv", n=10_000)
    schema = load_schema(bundled_schema_path("german_gender"))
    (dataset, _), peak = _traced_load(path, schema)
    assert peak <= 2.25 * dataset.features.nbytes


def test_quoted_load_holds_no_second_copy_of_the_file(tmp_path):
    # the scan's masks and the UTF-8 check's decoding span one block at a
    # time: over the same rows unquoted, a QUOTE_ALL copy with a byte-order
    # mark adds its bytes, and not also a whole-file copy
    path = make_german_surrogate(tmp_path / "german.csv", n=10_000)
    schema = load_schema(bundled_schema_path("german_gender"))
    _, plain = _traced_load(path, schema)
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    _rewrite(path, rows, quoting=csv.QUOTE_ALL, encoding="utf-8-sig")
    with patch.object(data_module, "_SCAN_BLOCK", 1 << 16):  # blocks far smaller than the file
        (dataset, _), quoted = _traced_load(path, schema)
    assert quoted <= 2.25 * dataset.features.nbytes
    assert quoted - plain <= path.stat().st_size


@pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL], ids=["scanned", "quoted"])
def test_one_long_cell_costs_its_own_bytes(tmp_path, quoting):
    # a word for every row at each of the cell's 7,500 offsets would be 60 MB
    path = make_german_surrogate(tmp_path / "german.csv", n=1_000)
    schema = load_schema(bundled_schema_path("german_gender"))
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    long_value = "x" * 60_000
    rows[5][rows[0].index("purpose")] = long_value
    _rewrite(path, rows, quoting=quoting)
    (dataset, report), peak = _traced_load(path, schema)
    assert long_value in report.categorical_levels["purpose"]
    assert peak <= 16 * 2**20


def fit_all(dataset, c=0.5):
    """The fused fit over every row of ``dataset``: ``(transform, mapped dataset)``."""
    return fit_dp_transform(dataset, np.arange(dataset.n), c)


def two_step_reference(features, c):
    """The norm-bounding map as whole-array expressions: the fit, then the map and clip.

    Returns ``shift, scale, global_scale``, the mapped rows and the clip mask.
    """
    shift = features.mean(axis=0)
    centered = features - shift
    squares = centered * centered
    scale = np.sqrt(squares.sum(axis=0) / features.shape[0])
    scale = np.where(scale > 0, scale, 1.0)
    centered /= scale
    np.multiply(centered, centered, out=squares)
    max_norm = float(np.sqrt(squares.sum(axis=1).max()))
    cap = float(np.sqrt(1.0 - c * c))
    global_scale = cap / max_norm if max_norm > 0 else 1.0
    z = features - shift
    z /= scale
    z *= global_scale
    norms = np.sqrt((z**2).sum(axis=1))
    over = norms > cap
    z[over] *= (cap / norms[over])[:, None]
    return shift, scale, global_scale, z, over


class TestDpTransform:
    def small(self):
        gen = np.random.default_rng(3)
        x = gen.normal(size=(50, 3)) * np.array([1.0, 10.0, 0.1])
        labels = np.where(gen.random(50) < 0.5, 1.0, -1.0)
        sensitive = np.where(gen.random(50) < 0.5, 1.0, -1.0)
        return Dataset(x, labels, sensitive)

    def test_train_rows_land_inside_the_ball(self):
        _, mapped = fit_all(self.small(), c=0.5)
        assert mapped.label_scale == 0.5
        assert set(np.unique(mapped.labels)) == {-0.5, 0.5}
        joint = np.sqrt((mapped.features**2).sum(axis=1) + mapped.labels**2)
        assert joint.max() <= 1.0 + 1e-9
        # the extreme training row sits exactly on the cap
        norms = np.sqrt((mapped.features**2).sum(axis=1))
        assert norms.max() == pytest.approx(np.sqrt(1 - 0.25), abs=1e-12)

    def test_transform_statistics(self):
        # The fit computes the scale as np.std computes it, from column sums
        # of squares carried across row blocks in numpy's summation order,
        # so the statistics are numpy's bit for bit, a constant column's
        # unit scale included.
        small = self.small()
        constant = np.hstack([small.features, np.full((small.n, 1), 0.3)])
        for train in (small, Dataset(constant, small.labels, small.sensitive)):
            x = train.features
            transform, _ = fit_all(train, c=0.6)
            std = x.std(axis=0)
            assert transform.shift.tobytes() == x.mean(axis=0).tobytes()
            assert transform.scale.tobytes() == np.where(std > 0, std, 1.0).tobytes()
            standardized = (x - transform.shift) / transform.scale
            max_norm = np.sqrt((standardized**2).sum(axis=1).max())
            assert transform.global_scale == transform.radius_cap / max_norm
            assert transform.radius_cap == np.sqrt(1 - 0.6 * 0.6)
            assert transform.label_magnitude == 0.6

    @given(
        width=st.sampled_from([1, 2, 8, 50, 52]),
        block=st.sampled_from([64, 1 << 17]),
        blocks=st.sampled_from([0.5, 1.0, 3.25]),
        seed=st.integers(0, 2**32 - 1),
        constant=st.booleans(),
        c=st.sampled_from([0.5, 0.6, 0.9]),
    )
    def test_fused_map_is_the_two_step_map_bit_for_bit(
        self, width, block, blocks, seed, constant, c
    ):
        # Row counts below one block, of exactly one and of several blocks
        # (the 64-element buffer puts several blocks in a few rows).
        per_block = max(1, block // width)
        n = max(1, int(blocks * per_block))
        gen = np.random.default_rng(seed)
        x = gen.normal(size=(n + 3, width)) * gen.lognormal(size=width) + gen.normal(size=width)
        if constant:
            x[:, -1] = 0.3
        labels = np.where(gen.random(n + 3) < 0.5, 1.0, -1.0)
        dataset = Dataset(x, labels, -labels)
        rows = np.sort(gen.permutation(n + 3)[:n])
        shift, scale, global_scale, z, _ = two_step_reference(x[rows], c)
        centered = x[rows] - shift
        with patch.object(data_module, "_SQUARES_BLOCK", block):
            transform, mapped = fit_dp_transform(dataset, rows, c)
            held_out = apply_dp_transform(transform, dataset, np.arange(dataset.n))
            # the sums themselves, before the square root can hide an ulp
            sums = data_module._column_square_sums(centered)
        assert sums.tobytes() == (centered * centered).sum(axis=0).tobytes()
        assert transform.shift.tobytes() == shift.tobytes()
        assert transform.scale.tobytes() == scale.tobytes()
        assert transform.global_scale == global_scale
        assert mapped.features.tobytes() == z.tobytes()
        assert mapped.labels.tobytes() == (labels[rows] * c).tobytes()
        assert mapped.sensitive.tobytes() == (-labels[rows]).tobytes()
        assert not np.shares_memory(mapped.features, dataset.features)
        assert mapped.features.flags.c_contiguous and mapped.features.base is None
        # the held-out map shares the fit's norms: on the training rows it
        # gives the training map bit for bit
        assert held_out.features[rows].tobytes() == z.tobytes()

    @pytest.mark.parametrize("width", [1, 3])
    def test_overflowing_or_non_finite_row_rejected_at_any_block(self, width):
        gen = np.random.default_rng(5)
        x = gen.normal(size=(40, width))
        x[37, -1] = 1e308
        x[38, -1] = -1e308
        labels = np.where(gen.random(40) < 0.5, 1.0, -1.0)
        dataset = Dataset(x, labels, labels.copy())
        with patch.object(data_module, "_SQUARES_BLOCK", 2 * width):
            with pytest.raises(ValidationError, match="finite"):
                fit_all(dataset)
            with pytest.raises(ValidationError, match="finite"):
                fit_dp_transform(dataset, [0, 37], 0.5)

    def test_row_exactly_on_the_cap_is_kept(self, caplog):
        x = np.array([[1.0], [-1.0], [0.5], [-0.5]])
        labels = np.array([1.0, -1.0, 1.0, -1.0])
        with caplog.at_level(logging.INFO, logger="fairplug.data"):
            transform, mapped = fit_all(Dataset(x, labels, labels.copy()), c=0.6)
        norms = np.sqrt((mapped.features**2).sum(axis=1))
        assert norms.max() == transform.radius_cap == 0.8
        assert not any("clipped" in record.message for record in caplog.records)

    def test_training_rows_clipped_are_named_as_training(self, caplog):
        # Rounding puts this split's largest row one ulp over the cap.
        gen = np.random.default_rng(37)
        width, n = int(gen.integers(1, 9)), int(gen.integers(2, 40))
        x = gen.normal(size=(n, width))
        labels = np.where(gen.random(n) < 0.5, 1.0, -1.0)
        with caplog.at_level(logging.INFO, logger="fairplug.data"):
            transform, mapped = fit_all(Dataset(x, labels, labels.copy()))
        assert two_step_reference(x, 0.5)[4].sum() == 1
        assert np.sqrt((mapped.features**2).sum(axis=1)).max() <= transform.radius_cap
        messages = [record.message for record in caplog.records]
        assert messages == ["radially clipped 1 training rows to the norm cap"]

    def test_fused_fit_peaks_at_one_split_and_a_block(self):
        gen = np.random.default_rng(8)
        dataset = Dataset(
            gen.normal(size=(25_000, 50)), np.ones(25_000), np.ones(25_000)
        )
        rows = np.sort(gen.permutation(25_000)[:20_000])
        gathered = rows.size * 50 * 8
        tracemalloc.start()
        try:
            transform, mapped = fit_dp_transform(dataset, rows, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * gathered + 2 * 2**20
        assert not np.shares_memory(mapped.features, dataset.features)

    def test_constant_column_gets_unit_scale(self):
        x = np.hstack([np.ones((20, 1)) * 7.0, np.arange(20.0)[:, None]])
        labels = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
        transform, mapped = fit_all(Dataset(x, labels, labels.copy()))
        assert transform.scale[0] == 1.0
        assert np.all(np.isfinite(mapped.features))

    def test_mapped_dataset_is_read_only(self):
        # Both roles: the mapped split owns its read-only arrays.
        train = self.small()
        transform, mapped = fit_all(train)
        held_out = apply_dp_transform(transform, train, np.arange(train.n))
        for split in (mapped, held_out):
            for name in ("features", "labels", "sensitive"):
                column = getattr(split, name)
                assert not column.flags.writeable
                assert not np.shares_memory(column, getattr(train, name))
                with pytest.raises(ValueError):
                    column[0] = 0.0

    def test_rows_are_checked_like_a_subset(self):
        train = self.small()
        transform, _ = fit_all(train)
        for bad, message in (
            ([], "non-empty"), ([[0, 1]], "non-empty"), ([50], "out of range"),
            ([-1], "out of range"),
        ):
            with pytest.raises(ValidationError, match=message):
                fit_dp_transform(train, bad, 0.5)
            with pytest.raises(ValidationError, match=message):
                apply_dp_transform(transform, train, bad)

    def test_held_out_rows_keep_scale_and_are_gathered_in_order(self):
        train = self.small()
        transform, _ = fit_all(train, c=0.6)
        held_out = apply_dp_transform(transform, train, [2, 0, 2])
        assert held_out.n == 3 and held_out.label_scale == 0.6
        whole = apply_dp_transform(transform, train, np.arange(train.n))
        assert held_out.features.tobytes() == whole.features[[2, 0, 2]].tobytes()
        assert held_out.labels.tobytes() == (np.sign(train.labels[[2, 0, 2]]) * 0.6).tobytes()
        assert held_out.sensitive.tobytes() == train.sensitive[[2, 0, 2]].tobytes()

    def test_non_finite_held_out_row_rejected(self):
        # The third column's scale is near 0.1, so 1e308 maps beyond the
        # largest double; the clip turns the infinite row into NaN.
        transform, _ = fit_all(self.small())
        huge = Dataset(np.array([[0.0, 0.0, 1e308]]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValidationError, match="non-finite"):
            apply_dp_transform(transform, huge, [0])

    def test_overflowing_training_row_rejected(self):
        # Squaring 1e308 overflows, so the scale is not finite; the fit's
        # rejection surfaces, not numpy's overflow warning.
        train = self.small()
        features = train.features.copy()
        features[0, 2] = 1e308
        huge = Dataset(features, train.labels, train.sensitive)
        with pytest.raises(ValidationError, match="finite"):
            fit_all(huge)

    def test_held_out_row_whose_squares_overflow_lands_on_the_cap(self, caplog):
        # The first column's scale is near 1, so 1e160 maps to a finite
        # row whose squares overflow; it is clipped in its own direction,
        # not to the origin.
        train = self.small()
        transform, _ = fit_all(train, c=0.5)
        x = np.array([[1e160, 0.0, 0.0], [-1e160, 1e160, 0.0], [1.0, 0.0, 0.0]])
        rows = Dataset(x, np.ones(3), np.ones(3))
        with caplog.at_level(logging.INFO, logger="fairplug.data"):
            mapped = apply_dp_transform(transform, rows, [0, 1, 2])
        cap = transform.radius_cap
        for row in range(2):
            # at this size the shift is lost in rounding: the direction is x / scale
            direction = x[row] / 1e160 / transform.scale
            expected = cap * direction / np.sqrt((direction**2).sum())
            assert mapped.features[row] == pytest.approx(expected, rel=1e-12, abs=1e-150)
        # the finite-norm row is the one-row map's, bit for bit
        alone = apply_dp_transform(transform, rows, [2])
        assert mapped.features[2].tobytes() == alone.features[0].tobytes()
        assert any("clipped 2 held-out rows" in record.message for record in caplog.records)

    def test_held_out_rows_clipped(self, caplog):
        transform, _ = fit_all(self.small(), c=0.5)
        far = Dataset(
            np.array([[100.0, -100.0, 100.0]]), np.array([1.0]), np.array([1.0])
        )
        with caplog.at_level(logging.INFO, logger="fairplug.data"):
            mapped = apply_dp_transform(transform, far, [0])
        norms = np.sqrt((mapped.features**2).sum(axis=1))
        assert norms[0] == pytest.approx(transform.radius_cap, abs=1e-12)
        assert any("clipped 1 held-out rows" in record.message for record in caplog.records)

    def test_label_magnitude_bounds(self):
        train = self.small()
        transform, _ = fit_all(train)
        for bad in (0.0, 1.0):
            with pytest.raises(ValidationError, match="magnitude C"):
                fit_all(train, c=bad)
        # The cap is derived from C, so the constructor checks C itself.
        for bad in (1.0, 1.5):
            with pytest.raises(ValidationError, match="magnitude C"):
                replace(transform, label_magnitude=bad)


class TestSplits:
    def test_plan_validation(self):
        plan = SplitPlan()
        assert SPLIT_RATIOS == (0.70, 0.20, 0.10)
        assert plan.n_repeats == 20
        with pytest.raises(ValidationError, match="n_repeats"):
            SplitPlan(n_repeats=0)

    def dataset_of(self, n):
        labels = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        return Dataset(np.zeros((n, 1)), labels, labels.copy())

    def test_sizes_and_partition(self):
        splits = make_splits(self.dataset_of(100), SplitPlan(n_repeats=3, master_seed=1))
        assert len(splits) == 3
        for train_idx, val_idx, test_idx in splits:
            assert (len(train_idx), len(val_idx), len(test_idx)) == (70, 20, 10)
            merged = np.concatenate([train_idx, val_idx, test_idx])
            assert np.array_equal(np.sort(merged), np.arange(100))
            assert np.array_equal(train_idx, np.sort(train_idx))

    def test_deterministic_and_repeat_varied(self):
        ds = self.dataset_of(60)
        a = make_splits(ds, SplitPlan(n_repeats=2, master_seed=9))
        b = make_splits(ds, SplitPlan(n_repeats=2, master_seed=9))
        assert all(np.array_equal(x, y) for t1, t2 in zip(a, b) for x, y in zip(t1, t2))
        assert not np.array_equal(a[0][0], a[1][0])

    def test_too_small_rejected(self):
        with pytest.raises(DegenerateDataError, match="too small"):
            make_splits(self.dataset_of(5), SplitPlan())

    def test_duplicate_repeats_logged(self, caplog):
        ds = self.dataset_of(10)
        with caplog.at_level(logging.WARNING, logger="fairplug.data"):
            splits = make_splits(ds, SplitPlan(n_repeats=200, master_seed=0))
        # each repeat whose training rows an earlier one drew, named with the latest such
        want = [
            (repeat, max(j for j in range(repeat) if np.array_equal(splits[j][0], train)))
            for repeat, (train, _, _) in enumerate(splits)
            if any(np.array_equal(splits[j][0], train) for j in range(repeat))
        ]
        assert want
        named = [
            tuple(map(int, re.findall(r"\d+", record.message)))
            for record in caplog.records if "duplicates" in record.message
        ]
        assert named == want


class TestPreparedRoundTrip:
    def test_round_trip(self, tmp_path):
        gen = np.random.default_rng(8)
        x = gen.normal(size=(40, 2))
        labels = np.where(gen.random(40) < 0.5, 0.5, -0.5)
        sensitive = np.where(gen.random(40) < 0.5, 1.0, -1.0)
        dataset = Dataset(x, labels, sensitive, label_scale=0.5)
        splits = make_splits(dataset, SplitPlan(n_repeats=4, master_seed=2))
        meta = {"schema": "tiny", "rows_read": 41}
        out = tmp_path / "prepared"
        save_prepared(out, dataset, splits, meta)
        loaded = load_prepared(out)
        assert np.array_equal(loaded.dataset.features, dataset.features)
        assert np.array_equal(loaded.dataset.labels, dataset.labels)
        assert loaded.dataset.label_scale == 0.5
        assert len(loaded.splits) == 4
        for got, want in zip(loaded.splits, splits):
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
        assert loaded.meta["schema"] == "tiny"
        assert loaded.meta["rows_read"] == "41"

    def test_int_arrays_load_as_read_only_floats(self, tmp_path):
        out = tmp_path / "prepared"
        dataset = Dataset(np.zeros((12, 1)), np.ones(12), np.ones(12))
        save_prepared(out, dataset, make_splits(dataset, SplitPlan(n_repeats=1)), {})
        np.save(out / "labels.npy", np.where(np.arange(12) % 2 == 0, 1, -1))
        np.save(out / "sensitive.npy", np.ones(12, dtype=np.int8))
        loaded = load_prepared(out).dataset
        assert loaded.labels.dtype == float and loaded.sensitive.dtype == float
        assert loaded.labels.tolist() == [1.0, -1.0] * 6
        assert not any(
            column.flags.writeable for column in (loaded.features, loaded.labels, loaded.sensitive)
        )

    def test_features_stay_in_the_file_and_every_file_is_hashed(self, tmp_path):
        # the digests are of the bytes the load read, bytes past the rows included
        gen = np.random.default_rng(8)
        dataset = Dataset(
            gen.normal(size=(40, 3)), np.where(gen.random(40) < 0.5, 1.0, -1.0), np.ones(40)
        )
        out = tmp_path / "prepared"
        save_prepared(out, dataset, make_splits(dataset, SplitPlan(n_repeats=2)), {"schema": "x"})
        with open(out / "features.npy", "ab") as handle:
            handle.write(b"tail")
        loaded = load_prepared(out)
        features = loaded.dataset.features
        assert isinstance(features, np.memmap) and not features.flags.writeable
        assert np.array_equal(features, dataset.features)
        assert sorted(loaded.digests) == sorted(path.name for path in out.iterdir())
        for name, digest in loaded.digests.items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest(), name

    @pytest.mark.parametrize(
        "features",
        [
            np.arange(24).reshape(12, 2),
            np.asfortranarray(np.arange(24.0).reshape(12, 2)),
            np.arange(24.0).reshape(12, 2).astype(">f8"),
            np.zeros((12, 0)),
        ],
        ids=["int", "fortran", "big-endian", "zero-width"],
    )
    def test_other_feature_files_load_whole(self, tmp_path, features):
        out = tmp_path / "prepared"
        dataset = Dataset(np.zeros((12, 1)), np.ones(12), np.ones(12))
        save_prepared(out, dataset, make_splits(dataset, SplitPlan(n_repeats=1)), {})
        np.save(out / "features.npy", features)
        loaded = load_prepared(out)
        assert type(loaded.dataset.features) is np.ndarray
        assert loaded.dataset.features.dtype == float
        assert np.array_equal(loaded.dataset.features, features)
        digest = hashlib.sha256((out / "features.npy").read_bytes()).hexdigest()
        assert loaded.digests["features.npy"] == digest

    def test_split_order_follows_the_integer_index(self, tmp_path):
        gen = np.random.default_rng(9)
        dataset = Dataset(
            gen.normal(size=(60, 2)),
            np.where(gen.random(60) < 0.5, 1.0, -1.0),
            np.where(gen.random(60) < 0.5, 1.0, -1.0),
        )
        splits = make_splits(dataset, SplitPlan(n_repeats=101, master_seed=4))
        out = tmp_path / "prepared"
        save_prepared(out, dataset, splits, {})
        loaded = load_prepared(out)
        assert len(loaded.splits) == 101
        for got, want in zip(loaded.splits, splits):
            assert np.array_equal(got[2], want[2])

    def test_split_file_without_integer_index_rejected(self, tmp_path):
        out = tmp_path / "prepared"
        dataset = Dataset(np.zeros((12, 1)), np.ones(12), np.ones(12))
        save_prepared(out, dataset, make_splits(dataset, SplitPlan(n_repeats=1)), {})
        np.save(out / "split_extra.npy", np.zeros(12, dtype=np.int8))
        with pytest.raises(DataError, match="integer index"):
            load_prepared(out)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_prepared(tmp_path / "absent")

    def test_no_split_files(self, tmp_path):
        out = tmp_path / "prepared"
        dataset = Dataset(np.zeros((12, 1)), np.ones(12), np.ones(12))
        save_prepared(out, dataset, make_splits(dataset, SplitPlan(n_repeats=1)), {})
        for split_file in out.glob("split_*.npy"):
            split_file.unlink()
        with pytest.raises(DataError, match="no split"):
            load_prepared(out)

    def test_role_vector_length_checked(self, tmp_path):
        out = tmp_path / "prepared"
        dataset = Dataset(np.zeros((12, 1)), np.ones(12), np.ones(12))
        save_prepared(out, dataset, make_splits(dataset, SplitPlan(n_repeats=1)), {})
        np.save(out / "split_00.npy", np.zeros(5, dtype=np.int8))
        with pytest.raises(DataError, match="does not match"):
            load_prepared(out)

    @pytest.mark.parametrize(
        "defect, file",
        [
            ("text in features", "features.npy"),
            ("truncated features", "features.npy: not a numeric .npy array"),
            ("NaN in features", "not a dataset: features contain non-finite entries"),
            ("object labels", "labels.npy"),
            ("string sensitive", "sensitive.npy"),
            ("label_scale abc", "meta.kv"),
            ("dp_norm_c abc", "meta.kv: dp_norm_c 'abc'"),
            ("dp_norm_c 2.0", "meta.kv: dp_norm_c '2.0'"),
            ("sensitive outside +-1", "not a dataset"),
            ("role 7", "split_00.npy"),
            ("role 0.5", "split_00.npy"),
            ("no test role", "split_00.npy"),
            ("no train role", "split_00.npy"),
        ],
    )
    def test_malformed_directory_is_a_data_error(self, tmp_path, defect, file):
        out = tmp_path / "prepared"
        dataset = Dataset(np.zeros((12, 1)), np.ones(12), np.ones(12))
        save_prepared(out, dataset, make_splits(dataset, SplitPlan(n_repeats=1)), {})
        roles = np.load(out / "split_00.npy")
        if defect == "text in features":
            (out / "features.npy").write_text("a,b\n1,2\n")
        elif defect == "truncated features":
            (out / "features.npy").write_bytes((out / "features.npy").read_bytes()[:-8])
        elif defect == "NaN in features":
            np.save(out / "features.npy", np.where(np.arange(12) == 7, np.nan, 0.0)[:, None])
        elif defect == "object labels":
            np.save(out / "labels.npy", np.array([1.0] * 11 + ["x"], dtype=object))
        elif defect == "string sensitive":
            np.save(out / "sensitive.npy", np.array(["1"] * 12))
        elif defect == "label_scale abc":
            (out / "meta.kv").write_text("label_scale = abc\n")
        elif defect.startswith("dp_norm_c"):
            (out / "meta.kv").write_text(f"label_scale = 1.0\ndp_norm_c = {defect.split()[1]}\n")
        elif defect == "sensitive outside +-1":
            np.save(out / "sensitive.npy", np.zeros(12))
        elif defect == "role 7":
            np.save(out / "split_00.npy", np.where(roles == 2, 7, roles).astype(np.int8))
        elif defect == "role 0.5":
            np.save(out / "split_00.npy", np.where(roles == 1, 0.5, roles))
        elif defect == "no test role":
            np.save(out / "split_00.npy", np.where(roles == 2, 1, roles).astype(np.int8))
        else:
            np.save(out / "split_00.npy", np.where(roles == 0, 2, roles).astype(np.int8))
        with pytest.raises(DataError, match=file):
            load_prepared(out)

    def test_incomplete_partition_rejected_at_save(self, tmp_path):
        dataset = Dataset(np.zeros((12, 1)), np.ones(12), np.ones(12))
        bad_splits = [(np.arange(5), np.arange(5, 8), np.arange(8, 11))]  # row 11 missing
        with pytest.raises(ValidationError, match="partition every row"):
            save_prepared(tmp_path / "prepared", dataset, bad_splits, {})


class TestFileBackedFeatures:
    """A loaded dataset's features are read from ``features.npy`` a block of rows at a time."""

    @pytest.fixture
    def prepared(self, tmp_path, monkeypatch):
        # 7 rows of 3 columns a block: many blocks, and a short last one
        monkeypatch.setattr(core_module, "_BLOCK_BYTES", 7 * 3 * 8)
        gen = np.random.default_rng(3)
        dataset = Dataset(
            gen.normal(size=(100, 3)) * [1.0, 10.0, 0.1],
            np.where(gen.random(100) < 0.5, 1.0, -1.0),
            np.where(gen.random(100) < 0.5, 1.0, -1.0),
        )
        out = tmp_path / "prepared"
        save_prepared(out, dataset, make_splits(dataset, SplitPlan(n_repeats=1)), {})
        return dataset, out

    @pytest.mark.parametrize("order", ["sorted", "unsorted", "repeated"])
    @pytest.mark.parametrize("column", [None, "sensitive"])
    def test_gathers_match_an_in_memory_dataset_bit_for_bit(self, prepared, order, column):
        # ``column`` is the one a fit on the mapped split reads after the features
        memory, out = prepared
        mapped = load_prepared(out).dataset
        assert isinstance(mapped.features, np.memmap)
        gen = np.random.default_rng(5)
        if order == "repeated":
            train, test = gen.integers(0, 100, 70), gen.integers(0, 100, 30)
        else:
            train, test = np.split(gen.permutation(100), [70])
            if order == "sorted":
                train, test = np.sort(train), np.sort(test)
        results = []
        for dataset in (memory, mapped):
            transform, fitted = fit_dp_transform(dataset, train, 0.5)
            held_out = apply_dp_transform(transform, dataset, test)
            arity = ARITY_FEATURES if column is None else ARITY_FEATURES_PLUS_SENSITIVE
            model = fit_estimator(fitted, "labels", arity, FitConfig())
            columns = () if column is None else (getattr(held_out, column),)
            results.append(
                [transform.shift, transform.scale, np.array(transform.global_scale)]
                + [getattr(part, name) for part in (fitted, held_out)
                   for name in ("features", "labels", "sensitive")]
                + [model.weights, predict_proba(model, held_out.features, *columns)]
            )
        for want, got in zip(*results):
            assert want.tobytes() == got.tobytes()

    def test_non_finite_row_in_a_late_block_is_rejected(self, prepared):
        _, out = prepared
        features = np.load(out / "features.npy")
        features[97, 2] = np.inf
        np.save(out / "features.npy", features)
        with pytest.raises(DataError, match="features contain non-finite entries"):
            load_prepared(out)

    def test_saving_over_the_mapped_file_is_refused(self, prepared):
        _, out = prepared
        loaded = load_prepared(out)
        with pytest.raises(ValidationError, match="holds the features being saved"):
            save_prepared(out, loaded.dataset, loaded.splits, {})
        save_prepared(out.parent / "copy", loaded.dataset, loaded.splits, {})
        assert (out.parent / "copy" / "features.npy").read_bytes() == (out / "features.npy").read_bytes()

    @pytest.mark.parametrize("rewrite", ["grown", "touched"])
    def test_a_file_rewritten_after_the_load_is_a_data_error(self, prepared, rewrite):
        memory, out = prepared
        transform, _ = fit_dp_transform(memory, np.arange(70))
        loaded = load_prepared(out).dataset
        path = out / "features.npy"
        if rewrite == "grown":
            np.save(path, np.vstack([loaded.features, loaded.features[:1]]))
        else:
            stat = path.stat()
            path.write_bytes(path.read_bytes())
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        with pytest.raises(DataError, match=re.escape(str(path))):
            fit_dp_transform(loaded, np.arange(70))
        with pytest.raises(DataError, match=re.escape(str(path))):
            apply_dp_transform(transform, loaded, np.arange(70, 100))
