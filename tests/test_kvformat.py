"""Round-trip and error behavior of the flat key=value text format."""

import math
import os
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairplug.errors import DataError
from fairplug.kvformat import (
    format_float,
    format_float_vector,
    parse_float_vector,
    read_kv,
    write_kv,
)


def test_round_trip_preserves_pairs(tmp_path):
    path = tmp_path / "r.kv"
    write_kv(path, [("alpha", "1"), ("beta", "two words"), ("gamma", "")])
    assert read_kv(path) == {"alpha": "1", "beta": "two words", "gamma": ""}


def test_comments_and_blank_lines_are_ignored(tmp_path):
    path = tmp_path / "c.kv"
    path.write_text("# heading\n\n  key = value  \n# trailing\n")
    assert read_kv(path) == {"key": "value"}


def test_value_may_contain_equals_sign(tmp_path):
    path = tmp_path / "eq.kv"
    path.write_text("expr = a = b\n")
    assert read_kv(path) == {"expr": "a = b"}


def test_duplicate_keys_rejected_by_dict_reader(tmp_path):
    path = tmp_path / "dup.kv"
    path.write_text("k = 1\nk = 2\n")
    with pytest.raises(DataError, match="duplicate"):
        read_kv(path)


def test_malformed_line_names_location(tmp_path):
    path = tmp_path / "bad.kv"
    path.write_text("fine = 1\nnot a pair\n")
    with pytest.raises(DataError, match=":2"):
        read_kv(path)


def test_empty_key_rejected(tmp_path):
    path = tmp_path / "nokey.kv"
    path.write_text("= orphan value\n")
    with pytest.raises(DataError, match="empty key"):
        read_kv(path)


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_kv(tmp_path / "absent.kv")


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips_exactly(value):
    assert float(format_float(value)) == value


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
def test_float_vector_round_trips_exactly(values):
    assert parse_float_vector(format_float_vector(values)) == values


def test_parse_float_vector_rejects_garbage():
    with pytest.raises(DataError):
        parse_float_vector("1.0 pear 3.0")


def test_format_float_handles_negative_zero_and_tiny():
    assert float(format_float(-0.0)) == 0.0
    assert math.copysign(1.0, float(format_float(-0.0))) == -1.0
    assert float(format_float(5e-324)) == 5e-324


def test_undecodable_byte_is_a_data_error_naming_its_line(tmp_path):
    path = tmp_path / "u.kv"
    path.write_bytes(b"alpha = 1\r\nbeta = 2\r\ngamma = \xff\r\n")
    with pytest.raises(DataError, match=f"{path}:3: not UTF-8 text"):
        read_kv(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_undecodable_pipe_is_read_once(tmp_path):
    # A second open of the pipe would wait for a writer that never comes.
    pipe = tmp_path / "p.kv"
    os.mkfifo(pipe)
    errors = []

    def read():
        try:
            read_kv(pipe)
        except DataError as exc:
            errors.append(str(exc))

    writer = threading.Thread(target=pipe.write_bytes, args=(b"a = 1\n\xff = 2\n",))
    reader = threading.Thread(target=read, daemon=True)
    writer.start()
    reader.start()
    writer.join(timeout=5)
    reader.join(timeout=5)
    blocked = reader.is_alive()
    if blocked:
        # Open and close a writer so that the blocked read ends.
        os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=5)
    assert not writer.is_alive()
    assert not blocked
    assert len(errors) == 1 and errors[0].startswith(f"{pipe}:2: not UTF-8 text")
