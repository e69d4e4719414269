"""Input files read a chunk at a time, at every chunk size from one byte
to the whole file, against the same files read whole.

``jsonfiles.CHUNK`` is the number of bytes read at a time. A file that
reads cleanly must be read in chunks alone; on the first problem the
reader reads the file again whole, so a bad file must fail as the whole
text does, with the same error text.
"""

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstyle import jsonfiles
from radstyle.errors import RadstyleError
from radstyle.jsonfiles import (object_members, parse_json, read_jsonl,
                                read_study_map, read_text, study_map_from)

from oracles import read_study_map_oracle
from test_jsonfiles import DEEP, LONG_INT, convert

SPACE = st.text(alphabet=" \t\n\r", max_size=2)
# non-ASCII text: a character of two, three and four UTF-8 bytes, and one
# outside the basic plane, which an ASCII escape writes as a surrogate pair
TEXT = st.text(alphabet="aé\"\\ €😀\x00", max_size=3)
SCALARS = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
           | st.floats(allow_nan=False, allow_infinity=False) | TEXT)
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(TEXT, inner, max_size=2), max_leaves=4)


@contextmanager
def chunked(size: int):
    """``jsonfiles`` reading ``size`` bytes at a time, with the number of
    times it fell back to reading a whole file counted in the list
    yielded."""
    chunk, whole = jsonfiles.CHUNK, jsonfiles.read_text
    fallbacks = []

    def read_text(path):
        fallbacks.append(path)
        return whole(path)

    jsonfiles.CHUNK, jsonfiles.read_text = size, read_text
    try:
        yield fallbacks
    finally:
        jsonfiles.CHUNK, jsonfiles.read_text = chunk, whole


def outcome(read, path):
    """What ``read(path, convert)`` returns, or its error text."""
    try:
        return list(read(path, convert).items())
    except RadstyleError as exc:
        return f"{type(exc).__name__}: {exc}"


def read_whole(path, convert):
    """``read_study_map`` as it read every file before it read in chunks:
    the whole text at once, malformed JSON reported ahead of any other
    problem."""
    text = read_text(path)
    try:
        return study_map_from(object_members(text, path), path, convert)
    except RadstyleError:
        parse_json(text, path)
        raise


def render(value, space, ascii_only: bool) -> str:
    """``value`` as JSON text with ``space()`` around each token."""
    if isinstance(value, list):
        items = [space() + render(v, space, ascii_only) + space()
                 for v in value]
        return "[" + (",".join(items) or space()) + "]"
    if isinstance(value, dict):
        members = [f"{space()}{json.dumps(k, ensure_ascii=ascii_only)}"
                   f"{space()}:{space()}{render(v, space, ascii_only)}"
                   f"{space()}" for k, v in value.items()]
        return "{" + (",".join(members) or space()) + "}"
    return json.dumps(value, ensure_ascii=ascii_only)


@st.composite
def sidecars(draw) -> bytes:
    """A valid sidecar's bytes, in ASCII escapes or in raw UTF-8."""
    entries = draw(st.dictionaries(TEXT, VALUES, max_size=4))

    def space():
        return draw(SPACE)

    return (space() + render(entries, space, draw(st.booleans()))
            + space()).encode("utf-8")


@st.composite
def broken_sidecars(draw) -> bytes:
    """A sidecar's bytes cut short, or with one byte replaced or
    inserted, or something appended."""
    data = draw(sidecars())
    edit = draw(st.sampled_from(["truncate", "replace", "insert", "append"]))
    at = draw(st.integers(0, len(data) - 1))
    if edit == "truncate":
        return data[:at]
    byte = draw(st.sampled_from([b"{", b"}", b",", b":", b'"', b"1", b"x",
                                 b"\\", b"\xff", b"\xc3", b"\x80"]))
    if edit == "replace":
        return data[:at] + byte + data[at + 1:]
    if edit == "insert":
        return data[:at] + byte + data[at:]
    return data + draw(st.sampled_from([b"}", b"x", b"{}", b" 1", b","]))


def sizes(data: bytes) -> range:
    return range(1, max(len(data), 1) + 1)


@given(sidecars())
@settings(max_examples=150, deadline=None)
def test_a_sidecar_reads_alike_in_chunks_of_every_size(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sidecar.json"
        path.write_bytes(data)
        want = outcome(read_study_map_oracle, path)
        for size in sizes(data):
            with chunked(size) as fallbacks:
                assert outcome(read_study_map, path) == want, size
            assert fallbacks == [], size


@given(broken_sidecars())
@settings(max_examples=150, deadline=None)
def test_a_broken_sidecar_fails_in_chunks_as_it_does_whole(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sidecar.json"
        path.write_bytes(data)
        want = outcome(read_whole, path)
        for size in sizes(data):
            with chunked(size):
                assert outcome(read_study_map, path) == want, size


@pytest.mark.parametrize("text", [
    '{"a": ' + DEEP + "}", '{"a": ' + LONG_INT + "}",
    '{"a": 1, "b": ' + DEEP + ', "c": 2}'])
def test_a_sidecar_too_deep_or_too_long_fails_as_it_does_whole(tmp_path,
                                                              text):
    path = tmp_path / "sidecar.json"
    path.write_text(text, encoding="utf-8")
    want = outcome(read_whole, path)
    assert want.startswith("SchemaError: ")
    for size in (1, 7, 4096, len(text)):
        with chunked(size):
            assert outcome(read_study_map, path) == want


DOCUMENTS = st.dictionaries(
    st.sampled_from(["study_id", "report", "x"]),
    st.text(alphabet="a é  \x85€😀", max_size=4) | SCALARS,
    max_size=3)


@given(docs=st.lists(DOCUMENTS | st.just(None), max_size=5),
       ends=st.lists(st.sampled_from(["\n", "\r\n", "\n\n", " \n"]),
                     min_size=5, max_size=5),
       last_end=st.booleans())
@settings(max_examples=100, deadline=None)
def test_json_lines_read_alike_in_chunks_of_every_size(docs, ends, last_end):
    # None stands for a blank line; a raw U+2028 stays inside its string
    lines = ["" if doc is None else json.dumps(doc, ensure_ascii=False)
             for doc in docs]
    text = "".join(line + end for line, end in zip(lines, ends))
    if not last_end:
        text = text.rstrip("\r\n ")
    want = [(lineno, json.loads(line)) for lineno, line
            in enumerate(text.split("\n"), start=1) if line.strip()]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        path.write_bytes(text.encode("utf-8"))
        for size in sizes(text.encode("utf-8")):
            with chunked(size) as fallbacks:
                assert list(read_jsonl(path)) == want, size
            assert fallbacks == [], size


def read_jsonl_whole(path):
    """``read_jsonl`` as it read every file before it read in lines: the
    whole text at once, read in text mode, so that a lone carriage return
    ends a line too."""
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if line.strip():
            yield lineno, parse_json(line, f"{path}: line {lineno}")


@pytest.mark.parametrize("data", [
    b'{"a": 1}\n{"b": 2,\r"c": 3}\n{"d": 4}\n',   # a lone CR ends a line
    b'{"a": 1}\r{"b": 2}\n',
    b'{"a": 1}\n{"b": 2}\r',
    b'{"a": 1}\n{"b": "\xff"}\n',                  # undecodable, reported first
    b'{"a": 1}\n{"b": 2\n{"c": 3}\n',               # malformed on line 2
    b'{"a": 1}\n{"b": "\xc3',                      # a character cut short
])
def test_a_json_lines_file_reads_in_lines_as_it_does_whole(tmp_path, data):
    path = tmp_path / "records.jsonl"
    path.write_bytes(data)

    def documents(read):
        out = []
        try:
            out.extend(read(path))
        except RadstyleError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
        return out

    want = documents(read_jsonl_whole)
    for size in sizes(data):
        with chunked(size):
            assert documents(read_jsonl) == want, size


@pytest.mark.parametrize("read, data, want", [
    (read_jsonl, b'{"a": 1}\n\n{"b": 2}\n', [(1, {"a": 1}), (3, {"b": 2})]),
    (lambda path: read_study_map(path, convert).items(), b'{"a": [1]}',
     [("a", [1])]),
])
def test_a_pipe_is_read_once_whole(read, data, want):
    # a pipe cannot be read again, so nothing is read from it before the
    # whole read
    fd, write = os.pipe()
    try:
        os.write(write, data)
        os.close(write)
        assert list(read(f"/dev/fd/{fd}")) == want
    finally:
        os.close(fd)
