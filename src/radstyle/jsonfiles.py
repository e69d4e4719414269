"""Reading input files.

Every input file is read here, the YAML run config too: a file that
cannot be read or decoded raises ``IoError``, and text that is not JSON,
is nested too deeply to decode or holds an integer too long to convert
raises ``SchemaError``. Every sidecar, a JSON object keyed by study id,
is read by ``study_map_from``, for every command alike: decoded and
checked one entry at a time, with a study id given twice refused, and
keyed by interned study ids. A sidecar or JSON-lines file is read a chunk
or a line at a time, never whole, until a problem is found; then it is
read again whole, so that every error reads as the whole text gives it.
"""

from __future__ import annotations

import codecs
import json
import re
import sys
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import IoError, RadstyleError, SchemaError


def read_text(path) -> str:
    """The UTF-8 text of ``path``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    # a ValueError: undecodable bytes, or a path holding a NUL or a
    # character the file system cannot encode
    except (OSError, ValueError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def require_utf8(path, texts: Iterable[str]) -> None:
    """Refuse ``texts``, which come from ``path``, if one holds a lone
    surrogate, as a JSON escape such as ``\\ud800`` or an undecodable byte
    in a path gives: UTF-8 cannot encode it, so it cannot be printed."""
    for text in texts:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError(f"{path}: holds a lone surrogate, which UTF-8 "
                              f"cannot encode") from None


def parse_json(text: str, where) -> Any:
    """The JSON document ``text``; an error names ``where`` first."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}: malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{where}: JSON nested too deeply") from exc
    except ValueError as exc:   # an integer longer than int() converts
        raise SchemaError(f"{where}: value out of range: {exc}") from exc


def read_json(path) -> Any:
    """The JSON document in ``path``."""
    return parse_json(read_text(path), path)


def read_study_map(path, convert: Callable[[str, Any], Any]
                   ) -> dict[str, Any]:
    """The JSON object keyed by study id in ``path``, as
    ``study_map_from`` builds it from the object's members.

    The file is read ``CHUNK`` bytes at a time and its entries are
    decoded one at a time, each dropped once converted, so neither the
    whole text nor the whole decoded document is ever held. On the first
    problem of any kind the file is read again whole and decoded as
    ``parse_json`` does, so that each error reads as it would from the
    whole text, and malformed JSON anywhere in the file is reported as
    such, ahead of the problem itself.
    """
    try:
        with _open_to_reread(path) as file:
            return study_map_from(object_members("", path, _texts(file)),
                                  path, convert)
    # a ValueError: undecodable bytes, or a path open() refuses
    except (OSError, ValueError, RadstyleError):
        pass
    text = read_text(path)
    try:
        return study_map_from(object_members(text, path), path, convert)
    except RadstyleError:
        parse_json(text, path)
        raise


def study_map_from(members: Iterable[tuple[str, Any]], path,
                   convert: Callable[[str, Any], Any]) -> dict[str, Any]:
    """Each ``(study id, entry)`` of ``members``, read from ``path``, with
    the entry passed through ``convert(study_id, entry)``. A study id
    given twice raises ``SchemaError("<path>: duplicate study id
    '<id>'")``, and an entry that ``convert`` rejects with any error of
    this package raises ``SchemaError("<path>: study <id>: <reason>")``.
    Each study id is kept interned, so a sidecar shares the dataset's id
    objects.
    """
    out: dict[str, Any] = {}
    for study_id, entry in members:
        if study_id in out:
            raise SchemaError(f"{path}: duplicate study id {study_id!r}")
        study_id = sys.intern(study_id)
        try:
            out[study_id] = convert(study_id, entry)
        except RadstyleError as exc:
            raise SchemaError(f"{path}: study {study_id}: {exc}") from exc
    return out


# JSON whitespace, as ``json.loads`` skips it
_SPACE = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()
CHUNK = 1 << 16   # bytes of a file read at a time


def _open_to_reread(path):
    """``path`` opened to read bytes in a pass that a whole read may
    repeat. A file that cannot be read twice, such as a pipe, raises
    ``OSError`` before anything is read from it, so it is read whole."""
    file = open(path, "rb")
    if not file.seekable():
        file.close()
        raise OSError(f"{path} cannot be read twice")
    return file


def _texts(file) -> Iterator[str]:
    """The UTF-8 text of the binary ``file``, ``CHUNK`` bytes at a time;
    undecodable bytes raise ``UnicodeDecodeError``."""
    return codecs.iterdecode(iter(partial(file.read, CHUNK), b""), "utf-8")


def object_members(text: str, path, more: Iterable[str] = ()
                   ) -> Iterator[tuple[str, Any]]:
    """``(key, decoded value)`` of each member of the JSON object
    ``text``, each value decoded when it is reached. Text that is not one
    JSON object raises ``SchemaError``.

    ``more`` gives the rest of the text, if ``text`` is only its start. A
    step of the parse (the opening, a member with the mark after it, the
    end) is taken only once it has read past its own end, or the text has
    ended: a step that fails, or that ends where the text held does, is
    tried again with more text, at least as much again as is held. So a
    number or literal cut at a chunk's end (``12|3``, ``tr|ue``) is not
    taken, and the text of the members taken is dropped. A position in an
    error counts from the first character held.
    """
    more = iter(more)
    pos = 0   # just past the last '{', ',' or '}' taken
    ended = False

    def settled(step):
        """``step()``, as the text held allows: see above."""
        nonlocal text, pos, ended
        while True:
            try:
                out = step()
                if ended or out[0] < len(text):
                    return out
            except (ValueError, RecursionError):   # JSONDecodeError too
                if ended:
                    raise
            parts, size = [], 0
            for part in more:
                parts.append(part)
                if (size := size + len(part)) >= len(text) - pos:
                    break
            else:
                ended = True
            if parts:
                text, pos = text[pos:] + "".join(parts), 0

    def opening() -> tuple[int, bool]:
        at = _SPACE.match(text, pos).end()
        if not text.startswith("{", at):
            raise ValueError("no '{'")
        at = _SPACE.match(text, at + 1).end()
        return (at + 1, True) if text.startswith("}", at) else (at, False)

    def member() -> tuple[int, str, Any, bool]:
        at = _SPACE.match(text, pos).end()
        if not text.startswith('"', at):
            raise ValueError(f"no member name at char {at}")
        key, at = _DECODER.raw_decode(text, at)
        at = _SPACE.match(text, at).end()
        if not text.startswith(":", at):
            raise ValueError(f"no ':' at char {at}")
        value, at = _DECODER.raw_decode(text, _SPACE.match(text, at + 1).end())
        at = _SPACE.match(text, at).end()
        closed = text.startswith("}", at)
        if not closed and not text.startswith(",", at):
            raise ValueError(f"no ',' at char {at}")
        return at + 1, key, value, closed

    def end() -> tuple[int]:
        if _SPACE.match(text, pos).end() != len(text):
            raise ValueError(f"extra data at char {pos}")
        return (len(text),)

    try:
        pos, closed = settled(opening)
    except ValueError:
        raise SchemaError(f"{path}: expected a JSON object keyed by study "
                          f"id") from None
    try:
        while not closed:
            pos, key, value, closed = settled(member)
            yield key, value
        settled(end)
    except (ValueError, RecursionError) as exc:   # JSONDecodeError too
        raise SchemaError(f"{path}: malformed JSON: {exc}") from exc


def read_jsonl(path) -> Iterator[tuple[int, Any]]:
    """``(lineno, document)`` for each non-blank line, numbered from 1.

    A line ends at a line feed alone: a JSON string may hold a raw
    U+0085, U+2028 or U+2029, and a carriage return is JSON white space.
    The file is checked to be UTF-8 ``CHUNK`` bytes at a time, then read
    and decoded a line at a time, so its whole text is never held. On the
    first problem of any kind the file is read again whole, and the
    documents not yet yielded are yielded from its text, so that each
    error reads as it would from the whole text.
    """
    done = 0   # documents yielded
    try:
        with _open_to_reread(path) as file:
            for _ in _texts(file):
                pass
            file.seek(0)
            for document in _documents(path, map(_line, file)):
                yield document
                done += 1
        return
    # a ValueError: undecodable bytes, a path open() refuses, or a
    # carriage return that a text file reads as a line end
    except (OSError, ValueError, RadstyleError):
        pass
    yield from islice(_documents(path, read_text(path).split("\n")), done,
                      None)


def _line(line: bytes) -> str:
    if line.count(b"\r") > line.endswith(b"\r\n"):
        raise ValueError("a carriage return before the end of a line")
    return line.decode("utf-8")


def _documents(path, lines: Iterable[str]) -> Iterator[tuple[int, Any]]:
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            yield lineno, parse_json(line, f"{path}: line {lineno}")
