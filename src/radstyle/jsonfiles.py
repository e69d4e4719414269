"""Reading input files.

Every input file is read here, the YAML run config too: a file that
cannot be read or decoded raises ``IoError``, and text that is not JSON,
is nested too deeply to decode or holds an integer too long to convert
raises ``SchemaError``. Every sidecar, a JSON object keyed by study id,
is read by ``study_map_from``, for every command alike: decoded and
checked one entry at a time, with a study id given twice refused, and
keyed by interned study ids.
"""

from __future__ import annotations

import json
import re
import sys
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

    The entries are decoded one at a time, and each decoded entry is
    dropped once converted, so the whole decoded document is never held.
    On the first problem of any kind the whole text is decoded as
    ``parse_json`` does, so that malformed JSON anywhere in the file is
    reported as such, ahead of the problem itself.
    """
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


def object_members(text: str, path) -> Iterator[tuple[str, Any]]:
    """``(key, decoded value)`` of each member of the JSON object
    ``text``, each value decoded when it is reached. Text that is not one
    JSON object raises ``SchemaError``."""
    pos = _SPACE.match(text).end()
    if not text.startswith("{", pos):
        raise SchemaError(f"{path}: expected a JSON object keyed by study id")
    try:
        pos = _SPACE.match(text, pos + 1).end()
        closed = text.startswith("}", pos)
        while not closed:
            if not text.startswith('"', pos):
                raise ValueError(f"no member name at char {pos}")
            key, pos = _DECODER.raw_decode(text, pos)
            pos = _SPACE.match(text, pos).end()
            if not text.startswith(":", pos):
                raise ValueError(f"no ':' at char {pos}")
            value, pos = _DECODER.raw_decode(
                text, _SPACE.match(text, pos + 1).end())
            yield key, value
            pos = _SPACE.match(text, pos).end()
            closed = text.startswith("}", pos)
            if not closed:
                if not text.startswith(",", pos):
                    raise ValueError(f"no ',' at char {pos}")
                pos = _SPACE.match(text, pos + 1).end()
        if _SPACE.match(text, pos + 1).end() != len(text):
            raise ValueError(f"extra data at char {pos + 1}")
    except (ValueError, RecursionError) as exc:   # JSONDecodeError too
        raise SchemaError(f"{path}: malformed JSON: {exc}") from exc


def read_jsonl(path) -> Iterator[tuple[int, Any]]:
    """``(lineno, document)`` for each non-blank line, numbered from 1.

    A line ends at a line feed alone: a JSON string may hold a raw
    U+0085, U+2028 or U+2029, and a carriage return is JSON white space.
    The whole file is read before the first document is yielded.
    """
    lines = read_text(path).split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        yield lineno, parse_json(line, f"{path}: line {lineno}")
