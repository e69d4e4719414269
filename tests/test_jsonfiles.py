"""The sidecar reader, which decodes a file one study at a time, against
the whole-document reader it replaced."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstyle.errors import SchemaError
from radstyle.jsonfiles import read_jsonl, read_study_map

from oracles import read_study_map_oracle

# nested far past the decoder's limit, which moves with the caller's stack
DEEP = "[" * 10_000 + "]" * 10_000
LONG_INT = "9" * 5_000   # more digits than int() converts
SPACE = st.text(alphabet=" \t\n\r", max_size=3)
# a study id repeats now and then among these
STUDY_IDS = st.text(alphabet="abé\"\\", max_size=2)
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
# one character of JSON's own, or one that other grammars take for white
# space, in place of one of the top-level object's own
MARKS = '{}[]:,"x\ufeff\x0b\x0c\xa0\u2028\x1c'
PUNCTUATION = st.sampled_from(MARKS)
# one replaced or inserted character anywhere: those, or any other
CHARACTERS = PUNCTUATION | st.characters()


def convert(_, entry):
    """Each entry as it is, but an object with a "reject" key."""
    if isinstance(entry, dict) and "reject" in entry:
        raise SchemaError("rejected")
    return entry


def render(value, space) -> str:
    """``value`` as JSON text with ``space()`` around each token."""
    if isinstance(value, list):
        items = [space() + render(v, space) + space() for v in value]
        return "[" + (",".join(items) or space()) + "]"
    if isinstance(value, dict):
        members = [f"{space()}{json.dumps(k)}{space()}:{space()}"
                   f"{render(v, space)}{space()}" for k, v in value.items()]
        return "{" + (",".join(members) or space()) + "}"
    return json.dumps(value)


class Members(list):
    """The (key, value) pairs of a JSON object, in order, a key repeated
    as often as the text repeats it."""


def repeats_a_study_id(text: str) -> set[str]:
    """The study ids the top-level object of ``text`` names twice."""
    try:
        doc = json.JSONDecoder(object_pairs_hook=Members).decode(text)
    except (ValueError, RecursionError):
        return set()
    if not isinstance(doc, Members):
        return set()
    seen: set[str] = set()
    return {key for key, _ in doc if key in seen or seen.add(key)}


def outcome(read, path):
    """The (study id, entry) pairs ``read`` returns, or its error text."""
    try:
        return list(read(path, convert).items())
    except SchemaError as exc:
        return str(exc)


@st.composite
def sidecars(draw) -> str:
    """A sidecar's text: valid, or broken in one of the ways below."""
    members = draw(st.lists(
        st.tuples(STUDY_IDS, VALUES | st.just({"reject": 1})), max_size=5))
    mutation = draw(st.sampled_from(
        ["none", "truncate", "replace", "insert", "append", "structure",
         "bom", "top_level", "deep", "long_int", "reject_then_syntax"]))
    if mutation == "deep":
        members.insert(draw(st.integers(0, len(members))), ("deep", DEEP))
    if mutation == "long_int":
        members.insert(draw(st.integers(0, len(members))), ("long", LONG_INT))
    if mutation == "reject_then_syntax":
        members.insert(0, ("first", {"reject": 1}))

    def space():
        return draw(SPACE)

    # the top-level object token by token, so that one of its own marks
    # or white spaces can be replaced
    parts = [space(), "{"]
    for i, (key, value) in enumerate(members):
        parts += ([space(), ","] if i else []) + [
            space(), json.dumps(key), space(), ":", space(),
            DEEP if value == DEEP else LONG_INT if value == LONG_INT
            else render(value, space)]
    parts += [space(), "}", space()]
    if mutation == "structure":   # one of its marks, or its white space
        marks = [i for i, part in enumerate(parts) if part in "{:,}"]
        spaces = [i for i, part in enumerate(parts) if not part.strip()]
        parts[draw(st.sampled_from(draw(st.sampled_from([marks, spaces]))))
              ] = draw(PUNCTUATION)
    text = "".join(parts)
    if mutation == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    if mutation == "replace":
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + draw(CHARACTERS) + text[at + 1:]
    if mutation == "insert":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(CHARACTERS) + text[at:]
    if mutation == "append":
        text += draw(st.sampled_from(["}", "x", "{}", " 1", ",", "\0"]))
    if mutation == "bom":
        text = "\ufeff" + text
    if mutation == "top_level":
        text = render(draw(VALUES.filter(lambda v: not isinstance(v, dict))),
                      space)
    if mutation == "reject_then_syntax":
        text = text.rstrip(" \t\n\r")[:-1] + draw(st.sampled_from(
            ["", ",", "]", "}}", ', "x"']))
    return text


@given(sidecars())
@settings(max_examples=400, deadline=None)
def test_reading_one_entry_at_a_time_matches_the_whole_document_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sidecar.json"
        path.write_text(text, encoding="utf-8")
        got = outcome(read_study_map, path)
        want = outcome(read_study_map_oracle, path)
    repeated = repeats_a_study_id(text)
    if not repeated:
        assert got == want
        return
    # json.loads keeps a repeated id's last entry; the reader refuses the
    # id, unless an entry before its second use is refused first
    assert isinstance(got, str)
    assert any(got == f"{path}: duplicate study id {key!r}"
               for key in repeated) or got.startswith(f"{path}: study ")


# every kind of top-level member, with white space in every place it may go
SMALL = ' {"a" : 1 ,\t"b":[2, "]"] , "c" :\n{"d": null}, "e": "x"\r} '


def test_every_one_character_edit_reads_as_the_whole_document_reader(
        tmp_path):
    """Each character of ``SMALL`` deleted, replaced by, or preceded by each
    character of ``MARKS``."""
    path = tmp_path / "sidecar.json"
    texts = [SMALL[:at] + c + SMALL[at + 1:] for at in range(len(SMALL))
             for c in ["", *MARKS]]
    texts += [SMALL[:at] + c + SMALL[at:] for at in range(len(SMALL) + 1)
              for c in MARKS]
    for text in texts:
        path.write_text(text, encoding="utf-8")
        assert (outcome(read_study_map, path)
                == outcome(read_study_map_oracle, path)), text


@pytest.mark.parametrize("text, message", [
    ('{"a": 1, "b": 2, "a": 3}', "duplicate study id 'a'"),
    ('{"a": 1, "a": {"reject": 1}}', "duplicate study id 'a'"),
    ('{"a": {"reject": 1}, "a": 1}', "study a: rejected"),
    ('{"a": 1, "a": 2', "malformed JSON: Expecting ',' delimiter: line 1 "
                        "column 16 (char 15)"),
])
def test_a_study_id_given_twice_is_refused(tmp_path, text, message):
    path = tmp_path / "sidecar.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        read_study_map(path, convert)
    assert str(info.value) == f"{path}: {message}"


def test_json_lines_end_at_a_newline_alone(tmp_path):
    """A raw U+0085, U+2028 or U+2029 inside a string, as
    ``json.dumps(..., ensure_ascii=False)`` writes it, stays in its line,
    and a CRLF line end still ends one."""
    docs = [{"study_id": f"s{i}", "report": f"lungs{mark}clear"}
            for i, mark in enumerate("\x85\u2028\u2029")]
    lines = [json.dumps(doc, ensure_ascii=False) for doc in docs]
    path = tmp_path / "records.jsonl"
    path.write_bytes(f"{lines[0]}\r\n{lines[1]}\n\n{lines[2]}\n"
                     .encode("utf-8"))
    assert list(read_jsonl(path)) == [(1, docs[0]), (2, docs[1]),
                                      (4, docs[2])]
    path.write_bytes("\n".join(lines + ["{"]).encode("utf-8"))
    with pytest.raises(SchemaError) as info:
        list(read_jsonl(path))
    assert str(info.value).startswith(f"{path}: line 4: malformed JSON")
