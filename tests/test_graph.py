import json
import logging
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstyle.errors import SchemaError
from radstyle.graph import (KINDS, LABELS, RadGraph, Relation,
                            radgraph_from_document, weakly_connected_components)

from graphgen import edges_of, random_document
from oracles import (derive_sections_oracle, graph_log,
                     radgraph_from_document_oracle, wcc_oracle)


def entity_doc(eid, tokens, label, start, end=None, relations=()):
    return {"tokens": tokens, "label": label, "start_ix": start,
            "end_ix": start if end is None else end,
            "relations": [list(r) for r in relations]}


TWO_ENTITY_DOC = {
    "1": entity_doc("1", "lungs", "ANAT-DP", 5),
    "2": entity_doc("2", "clear", "OBS-DP", 7,
                    relations=[("located_at", "1")]),
}


def test_parse_two_entity_fixture():
    g = radgraph_from_document(json.loads(json.dumps(TWO_ENTITY_DOC)))
    assert len(g.entities) == 2
    assert len(g.relations) == 1
    rel = g.relations[0]
    assert (rel.source, rel.target, rel.kind) == ("2", "1", "located_at")
    assert g.entities["1"].tokens == "lungs"
    assert g.entities["1"].label == "ANAT-DP"


def test_graphs_share_one_string_per_label_and_kind():
    """Each label and kind a graph keeps is one string per vocabulary word,
    not the decoded document's own copy, which it would keep alive."""
    graphs = [radgraph_from_document(json.loads(json.dumps(TWO_ENTITY_DOC)))
              for _ in range(2)]
    for a, b in zip(graphs[0].entities.values(), graphs[1].entities.values()):
        assert a.label is b.label
    assert graphs[0].relations[0].kind is graphs[1].relations[0].kind


def test_parse_empty_entity_map():
    g = radgraph_from_document(json.loads("{}"))
    assert g.entities == {}
    assert g.relations == ()


def test_malformed_json_is_parse_error():
    with pytest.raises(SchemaError):
        radgraph_from_document(json.loads("[1, 2]"))


def test_unknown_label_names_value():
    doc = {"1": entity_doc("1", "edema", "OBS-XX", 0)}
    with pytest.raises(SchemaError, match="OBS-XX"):
        radgraph_from_document(doc)


def test_unknown_relation_kind_names_value():
    doc = {
        "1": entity_doc("1", "lungs", "ANAT-DP", 0),
        "2": entity_doc("2", "clear", "OBS-DP", 1,
                        relations=[("points_to", "1")]),
    }
    with pytest.raises(SchemaError, match="points_to"):
        radgraph_from_document(doc)


def test_dangling_relation_target():
    doc = {"1": entity_doc("1", "lungs", "ANAT-DP", 0,
                           relations=[("modify", "99")])}
    with pytest.raises(SchemaError, match="dangling relation target 99"):
        radgraph_from_document(doc)


def test_self_relation_rejected():
    doc = {"1": entity_doc("1", "lungs", "ANAT-DP", 0,
                           relations=[("modify", "1")])}
    with pytest.raises(SchemaError, match="self-relation"):
        radgraph_from_document(doc)


@pytest.mark.parametrize("field,value,message", [
    ("tokens", "", "missing or empty tokens"),
    ("tokens", "   ", "missing or empty tokens"),
    ("tokens", 7, "missing or empty tokens"),
    ("start_ix", -1, "negative start_ix"),
    ("start_ix", 1.5, "must be an integer"),
    ("start_ix", True, "must be an integer"),
])
def test_bad_entity_fields(field, value, message):
    doc = {"1": entity_doc("1", "lungs", "ANAT-DP", 0)}
    doc["1"][field] = value
    with pytest.raises(SchemaError, match=message):
        radgraph_from_document(doc)


def test_inverted_span_rejected():
    doc = {"1": entity_doc("1", "lungs", "ANAT-DP", 4, end=2)}
    with pytest.raises(SchemaError, match="start_ix 4 > end_ix 2"):
        radgraph_from_document(doc)


def test_missing_label():
    doc = {"1": {"tokens": "lungs", "start_ix": 0, "end_ix": 0,
                 "relations": []}}
    with pytest.raises(SchemaError, match="missing label"):
        radgraph_from_document(doc)


def test_duplicate_relations_collapse_with_warning(caplog):
    doc = {
        "1": entity_doc("1", "lungs", "ANAT-DP", 0),
        "2": entity_doc("2", "clear", "OBS-DP", 1,
                        relations=[("located_at", "1"),
                                   ("located_at", "1")]),
    }
    with caplog.at_level(logging.WARNING):
        g = radgraph_from_document(doc)
    assert len(g.relations) == 1
    assert "duplicate relation" in caplog.text


def test_duplicate_relation_warning_is_one_line(caplog):
    # An entity id holding a line break is logged escaped, so the warning
    # stays on one line of stderr.
    doc = {
        "a\nb": entity_doc("a\nb", "clear", "OBS-DP", 1,
                            relations=[("modify", "c"), ("modify", "c")]),
        "c": entity_doc("c", "lungs", "ANAT-DP", 0),
    }
    with caplog.at_level(logging.WARNING, logger="radstyle.graph"):
        radgraph_from_document(doc)
    assert caplog.text.count("duplicate relation") == 1
    assert len(caplog.text.splitlines()) == 1
    assert "('a\\nb', 'c', 'modify')" in caplog.text


def test_text_field_must_be_string():
    with pytest.raises(SchemaError, match="text"):
        radgraph_from_document({"text": 42})


def test_section_derivation_from_headers():
    doc = {"text": "FINDINGS : lungs clear . IMPRESSION : no disease"}
    g = radgraph_from_document(doc)
    assert g.sections.findings_range == (0, 4)
    assert g.sections.impression_range == (5, 8)


def test_section_derivation_case_insensitive_with_colon():
    g = radgraph_from_document({"text": "Findings: clear . Impression: ok"})
    assert g.sections.findings_range is not None
    assert g.sections.impression_range is not None


def test_no_headers_leaves_sections_unset():
    g = radgraph_from_document({"text": "the lungs are clear"})
    assert g.sections.findings_range is None
    assert g.sections.impression_range is None
    assert not g.sections.defines_any()


def test_readme_vocabulary_is_the_library_vocabulary():
    """The labels of the README's "Graph document" paragraph and the
    relation kinds of its "Report graphs" bullet are those ingestion
    accepts."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    labels = re.search(r"\*\*Graph document\*\*.*?\nLabels: (.*?)\.\n",
                       readme, re.S).group(1)
    kinds = re.search(r"- \*\*Report graphs\*\*(.*?)\n- ", readme,
                      re.S).group(1)
    assert set(re.findall(r"`([A-Z]+-[A-Z]+)`", labels)) == LABELS
    assert set(re.findall(r"`([a-z_]+)`", kinds)) == KINDS


# header words with their case, trailing colons and casefolding
# characters varied: "ﬁ" folds to "fi", "ſ" to "s", "ß" to "ss", and "İ"
# to "i" plus a combining dot, so it never makes a header
_FOLDS = {"fi": ("fi", "FI", "fI", "ﬁ"), "s": ("s", "S", "ſ"),
          "i": ("i", "I", "i", "I", "İ")}


@st.composite
def _section_token(draw):
    word = draw(st.sampled_from(("findings", "impression") * 3
                                + ("finding", "impressions", "fiss")))
    out, ix = [], 0
    while ix < len(word):
        for part in ("fi", "s", "i"):
            if word.startswith(part, ix):
                out.append(draw(st.sampled_from(_FOLDS[part])))
                ix += len(part)
                break
        else:
            out.append(draw(st.sampled_from((word[ix], word[ix].upper()))))
            ix += 1
    if draw(st.integers(0, 3)) == 0:
        out.append("ß")
    return "".join(out) + ":" * draw(st.integers(0, 3))


_SECTION_TEXT = st.lists(
    st.tuples(st.one_of(_section_token(),
                        st.text(alphabet="aFß:İﬁſ.", min_size=1, max_size=4)),
              st.sampled_from((" ", "  ", "\t", "\n", "\xa0", "\u2003"))),
    max_size=12).map(lambda parts: "".join(t + sep for t, sep in parts))


@given(_SECTION_TEXT)
@settings(max_examples=300, deadline=None)
def test_section_derivation_matches_the_per_token_reference(text):
    """One casefold of the whole text finds the headers that casefolding
    each colon-stripped token finds."""
    got = radgraph_from_document({"text": text}).sections
    assert got == derive_sections_oracle(text)


def test_wcc_single_entity():
    doc = {"1": entity_doc("1", "lungs", "ANAT-DP", 0)}
    assert weakly_connected_components(radgraph_from_document(doc)) == [{"1"}]


def test_wcc_ordering_by_start_ix():
    doc = {
        "a": entity_doc("a", "late", "OBS-DP", 9),
        "b": entity_doc("b", "early", "ANAT-DP", 1,
                        relations=[("modify", "a")]),
        "c": entity_doc("c", "middle", "OBS-DA", 5),
    }
    comps = weakly_connected_components(radgraph_from_document(doc))
    assert comps == [{"a", "b"}, {"c"}]


def test_wcc_direction_and_kind_invariance():
    rng = random.Random(7)
    for _ in range(30):
        doc = random_document(rng)
        g = radgraph_from_document(doc)
        flipped = RadGraph(
            entities=g.entities,
            relations=tuple(Relation(r.target, r.source, "modify")
                            for r in g.relations),
            sections=g.sections)
        assert (weakly_connected_components(g)
                == weakly_connected_components(flipped))


def test_wcc_is_partition_and_matches_union_find():
    rng = random.Random(99)
    for _ in range(200):
        doc = random_document(rng)
        g = radgraph_from_document(doc)
        comps = weakly_connected_components(g)
        flat = [eid for comp in comps for eid in comp]
        assert sorted(flat) == sorted(g.entities)
        assert len(flat) == len(set(flat))
        expected = set(wcc_oracle(list(g.entities), edges_of(doc)))
        assert {frozenset(c) for c in comps} == expected


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_wcc_oracle_property(seed):
    doc = random_document(random.Random(seed))
    g = radgraph_from_document(doc)
    comps = weakly_connected_components(g)
    assert {frozenset(c) for c in comps} == set(
        wcc_oracle(list(g.entities), edges_of(doc)))


def test_entity_ids_are_opaque_strings():
    # Numeric-looking ids must not be reordered arithmetically.
    doc = {
        "10": entity_doc("10", "b", "OBS-DP", 0),
        "9": entity_doc("9", "a", "ANAT-DP", 3),
    }
    comps = weakly_connected_components(radgraph_from_document(doc))
    assert comps == [{"10"}, {"9"}]


# values of the wrong type for any field of a graph document
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                  st.floats(allow_nan=False), st.text(max_size=3),
                  st.lists(st.integers(0, 2), max_size=3),
                  st.dictionaries(st.text(max_size=2), st.integers(0, 2),
                                  max_size=2))
_MUTATIONS = ("wrong_type", "true_index", "bad_index", "unknown_label",
              "unknown_kind", "dangling", "self_relation", "bad_pair",
              "blank", "text")


@st.composite
def mutated_documents(draw):
    """A valid graph document, perhaps with a duplicate edge, with up to
    three faults put into it."""
    doc = random_document(random.Random(draw(st.integers(0, 2 ** 32 - 1))),
                          max_entities=5, max_relations=6)
    ids = [key for key in doc if key != "text"]
    if len(ids) > 1 and draw(st.booleans()):   # a duplicate edge is no fault
        source, target = draw(st.permutations(ids))[:2]
        pair = [draw(st.sampled_from(("modify", "located_at"))), target]
        doc[source]["relations"].extend([pair, list(pair)])
    for _ in range(draw(st.integers(0, 3))):
        mutation = draw(st.sampled_from(_MUTATIONS))
        if mutation == "text":
            doc["text"] = draw(_JUNK)
            continue
        if not ids:
            continue
        eid = draw(st.sampled_from(ids))
        entry, rels = doc[eid], doc[eid]["relations"]
        if mutation == "wrong_type":
            entry[draw(st.sampled_from(("tokens", "label", "start_ix",
                                        "end_ix", "relations")))] = draw(_JUNK)
        elif mutation == "true_index":
            entry[draw(st.sampled_from(("start_ix", "end_ix")))] = draw(
                st.booleans())
        elif mutation == "bad_index":
            entry["start_ix"] = draw(st.integers(-2, 12))
        elif mutation == "unknown_label":
            entry["label"] = draw(st.sampled_from(("OBS-XX", "anat-dp", "")))
        elif mutation == "blank":
            entry["tokens"] = draw(st.sampled_from(("", "  ", "\t")))
        elif not isinstance(rels, list):
            continue
        elif mutation == "unknown_kind":
            rels.append([draw(st.sampled_from(("MODIFY", "near", 1))),
                         draw(st.sampled_from(ids))])
        elif mutation == "dangling":
            rels.append(["modify", draw(st.sampled_from(("99", 7, None)))])
        elif mutation == "self_relation":
            rels.append(["located_at", eid])
        elif mutation == "bad_pair":
            rels.append(draw(st.sampled_from((["modify"], "modify", None,
                                              ["modify", "1", "2"]))))
    return doc


def _ingest(convert, doc, logger):
    """``convert(doc)``, or the type and message of what it raised, with
    the messages it logged."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger.addHandler(handler)
    try:
        return convert(doc), messages
    except Exception as exc:
        return (type(exc), str(exc)), messages
    finally:
        logger.removeHandler(handler)


@given(mutated_documents())
@settings(max_examples=200, deadline=None)
def test_ingestion_matches_the_reference_on_mutated_documents(doc):
    """Each document gives an equal graph, or the same error type and
    message, and logs the same duplicate relations as the reference."""
    got = _ingest(radgraph_from_document, doc,
                  logging.getLogger("radstyle.graph"))
    want = _ingest(radgraph_from_document_oracle, doc, graph_log)
    assert got == want
