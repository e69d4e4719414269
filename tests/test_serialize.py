import random

from hypothesis import given, settings
from hypothesis import strategies as st

from radstyle.graph import (radgraph_from_document,
                            weakly_connected_components)
from radstyle.serialize import (section_of_component, serialize,
                                serialize_component)

from graphgen import random_document
from test_graph import entity_doc

_KEYWORD = {"OBS-DA": "no", "OBS-U": "maybe"}


SECTIONED_DOC = {
    "text": ("FINDINGS : lungs are clear . no edema . "
             "IMPRESSION : no acute disease"),
    "1": entity_doc("1", "lungs", "ANAT-DP", 2),
    "2": entity_doc("2", "clear", "OBS-DP", 4,
                    relations=[("located_at", "1")]),
    "3": entity_doc("3", "edema", "OBS-DA", 7),
    "4": entity_doc("4", "acute disease", "OBS-DA", 12, end=13),
}


def test_sectioned_rendering():
    g = radgraph_from_document(SECTIONED_DOC)
    s = serialize(g)
    assert s.rendered == ("findings: lungs clear. no edema. "
                          "impression: no acute disease")


def test_absent_gets_no_and_uncertain_gets_maybe():
    doc = {
        "1": entity_doc("1", "effusion", "OBS-DA", 0),
        "2": entity_doc("2", "nodule", "OBS-U", 3),
    }
    g = radgraph_from_document(doc)
    s = serialize(g)
    assert s.rendered == "no effusion. maybe nodule"
    assert all(span.section == "unified" for span in s.spans())


def test_entities_ordered_by_position_then_tokens():
    doc = {
        "1": entity_doc("1", "zeta", "OBS-DP", 4,
                        relations=[("modify", "2"), ("modify", "3")]),
        "2": entity_doc("2", "beta", "OBS-DP", 2),
        "3": entity_doc("3", "alpha", "OBS-DP", 2),
    }
    g = radgraph_from_document(doc)
    span = serialize_component({"1", "2", "3"}, g)
    assert span.text == "alpha beta zeta"
    assert span.min_start_ix == 2


def test_component_keeps_single_space_joins():
    doc = {
        "1": entity_doc("1", "left lower lobe", "ANAT-DP", 0, end=2),
        "2": entity_doc("2", "opacity", "OBS-U", 3,
                        relations=[("located_at", "1")]),
    }
    g = radgraph_from_document(doc)
    assert serialize_component({"1", "2"}, g).text == (
        "left lower lobe maybe opacity")


def test_majority_vote_sends_component_to_impression():
    doc = {
        "text": "FINDINGS : a . IMPRESSION : b c d",
        "1": entity_doc("1", "one", "OBS-DP", 2,
                        relations=[("modify", "2")]),
        "2": entity_doc("2", "two", "OBS-DP", 6,
                        relations=[("modify", "3")]),
        "3": entity_doc("3", "three", "OBS-DP", 7),
    }
    g = radgraph_from_document(doc)
    assert section_of_component({"1", "2", "3"}, g) == "impression"


def test_tie_goes_to_findings():
    doc = {
        "text": "FINDINGS : a b IMPRESSION : c d",
        "1": entity_doc("1", "one", "OBS-DP", 2,
                        relations=[("modify", "2")]),
        "2": entity_doc("2", "two", "OBS-DP", 6),
    }
    g = radgraph_from_document(doc)
    assert section_of_component({"1", "2"}, g) == "findings"


def test_out_of_range_counts_as_findings():
    doc = {
        "text": "FINDINGS : a IMPRESSION : b",
        "1": entity_doc("1", "stray", "OBS-DP", 40),
    }
    g = radgraph_from_document(doc)
    assert section_of_component({"1"}, g) == "findings"


def test_unsectioned_graph_renders_unified():
    doc = {
        "1": entity_doc("1", "lungs", "ANAT-DP", 0),
        "2": entity_doc("2", "clear", "OBS-DP", 1,
                        relations=[("located_at", "1")]),
        "3": entity_doc("3", "edema", "OBS-DA", 5),
    }
    s = serialize(radgraph_from_document(doc))
    assert s.rendered == "lungs clear. no edema"
    assert "findings:" not in s.rendered


def test_empty_graph_renders_empty():
    s = serialize(radgraph_from_document({}))
    assert s.rendered == ""
    assert s.spans() == ()


def expected_component_text(doc, ids):
    entries = sorted(
        ((doc[eid]["start_ix"], doc[eid]["end_ix"], doc[eid]["tokens"],
          doc[eid]["label"]) for eid in ids))
    parts = []
    for _, _, tokens, label in entries:
        keyword = _KEYWORD.get(label)
        parts.append(f"{keyword} {tokens}" if keyword else tokens)
    return " ".join(parts)


def check_serialization_properties(doc):
    g = radgraph_from_document(doc)
    comps = weakly_connected_components(g)
    s = serialize(g)
    spans = s.spans()
    assert len(spans) == len(comps)
    # Each span is exactly the position-sorted, keyword-prefixed rendering
    # of one component; spans() groups by section, so compare multisets.
    expected = [expected_component_text(doc, comp) for comp in comps]
    assert sorted(span.text for span in spans) == sorted(expected)
    for section_spans in (s.findings, s.impression, s.unified):
        starts = [span.min_start_ix for span in section_spans]
        assert starts == sorted(starts)
    assert serialize(g).rendered == s.rendered


def test_serialization_properties_random():
    rng = random.Random(424242)
    for _ in range(150):
        check_serialization_properties(random_document(rng))


def test_serialization_key_order_independence():
    rng = random.Random(11)
    for _ in range(30):
        doc = random_document(rng)
        keys = [k for k in doc if k != "text"]
        rng.shuffle(keys)
        shuffled = {k: doc[k] for k in keys}
        if "text" in doc:
            shuffled["text"] = doc["text"]
        a = serialize(radgraph_from_document(doc))
        b = serialize(radgraph_from_document(shuffled))
        assert a.rendered == b.rendered


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_serialization_properties_hypothesis(seed):
    check_serialization_properties(random_document(random.Random(seed)))
