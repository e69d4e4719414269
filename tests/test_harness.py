import dataclasses
import functools
import gc
import hashlib
import json
import math
import os
import random
import re
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import radstyle.client as client
import radstyle.harness as harness
from radstyle.client import (ClientConfig, EchoReportTransport, HttpTransport,
                             TransportResponse)
from radstyle.config import (BASE_METRICS, ExperimentConfig, HarnessConfig,
                             MetricsConfig, OutputConfig, load_config)
from radstyle.errors import ConfigError, InputError, IoError, SchemaError
from radstyle.graph import radgraph_from_document
from radstyle.harness import (Resources, ResultRow, ResultTable, RunOutcome,
                              Scorer, StudyRecord, aggregate_row,
                              build_resources, evaluate,
                              load_baseline, load_dataset,
                              load_graph_documents,
                              load_scores_jsonl, make_transport,
                              parse_table_csv, render_table, render_table_csv,
                              run_generation, score_fixed_outputs,
                              split_records, spool_row, write_outputs,
                              write_scores_jsonl)
from radstyle.metrics import (GraphKeys, MetricReport, UnitRows, bert_score,
                              bleu2, chexbert_similarity, graph_keys,
                              load_embeddings, load_pathology_vectors,
                              mean_ci, radcliq, radgraph_f1, tokenize,
                              unit_rows)
from radstyle.prompting import INSTRUCTION
from radstyle.serialize import serialize
from radstyle.style_study import (StyleEvalSet, assemble_style_eval_sets,
                                  render_style_eval_set, score_style_eval)
from radstyle.synthetic import make_synthetic_corpus

from graphgen import random_document
from test_graph import entity_doc
from test_metrics import SYMMETRIC_TRAP


def write_jsonl(path, docs):
    path.write_text("".join(json.dumps(d) + "\n" for d in docs),
                    encoding="utf-8")


GOOD_ROWS = [
    {"study_id": "a", "report": "lungs are clear .", "split": "train"},
    {"study_id": "b", "report": "no acute disease .", "split": "test",
     "serialization": "findings: clear", "radiologist_id": "r1",
     "pathology_vector": [0] * 14},
]


# ---------------------------------------------------------------- dataset


def test_load_dataset_happy_path(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, GOOD_ROWS)
    records = load_dataset(path)
    assert [r.study_id for r in records] == ["a", "b"]
    assert records[0].split == "train"
    assert records[0].serialization is None
    assert records[1].radiologist_id == "r1"
    assert records[1].pathology_vector == (0,) * 14


def test_load_dataset_null_split_reads_as_absent(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"study_id": "a", "report": "x", "split": None}])
    assert load_dataset(path)[0].split == "train"


def test_load_dataset_skips_blank_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(GOOD_ROWS[0]) + "\n\n  \n"
                    + json.dumps(GOOD_ROWS[1]) + "\n", encoding="utf-8")
    assert len(load_dataset(path)) == 2


def test_load_dataset_reports_line_numbers(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(GOOD_ROWS[0]) + "\n{broken\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="line 2"):
        load_dataset(path)


def test_load_dataset_duplicate_id_names_both_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [GOOD_ROWS[0], GOOD_ROWS[0]])
    with pytest.raises(SchemaError, match="line 2.*'a'.*line 1"):
        load_dataset(path)


def test_load_dataset_rejects_unknown_keys(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"study_id": "a", "report": "x", "reprot": "typo"}])
    with pytest.raises(SchemaError, match="unknown keys.*reprot"):
        load_dataset(path)


@pytest.mark.parametrize("doc", [
    {"report": "x"},
    {"study_id": "", "report": "x"},
    {"study_id": "a"},
    {"study_id": "a", "report": ""},
    {"study_id": "a", "report": "x", "split": 3},
    {"study_id": "a", "report": "x", "pathology_vector": [0] * 13},
    "not an object",
])
def test_load_dataset_schema_errors(tmp_path, doc):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [doc])
    with pytest.raises(SchemaError, match="line 1"):
        load_dataset(path)


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(IoError):
        load_dataset(tmp_path / "absent.jsonl")


def test_split_records():
    records = [StudyRecord("a", "x", split="train"),
               StudyRecord("b", "y", split="test"),
               StudyRecord("c", "z", split="train")]
    assert [r.study_id for r in split_records(records, "train")] == ["a", "c"]
    assert split_records(records, "dev") == []


# -------------------------------------------------------------- resources


REPORT = "FINDINGS : lungs are clear . IMPRESSION : no acute disease"
GRAPH_DOC = {
    "text": REPORT,
    "1": entity_doc("1", "lungs", "ANAT-DP", 2),
    "2": entity_doc("2", "clear", "OBS-DP", 4,
                    relations=[("located_at", "1")]),
    "3": entity_doc("3", "acute disease", "OBS-DA", 10, end=11),
}


def corpus_files(tmp_path):
    graphs = tmp_path / "graphs.json"
    graphs.write_text(json.dumps({"a": GRAPH_DOC}), encoding="utf-8")
    vectors = tmp_path / "vectors.json"
    vectors.write_text(json.dumps({"a": [1] + [0] * 13}), encoding="utf-8")
    embeddings = tmp_path / "emb.json"
    embeddings.write_text(json.dumps({"a": [[1.0, 0.0], [0.0, 1.0]]}),
                          encoding="utf-8")
    return graphs, vectors, embeddings


def test_build_resources_sidecars_and_text_lookup(tmp_path):
    graphs, vectors, embeddings = corpus_files(tmp_path)
    cfg = HarnessConfig(graphs=str(graphs), vectors=str(vectors),
                        embeddings=str(embeddings))
    records = [StudyRecord("a", REPORT)]
    res = build_resources(records, cfg)
    assert set(res.graphs) == {"a"}
    assert res.vectors["a"][0] == 1
    assert res.graph_by_text[REPORT] is res.graphs["a"]
    assert res.vector_by_text[REPORT] == res.vectors["a"]
    assert res.embedding_by_text[REPORT] is res.embeddings["a"]


def test_build_resources_inline_vector_fills_gap(tmp_path):
    cfg = HarnessConfig()
    vec = tuple([1] * 14)
    records = [StudyRecord("a", REPORT, pathology_vector=vec)]
    res = build_resources(records, cfg)
    assert res.vectors["a"] == vec
    assert res.vector_by_text[REPORT] == vec
    assert res.graphs == {}


def test_build_resources_sidecar_wins_over_inline(tmp_path):
    vectors = tmp_path / "vectors.json"
    vectors.write_text(json.dumps({"a": [1] + [0] * 13}), encoding="utf-8")
    records = [StudyRecord("a", REPORT, pathology_vector=tuple([0] * 14))]
    res = build_resources(records, HarnessConfig(vectors=str(vectors)))
    assert res.vectors["a"][0] == 1


def test_load_graph_documents_names_study_on_error(tmp_path):
    path = tmp_path / "graphs.json"
    bad = dict(GRAPH_DOC)
    bad["2"] = entity_doc("2", "clear", "OBS-XX", 4)
    path.write_text(json.dumps({"a": GRAPH_DOC, "b": bad}), encoding="utf-8")
    with pytest.raises(SchemaError, match="study b"):
        load_graph_documents(path)


def test_load_graph_documents_rejects_non_object(tmp_path):
    path = tmp_path / "graphs.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(SchemaError, match="object keyed by study id"):
        load_graph_documents(path)


# loader -> (a good entry, a rejected entry, the reason given for it)
SIDECAR_LOADERS = {
    "graphs": (load_graph_documents, GRAPH_DOC, [1],
               "top-level JSON value must be an object"),
    "vectors": (load_pathology_vectors, [0] * 14, [0, 2] * 7,
                "pathology indicator must be 0 or 1, got 2"),
    "embeddings": (load_embeddings, [[1.0, 2.0]], [[1.0, "x"]],
                   "embedding matrix must be rows of numbers of equal length"),
    "baseline": (load_baseline, "a report", None,
                 "baseline output must be a string"),
}


@pytest.mark.parametrize("kind", sorted(SIDECAR_LOADERS))
def test_sidecar_reader_names_the_file_and_the_study(tmp_path, kind):
    load, good, bad, reason = SIDECAR_LOADERS[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps({"a": good, "b": good}), encoding="utf-8")
    assert sorted(load(path)) == ["a", "b"]
    path.write_text(json.dumps({"a": good, "b": bad}), encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load(path)
    assert str(info.value) == f"{path}: study b: {reason}"
    path.write_text(json.dumps([good]), encoding="utf-8")
    with pytest.raises(SchemaError, match="object keyed by study id"):
        load(path)


# ----------------------------------------------------------------- scorer


def full_resources():
    graph = graph_keys(radgraph_from_document(GRAPH_DOC))
    vec = tuple([1] + [0] * 13)
    emb = unit_rows(np.array([[1.0, 0.0], [0.0, 1.0]]))
    return Resources(
        graphs={"a": graph}, vectors={"a": vec}, embeddings={"a": emb},
        graph_by_text={REPORT: graph}, vector_by_text={REPORT: vec},
        embedding_by_text={REPORT: emb})


def test_scorer_identity_generation_scores_ceiling():
    scorer = Scorer(MetricsConfig(), full_resources())
    scores = scorer.score(REPORT, StudyRecord("a", REPORT))
    assert scores["bleu2"] == 1.0
    assert scores["radgraph_f1"] == 1.0
    assert scores["chexbert"] == pytest.approx(1.0)
    assert scores["bert_score"] == pytest.approx(1.0)
    # default composite: 4.0 bias minus four unit components
    assert scores["radcliq"] == pytest.approx(0.0, abs=1e-9)


def test_scorer_unknown_generation_degrades_to_bleu_only():
    scorer = Scorer(MetricsConfig(), full_resources())
    scores = scorer.score("something else entirely", StudyRecord("a", REPORT))
    assert scores["bleu2"] is not None and scores["bleu2"] < 1.0
    assert scores["radgraph_f1"] is None
    assert scores["chexbert"] is None
    assert scores["bert_score"] is None
    assert scores["radcliq"] is None


def test_scorer_record_vector_preferred_over_sidecar(tmp_path):
    """The reference vector is the one ``build_resources`` chose, the
    sidecar's, as for the candidate; the record's own vector only fills a
    gap in the sidecar."""
    vectors = tmp_path / "vectors.json"
    vectors.write_text(json.dumps({"a": [1] + [0] * 13}), encoding="utf-8")
    records = [StudyRecord("a", REPORT, pathology_vector=tuple([0] * 14)),
               StudyRecord("b", "no acute disease .",
                           pathology_vector=tuple([0] * 13 + [1]))]
    res = build_resources(records, HarnessConfig(vectors=str(vectors)))
    scorer = Scorer(MetricsConfig(names=("chexbert",)), res)
    assert scorer.score(REPORT, records[0])["chexbert"] == 1.0
    assert scorer.score(records[1].report, records[1])["chexbert"] == 1.0


def test_scorer_radcliq_uses_only_weighted_components():
    res = full_resources()
    cfg = MetricsConfig(names=("radcliq",), radcliq_weights={"bleu2": 2.0},
                        radcliq_bias=1.0)
    scores = Scorer(cfg, res).score(REPORT, StudyRecord("a", REPORT))
    assert scores == {"radcliq": pytest.approx(3.0)}


_WORDS = ("lungs", "clear", "effusion", "no", "acute", ".", ":", "Heart",
          "normal", "(left)", "opacity")


def random_resources(rng):
    """Records and resources where each study may lack its graph, vector
    or embedding, some report texts repeat, and a record may carry its
    own pathology vector."""
    records = []
    res = Resources()
    keys = {}   # each entity or relation key -> its one object
    for i in range(rng.randint(1, 5)):
        sid = f"s{i}"
        if records and rng.random() < 0.2:
            report = rng.choice(records).report
        else:
            report = " ".join(rng.choice(_WORDS)
                              for _ in range(rng.randint(0, 8)))
        own = (tuple(rng.randint(0, 1) for _ in range(14))
               if rng.random() < 0.3 else None)
        records.append(StudyRecord(sid, report, pathology_vector=own))
        if rng.random() < 0.8:
            res.graphs[sid] = graph_keys(radgraph_from_document(
                random_document(rng, max_entities=5, max_relations=5)), keys)
        if rng.random() < 0.8:
            res.vectors[sid] = tuple(
                int(rng.random() < 0.2) for _ in range(14))
        if own is not None:   # as build_resources: the sidecar comes first
            res.vectors.setdefault(sid, own)
        if rng.random() < 0.8:
            res.embeddings[sid] = unit_rows(np.array(
                [[rng.uniform(-1.0, 1.0) for _ in range(3)]
                 for _ in range(rng.randint(1, 4))]))
    for record in records:
        sid = record.study_id
        if sid in res.graphs:
            res.graph_by_text.setdefault(record.report, res.graphs[sid])
        if sid in res.vectors:
            res.vector_by_text.setdefault(record.report, res.vectors[sid])
        if sid in res.embeddings:
            res.embedding_by_text.setdefault(record.report,
                                             res.embeddings[sid])
    return records, res


def bare_scores(cfg, res, generated, record):
    """The configured metrics straight from the public metric functions."""
    sid = record.study_id
    ref_emb = res.embeddings.get(sid)
    cand_emb = res.embedding_by_text.get(generated)
    ref_vec = res.vectors.get(sid)
    cand_vec = res.vector_by_text.get(generated)
    ref_graph = res.graphs.get(sid)
    cand_graph = res.graph_by_text.get(generated)
    base = {
        "bleu2": bleu2(tokenize(generated), tokenize(record.report)),
        "bert_score": (None if ref_emb is None or cand_emb is None
                       else bert_score(cand_emb, ref_emb)),
        "chexbert": (None if ref_vec is None or cand_vec is None
                     else chexbert_similarity(cand_vec, ref_vec)),
        "radgraph_f1": (None if ref_graph is None or cand_graph is None
                        else radgraph_f1(cand_graph, ref_graph).combined),
    }
    comps = {c: base[c] for c in cfg.radcliq_weights}
    base["radcliq"] = (None if any(v is None for v in comps.values())
                       else radcliq(comps, cfg.radcliq_weights,
                                    cfg.radcliq_bias))
    return {name: base[name] for name in cfg.names}


# every way the scorer picks its metrics: the defaults, a few named
# metrics, each base metric alone, and radcliq weighting a strict subset
# of them, alone or beside a metric it does not weight
SCORER_CONFIGS = [
    MetricsConfig(), MetricsConfig(names=("chexbert", "bleu2")),
    *(MetricsConfig(names=(name,)) for name in BASE_METRICS),
    MetricsConfig(names=("radcliq",),
                  radcliq_weights={"radgraph_f1": 0.5, "bert_score": -0.5}),
    MetricsConfig(names=("chexbert", "radcliq"),
                  radcliq_weights={"bleu2": 1.5}, radcliq_bias=-0.25),
]


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(SCORER_CONFIGS))
@settings(max_examples=150, deadline=None)
def test_scorer_memo_matches_bare_metric_functions(seed, cfg):
    rng = random.Random(seed)
    records, res = random_resources(rng)
    # Known reference texts (hits: identity and cross-study), each also
    # as a copy, as a client returns it; unknown texts and a
    # baseline-style output (misses).
    texts = [r.report for r in records] + [
        r.report.encode().decode() for r in records] + [
        "No acute cardiopulmonary process .", "",
        " ".join(rng.choice(_WORDS) for _ in range(5))]
    pairs = [(text, record) for text in texts for record in records]
    scorer = Scorer(cfg, res)
    for _ in range(3):
        rng.shuffle(pairs)
        for text, record in pairs:
            assert scorer.score(text, record) == bare_scores(
                cfg, res, text, record)
    outputs = {r.study_id: rng.choice(texts) for r in records}
    with tempfile.TemporaryDirectory() as tmp:
        spool = Path(tmp) / "spool.jsonl"
        score_fixed_outputs(records, outputs, scorer, cfg.names, spool)
        items = load_scores_jsonl(spool)
    for record, item in zip(records, items, strict=True):
        assert item["scores"] == bare_scores(
            cfg, res, outputs[record.study_id], record)


def test_scorer_calls_the_metrics_named_in_harness_at_call_time(
        monkeypatch):
    """The benchmark's tracer rebinds these names in ``harness`` and must
    see every call, even from a ``Scorer`` built before it did."""
    scorer = Scorer(MetricsConfig(), full_resources())
    calls = []
    for name in ("tokenize", "bleu2", "bert_score", "chexbert_similarity",
                 "radgraph_f1"):
        def counted(*args, _name=name, _real=getattr(harness, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(harness, name, counted)
    scorer.score(REPORT, StudyRecord("a", REPORT))
    assert sorted(calls) == ["bert_score", "bleu2", "chexbert_similarity",
                             "radgraph_f1", "tokenize"]


def test_scorer_identity_embedding_takes_general_product():
    emb = np.array(SYMMETRIC_TRAP)
    rows = unit_rows(emb)
    res = Resources(embeddings={"a": rows}, embedding_by_text={REPORT: rows})
    scorer = Scorer(MetricsConfig(names=("bert_score",)), res)
    for _ in range(2):
        assert scorer.score(REPORT, StudyRecord("a", REPORT)) == {
            "bert_score": bert_score(emb, emb)}


def test_scorer_keeps_no_features_of_unknown_generations():
    records, res = random_resources(random.Random(5))
    scorer = Scorer(MetricsConfig(), res)
    for record in records:
        scorer.score(record.report, record)
    kept = dict(scorer._tokens)
    for i in range(50):
        for record in records:
            scorer.score(f"unmatched generation {i}", record)
            scorer.score(record.report, record)
    # One entry per study, its reference's tokens; neither unknown nor
    # identity candidates added or replaced any.
    assert scorer._tokens.keys() == {r.study_id for r in records}
    assert scorer._tokens.keys() == kept.keys()
    assert all(scorer._tokens[sid] is kept[sid] for sid in kept)
    assert all(kept[r.study_id] == tuple(tokenize(r.report))
               for r in records)


def key_object(keys, value):
    """The object ``keys`` holds equal to ``value``."""
    return next(key for key in keys if key == value)


def test_scorer_references_share_one_object_per_key(tmp_path):
    """Two references with equal tokens and equal entity keys hold the
    very same key objects, so each value is kept once."""
    text_a = "lungs are clear ."
    text_b = "LUNGS are clear . no edema"
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps({"a": GRAPH_DOC, "b": GRAPH_DOC}),
                    encoding="utf-8")
    records = [StudyRecord("a", text_a), StudyRecord("b", text_b)]
    res = build_resources(records, HarnessConfig(graphs=str(path)))
    scorer = Scorer(MetricsConfig(names=("bleu2", "radgraph_f1")), res)
    for record in records:
        scorer.score(record.report, record)
    bleu = scorer._tokens
    assert bleu["a"] == tuple(tokenize(text_a))
    for value in ("lungs", "clear", "."):
        assert key_object(bleu["a"], value) is key_object(bleu["b"], value)
    keys = res.graphs
    assert keys["a"] is not keys["b"] and keys["a"] == keys["b"]
    for key in keys["a"].entities:
        assert key_object(keys["b"].entities, key) is key
    for key in keys["a"].relations:
        assert key_object(keys["b"].relations, key) is key
        assert key_object(keys["b"].entities, key[0]) is key[0]


def test_build_resources_keeps_only_prepared_embeddings(corpus, monkeypatch):
    _, cfg = corpus
    records = load_dataset(cfg.dataset)
    raw = json.loads(Path(cfg.embeddings).read_text(encoding="utf-8"))
    res = build_resources(records, cfg)
    assert res.embeddings.keys() == raw.keys()
    for sid, emb in raw.items():
        assert isinstance(res.embeddings[sid], UnitRows)
        assert (res.embeddings[sid].rows.tobytes()
                == unit_rows(emb).rows.tobytes())
    # the scorer reads them as they are, and keeps no copy
    seen = []
    real = harness.bert_score
    monkeypatch.setattr(harness, "bert_score",
                        lambda cand, ref: seen.append(ref) or real(cand, ref))
    scorer = Scorer(MetricsConfig(names=("bert_score",)), res)
    for record in records:
        scorer.score(record.report, record)
    assert len(seen) == len(records)
    assert all(ref is res.embeddings[r.study_id]
               for ref, r in zip(seen, records))
    assert scorer._tokens == {}   # its one memo holds no embedding


def test_loaded_inputs_keep_one_object_per_repeated_string(corpus,
                                                           tmp_path):
    _, cfg = corpus
    records = load_dataset(cfg.dataset)
    for field_name in ("split", "radiologist_id"):
        values = [getattr(r, field_name) for r in records]
        assert len({id(v) for v in values}) == len(set(values)) > 1
    # each sidecar keys its entries by the dataset's own id objects
    vectors = tmp_path / "vectors.json"
    vectors.write_text(json.dumps({r.study_id: [0] * 14 for r in records}),
                       encoding="utf-8")
    res = build_resources(records,
                          dataclasses.replace(cfg, vectors=str(vectors)))
    outputs = load_baseline(cfg.baseline)
    by_id = {r.study_id: r for r in records}
    for table in (res.graphs, res.vectors, res.embeddings, outputs):
        assert table
        assert all(sid is by_id[sid].study_id for sid in table)
    # the corpus gives every study one baseline text
    assert len({id(text) for text in outputs.values()}) == 1
    # each reference token is the interned object of its value, so a
    # token that many references hold is one object (CPython shares each
    # one-character string anyway)
    scorer = Scorer(MetricsConfig(names=("bleu2",)), res)
    for record in records:
        scorer.score(record.report, record)
    tokens = [token for ref in scorer._tokens.values() for token in ref
              if len(token) > 1]
    assert len(tokens) > len(set(tokens))
    assert all(sys.intern(token) is token for token in tokens)


def test_build_resources_keeps_each_graph_as_its_keys(corpus):
    _, cfg = corpus
    records = load_dataset(cfg.dataset)
    res = build_resources(records, cfg)
    raw = load_graph_documents(cfg.graphs)
    assert res.graphs.keys() == raw.keys()
    for record in records:
        sid = record.study_id
        assert isinstance(res.graphs[sid], GraphKeys)
        assert res.graphs[sid] == graph_keys(raw[sid])
        assert res.graph_by_text[record.report] is res.graphs[sid]
    # equal keys across the graphs are one object
    first = {}   # each key value -> the first object seen for it
    every = [key for keys in res.graphs.values()
             for key in keys.entities + keys.relations]
    assert all(first.setdefault(key, key) is key for key in every)
    assert len(every) > len(first)
    assert res.serializations == {}
    # only the studies asked for are serialized, each once
    evals = [r.study_id for r in records if r.split == "test"]
    res = build_resources(records, cfg, set(evals))
    assert res.serializations == {sid: serialize(raw[sid]).rendered
                                  for sid in evals}


def test_scorer_interns_only_reference_tokens(corpus, monkeypatch):
    """Each reference's tokens are interned once, on the first call for
    its study; no generation's tokens are, so none outlives its call."""
    _, cfg = corpus
    records = load_dataset(cfg.dataset)
    scorer = Scorer(cfg.metrics, build_resources(records, cfg))
    interned = []
    real = sys.intern
    monkeypatch.setattr(sys, "intern",
                        lambda text: interned.append(text) or real(text))
    for record in records:
        scorer.score(record.report, record)
    assert interned == [token for record in records
                        for token in tokenize(record.report)]
    interned.clear()
    for i in range(20):
        for record in records:
            scorer.score(f"unmatched generation {i} .", record)
            scorer.score(record.report, record)
    assert interned == []


_METRIC_NAMES = ("tokenize", "bleu2", "bert_score", "chexbert_similarity",
                 "radgraph_f1")


def test_scorer_scores_a_reproduced_reference_once_per_study(corpus,
                                                             monkeypatch):
    # Four shot rows of an identity run: each generation is its study's
    # reference, so each metric runs once per study, not once per row.
    _, cfg = corpus
    records = load_dataset(cfg.dataset)
    res = build_resources(records, cfg)
    scorer = Scorer(cfg.metrics, res)
    calls = {name: 0 for name in _METRIC_NAMES}
    for name in _METRIC_NAMES:
        def counted(*args, _name=name, _real=getattr(harness, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(harness, name, counted)
    for _ in range(4):
        for record in records:
            assert scorer.score(record.report, record) == bare_scores(
                cfg.metrics, res, record.report, record)
    assert calls == {name: len(records) for name in _METRIC_NAMES}


def test_scorer_keeps_reproduced_scores_by_study_not_by_text():
    # Two studies with one report text and their own resources: the
    # text lookups find study a's, so b's reproduction scores below a's.
    lungs_only = {"text": REPORT, "1": entity_doc("1", "lungs", "ANAT-DP", 2)}
    graphs = {"a": radgraph_from_document(GRAPH_DOC),
              "b": radgraph_from_document(lungs_only)}
    vectors = {"a": tuple([1] + [0] * 13), "b": tuple([0, 1] + [0] * 12)}
    embeddings = {"a": np.array([[1.0, 0.0], [0.0, 1.0]]),
                  "b": np.array([[0.6, 0.8]])}
    res = Resources(graphs=graphs, vectors=vectors, embeddings=embeddings,
                    graph_by_text={REPORT: graphs["a"]},
                    vector_by_text={REPORT: vectors["a"]},
                    embedding_by_text={REPORT: embeddings["a"]})
    cfg = MetricsConfig()
    scorer = Scorer(cfg, res)
    records = [StudyRecord("a", REPORT), StudyRecord("b", REPORT)]
    for _ in range(3):
        for record in records:
            assert scorer.score(REPORT, record) == bare_scores(
                cfg, res, REPORT, record)
    assert (bare_scores(cfg, res, REPORT, records[0])
            != bare_scores(cfg, res, REPORT, records[1]))


def test_scorer_keeps_only_reproductions_one_per_study():
    records, res = random_resources(random.Random(7))
    cfg = MetricsConfig()
    scorer = Scorer(cfg, res)
    others = ["unmatched generation", "No acute cardiopulmonary process ."]
    for _ in range(3):
        for record in records:
            for text in others + [r.report for r in records]:
                if text != record.report:
                    assert scorer.score(text, record) == bare_scores(
                        cfg, res, text, record)
    assert scorer._reproduced == {}
    for _ in range(3):
        for record in records:
            assert scorer.score(record.report, record) == bare_scores(
                cfg, res, record.report, record)
            assert scorer.score(others[0], record) == bare_scores(
                cfg, res, others[0], record)
    assert scorer._reproduced.keys() == {r.study_id for r in records}


def test_scorer_result_can_be_changed_by_its_caller():
    res = full_resources()
    cfg = MetricsConfig()
    record = StudyRecord("a", REPORT)
    scorer = Scorer(cfg, res)
    for _ in range(3):
        scores = scorer.score(REPORT, record)
        assert scores == bare_scores(cfg, res, REPORT, record)
        scores.update(dict.fromkeys(scores, -1.0), extra=None)


# ------------------------------------------------------------ aggregation


class ScoresByStudy:
    """A scorer that gives each study the scores it was given for it."""

    def __init__(self, scores):
        self.scores = scores

    def score(self, generated, record):
        return dict(self.scores[record.study_id])


def test_aggregate_row_skips_missing_scores(tmp_path):
    a, b, c, d = (StudyRecord(sid, "x") for sid in "abcd")
    scorer = ScoresByStudy({"a": {"bleu2": 1.0}, "b": {"bleu2": 0.5},
                            "c": {"bleu2": None}})
    parts = [[(a, "text", None), (b, "text", None), (c, "text", None)],
             [(d, None, "boom")]]
    row = spool_row(tmp_path / "spool.jsonl", scorer, ["bleu2"], "m", 1,
                    "ground_truth", parts)
    assert row.n_items == 4
    assert row.excluded == 1
    report = row.metrics["bleu2"]
    assert report.n == 2
    assert report.mean == pytest.approx(0.75)
    assert row == aggregate_row("m", 1, 4, 1, {"bleu2": [1.0, 0.5]})


def test_aggregate_row_all_missing_gives_none(tmp_path):
    scorer = ScoresByStudy({"a": {"x": None}})
    row = spool_row(tmp_path / "spool.jsonl", scorer, ["x"], "m", None,
                    "provided", [[(StudyRecord("a", "r"), "text", None)]])
    assert row.metrics["x"] is None


def test_spool_row_scores_only_the_items_without_an_error(tmp_path):
    calls = []

    class Recording(ScoresByStudy):
        def score(self, generated, record):
            calls.append((generated, record.study_id))
            return super().score(generated, record)

    records = [StudyRecord(sid, "x") for sid in "abc"]
    spool = tmp_path / "spool.jsonl"
    row = spool_row(spool, Recording({"a": {"bleu2": 0.25}}), ["bleu2"],
                    "ser2rep", 5, "ground_truth",
                    [[(records[0], "gen", None), (records[1], None, "")],
                     [(records[2], None, "status 400")]])
    assert calls == [("gen", "a")]
    assert (row.n_items, row.excluded) == (3, 2)
    assert load_scores_jsonl(spool) == [
        {"study_id": "a", "method": "ser2rep", "shots": 5,
         "source": "ground_truth", "generated": "gen",
         "scores": {"bleu2": 0.25}, "error": None},
        {"study_id": "b", "method": "ser2rep", "shots": 5,
         "source": "ground_truth", "generated": None, "scores": {},
         "error": ""},
        {"study_id": "c", "method": "ser2rep", "shots": 5,
         "source": "ground_truth", "generated": None, "scores": {},
         "error": "status 400"}]


def test_failed_shots_are_the_shot_rows_with_every_item_excluded():
    def row(shots, excluded):
        return ResultRow("m", shots, 3, excluded, {})
    table = ResultTable((), (row(0, 3), row(1, 2), row(5, 0), row(10, 3),
                             row(None, 3)))
    assert RunOutcome(table, Path("spool")).failed_shots == (0, 10)


def sample_table():
    rows = (
        ResultRow("ser2rep", 0, 3, 0,
                  {"bleu2": MetricReport("bleu2", 0.5, 0.1, 3),
                   "chexbert": MetricReport("chexbert", 1.0, 0.0, 3)}),
        ResultRow("baseline", None, 3, 1,
                  {"bleu2": MetricReport("bleu2", 1 / 3, 0.25, 2),
                   "chexbert": None}),
    )
    return ResultTable(("bleu2", "chexbert"), rows)


def test_render_table_layout():
    lines = render_table(sample_table()).splitlines()
    assert lines[0].split() == ["method", "shots", "n", "excl",
                                "bleu2", "chexbert"]
    assert "0.500 ± 0.100" in lines[1]
    # missing shots and missing metric both render as a dash
    assert lines[2].startswith("baseline  -")
    assert lines[2].rstrip().endswith("-")


def test_table_csv_round_trip_is_exact():
    table = sample_table()
    parsed = parse_table_csv(render_table_csv(table))
    assert parsed == table


def test_parse_table_csv_rejects_foreign_header():
    with pytest.raises(SchemaError, match="header"):
        parse_table_csv("a,b,c\n1,2,3\n")


def test_parse_table_csv_rejects_ragged_metric_columns():
    text = "method,shots,n,excluded,bleu2_mean,bleu2_ci\nser2rep,0,1,0,1.0,0.0\n"
    with pytest.raises(SchemaError, match="triples"):
        parse_table_csv(text)


# ------------------------------------------------------------ run drivers


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    # pool of 12 covers the largest configured shot count (10)
    out = tmp_path_factory.mktemp("corpus")
    paths = make_synthetic_corpus(out, n_records=16, n_train=12, seed=0)
    return paths, load_config(paths["config"])


def test_synthetic_corpus_refuses_more_studies_than_the_bank_gives(
        tmp_path):
    with pytest.raises(InputError, match="298"):
        make_synthetic_corpus(tmp_path / "big", n_records=299, n_train=10)
    assert not (tmp_path / "big").exists()


def test_synthetic_corpus_serializations_match_graphs(corpus):
    paths, cfg = corpus
    records = load_dataset(cfg.dataset)
    graphs = load_graph_documents(cfg.graphs)
    assert len(records) == 16
    for record in records:
        rendered = serialize(graphs[record.study_id]).rendered
        assert rendered == record.serialization


def test_evaluate_identity_mock_scores_ceiling(corpus):
    paths, cfg = corpus
    outcome = evaluate(cfg, "ser2rep")
    assert [(r.method, r.shots) for r in outcome.table.rows] == [
        ("ser2rep", 0), ("ser2rep", 1), ("ser2rep", 5), ("ser2rep", 10),
        ("baseline", None)]
    for row in outcome.table.rows:
        if row.method != "ser2rep":
            continue
        assert row.excluded == 0
        for name in ("bleu2", "radgraph_f1", "chexbert", "bert_score"):
            report = row.metrics[name]
            assert report.n == 4
            assert report.mean == pytest.approx(1.0)
            assert report.ci_halfwidth == pytest.approx(0.0)


def test_evaluate_scores_chexbert_against_the_sidecar_vector(tmp_path,
                                                            corpus):
    # A vectors sidecar that disagrees with every inline vector: reference
    # and candidate both take the sidecar's, so the identity mock still
    # scores the ceiling.
    paths, cfg = corpus
    records = load_dataset(cfg.dataset)
    vectors = tmp_path / "vectors.json"
    vectors.write_text(json.dumps({r.study_id: [1 - v for v in
                                                r.pathology_vector]
                                   for r in records}), encoding="utf-8")
    flipped = dataclasses.replace(cfg, vectors=str(vectors),
                                  experiment=ExperimentConfig(shots=(0, 1)))
    for row in evaluate(flipped, "ser2rep").table.rows[:2]:
        assert row.metrics["chexbert"].n == row.n_items
        assert row.metrics["chexbert"].mean == pytest.approx(1.0)


def test_shot_count_beyond_pool_fails_before_any_request(tmp_path, corpus,
                                                         monkeypatch):
    paths, cfg = corpus
    sent = []
    real_post = EchoReportTransport.post

    def post(self, *args):
        sent.append(args)
        return real_post(self, *args)
    monkeypatch.setattr(EchoReportTransport, "post", post)
    whole_pool = HarnessConfig(dataset=cfg.dataset, graphs=cfg.graphs,
                               experiment=ExperimentConfig(shots=(12,)),
                               output=OutputConfig(directory=str(tmp_path)))
    [row] = evaluate(whole_pool, "ser2rep").table.rows
    assert row.excluded == 0 and len(sent) == row.n_items == 4
    sent.clear()
    beyond = HarnessConfig(dataset=cfg.dataset, graphs=cfg.graphs,
                           experiment=ExperimentConfig(shots=(12, 13)))
    with pytest.raises(InputError,
                       match="shots 13 exceeds the 12 studies in pool"):
        evaluate(beyond, "ser2rep")
    assert sent == []


def test_evaluate_end_to_end_matches_ser2rep_here(corpus):
    # synthetic serializations come from the same graphs, so both modes
    # feed identical prompts to the identity mock
    paths, cfg = corpus

    def generated(mode):   # read before the next run overwrites the spool
        return [(d["study_id"], d["shots"], d["generated"])
                for d in load_scores_jsonl(evaluate(cfg, mode).spool)
                if d["method"] == mode]
    assert generated("ser2rep") == generated("end2end")


def test_evaluate_rejects_unknown_mode(corpus):
    _, cfg = corpus
    with pytest.raises(InputError, match="mode"):
        evaluate(cfg, "both")


def test_evaluate_baseline_row_scores_fixed_text(corpus):
    paths, cfg = corpus
    outcome = evaluate(cfg, "ser2rep")
    row = outcome.table.rows[-1]
    assert row.method == "baseline"
    # fixed canned text never matches a reference, so only bleu2 survives
    assert row.metrics["bleu2"] is not None
    assert row.metrics["radgraph_f1"] is None


def test_evaluate_requires_eval_records(tmp_path, corpus):
    paths, cfg = corpus
    records = load_dataset(cfg.dataset)
    only_train = tmp_path / "train_only.jsonl"
    write_jsonl(only_train, [
        {"study_id": r.study_id, "report": r.report, "split": "train",
         "serialization": r.serialization} for r in records])
    broken = HarnessConfig(dataset=str(only_train), graphs=cfg.graphs,
                           client=ClientConfig(mode="identity-mock"))
    with pytest.raises(InputError, match="eval split"):
        evaluate(broken, "ser2rep")


@pytest.mark.parametrize("case", ["run", "bad_graph", "disabled"])
def test_evaluate_leaves_the_collector_as_it_found_it(tmp_path, corpus,
                                                       monkeypatch, case):
    paths, cfg = corpus
    if case == "bad_graph":
        graphs = json.loads(paths["graphs"].read_text(encoding="utf-8"))
        entity = next(v for v in graphs[sorted(graphs)[-1]].values()
                      if isinstance(v, dict))
        entity["label"] = "OBS-XX"
        path = tmp_path / "graphs.json"
        path.write_text(json.dumps(graphs), encoding="utf-8")
        cfg = dataclasses.replace(cfg, graphs=str(path))
    during = []
    real_run = harness.run_generation

    def run_generation(*args):
        during.append((gc.isenabled(), gc.get_freeze_count() > 0))
        return real_run(*args)
    monkeypatch.setattr(harness, "run_generation", run_generation)
    was_enabled = gc.isenabled()
    try:
        if case == "disabled":
            gc.disable()
        before = (gc.isenabled(), gc.get_freeze_count())
        if case == "bad_graph":
            with pytest.raises(SchemaError, match="OBS-XX"):
                evaluate(cfg, "ser2rep")
        else:
            assert load_scores_jsonl(evaluate(cfg, "ser2rep").spool)
        assert (gc.isenabled(), gc.get_freeze_count()) == before
    finally:
        if was_enabled:
            gc.enable()
    # generation runs with the loaded inputs frozen and the collector as
    # the caller had it
    assert during == ([] if case == "bad_graph" else [(before[0], True)])


def test_run_rejects_overlapping_splits(tmp_path, corpus):
    # evaluate() cannot produce overlap (each record has one split), but
    # the run drivers accept arbitrary lists and must defend themselves
    paths, cfg = corpus
    records = load_dataset(cfg.dataset)[:3]
    transport = make_transport(ClientConfig(mode="identity-mock"), records)
    scorer = Scorer(cfg.metrics, Resources())
    spool = tmp_path / "run_scores.jsonl.partial"
    with pytest.raises(InputError, match="both pool and eval"):
        run_generation("ser2rep", records, records, cfg, scorer, transport,
                       {}, spool)
    assert not spool.exists()


def test_ser2rep_requires_serializations(tmp_path):
    rows = [{"study_id": "a", "report": "x", "split": "train",
             "serialization": "s"},
            {"study_id": "b", "report": "y", "split": "test"}]
    path = tmp_path / "d.jsonl"
    write_jsonl(path, rows)
    cfg = HarnessConfig(dataset=str(path),
                        experiment=ExperimentConfig(shots=(0,)))
    with pytest.raises(InputError, match="eval records missing.*b"):
        evaluate(cfg, "ser2rep")


def test_end_to_end_missing_graph_becomes_error_item(tmp_path, corpus):
    paths, cfg = corpus
    records = load_dataset(cfg.dataset)
    graphs = json.loads(paths["graphs"].read_text(encoding="utf-8"))
    test_ids = [r.study_id for r in records if r.split == "test"]
    del graphs[test_ids[0]]
    pruned = tmp_path / "pruned.json"
    pruned.write_text(json.dumps(graphs), encoding="utf-8")
    cfg2 = HarnessConfig(
        dataset=cfg.dataset, graphs=str(pruned),
        experiment=ExperimentConfig(shots=(0,)),
        output=OutputConfig(directory=str(tmp_path / "out")))
    outcome = evaluate(cfg2, "end2end")
    errors = [d for d in load_scores_jsonl(outcome.spool) if d["error"]]
    assert [d["study_id"] for d in errors] == [test_ids[0]]
    assert "no graph" in errors[0]["error"]
    assert outcome.table.rows[0].excluded == 1
    assert outcome.table.rows[0].n_items == len(test_ids)


def test_end_to_end_graphs_read_at_load_keep_each_item_in_its_place(
        tmp_path, corpus, monkeypatch):
    # The first eval study has no graph and the second a graph with no
    # entities: in each row the first comes last, and the second fails
    # in place, with serialize run once per eval study with a graph.
    paths, cfg = corpus
    records = load_dataset(cfg.dataset)
    evals = [r.study_id for r in records if r.split == "test"]
    graphs = json.loads(paths["graphs"].read_text(encoding="utf-8"))
    del graphs[evals[0]]
    graphs[evals[1]] = {}
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps(graphs), encoding="utf-8")
    cfg2 = HarnessConfig(
        dataset=cfg.dataset, graphs=str(path),
        experiment=ExperimentConfig(shots=(0, 1)),
        output=OutputConfig(directory=str(tmp_path / "out")))
    calls = []
    real = harness.serialize

    def counted(graph):
        calls.append(graph)
        return real(graph)
    monkeypatch.setattr(harness, "serialize", counted)
    outcome = evaluate(cfg2, "end2end")
    assert len(calls) == len(evals) - 1
    items = load_scores_jsonl(outcome.spool)
    order = evals[1:] + evals[:1]
    assert [(d["study_id"], d["shots"]) for d in items] == [
        (sid, k) for k in (0, 1) for sid in order]
    for d in items:
        if d["study_id"] == evals[0]:
            assert d["error"] == f"no graph for study {evals[0]}"
        elif d["study_id"] == evals[1]:
            assert d["error"] == "evaluation serialization is empty"
        else:
            assert d["error"] is None and d["scores"]["radgraph_f1"] == 1.0
    assert [row.excluded for row in outcome.table.rows] == [2, 2]
    assert load_scores_jsonl(evaluate(cfg2, "ser2rep").spool)
    assert len(calls) == len(evals) - 1   # none in ser2rep


class RejectingEchoTransport(EchoReportTransport):
    """The identity mock, except that one serialization gets a 400."""

    def __init__(self, mapping, rejected):
        super().__init__(mapping)
        self.rejected = rejected

    def post(self, url, headers, payload, timeout):
        content = json.loads(payload)["messages"][-1]["content"]
        if content == f"{INSTRUCTION}\n{self.rejected}":
            return TransportResponse(400, "rejected")
        return super().post(url, headers, payload, timeout)


@pytest.mark.parametrize("mode", ["ser2rep", "end2end"])
def test_run_generation_keeps_item_order(tmp_path, corpus, mode):
    # A prompt that cannot be built (an end2end graph with no entities)
    # and a rejected request fail in place; end2end studies without a
    # graph follow the row's generated items.
    paths, cfg = corpus
    records = load_dataset(cfg.dataset)
    pool = split_records(records, "train")
    evals = split_records(records, "test")
    a, b, c, d = (r.study_id for r in evals)
    resources = build_resources(records, cfg, {a, b, c, d})
    serializations = dict(resources.serializations)
    if mode == "ser2rep":
        order, errors = [a, b, c, d], {c: "status 400"}
    else:
        del serializations[a]
        serializations[b] = serialize(radgraph_from_document({})).rendered
        order, errors = [b, c, d, a], {a: f"no graph for study {a}",
                                       b: "serialization is empty",
                                       c: "status 400"}
    transport = RejectingEchoTransport(
        {r.serialization: r.report for r in records}, evals[2].serialization)
    two_rows = dataclasses.replace(cfg,
                                   experiment=ExperimentConfig(shots=(0, 1)))
    outcome = run_generation(mode, evals, pool, two_rows,
                             Scorer(cfg.metrics, resources), transport,
                             serializations,
                             tmp_path / "run_scores.jsonl.partial")
    items = load_scores_jsonl(outcome.spool)
    assert [(d["study_id"], d["shots"]) for d in items] == [
        (sid, k) for k in (0, 1) for sid in order]
    for item in items:
        assert item["method"] == mode
        if item["study_id"] in errors:
            assert errors[item["study_id"]] in item["error"]
            assert item["generated"] is None and item["scores"] == {}
        else:
            assert item["error"] is None
            assert item["scores"]["radgraph_f1"] == 1.0
    assert [row.excluded for row in outcome.table.rows] == [len(errors)] * 2
    assert outcome.failed_shots == ()


class RejectExamplesTransport(EchoReportTransport):
    """The identity mock, except that every chain with an example gets a
    400."""

    def post(self, url, headers, payload, timeout):
        if len(json.loads(payload)["messages"]) > 2:
            return TransportResponse(400, "rejected")
        return super().post(url, headers, payload, timeout)


@pytest.mark.parametrize("mode", ["ser2rep", "end2end"])
def test_run_generation_names_the_rows_whose_every_request_failed(
        tmp_path, corpus, mode):
    # Items that fail before a request count neither way: the 1-shot row
    # sent requests and got nothing back, the 0-shot row scored some.
    paths, cfg = corpus
    records = load_dataset(cfg.dataset)
    evals = split_records(records, "test")
    resources = build_resources(records, cfg, {r.study_id for r in evals})
    serializations = dict(resources.serializations)
    early = 0
    if mode == "end2end":   # no graph, and a graph with no entities
        del serializations[evals[1].study_id]
        serializations[evals[2].study_id] = serialize(
            radgraph_from_document({})).rendered
        early = 2
    two_rows = dataclasses.replace(cfg,
                                   experiment=ExperimentConfig(shots=(0, 1)))
    transport = RejectExamplesTransport(
        {r.serialization: r.report for r in records})
    scorer = Scorer(cfg.metrics, resources)
    pool = split_records(records, "train")
    spool = tmp_path / "run_scores.jsonl.partial"
    outcome = run_generation(mode, evals, pool, two_rows, scorer, transport,
                             serializations, spool)
    assert [row.excluded for row in outcome.table.rows] == [early, 4]
    assert outcome.failed_shots == (1,)
    # A run in which no prompt could be built is bad input: it is refused
    # before any request.
    if mode == "ser2rep":
        blank = [dataclasses.replace(r, serialization=" ") for r in evals]
        message = "eval records missing serializations"
    else:
        blank = evals
        serializations = {r.study_id: serialize(
            radgraph_from_document({})).rendered for r in evals}
        message = "no eval study has a graph that serializes to any text"
    sent = []
    transport.post = lambda *args: sent.append(args)
    spool.unlink()
    with pytest.raises(InputError, match=message):
        run_generation(mode, blank, pool, two_rows, scorer, transport,
                       serializations, spool)
    assert sent == [] and not spool.exists()


# ---------------------------------------------------------------- slices


@pytest.fixture(scope="module")
def slice_corpus(tmp_path_factory):
    """28 eval studies: the first has no graph, the sixth a graph that
    serializes to no text; a baseline covers all but the last."""
    out = tmp_path_factory.mktemp("slices")
    paths = make_synthetic_corpus(out, n_records=40, n_train=12, seed=3)
    evals = [r.study_id for r in load_dataset(paths["dataset"])
             if r.split == "test"]
    graphs = json.loads(paths["graphs"].read_text(encoding="utf-8"))
    del graphs[evals[0]]
    graphs[evals[5]] = {}
    paths["graphs"].write_text(json.dumps(graphs), encoding="utf-8")
    baseline = json.loads(paths["baseline"].read_text(encoding="utf-8"))
    del baseline[evals[-1]]
    paths["baseline"].write_text(json.dumps(baseline), encoding="utf-8")
    return paths, evals


def run_cli(paths, mode, out_dir, capsys):
    """``radstyle evaluate`` writing to ``out_dir``: its exit code, its
    stderr with ``out_dir`` read as ``<out>``, and the bytes of its three
    artifacts."""
    from radstyle import cli
    config = yaml.safe_load(paths["config"].read_text(encoding="utf-8"))
    config["output"]["directory"] = str(out_dir)
    path = out_dir.parent / f"{out_dir.name}.json"   # JSON is valid YAML
    path.write_text(json.dumps(config), encoding="utf-8")
    code = cli.main(["evaluate", "--mode", mode, "--config", str(path)])
    err = capsys.readouterr().err.replace(str(out_dir), "<out>")
    return code, err, {name: (out_dir / name).read_bytes() for name in
                       ("mock_table.txt", "mock_table.csv",
                        "mock_scores.jsonl")}


ECHO_POST = EchoReportTransport.post


def reject_examples(self, url, headers, payload, timeout):
    """The identity mock, except that a chain with an example gets a 400."""
    if len(json.loads(payload)["messages"]) > 2:
        return TransportResponse(400, "rejected")
    return ECHO_POST(self, url, headers, payload, timeout)


@pytest.mark.parametrize("rejecting", [False, True])
@pytest.mark.parametrize("mode", ["ser2rep", "end2end"])
def test_slicing_a_row_changes_no_artifact_byte(
        tmp_path, slice_corpus, monkeypatch, capsys, mode, rejecting):
    # Each slice size gives the bytes of one slice per row: the empty
    # serialization fails in place, the study without a graph comes at
    # the end of its row, and a row whose every request failed, slice
    # after slice, still exits 2.
    paths, evals = slice_corpus
    if rejecting:
        monkeypatch.setattr(EchoReportTransport, "post", reject_examples)
    runs = {}
    for size in (1, 7, 10_000):
        monkeypatch.setattr(harness, "SLICE", size)
        runs[size] = run_cli(paths, mode, tmp_path / f"out{size}", capsys)
    assert runs[1] == runs[7] == runs[10_000]
    code, err, artifacts = runs[1]
    if rejecting:
        assert code == 2
        assert err.startswith("client error: every request of shot rows "
                              "1, 5, 10 failed")
    else:
        assert (code, err) == (0, "")
    items = [json.loads(line) for line
             in artifacts["mock_scores.jsonl"].decode().splitlines()]
    assert len(items) == 5 * len(evals)
    if mode == "end2end":
        for k in (0, 1, 5, 10):
            row = [d for d in items if d["shots"] == k]
            assert row[-1]["error"] == f"no graph for study {evals[0]}"
            assert row[4]["study_id"] == evals[5]
            assert row[4]["error"] == "evaluation serialization is empty"


class EchoOverHttp(HttpTransport):
    """An ``HttpTransport`` that answers as the identity mock, with no
    network."""

    def __init__(self, mapping):
        super().__init__()
        self.echo = EchoReportTransport(mapping)

    def post(self, url, headers, payload, timeout):
        return self.echo.post(url, headers, payload, timeout)


def test_a_network_row_is_one_client_batch(tmp_path, corpus, monkeypatch):
    # A batch boundary would leave the HTTP workers idle through a
    # retry's backoff, so only in-process rows are sliced.
    paths, cfg = corpus
    records = load_dataset(cfg.dataset)
    pool = split_records(records, "train")
    evals = split_records(records, "test")
    cfg = dataclasses.replace(cfg, experiment=ExperimentConfig(shots=(0, 1)))
    monkeypatch.setenv(cfg.client.api_key_env, "k")
    monkeypatch.setattr(harness, "SLICE", 1)
    batches = []
    real = harness.complete_batch

    def spy(chains, *args, **kwargs):
        batches.append(len(chains))
        return real(chains, *args, **kwargs)
    monkeypatch.setattr(harness, "complete_batch", spy)
    mapping = {r.serialization: r.report for r in records}
    spools = {}
    for name, transport in (("http", EchoOverHttp(mapping)),
                            ("echo", EchoReportTransport(mapping))):
        resources = build_resources(records, cfg)
        spools[name] = tmp_path / f"{name}.jsonl.partial"
        run_generation("ser2rep", evals, pool, cfg,
                       Scorer(cfg.metrics, resources), transport, {},
                       spools[name])
    assert batches == [len(evals)] * 2 + [1] * (2 * len(evals))
    assert (spools["http"].read_bytes() == spools["echo"].read_bytes())


def test_an_interrupted_row_leaves_the_slices_already_scored(
        tmp_path, slice_corpus, monkeypatch, capsys):
    paths, evals = slice_corpus
    _, _, artifacts = run_cli(paths, "ser2rep", tmp_path / "whole", capsys)
    whole = artifacts["mock_scores.jsonl"].decode().splitlines(True)
    monkeypatch.setattr(harness, "SLICE", 5)
    sent = []

    def post(self, *args):
        if len(sent) == len(evals) + 12:   # the third slice of row 1
            raise KeyboardInterrupt
        sent.append(args)
        return ECHO_POST(self, *args)
    monkeypatch.setattr(EchoReportTransport, "post", post)
    config = yaml.safe_load(paths["config"].read_text(encoding="utf-8"))
    config["output"]["directory"] = str(tmp_path / "cut")
    cfg = load_config_text(tmp_path / "cut.json", config)
    with pytest.raises(KeyboardInterrupt):
        evaluate(cfg, "ser2rep")
    spool = cfg.output.path("spool").read_text(encoding="utf-8")
    # row 0 whole, and two slices of row 1, each line as the whole run's
    assert spool.splitlines(True) == whole[:len(evals) + 10]


def load_config_text(path, config):
    path.write_text(json.dumps(config), encoding="utf-8")
    return load_config(path)


def test_end_to_end_without_a_graphs_file_fails_before_any_request(
        corpus, monkeypatch):
    # tests/test_cli.py covers a graphs file that holds no eval study.
    paths, cfg = corpus
    sent = []
    monkeypatch.setattr(EchoReportTransport, "post",
                        lambda self, *args: sent.append(args))
    no_graphs = HarnessConfig(dataset=cfg.dataset,
                              experiment=ExperimentConfig(shots=(0,)))
    with pytest.raises(InputError, match=re.escape(
            "no eval study has a graph (no graphs file set)")):
        evaluate(no_graphs, "end2end")
    assert sent == []


@pytest.mark.parametrize("mode, base", [
    ("identity-mock", "EchoReportTransport"),
    ("fixed-mock", "FixedReplyTransport")])
def test_mocks_answer_on_the_calling_thread(corpus, monkeypatch, mode, base):
    paths, cfg = corpus
    threads = []

    class Recording(getattr(harness, base)):
        def post(self, url, headers, payload, timeout):
            threads.append(threading.get_ident())
            return super().post(url, headers, payload, timeout)

    monkeypatch.setattr(harness, base, Recording)
    four = dataclasses.replace(
        cfg, client=ClientConfig(mode=mode, parallelism=4))
    evaluate(four, "ser2rep")
    evals = split_records(load_dataset(cfg.dataset), "test")
    assert threads == ([threading.get_ident()]
                       * len(evals) * len(cfg.experiment.shots))


def hashed_fault_http(mapping, salt):
    """An ``HttpTransport`` that sends nothing: each body gets, by a hash
    of the salt and the body, a 400, 429, 503, a malformed body or the
    identity mock's 200. It records the thread of every request."""
    echo = EchoReportTransport(mapping)

    class HashedFaultHttp(HttpTransport):
        threads = []

        def post(self, url, headers, payload, timeout):
            HashedFaultHttp.threads.append(threading.get_ident())
            digest = hashlib.sha256(f"{salt}\n{payload}".encode()).digest()
            answer = digest[0] % 8
            if answer < 3:
                return TransportResponse((400, 429, 503)[answer], "failed")
            if answer == 3:
                return TransportResponse(200, "not json")
            return echo.post(url, headers, payload, timeout)
    return HashedFaultHttp


@pytest.fixture(scope="module")
def larger_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("larger_corpus")
    paths = make_synthetic_corpus(out, n_records=48, n_train=12, seed=3)
    return out, load_config(paths["config"])


@settings(max_examples=12, deadline=None)
@given(salt=st.integers(0, 2 ** 32 - 1), parallelism=st.integers(2, 8))
def test_artifacts_do_not_depend_on_parallelism(larger_corpus, salt,
                                                parallelism):
    # The table, CSV and scores.jsonl bytes of an http run are the same
    # for any worker count, under replies that fail per body.
    out, cfg = larger_corpus
    records = load_dataset(cfg.dataset)
    mapping = {r.serialization: r.report for r in records}
    artifacts = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("RADSTYLE_TEST_KEY", "k")
        mp.setattr(harness, "complete_batch", functools.partial(
            client.complete_batch, sleep=lambda _: None))
        for workers in (1, parallelism):
            transport = hashed_fault_http(mapping, salt)
            mp.setattr(harness, "HttpTransport", transport)
            run_cfg = dataclasses.replace(
                cfg, client=ClientConfig(mode="http", parallelism=workers,
                                         api_key_env="RADSTYLE_TEST_KEY"),
                output=OutputConfig(directory=str(out / f"p{workers}")))
            paths = write_outputs(evaluate(run_cfg, "ser2rep"), run_cfg)
            artifacts[workers] = {kind: path.read_bytes()
                                  for kind, path in paths.items()}
            # One worker sends from the calling thread; more never do.
            on_caller = threading.get_ident() in transport.threads
            assert on_caller == (workers == 1)
    assert artifacts[parallelism] == artifacts[1]
    items = [json.loads(line) for line in artifacts[1]["scores"].splitlines()]
    assert any(item["error"] for item in items)
    assert any(item["scores"].get("radgraph_f1") == 1.0 for item in items)


@settings(max_examples=6, deadline=None)
@given(salt=st.integers(0, 2 ** 32 - 1))
def test_end2end_items_equal_ser2rep_items_under_faults(larger_corpus, salt):
    # The synthetic corpus stores serialize(graph) as each serialization,
    # so both modes send the same bodies and get the same replies: every
    # scores.jsonl item is the same but for its method and source.
    out, cfg = larger_corpus
    records = load_dataset(cfg.dataset)
    mapping = {r.serialization: r.report for r in records}
    items = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("RADSTYLE_TEST_KEY", "k")
        mp.setattr(harness, "complete_batch", functools.partial(
            client.complete_batch, sleep=lambda _: None))
        mp.setattr(harness, "HttpTransport", hashed_fault_http(mapping, salt))
        run_cfg = dataclasses.replace(
            cfg, client=ClientConfig(mode="http", parallelism=2,
                                     api_key_env="RADSTYLE_TEST_KEY"),
            output=OutputConfig(directory=str(out / "modes")))
        for mode in ("ser2rep", "end2end"):
            paths = write_outputs(evaluate(run_cfg, mode), run_cfg)
            items[mode] = [
                {key: value for key, value in json.loads(line).items()
                 if key not in ("method", "source")}
                for line in paths["scores"].read_text("utf-8").splitlines()]
    assert items["end2end"] == items["ser2rep"]
    assert any(item["error"] for item in items["ser2rep"])
    assert any(item["scores"].get("radgraph_f1") == 1.0
               for item in items["ser2rep"])


def test_score_fixed_outputs_missing_study(tmp_path):
    scorer = Scorer(MetricsConfig(names=("bleu2",)), Resources())
    records = [StudyRecord("a", "x y"), StudyRecord("b", "z")]
    spool = tmp_path / "spool.jsonl"
    row = score_fixed_outputs(records, {"a": "x y"}, scorer, ("bleu2",),
                              spool)
    assert (row.n_items, row.excluded) == (2, 1)
    items = load_scores_jsonl(spool)
    assert items[0]["scores"]["bleu2"] == 1.0
    assert items[1]["error"] == "no output for study"


def test_build_client_modes(corpus):
    paths, cfg = corpus
    records = load_dataset(cfg.dataset)
    transport = make_transport(ClientConfig(mode="identity-mock"), records)
    from radstyle.client import EchoReportTransport, FixedReplyTransport
    assert isinstance(transport, EchoReportTransport)
    transport = make_transport(ClientConfig(mode="fixed-mock"), records)
    assert isinstance(transport, FixedReplyTransport)
    assert transport.text == "No acute cardiopulmonary process."


# -------------------------------------------------------------- artifacts


def test_scores_jsonl_round_trip(tmp_path):
    items = [{"study_id": "a", "method": "ser2rep", "shots": 0,
              "source": "ground_truth", "generated": "text",
              "scores": {"bleu2": 0.5, "chexbert": None}, "error": None},
             {"study_id": "b", "method": "ser2rep", "shots": 0,
              "source": "ground_truth", "generated": None, "scores": {},
              "error": "boom"}]
    path = tmp_path / "scores.jsonl"
    write_scores_jsonl(path, items)
    docs = load_scores_jsonl(path)
    assert docs[0]["scores"]["bleu2"] == 0.5
    assert docs[0]["scores"]["chexbert"] is None
    assert docs[1]["error"] == "boom"
    assert docs[1]["generated"] is None


def test_write_outputs_creates_all_files(tmp_path, corpus):
    paths, cfg = corpus
    outcome = evaluate(cfg, "ser2rep")
    cfg2 = HarnessConfig(
        dataset=cfg.dataset,
        output=OutputConfig(directory=str(tmp_path / "res"), prefix="demo"))
    written = write_outputs(outcome, cfg2)
    assert sorted(p.name for p in written.values()) == [
        "demo_scores.jsonl", "demo_table.csv", "demo_table.txt"]
    assert not outcome.spool.exists()
    parsed = parse_table_csv(
        written["table_csv"].read_text(encoding="utf-8"))
    assert parsed == outcome.table


def test_every_file_written_has_a_name_the_prefix_check_measures(
        tmp_path, corpus):
    """A prefix that puts the name of any file a run writes a byte over
    the file system's limit is refused at config load: each file
    ``write_outputs`` leaves, and the spool it renames away."""
    paths, cfg = corpus
    outdir = tmp_path / "out"
    write_outputs(evaluate(cfg, "ser2rep"), HarnessConfig(
        output=OutputConfig(directory=str(outdir), prefix="p")))
    name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
    for name in [*(path.name for path in outdir.iterdir()),
                 "p_scores.jsonl.partial"]:
        suffix = name.removeprefix("p")
        prefix = "p" * (name_max + 1 - len(suffix))
        with pytest.raises(ConfigError, match="output prefix too long"):
            OutputConfig(directory=str(outdir), prefix=prefix)


def test_csv_cells_recompute_from_scores(tmp_path, corpus):
    # every table cell must be reconstructible from the per-item scores
    paths, cfg = corpus
    outcome = evaluate(cfg, "ser2rep")
    docs = load_scores_jsonl(outcome.spool)
    for row in outcome.table.rows:
        group = [d for d in docs if d["method"] == row.method
                 and d["shots"] == row.shots]
        for name, report in row.metrics.items():
            values = [d["scores"][name] for d in group
                      if d["scores"].get(name) is not None]
            if report is None:
                assert values == []
            else:
                again = mean_ci(values, name)
                assert math.isclose(report.mean, again.mean, rel_tol=0,
                                    abs_tol=0.0)
                assert report.ci_halfwidth == again.ci_halfwidth
                assert report.n == again.n


# -------------------------------------------------------------- style eval


def pools(n_rads=2, n_human=6, n_gen=2):
    human = {f"r{i}": [f"rad {i} human report {j}" for j in range(n_human)]
             for i in range(n_rads)}
    gen = {f"r{i}": [f"rad {i} generated report {j}" for j in range(n_gen)]
           for i in range(n_rads)}
    return human, gen


def test_assemble_sets_round_robin_and_no_reuse():
    human, gen = pools()
    sets = assemble_style_eval_sets(human, gen, n_sets=4, seed=7)
    assert [s.radiologist_id for s in sets] == ["r0", "r1", "r0", "r1"]
    used = [text for s in sets for text in s.reports]
    assert len(used) == len(set(used))
    for s in sets:
        assert s.reports[s.generated_index].startswith(
            f"rad {s.radiologist_id[1]} generated")
        others = [t for i, t in enumerate(s.reports)
                  if i != s.generated_index]
        assert all("human" in t for t in others)


def test_assemble_sets_deterministic():
    human, gen = pools()
    a = assemble_style_eval_sets(human, gen, n_sets=4, seed=7)
    b = assemble_style_eval_sets(human, gen, n_sets=4, seed=7)
    assert a == b
    c = assemble_style_eval_sets(human, gen, n_sets=4, seed=8)
    assert a != c


def test_assemble_sets_shortfall_names_radiologist():
    human, gen = pools(n_human=5)
    with pytest.raises(InputError, match="radiologist r0.*6 human"):
        assemble_style_eval_sets(human, gen, n_sets=4, seed=0)


def test_assemble_sets_rejects_duplicate_texts():
    human = {"r0": ["same", "same", "same"]}
    gen = {"r0": ["other"]}
    with pytest.raises(InputError, match="duplicate report text"):
        assemble_style_eval_sets(human, gen, n_sets=1, seed=0)


def test_assemble_sets_validates_n_sets():
    human, gen = pools()
    with pytest.raises(InputError, match="n_sets"):
        assemble_style_eval_sets(human, gen, n_sets=0, seed=0)
    with pytest.raises(InputError, match="no radiologists"):
        assemble_style_eval_sets({}, {}, n_sets=1, seed=0)


def test_style_set_dict_round_trip():
    human, gen = pools()
    original = assemble_style_eval_sets(human, gen, n_sets=2, seed=3)
    again = [StyleEvalSet.from_dict(s.to_dict()) for s in original]
    assert again == original


@pytest.mark.parametrize("doc", [
    "not a dict",
    {"reports": ["a", "b", "c"], "generated_index": 0},
    {"reports": ["a", "b", "c", 4], "generated_index": 0},
    {"reports": ["a", "b", "c", "d"], "generated_index": 4},
    {"reports": ["a", "b", "c", "d"], "generated_index": "0"},
    {"reports": ["a", "b", "c", "d"], "generated_index": True,
     "order_seed": 0},
    {"reports": ["a", "b", "c", "d"], "generated_index": 0,
     "order_seed": "x"},
    {"reports": ["a", "b", "c", "d"], "generated_index": 0},
    # assemble writes four distinct reports and a string radiologist id
    {"radiologist_id": "r0", "reports": ["a", "a", "a", "a"],
     "generated_index": 0, "order_seed": 0},
    {"radiologist_id": "r0", "reports": ["a", "b", "c", "a"],
     "generated_index": 0, "order_seed": 0},
    {"radiologist_id": None, "reports": ["a", "b", "c", "d"],
     "generated_index": 0, "order_seed": 0},
    {"radiologist_id": 5, "reports": ["a", "b", "c", "d"],
     "generated_index": 0, "order_seed": 0},
    {"reports": ["a", "b", "c", "d"], "generated_index": 0,
     "order_seed": 0},
])
def test_style_set_from_dict_rejects(doc):
    with pytest.raises(SchemaError):
        StyleEvalSet.from_dict(doc)


def test_render_style_eval_set_hides_answer():
    s = StyleEvalSet("r0", ("alpha", "beta", "gamma", "delta"), 2, 0)
    text = render_style_eval_set(s)
    assert text.startswith("Report 1:\nalpha")
    assert "Report 4:\ndelta" in text
    assert "generated" not in text.lower()
    assert "r0" not in text


def test_score_style_eval_counts_hits():
    sets = [StyleEvalSet("r0", ("a", "b", "c", "d"), i % 4, 0)
            for i in range(8)]
    answers = {"e1": [s.generated_index for s in sets],   # all right
               "e2": [(s.generated_index + 1) % 4 for s in sets]}  # all wrong
    score = score_style_eval(answers, sets)
    assert score.per_evaluator["e1"].successes == 8
    assert score.per_evaluator["e1"].p_value < 0.01
    assert score.per_evaluator["e2"].successes == 0
    assert score.per_evaluator["e2"].p_value == 1.0
    assert score.pooled.trials == 16
    assert score.pooled.successes == 8
    # One report of a set's four is generated: chance is one in four.
    assert all(r.p0 == 0.25
               for r in (*score.per_evaluator.values(), score.pooled))


def test_score_style_eval_validation():
    sets = [StyleEvalSet("r0", ("a", "b", "c", "d"), 0, 0)]
    with pytest.raises(InputError, match="expected 1 answers"):
        score_style_eval({"e": [0, 1]}, sets)
    with pytest.raises(InputError, match="index in \\[0, 3\\]"):
        score_style_eval({"e": [5]}, sets)
    with pytest.raises(InputError, match="no evaluator answers"):
        score_style_eval({}, sets)
    with pytest.raises(InputError, match="no style sets"):
        score_style_eval({"e": []}, [])
