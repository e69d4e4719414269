import gc
import json
import math
import random
import sys
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radstyle.errors import ConfigError, InputError, IoError, SchemaError
from radstyle.graph import radgraph_from_document
from radstyle.metrics import (MetricReport, _multiset_f1,
                              as_pathology_vector, bert_score, bleu2,
                              chexbert_similarity, graph_keys,
                              load_embeddings, load_pathology_vectors,
                              mean_ci, ngram_counts, normal_cdf, radcliq,
                              radgraph_f1, tokenize, unit_rows,
                              z_test_proportion)

from graphgen import perturb_document, random_document, repeat_entities
from oracles import (bleu2_counter_oracle, bleu2_oracle, graph_key_counts,
                     multiset_f1_oracle, radgraph_f1_counter_oracle,
                     radgraph_f1_oracle, tokenize_oracle)
from test_graph import entity_doc


def test_tokenize_lowercases_and_splits():
    assert tokenize("The Lungs are Clear") == ["the", "lungs", "are",
                                               "clear"]


def test_tokenize_peels_punctuation():
    assert tokenize("Heart: normal.") == ["heart", ":", "normal", "."]
    assert tokenize("(left) apex.") == ["(", "left", ")", "apex", "."]
    # Interior punctuation stays embedded; only edges are peeled.
    assert tokenize("a.b base/apex") == ["a.b", "base/apex"]


def test_tokenize_pure_punctuation_and_empty():
    assert tokenize(".") == ["."]
    assert tokenize("") == []


@given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Nd"),
                                      whitelist_characters=".,:;()/ "),
               max_size=40))
@settings(max_examples=100, deadline=None)
def test_tokenize_no_mixed_edges(text):
    for token in tokenize(text):
        if len(token) > 1:
            assert token == token.lower()
            assert token[0] not in ".,:;()/"
            assert token[-1] not in ".,:;()/"


# The marks the tokenizer peels; characters ``str.split`` takes for
# whitespace that a regex may not (file, group, record and unit
# separators, NEL, no-break and ideographic space); letters whose lower
# case is longer (İ) or depends on context (Σ), or which have none (ß).
_TOKENIZER_ALPHABET = (".,:;()/" " \x1c\x1d\x1e\x1f\x85\xa0\u3000"
                       "\u0130\u00df\u03a3aA")


@given(st.text(alphabet=_TOKENIZER_ALPHABET, max_size=24))
@settings(max_examples=300, deadline=None)
def test_tokenize_matches_the_word_by_word_oracle(text):
    assert tokenize(text) == tokenize_oracle(text)


def _long_token(n):
    """A token of about ``n`` characters: a leading mark, a core with
    interior marks, and a long run of trailing marks."""
    return "(" + "a." * (n // 4) + "b" + "." * (n // 2)


def test_tokenize_is_linear_in_a_token_s_length():
    """One 10^6-character token takes about as long as the same length
    in 100-character tokens; peeling its ends one slice at a time, as the
    oracle does, takes about a hundred times longer."""
    n = 10 ** 6
    token = _long_token(n)
    assert tokenize(token) == ["(", "a." * (n // 4) + "b"] + ["."] * (n // 2)
    short = " ".join([_long_token(100)] * (n // 100))

    def best(text):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            tokenize(text)
            times.append(time.perf_counter() - start)
        return min(times)

    gc.disable()   # a collection inside one timed run would skew it
    try:
        ratio = best(token) / best(short)
    finally:
        gc.enable()
    assert ratio < 10


def test_bleu2_identity_is_one():
    assert bleu2(["a"], ["a"]) == 1.0
    tokens = tokenize("the lungs are clear .")
    assert bleu2(tokens, tokens) == 1.0


def test_bleu2_hand_values():
    # cand a b c vs ref a b x: p1 = 2/3, p2 = 1/2, no brevity penalty.
    got = bleu2(["a", "b", "c"], ["a", "b", "x"])
    assert got == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)
    # Perfect short candidate: penalty exp(1 - 4/2).
    got = bleu2(["a", "b"], ["a", "b", "c", "d"])
    assert got == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_bleu2_empty_and_disjoint():
    assert bleu2([], ["a"]) == 0.0
    assert bleu2(["a"], ["b"]) < 1e-4
    assert bleu2(["a"], ["b"]) > 0.0


def test_bleu2_eps_configurable():
    loose = bleu2(["a", "b"], ["b", "a"], eps=1e-2)
    tight = bleu2(["a", "b"], ["b", "a"], eps=1e-9)
    assert loose > tight > 0.0


def test_bleu2_matches_oracle():
    rng = random.Random(5150)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(300):
        cand = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        assert bleu2(cand, ref) == pytest.approx(bleu2_oracle(cand, ref),
                                                 abs=1e-12)


@given(st.lists(st.sampled_from("abc"), max_size=10),
       st.lists(st.sampled_from("abc"), max_size=10))
@settings(max_examples=150, deadline=None)
def test_bleu2_bounded(cand, ref):
    assert 0.0 <= bleu2(cand, ref) <= 1.0


def graph_of(doc):
    return radgraph_from_document(doc)


def test_radgraph_f1_identity():
    doc = {
        "1": entity_doc("1", "lungs", "ANAT-DP", 0),
        "2": entity_doc("2", "clear", "OBS-DP", 1,
                        relations=[("located_at", "1")]),
    }
    assert radgraph_f1(graph_of(doc), graph_of(doc)) == (1.0, 1.0, 1.0)


def test_radgraph_f1_empty_conventions():
    empty = graph_of({})
    full = graph_of({"1": entity_doc("1", "a", "OBS-DP", 0)})
    assert radgraph_f1(empty, empty) == (1.0, 1.0, 1.0)
    result = radgraph_f1(empty, full)
    assert result.entity_f1 == 0.0
    # Neither side has relations, so relation F1 stays vacuously perfect.
    assert result.relation_f1 == 1.0


def test_radgraph_f1_casefolds_and_ignores_position():
    a = graph_of({"1": entity_doc("1", "Lungs", "ANAT-DP", 0)})
    b = graph_of({"9": entity_doc("9", "lungs", "ANAT-DP", 7)})
    assert radgraph_f1(a, b).entity_f1 == 1.0


def test_radgraph_f1_label_mismatch():
    a = graph_of({"1": entity_doc("1", "edema", "OBS-DA", 0)})
    b = graph_of({"1": entity_doc("1", "edema", "OBS-DP", 0)})
    assert radgraph_f1(a, b).entity_f1 == 0.0


def test_radgraph_f1_multiset_duplicates():
    a = graph_of({"1": entity_doc("1", "opacity", "OBS-DP", 0),
                  "2": entity_doc("2", "opacity", "OBS-DP", 3)})
    b = graph_of({"1": entity_doc("1", "opacity", "OBS-DP", 0)})
    result = radgraph_f1(a, b)
    # matches 1, precision 1/2, recall 1 -> F1 2/3.
    assert result.entity_f1 == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_radgraph_f1_relations_match_via_endpoint_content():
    a = graph_of({
        "1": entity_doc("1", "lungs", "ANAT-DP", 0),
        "2": entity_doc("2", "clear", "OBS-DP", 1,
                        relations=[("located_at", "1")]),
    })
    b = graph_of({
        "x": entity_doc("x", "LUNGS", "ANAT-DP", 4),
        "y": entity_doc("y", "clear", "OBS-DP", 9,
                        relations=[("located_at", "x")]),
    })
    assert radgraph_f1(a, b) == (1.0, 1.0, 1.0)


def test_radgraph_f1_matches_oracle():
    rng = random.Random(31337)
    for _ in range(300):
        ref_doc = random_document(rng, max_entities=8, max_relations=8)
        pred_doc = (perturb_document(ref_doc, rng) if rng.random() < 0.8
                    else random_document(rng, max_entities=8))
        got = radgraph_f1(graph_of(pred_doc), graph_of(ref_doc))
        want = radgraph_f1_oracle(pred_doc, ref_doc)
        assert got.entity_f1 == pytest.approx(want[0], abs=1e-12)
        assert got.relation_f1 == pytest.approx(want[1], abs=1e-12)
        assert got.combined == pytest.approx(want[2], abs=1e-12)


multisets = st.dictionaries(
    st.one_of(st.text(alphabet="abc", max_size=2),
              st.tuples(st.sampled_from("ab"), st.sampled_from("ab"))),
    st.integers(1, 5), max_size=8).map(Counter)


@given(multisets, multisets)
@settings(max_examples=150, deadline=None)
def test_multiset_f1_min_sum_matches_counter_intersection(pred, ref):
    assert (_multiset_f1(tuple(pred.elements()), tuple(ref.elements()))
            == multiset_f1_oracle(pred, ref))


# Tokens of more than one character, so that a copy is an equal string
# that is not the same object.
flat_tokens = st.lists(st.sampled_from(["lungs", "clear", "no", "."]),
                       max_size=12)


@given(flat_tokens, flat_tokens, st.integers(0, 2 ** 32 - 1))
@example([], [], 0)
@example([], ["lungs"], 1)
@example(["lungs"], [], 2)
@example(["lungs"], ["lungs"], 3)
@example(["lungs"], ["lungs", "lungs"], 4)
@settings(max_examples=300, deadline=None)
def test_flat_multisets_score_as_counter_intersections(cand_tokens,
                                                        ref_tokens, seed):
    """References prepared by ``ngram_counts`` and by ``graph_keys`` with
    a key dict, and candidates as plain tokens and unshared keys, score
    exactly as the ``Counter`` intersections of their n-grams and keys
    do, and so does a reference against itself."""
    keys = {}   # each entity or relation key -> its one object
    ref = ngram_counts(ref_tokens)
    cand = [t.encode().decode() for t in cand_tokens]
    assert ref == tuple(ref_tokens)
    assert all(sys.intern(t) is t for t in ref)
    assert bleu2(cand, ref) == bleu2_counter_oracle(cand_tokens, ref_tokens)
    assert bleu2(ref, ref) == bleu2_counter_oracle(ref_tokens, ref_tokens)
    assert bleu2(cand, cand) == bleu2_counter_oracle(cand_tokens, cand_tokens)

    rng = random.Random(seed)
    ref_doc = repeat_entities(
        random_document(rng, max_entities=6, max_relations=6), rng)
    cand_doc = repeat_entities(
        perturb_document(ref_doc, rng) if rng.random() < 0.7
        else random_document(rng, max_entities=6, max_relations=6), rng)
    ref_graph, cand_graph = graph_of(ref_doc), graph_of(cand_doc)
    ref_keys = graph_keys(ref_graph, keys)
    cand_keys = graph_keys(cand_graph)
    assert radgraph_f1(cand_keys, ref_keys) == radgraph_f1_counter_oracle(
        cand_graph, ref_graph)
    assert radgraph_f1(ref_keys, ref_keys) == radgraph_f1_counter_oracle(
        ref_graph, ref_graph)
    for keys, graph in ((ref_keys, ref_graph), (cand_keys, cand_graph)):
        entities, relations = graph_key_counts(graph)
        assert len(keys.entities) == len(graph.entities) == entities.total()
        assert (len(keys.relations) == len(graph.relations)
                == relations.total())
        assert Counter(keys.entities) == entities
        assert Counter(keys.relations) == relations
    for pred, gold in ((cand_keys.entities, ref_keys.entities),
                       (cand_keys.relations, ref_keys.relations),
                       (ref_keys.entities, ref_keys.entities),
                       (ref_keys.relations, ref_keys.relations),
                       (cand, ref), (ref, ref), (ref, cand)):
        assert _multiset_f1(pred, gold) == multiset_f1_oracle(
            Counter(pred), Counter(gold))


tokens = st.lists(st.sampled_from("abc"), max_size=10)
vectors = st.lists(st.integers(0, 1), min_size=14, max_size=14)


@given(tokens, tokens, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_prepared_features_score_exactly_like_raw_inputs(cand, ref, seed):
    assert (bleu2(ngram_counts(cand), ngram_counts(ref))
            == bleu2(cand, ngram_counts(ref)) == bleu2(cand, ref))
    rng = random.Random(seed)
    pred = graph_of(random_document(rng, max_entities=6, max_relations=6))
    gold = graph_of(random_document(rng, max_entities=6, max_relations=6))
    assert (radgraph_f1(graph_keys(pred), graph_keys(gold))
            == radgraph_f1(pred, gold))
    np_rng = np.random.default_rng(seed)
    ea = np_rng.uniform(-1.0, 1.0, size=(int(np_rng.integers(1, 6)), 4))
    eb = np_rng.uniform(-1.0, 1.0, size=(int(np_rng.integers(1, 6)), 4))
    assert bert_score(unit_rows(ea), unit_rows(eb)) == bert_score(ea, eb)


@given(vectors, vectors, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_kernels_round_exactly_as_their_plain_formulas(va, vb, seed):
    """``chexbert_similarity`` sums ``map(mul, ...)`` and ``bert_score``
    divides sums where numpy's ``mean()`` ran: the floats are the plain
    formulas', bit for bit."""
    na = math.sqrt(sum(x * x for x in va))
    nb = math.sqrt(sum(x * x for x in vb))
    if na and nb:
        assert chexbert_similarity(va, vb) == (
            sum(x * y for x, y in zip(va, vb)) / (na * nb))
    np_rng = np.random.default_rng(seed)
    dim = int(np_rng.integers(1, 9))
    ea = np_rng.normal(size=(int(np_rng.integers(1, 40)), dim))
    eb = np_rng.normal(size=(int(np_rng.integers(1, 40)), dim))
    for cand, ref in ((ea, eb), (eb, ea), (ea, ea)):
        sim = unit_rows(cand).rows @ unit_rows(ref).rows.T
        precision = float(sim.max(axis=1).mean())
        recall = float(sim.max(axis=0).mean())
        assert bert_score(cand, ref) == (
            2 * precision * recall / (precision + recall))


@given(tokens, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_an_input_scored_against_itself_equals_an_equal_copy(toks, seed):
    """One prepared object on both sides counts its own size as its
    matches; an equal fresh copy goes through the per-key minimum."""
    prepared = ngram_counts(toks)
    assert bleu2(prepared, prepared) == bleu2(prepared, ngram_counts(toks))
    graph = graph_of(random_document(random.Random(seed), max_entities=6,
                                     max_relations=6))
    keys = graph_keys(graph)
    assert radgraph_f1(keys, keys) == radgraph_f1(keys, graph_keys(graph))


def _unit_rows_reference(arr):
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return arr / norms


def _bert_score_reference(cand, ref):
    sim = _unit_rows_reference(cand) @ _unit_rows_reference(ref).T
    precision = float(sim.max(axis=1).sum()) / sim.shape[0]
    recall = float(sim.max(axis=0).sum()) / sim.shape[1]
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _tied_matrix(rng, rows, dim):
    """Small integers (so rows tie and repeat), some rows all zero, scaled
    by one random factor."""
    arr = rng.integers(-2, 3, size=(rows, dim)).astype(float)
    arr[rng.random(rows) < 0.3] = 0.0
    return arr * rng.uniform(0.1, 10.0)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_unit_rows_and_bert_score_equal_their_numpy_method_formulas(seed):
    """The ufunc reduction in ``unit_rows`` gives the bits
    ``np.linalg.norm`` gives, and ``bert_score`` the value of the plain
    formula, on zero rows and ties too."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 9))
    shapes = [(int(rng.integers(1, 13)), dim) for _ in range(2)]
    tied = [_tied_matrix(rng, *shape) for shape in shapes]
    normal = [rng.normal(size=shape) for shape in shapes]
    for a, b in (tied, normal, (tied[0], normal[1]), (tied[0], tied[0])):
        assert (unit_rows(a).rows.tobytes()
                == _unit_rows_reference(a).tobytes())   # bit for bit
        assert bert_score(a, b) == _bert_score_reference(a, b)


# 0 or a magnitude in [2**-20, 2**20], so that scaling by 2**k for
# |k| <= 1000 is exact and stays a normal float
_EXACT_ENTRIES = st.builds(lambda sign, m: sign * m,
                           st.sampled_from([-1.0, 0.0, 1.0]),
                           st.floats(2.0 ** -20, 2.0 ** 20))


def _matrices(dim):
    return st.lists(st.lists(_EXACT_ENTRIES, min_size=dim, max_size=dim),
                    min_size=1, max_size=6).map(np.array)


@given(st.integers(1, 5).flatmap(lambda dim: st.tuples(_matrices(dim),
                                                       _matrices(dim))),
       st.integers(-1000, 1000))
@settings(max_examples=200, deadline=None)
def test_bert_score_is_bit_equal_under_power_of_two_scaling(pair, k):
    """Cosines do not depend on a row's scale: a matrix scaled by 2**k,
    far past where its squares overflow or underflow, scores bit for bit
    as itself, with no floating-point warning."""
    a, b = pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = np.ldexp(a, k)
        assert unit_rows(scaled).rows.tobytes() == unit_rows(a).rows.tobytes()
        assert bert_score(scaled, b) == bert_score(a, b)
        assert bert_score(b, scaled) == bert_score(b, a)


def test_unit_rows_scale_rows_of_any_finite_magnitude():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert unit_rows([[1e-170, 0.0]]).rows.tolist() == [[1.0, 0.0]]
        assert bert_score([[1e200, 1e200], [1, 0]],
                          [[1, 1], [1, 0]]) == pytest.approx(1.0)


def test_chexbert_similarity():
    a = [1] + [0] * 13
    b = [1, 1] + [0] * 12
    assert chexbert_similarity(a, a) == 1.0
    assert chexbert_similarity(a, b) == pytest.approx(1 / math.sqrt(2))
    zero = [0] * 14
    assert chexbert_similarity(zero, zero) == 1.0
    assert chexbert_similarity(zero, a) == 0.0
    assert chexbert_similarity(a, zero) == 0.0


def test_chexbert_validates_input():
    with pytest.raises(InputError, match="14"):
        chexbert_similarity([0] * 13, [0] * 14)
    with pytest.raises(InputError, match="0 or 1"):
        chexbert_similarity([2] + [0] * 13, [0] * 14)


def test_bert_score_hand_value():
    cand = np.array([[1.0, 0.0]])
    ref = np.array([[0.8, 0.6], [0.2, math.sqrt(0.96)]])
    # Best cosine for the candidate row is 0.8; recall averages 0.8, 0.2.
    assert bert_score(cand, ref) == pytest.approx(0.6153846153846154,
                                                  abs=1e-12)


def test_bert_score_identity_and_permutation():
    rng = np.random.default_rng(4)
    emb = rng.normal(size=(6, 8))
    assert bert_score(emb, emb) == pytest.approx(1.0, abs=1e-9)
    perm = emb[rng.permutation(6)]
    assert bert_score(emb, perm) == pytest.approx(1.0, abs=1e-9)
    other = rng.normal(size=(4, 8))
    assert bert_score(other, emb) == pytest.approx(bert_score(other, perm),
                                                   abs=1e-12)


# Scored against itself, this matrix gives 0.9999999999999999 through the
# general matrix product but 1.0 through NumPy's symmetric A @ A.T kernel
# (with the OpenBLAS build it was found on).
SYMMETRIC_TRAP = [
    [0.0, 0.9, 0.0, -0.7], [0.2, 0.7, -0.5, -0.1], [-0.6, 0.4, 0.6, -0.9],
    [-0.9, 0.5, -0.8, -0.8], [-1.0, -0.4, 0.1, 0.8], [0.7, -0.3, 0.9, -0.4],
    [0.3, -0.3, 1.0, 0.0], [-0.7, 0.4, -0.2, 0.4], [0.9, 0.7, -0.6, 0.7],
    [-1.0, -0.6, -0.8, -0.5], [0.4, -0.5, -0.9, -0.9], [0.7, -0.9, 1.0, 0.8]]


def test_bert_score_one_prepared_matrix_on_both_sides():
    emb = np.array(SYMMETRIC_TRAP)
    prepared = unit_rows(emb)
    assert bert_score(prepared, prepared) == bert_score(emb, emb)
    view = type(prepared)(prepared.rows[:])
    assert bert_score(prepared, view) == bert_score(emb, emb)


def test_bert_score_input_validation():
    ok = np.ones((2, 3))
    with pytest.raises(InputError, match="dimensions differ"):
        bert_score(ok, np.ones((2, 4)))
    with pytest.raises(InputError):
        bert_score(np.zeros((0, 3)), ok)
    with pytest.raises(InputError):
        bert_score(np.array([1.0, 2.0]), ok)
    with pytest.raises(InputError, match="non-finite"):
        bert_score(np.array([[np.nan, 1.0]]), np.ones((1, 2)))
    with pytest.raises(InputError, match="equal length"):
        bert_score([[1.0, 2.0], [3.0]], ok)


def test_radcliq_affine():
    components = {"a": 0.5, "b": 0.25}
    got = radcliq(components, {"a": -2.0, "b": 4.0}, bias=1.0)
    assert got == pytest.approx(1.0 - 1.0 + 1.0)


def test_radcliq_missing_component():
    with pytest.raises(ConfigError, match="bleu2"):
        radcliq({"bert_score": 0.5}, {"bleu2": 1.0})


def test_mean_ci_hand_case():
    report = mean_ci([1.0, 2.0, 3.0], name="demo")
    assert report == MetricReport("demo", 2.0, 1.96 / math.sqrt(3.0), 3)


def test_mean_ci_single_value_and_empty():
    assert mean_ci([4.2]).ci_halfwidth == 0.0
    with pytest.raises(InputError):
        mean_ci([])


@given(st.lists(st.floats(min_value=-100, max_value=100,
                          allow_nan=False), min_size=2, max_size=30))
@settings(max_examples=100, deadline=None)
def test_mean_ci_matches_formula(values):
    report = mean_ci(values)
    mean = sum(values) / len(values)
    sd = math.sqrt(sum((v - mean) ** 2 for v in values)
                   / (len(values) - 1))
    assert report.mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
    assert report.ci_halfwidth == pytest.approx(
        1.96 * sd / math.sqrt(len(values)), rel=1e-12, abs=1e-12)


def test_normal_cdf_frozen_values():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.0) == pytest.approx(0.84134474606854294859,
                                            abs=1e-12)
    assert normal_cdf(-1.0) == pytest.approx(0.15865525393145705141,
                                             abs=1e-12)
    assert normal_cdf(1.96) == pytest.approx(0.97500210485177956586,
                                             abs=1e-12)
    assert normal_cdf(-1.96) == pytest.approx(0.024997895148220434137,
                                              abs=1e-12)


def test_z_test_sample_proportion_standard_error():
    result = z_test_proportion(5, 23, 0.25)
    phat = 5 / 23
    se = math.sqrt(phat * (1 - phat) / 23)
    assert result.z == pytest.approx((phat - 0.25) / se, abs=1e-12)
    assert result.p_value == pytest.approx(1.0 - normal_cdf(result.z),
                                           abs=1e-15)


def test_z_test_degenerate_proportions():
    assert z_test_proportion(0, 10, 0.25).p_value == 1.0
    assert z_test_proportion(10, 10, 0.25).p_value == 0.0
    assert z_test_proportion(0, 10, 0.25).z == -math.inf


def test_z_test_domain_errors():
    with pytest.raises(InputError):
        z_test_proportion(5, 0, 0.25)
    with pytest.raises(InputError):
        z_test_proportion(-1, 10, 0.25)
    with pytest.raises(InputError):
        z_test_proportion(11, 10, 0.25)
    with pytest.raises(InputError):
        z_test_proportion(5, 10, 0.0)
    with pytest.raises(InputError):
        z_test_proportion(5, 10, 1.0)


@given(st.integers(min_value=2, max_value=60))
@settings(max_examples=60, deadline=None)
def test_z_test_p_decreases_in_x(n):
    previous = None
    for x in range(n + 1):
        p = z_test_proportion(x, n, 0.25).p_value
        if previous is not None:
            assert p <= previous + 1e-12
        previous = p


def test_load_pathology_vectors(tmp_path):
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps({"s1": [0, 1] * 7}))
    vectors = load_pathology_vectors(path)
    assert vectors["s1"] == tuple([0, 1] * 7)


def test_pathology_indicator_is_no_boolean(tmp_path):
    with pytest.raises(InputError) as info:
        as_pathology_vector([True] + [0] * 13)
    assert str(info.value) == "pathology indicator must be 0 or 1, got True"
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps({"s1": [0] * 14, "s2": [0] * 13 + [False]}))
    with pytest.raises(SchemaError) as info:
        load_pathology_vectors(path)
    assert str(info.value) == (f"{path}: study s2: pathology indicator must "
                               f"be 0 or 1, got False")


def test_load_pathology_vectors_errors(tmp_path):
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps({"s1": [0, 1]}))
    with pytest.raises(SchemaError, match="s1"):
        load_pathology_vectors(path)
    path.write_text("[]")
    with pytest.raises(SchemaError, match="object"):
        load_pathology_vectors(path)
    path.write_text("{nope")
    with pytest.raises(SchemaError, match="malformed"):
        load_pathology_vectors(path)
    with pytest.raises(IoError):
        load_pathology_vectors(tmp_path / "absent.json")


def test_load_embeddings(tmp_path):
    path = tmp_path / "emb.json"
    path.write_text(json.dumps({"s1": [[1.0, 2.0], [3.0, 4.0]]}))
    emb = load_embeddings(path)
    assert emb["s1"].rows.shape == (2, 2)
    path.write_text(json.dumps({"s1": []}))
    with pytest.raises(SchemaError, match="s1"):
        load_embeddings(path)


@pytest.mark.parametrize("rows", [[[1.0, 2.0], [3.0]], {"a": 1.0},
                                  [["1.5", "2"]], [[1.5, "2"]],
                                  [[None, 1.0]], [[{"a": 1.0}, 2.0]],
                                  [[True, False]], [[1.5, True]],
                                  [[False, 2.0]]])
def test_load_embeddings_rejects_rows_that_are_no_matrix(tmp_path, rows):
    path = tmp_path / "emb.json"
    path.write_text(json.dumps({"s1": [[1.0, 2.0]], "s2": rows}))
    with pytest.raises(SchemaError) as info:
        load_embeddings(path)
    assert str(info.value) == (f"{path}: study s2: embedding matrix must be "
                               f"rows of numbers of equal length")


def test_load_embeddings_rejects_differing_widths(tmp_path):
    path = tmp_path / "emb.json"
    path.write_text(json.dumps({"s1": [[1.0, 2.0, 3.0]], "s2": [[1.0, 2.0, 3.0]],
                                "s3": [[1.0, 2.0], [3.0, 4.0]]}))
    with pytest.raises(SchemaError) as info:
        load_embeddings(path)
    assert str(info.value) == (f"{path}: embedding widths differ: study s1 "
                               f"has 3, study s3 has 2")
