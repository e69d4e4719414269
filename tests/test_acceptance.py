"""Release gate: one test per advertised guarantee, each printing a PASS
line with its measured runtime so a verbose run reads as a checklist.

Tolerances and budgets are fixed here on purpose; loosening them is a
release decision, not a test fix. Criterion 10 is documentation rather
than computation: published end-to-end scores for pipelines of this
shape depend on a trained content model, a live chat deployment, and
access-restricted clinical data, so this suite pins table shape and the
statistics machinery instead of those absolute values.
"""

import json
import math
import random
import time

import numpy as np

import radstyle.cli as cli
from radstyle.config import load_config
from radstyle.graph import radgraph_from_document, weakly_connected_components
from radstyle.harness import load_scores_jsonl, parse_table_csv
from radstyle.metrics import bleu2, mean_ci, radgraph_f1, z_test_proportion
from radstyle.prompting import (INSTRUCTION, SYSTEM_PROMPT, build_prompt,
                                wire_messages)
from radstyle.serialize import serialize, serialize_component
from radstyle.synthetic import make_synthetic_corpus

from graphgen import edges_of, perturb_document, random_document
from model_math import (LayerNormParams, attention_pool, cross_entropy, fuse,
                        grad_check, softmax)
from oracles import bleu2_oracle, radgraph_f1_oracle, wcc_oracle
from test_model_math import attention_sum_grad
from test_prompting import DATA, GOLDEN_EVAL, GOLDEN_EXAMPLES
from test_serialize import expected_component_text


def report(criterion: str, elapsed: float) -> None:
    print(f"PASS {criterion} ({elapsed * 1000:.1f} ms)")


def test_criterion_01_z_test_reproduction():
    cases = [(5, 23, 0.648), (5, 23, 0.648), (4, 23, 0.832),
             (14, 69, 0.835)]
    z_test_proportion(1, 2, 0.5)  # warm the call path before timing
    start = time.perf_counter()
    results = [z_test_proportion(x, n, 0.25) for x, n, _ in cases]
    elapsed = time.perf_counter() - start
    for (x, n, expected), result in zip(cases, results):
        assert abs(result.p_value - expected) <= 0.001, (x, n)
    assert elapsed < 0.001
    report("criterion 1: z-test reproduction", elapsed)


def test_criterion_02_serializer_property_suite():
    rng = random.Random(20240)
    start = time.perf_counter()
    for _ in range(1000):
        doc = random_document(rng, max_entities=10, max_relations=12)
        g = radgraph_from_document(doc)
        components = weakly_connected_components(g)
        s = serialize(g)
        spans = s.spans()
        assert len(spans) == len(components)
        assert sorted(span.text for span in spans) == sorted(
            expected_component_text(doc, comp) for comp in components)
        for comp in components:
            span_text = serialize_component(comp, g).text
            # position-sorted reconstruction doubles as the within-span
            # start_ix monotonicity check
            assert span_text == expected_component_text(doc, comp)
            for eid in comp:
                entity = g.entities[eid]
                if entity.label == "OBS-DA":
                    assert f"no {entity.tokens}" in span_text
                    assert f"no {entity.tokens}" in s.rendered
                elif entity.label == "OBS-U":
                    assert f"maybe {entity.tokens}" in span_text
                    assert f"maybe {entity.tokens}" in s.rendered
        again = serialize(radgraph_from_document(doc))
        assert again.rendered == s.rendered
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("criterion 2: serializer property suite", elapsed)


def test_criterion_03_wcc_oracle_equivalence():
    rng = random.Random(30303)
    start = time.perf_counter()
    for _ in range(1000):
        doc = random_document(rng)
        g = radgraph_from_document(doc)
        ours = {frozenset(c) for c in weakly_connected_components(g)}
        ids = [k for k in doc if k != "text"]
        theirs = set(wcc_oracle(ids, edges_of(doc)))
        assert ours == theirs
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    report("criterion 3: WCC oracle equivalence", elapsed)


def test_criterion_04_bleu2_oracle_equivalence():
    rng = random.Random(44)
    vocab = ["clear", "lungs", "no", "effusion", "stable", "mild"]
    start = time.perf_counter()
    for i in range(500):
        cand = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        assert abs(bleu2(cand, ref) - bleu2_oracle(cand, ref)) <= 1e-12
        if i < 100:
            seq = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            assert bleu2(seq, seq) == 1.0
    elapsed = time.perf_counter() - start
    report("criterion 4: BLEU-2 oracle equivalence", elapsed)


def test_criterion_05_radgraph_f1_oracle_equivalence():
    rng = random.Random(55055)
    start = time.perf_counter()
    for i in range(1000):
        ref_doc = random_document(rng, max_entities=8)
        pred_doc = (perturb_document(ref_doc, rng) if i % 2
                    else random_document(rng, max_entities=8))
        ours = radgraph_f1(radgraph_from_document(pred_doc),
                           radgraph_from_document(ref_doc))
        expected = radgraph_f1_oracle(pred_doc, ref_doc)
        for got, want in zip(ours, expected):
            assert abs(got - want) <= 1e-12
        identical = radgraph_f1(radgraph_from_document(ref_doc),
                                radgraph_from_document(ref_doc))
        assert tuple(identical) == (1.0, 1.0, 1.0)
    elapsed = time.perf_counter() - start
    report("criterion 5: report-graph F1 oracle equivalence", elapsed)


def test_criterion_06_model_math_checks():
    rng = np.random.default_rng(606)
    start = time.perf_counter()

    for _ in range(100):
        rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        a = softmax(rng.normal(scale=3.0, size=(rows, cols)))
        assert np.all(np.abs(a.sum(axis=1) - 1.0) < 1e-9)

    # eps must be small against the row variances for the identity bounds
    # to hold, so near-constant rows are resampled; they belong to the
    # eps-guard unit tests, not to this property
    params = LayerNormParams(eps=1e-8)
    checked = 0
    while checked < 100:
        rows, cols = int(rng.integers(1, 10)), int(rng.integers(2, 12))
        d_img = rng.normal(size=(rows, cols))
        d_txt = rng.normal(size=(rows, cols))
        if (d_img + d_txt).var(axis=1).min() < 1e-2:
            continue
        fused = fuse(d_img, d_txt, params)
        assert np.all(np.abs(fused.mean(axis=1)) < 1e-6)
        assert np.all(np.abs(fused.var(axis=1) - 1.0) < 1e-5)
        checked += 1

    for v in (2, 3, 8, 14, 100):
        probs = np.full((6, v), 1.0 / v)
        targets = np.eye(v)[[i % v for i in range(6)]]
        assert abs(cross_entropy(probs, targets) - math.log(v)) < 1e-9

    logits = rng.normal(size=(5, 7))
    one_hot = np.eye(7)[rng.integers(0, 7, size=5)]

    def ce_of_logits(z):
        return cross_entropy(softmax(z), one_hot)

    ce_grad = (softmax(logits) - one_hot) / logits.shape[0]
    assert grad_check(ce_of_logits, ce_grad, logits, h=1e-5) < 1e-4

    q = rng.normal(size=(3, 6))
    h = rng.normal(size=(5, 6))

    def pooled_sum(x):
        return float(attention_pool(x, h).sum())

    assert grad_check(pooled_sum, attention_sum_grad(q, h), q,
                      h=1e-5) < 1e-4

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("criterion 6: model-math checks", elapsed)


def test_criterion_07_prompt_template_conformance():
    start = time.perf_counter()
    assert SYSTEM_PROMPT == ("You are a helpful assistant that generates "
                             "chest x-ray reports from key words.")
    assert INSTRUCTION == ("Generate a chest x-ray report from the "
                           "following key words:")
    pool = [GOLDEN_EXAMPLES[i % 2] for i in range(10)]
    for k in (0, 1, 2, 5, 10):
        chain = build_prompt(pool[:k], "findings: stable appearance")
        assert len(chain.messages) == 2 + 2 * k
        assert chain.messages[0].content == SYSTEM_PROMPT
        for message in chain.messages[1::2]:
            assert message.content.startswith(INSTRUCTION + "\n")
    chain = build_prompt(GOLDEN_EXAMPLES, GOLDEN_EVAL)
    payload = json.dumps({"k": chain.k, "messages": wire_messages(chain)},
                         indent=2) + "\n"
    golden = (DATA / "prompt_k2.json").read_bytes()
    assert payload.encode("utf-8") == golden
    elapsed = time.perf_counter() - start
    report("criterion 7: prompt template conformance", elapsed)


def run_evaluate_cli(corpus_paths, capsys):
    argv = ["evaluate", "--mode", "ser2rep", "--config",
            str(corpus_paths["config"])]
    assert cli.main(argv) == 0
    capsys.readouterr()
    outdir = corpus_paths["config"].parent / "results"
    return {name: (outdir / f"mock_{name}").read_bytes()
            for name in ("table.txt", "table.csv", "scores.jsonl")}


def test_criterion_08_end_to_end_mock_pipeline(tmp_path, capsys):
    start = time.perf_counter()
    paths = make_synthetic_corpus(tmp_path, n_records=50, n_train=20,
                                  seed=0)
    first = run_evaluate_cli(paths, capsys)
    second = run_evaluate_cli(paths, capsys)
    assert first == second

    table = parse_table_csv(first["table.csv"].decode("utf-8"))
    shot_rows = [r for r in table.rows if r.method == "ser2rep"]
    assert [r.shots for r in shot_rows] == [0, 1, 5, 10]
    rendered = first["table.txt"].decode("utf-8")
    for row in shot_rows:
        for name in ("bleu2", "radgraph_f1"):
            cell = row.metrics[name]
            assert cell.mean == 1.0
            assert cell.ci_halfwidth == 0.0
            assert cell.n == row.n_items == 30
    assert rendered.count("1.000 ± 0.000") >= 8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("criterion 8: end-to-end mock pipeline", elapsed)


def test_criterion_09_ci_recomputation_audit(tmp_path, capsys):
    start = time.perf_counter()
    paths = make_synthetic_corpus(tmp_path, n_records=50, n_train=20,
                                  seed=0)
    files = run_evaluate_cli(paths, capsys)
    table = parse_table_csv(files["table.csv"].decode("utf-8"))
    outdir = paths["config"].parent / "results"
    items = load_scores_jsonl(outdir / "mock_scores.jsonl")
    audited = 0
    for row in table.rows:
        group = [i for i in items if i["method"] == row.method
                 and i["shots"] == row.shots]
        assert len(group) == row.n_items
        for name, cell in row.metrics.items():
            values = [i["scores"][name] for i in group
                      if i["scores"].get(name) is not None]
            if cell is None:
                assert values == []
                continue
            again = mean_ci(values, name)
            assert again.mean == cell.mean
            assert again.ci_halfwidth == cell.ci_halfwidth
            assert again.n == cell.n
            audited += 1
    # five metrics over four shot rows, plus the baseline's bleu2 cell
    assert audited == 21
    elapsed = time.perf_counter() - start
    report("criterion 9: CI recomputation audit", elapsed)


def test_criterion_10_absolute_scores_out_of_scope(tmp_path, capsys):
    """Published scores of this pipeline shape (for example combined
    report-graph F1 near 0.228 end to end, or 0.722 for zero-shot
    serialization-to-report) came from a trained content model, a live
    gpt-3.5-turbo deployment, and access-restricted clinical reports.
    None of those inputs exist here, so no test asserts them; the gate
    covers table shape and the statistics machinery instead."""
    start = time.perf_counter()
    paths = make_synthetic_corpus(tmp_path, n_records=20, n_train=12,
                                  seed=0)
    files = run_evaluate_cli(paths, capsys)
    table = parse_table_csv(files["table.csv"].decode("utf-8"))
    assert table.metric_names == ("radcliq", "radgraph_f1", "chexbert",
                                  "bleu2", "bert_score")
    assert [(r.method, r.shots) for r in table.rows] == [
        ("ser2rep", 0), ("ser2rep", 1), ("ser2rep", 5), ("ser2rep", 10),
        ("baseline", None)]
    # the identity mock's ceiling is nowhere near the published values,
    # which is exactly why they are not asserted anywhere in this suite
    for row in table.rows[:4]:
        assert row.metrics["radgraph_f1"].mean == 1.0
    elapsed = time.perf_counter() - start
    report("criterion 10: absolute published scores out of scope", elapsed)
