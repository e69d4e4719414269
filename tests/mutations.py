#!/usr/bin/env python3
"""Deliberate faults in ``src/`` and the test that must catch each one.

    python3 tests/mutations.py                 # every entry
    python3 tests/mutations.py NAME [NAME...]  # the named entries

Run from anywhere; the repository is found from this file. The
repository's ``src``, ``tests`` and ``perfbench`` are copied once to a
temporary directory. Each entry replaces its ``old`` text, which must
occur exactly once in its file, by ``new`` there, runs its test with
pytest against the copy, and puts the file back. An entry is caught when
its test fails. The script prints one line per entry and exits 1 when
any entry survives or cannot be applied. It is not part of the test
suite, which only checks (``test_mutations.py``) that every entry still
applies to exactly one place.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    name: str
    file: str    # relative to the repository root
    old: str
    new: str
    test: str    # a pytest node id, relative to the repository root


MUTATIONS = (
    Mutation(
        "candidate-tokens-interned", "src/radstyle/harness.py",
        "else tokenize(generated),",
        "else ngram_counts(tokenize(generated)),",
        "tests/test_harness.py::test_scorer_interns_only_reference_tokens"),
    Mutation(
        "reference-token-memo-dropped", "src/radstyle/harness.py",
        "ref = self._tokens[sid] = ngram_counts(", "ref = ngram_counts(",
        "tests/test_harness.py::"
        "test_scorer_keeps_no_features_of_unknown_generations"),
    Mutation(
        "reproduced-candidate-tokenized-afresh", "src/radstyle/harness.py",
        "bleu2(ref if reproduced else tokenize(generated),",
        "bleu2(tokenize(generated),",
        "tests/test_harness.py::"
        "test_scorer_scores_a_reproduced_reference_once_per_study"),
    Mutation(
        "part-of-the-reference-scored-as-its-tokens",
        "src/radstyle/harness.py",
        "bleu2(ref if reproduced else",
        "bleu2(ref if generated in record.report else",
        "tests/test_harness.py::"
        "test_scorer_memo_matches_bare_metric_functions"),
    Mutation(
        "empty-multiset-against-itself-scores-zero", "src/radstyle/metrics.py",
        "    if pred is ref:\n        return 1.0",
        "    if pred is ref:\n        return float(len(pred) > 0)",
        "tests/test_metrics.py::"
        "test_flat_multisets_score_as_counter_intersections"),
    Mutation(
        "one-token-candidate-ignores-reference-bigrams",
        "src/radstyle/metrics.py",
        "p = 1.0 if len(reference) < n else 0.0",
        "p = 1.0 if len(reference) <= n else 0.0",
        "tests/test_metrics.py::"
        "test_flat_multisets_score_as_counter_intersections"),
    Mutation(
        "reference-tokens-kept-as-counter", "src/radstyle/metrics.py",
        "return tuple(map(sys.intern, tokens))",
        "return Counter(map(sys.intern, tokens))",
        "tests/test_metrics.py::"
        "test_flat_multisets_score_as_counter_intersections"),
    Mutation(
        "graph-keys-kept-as-counters", "src/radstyle/metrics.py",
        "return GraphKeys(tuple(keys.values()), relations)",
        "return GraphKeys(Counter(keys.values()), Counter(relations))",
        "tests/test_metrics.py::"
        "test_flat_multisets_score_as_counter_intersections"),
    Mutation(
        "relation-keys-left-unshared", "src/radstyle/metrics.py",
        "relations = tuple(map(shared.setdefault, relations, relations))",
        "relations = tuple(relations)",
        "tests/test_harness.py::"
        "test_scorer_references_share_one_object_per_key"),
    Mutation(
        "resources-keep-the-graph", "src/radstyle/harness.py",
        "return graph_keys(graph, keys)", "return graph",
        "tests/test_harness.py::"
        "test_build_resources_keeps_each_graph_as_its_keys"),
    Mutation(
        "every-graph-serialized", "src/radstyle/harness.py",
        "if sid in serialized:", "if sid:",
        "tests/test_harness.py::"
        "test_build_resources_keeps_each_graph_as_its_keys"),
    Mutation(
        "serialization-made-for-ser2rep", "src/radstyle/harness.py",
        '{r.study_id for r in eval_records} if mode == "end2end" else ()',
        "{r.study_id for r in eval_records}",
        "tests/test_harness.py::"
        "test_end_to_end_graphs_read_at_load_keep_each_item_in_its_place"),
    Mutation(
        "missing-graph-item-fails-in-place", "src/radstyle/harness.py",
        "            absent.append(record)",
        "            pairs.append((record, \"\"))",
        "tests/test_harness.py::"
        "test_end_to_end_graphs_read_at_load_keep_each_item_in_its_place"),
    Mutation(
        "raw-embedding-kept", "src/radstyle/metrics.py",
        '_scaled(_as_embedding("embedding", rows))',
        'UnitRows(_as_embedding("embedding", rows))',
        "tests/test_harness.py::"
        "test_build_resources_keeps_only_prepared_embeddings"),
    Mutation(
        "network-row-sliced", "src/radstyle/harness.py",
        "size = len(pairs) if network else SLICE", "size = SLICE",
        "tests/test_harness.py::test_a_network_row_is_one_client_batch"),
    Mutation(
        "absent-items-spooled-per-slice", "src/radstyle/harness.py",
        "                   for record, text in part]\n        yield [",
        "                   for record, text in part]\n            yield [",
        "tests/test_harness.py::test_slicing_a_row_changes_no_artifact_byte"),
    Mutation(
        "error-item-scored", "src/radstyle/harness.py",
        "scorer.score(generated, record) if error is None else {}",
        "scorer.score(generated or \"\", record)",
        "tests/test_harness.py::test_run_generation_keeps_item_order"),
    Mutation(
        "partly-failed-row-named-failed", "src/radstyle/harness.py",
        "row.excluded == row.n_items", "row.excluded <= row.n_items",
        "tests/test_harness.py::"
        "test_run_generation_names_the_rows_whose_every_request_failed"),
    Mutation(
        "failed-baseline-row-named-failed", "src/radstyle/harness.py",
        "if row.shots is not None and row.excluded", "if row.excluded",
        "tests/test_harness.py::"
        "test_failed_shots_are_the_shot_rows_with_every_item_excluded"),
    Mutation(
        "sidecar-study-id-given-twice-accepted", "src/radstyle/jsonfiles.py",
        "if study_id in out:", "if False:",
        "tests/test_jsonfiles.py::test_a_study_id_given_twice_is_refused"),
    Mutation(
        "step-ending-at-the-chunk-end-taken", "src/radstyle/jsonfiles.py",
        "if ended or out[0] < len(text):", "if ended or out[0] <= len(text):",
        "tests/test_chunked_reading.py::"
        "test_a_broken_sidecar_fails_in_chunks_as_it_does_whole"),
    Mutation(
        "selection-seed-from-other-digest-bytes", "src/radstyle/prompting.py",
        "digest[:8]", "digest[8:16]",
        "tests/test_prompting.py::test_selection_seed_is_hashlibs_digest"),
    # One entry per place a repeated string is interned as it is read.
    Mutation(
        "dataset-study-id-not-interned", "src/radstyle/harness.py",
        'sid = sys.intern(doc["study_id"])', 'sid = doc["study_id"]',
        "tests/test_harness.py::"
        "test_loaded_inputs_keep_one_object_per_repeated_string"),
    Mutation(
        "split-not-interned", "src/radstyle/harness.py",
        "else sys.intern(split),", "else split,",
        "tests/test_harness.py::"
        "test_loaded_inputs_keep_one_object_per_repeated_string"),
    Mutation(
        "radiologist-id-not-interned", "src/radstyle/harness.py",
        "else sys.intern(radiologist)),", "else radiologist),",
        "tests/test_harness.py::"
        "test_loaded_inputs_keep_one_object_per_repeated_string"),
    Mutation(
        "sidecar-study-id-not-interned", "src/radstyle/jsonfiles.py",
        "study_id = sys.intern(study_id)", "study_id = study_id",
        "tests/test_harness.py::"
        "test_loaded_inputs_keep_one_object_per_repeated_string"),
    Mutation(
        "baseline-output-not-interned", "src/radstyle/harness.py",
        "return sys.intern(text)", "return text",
        "tests/test_harness.py::"
        "test_loaded_inputs_keep_one_object_per_repeated_string"),
    Mutation(
        "reference-tokens-not-interned", "src/radstyle/metrics.py",
        "return tuple(map(sys.intern, tokens))", "return tuple(tokens)",
        "tests/test_harness.py::"
        "test_loaded_inputs_keep_one_object_per_repeated_string"),
)


def apply(text: str, mutation: Mutation) -> str:
    """``text`` with the mutation's ``old`` replaced; ``ValueError`` unless
    ``old`` occurs exactly once."""
    count = text.count(mutation.old)
    if count != 1:
        raise ValueError(f"{mutation.name}: old text occurs {count} times "
                         f"in {mutation.file}")
    return text.replace(mutation.old, mutation.new)


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTATIONS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTATIONS}
    if unknown:
        print(f"error: no mutation named {sorted(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutations_") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                        ".pytest_cache")
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        for mutation in chosen:
            path = copy / mutation.file
            original = path.read_text(encoding="utf-8")
            try:
                path.write_text(apply(original, mutation), encoding="utf-8")
            except ValueError as exc:
                print(f"not applied  {exc}")
                failed += 1
                continue
            try:
                run = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x",
                     "-p", "no:cacheprovider", mutation.test],
                    cwd=copy, env=env, capture_output=True, text=True)
            finally:
                path.write_text(original, encoding="utf-8")
            caught = run.returncode == 1   # tests ran and one failed
            failed += not caught
            verdict = ("caught" if caught
                       else f"SURVIVED (pytest exit {run.returncode})")
            print(f"{verdict:12} {mutation.name}: {mutation.test}",
                  flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
