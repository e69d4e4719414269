"""Seeded synthetic corpora of any size.

``radstyle.synthetic.make_synthetic_corpus`` draws unordered sets of one
to three bank entries, which caps it at 298 distinct studies. Here each
study is an ordered sequence of distinct bank entries, built through the
public ``make_study_document``; report order changes both the report
text and the serialization, so sequences of four entries already give
11,880 distinct studies. Reports and serializations are asserted unique
so the exact-text lookups the scorer relies on stay unambiguous.

The same workload and seed always give the same files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from radstyle.graph import radgraph_from_document
from radstyle.serialize import serialize
from radstyle.synthetic import make_study_document

from perfbench.workloads import Workload

BASELINE_TEXT = "No acute cardiopulmonary process ."
# Entries in the bank behind make_study_document (indices 0..11).
BANK_SIZE = 12


@dataclass(frozen=True)
class Corpus:
    dataset: Path
    graphs: Path
    embeddings: Path
    baseline: Path | None
    eval_serializations: tuple[str, ...]   # in dataset (= batch) order
    input_bytes: int


def findings_count(workload: Workload, index: int) -> int:
    """Findings per report cycle through the workload's range, so every
    seed gives the same mix of report lengths."""
    lo, hi = workload.findings
    return lo + index % (hi - lo + 1)


def _check_capacity(workload: Workload) -> None:
    n = workload.n_pool + workload.n_eval
    lo, hi = workload.findings
    per_length = math.ceil(n / (hi - lo + 1))
    if per_length > math.perm(BANK_SIZE, lo) // 2:
        raise ValueError(
            f"{workload.name}: {per_length} studies of {lo} findings leave "
            f"too few of the {math.perm(BANK_SIZE, lo)} distinct ones")


def make_records(workload: Workload, seed: int) -> tuple[list[dict], dict]:
    """Dataset records and graph documents, keyed by study id."""
    _check_capacity(workload)
    rng = random.Random(f"{workload.name}:{seed}")
    seen_reports: set[str] = set()
    seen_serializations: set[str] = set()
    records: list[dict] = []
    graphs: dict[str, dict] = {}
    for i in range(workload.n_pool + workload.n_eval):
        length = findings_count(workload, i)
        while True:
            sequence = tuple(rng.sample(range(BANK_SIZE), length))
            doc = make_study_document(sequence)
            if doc["text"] in seen_reports:
                continue
            rendered = serialize(radgraph_from_document(doc)).rendered
            if rendered not in seen_serializations:
                break
        seen_reports.add(doc["text"])
        seen_serializations.add(rendered)
        study_id = f"s{i:06d}"
        records.append({
            "study_id": study_id,
            "report": doc["text"],
            "split": "train" if i < workload.n_pool else "test",
            "serialization": rendered,
            "radiologist_id": f"r{i % 4}",
            "pathology_vector": [rng.randint(0, 1) for _ in range(14)],
        })
        graphs[study_id] = doc
    if not len(seen_reports) == len(seen_serializations) == len(records):
        raise RuntimeError("generated reports or serializations repeat")
    return records, graphs


def make_corpus(workload: Workload, seed: int, out_dir: Path) -> Corpus:
    """Write dataset.jsonl and its sidecars for one workload and seed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    records, graphs = make_records(workload, seed)
    np_rng = np.random.default_rng(
        [seed, sum(workload.name.encode())])
    # Four decimals keep the sidecar JSON quick to write for large pools.
    rows = np_rng.uniform(-1.0, 1.0, size=(len(records), workload.emb_rows,
                                           workload.emb_dim)).round(4)
    embeddings = {r["study_id"]: rows[i].tolist()
                  for i, r in enumerate(records)}

    dataset = out_dir / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records),
                       encoding="utf-8")
    graphs_path = out_dir / "graphs.json"
    graphs_path.write_text(json.dumps(graphs), encoding="utf-8")
    embeddings_path = out_dir / "embeddings.json"
    embeddings_path.write_text(json.dumps(embeddings), encoding="utf-8")
    baseline = None
    written = [dataset, graphs_path, embeddings_path]
    if workload.baseline:
        baseline = out_dir / "baseline.json"
        baseline.write_text(json.dumps(
            {r["study_id"]: BASELINE_TEXT for r in records
             if r["split"] == "test"}), encoding="utf-8")
        written.append(baseline)
    return Corpus(
        dataset, graphs_path, embeddings_path, baseline,
        tuple(r["serialization"] for r in records if r["split"] == "test"),
        sum(p.stat().st_size for p in written))
