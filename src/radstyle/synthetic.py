"""Deterministic synthetic corpora for offline runs and demos.

Each synthetic study gets a report text, the graph extracted from it (by
construction rather than by a model), a serialization consistent with
that graph, a pathology vector, and a token embedding matrix. Reports
and serializations are unique across studies so exact-text lookups are
unambiguous and the identity mock reproduces each reference exactly.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import yaml

from .errors import InputError
from .graph import radgraph_from_document
from .metrics import PATHOLOGY_DIM
from .serialize import serialize

# (anatomy phrase, observation phrase, observation label, relation kind)
_BANK = (
    ("lungs", "clear", "OBS-DP", "located_at"),
    ("pleural spaces", "effusion", "OBS-DA", "located_at"),
    ("cardiac silhouette", "enlarged", "OBS-U", "suggestive_of"),
    ("right lower lobe", "opacity", "OBS-DP", "located_at"),
    ("left costophrenic angle", "blunting", "OBS-DA", "located_at"),
    ("mediastinum", "widened", "OBS-U", "suggestive_of"),
    ("pulmonary vasculature", "congestion", "OBS-DA", "located_at"),
    ("osseous structures", "fracture", "OBS-DA", "located_at"),
    ("trachea", "midline", "OBS-DP", "located_at"),
    ("left upper lobe", "nodule", "OBS-U", "suggestive_of"),
    ("hemidiaphragms", "flattened", "OBS-DP", "located_at"),
    ("hila", "prominence", "OBS-U", "located_at"),
)

EMBEDDING_DIM = 8
N_RADIOLOGISTS = 4
# Each study takes a distinct set of one to three bank entries.
MAX_RECORDS = sum(math.comb(len(_BANK), k) for k in (1, 2, 3))


def make_study_document(combo: tuple[int, ...]) -> dict:
    """Build an ingestion document for one study from bank indices.

    The report text has findings and impression sections; each finding
    contributes an anatomy entity and a related observation entity, and
    the impression repeats the first observation as an isolated entity.
    """
    if not combo:
        raise InputError("combo must name at least one bank entry")
    words = ["FINDINGS", ":"]
    doc: dict = {}
    next_id = 1
    for bank_ix in combo:
        anat, obs, label, kind = _BANK[bank_ix]
        anat_words = anat.split()
        obs_words = obs.split()
        a_start = len(words)
        words.extend(anat_words)
        o_start = len(words)
        words.extend(obs_words)
        words.append(".")
        anat_id, obs_id = str(next_id), str(next_id + 1)
        next_id += 2
        doc[anat_id] = {"tokens": anat, "label": "ANAT-DP",
                        "start_ix": a_start,
                        "end_ix": a_start + len(anat_words) - 1,
                        "relations": []}
        doc[obs_id] = {"tokens": obs, "label": label, "start_ix": o_start,
                       "end_ix": o_start + len(obs_words) - 1,
                       "relations": [[kind, anat_id]]}
    words.extend(["IMPRESSION", ":"])
    _, obs, label, _ = _BANK[combo[0]]
    obs_words = obs.split()
    i_start = len(words)
    words.extend(obs_words)
    words.append(".")
    doc[str(next_id)] = {"tokens": obs, "label": label, "start_ix": i_start,
                         "end_ix": i_start + len(obs_words) - 1,
                         "relations": []}
    doc["text"] = " ".join(words)
    return doc


def make_synthetic_corpus(out_dir, n_records: int = 50, n_train: int = 20,
                          seed: int = 0) -> dict[str, Path]:
    """Write dataset.jsonl, sidecars, a baseline and a ready-to-run config.

    Returns the written paths keyed by kind. The config uses the
    identity-mock client, so `evaluate` runs offline and every metric
    scores its ceiling. At most ``MAX_RECORDS`` (298) studies fit.
    """
    if not 0 < n_train < n_records:
        raise InputError("need 0 < n_train < n_records")
    if n_records > MAX_RECORDS:
        raise InputError(
            f"n_records={n_records} exceeds the {MAX_RECORDS} distinct "
            f"studies the report bank can give")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    seen_combos: set[frozenset[int]] = set()
    records = []
    graphs: dict[str, dict] = {}
    embeddings: dict[str, list[list[float]]] = {}
    for i in range(n_records):
        while True:
            k = rng.randint(1, 3)
            combo = tuple(sorted(rng.sample(range(len(_BANK)), k)))
            if frozenset(combo) not in seen_combos:
                seen_combos.add(frozenset(combo))
                break
        study_id = f"s{i:04d}"
        doc = make_study_document(combo)
        graph = radgraph_from_document(doc)
        rendered = serialize(graph).rendered
        n_tokens = min(len(doc["text"].split()), 12)
        records.append({
            "study_id": study_id,
            "report": doc["text"],
            "split": "train" if i < n_train else "test",
            "serialization": rendered,
            "radiologist_id": f"r{i % N_RADIOLOGISTS}",
            "pathology_vector": [rng.randint(0, 1) for _ in range(PATHOLOGY_DIM)],
        })
        graphs[study_id] = doc
        embeddings[study_id] = [
            [rng.uniform(-1.0, 1.0) for _ in range(EMBEDDING_DIM)]
            for _ in range(n_tokens)]

    paths = {
        "dataset": out / "dataset.jsonl",
        "graphs": out / "graphs.json",
        "embeddings": out / "embeddings.json",
        "config": out / "config.yaml",
    }
    with open(paths["dataset"], "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    paths["graphs"].write_text(json.dumps(graphs, indent=1),
                               encoding="utf-8")
    paths["embeddings"].write_text(json.dumps(embeddings),
                                   encoding="utf-8")

    config = {
        "dataset": str(paths["dataset"]),
        "graphs": str(paths["graphs"]),
        "embeddings": str(paths["embeddings"]),
        "client": {"mode": "identity-mock"},
        "experiment": {"shots": [0, 1, 5, 10], "seed": 0},
        "output": {"directory": str(out / "results"), "prefix": "mock"},
    }
    baseline = {r["study_id"]: "No acute cardiopulmonary process ."
                for r in records if r["split"] == "test"}
    paths["baseline"] = out / "baseline.json"
    paths["baseline"].write_text(json.dumps(baseline, indent=1),
                                 encoding="utf-8")
    config["baseline"] = str(paths["baseline"])
    paths["config"].write_text(yaml.safe_dump(config, sort_keys=False),
                               encoding="utf-8")
    return paths
