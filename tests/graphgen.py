"""Seeded random ingestion documents for graph/serializer properties.

Documents avoid duplicate relation triples and self-relations so the
library and the test oracles see identical structures.
"""

from __future__ import annotations

import random

_LABELS = ("ANAT-DP", "OBS-DP", "OBS-DA", "OBS-U")
_KINDS = ("modify", "located_at", "suggestive_of")
_WORDS = ("lung", "heart", "clear", "opacity", "effusion", "edema", "left",
          "right", "lobe", "base", "apex", "silhouette", "contour", "chronic",
          "mild", "acute")


def random_document(rng: random.Random, max_entities: int = 10,
                    max_relations: int = 12,
                    with_text_prob: float = 0.5) -> dict:
    """One ingestion document: entities keyed by id, optional "text"."""
    n_entities = rng.randint(0, max_entities)
    text_words = None
    if rng.random() < with_text_prob:
        length = max(n_entities * 3 + 4, 8)
        text_words = [rng.choice(_WORDS) for _ in range(length)]
        if rng.random() < 0.8:
            text_words[0] = "FINDINGS"
            text_words[1] = ":"
            mid = length // 2
            text_words[mid] = "IMPRESSION"
            text_words[mid + 1] = ":"
    doc: dict = {}
    ids = [str(i + 1) for i in range(n_entities)]
    rng.shuffle(ids)
    limit = len(text_words) if text_words else max(3 * n_entities, 4)
    for eid in ids:
        n_words = rng.randint(1, 2)
        start = rng.randint(0, max(limit - n_words, 0))
        doc[eid] = {
            "tokens": " ".join(rng.choice(_WORDS) for _ in range(n_words)),
            "label": rng.choice(_LABELS),
            "start_ix": start,
            "end_ix": start + n_words - 1,
            "relations": [],
        }
    if n_entities >= 2:
        seen = set()
        for _ in range(rng.randint(0, max_relations)):
            source, target = rng.sample(ids, 2)
            kind = rng.choice(_KINDS)
            if (source, target, kind) in seen:
                continue
            seen.add((source, target, kind))
            doc[source]["relations"].append([kind, target])
    if text_words is not None:
        doc["text"] = " ".join(text_words)
    return doc


def perturb_document(doc: dict, rng: random.Random) -> dict:
    """A noisy copy of ``doc``: some entities dropped, relabeled, or
    retokenized; relations to dropped entities removed."""
    out: dict = {}
    kept = []
    for eid, value in doc.items():
        if eid == "text":
            continue
        roll = rng.random()
        if roll < 0.25:
            continue
        entry = dict(value)
        entry["relations"] = [list(pair) for pair in value["relations"]]
        if roll < 0.45:
            entry["label"] = rng.choice(_LABELS)
        elif roll < 0.6:
            entry["tokens"] = rng.choice(_WORDS)
            entry["end_ix"] = entry["start_ix"]
        out[eid] = entry
        kept.append(eid)
    kept_set = set(kept)
    for eid in kept:
        out[eid]["relations"] = [
            pair for pair in out[eid]["relations"]
            if str(pair[1]) in kept_set and rng.random() < 0.9]
    if "text" in doc:
        out["text"] = doc["text"]
    return out


def repeat_entities(doc: dict, rng: random.Random) -> dict:
    """A copy of ``doc`` in which some entities appear once more under a
    new id, with the same tokens, label and relations, so that their
    entity keys and relation keys repeat."""
    out = {eid: (dict(value, relations=[list(p) for p in value["relations"]])
                 if isinstance(value, dict) else value)
           for eid, value in doc.items()}
    entities = [eid for eid, value in doc.items() if isinstance(value, dict)]
    for i, eid in enumerate(rng.sample(entities,
                                       rng.randint(0, len(entities)))):
        out[f"{eid}r{i}"] = dict(
            out[eid], relations=[list(p) for p in out[eid]["relations"]])
    return out


def edges_of(doc: dict) -> list[tuple[str, str]]:
    edges = []
    for eid, value in doc.items():
        if eid == "text" or not isinstance(value, dict):
            continue
        for _, target in value["relations"]:
            edges.append((eid, str(target)))
    return edges
