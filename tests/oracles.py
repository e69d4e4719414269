"""Independent reference implementations used only to check the library.

These deliberately avoid the library's data structures and algorithmic
choices: union-find instead of BFS, list removal instead of Counter
intersection, explicit loops instead of vectorized counting. The one
exception is the graph ingestion reference, which must build the
library's own ``RadGraph`` to be compared with it: it keeps the slower
first form of the checks that the library has since made cheaper. The
sidecar reader's reference decodes the whole document at once, as the
library's reader was first written. The example-draw seed's reference
takes its digest from ``hashlib``, where the library uses the
interpreter's built-in module. The ``Counter``-intersection
references keep the arithmetic the scoring metrics had when they held
``Counter``s, so that a flat multiset must score the very same float.
"""

from __future__ import annotations

import hashlib
import logging
import math
from collections import Counter

from radstyle.errors import RadstyleError, SchemaError
from radstyle.graph import Entity, RadGraph, Relation, SectionMap
from radstyle.jsonfiles import read_json

graph_log = logging.getLogger("oracles.graph")


def is_int(value) -> bool:
    """An int that is not a bool: JSON's ``true`` is no index."""
    return isinstance(value, int) and not isinstance(value, bool)


class UnionFind:
    def __init__(self, items) -> None:
        self.parent = {item: item for item in items}

    def find(self, item):
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def wcc_oracle(entity_ids, edges) -> list[frozenset]:
    """Weakly connected components via union-find; unordered result."""
    uf = UnionFind(entity_ids)
    for a, b in edges:
        uf.union(a, b)
    groups: dict = {}
    for item in entity_ids:
        groups.setdefault(uf.find(item), set()).add(item)
    return [frozenset(g) for g in groups.values()]


def tokenize_oracle(text: str) -> list[str]:
    """The tokenizer as first written: split on whitespace, then peel the
    punctuation marks .,:;()/ off each word's ends one at a time."""
    punct = set(".,:;()/")
    out: list[str] = []
    for word in text.lower().split():
        leading: list[str] = []
        while word and word[0] in punct:
            leading.append(word[0])
            word = word[1:]
        trailing: list[str] = []
        while word and word[-1] in punct:
            trailing.append(word[-1])
            word = word[:-1]
        out.extend(leading)
        if word:
            out.append(word)
        out.extend(reversed(trailing))
    return out


def bleu2_oracle(candidate, reference, eps: float = 1e-9) -> float:
    """Brute-force BLEU-2: count clipped matches by scanning, no Counter.

    Shares the library's contract: an order with no candidate n-grams is
    vacuously precise (1.0) only when the reference also has none.
    """
    if not candidate:
        return 0.0

    def grams(seq, n):
        return [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]

    precisions = []
    for n in (1, 2):
        cand = grams(candidate, n)
        ref = list(grams(reference, n))
        if not cand:
            p = 1.0 if not ref else 0.0
        else:
            matches = 0
            remaining = ref[:]
            for gram in cand:
                if gram in remaining:
                    remaining.remove(gram)
                    matches += 1
            p = matches / len(cand)
        precisions.append(p if p > 0.0 else eps)
    if len(candidate) < len(reference):
        bp = math.exp(1.0 - len(reference) / len(candidate))
    else:
        bp = 1.0
    return bp * math.sqrt(precisions[0] * precisions[1])


def _f1_from_lists(pred: list, ref: list) -> float:
    if not pred and not ref:
        return 1.0
    if not pred or not ref:
        return 0.0
    remaining = ref[:]
    matches = 0
    for key in pred:
        if key in remaining:
            remaining.remove(key)
            matches += 1
    precision = matches / len(pred)
    recall = matches / len(ref)
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def radgraph_f1_oracle(pred_doc: dict, ref_doc: dict) -> tuple:
    """Brute-force entity/relation/combined F1 straight off ingestion
    documents (dicts keyed by entity id, optional "text" sibling)."""

    def entity_keys(doc):
        return {eid: (value["tokens"].casefold(), value["label"])
                for eid, value in doc.items()
                if eid != "text" and isinstance(value, dict)}

    def relation_keys(doc, ekeys):
        out = []
        for eid, value in doc.items():
            if eid == "text" or not isinstance(value, dict):
                continue
            for kind, target in value.get("relations", []):
                out.append((ekeys[eid], ekeys[str(target)], kind))
        return out

    pred_e = entity_keys(pred_doc)
    ref_e = entity_keys(ref_doc)
    entity_f1 = _f1_from_lists(list(pred_e.values()), list(ref_e.values()))
    relation_f1 = _f1_from_lists(relation_keys(pred_doc, pred_e),
                                 relation_keys(ref_doc, ref_e))
    return entity_f1, relation_f1, (entity_f1 + relation_f1) / 2.0


def multiset_f1_oracle(pred: Counter, ref: Counter) -> float:
    """The F1 of two multisets, with matches summed from a Counter ``&``."""
    n_pred = sum(pred.values())
    n_ref = sum(ref.values())
    if n_pred == 0 and n_ref == 0:
        return 1.0
    if n_pred == 0 or n_ref == 0:
        return 0.0
    matches = sum((pred & ref).values())
    precision = matches / n_pred
    recall = matches / n_ref
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def bleu2_counter_oracle(candidate, reference, eps: float = 1e-9) -> float:
    """BLEU-2 with each order's clipped matches summed from a Counter
    ``&`` of the two sides' n-gram counts."""
    if not candidate:
        return 0.0
    precisions = []
    for n in (1, 2):
        cand = Counter(tuple(candidate[i:i + n])
                       for i in range(len(candidate) - n + 1))
        ref = Counter(tuple(reference[i:i + n])
                      for i in range(len(reference) - n + 1))
        total = len(candidate) - n + 1
        if total == 0:
            p = 1.0 if not ref else 0.0
        else:
            p = sum((cand & ref).values()) / total
        precisions.append(p if p > 0.0 else eps)
    brevity = (math.exp(1.0 - len(reference) / len(candidate))
               if len(candidate) < len(reference) else 1.0)
    return brevity * math.sqrt(precisions[0] * precisions[1])


def graph_key_counts(graph: RadGraph) -> tuple[Counter, Counter]:
    """The entity keys and relation keys of a graph, counted."""
    keys = {eid: (entity.tokens.casefold(), entity.label)
            for eid, entity in graph.entities.items()}
    return (Counter(keys.values()),
            Counter((keys[r.source], keys[r.target], r.kind)
                    for r in graph.relations))


def radgraph_f1_counter_oracle(pred: RadGraph, ref: RadGraph) -> tuple:
    """Entity, relation and combined F1 of two graphs, each F1 from
    ``multiset_f1_oracle`` of their counted keys."""
    pred_entities, pred_relations = graph_key_counts(pred)
    ref_entities, ref_relations = graph_key_counts(ref)
    entity_f1 = multiset_f1_oracle(pred_entities, ref_entities)
    relation_f1 = multiset_f1_oracle(pred_relations, ref_relations)
    return entity_f1, relation_f1, (entity_f1 + relation_f1) / 2.0


def retry_oracle(script, max_retries, reply):
    """The outcome of one request under the client's retry rule, worked
    out from its script alone.

    Attempt n plays ``script[n]``, and a 200 once the script runs out:
    200 answers ``reply``, "malformed" is a 200 whose body is no
    completion, "transport" a network failure, any other number that
    status. A 429, a 5xx or a network failure is tried again, at most
    ``max_retries`` times; anything else ends the request. Returns
    ``((reply, attempts) or (error class name, status), sends)``.
    """
    sends = 0
    while True:
        action = script[sends] if sends < len(script) else 200
        sends += 1
        if action == 200:
            return (reply, sends), sends
        if action == "malformed":
            return ("ProtocolError", None), sends
        if action == "transport":
            failure, again = ("TransportError", None), True
        else:
            failure, again = ("RequestError", action), (action == 429
                                                        or action >= 500)
        if not again or sends > max_retries:
            return failure, sends


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


# The document's vocabulary, written out here rather than read from
# ``radstyle.graph`` so that a change to the library's sets shows up.
_ORACLE_LABELS = ("ANAT-DP", "OBS-DP", "OBS-DA", "OBS-U")
_ORACLE_KINDS = ("modify", "located_at", "suggestive_of")


def _label_oracle(value: str) -> str:
    _require(value in _ORACLE_LABELS, f"unknown entity label {value!r}")
    return value


def _kind_oracle(value: str) -> str:
    _require(value in _ORACLE_KINDS, f"unknown relation kind {value!r}")
    return value


def derive_sections_oracle(text: str | None) -> SectionMap:
    """Section ranges as first written: each token stripped of trailing
    colons and casefolded on its own."""
    if not text:
        return SectionMap()
    tokens = text.split()
    positions: dict[str, int] = {}
    for ix, token in enumerate(tokens):
        name = token.rstrip(":").casefold()
        if name in ("findings", "impression") and name not in positions:
            positions[name] = ix
    if not positions:
        return SectionMap()
    last = len(tokens) - 1
    f_ix = positions.get("findings")
    i_ix = positions.get("impression")
    if f_ix is not None and i_ix is not None:
        if f_ix < i_ix:
            return SectionMap((f_ix, i_ix - 1), (i_ix, last))
        return SectionMap((f_ix, last), (i_ix, f_ix - 1))
    if f_ix is not None:
        return SectionMap(findings_range=(f_ix, last))
    return SectionMap(impression_range=(i_ix, last))


def radgraph_from_document_oracle(doc: dict) -> RadGraph:
    """The graph ingestion as first written: every check through
    ``_require`` with its message formatted up front, labels and kinds
    checked against the oracle's own vocabulary, and sections found by
    ``derive_sections_oracle``. Duplicate relations are logged to
    ``graph_log``."""
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")

    report_text = None
    if "text" in doc:
        _require(isinstance(doc["text"], str), 'field "text" must be a string')
        report_text = doc["text"]

    entities: dict[str, Entity] = {}
    raw_relations: list[tuple[str, str, str]] = []
    for key, value in doc.items():
        if key == "text" or not isinstance(value, dict):
            continue
        eid = str(key)
        tokens = value.get("tokens")
        _require(isinstance(tokens, str) and tokens.strip() != "",
                 f"entity {eid}: missing or empty tokens")
        label_raw = value.get("label")
        _require(isinstance(label_raw, str), f"entity {eid}: missing label")
        label = _label_oracle(label_raw)
        start_ix = value.get("start_ix")
        end_ix = value.get("end_ix")
        _require(is_int(start_ix), f"entity {eid}: start_ix must be an integer")
        _require(is_int(end_ix), f"entity {eid}: end_ix must be an integer")
        _require(start_ix >= 0, f"entity {eid}: negative start_ix")
        _require(start_ix <= end_ix,
                 f"entity {eid}: start_ix {start_ix} > end_ix {end_ix}")
        entities[eid] = Entity(tokens.strip(), label, start_ix, end_ix)

        rels = value.get("relations", [])
        _require(isinstance(rels, list), f"entity {eid}: relations must be a list")
        for pair in rels:
            _require(isinstance(pair, (list, tuple)) and len(pair) == 2,
                     f"entity {eid}: relation entries must be [kind, target] pairs")
            raw_relations.append((eid, str(pair[1]), str(pair[0])))

    relations: list[Relation] = []
    seen: set[tuple[str, str, str]] = set()
    for source, target, kind_raw in raw_relations:
        kind = _kind_oracle(kind_raw)
        if target not in entities:
            raise SchemaError(f"dangling relation target {target}")
        if source == target:
            raise SchemaError(f"self-relation on entity {source}")
        triple = (source, target, kind)
        if triple in seen:
            graph_log.warning("duplicate relation (%r, %r, %r) collapsed",
                              source, target, kind)
            continue
        seen.add(triple)
        relations.append(Relation(source, target, kind))

    return RadGraph(entities, tuple(relations),
                    derive_sections_oracle(report_text))


def read_study_map_oracle(path, convert):
    """The sidecar reader as first written: the whole file decoded at once
    by ``json.loads``, then each entry converted. A study id given twice
    keeps its last entry, where ``read_study_map`` refuses it."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object keyed by study id")
    out = {}
    for study_id, entry in doc.items():
        try:
            out[study_id] = convert(study_id, entry)
        except RadstyleError as exc:
            raise SchemaError(f"{path}: study {study_id}: {exc}") from exc
    return out


def derive_selection_seed_oracle(seed: int, k: int, study_id: str) -> int:
    """The first 8 bytes, big-endian, of ``hashlib``'s SHA-256 of
    ``"<seed>:<k>:<study id>"``, a lone surrogate encoded as itself."""
    key = f"{seed}:{k}:{study_id}".encode("utf-8", "surrogatepass")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
