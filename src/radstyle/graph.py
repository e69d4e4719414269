"""Knowledge-graph data model for chest X-ray reports.

A report graph consists of anatomical/observational entities (with their
token span in the source report) connected by directed, typed relations.
This module covers ingestion from the JSON record format, the one place a
graph is checked, and the undirected-connectivity decomposition the
serializer builds on.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import SchemaError

log = logging.getLogger(__name__)

# the closed vocabularies, spelled as in the document; all else is refused
LABELS = frozenset({"ANAT-DP", "OBS-DP", "OBS-DA", "OBS-U"})
KINDS = frozenset({"modify", "located_at", "suggestive_of"})
# each word keyed to itself: graphs, and the graph keys made of them,
# hold these strings, one per word, not the decoded document's copies
_LABEL = {word: word for word in LABELS}
_KIND = {word: word for word in KINDS}


class Entity(NamedTuple):
    """A labelled text span; start_ix/end_ix are token indices in the report."""

    tokens: str
    label: str
    start_ix: int
    end_ix: int


class Relation(NamedTuple):
    source: str
    target: str
    kind: str


@dataclass(frozen=True)
class SectionMap:
    """Inclusive token-index ranges of the findings/impression sections."""

    findings_range: tuple[int, int] | None = None
    impression_range: tuple[int, int] | None = None

    def defines_any(self) -> bool:
        return self.findings_range is not None or self.impression_range is not None

    @staticmethod
    def contains(rng: tuple[int, int] | None, ix: int) -> bool:
        return rng is not None and rng[0] <= ix <= rng[1]


@dataclass(frozen=True)
class RadGraph:
    """Immutable report graph; ``entities`` is keyed by opaque entity id."""

    entities: dict[str, Entity] = field(default_factory=dict)
    relations: tuple[Relation, ...] = ()
    sections: SectionMap = field(default_factory=SectionMap)


def _derive_sections(text: str | None) -> SectionMap:
    """Locate FINDINGS/IMPRESSION header tokens (case-insensitive) and turn
    them into token ranges. Missing headers leave the range unset."""
    if not text:
        return SectionMap()
    # casefold adds or drops no whitespace and makes no ":": once is exact
    tokens = text.casefold().split()
    positions: dict[str, int] = {}
    for ix, token in enumerate(tokens):
        name = token.rstrip(":")
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


def radgraph_from_document(doc: dict) -> RadGraph:
    """Build a graph from an already-decoded ingestion document, checking
    every rule a graph must meet; nothing else in the package builds a
    ``RadGraph``.

    The document is an object keyed by entity id; each value carries
    "tokens", "label", "start_ix", "end_ix", and "relations" (a list of
    [kind, target_id] pairs). An optional sibling "text" field holds the
    source report. Other non-object top-level fields are ignored.
    """
    # Every graph of a run passes through here, so each check is a plain
    # test and its message is formatted only when the check fails.
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")

    text = doc.get("text")
    if "text" in doc and not isinstance(text, str):
        raise SchemaError('field "text" must be a string')

    entities: dict[str, Entity] = {}
    raw_relations: list[tuple[str, str, str]] = []
    for key, value in doc.items():
        if key == "text" or not isinstance(value, dict):
            continue
        eid = str(key)
        tokens = value.get("tokens")
        if not isinstance(tokens, str) or not tokens.strip():
            raise SchemaError(f"entity {eid}: missing or empty tokens")
        raw_label = value.get("label")
        if not isinstance(raw_label, str):
            raise SchemaError(f"entity {eid}: missing label")
        label = _LABEL.get(raw_label)
        if label is None:
            raise SchemaError(f"unknown entity label {raw_label!r}")
        start_ix = value.get("start_ix")
        end_ix = value.get("end_ix")
        if type(start_ix) is not int:
            raise SchemaError(f"entity {eid}: start_ix must be an integer")
        if type(end_ix) is not int:
            raise SchemaError(f"entity {eid}: end_ix must be an integer")
        if start_ix < 0:
            raise SchemaError(f"entity {eid}: negative start_ix")
        if start_ix > end_ix:
            raise SchemaError(
                f"entity {eid}: start_ix {start_ix} > end_ix {end_ix}")
        entities[eid] = Entity(tokens.strip(), label, start_ix, end_ix)

        rels = value.get("relations", [])
        if not isinstance(rels, list):
            raise SchemaError(f"entity {eid}: relations must be a list")
        for pair in rels:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise SchemaError(f"entity {eid}: relation entries must be "
                                  f"[kind, target] pairs")
            raw_relations.append((eid, str(pair[1]), str(pair[0])))

    relations: list[Relation] = []
    seen: set[tuple[str, str, str]] = set()
    for triple in raw_relations:
        source, target, raw_kind = triple
        kind = _KIND.get(raw_kind)
        if kind is None:
            raise SchemaError(f"unknown relation kind {raw_kind!r}")
        if target not in entities:
            raise SchemaError(f"dangling relation target {target}")
        if source == target:
            raise SchemaError(f"self-relation on entity {source}")
        if triple in seen:
            # Noisy extraction output repeats edges; keep one copy.
            log.warning("duplicate relation (%r, %r, %r) collapsed",
                        source, target, kind)
            continue
        seen.add(triple)
        relations.append(Relation(source, target, kind))

    return RadGraph(entities, tuple(relations), _derive_sections(text))


def weakly_connected_components(g: RadGraph) -> list[set[str]]:
    """Partition entity ids into undirected-connectivity components.

    Components are ordered by the minimum (start_ix, end_ix, id) of their
    members so the result is deterministic for equal graphs.
    """
    adjacency: dict[str, set[str]] = {eid: set() for eid in g.entities}
    for rel in g.relations:
        adjacency[rel.source].add(rel.target)
        adjacency[rel.target].add(rel.source)

    components: list[set[str]] = []
    visited: set[str] = set()
    for eid in sorted(g.entities):
        if eid in visited:
            continue
        component: set[str] = set()
        queue = deque([eid])
        visited.add(eid)
        while queue:
            node = queue.popleft()
            component.add(node)
            for neighbor in adjacency[node]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    queue.append(neighbor)
        components.append(component)

    def order_key(component: set[str]) -> tuple[int, int, str]:
        first = min((g.entities[i].start_ix, g.entities[i].end_ix, i)
                    for i in component)
        return first

    components.sort(key=order_key)
    return components
