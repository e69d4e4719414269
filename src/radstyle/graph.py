"""Knowledge-graph data model for chest X-ray reports.

A report graph consists of anatomical/observational entities (with their
token span in the source report) connected by directed, typed relations.
This module covers ingestion from the JSON record format, validation, and
the undirected-connectivity decomposition the serializer builds on.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .errors import ParseError, SchemaError
from .jsonfiles import is_int

log = logging.getLogger(__name__)


class EntityLabel(Enum):
    """Closed set of entity labels; anything else is a schema error."""

    ANAT_DP = "ANAT-DP"
    OBS_DP = "OBS-DP"
    OBS_DA = "OBS-DA"
    OBS_U = "OBS-U"

    @classmethod
    def from_string(cls, value: str) -> "EntityLabel":
        try:
            return cls(value)
        except ValueError:
            raise SchemaError(f"unknown entity label {value!r}") from None


class RelationKind(Enum):
    MODIFY = "modify"
    LOCATED_AT = "located_at"
    SUGGESTIVE_OF = "suggestive_of"

    @classmethod
    def from_string(cls, value: str) -> "RelationKind":
        try:
            return cls(value)
        except ValueError:
            raise SchemaError(f"unknown relation kind {value!r}") from None


@dataclass(frozen=True)
class Entity:
    """A labelled text span; start_ix/end_ix are token indices in the report."""

    id: str
    tokens: str
    label: EntityLabel
    start_ix: int
    end_ix: int


@dataclass(frozen=True)
class Relation:
    source: str
    target: str
    kind: RelationKind


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
    """Immutable report graph. Entity ids are opaque strings."""

    entities: dict[str, Entity] = field(default_factory=dict)
    relations: tuple[Relation, ...] = ()
    sections: SectionMap = field(default_factory=SectionMap)
    report_text: str | None = None


_SECTION_HEADERS = {"findings": "findings", "impression": "impression"}


def _derive_sections(report_text: str | None) -> SectionMap:
    """Locate FINDINGS/IMPRESSION header tokens (case-insensitive) and turn
    them into token ranges. Missing headers leave the range unset."""
    if not report_text:
        return SectionMap()
    tokens = report_text.split()
    positions: dict[str, int] = {}
    for ix, token in enumerate(tokens):
        name = _SECTION_HEADERS.get(token.rstrip(":").casefold())
        if name is not None and name not in positions:
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


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def radgraph_from_document(doc: dict) -> RadGraph:
    """Build a validated graph from an already-decoded ingestion document.

    The document is an object keyed by entity id; each value carries
    "tokens", "label", "start_ix", "end_ix", and "relations" (a list of
    [kind, target_id] pairs). An optional sibling "text" field holds the
    source report. Other non-object top-level fields are ignored.
    """
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")

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
        label = EntityLabel.from_string(label_raw)
        start_ix = value.get("start_ix")
        end_ix = value.get("end_ix")
        _require(is_int(start_ix), f"entity {eid}: start_ix must be an integer")
        _require(is_int(end_ix), f"entity {eid}: end_ix must be an integer")
        _require(start_ix >= 0, f"entity {eid}: negative start_ix")
        _require(start_ix <= end_ix,
                 f"entity {eid}: start_ix {start_ix} > end_ix {end_ix}")
        entities[eid] = Entity(eid, tokens.strip(), label, start_ix, end_ix)

        rels = value.get("relations", [])
        _require(isinstance(rels, list), f"entity {eid}: relations must be a list")
        for pair in rels:
            _require(isinstance(pair, (list, tuple)) and len(pair) == 2,
                     f"entity {eid}: relation entries must be [kind, target] pairs")
            raw_relations.append((eid, str(pair[1]), str(pair[0])))

    relations: list[Relation] = []
    seen: set[tuple[str, str, RelationKind]] = set()
    for source, target, kind_raw in raw_relations:
        kind = RelationKind.from_string(kind_raw)
        if target not in entities:
            raise SchemaError(f"dangling relation target {target}")
        if source == target:
            raise SchemaError(f"self-relation on entity {source}")
        triple = (source, target, kind)
        if triple in seen:
            # Noisy extraction output repeats edges; keep one copy.
            log.warning("duplicate relation (%s, %s, %s) collapsed",
                        source, target, kind.value)
            continue
        seen.add(triple)
        relations.append(Relation(source, target, kind))

    return RadGraph(entities, tuple(relations), _derive_sections(report_text),
                    report_text)


def to_payload(g: RadGraph) -> dict:
    """Inverse of ingestion: dump a graph back to the JSON record shape."""
    by_source: dict[str, list[list[str]]] = {eid: [] for eid in g.entities}
    for rel in g.relations:
        by_source[rel.source].append([rel.kind.value, rel.target])
    doc: dict = {}
    for eid, entity in g.entities.items():
        doc[eid] = {
            "tokens": entity.tokens,
            "label": entity.label.value,
            "start_ix": entity.start_ix,
            "end_ix": entity.end_ix,
            "relations": by_source[eid],
        }
    if g.report_text is not None:
        doc["text"] = g.report_text
    return doc


def validate(g: RadGraph) -> list[str]:
    """Return every invariant violation, in deterministic order.

    Entities are checked in id order, then relations in sequence order,
    then the section map. An empty list means the graph is valid.
    """
    problems: list[str] = []
    for eid in sorted(g.entities):
        entity = g.entities[eid]
        if entity.id != eid:
            problems.append(f"entity {eid}: id field {entity.id!r} disagrees with key")
        if entity.tokens.strip() == "":
            problems.append(f"entity {eid}: empty tokens")
        if entity.start_ix < 0:
            problems.append(f"entity {eid}: negative start_ix")
        if entity.start_ix > entity.end_ix:
            problems.append(
                f"entity {eid}: start_ix {entity.start_ix} > end_ix {entity.end_ix}")
    seen: set[tuple[str, str, RelationKind]] = set()
    for rel in g.relations:
        if rel.source not in g.entities:
            problems.append(f"dangling relation source {rel.source}")
        if rel.target not in g.entities:
            problems.append(f"dangling relation target {rel.target}")
        if rel.source == rel.target:
            problems.append(f"self-relation on entity {rel.source}")
        triple = (rel.source, rel.target, rel.kind)
        if triple in seen:
            problems.append(
                f"duplicate relation ({rel.source}, {rel.target}, {rel.kind.value})")
        seen.add(triple)
    f_rng, i_rng = g.sections.findings_range, g.sections.impression_range
    if f_rng is not None and i_rng is not None:
        if f_rng[0] <= i_rng[1] and i_rng[0] <= f_rng[1]:
            problems.append("findings and impression ranges overlap")
    return problems


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
