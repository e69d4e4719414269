"""Render a report graph into its dense, style-free text form.

Each weakly connected component becomes one text span: entities in report
order, with "no" prepended to definitely-absent observations and "maybe"
to uncertain ones. Spans are stratified into findings/impression by where
their entities sit in the source report, or unified when the report has no
recognizable sections, then joined with ``DELIMITER`` under their headers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .graph import RadGraph, SectionMap, weakly_connected_components

Section = Literal["findings", "impression", "unified"]


@dataclass(frozen=True)
class ComponentSpan:
    text: str
    section: Section
    min_start_ix: int


@dataclass(frozen=True)
class Serialization:
    findings: tuple[ComponentSpan, ...]
    impression: tuple[ComponentSpan, ...]
    unified: tuple[ComponentSpan, ...]
    rendered: str

    def spans(self) -> tuple[ComponentSpan, ...]:
        return self.findings + self.impression + self.unified


_KEYWORD = {"OBS-DA": "no", "OBS-U": "maybe"}
FINDINGS_HEADER = "findings:"
IMPRESSION_HEADER = "impression:"
DELIMITER = ". "   # between spans and between sections


def section_of_component(ids: set[str], g: RadGraph) -> Section:
    """Assign a component to the section holding most of its entities.

    Entities outside both ranges count toward findings, and findings wins
    ties, so impression requires a strict majority inside its range.
    The caller renders a graph without section ranges as unified.
    """
    votes_impression = 0
    votes_findings = 0
    for eid in ids:
        start = g.entities[eid].start_ix
        if SectionMap.contains(g.sections.impression_range, start):
            votes_impression += 1
        else:
            votes_findings += 1
    if votes_impression > votes_findings:
        return "impression"
    return "findings"


def serialize_component(ids: set[str], g: RadGraph) -> ComponentSpan:
    """Render one of ``weakly_connected_components(g)``: entities sorted by
    report position, joined by single spaces, keywords prepended."""
    # label breaks (start, end, tokens) ties so order never depends on
    # set iteration; full-key ties render identically either way
    entities = sorted((g.entities[i] for i in ids),
                      key=lambda e: (e.start_ix, e.end_ix, e.tokens, e.label))
    parts = []
    for entity in entities:
        keyword = _KEYWORD.get(entity.label)
        parts.append(f"{keyword} {entity.tokens}" if keyword else entity.tokens)
    section = (section_of_component(ids, g) if g.sections.defines_any()
               else "unified")
    return ComponentSpan(" ".join(parts), section, entities[0].start_ix)


def serialize(g: RadGraph) -> Serialization:
    """Serialize a whole graph; deterministic for equal graphs.
    The graph is taken as ``radgraph_from_document`` checked it."""
    spans = [serialize_component(component, g)
             for component in weakly_connected_components(g)]
    findings = tuple(s for s in spans if s.section == "findings")
    impression = tuple(s for s in spans if s.section == "impression")
    unified = tuple(s for s in spans if s.section == "unified")

    if unified:
        rendered = DELIMITER.join(s.text for s in unified)
    else:
        parts = []
        for header, section_spans in ((FINDINGS_HEADER, findings),
                                      (IMPRESSION_HEADER, impression)):
            if not section_spans:
                continue
            body = DELIMITER.join(s.text for s in section_spans)
            parts.append(f"{header} {body}")
        rendered = DELIMITER.join(parts)

    return Serialization(findings, impression, unified, rendered)
