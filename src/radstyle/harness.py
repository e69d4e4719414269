"""Experiment harness: datasets, scoring runs and result tables.

A dataset is a JSONL file of study records. Sidecar JSON files carry the
per-study resources that normally come from frozen models: report graphs,
pathology indicator vectors, and token embeddings. Generated reports are
scored by exact-text lookup into those same resources, so a mock client
that reproduces a reference report scores perfectly and anything else
simply drops out of the affected metrics.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Mapping, Sequence

from .client import (ClientConfig, EchoReportTransport, FixedReplyTransport,
                     HttpTransport, Transport, complete_batch,
                     request_headers)
from .config import HarnessConfig, MetricsConfig
from .errors import InputError, IoError, RadstyleError, SchemaError
from .graph import RadGraph, radgraph_from_document
from .jsonfiles import read_jsonl, read_study_map
from .metrics import (GraphKeys, MetricReport, PathologyVector, UnitRows,
                      as_pathology_vector, bert_score, bleu2,
                      chexbert_similarity, graph_keys, load_embeddings,
                      load_pathology_vectors, mean_ci, ngram_counts,
                      radcliq, radgraph_f1, tokenize)
from .prompting import (PromptChain, StylePair, build_prompt,
                        derive_selection_seed, select_examples)
from .serialize import serialize


@dataclass(frozen=True)
class StudyRecord:
    """One study: the reference report plus optional precomputed fields."""

    study_id: str
    report: str
    split: str = "train"
    serialization: str | None = None
    radiologist_id: str | None = None
    pathology_vector: PathologyVector | None = None


_RECORD_KEYS = frozenset(f.name for f in fields(StudyRecord))


def load_dataset(path) -> list[StudyRecord]:
    """Read study records from JSONL; blank lines are ignored.

    Errors name the file and the 1-based line. Study ids must be unique.
    """
    records: list[StudyRecord] = []
    seen: dict[str, int] = {}   # study id -> its line
    for lineno, doc in read_jsonl(path):
        try:
            records.append(_study_record(doc, seen))
        except RadstyleError as exc:
            raise SchemaError(f"{path}: line {lineno}: {exc}") from exc
        seen[doc["study_id"]] = lineno
    return records


def _study_record(doc, seen: Mapping[str, int]) -> StudyRecord:
    """The record of one dataset line, unless its study id is in ``seen``;
    its study id, split and radiologist id are interned."""
    if not isinstance(doc, dict):
        raise SchemaError("expected an object")
    unknown = sorted(set(doc) - _RECORD_KEYS)
    if unknown:
        raise SchemaError(f"unknown keys {unknown}")
    for key in ("study_id", "report"):
        if not isinstance(doc.get(key), str) or not doc[key].strip():
            raise SchemaError(f"{key} must be a non-empty string")
    sid = sys.intern(doc["study_id"])
    if sid in seen:
        raise SchemaError(f"duplicate study id {sid!r} "
                          f"(first seen on line {seen[sid]})")
    vector = None
    if doc.get("pathology_vector") is not None:
        vector = as_pathology_vector(doc["pathology_vector"])
    for key in ("split", "serialization", "radiologist_id"):
        value = doc.get(key)
        if value is not None and not isinstance(value, str):
            raise SchemaError(f"{key} must be a string")
    split = doc.get("split")
    radiologist = doc.get("radiologist_id")
    return StudyRecord(
        study_id=sid,
        report=doc["report"],
        split="train" if split is None else sys.intern(split),
        serialization=doc.get("serialization"),
        radiologist_id=(None if radiologist is None
                        else sys.intern(radiologist)),
        pathology_vector=vector,
    )


def split_records(records: Sequence[StudyRecord],
                  split: str) -> list[StudyRecord]:
    return [r for r in records if r.split == split]


def load_graph_documents(
        path, keep: Callable[[str, RadGraph], Any] = lambda _, graph: graph
        ) -> dict[str, Any]:
    """Read a JSON sidecar mapping study id to a report-graph document.

    Each study's graph is held only as ``keep(study_id, graph)``, made
    as soon as the graph is read; by default, the graph itself.
    """
    return read_study_map(
        path, lambda sid, doc: keep(sid, radgraph_from_document(doc)))


@dataclass
class Resources:
    """Per-study reference resources plus exact-text candidate lookups.

    The text-keyed maps resolve a generated report to the resources of
    the study whose reference text it reproduces verbatim; misses mean
    the affected metrics are unavailable for that item.

    Each study's graph is held only as its ``graph_keys`` and each
    embedding only as its ``unit_rows``; those and the pathology vectors
    are what ``radgraph_f1``, ``bert_score`` and ``chexbert_similarity``
    read, as they are. ``serializations`` holds the serialization of each
    graph ``build_resources`` was asked to serialize, since the graph
    itself is not kept.
    """

    graphs: dict[str, GraphKeys] = field(default_factory=dict)
    vectors: dict[str, PathologyVector] = field(default_factory=dict)
    embeddings: dict[str, UnitRows] = field(default_factory=dict)
    graph_by_text: dict[str, GraphKeys] = field(default_factory=dict)
    vector_by_text: dict[str, PathologyVector] = field(default_factory=dict)
    embedding_by_text: dict[str, UnitRows] = field(default_factory=dict)
    serializations: dict[str, str] = field(default_factory=dict)


def build_resources(records: Sequence[StudyRecord], cfg: HarnessConfig,
                    serialized: Collection[str] = ()) -> Resources:
    """The resources of ``records`` and the sidecars ``cfg`` names; the
    graph of each study named in ``serialized`` is also serialized. Equal
    entity keys, and equal relation keys, across the graphs are one
    object."""
    res = Resources()
    if cfg.graphs:
        keys: dict = {}   # each entity or relation key -> its one object

        def keep(sid: str, graph: RadGraph) -> GraphKeys:
            if sid in serialized:
                res.serializations[sid] = serialize(graph).rendered
            return graph_keys(graph, keys)
        res.graphs = load_graph_documents(cfg.graphs, keep)
    if cfg.vectors:
        res.vectors = load_pathology_vectors(cfg.vectors)
    if cfg.embeddings:
        res.embeddings = load_embeddings(cfg.embeddings)
    for record in records:
        if record.pathology_vector is not None:
            res.vectors.setdefault(record.study_id, record.pathology_vector)
    for record in records:
        sid = record.study_id
        if sid in res.graphs:
            res.graph_by_text.setdefault(record.report, res.graphs[sid])
        if sid in res.vectors:
            res.vector_by_text.setdefault(record.report, res.vectors[sid])
        if sid in res.embeddings:
            res.embedding_by_text.setdefault(record.report,
                                             res.embeddings[sid])
    return res


class Scorer:
    """Computes the configured metrics for one (generated, record) pair.

    A metric whose inputs are unavailable scores None and is excluded
    from that metric's aggregate, shrinking its effective n.

    RadGraph-F1, CheXbert similarity and BERTScore read the resources as
    they are (see ``Resources``): the study's own as the reference, and
    those the generated text looks up as the candidate. BLEU-2 reads the
    reference's tokens, made on the first call for its study and kept by
    study id, interned by ``ngram_counts``. A generation equal to its
    study's reference text is scored as those very tokens, which
    ``bleu2`` scores without counting; any other is tokenized afresh, not
    interned, and never kept. A study id must name one record
    throughout, as ``load_dataset`` guarantees.

    A generation that reproduces its study's reference text verbatim has
    scores that depend on the study alone, and a K-shot table asks for
    them once per row. So they are computed on the first such call, kept
    by study id (at most one entry per study) and returned as a copy on
    every later one; no other generation's scores are kept.
    """

    def __init__(self, cfg: MetricsConfig, resources: Resources) -> None:
        self.cfg = cfg
        needed = {n for n in cfg.names if n != "radcliq"}
        if "radcliq" in cfg.names:
            needed.update(cfg.radcliq_weights)
        self._bleu2 = "bleu2" in needed
        # study id -> the BLEU-2 tokens of its reference
        self._tokens: dict[str, tuple[str, ...]] = {}
        # study id -> the scores of its reference text as a generation
        self._reproduced: dict[str, dict[str, float | None]] = {}
        res = resources
        # metric -> (candidate resources by text, reference resources by
        # study id, metric). The lambdas name the functions of this
        # module, so each call finds whatever those names are bound to then.
        lookups = {
            "bert_score": (res.embedding_by_text, res.embeddings,
                           lambda cand, ref: bert_score(cand, ref)),
            "chexbert": (res.vector_by_text, res.vectors,
                         lambda cand, ref: chexbert_similarity(cand, ref)),
            "radgraph_f1": (res.graph_by_text, res.graphs,
                            lambda cand, ref: radgraph_f1(cand, ref).combined),
        }
        self._lookups = tuple((name, *lookups[name])
                              for name in sorted(needed) if name in lookups)

    def score(self, generated: str,
              record: StudyRecord) -> dict[str, float | None]:
        sid = record.study_id
        reproduced = generated == record.report
        if reproduced and sid in self._reproduced:
            return dict(self._reproduced[sid])
        base: dict[str, float | None] = {}
        if self._bleu2:
            ref = self._tokens.get(sid)
            if ref is None:
                ref = self._tokens[sid] = ngram_counts(tokenize(record.report))
            base["bleu2"] = bleu2(ref if reproduced else tokenize(generated),
                                  ref)
        for name, by_text, by_study, metric in self._lookups:
            cand = by_text.get(generated)
            ref = None if cand is None else by_study.get(sid)
            base[name] = None if ref is None else metric(cand, ref)
        out: dict[str, float | None] = {}
        for name in self.cfg.names:
            if name != "radcliq":
                out[name] = base[name]
            elif any(base[c] is None for c in self.cfg.radcliq_weights):
                out[name] = None
            else:   # radcliq reads only the weighted components of base
                out[name] = radcliq(base, self.cfg.radcliq_weights,
                                    self.cfg.radcliq_bias)
        if reproduced:
            self._reproduced[sid] = dict(out)
        return out


@dataclass(frozen=True)
class ResultRow:
    method: str
    shots: int | None
    n_items: int
    excluded: int
    metrics: dict[str, MetricReport | None]


@dataclass(frozen=True)
class ResultTable:
    metric_names: tuple[str, ...]
    rows: tuple[ResultRow, ...]


@dataclass(frozen=True)
class RunOutcome:
    """A run's table, and the spool that holds its items, one JSON line
    each, written in table order as they are scored; the next run with
    the same output settings overwrites it."""

    table: ResultTable
    spool: Path

    @property
    def failed_shots(self) -> tuple[int, ...]:
        """The shot count of each shot row in which every item failed:
        as ``run_generation`` describes, each such row sent requests and
        got no completion back."""
        return tuple(row.shots for row in self.table.rows
                     if row.shots is not None and row.excluded == row.n_items)


def aggregate_row(method: str, shots: int | None, n_items: int,
                  excluded: int,
                  values: Mapping[str, Sequence[float]]) -> ResultRow:
    """The row of ``n_items`` items, ``excluded`` of which failed, from
    each metric's scores that are not None, in item order."""
    return ResultRow(method, shots, n_items, excluded,
                     {name: mean_ci(scores, name) if scores else None
                      for name, scores in values.items()})


def render_table(table: ResultTable) -> str:
    """Fixed-width text table; cells are mean and CI half-width to three
    decimals. Full precision lives in the CSV rendering."""
    headers = ["method", "shots", "n", "excl", *table.metric_names]
    body: list[list[str]] = []
    for row in table.rows:
        cells = [row.method,
                 "-" if row.shots is None else str(row.shots),
                 str(row.n_items), str(row.excluded)]
        for name in table.metric_names:
            report = row.metrics.get(name)
            if report is None:
                cells.append("-")
            else:
                # + 0.0 turns a rounded -0.0 into 0.0 so near-zero means
                # do not render with a misleading sign
                mean = round(report.mean, 3) + 0.0
                half = round(report.ci_halfwidth, 3) + 0.0
                cells.append(f"{mean:.3f} ± {half:.3f}")
        body.append(cells)
    widths = [max(len(headers[i]), *(len(r[i]) for r in body))
              if body else len(headers[i]) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for cells in body:
        lines.append("  ".join(c.ljust(w)
                               for c, w in zip(cells, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_table_csv(table: ResultTable) -> str:
    """CSV rendering with per-metric mean/ci/n columns at full precision,
    so the table survives a parse round-trip bit for bit."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["method", "shots", "n", "excluded"]
    for name in table.metric_names:
        header.extend([f"{name}_mean", f"{name}_ci", f"{name}_n"])
    writer.writerow(header)
    for row in table.rows:
        cells = [row.method,
                 "" if row.shots is None else str(row.shots),
                 str(row.n_items), str(row.excluded)]
        for name in table.metric_names:
            report = row.metrics.get(name)
            if report is None:
                cells.extend(["", "", ""])
            else:
                cells.extend([repr(report.mean), repr(report.ci_halfwidth),
                              str(report.n)])
        writer.writerow(cells)
    return buf.getvalue()


def parse_table_csv(text: str) -> ResultTable:
    rows_in = list(csv.reader(io.StringIO(text)))
    if not rows_in:
        raise SchemaError("empty table")
    header = rows_in[0]
    if header[:4] != ["method", "shots", "n", "excluded"]:
        raise SchemaError("unrecognized table header")
    metric_cols = header[4:]
    if len(metric_cols) % 3 != 0:
        raise SchemaError("metric columns must come in mean/ci/n triples")
    names = tuple(metric_cols[i][: -len("_mean")]
                  for i in range(0, len(metric_cols), 3))
    rows: list[ResultRow] = []
    for cells in rows_in[1:]:
        metrics: dict[str, MetricReport | None] = {}
        for j, name in enumerate(names):
            mean_s, ci_s, n_s = cells[4 + 3 * j: 7 + 3 * j]
            if mean_s == "":
                metrics[name] = None
            else:
                metrics[name] = MetricReport(name, float(mean_s),
                                             float(ci_s), int(n_s))
        rows.append(ResultRow(cells[0],
                              None if cells[1] == "" else int(cells[1]),
                              int(cells[2]), int(cells[3]), metrics))
    return ResultTable(names, tuple(rows))


FIXED_REPLY = "No acute cardiopulmonary process."   # the fixed-mock reply


def make_transport(cfg: ClientConfig,
                   records: Sequence[StudyRecord]) -> Transport:
    """The transport that ``cfg.mode`` names; the identity mock maps each
    record's serialization to its report."""
    if cfg.mode == "http":
        return HttpTransport()
    if cfg.mode == "identity-mock":
        return EchoReportTransport({r.serialization: r.report
                                    for r in records if r.serialization})
    return FixedReplyTransport(FIXED_REPLY)


def check_disjoint(eval_records: Sequence[StudyRecord],
                   pool_records: Sequence[StudyRecord]) -> None:
    """Reject an eval study that is also in the example pool: its own
    report could be one of its examples."""
    overlap = ({r.study_id for r in eval_records}
               & {r.study_id for r in pool_records})
    if overlap:
        raise InputError(
            f"studies present in both pool and eval splits: {sorted(overlap)}")


def require_serializations(records: Sequence[StudyRecord],
                           label: str) -> None:
    """Reject records whose serialization is missing or blank."""
    missing = sorted(r.study_id for r in records
                     if not (r.serialization or "").strip())
    if missing:
        raise InputError(f"{label} records missing serializations: {missing}")


def example_pool(pool_records: Sequence[StudyRecord]) -> list[StylePair]:
    """The style pairs a K-shot prompt draws its examples from; every
    pool record must carry a serialization."""
    require_serializations(pool_records, "pool")
    return [StylePair(r.serialization, r.report) for r in pool_records]


def study_prompt(pool: Sequence[StylePair], seed: int, k: int,
                 study_id: str, text: str) -> PromptChain:
    """The chain sent for ``study_id`` at ``k`` shots: examples drawn from
    ``pool`` by a seed derived from (seed, k, study_id), then ``text``."""
    draw_seed = derive_selection_seed(seed, k, study_id)
    return build_prompt(select_examples(pool, k, draw_seed), text)


# evaluation mode -> its items' source: where its prompted text comes from
SOURCES = {"ser2rep": "ground_truth", "end2end": "predicted"}


# An in-process shot row is built, completed, scored and spooled, and the
# baseline row scored and spooled, this many eval studies at a time, so a
# row's chains, completions and items are never all held at once.
SLICE = 64


def spool_row(spool: Path, scorer: Scorer, names: Sequence[str],
              method: str, shots: int | None, source: str,
              parts: Iterable[Sequence[tuple]]) -> ResultRow:
    """Score one table row, append its items to ``spool`` and return it.

    ``parts`` yields the row a slice at a time, each item as ``(record,
    generated text, error)``; an item with an error is not scored. Each
    slice is spooled before the next is drawn. Of the row, only what
    ``aggregate_row`` reads is kept: its item and failed counts, and each
    of the ``names`` metrics' scores that are not None, in item order.
    """
    n_items = excluded = 0
    values: dict[str, list[float]] = {name: [] for name in names}
    for part in parts:
        items = []
        for record, generated, error in part:
            scores = scorer.score(generated, record) if error is None else {}
            items.append({"study_id": record.study_id, "method": method,
                          "shots": shots, "source": source,
                          "generated": generated, "scores": scores,
                          "error": error})
            excluded += error is not None
            for name, kept in values.items():
                if scores.get(name) is not None:
                    kept.append(scores[name])
        n_items += len(items)
        write_scores_jsonl(spool, items, "a")
    return aggregate_row(method, shots, n_items, excluded, values)


def _shot_item(record: StudyRecord, result) -> tuple:
    """The item of ``record`` given its request's result."""
    if isinstance(result, Exception):
        return record, None, str(result)
    return record, result.text, None


def run_generation(mode: str, eval_records: Sequence[StudyRecord],
                   pool_records: Sequence[StudyRecord], cfg: HarnessConfig,
                   scorer: Scorer, transport: Transport,
                   serializations: Mapping[str, str],
                   spool: Path) -> RunOutcome:
    """Generate and score a report for each eval study, one table row per
    shot count, each through ``spool_row``.

    On the mocks, which answer on this thread, a row's prompts are built
    and completed in one client batch ``SLICE`` eval studies at a time,
    as ``spool_row`` draws each slice. Over ``HttpTransport`` a row is one
    batch: a batch boundary would leave its workers idle while a retry
    waits out its backoff. An item is scored only if its request returned
    a completion. The spool and its directory are created after every
    input check and before the first request, so that an input error
    writes nothing and an output directory that cannot be created costs
    no request.

    "ser2rep" prompts with each study's own serialization, which every
    eval study must have. "end2end" prompts with the serialization of the
    study's graph, from ``serializations`` (see ``build_resources``); a
    study without one has no graph and becomes an error item, placed
    after the row's generated items, and one whose graph serializes to no
    text fails in place. With shots set, ``InputError`` is raised before
    any request unless some eval study has text to send. Each shot count
    must fit the pool, as ``evaluate`` checks.
    """
    check_disjoint(eval_records, pool_records)
    source = SOURCES[mode]
    pool_pairs = example_pool(pool_records)
    if mode == "ser2rep":
        require_serializations(eval_records, "eval")
    pairs: list[tuple[StudyRecord, str]] = []
    absent: list[StudyRecord] = []
    for record in eval_records:
        if mode == "ser2rep":
            pairs.append((record, record.serialization))
        elif record.study_id in serializations:
            pairs.append((record, serializations[record.study_id]))
        else:
            absent.append(record)
    if cfg.experiment.shots and not any(text.strip() for _, text in pairs):
        where = f"in {cfg.graphs}" if cfg.graphs else "(no graphs file set)"
        blank = " that serializes to any text" if pairs else ""
        raise InputError(f"no eval study has a graph{blank} {where}")
    if cfg.experiment.shots:   # refuse a bad credential before writing
        request_headers(cfg.client, transport)
    _make_directory(spool.parent)
    write_scores_jsonl(spool, ())
    # Only a transport that waits on the network gains from more workers;
    # the mocks answer at once, so they run on this thread.
    network = isinstance(transport, HttpTransport)
    workers = cfg.client.parallelism if network else 1
    size = len(pairs) if network else SLICE

    def parts(k: int):
        for start in range(0, len(pairs), size):
            part = pairs[start:start + size]
            chains = [study_prompt(pool_pairs, cfg.experiment.seed, k,
                                   record.study_id, text)
                      for record, text in part if text.strip()]
            results = iter(complete_batch(chains, cfg.client,
                                          parallelism=workers,
                                          transport=transport))
            yield [_shot_item(record, next(results)) if text.strip()
                   else (record, None, "evaluation serialization is empty")
                   for record, text in part]
        yield [(record, None, f"no graph for study {record.study_id}")
               for record in absent]

    rows = tuple(spool_row(spool, scorer, cfg.metrics.names, mode, k, source,
                           parts(k))
                 for k in cfg.experiment.shots)
    return RunOutcome(ResultTable(tuple(cfg.metrics.names), rows), spool)


def score_fixed_outputs(records: Sequence[StudyRecord],
                        outputs: Mapping[str, str], scorer: Scorer,
                        metric_names: Sequence[str], spool: Path) -> ResultRow:
    """Score a comparison system's outputs, keyed by study id, as the
    baseline row through ``spool_row``, ``SLICE`` items at a time; a
    study without an output is an error item in its place."""
    parts = ([(record, outputs[record.study_id], None)
              if record.study_id in outputs
              else (record, None, "no output for study")
              for record in records[start:start + SLICE]]
             for start in range(0, len(records), SLICE))
    return spool_row(spool, scorer, metric_names, "baseline", None,
                     "provided", parts)


def load_baseline(path) -> dict[str, str]:
    """Read a JSON file mapping study id to a fixed comparison output;
    each output is interned, so one given for many studies is kept once."""
    def output(_, text) -> str:
        if not isinstance(text, str):
            raise SchemaError("baseline output must be a string")
        return sys.intern(text)
    return read_study_map(path, output)


def evaluate(cfg: HarnessConfig, mode: str) -> RunOutcome:
    """Load everything named by the config and execute a full run.

    Every input, the baseline included, is read and checked before the
    first request is sent. The items go to the spool that
    ``cfg.output.path("spool")`` names, as ``run_generation`` describes,
    and the baseline row's items after them.

    The cyclic garbage collector is paused while the inputs load (decoded
    JSON holds no reference cycles, so a collection would only walk it
    again), and the loaded inputs are then frozen out of its collections,
    unless something was frozen before. The collector leaves as it came.
    """
    if mode not in SOURCES:
        raise InputError(f"unknown evaluation mode {mode!r}")
    enabled = gc.isenabled()
    freeze = gc.get_freeze_count() == 0
    gc.disable()
    try:
        records = load_dataset(cfg.dataset)
        pool_records = split_records(records, cfg.experiment.pool_split)
        eval_records = split_records(records, cfg.experiment.eval_split)
        if not eval_records:
            raise InputError(
                f"no records in eval split {cfg.experiment.eval_split!r}")
        most = max(cfg.experiment.shots, default=0)
        if most > len(pool_records):
            raise InputError(f"shots {most} exceeds the {len(pool_records)} "
                             f"studies in pool split "
                             f"{cfg.experiment.pool_split!r}")
        resources = build_resources(
            records, cfg,
            {r.study_id for r in eval_records} if mode == "end2end" else ())
        scorer = Scorer(cfg.metrics, resources)
        transport = make_transport(cfg.client, records)
        outputs = None
        if cfg.baseline:
            outputs = load_baseline(cfg.baseline)
        if outputs is not None and not any(r.study_id in outputs
                                           for r in eval_records):
            raise InputError(f"baseline {cfg.baseline} covers no study in "
                             f"eval split {cfg.experiment.eval_split!r}")
        if freeze:
            gc.freeze()
        if enabled:
            gc.enable()
        outcome = run_generation(mode, eval_records, pool_records, cfg,
                                 scorer, transport, resources.serializations,
                                 cfg.output.path("spool"))
        if outputs is not None:
            row = score_fixed_outputs(eval_records, outputs, scorer,
                                      cfg.metrics.names, outcome.spool)
            outcome = RunOutcome(
                ResultTable(outcome.table.metric_names,
                            outcome.table.rows + (row,)),
                outcome.spool)
        return outcome
    finally:
        if freeze:
            gc.unfreeze()
        if enabled:
            gc.enable()


def write_scores_jsonl(path, items: Iterable[dict], mode: str = "w") -> None:
    """Persist per-item scores, each item as the dict of its line, so
    every table cell can be audited; with ``mode`` "a", append them."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            for item in items:
                fh.write(json.dumps(item) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_scores_jsonl(path) -> list[dict]:
    return [doc for _, doc in read_jsonl(path)]


def _make_directory(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {path}: {exc}") from exc


def write_outputs(outcome: RunOutcome, cfg: HarnessConfig) -> dict[str, Path]:
    """Write the text and CSV tables, and rename the run's spool to the
    per-item scores file; returns the paths keyed by kind."""
    _make_directory(Path(cfg.output.directory))
    paths = {kind: cfg.output.path(kind)
             for kind in ("table_txt", "table_csv", "scores")}
    try:
        paths["table_txt"].write_text(render_table(outcome.table),
                                      encoding="utf-8")
        paths["table_csv"].write_text(render_table_csv(outcome.table),
                                      encoding="utf-8")
        outcome.spool.replace(paths["scores"])
    except OSError as exc:
        raise IoError(f"cannot write results: {exc}") from exc
    return paths
