"""Traced ``radstyle evaluate``: spans at each layer boundary.

Run as a script, in a fresh process like the untimed runs:

    python3 perfbench/tracer.py SPANS.json -- evaluate --mode M --config C

It rebinds, in this process only, the names through which
``radstyle.cli``, ``radstyle.harness`` and ``radstyle.client`` call into
each layer, runs ``radstyle.cli.main`` unmodified, and writes the spans
(id, name, start, end, parent, item, thread, failed) and counters when
the run ends. Items are named ``<study id>/<shots>``. ``derive`` turns
the spans into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module attribute through which the caller reaches it, span name)
_FUNCTIONS = (
    ("cli", "load_config", "config.load_config"),
    ("cli", "evaluate", "harness.evaluate"),
    ("cli", "write_outputs", "harness.write_outputs"),
    ("harness", "load_dataset", "harness.load_dataset"),
    ("harness", "build_resources", "harness.build_resources"),
    ("harness", "load_graph_documents", "harness.load_graph_documents"),
    ("harness", "radgraph_from_document", "graph.radgraph_from_document"),
    ("harness", "load_embeddings", "metrics.load_embeddings"),
    ("harness", "serialize", "serialize.serialize"),
    ("harness", "tokenize", "metrics.tokenize"),
    ("harness", "bleu2", "metrics.bleu2"),
    ("harness", "bert_score", "metrics.bert_score"),
    ("harness", "chexbert_similarity", "metrics.chexbert_similarity"),
    ("harness", "radgraph_f1", "metrics.radgraph_f1"),
    ("harness", "mean_ci", "metrics.mean_ci"),
    ("harness", "aggregate_row", "harness.aggregate_row"),
)


class Tracer:
    """Spans kept in memory; parents follow a per-thread stack, and a
    worker thread's outermost span hangs off the batch that started it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.batch: tuple[int, str | None] | None = None
        self.shots: int | str | None = None
        self.chain_items: dict[int, str | None] = {}
        self.last_item: str | None = None
        self._count_lock = threading.Lock()

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, item=None):
        stack = self._stack()
        parent = stack[-1] if stack else self.batch
        if item is None and parent is not None:
            item = parent[1]
        span_id = next(self._ids)
        stack.append((span_id, item))
        failed = False
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent else None, item,
                               threading.get_ident(), failed))

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def count(self, name: str, amount: int = 1) -> None:
        with self._count_lock:   # transports count from worker threads
            self.counters[name] += amount

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans,
                                    "counters": self.counters}),
                        encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Rebind layer entry points in the loaded radstyle modules."""
    from radstyle import cli, client, harness

    modules = {"cli": cli, "harness": harness, "client": client}
    for module, attr, name in _FUNCTIONS:
        setattr(modules[module], attr,
                tracer.wrap(name, getattr(modules[module], attr)))

    # derive_selection_seed is the first call made for each item; the
    # example selection and prompt build that follow belong to that item.
    real_seed = harness.derive_selection_seed
    real_select = harness.select_examples
    real_build = harness.build_prompt

    def derive_selection_seed(seed, k, study_id):
        tracer.last_item = f"{study_id}/{k}"
        return tracer.call("prompting.derive_selection_seed", real_seed,
                           (seed, k, study_id), {}, item=tracer.last_item)

    def select_examples(*args, **kwargs):
        return tracer.call("prompting.select_examples", real_select, args,
                           kwargs, item=tracer.last_item)

    def build_prompt(*args, **kwargs):
        chain = tracer.call("prompting.build_prompt", real_build, args,
                            kwargs, item=tracer.last_item)
        tracer.chain_items[id(chain)] = tracer.last_item
        tracer.count("prompting.chains_built")
        return chain

    harness.derive_selection_seed = derive_selection_seed
    harness.select_examples = select_examples
    harness.build_prompt = build_prompt

    real_batch = harness.complete_batch
    real_sleep = time.sleep

    def traced_sleep(seconds):
        tracer.call("client.retry_sleep", real_sleep, (seconds,), {})

    def complete_batch(chains, cfg, parallelism=4, transport=None,
                       sleep=real_sleep):
        tracer.shots = chains[0].k if chains else None
        stack = tracer._stack()

        def run():
            tracer.batch = stack[-1]
            try:
                return real_batch(chains, cfg, parallelism=parallelism,
                                  transport=transport, sleep=traced_sleep)
            finally:
                tracer.batch = None
        return tracer.call("client.complete_batch", run, (), {})

    harness.complete_batch = complete_batch

    real_complete = client.complete

    def complete(chain, *args, **kwargs):
        return tracer.call("client.complete", real_complete,
                           (chain,) + args, kwargs,
                           item=tracer.chain_items.get(id(chain)))

    client.complete = complete

    def traced_transport(base):
        class Traced(base):
            def post(self, url, headers, payload, timeout):
                tracer.count("prompting.request_bytes",
                             len(payload.encode("utf-8")))
                return tracer.call("client.transport", super().post,
                                   (url, headers, payload, timeout), {})
        return Traced

    for name in ("HttpTransport", "EchoReportTransport",
                 "FixedReplyTransport"):
        setattr(harness, name, traced_transport(getattr(harness, name)))

    class Scorer(harness.Scorer):
        def score(self, generated, record):
            scores = tracer.call(
                "harness.scorer_score", super().score, (generated, record),
                {}, item=f"{record.study_id}/{tracer.shots}")
            tracer.count("metrics.lookup_attempts", len(scores))
            tracer.count("metrics.lookup_hits",
                         sum(v is not None for v in scores.values()))
            return scores

    harness.Scorer = Scorer

    real_fixed = harness.score_fixed_outputs

    def score_fixed_outputs(*args, **kwargs):
        tracer.shots = "baseline"
        return tracer.call("harness.score_fixed_outputs", real_fixed, args,
                           kwargs)

    harness.score_fixed_outputs = score_fixed_outputs


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def derive(doc: dict) -> dict[str, float]:
    """Per-layer metrics from a traced run's spans and counters."""
    spans = [dict(zip(("id", "name", "start", "end", "parent", "item",
                       "thread", "failed"), s)) for s in doc["spans"]]
    counters = doc["counters"]
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        children[span["parent"]].append(span)

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    def self_time(name: str) -> float:
        """Span time not covered by the span's children."""
        return sum((s["end"] - s["start"])
                   - sum(c["end"] - c["start"] for c in children[s["id"]])
                   for s in by_name[name])

    out: dict[str, float] = {}
    for name in ("config.load_config", "harness.load_dataset",
                 "harness.load_graph_documents",
                 "graph.radgraph_from_document", "metrics.load_embeddings",
                 "serialize.serialize", "prompting.derive_selection_seed",
                 "prompting.select_examples", "prompting.build_prompt",
                 "harness.scorer_score", "metrics.tokenize", "metrics.bleu2",
                 "metrics.bert_score", "metrics.chexbert_similarity",
                 "metrics.radgraph_f1", "metrics.mean_ci",
                 "harness.aggregate_row", "harness.write_outputs"):
        out[f"{name}_s"] = total(name)
    for name in ("graph.radgraph_from_document", "serialize.serialize",
                 "metrics.tokenize", "metrics.bleu2", "metrics.bert_score",
                 "metrics.chexbert_similarity", "metrics.radgraph_f1"):
        out[f"{name}_calls"] = calls(name)
    out["harness.scorer_calls"] = calls("harness.scorer_score")
    out["harness.build_resources_self_s"] = self_time("harness.build_resources")
    out["prompting.chains_built"] = counters.get("prompting.chains_built", 0)
    out["prompting.request_bytes"] = counters.get("prompting.request_bytes", 0)

    completes = by_name["client.complete"]
    requests = calls("client.transport")
    out["client.batch_s"] = total("client.complete_batch")
    out["client.transport_s"] = total("client.transport")
    out["client.requests"] = requests
    out["client.retries"] = calls("client.retry_sleep")
    out["client.retry_wait_s"] = total("client.retry_sleep")
    out["client.requests_per_item"] = requests / len(completes) if completes else 0.0
    out["client.failed_items"] = sum(1 for s in completes if s["failed"])
    out["client.overhead_per_request_us"] = (
        self_time("client.complete") / requests * 1e6 if requests else 0.0)
    # Idle time of each worker thread between finishing one item and
    # starting the next (or between the batch start and its first item).
    queue_wait = 0.0
    batches = {s["id"]: s for s in by_name["client.complete_batch"]}
    for batch_id, batch in batches.items():
        per_thread: dict[int, list[dict]] = defaultdict(list)
        for span in children[batch_id]:
            if span["name"] == "client.complete":
                per_thread[span["thread"]].append(span)
        for items in per_thread.values():
            previous_end = batch["start"]
            for span in sorted(items, key=lambda s: s["start"]):
                queue_wait += span["start"] - previous_end
                previous_end = span["end"]
    out["client.queue_wait_s"] = queue_wait
    latencies = sorted((s["end"] - s["start"]) * 1000.0 for s in completes)
    out["client.completion_p50_ms"] = _percentile(latencies, 50)
    out["client.completion_p99_ms"] = _percentile(latencies, 99)
    out["client.completion_samples"] = len(latencies)

    attempts = counters.get("metrics.lookup_attempts", 0)
    out["metrics.lookup_attempts"] = attempts
    out["metrics.lookup_hit_ratio"] = (
        counters.get("metrics.lookup_hits", 0) / attempts if attempts else 0.0)
    return out


def main(argv: list[str]) -> int:
    spans_path = Path(argv[0])
    if argv[1] != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <radstyle args>")
    sys.path.insert(0, str(ROOT / "src"))
    from radstyle import cli

    tracer = Tracer()
    install(tracer)
    code = cli.main(argv[2:])
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
