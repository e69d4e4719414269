"""Runs ``radstyle evaluate`` on one workload and reports its metrics.

Untraced runs (``trace=False``) give the end-to-end metrics. Each
invocation is a fresh process of the unmodified command. Rounds of
set-up-only invocations (same corpus and mode, no shots, no baseline)
and one full invocation repeat until the time is up; a round's set-up
invocations take about ``SETUP_SHARE`` of its full one's time, and at
least one. The metrics are medians:

- ``setup_s``: wall time of a set-up-only invocation: configuration,
  dataset and sidecar loading, scorer and client construction.
- ``run_s``: wall time of a full invocation, spawn to exit.
- ``items_per_s``: items in scores.jsonl / (run_s - setup_s), per
  round: its full invocation against its set-up-only ones.
- ``scored_frac``: items scored / items attempted (1 - failed fraction).
- ``peak_rss_mb``: peak resident set size of the full invocation.

The traced run (``trace=True``) reports per-layer metrics from
``tracer.py`` and untraced full runs for the tracing overhead. Every
invocation passes through the correctness gate; one that fails counts as
failed and is not timed.
"""

from __future__ import annotations

import json
import os
import secrets
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from radstyle.errors import RadstyleError

from perfbench import gate, tracer
from perfbench.corpus import make_corpus
from perfbench.mock_server import expected_outcome, fault_schedule
from perfbench.workloads import PARALLELISM, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
KEY_ENV = "RADSTYLE_BENCH_API_KEY"
MAX_RETRIES = 2
MIN_REPS = 3
# Each round spends about this share of its full run's time on set-up-only
# invocations, and at least one, so that a workload whose set-up is cheap
# next to its full run gets more set-up samples.
SETUP_SHARE = 0.2
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "items_per_s": "1/s",
                    "scored_frac": "ratio", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_ms", "ms"),
                         ("_bytes", "bytes"), ("_ratio", "ratio"),
                         ("_per_item", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    problems: list[str]
    items: int = 0
    failed_items: int = 0
    server_log: list[dict] = field(default_factory=list)
    outdir: Path | None = None
    spans: Path | None = None


class Session:
    """One workload on one seed's corpus, in its own work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.corpus = make_corpus(workload, seed, work / "corpus")
        self.secret = "bench-" + secrets.token_hex(16)
        self.invocations = 0
        self.failed = 0
        records = [json.loads(line) for line in
                   self.corpus.dataset.read_text(encoding="utf-8").splitlines()]
        eval_records = [r for r in records if r["split"] == "test"]
        self.plan: dict = {}
        failures = set()
        if workload.client == "http":
            self.plan = fault_schedule(seed, self.corpus.eval_serializations,
                                       workload.shots)
            study_of = {r["serialization"]: r["study_id"] for r in records}
            failures = {(study_of[s], k) for (k, s), pattern in self.plan.items()
                        if expected_outcome(pattern, MAX_RETRIES)[1]}
        reports = {r["study_id"]: r["report"] for r in records}
        eval_ids = tuple(r["study_id"] for r in eval_records)
        self.expect_full = gate.Expectation(
            workload.mode, workload.shots, workload.baseline, eval_ids,
            reports, frozenset(failures))
        self.expect_setup = gate.Expectation(
            workload.mode, (), False, eval_ids, reports)
        self.env = {**os.environ, KEY_ENV: self.secret,
                    "PYTHONPATH": os.pathsep.join(
                        [str(SRC), os.environ.get("PYTHONPATH", "")]),
                    "NO_PROXY": "127.0.0.1,localhost",
                    "no_proxy": "127.0.0.1,localhost"}

    def _config(self, rep: Path, full: bool, endpoint: str | None) -> Path:
        w, c = self.workload, self.corpus
        client = {"mode": w.client, "parallelism": PARALLELISM,
                  "max_retries": MAX_RETRIES, "api_key_env": KEY_ENV}
        if endpoint:
            client["endpoint"] = endpoint
        doc = {"dataset": str(c.dataset), "graphs": str(c.graphs),
               "embeddings": str(c.embeddings), "client": client,
               "experiment": {"shots": list(w.shots) if full else [],
                              "seed": 0},
               "output": {"directory": str(rep / "out"), "prefix": "bench"}}
        if full and c.baseline:
            doc["baseline"] = str(c.baseline)
        path = rep / "config.json"      # JSON is valid YAML
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return path

    def _start_server(self, rep: Path) -> subprocess.Popen:
        cmd = [sys.executable, "-m", "perfbench.mock_server",
               "--dataset", str(self.corpus.dataset), "--seed", str(self.seed),
               "--shots", ",".join(map(str, self.workload.shots)),
               "--log", str(rep / "server.jsonl")]
        with open(rep / "server.err", "w") as err:
            server = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, stderr=err,
                                      text=True)
        return server

    def invoke(self, full: bool, traced: bool = False) -> Invocation:
        """Run one ``radstyle evaluate`` process and gate its outputs."""
        self.invocations += 1
        rep = self.work / f"rep{self.invocations:03d}"
        rep.mkdir(parents=True)
        server = None
        endpoint = None
        if full and self.workload.client == "http":
            server = self._start_server(rep)
            ready = server.stdout.readline().split()
            if len(ready) != 2 or ready[0] != "ready":
                _stop(server)
                raise RuntimeError("mock server did not start; see "
                                   f"{rep / 'server.err'}")
            endpoint = f"http://127.0.0.1:{ready[1]}/v1/chat/completions"
        config = self._config(rep, full, endpoint)
        argv = ["evaluate", "--mode", self.workload.mode, "--config",
                str(config)]
        spans = rep / "spans.json" if traced else None
        if traced:
            cmd = [sys.executable, str(ROOT / "perfbench" / "tracer.py"),
                   str(spans), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "radstyle.cli", *argv]
        try:
            code, wall, rss_kb = _run_child(cmd, self.env, rep)
        finally:
            if server is not None:
                _stop(server)
        result = Invocation(wall, rss_kb / 1024.0, [], outdir=rep / "out",
                            spans=spans)
        expect = self.expect_full if full else self.expect_setup
        try:
            verdict = gate.check_run(rep / "out", "bench", code, expect)
            result.problems.extend(verdict.problems)
            result.items, result.failed_items = verdict.items, verdict.failed
            if server is not None:
                result.server_log = [json.loads(line) for line in
                                     (rep / "server.jsonl").read_text(
                                         encoding="utf-8").splitlines()]
                keys = [(k, s) for k in self.workload.shots
                        for s in self.corpus.eval_serializations]
                result.problems.extend(gate.check_server_log(
                    result.server_log, self.plan, keys, MAX_RETRIES))
        except (OSError, ValueError, KeyError, IndexError, TypeError,
                RadstyleError) as exc:
            result.problems.append(f"unreadable outputs: {exc!r}")
        result.problems.extend(gate.find_secret(rep, self.secret))
        if result.problems:
            self.failed += 1
            print(f"gate failed for {rep.name}:", *result.problems[:5],
                  sep="\n  ", file=sys.stderr)
        return result


def _run_child(cmd, env, cwd: Path) -> tuple[int, float, int]:
    """Exit code, wall seconds and peak RSS (KiB) of one child process,
    started through ``spawn.py``."""
    result = cwd / "spawn.json"
    launcher = [sys.executable, str(ROOT / "perfbench" / "spawn.py"),
                str(result), str(CHILD_TIMEOUT_S), "--", *cmd]
    with open(cwd / "stdout.txt", "w") as out, \
            open(cwd / "stderr.txt", "w") as err:
        subprocess.run(launcher, env=env, cwd=cwd, stdout=out, stderr=err,
                       check=True, timeout=CHILD_TIMEOUT_S + 30)
    doc = json.loads(result.read_text(encoding="utf-8"))
    return doc["code"], doc["wall_s"], doc["maxrss_kb"]


def _stop(server: subprocess.Popen) -> None:
    server.stdin.close()
    try:
        server.wait(timeout=30)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
    server.stdout.close()


def end_to_end(session: Session, seconds: float) -> dict[str, float]:
    session.invoke(full=False)          # warm-up: bytecode and page cache
    rounds: list[tuple[list[Invocation], Invocation]] = []
    full_s = 0.0
    started = time.monotonic()
    while True:
        round_started = time.monotonic()
        setups = [session.invoke(full=False)]
        while sum(i.wall_s for i in setups) < SETUP_SHARE * full_s:
            setups.append(session.invoke(full=False))
        full = session.invoke(full=True)
        full_s = full.wall_s
        rounds.append((setups, full))
        now = time.monotonic()
        if (len(rounds) >= MIN_REPS
                and now - started + (now - round_started) > seconds):
            break
    timed = [([i.wall_s for i in setups if not i.problems], full)
             for setups, full in rounds if not full.problems]
    timed = [(walls, full) for walls, full in timed if walls]
    if not timed:
        return {}
    # The gate pins every run's items and failures to the same values.
    items, failed = timed[0][1].items, timed[0][1].failed_items
    # Throughput sets each full run against the set-up runs just before
    # it, so a slow spell of the machine slows both terms of the difference.
    return {
        "setup_s": statistics.median(w for walls, _ in timed for w in walls),
        "run_s": statistics.median(f.wall_s for _, f in timed),
        "items_per_s": statistics.median(
            items / (f.wall_s - statistics.median(walls))
            for walls, f in timed),
        "scored_frac": (items - failed) / items,
        "peak_rss_mb": statistics.median(f.rss_mb for _, f in timed),
    }


def per_layer(session: Session, seconds: float) -> dict[str, float]:
    started = time.monotonic()
    session.invoke(full=False)          # warm-up: bytecode and page cache
    traced = session.invoke(full=True, traced=True)
    if traced.problems:
        return {}
    fulls: list[Invocation] = []
    while True:
        rep_started = time.monotonic()
        fulls.append(session.invoke(full=True))
        now = time.monotonic()
        if (len(fulls) >= MIN_REPS
                and now - started + (now - rep_started) > seconds):
            break
    fulls = [i for i in fulls if not i.problems]
    if not fulls:
        return {}
    out = tracer.derive(json.loads(traced.spans.read_text(encoding="utf-8")))
    out["harness.input_bytes"] = session.corpus.input_bytes
    out["harness.output_bytes"] = sum(
        p.stat().st_size for p in traced.outdir.iterdir())
    out["client.connections_opened"] = len(
        {e["conn"] for e in traced.server_log})
    out["trace.overhead_s"] = traced.wall_s - statistics.median(
        i.wall_s for i in fulls)
    return out


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        work_root: Path) -> dict:
    """One benchmark run: correct, attempted, failed and metrics."""
    work = work_root / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        session = Session(workload, seed, work)
        measure = per_layer if trace else end_to_end
        values = measure(session, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    unit = per_layer_unit if trace else END_TO_END_UNITS.get
    return {
        "correct": session.failed == 0 and bool(values),
        "attempted": session.invocations,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in values.items()},
    }
