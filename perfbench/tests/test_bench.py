"""Self-tests of the benchmark: corpus generator, mock server, gate and
the metric names BENCHMARK.json declares.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, gate
from perfbench.corpus import make_records
from perfbench.mock_server import (RATE_LIMITED_COUNT, REJECTED_COUNT,
                                   SERVER_ERROR_COUNT, expected_outcome)
from perfbench.workloads import WORKLOADS, Workload
from radstyle.client import ClientConfig, HttpTransport, complete_batch
from radstyle.prompting import StylePair, build_prompt

ROOT = Path(__file__).resolve().parents[2]

TINY_LOCAL = Workload(
    name="tiny-local", mode="ser2rep", client="identity-mock",
    n_pool=12, n_eval=20, findings=(3, 4), emb_rows=4, emb_dim=4,
    shots=(0, 2), baseline=True)
TINY_REMOTE = Workload(
    name="tiny-remote", mode="end2end", client="http",
    n_pool=12, n_eval=30, findings=(3, 4), emb_rows=4, emb_dim=4,
    shots=(0, 2), baseline=False)
RETRIED = RATE_LIMITED_COUNT + SERVER_ERROR_COUNT


def test_generator_unique_and_seeded_at_largest_workload():
    largest = max(WORKLOADS.values(), key=lambda w: w.n_pool + w.n_eval)
    records, graphs = make_records(largest, seed=3)
    assert len(records) == largest.n_pool + largest.n_eval == len(graphs)
    assert len({r["report"] for r in records}) == len(records)
    assert len({r["serialization"] for r in records}) == len(records)
    assert sum(r["split"] == "test" for r in records) == largest.n_eval
    again, _ = make_records(largest, seed=3)
    assert again == records
    other, _ = make_records(largest, seed=4)
    assert other != records


def _drive_server(session: bench.Session, rep: Path, parallelism: int):
    rep.mkdir()
    server = session._start_server(rep)
    port = server.stdout.readline().split()[1]
    records = [json.loads(line) for line in
               session.corpus.dataset.read_text().splitlines()]
    pool = [StylePair(r["serialization"], r["report"]) for r in records
            if r["split"] == "train"]
    chains = [build_prompt(pool[:k], s) for k in session.workload.shots
              for s in session.corpus.eval_serializations]
    cfg = ClientConfig(endpoint=f"http://127.0.0.1:{port}/v1",
                       api_key_env=bench.KEY_ENV,
                       max_retries=bench.MAX_RETRIES)
    try:
        results = complete_batch(chains, cfg, parallelism=parallelism,
                                 transport=HttpTransport(),
                                 sleep=lambda seconds: None)
    finally:
        bench._stop(server)
    log = [json.loads(line) for line in
           (rep / "server.jsonl").read_text().splitlines()]
    return log, [isinstance(r, Exception) for r in results]


def test_fault_schedule_repeats_across_servers_and_parallelism(
        tmp_path, monkeypatch):
    monkeypatch.setenv(bench.KEY_ENV, "dummy-credential")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")
    session = bench.Session(TINY_REMOTE, 5, tmp_path / "work")
    keys = [(k, s) for k in TINY_REMOTE.shots
            for s in session.corpus.eval_serializations]
    expected_failed = [expected_outcome(session.plan.get(key, ()),
                                        bench.MAX_RETRIES)[1] for key in keys]
    schedules = []
    for i, parallelism in enumerate((2, 2, 1)):
        log, failed = _drive_server(session, tmp_path / f"run{i}",
                                    parallelism)
        assert gate.check_server_log(log, session.plan, keys,
                                     bench.MAX_RETRIES) == []
        assert failed == expected_failed
        schedules.append(sorted((e["request"], e["attempt"], e["status"])
                                for e in log))
    assert schedules[0] == schedules[1] == schedules[2]
    statuses = [status for _, _, status in schedules[0]]
    assert sorted(set(statuses)) == [200, 400, 429, 503]
    assert len(statuses) == len(keys) + RETRIED


def test_remote_run_passes_gate_with_predicted_failures(tmp_path):
    session = bench.Session(TINY_REMOTE, 1, tmp_path / "work")
    run = session.invoke(full=True)
    assert run.problems == []
    assert (run.failed_items == len(session.expect_full.failures)
            == REJECTED_COUNT)
    assert len(run.server_log) == run.items + RETRIED


def _rewrite_cell(path: Path, column: str, value: str) -> None:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    rows[1][rows[0].index(column)] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text(buf.getvalue())


def test_gate_rejects_corrupted_cell_and_leaked_credential(tmp_path):
    session = bench.Session(TINY_LOCAL, 2, tmp_path / "work")
    run = session.invoke(full=True)
    assert run.problems == []
    table = run.outdir / "bench_table.csv"
    original = table.read_text()

    _rewrite_cell(table, "bleu2_mean", repr(1.0 - 2 ** -52))
    verdict = gate.check_run(run.outdir, "bench", 0, session.expect_full)
    assert any("recomputes" in p for p in verdict.problems)

    table.write_text(original)
    assert gate.check_run(run.outdir, "bench", 0,
                          session.expect_full).problems == ()
    assert gate.find_secret(run.outdir, session.secret) == []
    (run.outdir / "notes.txt").write_text(f"key={session.secret}\n")
    assert gate.find_secret(run.outdir, session.secret)


def test_gate_rejects_unpredicted_exclusions(tmp_path):
    session = bench.Session(TINY_LOCAL, 2, tmp_path / "work")
    run = session.invoke(full=True)
    scores = run.outdir / "bench_scores.jsonl"
    items = [json.loads(line) for line in scores.read_text().splitlines()]
    items[0].update(generated=None, scores={}, error="injected")
    scores.write_text("".join(json.dumps(i) + "\n" for i in items))
    problems = gate.check_run(run.outdir, "bench", 0,
                              session.expect_full).problems
    assert any("schedule predicts" in p for p in problems)


def test_benchmark_json_declares_the_reported_metrics(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == bench.END_TO_END_UNITS)
    session = bench.Session(TINY_LOCAL, 0, tmp_path / "work")
    values = bench.per_layer(session, seconds=0)
    assert session.failed == 0
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == {name: bench.per_layer_unit(name) for name in values})


def test_peak_rss_excludes_the_benchmark_process(tmp_path):
    ballast = bytearray(150 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])      # touch every page
    code, _, rss_kb = bench._run_child([sys.executable, "-c", "pass"],
                                      None, tmp_path)
    assert code == 0
    assert rss_kb < 100 * 1024


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_fails_without_program_sources(tmp_path, trace):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ser2rep-instant",
         "--seed", "0", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
