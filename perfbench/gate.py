"""Correctness gate applied to every benchmark run of ``radstyle evaluate``.

A run passes when it exited 0, its table matches a recomputation from
``scores.jsonl`` at full precision, identity-generated items sit at the
metric ceiling, the baseline row scores BLEU-2 only, exactly the items
the mock server's fault schedule predicts were excluded, and the dummy
credential appears in no artifact.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from radstyle.harness import parse_table_csv
from radstyle.metrics import mean_ci

from perfbench.mock_server import expected_outcome, request_id

# Identity items reproduce the reference exactly: every similarity is 1,
# and the default composite is 4 - (sum of four similarities) = 0.
CEILING = {"bleu2": 1.0, "bert_score": 1.0, "chexbert": 1.0,
           "radgraph_f1": 1.0, "radcliq": 0.0}
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Expectation:
    method: str                        # "ser2rep" or "end2end"
    shots: tuple[int, ...]
    baseline: bool
    eval_ids: tuple[str, ...]
    reports: dict[str, str]            # study id -> reference report
    failures: frozenset[tuple[str, int]] = frozenset()   # (study id, shots)


@dataclass(frozen=True)
class Verdict:
    problems: tuple[str, ...]
    items: int = 0
    failed: int = 0


def check_run(outdir: Path, prefix: str, exit_code: int,
              expect: Expectation) -> Verdict:
    """Check one run's table and per-item scores against expectations."""
    if exit_code != 0:
        return Verdict((f"exit code {exit_code}",))
    problems: list[str] = []
    table = parse_table_csv(
        (outdir / f"{prefix}_table.csv").read_text(encoding="utf-8"))
    items = [json.loads(line) for line in
             (outdir / f"{prefix}_scores.jsonl").read_text(
                 encoding="utf-8").splitlines() if line.strip()]
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for item in items:
        groups[(item["method"], item["shots"])].append(item)

    want_rows = [(expect.method, k) for k in expect.shots]
    if expect.baseline:
        want_rows.append(("baseline", None))
    got_rows = [(row.method, row.shots) for row in table.rows]
    if got_rows != want_rows:
        problems.append(f"table rows {got_rows}, expected {want_rows}")
    if sorted(groups, key=str) != sorted(want_rows, key=str):
        problems.append(f"scores.jsonl groups {sorted(groups, key=str)}")

    for row, key in zip(table.rows, got_rows):
        group = groups.get(key, [])
        errors = sum(1 for item in group if item["error"] is not None)
        if row.n_items != len(group) or row.excluded != errors:
            problems.append(f"{key}: n/excluded {row.n_items}/"
                            f"{row.excluded} but scores.jsonl has "
                            f"{len(group)}/{errors}")
        if len(group) != len(expect.eval_ids):
            problems.append(f"{key}: {len(group)} items for "
                            f"{len(expect.eval_ids)} eval studies")
        for name in table.metric_names:
            cell = row.metrics[name]
            values = [item["scores"][name] for item in group
                      if item["scores"].get(name) is not None]
            if key[0] == "baseline" and (name == "bleu2") != bool(values):
                problems.append(f"baseline row scores {name}: {bool(values)}")
            if not values:
                if cell is not None:
                    problems.append(f"{key} {name}: cell without values")
                continue
            again = mean_ci(values, name)
            if cell != again:
                problems.append(f"{key} {name}: cell {cell} recomputes to "
                                f"{again}")

    failed = set()
    for item in items:
        if item["method"] == "baseline":
            continue
        if item["error"] is not None:
            failed.add((item["study_id"], item["shots"]))
            continue
        if item["generated"] != expect.reports.get(item["study_id"]):
            problems.append(f"{item['study_id']}/{item['shots']}: generated "
                            "text is not the reference report")
        for name, value in item["scores"].items():
            if value is None or abs(value - CEILING[name]) > TOLERANCE:
                problems.append(f"{item['study_id']}/{item['shots']}: "
                                f"{name}={value} off the ceiling")
    if failed != expect.failures:
        problems.append(f"excluded {sorted(failed)}, schedule predicts "
                        f"{sorted(expect.failures)}")
    return Verdict(tuple(problems[:20]), len(items),
                   sum(1 for item in items if item["error"] is not None))


def find_secret(root: Path, secret: str) -> list[str]:
    """Files under ``root`` whose bytes contain the credential."""
    needle = secret.encode()
    return [f"credential found in {path}" for path in sorted(root.rglob("*"))
            if path.is_file() and needle in path.read_bytes()]


def check_server_log(entries: list[dict], plan: dict,
                     keys: Iterable[tuple[int, str]],
                     max_retries: int) -> list[str]:
    """Every request carried credentials, every (shots, serialization)
    in ``keys`` was requested, and each was sent exactly as many times as
    the fault schedule and the client's retry policy imply."""
    problems = [f"request {e['request']} had no Authorization header"
                for e in entries if not e["authorized"]]
    expected = {request_id(*key): expected_outcome(plan.get(key, ()),
                                                   max_retries)[0]
                for key in keys}
    sent: dict[str, list[dict]] = defaultdict(list)
    for entry in entries:
        sent[entry["request"]].append(entry)
    if set(sent) != set(expected):
        problems.append(f"{len(set(expected) - set(sent))} requests never "
                        f"sent, {len(set(sent) - set(expected))} unexpected")
    for rid, tries in sent.items():
        attempts = sorted(e["attempt"] for e in tries)
        if attempts != list(range(1, expected.get(rid, 0) + 1)):
            problems.append(f"request {rid}: attempts {attempts}, expected "
                            f"{expected.get(rid, 0)}")
        if len({e["digest"] for e in tries}) != 1:
            problems.append(f"request {rid}: body changed between attempts")
    return problems[:20]
