"""The benchmark's workloads: corpus shape, client mode and table rows.

Why each workload exists is recorded in BENCHMARK.json. Every workload
is a closed loop: ``client.parallelism`` (2, the core count of the
reference machine) workers each wait for a reply before sending the next
request.
"""

from __future__ import annotations

from dataclasses import dataclass

PARALLELISM = 2


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                      # evaluate --mode
    client: str                    # client.mode; "http" uses mock_server.py
    n_pool: int
    n_eval: int
    findings: tuple[int, int]      # findings per report, lowest and highest
    emb_rows: int
    emb_dim: int
    shots: tuple[int, ...]
    baseline: bool


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ser2rep-instant",
        mode="ser2rep", client="identity-mock",
        n_pool=400, n_eval=1500, findings=(3, 5), emb_rows=12, emb_dim=8,
        shots=(0, 1, 5, 10), baseline=True),
    Workload(
        name="end2end-remote",
        mode="end2end", client="http",
        n_pool=200, n_eval=180, findings=(4, 6), emb_rows=8, emb_dim=8,
        shots=(0, 5), baseline=False),
)}
