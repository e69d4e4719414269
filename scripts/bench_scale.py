#!/usr/bin/env python3
"""Peak RSS and wall time of ``radstyle evaluate`` as the corpus grows.

    python3 scripts/bench_scale.py --side parent=OTHER/src --side change=src \
        --eval 1900 5500 12000 --runs 3 --out BENCH_scale.json

Run from the repository root. For each eval-study count, one seeded
``perfbench/corpus.py`` corpus (400 pool studies, 4-6 findings per
report) is run in ``ser2rep`` mode on the identity mock, with shots
0/1/5/10 and the baseline row. Each ``--side LABEL=SRC`` runs the
``radstyle`` package under SRC, the sides alternating which goes first,
each run in a fresh process started through perfbench's launcher
(``perfbench/spawn.py``, which reads the peak RSS, ``ru_maxrss``, from
``wait4``, and stops a run after ``bench.CHILD_TIMEOUT_S``). Every run's
table, CSV and ``scores.jsonl`` are hashed. When a run fails or two runs
of one corpus wrote different bytes, the script exits 1 and leaves
``--out`` as it was; otherwise the records for each (side, count)
replace any earlier ones in ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench.bench import _run_child  # noqa: E402
from perfbench.corpus import make_corpus  # noqa: E402
from perfbench.workloads import Workload  # noqa: E402

N_POOL = 400
SEED = 1
SHOTS = (0, 1, 5, 10)
ARTIFACTS = ("scale_table.txt", "scale_table.csv", "scale_scores.jsonl")


def workload(n_eval: int) -> Workload:
    return Workload(name=f"scale-{n_eval}", mode="ser2rep",
                    client="identity-mock", n_pool=N_POOL, n_eval=n_eval,
                    findings=(4, 6), emb_rows=12, emb_dim=8, shots=SHOTS,
                    baseline=True)


def run_once(src: Path, corpus, work: Path) -> dict:
    """One ``evaluate`` run: exit code, wall time, peak RSS, artifacts."""
    out = work / "out"
    config = work / "config.json"   # JSON is valid YAML
    config.write_text(json.dumps({
        "dataset": str(corpus.dataset), "graphs": str(corpus.graphs),
        "embeddings": str(corpus.embeddings), "baseline": str(corpus.baseline),
        "client": {"mode": "identity-mock", "parallelism": 2},
        "experiment": {"shots": list(SHOTS), "seed": 0},
        "output": {"directory": str(out), "prefix": "scale"}}),
        encoding="utf-8")
    code, wall_s, rss_kb = _run_child(
        [sys.executable, "-m", "radstyle.cli", "evaluate", "--mode",
         "ser2rep", "--config", str(config)],
        {**os.environ, "PYTHONPATH": str(src.resolve())}, work)
    return {"code": code, "wall_s": round(wall_s, 3),
            "peak_rss_mb": round(rss_kb / 1024.0, 2),
            "sha256": {name: hashlib.sha256((out / name).read_bytes())
                       .hexdigest() for name in ARTIFACTS
                       if (out / name).is_file()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True,
                        metavar="LABEL=SRC")
    parser.add_argument("--eval", type=int, nargs="+",
                        default=[1900, 5500, 12000])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    args = parser.parse_args(argv)
    sides = [tuple(side.split("=", 1)) for side in args.side]
    if any(len(side) != 2 for side in sides):
        parser.error("--side takes LABEL=SRC")

    records = []
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench_scale_") as tmp:
        for n_eval in args.eval:
            corpus = make_corpus(workload(n_eval), SEED,
                                 Path(tmp) / f"corpus{n_eval}")
            runs: dict[str, list[dict]] = {label: [] for label, _ in sides}
            for i in range(args.runs):
                order = sides if i % 2 == 0 else sides[::-1]
                for label, src in order:
                    work = Path(tmp) / f"{label}-{n_eval}-{i}"
                    work.mkdir()
                    run = run_once(Path(src), corpus, work)
                    runs[label].append(run)
                    print(f"{label:8} {n_eval:6} eval studies: "
                          f"{run['peak_rss_mb']:8.2f} MB "
                          f"{run['wall_s']:7.3f} s exit {run['code']}",
                          flush=True)
            hashes = {json.dumps(run["sha256"], sort_keys=True)
                      for label_runs in runs.values() for run in label_runs}
            ok &= len(hashes) == 1 and all(
                run["code"] == 0 and len(run["sha256"]) == len(ARTIFACTS)
                for label_runs in runs.values() for run in label_runs)
            for label, label_runs in runs.items():
                records.append({
                    "side": label, "n_eval": n_eval, "n_pool": N_POOL,
                    "findings": [4, 6], "seed": SEED, "shots": list(SHOTS),
                    "baseline": True,
                    "median_peak_rss_mb": round(statistics.median(
                        r["peak_rss_mb"] for r in label_runs), 3),
                    "median_wall_s": round(statistics.median(
                        r["wall_s"] for r in label_runs), 4),
                    "artifacts_identical": len(hashes) == 1,
                    "runs": [{key: r[key] for key in
                              ("code", "peak_rss_mb", "wall_s")}
                             for r in label_runs]})
    if not ok:
        print("error: a run failed, or runs of one corpus wrote different "
              f"artifacts; {args.out} is left as it was", file=sys.stderr)
        return 1
    done = {(r["side"], r["n_eval"]) for r in records}
    kept = []
    if args.out.is_file():
        kept = [r for r in json.loads(args.out.read_text(encoding="utf-8"))
                if (r["side"], r["n_eval"]) not in done]
    args.out.write_text(json.dumps(kept + records, indent=1) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
