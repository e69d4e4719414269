#!/usr/bin/env python3
"""Benchmark of ``radstyle evaluate``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; the program is taken from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. ``all`` runs
every workload both ways and prints every metric by name. The exit code
is 0 only when every run passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "radstyle" / "cli.py").is_file():
        print(f"error: no radstyle sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    elif args.workload in WORKLOADS:
        runs = [(args.workload, bool(args.trace))]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")

    results = []
    for name, trace in runs:
        result = bench.run(WORKLOADS[name], args.seed, args.seconds, trace,
                           WORK)
        results.append(result)
        for metric, m in result["metrics"].items():
            print(f"{name:16} {metric:40} {m['value']:.6g} {m['unit']}")
    summary = results[0] if len(results) == 1 else {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{name}/{metric}": m
                    for (name, _), r in zip(runs, results)
                    for metric, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
