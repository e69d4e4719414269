"""The seams ``perfbench/tracer.py`` rebinds still carry every call.

The tracer counts calls by rebinding names in ``radstyle.cli``,
``radstyle.harness`` and ``radstyle.client``; a call that bypasses one
of those names reads as zero in the benchmark. Each test traces a full
``evaluate`` in a subprocess (``install`` rebinds module globals, so it
must not run in this process) and checks the counts against the shape
of the corpus.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from radstyle.synthetic import make_synthetic_corpus

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", ["ser2rep", "end2end"])
def test_traced_counts_follow_the_corpus(tmp_path, mode):
    paths = make_synthetic_corpus(tmp_path, n_records=50, n_train=20, seed=0)
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(TRACER), str(spans), "--",
                    "evaluate", "--mode", mode, "--config",
                    str(paths["config"])],
                   cwd=tmp_path, check=True, capture_output=True)
    metrics = load_tracer().derive(
        json.loads(spans.read_text(encoding="utf-8")))

    config = yaml.safe_load(paths["config"].read_text(encoding="utf-8"))
    records = [json.loads(line) for line in
               paths["dataset"].read_text(encoding="utf-8").splitlines()]
    eval_studies = sum(r["split"] == "test" for r in records)
    baseline = json.loads(paths["baseline"].read_text(encoding="utf-8"))
    scores = (Path(config["output"]["directory"])
              / f"{config['output']['prefix']}_scores.jsonl")
    n_items = len(scores.read_text(encoding="utf-8").splitlines())

    requests = eval_studies * len(config["experiment"]["shots"])
    assert metrics["harness.scorer_calls"] == n_items
    assert metrics["prompting.chains_built"] == requests
    assert metrics["client.requests"] == requests
    # Every request goes through the traced ``client.complete``.
    assert metrics["client.completion_samples"] == metrics["client.requests"]
    # Each reference is tokenized once; an identity generation shares
    # its reference's tokens and each baseline output is tokenized anew.
    assert metrics["metrics.tokenize_calls"] == eval_studies + len(baseline)
    assert metrics["serialize.serialize_calls"] == (
        eval_studies if mode == "end2end" else 0)
    # Every generation reproduces its reference, and the ``Scorer``
    # computes a reproduction's scores once per study, whatever the
    # number of rows. So BLEU-2 runs once per eval study and once per
    # baseline output, and the resource-backed metrics once per eval
    # study only, since no resource knows the baseline's text.
    assert metrics["metrics.bleu2_calls"] == eval_studies + len(baseline)
    for name in ("bert_score", "chexbert_similarity", "radgraph_f1"):
        assert metrics[f"metrics.{name}_calls"] == eval_studies
