import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import radstyle.cli as cli
import radstyle.harness as harness
from radstyle.client import EchoReportTransport
from radstyle.config import BASE_METRICS, DEFAULT_METRICS, load_config
from radstyle.errors import InputError, RequestError
from radstyle.harness import load_dataset, parse_table_csv
from radstyle.prompting import INSTRUCTION, SYSTEM_PROMPT
from radstyle.synthetic import make_synthetic_corpus

from test_graph import entity_doc

# nested past the JSON and YAML decoders' recursion limits
DEEP = "[" * 100_000 + "]" * 100_000
LONG_INT = "9" * 5_000   # more digits than int() converts to or from text


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    return make_synthetic_corpus(out, n_records=14, n_train=10, seed=1)


SINGLE_GRAPH = {
    "text": "FINDINGS : lungs clear . IMPRESSION : no edema",
    "1": entity_doc("1", "lungs", "ANAT-DP", 2),
    "2": entity_doc("2", "clear", "OBS-DP", 3,
                    relations=[("located_at", "1")]),
    "3": entity_doc("3", "edema", "OBS-DA", 7),
}


def test_serialize_single_graph(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(SINGLE_GRAPH), encoding="utf-8")
    assert cli.main(["serialize", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "findings: lungs clear. impression: no edema\n"


def test_serialize_sidecar_prints_study_per_line(tmp_path, capsys):
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps({"s1": SINGLE_GRAPH, "s2": SINGLE_GRAPH}),
                    encoding="utf-8")
    assert cli.main(["serialize", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("s1\tfindings:")
    assert lines[1].startswith("s2\t")


def test_serialize_sidecar_refuses_a_repeated_study_id(tmp_path, capsys):
    """``serialize`` reads a sidecar as ``evaluate`` does: a study id
    given twice exits 1 with one line naming it, and prints nothing."""
    edema_only = {"3": SINGLE_GRAPH["3"]}
    path = tmp_path / "graphs.json"
    path.write_text(f'{{"s1": {json.dumps(SINGLE_GRAPH)}, '
                    f'"s1": {json.dumps(edema_only)}}}', encoding="utf-8")
    assert cli.main(["serialize", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: duplicate study id 's1'\n"


def test_serialize_bad_label_exits_one(tmp_path, capsys):
    doc = {"1": entity_doc("1", "lungs", "OBS-XX", 0)}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["serialize", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("keep", [("1", "2", "3"), ("2",)])
def test_serialize_graph_with_an_entity_missing_its_label_exits_one(
        tmp_path, capsys, keep):
    # Still a graph document, not a sidecar keyed by entity id.
    doc = {key: SINGLE_GRAPH[key] for key in keep}
    doc["2"] = {key: value for key, value in doc["2"].items()
                if key != "label"}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["serialize", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: entity 2: missing label\n"


def test_serialize_sidecar_with_a_bad_study_prints_nothing(tmp_path, capsys):
    bad = dict(SINGLE_GRAPH, **{"3": entity_doc("3", "edema", "OBS-XX", 7)})
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps({"s1": SINGLE_GRAPH, "s2": bad,
                                "s3": SINGLE_GRAPH}), encoding="utf-8")
    assert cli.main(["serialize", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: study s2: unknown entity label 'OBS-XX'\n")


def test_serialize_reads_a_sidecar_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps({"s1": SINGLE_GRAPH, "s2": SINGLE_GRAPH}),
                    encoding="utf-8")
    reads = []
    real_read_text = Path.read_text

    def read_text(self, *args, **kwargs):
        if self == path:
            reads.append(self)
        return real_read_text(self, *args, **kwargs)
    monkeypatch.setattr(Path, "read_text", read_text)
    # and decoded once: member by member, never also as a whole
    wholes = []
    monkeypatch.setattr(cli, "parse_json",
                        lambda *args: wholes.append(args))
    assert cli.main(["serialize", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert len(reads) == 1
    assert wholes == []


@pytest.mark.parametrize("where", ["token", "study_id"])
def test_serialize_refuses_text_it_cannot_print(tmp_path, capsys, where):
    # "\\ud800" in JSON decodes to a lone surrogate, which UTF-8 cannot
    # encode; printing it raised UnicodeEncodeError
    if where == "token":
        doc = dict(SINGLE_GRAPH, **{"3": entity_doc("3", "\ud800", "OBS-DA",
                                                    7)})
    else:
        doc = {"s1": SINGLE_GRAPH, "s\ud800": SINGLE_GRAPH}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["serialize", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: holds a lone surrogate, which "
                            f"UTF-8 cannot encode\n")


def test_serialize_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope", encoding="utf-8")
    assert cli.main(["serialize", str(path)]) == 1
    assert "malformed JSON" in capsys.readouterr().err


def test_serialize_missing_file_exits_one(tmp_path, capsys):
    assert cli.main(["serialize", str(tmp_path / "absent.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_prompt_for_eval_study(corpus, capsys):
    records = load_dataset(corpus["dataset"])
    study = next(r for r in records if r.split == "test")
    assert cli.main(["prompt", "--shots", "2", "--dataset",
                     str(corpus["dataset"]), "--eval-study",
                     study.study_id]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 2
    messages = doc["messages"]
    assert len(messages) == 6
    assert messages[0] == {"role": "system", "content": SYSTEM_PROMPT}
    assert messages[-1]["content"] == (
        f"{INSTRUCTION}\n{study.serialization}")


def test_prompt_is_deterministic(corpus, capsys):
    records = load_dataset(corpus["dataset"])
    study = next(r for r in records if r.split == "test")
    argv = ["prompt", "--shots", "3", "--dataset", str(corpus["dataset"]),
            "--eval-study", study.study_id]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_prompt_prints_the_messages_evaluate_sends(tmp_path, capsys,
                                                   monkeypatch):
    """``radstyle prompt`` and ``evaluate`` build their chains apart; for
    every eval study and shot count they must agree on the messages."""
    paths = make_synthetic_corpus(tmp_path, n_records=50, n_train=20, seed=0)
    config = yaml.safe_load(paths["config"].read_text(encoding="utf-8"))
    config["experiment"]["seed"] = 7
    config["output"]["directory"] = str(tmp_path / "results")
    path = tmp_path / "seeded.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    sent = []   # request bodies in the order evaluate sends them

    class Recording(EchoReportTransport):
        def post(self, url, headers, payload, timeout):
            sent.append(json.loads(payload))
            return super().post(url, headers, payload, timeout)

    make_transport = harness.make_transport
    monkeypatch.setattr(harness, "make_transport", lambda cfg, records: (
        Recording(make_transport(cfg, records).mapping)))
    assert cli.main(["evaluate", "--mode", "ser2rep",
                     "--config", str(path)]) == 0
    capsys.readouterr()
    eval_ids = [r.study_id for r in load_dataset(paths["dataset"])
                if r.split == "test"]
    shots = config["experiment"]["shots"]
    assert len(sent) == len(shots) * len(eval_ids)
    bodies = iter(sent)
    for k in shots:   # one batch per shot row, eval studies in order
        for study_id in eval_ids:
            assert cli.main(["prompt", "--eval-study", study_id,
                             "--shots", str(k), "--seed", "7",
                             "--dataset", str(paths["dataset"])]) == 0
            printed = json.loads(capsys.readouterr().out)
            assert printed["messages"] == next(bodies)["messages"], (
                study_id, k)


def test_prompt_requires_an_eval_target(corpus, capsys):
    assert cli.main(["prompt", "--shots", "0", "--dataset",
                     str(corpus["dataset"])]) == 1
    assert capsys.readouterr().err == (
        "error: the following arguments are required: --eval-study\n")


def test_prompt_unknown_study_exits_one(corpus, capsys):
    assert cli.main(["prompt", "--shots", "0", "--dataset",
                     str(corpus["dataset"]), "--eval-study", "zzz"]) == 1
    assert "no study 'zzz'" in capsys.readouterr().err


def test_prompt_rejects_an_eval_study_from_the_pool(corpus, capsys):
    records = load_dataset(corpus["dataset"])
    study = next(r for r in records if r.split == "train")
    assert cli.main(["prompt", "--shots", "8", "--dataset",
                     str(corpus["dataset"]), "--eval-study",
                     study.study_id]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: studies present in both pool and eval "
                            f"splits: {[study.study_id]}\n")
    assert captured.out == ""


def test_prompt_rejects_pool_without_serializations(corpus, tmp_path,
                                                     capsys):
    lines = corpus["dataset"].read_text(encoding="utf-8").splitlines()
    docs = [json.loads(line) for line in lines]
    pool = [d for d in docs if d["split"] == "train"]
    del pool[0]["serialization"], pool[2]["serialization"]
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(d) + "\n" for d in docs),
                       encoding="utf-8")
    test_study = next(d for d in docs if d["split"] == "test")
    assert cli.main(["prompt", "--shots", "1", "--dataset", str(dataset),
                     "--eval-study", test_study["study_id"]]) == 1
    captured = capsys.readouterr()
    missing = sorted([pool[0]["study_id"], pool[2]["study_id"]])
    assert captured.err == (
        f"error: pool records missing serializations: {missing}\n")
    assert captured.out == ""


def test_evaluate_writes_outputs_and_prints_table(corpus, capsys):
    assert cli.main(["evaluate", "--mode", "ser2rep", "--config",
                     str(corpus["config"])]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("method")
    assert "ser2rep" in out and "baseline" in out
    assert "scores:" in out
    cfg = load_config(corpus["config"])
    outdir = corpus["config"].parent / "results"
    table = parse_table_csv(
        (outdir / "mock_table.csv").read_text(encoding="utf-8"))
    assert table.metric_names == cfg.metrics.names
    assert (outdir / "mock_scores.jsonl").exists()
    assert (outdir / "mock_table.txt").exists()


def test_evaluate_bad_config_exits_one(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text("datasett: d.jsonl\n", encoding="utf-8")
    assert cli.main(["evaluate", "--mode", "ser2rep",
                     "--config", str(path)]) == 1
    assert "datasett" in capsys.readouterr().err


def test_evaluate_client_failure_exits_two(corpus, capsys, monkeypatch):
    def explode(cfg, mode):
        raise RequestError(503, "upstream down")
    monkeypatch.setattr(cli, "evaluate", explode)
    assert cli.main(["evaluate", "--mode", "ser2rep", "--config",
                     str(corpus["config"])]) == 2
    assert "client error" in capsys.readouterr().err


def test_evaluate_http_without_credential_exits_one(corpus, tmp_path,
                                                    capsys, monkeypatch,
                                                    chat_server):
    monkeypatch.delenv("RADSTYLE_TEST_KEY", raising=False)
    config = yaml.safe_load(corpus["config"].read_text(encoding="utf-8"))
    config["client"] = {"mode": "http", "api_key_env": "RADSTYLE_TEST_KEY",
                        "endpoint": chat_server.url}
    config["output"]["directory"] = str(tmp_path / "results")
    path = tmp_path / "http.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert cli.main(["evaluate", "--mode", "ser2rep",
                     "--config", str(path)]) == 1
    assert "RADSTYLE_TEST_KEY" in capsys.readouterr().err
    assert chat_server.received == []
    assert not (tmp_path / "results").exists()


def _http_config(corpus, tmp_path, url, shots):
    config = yaml.safe_load(corpus["config"].read_text(encoding="utf-8"))
    config["client"] = {"mode": "http", "api_key_env": "RADSTYLE_TEST_KEY",
                        "endpoint": url, "max_retries": 0}
    config["experiment"]["shots"] = shots
    config["output"]["directory"] = str(tmp_path / "results")
    path = tmp_path / "http.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


@pytest.mark.parametrize("rejected, shots, code", [
    ("every", [0, 2], 2), ("one", [0, 2], 0), ("every", [], 0)])
def test_evaluate_exits_two_when_a_shot_row_scored_nothing(
        corpus, tmp_path, capsys, monkeypatch, chat_server, rejected,
        shots, code):
    monkeypatch.setenv("RADSTYLE_TEST_KEY", "sk-test")
    n_eval = sum(1 for r in load_dataset(corpus["dataset"])
                 if r.split == "test")
    # Shot 0 gets every 400 it is sent; shot 2 then gets 200 replies.
    chat_server.replies.extend(
        [(400, '{"error": "bad request"}', {})]
        * (n_eval if rejected == "every" else 1))
    path = _http_config(corpus, tmp_path, chat_server.url, shots)
    assert cli.main(["evaluate", "--mode", "ser2rep",
                     "--config", str(path)]) == code
    captured = capsys.readouterr()
    assert len(chat_server.received) == n_eval * len(shots)
    # The outputs are written either way.
    table = parse_table_csv((tmp_path / "results" / "mock_table.csv")
                            .read_text(encoding="utf-8"))
    rows = {row.shots: row for row in table.rows}
    if code == 2:
        assert captured.err == (
            f"client error: every request of shot row 0 failed; each error "
            f"is in {tmp_path / 'results' / 'mock_scores.jsonl'}\n")
        assert rows[0].excluded == rows[0].n_items == n_eval
        assert rows[2].excluded == 0
    else:
        assert captured.err == ""
        assert all(row.excluded < row.n_items for row in table.rows)


@pytest.mark.parametrize("mode, client", [("ser2rep", "identity-mock"),
                                          ("end2end", "http")])
def test_a_setup_only_run_scores_nothing_and_exits_zero(
        corpus, tmp_path, capsys, monkeypatch, chat_server, mode, client):
    # The benchmark's set-up-only run: no shot row and no baseline. It
    # loads and checks every input, sends nothing and writes empty tables.
    monkeypatch.setenv("RADSTYLE_TEST_KEY", "sk-test")
    sent = _scripted_echo(monkeypatch)
    config = {"dataset": str(corpus["dataset"]),
              "graphs": str(corpus["graphs"]),
              "embeddings": str(corpus["embeddings"]),
              "client": {"mode": client, "endpoint": chat_server.url,
                         "api_key_env": "RADSTYLE_TEST_KEY"},
              "experiment": {"shots": []},
              "output": {"directory": str(tmp_path / "out"),
                         "prefix": "bench"}}
    path = tmp_path / "setup.json"   # JSON is valid YAML
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["evaluate", "--mode", mode, "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert sent == [] and chat_server.received == []
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == [
        "bench_scores.jsonl", "bench_table.csv", "bench_table.txt"]
    assert (out / "bench_scores.jsonl").read_bytes() == b""
    text = (out / "bench_table.txt").read_text(encoding="utf-8")
    assert text.splitlines() == [captured.out.splitlines()[0]]
    assert text.split() == ["method", "shots", "n", "excl", *DEFAULT_METRICS]
    table = parse_table_csv(
        (out / "bench_table.csv").read_text(encoding="utf-8"))
    assert table.rows == () and table.metric_names == DEFAULT_METRICS


@pytest.mark.parametrize("argv, start", [
    (["serialize", "a", "b\nc"], "error: unrecognized arguments: b\\nc"),
    (["serialize", "a\nb"], "error: cannot read a\\nb: "),
    (["serialize", "a\u2028b"], "error: cannot read a\\u2028b: "),
    (["serialize", "a\r\x0b\x85b"], "error: cannot read a\\r\\x0b\\x85b: ")])
def test_an_error_escapes_each_line_break(tmp_path, monkeypatch, capsys,
                                          argv, start):
    """An error quoting a path or argument stays one line: each character
    ``str.splitlines`` breaks at is written as its escape."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(start) and len(err.splitlines()) == 1, err


def test_the_exit_two_line_escapes_a_line_break(corpus, tmp_path, capsys,
                                                monkeypatch, chat_server):
    monkeypatch.setenv("RADSTYLE_TEST_KEY", "sk-test")
    n_eval = sum(1 for r in load_dataset(corpus["dataset"])
                 if r.split == "test")
    chat_server.replies.extend([(400, '{"error": "bad request"}', {})]
                               * n_eval)
    path = _http_config(corpus, tmp_path, chat_server.url, [0])
    config = yaml.safe_load(path.read_text(encoding="utf-8"))
    config["output"]["directory"] = str(tmp_path / "re\nsults")
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert cli.main(["evaluate", "--mode", "ser2rep",
                     "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"client error: every request of shot row 0 failed; each error is "
        f"in {tmp_path}/re\\nsults/mock_scores.jsonl\n")


def test_credential_reaches_no_artifact(corpus, tmp_path, capsys,
                                       monkeypatch, chat_server):
    # The one 400 reply echoes the Authorization header it received.
    key = "sk-never-written-7f3a"
    monkeypatch.setenv("RADSTYLE_TEST_KEY", key)
    chat_server.replies.append(
        (400, lambda headers: json.dumps(
            {"error": f"bad credential {headers['Authorization']}"}), {}))
    path = _http_config(corpus, tmp_path, chat_server.url, [0, 2])
    assert cli.main(["evaluate", "--mode", "ser2rep",
                     "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert chat_server.received[0][1]["Authorization"] == f"Bearer {key}"
    assert chat_server.replies == []
    written = sorted((tmp_path / "results").rglob("*"))
    assert written
    for artifact in written:
        assert key.encode() not in artifact.read_bytes(), artifact
    assert key not in captured.out + captured.err


def test_evaluate_end2end_without_an_eval_graph_exits_one(
        corpus, tmp_path, capsys, monkeypatch, chat_server):
    # An input fault, not a client failure: nothing is sent or written.
    monkeypatch.setenv("RADSTYLE_TEST_KEY", "sk-test")
    train = {r.study_id for r in load_dataset(corpus["dataset"])
             if r.split == "train"}
    graphs = json.loads(corpus["graphs"].read_text(encoding="utf-8"))
    pool_graphs = tmp_path / "pool_graphs.json"
    pool_graphs.write_text(json.dumps(
        {sid: doc for sid, doc in graphs.items() if sid in train}),
        encoding="utf-8")
    path = _http_config(corpus, tmp_path, chat_server.url, [0, 2])
    config = yaml.safe_load(path.read_text(encoding="utf-8"))
    config["graphs"] = str(pool_graphs)
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert cli.main(["evaluate", "--mode", "end2end",
                     "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: no eval study has a graph in {pool_graphs}\n")
    assert chat_server.received == []
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("key", ["sk-\u20ac", "sk-1\r\nX: y", "sk-\x7f"])
def test_evaluate_credential_no_header_can_carry_exits_one(
        corpus, tmp_path, capsys, monkeypatch, chat_server, key):
    monkeypatch.setenv("RADSTYLE_TEST_KEY", key)
    path = _http_config(corpus, tmp_path, chat_server.url, [0])
    assert cli.main(["evaluate", "--mode", "ser2rep",
                     "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: credential environment variable RADSTYLE_TEST_KEY holds a "
        "character an HTTP header cannot carry\n")
    assert key not in captured.out + captured.err
    assert chat_server.received == []
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("key, value", [
    ("max_retries", -1), ("max_retries", "x"), ("max_retries", True),
    ("parallelism", 0), ("parallelism", "2"),
    ("endpoint", "file:///etc/hosts"), ("endpoint", "http:///v1"),
    ("endpoint", "http://127.0.0.1:port/v1"), ("timeout", -1),
    ("timeout", 0), ("timeout", float("inf")), ("timeout", float("nan")),
    ("timeout", 1e10),
    ("temperature", float("nan")), ("temperature", float("inf")),
    ("temperature", float("-inf")), ("max_tokens", 0), ("max_tokens", -5)])
def test_evaluate_bad_client_value_exits_one(corpus, tmp_path, capsys,
                                             key, value):
    config = yaml.safe_load(corpus["config"].read_text(encoding="utf-8"))
    config["client"][key] = value
    config["output"]["directory"] = str(tmp_path / "results")
    path = tmp_path / "bad_client.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert cli.main(["evaluate", "--mode", "ser2rep",
                     "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"client {key}" in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("key, value, message", [
    ("radcliq_bias", float("inf"),
     "metrics radcliq_bias must be a finite number, got inf"),
    ("radcliq_bias", float("nan"),
     "metrics radcliq_bias must be a finite number, got nan"),
    ("radcliq_weights", {"bleu2": -1.0, "chexbert": float("-inf")},
     "metrics radcliq_weights chexbert must be a finite number, got -inf"),
    ("names", ["bleu2", "chexbert", "bleu2"],
     "metrics names must be distinct: ['bleu2']"),
    ("names", [], "metrics names must name at least one metric"),
    ("names", ["bleu2", "bleu3"], "metrics names: unknown metric 'bleu3'"),
    ("radcliq_weights", {"bleu2": -1.0, "bleu3": 1.0},
     "metrics radcliq_weights: unknown metric 'bleu3'"),
    ("radcliq_weights", {}, "metrics radcliq_weights must weight at least "
     "one metric when names holds radcliq"),
    # finite, but too large for mean_ci to summarize the composite
    ("radcliq_weights", {"bleu2": 1e200},
     "metrics radcliq_bias and radcliq_weights: |bias| + the sum of "
     "|weights| must be at most 1e+100, got 1e+200"),
    ("radcliq_weights", {"bleu2": 1e308, "chexbert": 1e308},
     "metrics radcliq_bias and radcliq_weights: |bias| + the sum of "
     "|weights| must be at most 1e+100, got inf"),
    ("radcliq_bias", -2e100,
     "metrics radcliq_bias and radcliq_weights: |bias| + the sum of "
     "|weights| must be at most 1e+100, got 2e+100")])
def test_evaluate_bad_metrics_value_exits_one(corpus, tmp_path, capsys,
                                              monkeypatch, key, value,
                                              message):
    sent = []
    monkeypatch.setattr(EchoReportTransport, "post",
                        lambda self, *args: sent.append(args))
    config = yaml.safe_load(corpus["config"].read_text(encoding="utf-8"))
    config["output"]["directory"] = str(tmp_path / "results")
    config["metrics"] = {key: value}
    path = tmp_path / "bad_metrics.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert cli.main(["evaluate", "--mode", "ser2rep",
                     "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert sent == []
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("prefix", ["sub/x", "", " ", ".", "..", "/x",
                                    "a\0b", "\ud800"])
def test_evaluate_bad_output_prefix_exits_one(corpus, tmp_path, capsys,
                                              monkeypatch, prefix):
    sent = []
    monkeypatch.setattr(EchoReportTransport, "post",
                        lambda self, *args: sent.append(args))
    config = yaml.safe_load(corpus["config"].read_text(encoding="utf-8"))
    config["output"] = {"directory": str(tmp_path / "results"),
                        "prefix": prefix}
    path = tmp_path / "bad_prefix.json"   # JSON carries any prefix
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["evaluate", "--mode", "ser2rep",
                     "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: output prefix must be a plain file "
                            f"name, got {prefix!r}\n")
    assert sent == []
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("bad", ["directory_nul", "directory_surrogate",
                                 "directory_escaped_byte", "prefix_too_long"])
def test_evaluate_output_the_file_system_cannot_name_exits_one(
        corpus, tmp_path, capsys, monkeypatch, bad):
    sent = []
    monkeypatch.setattr(EchoReportTransport, "post",
                        lambda self, *args: sent.append(args))
    config = yaml.safe_load(corpus["config"].read_text(encoding="utf-8"))
    directory, prefix = str(tmp_path / "results"), "mock"
    if bad == "prefix_too_long":   # one byte over the limit
        name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
        prefix = "p" * (name_max - len("_scores.jsonl.partial") + 1)
        name = f"{prefix}_scores.jsonl.partial"
        message = (f"output prefix too long: {name!r} has {len(name)} "
                   f"bytes, over the {name_max} that file names in "
                   f"{tmp_path} may have")
    else:
        # "\\udcff" names the byte 0xff to the file system, but printing
        # the path to a UTF-8 terminal fails
        directory += {"directory_nul": "/a\0b",
                      "directory_surrogate": "/\ud800",
                      "directory_escaped_byte": "/\udcff"}[bad]
        message = (f"output directory must be a path the file system can "
                   f"name, got {directory!r}")
    config["output"] = {"directory": directory, "prefix": prefix}
    path = tmp_path / "bad_output.json"   # JSON carries any string
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["evaluate", "--mode", "ser2rep",
                     "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert sent == []
    assert not (tmp_path / "results").exists()


def test_evaluate_takes_the_longest_prefix_the_file_system_allows(
        corpus, tmp_path):
    config = yaml.safe_load(corpus["config"].read_text(encoding="utf-8"))
    prefix = "p" * (os.pathconf(tmp_path, "PC_NAME_MAX")
                     - len("_scores.jsonl.partial"))
    config["output"] = {"directory": str(tmp_path / "results"),
                        "prefix": prefix}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["evaluate", "--mode", "ser2rep",
                     "--config", str(path)]) == 0
    assert (tmp_path / "results" / f"{prefix}_scores.jsonl").exists()


def _evaluate_into(corpus, tmp_path, directory):
    """``radstyle evaluate --mode ser2rep`` on the corpus, writing into
    ``directory``; returns the exit code."""
    config = yaml.safe_load(corpus["config"].read_text(encoding="utf-8"))
    config["output"] = {"directory": str(directory), "prefix": "mock"}
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return cli.main(["evaluate", "--mode", "ser2rep", "--config", str(path)])


def _scripted_echo(monkeypatch, stop_at=None):
    """Install an identity mock that records each request and raises
    ``KeyboardInterrupt`` in place of request number ``stop_at``
    (0-based); returns the list of requests it sent."""
    sent = []

    class Scripted(EchoReportTransport):
        def post(self, *args):
            if len(sent) == stop_at:
                raise KeyboardInterrupt
            sent.append(args)
            return super().post(*args)
    monkeypatch.setattr(harness, "EchoReportTransport", Scripted)
    return sent


def test_an_interrupted_run_keeps_the_rows_it_paid_for(corpus, tmp_path,
                                                       monkeypatch):
    # Ctrl-C on the first request of the third shot row: the spool holds
    # rows 0 and 1, byte for byte as a whole run writes them, and no
    # table is written.
    n_eval = sum(1 for r in load_dataset(corpus["dataset"])
                 if r.split == "test")
    sent = _scripted_echo(monkeypatch)
    assert _evaluate_into(corpus, tmp_path, tmp_path / "whole") == 0
    assert len(sent) == 4 * n_eval
    whole = (tmp_path / "whole" / "mock_scores.jsonl").read_bytes()
    sent = _scripted_echo(monkeypatch, stop_at=2 * n_eval)
    with pytest.raises(KeyboardInterrupt):
        _evaluate_into(corpus, tmp_path, tmp_path / "cut")
    assert len(sent) == 2 * n_eval
    assert [p.name for p in (tmp_path / "cut").iterdir()] == [
        "mock_scores.jsonl.partial"]
    kept = (tmp_path / "cut" / "mock_scores.jsonl.partial").read_bytes()
    assert kept == b"".join(whole.splitlines(keepends=True)[:2 * n_eval])
    assert [json.loads(line)["shots"] for line in kept.splitlines()] == (
        [0] * n_eval + [1] * n_eval)


def test_an_output_directory_it_cannot_create_costs_no_request(
        corpus, tmp_path, capsys, monkeypatch):
    # A regular file sits where the output directory's parent belongs.
    (tmp_path / "file").write_text("x", encoding="utf-8")
    sent = _scripted_echo(monkeypatch)
    outdir = tmp_path / "file" / "results"
    assert _evaluate_into(corpus, tmp_path, outdir) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot create {outdir}: ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert sent == []


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("mode", ["ser2rep", "end2end"])
def test_mock_run_scores_are_strict_json(corpus, tmp_path, mode):
    config = yaml.safe_load(corpus["config"].read_text(encoding="utf-8"))
    config["output"]["directory"] = str(tmp_path / "results")
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert cli.main(["evaluate", "--mode", mode, "--config", str(path)]) == 0
    lines = (tmp_path / "results" / "mock_scores.jsonl").read_text(
        encoding="utf-8").splitlines()
    assert lines
    for line in lines:
        json.loads(line, parse_constant=_reject_constant)


# finite values, the extremes that summing or squaring can overflow too
_FINITE = st.one_of(
    st.sampled_from([0.0, -1.0, 4.0, 1e100, -1e100, 1e154, 1e200,
                     -sys.float_info.max, sys.float_info.max]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=40, deadline=None)
@given(weights=st.dictionaries(st.sampled_from(BASE_METRICS), _FINITE,
                               max_size=len(BASE_METRICS)),
       bias=_FINITE,
       prefix=st.one_of(st.just("mock"), st.text(max_size=6),
                        st.sampled_from(["", " ", ".", "..", "sub/x",
                                         "a\0b"])))
def test_evaluate_exits_cleanly_on_any_metrics_and_prefix(corpus, weights,
                                                          bias, prefix):
    """Whatever radcliq weights, bias and output prefix a config holds,
    ``evaluate`` exits 0, 1 or 2, and writes only strict JSON scores."""
    config = yaml.safe_load(corpus["config"].read_text(encoding="utf-8"))
    config["metrics"] = {"radcliq_weights": weights, "radcliq_bias": bias}
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "results"
        config["output"] = {"directory": str(outdir), "prefix": prefix}
        path = Path(tmp) / "config.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        code = cli.main(["evaluate", "--mode", "ser2rep",
                         "--config", str(path)])
        assert code in (0, 1, 2)
        if code != 1:
            [scores] = outdir.glob("*_scores.jsonl")
            for line in scores.read_text(encoding="utf-8").splitlines():
                json.loads(line, parse_constant=_reject_constant)


@pytest.mark.parametrize("mode, section, key, value, message", [
    ("ser2rep", "metrics", "radcliq_bias", "x",
     "metrics radcliq_bias must be a number, got 'x'"),
    ("ser2rep", None, "dataset", 5, "dataset must be a string, got 5"),
    ("end2end", None, "graphs", 3, "graphs must be a string or null, got 3"),
    ("ser2rep", "experiment", "shots", 3,
     "experiment shots must be a list of integers, got 3"),
    ("ser2rep", "metrics", "names", "bleu2",
     "metrics names must be a list of strings, got 'bleu2'"),
    ("ser2rep", "experiment", "seed", "x",
     "experiment seed must be an integer, got 'x'"),
    ("ser2rep", "client", "timeout", "x",
     "client timeout must be a number, got 'x'"),
    ("ser2rep", "client", "temperature", "hot",
     "client temperature must be a number, got 'hot'"),
    ("ser2rep", "client", "max_tokens", True,
     "client max_tokens must be an integer, got True"),
    ("ser2rep", "metrics", "radcliq_weights", {"bleu2": "1"},
     "metrics radcliq_weights must be a mapping of strings to numbers, "
     "got {'bleu2': '1'}"),
    ("ser2rep", None, "graphs", ["g.json"],
     "graphs must be a string or null, got ['g.json']"),
])
def test_evaluate_config_value_of_the_wrong_type_exits_one(
        corpus, tmp_path, capsys, monkeypatch, mode, section, key, value,
        message):
    sent = []
    monkeypatch.setattr(EchoReportTransport, "post",
                        lambda self, *args: sent.append(args))
    config = yaml.safe_load(corpus["config"].read_text(encoding="utf-8"))
    config["output"]["directory"] = str(tmp_path / "results")
    (config.setdefault(section, {}) if section else config)[key] = value
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert cli.main(["evaluate", "--mode", mode, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: {message}\n"
    assert captured.out == ""
    assert sent == []
    assert not (tmp_path / "results").exists()


def _break_evaluate_input(config, tmp_path, bad):
    """Point ``config`` at an input that ``evaluate`` must reject; returns
    the text the error names."""
    if bad.endswith("_nul"):   # a path holding a NUL names no file
        path = str(tmp_path / "a\0b")
        config[bad.removesuffix("_nul")] = path
        return f"cannot read {path}: embedded null byte"
    if bad.endswith("_deep"):
        path = tmp_path / "deep.json"
        path.write_text(DEEP, encoding="utf-8")
        config[bad.removesuffix("_deep")] = str(path)
        line = "line 1: " if bad == "dataset_deep" else ""
        return f"{path}: {line}JSON nested too deeply"
    if bad == "baseline_missing":
        config["baseline"] = str(tmp_path / "absent.json")
        return f"cannot read {tmp_path / 'absent.json'}"
    if bad == "baseline_not_string":
        baseline = json.loads(Path(config["baseline"]).read_text("utf-8"))
        study_id = sorted(baseline)[-1]
        baseline[study_id] = 42
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline), encoding="utf-8")
        config["baseline"] = str(path)
        return f"{path}: study {study_id}: baseline output must be a string"
    if bad == "baseline_covers_no_eval_study":
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"nope1": "x", "nope2": "y"}),
                        encoding="utf-8")
        config["baseline"] = str(path)
        return f"baseline {path} covers no study in eval split 'test'"
    if bad == "shots_over_pool":
        config["experiment"]["shots"] = [0, 50]
        return "shots 50 exceeds the 10 studies in pool split 'train'"
    if bad == "repeated_shots":
        config["experiment"]["shots"] = [1, 1]
        return "shot counts must be distinct: [1]"
    if bad == "vectors_sidecar_true":
        docs = [json.loads(line) for line in
                Path(config["dataset"]).read_text("utf-8").splitlines()]
        vectors = {d["study_id"]: d["pathology_vector"] for d in docs}
        study_id = docs[-1]["study_id"]
        vectors[study_id] = [True] + [0] * 13
        path = tmp_path / "vectors.json"
        path.write_text(json.dumps(vectors), encoding="utf-8")
        config["vectors"] = str(path)
        return (f"{path}: study {study_id}: pathology indicator must be 0 "
                f"or 1, got True")
    if bad in ("embedding_text", "embedding_true"):
        embeddings = json.loads(Path(config["embeddings"]).read_text("utf-8"))
        study_id = list(embeddings)[1]
        if bad == "embedding_true":
            embeddings[study_id][0][0] = True
        else:
            embeddings[study_id] = [[str(v) for v in row]
                                    for row in embeddings[study_id]]
        path = tmp_path / "embeddings.json"
        path.write_text(json.dumps(embeddings), encoding="utf-8")
        config["embeddings"] = str(path)
        return (f"{path}: study {study_id}: embedding matrix must be rows of "
                f"numbers of equal length")
    if bad == "embedding_width":
        embeddings = json.loads(Path(config["embeddings"]).read_text("utf-8"))
        first, second = list(embeddings)[:2]
        embeddings[first] = [row[:4] for row in embeddings[first]]
        path = tmp_path / "embeddings.json"
        path.write_text(json.dumps(embeddings), encoding="utf-8")
        config["embeddings"] = str(path)
        width = len(embeddings[second][0])
        return (f"{path}: embedding widths differ: study {first} has 4, "
                f"study {second} has {width}")
    lines = Path(config["dataset"]).read_text("utf-8").splitlines()
    if bad == "dataset_truncated":
        path = tmp_path / "dataset.jsonl"
        path.write_text("\n".join(lines[:2] + [lines[2][:-1]]) + "\n",
                        encoding="utf-8")
        config["dataset"] = str(path)
        return f"{path}: line 3: malformed JSON: "
    if bad in ("blank_eval_serializations", "blank_pool_reports"):
        docs = [json.loads(line) for line in lines]
        for doc in docs:
            if bad == "blank_pool_reports" and doc["split"] == "train":
                doc["report"] = " "
            if bad == "blank_eval_serializations" and doc["split"] == "test":
                doc["serialization"] = " "
        path = tmp_path / "dataset.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in docs),
                        encoding="utf-8")
        config["dataset"] = str(path)
        if bad == "blank_pool_reports":
            return f"{path}: line 1: report must be a non-empty string"
        tests = sorted(d["study_id"] for d in docs if d["split"] == "test")
        return f"eval records missing serializations: {tests}"
    doc = json.loads(lines[2])
    doc["pathology_vector"] = (5 if bad == "vector_not_array"
                               else [True] + [0] * 13)
    lines[2] = json.dumps(doc)
    path = tmp_path / "dataset.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config["dataset"] = str(path)
    if bad == "vector_not_array":
        return f"{path}: line 3: pathology_vector must be an array"
    return f"{path}: line 3: pathology indicator must be 0 or 1, got True"


@pytest.mark.parametrize("bad", ["baseline_missing", "baseline_not_string",
                                 "vector_not_array", "vector_true",
                                 "vectors_sidecar_true", "shots_over_pool",
                                 "repeated_shots", "blank_eval_serializations",
                                 "blank_pool_reports", "embedding_width",
                                 "embedding_text", "embedding_true",
                                 "baseline_covers_no_eval_study",
                                 "dataset_nul", "graphs_nul", "baseline_nul",
                                 "dataset_deep", "graphs_deep",
                                 "baseline_deep", "dataset_truncated"])
def test_evaluate_bad_input_exits_one_before_any_request(
        corpus, tmp_path, capsys, monkeypatch, bad):
    sent = []
    real_post = EchoReportTransport.post

    def post(self, *args):
        sent.append(args)
        return real_post(self, *args)
    monkeypatch.setattr(EchoReportTransport, "post", post)
    config = yaml.safe_load(corpus["config"].read_text(encoding="utf-8"))
    config["output"]["directory"] = str(tmp_path / "results")
    message = _break_evaluate_input(config, tmp_path, bad)
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert cli.main(["evaluate", "--mode", "ser2rep",
                     "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert sent == []
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("kind", ["graphs", "vectors", "embeddings",
                                  "baseline"])
def test_a_sidecar_naming_a_study_twice_exits_one(corpus, tmp_path, capsys,
                                                  monkeypatch, kind):
    """``json.loads`` would keep the last of the two entries; a sidecar is
    refused, as the dataset refuses a repeated study id."""
    sent = []
    monkeypatch.setattr(EchoReportTransport, "post",
                        lambda self, *args: sent.append(args))
    config = yaml.safe_load(corpus["config"].read_text(encoding="utf-8"))
    config["output"]["directory"] = str(tmp_path / "results")
    if kind == "vectors":
        docs = [json.loads(line) for line in
                corpus["dataset"].read_text("utf-8").splitlines()]
        entries = {d["study_id"]: d["pathology_vector"] for d in docs}
    else:
        entries = json.loads(corpus[kind].read_text("utf-8"))
    study_id = list(entries)[1]
    path = tmp_path / f"{kind}.json"
    path.write_text(f"{json.dumps(entries)[:-1]}, {json.dumps(study_id)}: "
                    f"{json.dumps(entries[study_id])}}}", encoding="utf-8")
    config[kind] = str(path)
    config_path = tmp_path / "c.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert cli.main(["evaluate", "--mode", "ser2rep",
                     "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: duplicate study id {study_id!r}\n")
    assert sent == []
    assert not (tmp_path / "results").exists()


def long_int_text(corpus, kind: str) -> str:
    """A file of ``kind`` holding ``LONG_INT``, written as raw text, since
    ``json.dumps`` cannot write it either: a graph's ``start_ix``, the
    config's ``seed`` or a pathology indicator on the dataset's line 2."""
    if kind == "graphs":
        return ('{"e1": {"tokens": "x", "label": "OBS-DP", "start_ix": '
                f'{LONG_INT}, "end_ix": 0}}}}')
    if kind == "config":
        return corpus["config"].read_text(encoding="utf-8").replace(
            "seed: 0\n", f"seed: {LONG_INT}\n")
    lines = corpus["dataset"].read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace('"pathology_vector": [',
                                f'"pathology_vector": [{LONG_INT}, ')
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("bad", ["dataset", "config", "graphs",
                                 "config_nul", "graphs_nul", "dataset_deep",
                                 "config_deep", "graphs_deep", "prompt_deep",
                                 "dataset_long_int", "config_long_int",
                                 "graphs_long_int"])
def test_undecodable_input_file_exits_one(corpus, tmp_path, capsys, bad):
    """A file that is not UTF-8, (``_nul``) a path holding a NUL,
    (``_deep``) a file nested too deeply to decode, or (``_long_int``) one
    holding an integer longer than ``int()`` converts."""
    undecodable = tmp_path / "undecodable"
    undecodable.write_bytes(b"\xff\xfe{")
    if bad.endswith("_nul"):
        undecodable = tmp_path / "a\0b"
    if bad.endswith("_deep"):
        undecodable.write_text(DEEP, encoding="utf-8")
    if bad.endswith("_long_int"):
        undecodable.write_text(
            long_int_text(corpus, bad.removesuffix("_long_int")),
            encoding="utf-8")
    config = yaml.safe_load(corpus["config"].read_text(encoding="utf-8"))
    config["dataset"] = str(undecodable)
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    argv = {"dataset": ["evaluate", "--mode", "ser2rep", "--config", str(path)],
            "config": ["evaluate", "--mode", "ser2rep",
                       "--config", str(undecodable)],
            "graphs": ["serialize", str(undecodable)],
            "prompt": ["prompt", "--shots", "0", "--dataset",
                       str(undecodable), "--eval-study", "x"]}[
                bad.removesuffix("_nul").removesuffix("_deep")
                .removesuffix("_long_int")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    if bad.endswith("_long_int"):
        line = "line 2: " if bad == "dataset_long_int" else ""
        assert err.startswith(f"error: {undecodable}: {line}value out of "
                              f"range: Exceeds the limit")
    elif bad.endswith("_deep"):
        line = "line 1: " if bad in ("dataset_deep", "prompt_deep") else ""
        kind = "YAML" if bad == "config_deep" else "JSON"
        assert err == (f"error: {undecodable}: {line}{kind} nested too "
                       f"deeply\n")
    else:
        assert err.startswith(f"error: cannot read {undecodable}")
    assert err.count("\n") == 1


def style_files(tmp_path):
    human = {f"r{i}": [f"rad {i} human report {j}" for j in range(6)]
             for i in range(2)}
    gen = {f"r{i}": [f"rad {i} generated report {j}" for j in range(2)]
           for i in range(2)}
    hp = tmp_path / "human.json"
    gp = tmp_path / "generated.json"
    hp.write_text(json.dumps(human), encoding="utf-8")
    gp.write_text(json.dumps(gen), encoding="utf-8")
    return hp, gp


def test_style_eval_assemble_then_score(tmp_path, capsys):
    hp, gp = style_files(tmp_path)
    out = tmp_path / "sets.json"
    assert cli.main(["style-eval", "assemble", "--human", str(hp),
                     "--generated", str(gp), "--sets", "4",
                     "--seed", "7", "--out", str(out)]) == 0
    assert "wrote 4 sets" in capsys.readouterr().out
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert len(doc["sets"]) == 4

    answers = tmp_path / "answers.json"
    answers.write_text(json.dumps(
        {"e1": [s["generated_index"] for s in doc["sets"]],
         "e2": [(s["generated_index"] + 1) % 4 for s in doc["sets"]]}),
        encoding="utf-8")
    assert cli.main(["style-eval", "score", "--sets", str(out),
                     "--answers", str(answers)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("e1: 4/4 correct")
    assert lines[1].startswith("e2: 0/4 correct")
    assert lines[2].startswith("pooled: 4/8 correct")


def test_style_eval_assemble_render_hides_answer(tmp_path, capsys):
    hp, gp = style_files(tmp_path)
    out = tmp_path / "sets.json"
    assert cli.main(["style-eval", "assemble", "--human", str(hp),
                     "--generated", str(gp), "--sets", "2", "--seed", "0",
                     "--out", str(out), "--render"]) == 0
    rendered = capsys.readouterr().out
    assert "=== Set 1 ===" in rendered
    assert "Report 4:" in rendered
    assert "generated_index" not in rendered


def test_style_eval_assemble_shortfall_exits_one(tmp_path, capsys):
    hp, gp = style_files(tmp_path)
    out = tmp_path / "sets.json"
    assert cli.main(["style-eval", "assemble", "--human", str(hp),
                     "--generated", str(gp), "--sets", "40",
                     "--out", str(out)]) == 1
    assert "radiologist" in capsys.readouterr().err


def test_style_eval_assemble_unwritable_out_exits_one(tmp_path, capsys):
    hp, gp = style_files(tmp_path)
    out = tmp_path / "missing" / "dir" / "sets.json"
    assert cli.main(["style-eval", "assemble", "--human", str(hp),
                     "--generated", str(gp), "--sets", "2",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert not out.parent.exists()


def test_style_eval_score_rejects_bad_sets_file(tmp_path, capsys):
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"sets": "nope"}), encoding="utf-8")
    answers = tmp_path / "answers.json"
    answers.write_text(json.dumps({"e": []}), encoding="utf-8")
    assert cli.main(["style-eval", "score", "--sets", str(sets),
                     "--answers", str(answers)]) == 1
    assert "'sets' array" in capsys.readouterr().err


def _bad_style_eval_argv(tmp_path, bad):
    """argv of a ``style-eval`` command whose input ``bad`` breaks."""
    hp, gp = style_files(tmp_path)
    out = tmp_path / "sets.json"
    if bad == "out_nul":
        return ["style-eval", "assemble", "--human", str(hp), "--generated",
                str(gp), "--sets", "2", "--out", str(tmp_path / "a\0b")]
    if bad == "out_surrogate":   # printed once written
        return ["style-eval", "assemble", "--human", str(hp), "--generated",
                str(gp), "--sets", "2", "--out",
                str(tmp_path / "\udcff.json")]
    if bad == "sets_huge":
        return ["style-eval", "assemble", "--human", str(hp), "--generated",
                str(gp), "--sets", str(10 ** 18), "--out", str(out)]
    if bad in ("human_deep", "sets_deep"):
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP, encoding="utf-8")
        if bad == "human_deep":
            return ["style-eval", "assemble", "--human", str(deep),
                    "--generated", str(gp), "--sets", "2", "--out", str(out)]
        return ["style-eval", "score", "--sets", str(deep),
                "--answers", str(hp)]
    if bad in ("human_string", "generated_ints"):
        path = hp if bad == "human_string" else gp
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["r0"] = "abc" if bad == "human_string" else [1, 2, 3]
        path.write_text(json.dumps(doc), encoding="utf-8")
        return ["style-eval", "assemble", "--human", str(hp), "--generated",
                str(gp), "--sets", "2", "--out", str(out)]
    if bad == "report_surrogate":   # printed by --render
        doc = json.loads(hp.read_text(encoding="utf-8"))
        doc["r0"][0] = "a \ud800"
        hp.write_text(json.dumps(doc), encoding="utf-8")
        return ["style-eval", "assemble", "--human", str(hp), "--generated",
                str(gp), "--sets", "2", "--out", str(out), "--render"]
    assert cli.main(["style-eval", "assemble", "--human", str(hp),
                     "--generated", str(gp), "--sets", "2",
                     "--out", str(out)]) == 0
    sets = json.loads(out.read_text(encoding="utf-8"))
    answers = {"e1": [s["generated_index"] for s in sets["sets"]]}
    if bad == "order_seed_string":
        sets["sets"][1]["order_seed"] = "x"
    elif bad == "generated_index_bool":
        sets["sets"][0]["generated_index"] = True
    elif bad == "reports_repeated":
        sets["sets"][0]["reports"] = ["a", "a", "a", "a"]
    elif bad == "radiologist_id_null":
        sets["sets"][0]["radiologist_id"] = None
    elif bad == "answers_not_array":
        answers["e1"] = 5
    elif bad == "evaluator_surrogate":
        answers["e\ud800"] = answers.pop("e1")
    else:   # answer_bool
        answers["e1"][0] = True
    out.write_text(json.dumps(sets), encoding="utf-8")
    answers_path = tmp_path / "answers.json"
    answers_path.write_text(json.dumps(answers), encoding="utf-8")
    return ["style-eval", "score", "--sets", str(out),
            "--answers", str(answers_path)]


STYLE_EVAL_ERRORS = {
    "order_seed_string": "order_seed must be an int",
    "generated_index_bool": "generated_index must be an int",
    "reports_repeated": "radiologist r0: duplicate report text in one set",
    "radiologist_id_null": "radiologist_id must be a string, got None",
    "answers_not_array": "evaluator e1: answers must be an array",
    "answer_bool": "evaluator e1, set 0: answer must be an index",
    "human_string": "human file: radiologist r0: expected an array",
    "generated_ints": "generated file: radiologist r0: expected an array",
    "out_nul": "embedded null byte",
    "out_surrogate": ("\\udcff.json': holds a lone surrogate, which UTF-8 "
                      "cannot encode"),
    "sets_huge": ("radiologist r0: 500000000000000000 sets need "
                  "1500000000000000000 human and 500000000000000000 "
                  "generated reports, have 6 and 2"),
    "human_deep": "deep.json: JSON nested too deeply",
    "sets_deep": "deep.json: JSON nested too deeply",
    "report_surrogate": ("human.json: holds a lone surrogate, which UTF-8 "
                         "cannot encode"),
    "evaluator_surrogate": ("answers.json: holds a lone surrogate, which "
                            "UTF-8 cannot encode"),
}


@pytest.mark.parametrize("bad", sorted(STYLE_EVAL_ERRORS))
def test_style_eval_bad_input_exits_one(tmp_path, capsys, bad):
    argv = _bad_style_eval_argv(tmp_path, bad)
    capsys.readouterr()
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert STYLE_EVAL_ERRORS[bad] in captured.err
    assert captured.out == ""
    if argv[1] == "assemble":
        assert not (tmp_path / "sets.json").exists()


def test_parser_rejects_unknown_mode():
    with pytest.raises(InputError, match="invalid choice: 'nope'"):
        cli.build_parser().parse_args(["evaluate", "--mode", "nope",
                                       "--config", "c"])


@pytest.mark.parametrize("argv,message", [
    (["evaluate", "--mode", "ser2rep"],
     "the following arguments are required: --config"),
    (["prompt", "--shots", "x", "--dataset", "d"],
     "argument --shots: invalid int value: 'x'"),
    (["nope"], "argument command: invalid choice: 'nope'"),
    ([], "the following arguments are required: command"),
])
def test_usage_error_exits_one_with_one_error_line(capsys, argv, message):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["evaluate", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_readme_cli_block_parses():
    readme = Path(__file__).parent.parent / "README.md"
    block = re.search(r"## CLI\n\n```sh\n(.*?)```",
                      readme.read_text(encoding="utf-8"), re.S).group(1)
    commands = re.findall(r"^radstyle (?:.*\\\n)*.*$", block, re.M)
    assert commands
    parser = cli.build_parser()
    for command in commands:
        argv = shlex.split(command.replace("\\\n", " "))[1:]
        try:
            parser.parse_args(argv)
        except InputError:
            pytest.fail(f"README command does not parse: {command}")
