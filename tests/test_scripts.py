"""Each script in ``scripts/`` runs end to end on small arguments."""

import importlib.util
import json
from pathlib import Path

import pytest

from radstyle.harness import SOURCES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script_main(name):
    """The ``main`` of ``scripts/<name>.py``."""
    spec = importlib.util.spec_from_file_location(name,
                                                  SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_style_eval_demo(capsys):
    assert script_main("style_eval_demo")(["--sets", "8", "--show-set"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Report 1:"
    assert lines[-2].startswith("pooled: ")
    assert lines[-1].startswith(("p >= 0.05: ", "p < 0.05: "))


@pytest.mark.parametrize("mode", sorted(SOURCES))
def test_run_mock_experiment(tmp_path, capsys, mode):
    out = tmp_path / "mock_run"
    assert script_main("run_mock_experiment")(
        ["--out", str(out), "--records", "14", "--train", "10",
         "--mode", mode]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"results: {out / 'results' / 'mock_table.csv'}"


def test_bench_scale(tmp_path, capsys):
    src = Path(__file__).resolve().parent.parent / "src"
    out = tmp_path / "scale.json"
    assert script_main("bench_scale")(
        ["--side", f"a={src}", "--side", f"b={src}", "--eval", "12",
         "--runs", "2", "--out", str(out)]) == 0
    records = json.loads(out.read_text(encoding="utf-8"))
    assert [(r["side"], r["n_eval"]) for r in records] == [("a", 12),
                                                            ("b", 12)]
    assert all(r["artifacts_identical"] and len(r["runs"]) == 2
               and all(run["code"] == 0 for run in r["runs"])
               for r in records)
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_bench_scale_leaves_out_as_it_was_when_a_run_fails(tmp_path, capsys):
    src = Path(__file__).resolve().parent.parent / "src"
    empty = tmp_path / "empty"      # no radstyle package: the run exits 1
    empty.mkdir()
    out = tmp_path / "scale.json"
    out.write_text("[]\n", encoding="utf-8")
    assert script_main("bench_scale")(
        ["--side", f"a={src}", "--side", f"b={empty}", "--eval", "12",
         "--runs", "1", "--out", str(out)]) == 1
    assert out.read_text(encoding="utf-8") == "[]\n"
    assert "is left as it was" in capsys.readouterr().err
