"""Each script in ``scripts/`` runs end to end on small arguments."""

import importlib.util
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
