import re
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_type_hints

import pytest
import yaml

from radstyle.client import ClientConfig
from radstyle.config import (ExperimentConfig, HarnessConfig, MetricsConfig,
                             load_config)
from radstyle.errors import ConfigError, IoError


def test_defaults():
    cfg = HarnessConfig()
    assert cfg.metrics.names == ("radcliq", "radgraph_f1", "chexbert",
                                 "bleu2", "bert_score")
    assert cfg.experiment.shots == (0, 1, 5, 10)
    assert cfg.experiment.pool_split == "train"
    assert cfg.experiment.eval_split == "test"
    assert cfg.client.mode == "identity-mock"
    assert cfg.metrics.radcliq_bias == 4.0
    assert set(cfg.metrics.radcliq_weights) == {"radgraph_f1", "chexbert",
                                                "bleu2", "bert_score"}


def test_load_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "dataset: data.jsonl\n"
        "graphs: graphs.json\n"
        "client:\n"
        "  mode: fixed-mock\n"
        "experiment:\n"
        "  shots: [0, 3]\n"
        "  seed: 9\n"
        "output:\n"
        "  directory: out\n")
    cfg = load_config(path)
    assert cfg.dataset == "data.jsonl"
    assert cfg.client.mode == "fixed-mock"
    assert cfg.experiment.shots == (0, 3)
    assert cfg.experiment.seed == 9
    assert cfg.output.directory == "out"


def test_load_json_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"dataset": "d.jsonl", "metrics": {"names": ["bleu2"]}}')
    cfg = load_config(path)
    assert cfg.metrics.names == ("bleu2",)


def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_config(path) == HarnessConfig()


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    for text, key in [("datasett: d.jsonl\n", "datasett"),
                      ("serializer:\n  delimiter: ' | '\n", "serializer")]:
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"unknown keys \\['{key}'\\]"):
            load_config(path)


def test_unknown_nested_key_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("client:\n  modee: http\n")
    with pytest.raises(ConfigError, match="modee"):
        load_config(path)


def test_malformed_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("a: [unclosed\n")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(path)


def test_missing_file():
    with pytest.raises(IoError):
        load_config("/nonexistent/run.yaml")


def test_values_are_checked_against_their_type_hints(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "graphs: null\n"
        "metrics:\n"
        "  radcliq_weights: {bleu2: -1}\n"
        "  radcliq_bias: 4\n"
        "client:\n"
        "  temperature: 1\n")
    cfg = load_config(path)   # an int counts as a float
    assert cfg.graphs is None
    assert cfg.metrics.radcliq_weights == {"bleu2": -1}
    assert cfg.client.temperature == 1
    for text, message in [
            ("experiment:\n  shots: [0, true]\n",
             "experiment shots must be a list of integers, got [0, True]"),
            ("metrics:\n  radcliq_weights: [bleu2]\n",
             "metrics radcliq_weights must be a mapping of strings to "
             "numbers, got ['bleu2']"),
            ("client: [http]\n", "client must be a mapping"),
            ("[dataset]\n", "config must be a mapping")]:
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: {message}"


def test_every_setting_of_the_wrong_type_is_named(tmp_path):
    path = tmp_path / "run.yaml"
    for key_path in sorted(_key_paths(HarnessConfig)):
        *sections, key = key_path.split(".")
        doc = {key: [[]]}   # no setting's type admits a list of lists
        for section in reversed(sections):
            doc = {section: doc}
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match=re.escape(
                f"{' '.join([*sections, key])} must be ")):
            load_config(path)


def test_client_mode_validated():
    with pytest.raises(ConfigError, match="unknown client mode"):
        ClientConfig(mode="telepathy")


def test_experiment_validation():
    with pytest.raises(ConfigError, match="non-negative"):
        ExperimentConfig(shots=(0, -1))
    with pytest.raises(ConfigError, match=re.escape("distinct: [1, 5]")):
        ExperimentConfig(shots=(5, 1, 0, 1, 5))
    with pytest.raises(ConfigError, match="must differ"):
        ExperimentConfig(pool_split="test", eval_split="test")


def test_metrics_config_weights_independent():
    a = MetricsConfig()
    b = MetricsConfig()
    assert a.radcliq_weights == b.radcliq_weights
    assert a.radcliq_weights is not b.radcliq_weights


def _key_paths(cls, doc=None):
    """Dotted paths of the leaf settings of ``cls``, or of the keys of
    ``doc`` read as a ``cls``."""
    types = get_type_hints(cls)
    paths = set()
    for name in (types if doc is None else doc):
        if is_dataclass(types.get(name)):
            sub = _key_paths(types[name], None if doc is None else doc[name])
            paths.update(f"{name}.{path}" for path in sub)
        else:
            paths.add(name)
    return paths


def test_readme_config_block_shows_every_setting_with_its_default(tmp_path):
    readme = Path(__file__).parent.parent / "README.md"
    block = re.search(r"\*\*Config\*\*.*?```yaml\n(.*?)```",
                      readme.read_text(encoding="utf-8"), re.S).group(1)
    path = tmp_path / "readme.yaml"
    path.write_text(block, encoding="utf-8")
    assert load_config(path) == HarnessConfig()
    assert (_key_paths(HarnessConfig, yaml.safe_load(block))
            == _key_paths(HarnessConfig))
