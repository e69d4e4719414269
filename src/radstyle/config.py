"""Dataclass configuration for evaluation runs, loadable from YAML/JSON.

Unknown keys are rejected so typos fail loudly instead of silently
falling back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from typing import get_type_hints

import yaml

from .client import ClientConfig
from .errors import ConfigError, IoError
from .serialize import SerializerConfig

# Table column order: composite first, then clinical, then text overlap.
DEFAULT_METRICS = ("radcliq", "radgraph_f1", "chexbert", "bleu2", "bert_score")

# Placeholder composite: rewards every sub-metric equally and flips the
# sign so that lower is better. Real deployments should fit these weights
# on rated reports and override them here.
DEFAULT_RADCLIQ_WEIGHTS = {
    "radgraph_f1": -1.0,
    "chexbert": -1.0,
    "bleu2": -1.0,
    "bert_score": -1.0,
}
DEFAULT_RADCLIQ_BIAS = 4.0


@dataclass(frozen=True)
class MetricsConfig:
    names: tuple[str, ...] = DEFAULT_METRICS
    radcliq_weights: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_RADCLIQ_WEIGHTS))
    radcliq_bias: float = DEFAULT_RADCLIQ_BIAS


@dataclass(frozen=True)
class ExperimentConfig:
    shots: tuple[int, ...] = (0, 1, 5, 10)
    seed: int = 0
    pool_split: str = "train"
    eval_split: str = "test"

    def __post_init__(self) -> None:
        if any(k < 0 for k in self.shots):
            raise ConfigError("shot counts must be non-negative")
        repeated = sorted({k for k in self.shots if self.shots.count(k) > 1})
        if repeated:
            raise ConfigError(f"shot counts must be distinct: {repeated}")
        if self.pool_split == self.eval_split:
            raise ConfigError("pool and eval splits must differ")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "results"
    prefix: str = "run"


@dataclass(frozen=True)
class HarnessConfig:
    dataset: str = "dataset.jsonl"
    graphs: str | None = None
    vectors: str | None = None
    embeddings: str | None = None
    baseline: str | None = None
    serializer: SerializerConfig = field(default_factory=SerializerConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    client: ClientConfig = field(default_factory=ClientConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


def _build(cls, doc: dict, context: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected a mapping")
    types = get_type_hints(cls)   # field name -> resolved type
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")
    kwargs = {}
    for name, value in doc.items():
        if is_dataclass(types[name]):
            value = _build(types[name], value, f"{context}.{name}")
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def load_config(path: str | Path) -> HarnessConfig:
    """Read a harness configuration from a YAML (or JSON) file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: malformed YAML: {exc}") from exc
    if doc is None:
        doc = {}
    return _build(HarnessConfig, doc, str(path))
