"""Dataclass configuration for evaluation runs, loadable from YAML/JSON.

Unknown keys are rejected so typos fail loudly instead of silently
falling back to defaults, and every value is checked against its field's
type hint, naming the key.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import yaml

from .client import ClientConfig
from .errors import ConfigError
from .jsonfiles import read_text

# Table column order: composite first, then clinical, then text overlap.
DEFAULT_METRICS = ("radcliq", "radgraph_f1", "chexbert", "bleu2", "bert_score")
# The metrics a scorer computes itself; radcliq combines them.
BASE_METRICS = ("bleu2", "bert_score", "chexbert", "radgraph_f1")

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
# The largest |bias| + sum of |weights|: no metric exceeds 2 ** 54 in size
# (BERTScore F1 as P + R nears 0), so mean_ci's squares stay finite.
RADCLIQ_SCALE_MAX = 1e100


@dataclass(frozen=True)
class MetricsConfig:
    names: tuple[str, ...] = DEFAULT_METRICS
    radcliq_weights: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_RADCLIQ_WEIGHTS))
    radcliq_bias: float = DEFAULT_RADCLIQ_BIAS

    def __post_init__(self) -> None:
        if not self.names:
            raise ConfigError("metrics names must name at least one metric")
        repeated = sorted({n for n in self.names if self.names.count(n) > 1})
        if repeated:
            raise ConfigError(f"metrics names must be distinct: {repeated}")
        for name in self.names:
            if name != "radcliq" and name not in BASE_METRICS:
                raise ConfigError(f"metrics names: unknown metric {name!r}")
        for name in self.radcliq_weights:
            if name not in BASE_METRICS:
                raise ConfigError(
                    f"metrics radcliq_weights: unknown metric {name!r}")
        if "radcliq" in self.names and not self.radcliq_weights:
            raise ConfigError("metrics radcliq_weights must weight at least "
                              "one metric when names holds radcliq")
        if not math.isfinite(self.radcliq_bias):
            raise ConfigError(f"metrics radcliq_bias must be a finite "
                              f"number, got {self.radcliq_bias!r}")
        for name, weight in self.radcliq_weights.items():
            if not math.isfinite(weight):
                raise ConfigError(f"metrics radcliq_weights {name} must be "
                                  f"a finite number, got {weight!r}")
        scale = abs(self.radcliq_bias) + sum(
            map(abs, self.radcliq_weights.values()))
        if scale > RADCLIQ_SCALE_MAX:
            raise ConfigError(f"metrics radcliq_bias and radcliq_weights: "
                              f"|bias| + the sum of |weights| must be at "
                              f"most {RADCLIQ_SCALE_MAX:g}, got {scale:g}")


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


# output file kind -> its ASCII name after the prefix; OutputConfig checks
# that the longest fits the file system. A run appends its items to the
# spool, which ``write_outputs`` renames to the scores file.
OUTPUT_SUFFIXES = {"table_txt": "_table.txt", "table_csv": "_table.csv",
                   "scores": "_scores.jsonl",
                   "spool": "_scores.jsonl.partial"}

# blank, . or .., or holding a path separator, NUL or lone surrogate
_NOT_A_FILE_NAME = re.compile(r"\A(\s*|\.\.?)\Z|[/\\\x00\ud800-\udfff]")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "results"
    prefix: str = "run"   # names files in ``directory``, never a subdirectory

    def __post_init__(self) -> None:
        try:   # printed once written, so UTF-8 must encode it too
            nameable = b"\0" not in self.directory.encode("utf-8")
        except UnicodeEncodeError:   # a lone surrogate
            nameable = False
        if not nameable:
            raise ConfigError(f"output directory must be a path the file "
                              f"system can name, got {self.directory!r}")
        if _NOT_A_FILE_NAME.search(self.prefix):
            raise ConfigError(f"output prefix must be a plain file name, "
                              f"got {self.prefix!r}")
        name = self.prefix + max(OUTPUT_SUFFIXES.values(), key=len)
        size = len(os.fsencode(name))
        where, name_max = _name_max(self.directory)
        if name_max is not None and size > name_max:
            raise ConfigError(
                f"output prefix too long: {name!r} has {size} bytes, over "
                f"the {name_max} that file names in {where} may have")

    def path(self, kind: str) -> Path:
        """Where the output file of ``kind`` (a key of ``OUTPUT_SUFFIXES``)
        goes."""
        return Path(self.directory) / (self.prefix + OUTPUT_SUFFIXES[kind])


def _name_max(directory) -> tuple[str, int | None]:
    """The nearest existing ancestor of ``directory``, itself included,
    and the most bytes a file name there may have (None if unknown)."""
    path = Path(directory).absolute()
    where = str(next((p for p in (path, *path.parents)
                      if os.path.exists(p)), path))
    try:
        name_max = os.pathconf(where, "PC_NAME_MAX")
    except (AttributeError, OSError):   # no pathconf here, or no answer
        return where, None
    return where, name_max if name_max > 0 else None   # -1: no limit


@dataclass(frozen=True)
class HarnessConfig:
    dataset: str = "dataset.jsonl"
    graphs: str | None = None
    vectors: str | None = None
    embeddings: str | None = None
    baseline: str | None = None
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    client: ClientConfig = field(default_factory=ClientConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


# each leaf type -> what an error says a value must be
_EXPECTED = {str: "a string", str | None: "a string or null",
             int: "an integer", float: "a number",
             tuple[int, ...]: "a list of integers",
             tuple[str, ...]: "a list of strings",
             dict[str, float]: "a mapping of strings to numbers"}


def _fits(value, hint) -> bool:
    """Whether a decoded value can stand for ``hint``: a bool is no int,
    an int counts as a float, and a list stands for a tuple."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return any(_fits(value, arg) for arg in args)
    if origin is tuple:   # tuple[X, ...]
        return (isinstance(value, list)
                and all(_fits(v, args[0]) for v in value))
    if origin is dict:
        return isinstance(value, dict) and all(
            _fits(k, args[0]) and _fits(v, args[1]) for k, v in value.items())
    if hint is float:
        return type(value) is int or isinstance(value, float)
    return type(value) is hint


def _build(cls, doc, path, prefix: str):
    """A ``cls`` from the mapping ``doc``; ``prefix`` names its section
    in errors ("client " for the ``client:`` mapping)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: {prefix or 'config '}must be a mapping")
    types = get_type_hints(cls)   # field name -> resolved type
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ConfigError(f"{path}: unknown {prefix}keys {unknown}")
    kwargs = {}
    for name, value in doc.items():
        hint = types[name]
        if is_dataclass(hint):
            value = _build(hint, value, path, f"{prefix}{name} ")
        elif not _fits(value, hint):
            raise ConfigError(f"{path}: {prefix}{name} must be "
                              f"{_EXPECTED[hint]}, got {value!r}")
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


def load_config(path: str | Path) -> HarnessConfig:
    """Read a harness configuration from a YAML (or JSON) file."""
    try:
        doc = yaml.safe_load(read_text(path))
    except yaml.YAMLError as exc:   # its text spans lines; ours takes one
        raise ConfigError(f"{path}: malformed YAML: "
                          f"{' '.join(str(exc).split())}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: YAML nested too deeply") from exc
    except ValueError as exc:   # a too-long integer, or a date past its range
        raise ConfigError(f"{path}: value out of range: {exc}") from exc
    if doc is None:
        doc = {}
    return _build(HarnessConfig, doc, path, "")
