"""Report-quality metrics and the statistics used to summarize them.

Text metrics (BLEU-2, embedding-based greedy-match score) work on token
sequences and precomputed embedding matrices; clinical metrics compare
report graphs and 14-dimensional pathology indicator vectors. Neural
models are never executed here: their outputs are ingested from sidecar
files so every number is reproducible offline.
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import mul
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InputError, SchemaError
from .graph import RadGraph
from .jsonfiles import read_study_map

# Token sequences are plain lists of lower-cased strings; pathology vectors
# are 14-tuples of 0/1 ints; embedding matrices are (tokens, dim) float arrays.
TokenSequence = list[str]
PathologyVector = tuple[int, ...]

PATHOLOGY_DIM = 14

# One token: a punctuation mark (.,:;()/), or the run of a whitespace-free
# word from its first to its last character that is not one.
_TOKEN = re.compile(r"[.,:;()/]|[^\s.,:;()/](?:\S*[^\s.,:;()/])?")


def tokenize(text: str) -> TokenSequence:
    """Lower-case, split on whitespace, and peel leading/trailing
    punctuation marks (.,:;()/ ) off into their own tokens."""
    return _TOKEN.findall(text.lower())


def _clipped_matches(cand: Iterable, ref: Iterable) -> int:
    """The size of the intersection of two multisets, each given as its
    elements, repeats included: the sum over the candidate's distinct
    elements of the smaller of their two counts."""
    cand_counts = Counter(cand)
    ref_counts = Counter(ref)
    return sum(map(min, cand_counts.values(),
                   map(ref_counts.get, cand_counts, repeat(0))))


def ngram_counts(tokens: Sequence[str]) -> tuple[str, ...]:
    """Prepare a reference's tokens for ``bleu2``: its tokens as a tuple,
    the flat multiset of its unigrams, in order, so that its bigrams
    follow. Each token is interned, so a token that many references hold
    is kept once; a candidate is scored as its plain token list."""
    return tuple(map(sys.intern, tokens))


def bleu2(candidate: Sequence[str], reference: Sequence[str],
          eps: float = 1e-9) -> float:
    """Geometric mean of clipped unigram/bigram precision with a brevity
    penalty for short candidates.

    Zero precisions are replaced by ``eps``. An order with no candidate
    n-grams counts as precision 1 when the reference has none either
    (so identical single-token inputs still score 1.0) and 0 otherwise.
    Either side may be a token sequence or its ``ngram_counts``; one
    non-empty sequence passed as both sides scores 1 without its n-grams
    being counted.
    """
    length = len(candidate)
    if length == 0:
        return 0.0
    if candidate is reference:   # every precision is 1, brevity too
        return 1.0
    precisions = []
    for n, cand, ref in ((1, candidate, reference),
                         (2, zip(candidate, candidate[1:]),
                          zip(reference, reference[1:]))):
        total = length - n + 1
        if total == 0:
            p = 1.0 if len(reference) < n else 0.0
        else:
            p = _clipped_matches(cand, ref) / total
        precisions.append(p if p > 0.0 else eps)
    brevity = (math.exp(1.0 - len(reference) / length)
               if length < len(reference) else 1.0)
    return brevity * math.sqrt(precisions[0] * precisions[1])


class RadGraphF1(NamedTuple):
    entity_f1: float
    relation_f1: float
    combined: float


def _multiset_f1(pred: Sequence, ref: Sequence) -> float:
    """F1 of two multisets, each given as the sequence of its elements;
    one sequence passed as both sides scores 1 without being counted."""
    if pred is ref:
        return 1.0
    n_pred = len(pred)
    n_ref = len(ref)
    if n_pred == 0 and n_ref == 0:
        return 1.0
    if n_pred == 0 or n_ref == 0:
        return 0.0
    matches = _clipped_matches(pred, ref)
    precision = matches / n_pred
    recall = matches / n_ref
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True, slots=True)
class GraphKeys:
    """What RadGraph-F1 reads of one graph: its entity keys and its
    relation keys, each a tuple with one element per entity or
    relation, so a key repeats as often as it occurs."""

    entities: tuple
    relations: tuple


def graph_keys(graph: RadGraph | GraphKeys,
               shared: dict | None = None) -> GraphKeys:
    """Prepare a graph for ``radgraph_f1``; prepared input passes through
    unchanged. With ``shared``, each entity key and relation key is the
    object ``shared`` holds for its value, put there if absent."""
    if isinstance(graph, GraphKeys):
        return graph
    keys = {eid: (entity.tokens.casefold(), entity.label)
            for eid, entity in graph.entities.items()}
    if shared is not None:
        keys = {eid: shared.setdefault(key, key) for eid, key in keys.items()}
    relations = tuple((keys[r.source], keys[r.target], r.kind)
                      for r in graph.relations)
    if shared is not None:
        relations = tuple(map(shared.setdefault, relations, relations))
    return GraphKeys(tuple(keys.values()), relations)


def radgraph_f1(pred: RadGraph | GraphKeys,
                ref: RadGraph | GraphKeys) -> RadGraphF1:
    """Overlap F1 of entities and relations between two report graphs.

    Entities match on (case-folded tokens, label); relations additionally
    require both endpoint entities to match and the kind to agree. Token
    positions are ignored. Empty-vs-empty scores 1, empty-vs-nonempty 0.
    Either side may be a graph or its ``graph_keys``.
    """
    pred_keys = graph_keys(pred)
    ref_keys = graph_keys(ref)
    entity_f1 = _multiset_f1(pred_keys.entities, ref_keys.entities)
    relation_f1 = _multiset_f1(pred_keys.relations, ref_keys.relations)
    return RadGraphF1(entity_f1, relation_f1, (entity_f1 + relation_f1) / 2.0)


def as_pathology_vector(values) -> PathologyVector:
    """Validate and normalize a 14-long 0/1 indicator array."""
    if not isinstance(values, (list, tuple)):
        raise InputError("pathology_vector must be an array")
    if len(values) != PATHOLOGY_DIM:
        raise InputError(
            f"pathology vector must have {PATHOLOGY_DIM} entries, got {len(values)}")
    for v in values:
        if type(v) is not int or v not in (0, 1):   # JSON true is no indicator
            raise InputError(f"pathology indicator must be 0 or 1, got {v!r}")
    return tuple(values)


def chexbert_similarity(a: Sequence, b: Sequence) -> float:
    """Cosine similarity of two pathology indicator vectors.

    Two all-zero vectors agree perfectly (1.0); exactly one all-zero
    vector scores 0.0.
    """
    va = as_pathology_vector(a)
    vb = as_pathology_vector(b)
    norm_a = math.sqrt(sum(x * x for x in va))
    norm_b = math.sqrt(sum(x * x for x in vb))
    if norm_a == 0.0 and norm_b == 0.0:
        return 1.0
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    dot = sum(map(mul, va, vb))
    return dot / (norm_a * norm_b)


def _as_embedding(name: str, rows) -> np.ndarray:
    """``rows`` as a float matrix; ``name`` labels errors.

    Only numbers are read: text, ``null``, objects and booleans are
    refused, a boolean among numbers too. An ``ndarray`` is not scanned
    for booleans again: its dtype already tells.
    """
    try:
        arr = np.asarray(rows)
        if arr.dtype.kind not in "if":   # text, null, objects, booleans
            raise TypeError(f"{arr.dtype} entries")
        if (arr.ndim == 2 and not isinstance(rows, np.ndarray)
                and bool in set(map(type, chain.from_iterable(rows)))):
            raise TypeError("boolean entries")   # numpy read them as numbers
    except (TypeError, ValueError) as exc:   # ragged rows, non-numbers
        raise InputError(
            f"{name} matrix must be rows of numbers of equal length") from exc
    arr = arr.astype(float, copy=False)
    if arr.ndim != 2 or arr.size == 0:
        raise InputError(f"{name} matrix must be non-empty and 2-D")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} matrix contains non-finite values")
    return arr


@dataclass(frozen=True, slots=True, eq=False)
class UnitRows:
    """An embedding matrix with every non-zero row scaled to unit length."""

    rows: np.ndarray


def unit_rows(emb, name: str = "candidate") -> UnitRows:
    """Validate and prepare an embedding matrix for ``bert_score``;
    prepared input passes through unchanged. ``name`` labels errors."""
    if isinstance(emb, UnitRows):
        return emb
    return _scaled(_as_embedding(f"{name} embedding", emb))


def _scaled(arr: np.ndarray) -> UnitRows:
    """A checked float matrix with its non-zero rows scaled to unit
    length."""
    # Each row is first scaled by the power of two that brings its largest
    # magnitude into [0.5, 1): exact, and its sum of squares is then in
    # [0.25, width], so it neither overflows nor underflows.
    _, exponents = np.frexp(np.maximum.reduce(np.abs(arr), axis=1,
                                              keepdims=True))
    arr = np.ldexp(arr, -exponents)
    # the reduction ``np.linalg.norm(arr, axis=1, keepdims=True)`` runs on
    # real input, without its Python wrapper: the bits are the same
    norms = np.sqrt(np.add.reduce(arr * arr, axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    return UnitRows(arr / norms)


def bert_score(cand_emb, ref_emb) -> float:
    """Greedy-matching F1 over token embeddings.

    Precision is the mean over candidate rows of the best cosine against
    any reference row; recall is symmetric; the score is their harmonic
    mean. Invariant under row permutation of either matrix. Either side
    may be a matrix or its ``unit_rows``.
    """
    cand = unit_rows(cand_emb, "candidate").rows
    ref = unit_rows(ref_emb, "reference").rows
    if cand.shape[1] != ref.shape[1]:
        raise InputError(
            f"embedding dimensions differ: {cand.shape[1]} vs {ref.shape[1]}")
    if np.may_share_memory(cand, ref):
        # NumPy computes A @ A.T with a symmetric kernel whose rounding
        # differs from the general product's; keep one arithmetic path.
        ref = ref.copy()
    sim = cand @ ref.T
    # sum / n is the float64 ``mean()`` without its Python wrapper
    precision = float(sim.max(axis=1).sum()) / sim.shape[0]
    recall = float(sim.max(axis=0).sum()) / sim.shape[1]
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def radcliq(components: dict[str, float], weights: dict[str, float],
            bias: float = 0.0) -> float:
    """Affine combination of sub-metric values; lower is better."""
    total = bias
    for name, weight in weights.items():
        if name not in components:
            raise ConfigError(f"composite weight references missing metric {name!r}")
        total += weight * components[name]
    return total


@dataclass(frozen=True)
class MetricReport:
    """Summary of one metric over a sample: mean, 95% CI half-width, n."""

    name: str
    mean: float
    ci_halfwidth: float
    n: int


def mean_ci(values: Sequence[float], name: str = "score") -> MetricReport:
    """Mean with 1.96 * s / sqrt(n) half-width; s is the sample standard
    deviation (n-1 denominator), zero when n == 1."""
    n = len(values)
    if n == 0:
        raise InputError("mean_ci requires at least one value")
    mean = sum(values) / n
    if n == 1:
        sd = 0.0
    else:
        sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
    return MetricReport(name, mean, 1.96 * sd / math.sqrt(n), n)


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@dataclass(frozen=True)
class ZTestResult:
    successes: int
    trials: int
    p0: float
    phat: float
    z: float
    p_value: float


def z_test_proportion(x: int, n: int, p0: float) -> ZTestResult:
    """One-sided z-test of a sample proportion against p0 (alternative:
    proportion > p0).

    The standard error uses the sample proportion, sqrt(phat(1-phat)/n),
    not the null proportion. When phat is exactly 0 or 1 the standard
    error vanishes; the p-value is then 1.0 for phat <= p0 and 0.0 for
    phat > p0.
    """
    if n < 1:
        raise InputError("n must be at least 1")
    if not 0 <= x <= n:
        raise InputError(f"x must be in [0, {n}], got {x}")
    if not 0.0 < p0 < 1.0:
        raise InputError(f"p0 must be in (0, 1), got {p0}")
    phat = x / n
    if phat in (0.0, 1.0):
        z = math.inf if phat > p0 else -math.inf
        p_value = 0.0 if phat > p0 else 1.0
        return ZTestResult(x, n, p0, phat, z, p_value)
    se = math.sqrt(phat * (1.0 - phat) / n)
    z = (phat - p0) / se
    return ZTestResult(x, n, p0, phat, z, 1.0 - normal_cdf(z))


def load_pathology_vectors(path) -> dict[str, PathologyVector]:
    """Read a JSON sidecar mapping study id to a 14-entry indicator array."""
    return read_study_map(path, lambda _, values: as_pathology_vector(values))


def load_embeddings(path) -> dict[str, UnitRows]:
    """Read a JSON sidecar mapping study id to an array-of-arrays of reals,
    each kept only as its ``unit_rows``.

    Every matrix must have the same width, since any two may be compared.
    """
    out = read_study_map(
        path, lambda _, rows: _scaled(_as_embedding("embedding", rows)))
    first: dict[int, str] = {}   # width -> the first study that has it
    for study_id, emb in out.items():
        first.setdefault(emb.rows.shape[1], study_id)
    if len(first) > 1:
        (w1, s1), (w2, s2) = list(first.items())[:2]
        raise SchemaError(f"{path}: embedding widths differ: study {s1} has "
                          f"{w1}, study {s2} has {w2}")
    return out
