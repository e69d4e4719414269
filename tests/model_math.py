"""Reference numerics for the content-extraction model.

The paper's first step, extracting clinical content from an image, is
out of scope for the package. These small, exact numpy implementations
of the operations its trained model composes (attention pooling of text
features against topic queries, additive fusion with layer
normalization, and the multi-label cross-entropy objective) are kept
here to be checked, including by finite differences, not to be fast.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from radstyle.errors import InputError, RadstyleError


class ShapeError(RadstyleError):
    """Matrix or vector dimensions do not line up."""


def softmax(logits, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along one axis."""
    arr = np.asarray(logits, dtype=float)
    if arr.size == 0:
        raise InputError("softmax input is empty")
    shifted = arr - arr.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def attention_pool(queries, features) -> np.ndarray:
    """Pool token features into one vector per query.

    Scores are the query/feature inner products; each output row is the
    softmax-weighted sum of feature rows. Shapes: (q, d) x (t, d) -> (q, d).
    """
    q = np.asarray(queries, dtype=float)
    h = np.asarray(features, dtype=float)
    if q.ndim != 2 or h.ndim != 2:
        raise ShapeError("queries and features must be 2-D")
    if q.shape[1] != h.shape[1]:
        raise ShapeError(
            f"feature dimensions differ: queries {q.shape[1]}, "
            f"features {h.shape[1]}")
    if h.shape[0] == 0:
        raise ShapeError("features must contain at least one row")
    return softmax(q @ h.T, axis=-1) @ h


@dataclass(frozen=True)
class LayerNormParams:
    """Optional affine parameters; None means identity scale/shift."""

    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None
    eps: float = 1e-5


def fuse(d_img, d_txt, params: LayerNormParams | None = None) -> np.ndarray:
    """Add per-topic image and text descriptors and layer-normalize rows.

    Normalization uses the population variance (denominator n). With
    identity affine parameters every output row has mean 0 and variance
    1 up to the eps guard.
    """
    params = params or LayerNormParams()
    img = np.asarray(d_img, dtype=float)
    txt = np.asarray(d_txt, dtype=float)
    if img.shape != txt.shape:
        raise ShapeError(
            f"descriptor shapes differ: {img.shape} vs {txt.shape}")
    if img.ndim != 2 or img.shape[1] < 1:
        raise ShapeError("descriptors must be 2-D with at least one column")
    total = img + txt
    mean = total.mean(axis=-1, keepdims=True)
    var = total.var(axis=-1, keepdims=True)
    normed = (total - mean) / np.sqrt(var + params.eps)
    if params.gamma is not None:
        gamma = np.asarray(params.gamma, dtype=float)
        if gamma.shape != (total.shape[1],):
            raise ShapeError(
                f"gamma shape {gamma.shape} does not match feature "
                f"dimension {total.shape[1]}")
        normed = normed * gamma
    if params.beta is not None:
        beta = np.asarray(params.beta, dtype=float)
        if beta.shape != (total.shape[1],):
            raise ShapeError(
                f"beta shape {beta.shape} does not match feature "
                f"dimension {total.shape[1]}")
        normed = normed + beta
    return normed



def cross_entropy(probs, targets, floor: float = 1e-12) -> float:
    """Mean negative log-likelihood of one-hot targets.

    probs rows are predicted distributions; targets rows are one-hot.
    Probabilities at one-hot positions below ``floor`` are clamped, with
    a warning, so the loss stays finite.
    """
    p = np.asarray(probs, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape:
        raise ShapeError(f"shapes differ: probs {p.shape}, targets {t.shape}")
    if p.ndim != 2 or p.shape[0] == 0:
        raise ShapeError("probs must be a non-empty 2-D array")
    if not np.all((t == 0.0) | (t == 1.0)):
        raise InputError("targets must contain only 0 and 1")
    if not np.allclose(t.sum(axis=-1), 1.0):
        raise InputError("each target row must be one-hot")
    picked = p[t == 1.0]
    if np.any(picked < floor):
        warnings.warn(
            f"clamping {int((picked < floor).sum())} probabilities below "
            f"{floor} in cross_entropy", RuntimeWarning, stacklevel=2)
        picked = np.maximum(picked, floor)
    return float(-np.log(picked).mean())


def grad_check(f: Callable[[np.ndarray], float], analytic_grad: np.ndarray,
               point: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference
    gradients at ``point``.

    Relative error uses max(|analytic|, |numeric|, 1e-8) per coordinate
    so zero gradients do not blow up the ratio.
    """
    point = np.asarray(point, dtype=float)
    grad = np.asarray(analytic_grad, dtype=float)
    if grad.shape != point.shape:
        raise ShapeError(
            f"gradient shape {grad.shape} does not match point {point.shape}")
    worst = 0.0
    flat_point = point.ravel()
    flat_grad = grad.ravel()
    for i in range(flat_point.size):
        shifted = flat_point.copy()
        shifted[i] += h
        hi = f(shifted.reshape(point.shape))
        shifted[i] -= 2 * h
        lo = f(shifted.reshape(point.shape))
        numeric = (hi - lo) / (2 * h)
        denom = max(abs(numeric), abs(flat_grad[i]), 1e-8)
        worst = max(worst, abs(numeric - flat_grad[i]) / denom)
    return worst

