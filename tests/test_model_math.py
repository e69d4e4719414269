import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstyle.errors import InputError

from model_math import (LayerNormParams, ShapeError, attention_pool,
                        cross_entropy, fuse, grad_check, softmax)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(25):
        logits = rng.normal(scale=5.0, size=(rng.integers(1, 6),
                                             rng.integers(1, 9)))
        rows = softmax(logits)
        assert np.allclose(rows.sum(axis=-1), 1.0, atol=1e-12)
        assert (rows > 0).all()


def test_softmax_shift_invariance():
    logits = np.array([[0.5, -1.0, 2.0]])
    shifted = softmax(logits + 123.0)
    assert np.allclose(softmax(logits), shifted, atol=1e-12)


def test_softmax_large_logits_stable():
    rows = softmax(np.array([[1000.0, 1000.0, -1000.0]]))
    assert np.isfinite(rows).all()
    assert rows[0, 0] == pytest.approx(0.5)


def test_softmax_empty():
    with pytest.raises(InputError):
        softmax(np.zeros((0, 3)))


def test_attention_pool_single_feature_row():
    q = np.random.default_rng(2).normal(size=(4, 3))
    h = np.array([[1.0, 2.0, 3.0]])
    pooled = attention_pool(q, h)
    assert np.allclose(pooled, np.tile(h, (4, 1)), atol=1e-12)


def test_attention_pool_zero_queries_average():
    h = np.array([[1.0, 0.0], [3.0, 2.0], [2.0, 4.0]])
    pooled = attention_pool(np.zeros((2, 2)), h)
    assert np.allclose(pooled, np.tile(h.mean(axis=0), (2, 1)), atol=1e-12)


def test_attention_pool_hand_example():
    q = np.array([[1.0, 0.0]])
    h = np.array([[1.0, 0.0], [0.0, 1.0]])
    w = math.e / (math.e + 1.0)
    pooled = attention_pool(q, h)
    assert pooled == pytest.approx(np.array([[w, 1.0 - w]]), abs=1e-9)
    assert pooled[0, 0] == pytest.approx(0.7311, abs=1e-4)


def test_attention_pool_convex_hull():
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = rng.normal(size=(3, 4))
        h = rng.normal(size=(5, 4))
        pooled = attention_pool(q, h)
        lo, hi = h.min(axis=0), h.max(axis=0)
        assert (pooled >= lo - 1e-9).all()
        assert (pooled <= hi + 1e-9).all()


def test_attention_pool_shape_errors():
    with pytest.raises(ShapeError, match="dimensions differ"):
        attention_pool(np.ones((2, 3)), np.ones((4, 2)))
    with pytest.raises(ShapeError):
        attention_pool(np.ones(3), np.ones((4, 3)))
    with pytest.raises(ShapeError):
        attention_pool(np.ones((2, 3)), np.ones((0, 3)))


def test_fuse_normalizes_rows():
    rng = np.random.default_rng(4)
    out = fuse(rng.normal(size=(6, 16)), rng.normal(size=(6, 16)),
               LayerNormParams(eps=1e-8))
    assert np.abs(out.mean(axis=-1)).max() < 1e-6
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-5


def test_fuse_degenerate_row_returns_shift():
    d = np.array([[1.0, -2.0, 3.0]])
    beta = np.array([5.0, 6.0, 7.0])
    out = fuse(d, -d, LayerNormParams(beta=beta))
    assert np.array_equal(out, beta[None, :])


def test_fuse_hand_row():
    out = fuse(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]),
               LayerNormParams(eps=1e-5))
    assert out == pytest.approx(np.array([[-1.0, 1.0]]), abs=1e-4)


def test_fuse_affine_applied():
    rng = np.random.default_rng(5)
    gamma = np.full(8, 2.0)
    beta = np.full(8, 3.0)
    out = fuse(rng.normal(size=(4, 8)), rng.normal(size=(4, 8)),
               LayerNormParams(gamma=gamma, beta=beta, eps=1e-8))
    assert np.abs(out.mean(axis=-1) - 3.0).max() < 1e-6
    assert np.abs(out.var(axis=-1) - 4.0).max() < 1e-4


def test_fuse_shape_errors():
    with pytest.raises(ShapeError, match="shapes differ"):
        fuse(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(ShapeError, match="gamma"):
        fuse(np.ones((2, 3)), np.ones((2, 3)),
             LayerNormParams(gamma=np.ones(4)))
    with pytest.raises(ShapeError, match="beta"):
        fuse(np.ones((2, 3)), np.ones((2, 3)),
             LayerNormParams(beta=np.ones(2)))


def one_hot(rows, cols, targets):
    y = np.zeros((rows, cols))
    for i, j in enumerate(targets):
        y[i, j] = 1.0
    return y


def test_cross_entropy_perfect_prediction():
    y = one_hot(3, 4, [0, 2, 3])
    assert cross_entropy(y, y) == 0.0


def test_cross_entropy_uniform_is_log_vocab():
    for v in (2, 8, 31):
        p = np.full((5, v), 1.0 / v)
        y = one_hot(5, v, [i % v for i in range(5)])
        assert cross_entropy(p, y) == pytest.approx(math.log(v), abs=1e-12)


def test_cross_entropy_hand_value():
    p = np.array([[0.9, 0.1], [0.3, 0.7]])
    y = one_hot(2, 2, [0, 1])
    want = -(math.log(0.9) + math.log(0.7)) / 2.0
    assert cross_entropy(p, y) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.2310, abs=1e-4)


def test_cross_entropy_floor_warns():
    p = np.array([[0.0, 1.0]])
    y = one_hot(1, 2, [0])
    with pytest.warns(RuntimeWarning, match="clamping"):
        loss = cross_entropy(p, y)
    assert loss == pytest.approx(-math.log(1e-12))


def test_cross_entropy_decreases_as_target_mass_grows():
    y = one_hot(1, 3, [0])
    previous = None
    for target_mass in (0.2, 0.5, 0.9):
        rest = (1.0 - target_mass) / 2.0
        loss = cross_entropy(np.array([[target_mass, rest, rest]]), y)
        if previous is not None:
            assert loss < previous
        previous = loss


def test_cross_entropy_validation():
    p = np.full((2, 2), 0.5)
    with pytest.raises(ShapeError):
        cross_entropy(p, np.zeros((3, 2)))
    with pytest.raises(InputError, match="one-hot"):
        cross_entropy(p, np.zeros((2, 2)))
    with pytest.raises(InputError, match="0 and 1"):
        cross_entropy(p, np.full((2, 2), 0.5))


def test_grad_check_linear_map():
    rng = np.random.default_rng(6)
    c = rng.normal(size=(3, 4))
    point = rng.normal(size=(3, 4))

    def f(x):
        return float((c * x).sum())

    # Central differences are exact for linear maps at any step size, so
    # a larger h leaves only negligible rounding; tiny h amplifies the
    # float cancellation in (f(x+h) - f(x-h)) instead.
    assert grad_check(f, c, point, h=1e-2) < 1e-10
    assert grad_check(f, c, point, h=1e-5) < 1e-4


def test_grad_check_softmax_cross_entropy():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(4, 6))
    y = one_hot(4, 6, rng.integers(0, 6, size=4))

    def f(z):
        return cross_entropy(softmax(z), y)

    analytic = (softmax(logits) - y) / logits.shape[0]
    assert grad_check(f, analytic, logits, h=1e-5) < 1e-4


def attention_sum_grad(q, h):
    # d/dQ sum(attention_pool(Q, H)) via the softmax Jacobian.
    a = softmax(q @ h.T)
    s = h.sum(axis=1)
    dots = a @ s
    return (a * (s[None, :] - dots[:, None])) @ h


def test_grad_check_attention_pool():
    rng = np.random.default_rng(8)
    q = rng.normal(size=(3, 5))
    h = rng.normal(size=(4, 5))

    def f(x):
        return float(attention_pool(x, h).sum())

    assert grad_check(f, attention_sum_grad(q, h), q, h=1e-5) < 1e-4


def test_grad_check_detects_wrong_gradient():
    point = np.array([1.0, 2.0])

    def f(x):
        return float((x ** 2).sum())

    assert grad_check(f, 3.0 * point, point) > 0.1


def test_grad_check_shape_mismatch():
    with pytest.raises(ShapeError):
        grad_check(lambda x: 0.0, np.ones(3), np.ones(4))


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_softmax_property(rows, cols, seed):
    logits = np.random.default_rng(seed).normal(scale=3.0,
                                                size=(rows, cols))
    out = softmax(logits)
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-9)
