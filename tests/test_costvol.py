"""Attentive correlation: attention math, ablation equivalence, gradients."""
import numpy as np
import pytest

from conftest import finite_diff, grad_gap
from lidom import costvol as C
from lidom import tensor as T


def _clouds(seed=0, n1=14, n2=18, c=5):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n1, 3)), rng.normal(size=(n1, c)),
            rng.normal(size=(n2, 3)), rng.normal(size=(n2, c)))


def _cv(mode="attentive", seed=0, c=5, k1=4, k2=3):
    store = T.ParamStore()
    cv = C.CostVolume(store, "cv", c, k1, k2,
                      rng=np.random.default_rng(seed), mode=mode)
    return store, cv


def test_output_shape_and_determinism():
    p1, f1, p2, f2 = _clouds()
    _, cv = _cv()
    a = cv(T.const(p1), T.const(f1), T.const(p2), T.const(f2))
    b = cv(T.const(p1), T.const(f1), T.const(p2), T.const(f2))
    assert a.shape == (14, 5)
    assert a.data.tobytes() == b.data.tobytes()


def test_zero_attention_weights_match_uniform_mode():
    # zeroed u logits soften to 1/k, which is exactly the uniform variant;
    # same seed gives both variants identical value MLPs
    p1, f1, p2, f2 = _clouds(seed=3)
    store_a, cv_a = _cv("attentive", seed=11)
    _, cv_u = _cv("uniform", seed=11)
    for name in store_a.names():
        if "/u1/" in name or "/u2/" in name:
            store_a[name].value = np.zeros_like(store_a[name].value)
    out_a = cv_a(T.const(p1), T.const(f1), T.const(p2), T.const(f2))
    out_u = cv_u(T.const(p1), T.const(f1), T.const(p2), T.const(f2))
    assert np.allclose(out_a.data, out_u.data, atol=1e-12)


def test_zero_value_weights_give_zero_output():
    p1, f1, p2, f2 = _clouds(seed=4)
    store, cv = _cv()
    for name in store.names():
        if "/v1/" in name or "/v2/" in name:
            store[name].value = np.zeros_like(store[name].value)
    out = cv(T.const(p1), T.const(f1), T.const(p2), T.const(f2))
    assert np.all(out.data == 0.0)


def test_uniform_mode_has_no_attention_parameters():
    store, _ = _cv("uniform")
    assert not any("/u1/" in n or "/u2/" in n for n in store.names())


def test_gradients_reach_all_four_mlp_blocks():
    p1, f1, p2, f2 = _clouds(seed=5, n1=8, n2=9, c=3)
    store, cv = _cv(c=3, k1=3, k2=2)

    def run():
        with T.Tape() as tp:
            out = cv(T.const(p1), T.const(f1), T.const(p2), T.const(f2))
            loss = T.reduce_sum(T.mul(out, out))
        return loss, tp.backward(loss, store)

    _, grads = run()
    for block in ("u1", "v1", "u2", "v2"):
        name = f"cv/{block}/0/W"
        assert np.abs(grads[name]).max() > 0.0, block

    # finite-difference spot check, one weight matrix per block
    for block in ("u1", "v1", "u2", "v2"):
        name = f"cv/{block}/1/W"
        base = store[name].value.copy()

        def f(v, name=name):
            store[name].value = v
            out = run()[0].item()
            return out

        analytic = run()[1][name]
        numeric = finite_diff(f, base)
        store[name].value = base
        assert grad_gap(analytic, numeric) < 1e-4, block


def _check_first_cloud_gradient(mode):
    # the warp path differentiates through coords1, so this must be exact
    p1, f1, p2, f2 = _clouds(seed=6, n1=7, n2=8, c=3)
    _, cv = _cv(mode, c=3, k1=3, k2=2, seed=9)

    def run(coords):
        with T.Tape() as tp:
            tc = T.Parameter("coords1", coords)
            out = cv(tc, T.const(f1), T.const(p2), T.const(f2))
            loss = T.reduce_sum(T.mul(out, out))
        return loss, tp.backward(loss)["coords1"]

    loss, grad = run(p1)
    numeric = finite_diff(lambda v: run(v)[0].item(), p1)
    assert grad_gap(grad, numeric) < 1e-4


def test_gradient_through_first_cloud_coordinates():
    _check_first_cloud_gradient("attentive")


def test_uniform_gradient_through_first_cloud_coordinates():
    _check_first_cloud_gradient("uniform")


def test_attention_weights_are_a_distribution():
    # recompute stage-1 attention directly; rows must sum to one per channel
    p1, f1, p2, f2 = _clouds(seed=7)
    store, cv = _cv()
    from lidom.pcops import knn_indices
    nbr = knn_indices(p1, p2, cv.k1)
    n, k = nbr.shape
    flat, rep = nbr.reshape(-1), np.repeat(np.arange(n), k)
    rel = p2[flat].reshape(n, k, 3) - p1[rep].reshape(n, k, 3)
    dist = np.sqrt((rel ** 2).sum(-1, keepdims=True) + 1e-20)
    x = np.concatenate([rel, dist, f1[rep].reshape(n, k, -1),
                        f2[flat].reshape(n, k, -1)], axis=2)
    logits = T.mlp(cv.u1, T.const(x), relu_last=False)
    w = T.softmax_axis(logits, axis=1)
    assert np.allclose(w.data.sum(axis=1), 1.0, atol=1e-12)


def test_bad_mode_rejected():
    with pytest.raises(C.CostVolumeError):
        _cv(mode="banana")


def test_feature_count_mismatch_rejected():
    p1, f1, p2, f2 = _clouds()
    _, cv = _cv()
    with pytest.raises(C.CostVolumeError):
        cv(T.const(p1), T.const(f1[:-1]), T.const(p2), T.const(f2))
