"""Mask normalization, pose-head contracts, warp-refinement composition."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_diff, grad_gap
from lidom import costvol as C
from lidom import headmask as H
from lidom import pcops as P
from lidom import tensor as T

seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)


def _mask_setup(seed=0, n=12, c=4, with_prior=False):
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(n, c))
    feats = rng.normal(size=(n, c))
    prior = rng.normal(size=(n, c)) if with_prior else None
    store = T.ParamStore()
    in_w = (3 if with_prior else 2) * c
    mlp = P.make_layers(store, "mask", [in_w, c, c],
                        np.random.default_rng(seed))
    return store, mlp, emb, feats, prior


@given(seeds, st.booleans())
@settings(max_examples=30, deadline=None)
def test_mask_columns_sum_to_one(seed, with_prior):
    _, mlp, emb, feats, prior = _mask_setup(seed, with_prior=with_prior)
    m = H.make_mask(T.const(emb), T.const(feats),
                    None if prior is None else T.const(prior), mlp)
    assert np.allclose(m.data.sum(axis=0), 1.0, atol=1e-12)
    assert np.all(m.data >= 0.0)


def test_mask_zero_weights_is_uniform():
    store, mlp, emb, feats, _ = _mask_setup(3)
    for name in store.names():
        store[name].value = np.zeros_like(store[name].value)
    m = H.make_mask(T.const(emb), T.const(feats), None, mlp)
    assert np.allclose(m.data, 1.0 / emb.shape[0], atol=1e-12)


def _heads(store, c, seed=0, h1=8, h2=6):
    rng = np.random.default_rng(seed)
    fc_q = P.make_layers(store, "fc_q", [c, h1, h2, 4], rng, 1.0,
                         np.array([1.0, 0.0, 0.0, 0.0]))
    fc_t = P.make_layers(store, "fc_t", [c, h1, h2, 3], rng, 1.0)
    return fc_q, fc_t


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_pose_head_quaternion_unit_norm(seed):
    rng = np.random.default_rng(seed)
    store, mlp, emb, feats, _ = _mask_setup(seed)
    fc_q, fc_t = _heads(store, 4, seed)
    m = H.make_mask(T.const(emb), T.const(feats), None, mlp)
    q, t = H.pose_head(T.const(emb), m, fc_q, fc_t)
    assert abs(np.linalg.norm(q.data) - 1.0) < 1e-9
    assert t.shape == (3,)


def test_pose_head_identity_at_init():
    # zero weights leave only the identity-quaternion bias
    store = T.ParamStore()
    fc_q, fc_t = _heads(store, 4)
    for name in store.names():
        if name.endswith("/W"):
            store[name].value = np.zeros_like(store[name].value)
    emb = np.random.default_rng(0).normal(size=(10, 4))
    q, t = H.pose_head(T.const(emb), None, fc_q, fc_t)
    assert np.allclose(q.data, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(t.data, 0.0, atol=1e-12)


def test_mean_pooling_equals_uniform_mask():
    rng = np.random.default_rng(5)
    emb = rng.normal(size=(9, 4))
    store = T.ParamStore()
    fc_q, fc_t = _heads(store, 4, seed=2)
    q_mean, t_mean = H.pose_head(T.const(emb), None, fc_q, fc_t)
    uniform = T.const(np.full((9, 4), 1.0 / 9))
    q_mask, t_mask = H.pose_head(T.const(emb), uniform, fc_q, fc_t)
    assert np.allclose(q_mean.data, q_mask.data, atol=1e-12)
    assert np.allclose(t_mean.data, t_mask.data, atol=1e-12)


def test_pose_head_gradients():
    rng = np.random.default_rng(6)
    emb = rng.normal(size=(7, 4))
    mask = np.abs(rng.normal(size=(7, 4)))
    mask = mask / mask.sum(axis=0)
    store = T.ParamStore()
    fc_q, fc_t = _heads(store, 4, seed=3)
    w = rng.normal(size=4)
    name = "fc_q/0/W"

    def run(emb_v, wv):
        store[name].value = wv
        with T.Tape() as tp:
            te = T.Parameter("emb", emb_v)
            q, t = H.pose_head(te, T.const(mask), fc_q, fc_t)
            loss = T.add(T.reduce_sum(T.mul(q, T.const(w))), T.reduce_sum(t))
        grads = tp.backward(loss, store)
        return loss, grads

    w0 = store[name].value.copy()
    loss, grads = run(emb, w0)
    n_emb = finite_diff(lambda v: run(v, w0)[0].item(), emb)
    n_w = finite_diff(lambda v: run(emb, v)[0].item(), w0)
    assert grad_gap(grads["emb"], n_emb) < 1e-4
    assert grad_gap(grads[name], n_w) < 1e-4


def _refine_setup(seed=0, n=10, m=4, c=3, with_mask=True, with_prior=True):
    rng = np.random.default_rng(seed)
    coords1 = rng.normal(size=(n, 3))
    feats1 = rng.normal(size=(n, c))
    coords2 = coords1 + 0.1 * rng.normal(size=(n, 3))
    feats2 = rng.normal(size=(n, c))
    sparse_idx, _ = P.farthest_point_sample(coords1, m, 1)
    sparse_coords = coords1[sparse_idx]
    sparse_emb = rng.normal(size=(m, c))
    sparse_mask = np.abs(rng.normal(size=(m, c)))
    sparse_mask = sparse_mask / sparse_mask.sum(axis=0)

    store = T.ParamStore()
    prng = np.random.default_rng(seed + 1)
    blk = H.RefineBlock(
        up_e1=P.make_layers(store, "up_e1", [3 + c, c, c], prng),
        up_e2=P.make_layers(store, "up_e2", [2 * c, c], prng),
        cost_volume=C.CostVolume(store, "cv", c, 3, 2, prng),
        refine_mlp=P.make_layers(store, "refine", [3 * c, c, c], prng),
        fc_q=P.make_layers(store, "fc_q", [c, 6, 4], prng, 1.0,
                           np.array([1.0, 0.0, 0.0, 0.0])),
        fc_t=P.make_layers(store, "fc_t", [c, 6, 3], prng, 1.0),
        mask_mlp=(P.make_layers(store, "mask",
                                [(3 if with_prior else 2) * c, c], prng)
                  if with_mask else None),
        up_m1=(P.make_layers(store, "up_m1", [3 + c, c, c], prng)
               if with_mask and with_prior else None),
        up_m2=(P.make_layers(store, "up_m2", [2 * c, c], prng)
               if with_mask and with_prior else None),
    )
    coarse_q = rng.normal(size=4)
    coarse_q = coarse_q / np.linalg.norm(coarse_q)
    coarse_t = 0.3 * rng.normal(size=3)
    args = (T.const(coords1), T.const(feats1), T.const(coords2),
            T.const(feats2), T.const(sparse_coords), T.const(sparse_emb),
            T.const(sparse_mask) if with_mask and with_prior else None)
    return store, blk, args, coarse_q, coarse_t


def test_warp_refine_shapes():
    store, blk, args, cq, ct = _refine_setup()
    q, t, emb, mask = H.warp_refine(blk, *args, T.const(cq), T.const(ct), 2)
    assert q.shape == (4,) and t.shape == (3,)
    assert emb.shape == (10, 3) and mask.shape == (10, 3)
    assert abs(np.linalg.norm(q.data) - 1.0) < 1e-9
    assert np.allclose(mask.data.sum(axis=0), 1.0, atol=1e-12)


def test_warp_refine_identity_residual_keeps_coarse_pose():
    store, blk, args, cq, ct = _refine_setup(seed=2)
    for name in store.names():
        if name.startswith(("fc_q", "fc_t")) and name.endswith("/W"):
            store[name].value = np.zeros_like(store[name].value)
    q, t, _, _ = H.warp_refine(blk, *args, T.const(cq), T.const(ct), 2)
    expect = cq / np.linalg.norm(cq)
    assert np.abs(q.data - expect).max() < 1e-12
    assert np.abs(t.data - ct).max() < 1e-12


def test_warp_refine_without_mask_or_prior():
    store, blk, args, cq, ct = _refine_setup(with_mask=False, with_prior=False)
    q, t, emb, mask = H.warp_refine(blk, *args, T.const(cq), T.const(ct), 2)
    assert mask is None
    assert q.shape == (4,)


def test_warp_refine_no_warp_flag_changes_result():
    store, blk, args, cq, ct = _refine_setup(seed=3)
    q1, t1, _, _ = H.warp_refine(blk, *args, T.const(cq), T.const(ct), 2,
                                 use_warp=True)
    q2, t2, _, _ = H.warp_refine(blk, *args, T.const(cq), T.const(ct), 2,
                                 use_warp=False)
    assert not np.allclose(t1.data, t2.data, atol=1e-9)


def test_warp_refine_gradient_through_coarse_pose():
    store, blk, args, cq, ct = _refine_setup(seed=4, n=8, m=3)

    def run(qv, tv):
        with T.Tape() as tp:
            tq, tt = T.Parameter("q", qv), T.Parameter("t", tv)
            q, t, _, _ = H.warp_refine(blk, *args, tq, tt, 2)
            loss = T.add(T.reduce_sum(T.mul(q, q)), T.reduce_sum(T.mul(t, t)))
        return loss, tp.backward(loss)

    loss, grads = run(cq, ct)
    n_q = finite_diff(lambda v: run(v, ct)[0].item(), cq)
    n_t = finite_diff(lambda v: run(cq, v)[0].item(), ct)
    assert grad_gap(grads["q"], n_q) < 1e-4
    assert grad_gap(grads["t"], n_t) < 1e-4
