"""The factorized first layer of every shared MLP against an unfactorized
oracle, its width check, and the absence of concats on the tape.

The oracles below build the (n, k, width) or (n, width) concat each site
would otherwise build and run the whole MLP on it as one part, mlp(x).  The
factorized sites sum the same products in another order, so they agree to
rounding, not bit for bit.  set_conv and set_upconv pool inside their
T.mlp op; their oracles max-pool the concat form's output with conftest's
reduce_max.
"""
import numpy as np
import pytest

from conftest import reduce_max
from lidom import costvol as C
from lidom import pcops as P
from lidom import tensor as T
from lidom.net import OdometryNet, desk_config

TOL = 1e-12


def concat(parts):
    """The concat of parts along their last axis, as the sum of
    matmul(part, E) with 0/1 placement matrices E: exact for finite
    values, and no concat op on the tape."""
    widths = [p.shape[-1] for p in parts]
    x, lo = None, 0
    for part, width in zip(parts, widths):
        place = np.zeros((width, sum(widths)))
        place[np.arange(width), lo + np.arange(width)] = 1.0
        term = T.matmul(part, T.const(place))
        x = term if x is None else T.add(x, term)
        lo += width
    return x


def set_conv_concat(coords, feats, centers, k, mlp):
    # the neighbour table from a KNN of its own, not from FPS
    nbr = P.knn_indices(coords.data[centers], coords.data, k)
    ctr = np.broadcast_to(centers[:, None], nbr.shape)
    parts = [T.sub(T.gather_rows(coords, nbr), T.gather_rows(coords, ctr))]
    if feats is not None:
        parts += [T.gather_rows(feats, nbr), T.gather_rows(feats, ctr)]
    return reduce_max(mlp(concat(parts)), axis=1)


def set_upconv_concat(dense_coords, dense_feats, sparse_coords, sparse_feats,
                      nbr, mlp1, mlp2):
    ctr = np.broadcast_to(np.arange(nbr.shape[0])[:, None], nbr.shape)
    rel = T.sub(T.gather_rows(sparse_coords, nbr),
                T.gather_rows(dense_coords, ctr))
    x = concat([rel, T.gather_rows(sparse_feats, nbr)])
    pooled = reduce_max(mlp1(x), axis=1)
    return mlp2(concat([pooled, dense_feats]))


def cost_volume_concat(cv, coords1, feats1, coords2, feats2):
    def attend(centers, center_f, ref_coords, ref_f, nbr, u, v):
        n, k = nbr.shape
        ctr = np.broadcast_to(np.arange(n)[:, None], nbr.shape)
        rel = T.sub(T.gather_rows(ref_coords, nbr),
                    T.gather_rows(centers, ctr))
        dist = T.sqrt(T.add(T.reduce_sum(T.mul(rel, rel), axis=2,
                                         keepdims=True), T.const(C._DIST_EPS)))
        x = concat([rel, dist, T.gather_rows(center_f, ctr),
                    T.gather_rows(ref_f, nbr)])
        if u is None:
            weights = T.const(np.full((n, k, 1), 1.0 / k))
        else:
            weights = T.softmax_axis(u(x), axis=1)
        return T.reduce_sum(T.mul(weights, v(x)), axis=1)

    nbr1 = P.knn_indices(coords1.data, coords2.data, cv.k1)
    pe = attend(coords1, feats1, coords2, feats2, nbr1, cv.u1, cv.v1)
    nbr2 = P.knn_indices(coords1.data, coords1.data, cv.k2)
    return attend(coords1, pe, coords1, pe, nbr2, cv.u2, cv.v2)


def _offset_biases(store, seed=0):
    # zero biases leave every self-neighbour (offset 0) on a relu kink
    rng = np.random.default_rng(seed)
    for p in store:
        if p.name.endswith("/b"):
            p.value = 0.1 * rng.standard_normal(p.value.shape)


def _taped(fn, store, inputs):
    """fn on inputs made parameters under a tape, read out through a fixed
    random projection; returns (output, the store's parameter grads, input
    grads)."""
    with T.Tape() as tp:
        ts = [None if x is None else T.Parameter(f"input{i}", x)
              for i, x in enumerate(inputs)]
        out = fn(*ts)
        proj = np.random.default_rng(99).standard_normal(out.shape)
        loss = T.reduce_sum(T.mul(out, T.const(proj)))
    grads = tp.backward(loss, store)
    return out.data, grads, [grads.pop(t.name) for t in ts if t is not None]


def _close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= TOL * np.abs(want).max()


def _assert_matches_oracle(fn, oracle, store, inputs, softmax_shifts=()):
    """softmax_shifts names biases that move every logit of a softmax
    alike; their gradient is zero but for rounding, so it is held to the
    whole gradient's scale instead of its own."""
    out, grads, in_grads = _taped(fn, store, inputs)
    want, want_grads, want_in = _taped(oracle, store, inputs)
    _close(out, want)
    assert grads.keys() == want_grads.keys()
    scale = max(np.abs(g).max() for g in want_grads.values())
    for name, g in grads.items():
        if name in softmax_shifts:
            assert np.abs(g).max() <= TOL * scale, name
            assert np.abs(want_grads[name]).max() <= TOL * scale, name
            continue
        assert np.abs(want_grads[name]).max() > TOL * scale, name
        _close(g, want_grads[name])
    for g, w in zip(in_grads, want_in):
        _close(g, w)
    # the tape only records: an eager run gives the taped output bit for bit
    eager = fn(*[None if x is None else T.const(x) for x in inputs])
    assert eager.data.tobytes() == out.tobytes()


def _mlp(store, prefix, in_w, widths, seed):
    return P.SharedMLP(store, prefix, in_w, widths, np.random.default_rng(seed))


@pytest.mark.parametrize("c_in", [0, 5])
def test_set_conv_matches_the_concat_oracle(c_in):
    rng = np.random.default_rng(c_in)
    coords = rng.normal(size=(40, 3))
    feats = rng.normal(size=(40, c_in)) if c_in else None
    store = T.ParamStore()
    mlp = _mlp(store, "sc", 3 + 2 * c_in, [7, 6], seed=1)
    _offset_biases(store)
    centers, nbr = P.farthest_point_sample(coords, 12, 5)
    _assert_matches_oracle(
        lambda c, f: P.set_conv(c, f, centers, nbr, mlp)[1],
        lambda c, f: set_conv_concat(c, f, centers, 5, mlp),
        store, [coords, feats])


def test_set_upconv_matches_the_concat_oracle():
    rng = np.random.default_rng(2)
    dense, sparse = rng.normal(size=(25, 3)), rng.normal(size=(9, 3))
    dense_f = rng.normal(size=(25, 3))
    sparse_f = rng.normal(size=(9, 4))
    store = T.ParamStore()
    mlp1 = _mlp(store, "up1", 3 + 4, [6, 6], seed=3)
    mlp2 = _mlp(store, "up2", 6 + 3, [5], seed=4)
    _offset_biases(store, seed=1)
    nbr = P.knn_indices(dense, sparse, 3)
    _assert_matches_oracle(
        lambda d, df, s, sf: P.set_upconv(d, df, s, sf, nbr, mlp1, mlp2),
        lambda d, df, s, sf: set_upconv_concat(d, df, s, sf, nbr, mlp1, mlp2),
        store, [dense, dense_f, sparse, sparse_f])


@pytest.mark.parametrize("relu_last", [True, False])
def test_per_row_parts_match_the_concat_oracle(relu_last):
    # make_mask and the refinement MLP feed (n, c) parts with no nbr table
    rng = np.random.default_rng(7)
    inputs = [rng.normal(size=(11, w)) for w in (4, 3, 5)]
    store = T.ParamStore()
    mlp = P.SharedMLP(store, "row", 12, [6, 4], np.random.default_rng(8),
                      relu_last=relu_last)
    _offset_biases(store, seed=3)
    _assert_matches_oracle(lambda *ps: mlp(*ps),
                           lambda *ps: mlp(concat(ps)), store, inputs)


@pytest.mark.parametrize("mode", ["attentive", "uniform"])
def test_cost_volume_matches_the_concat_oracle(mode):
    rng = np.random.default_rng(3)
    c = 5
    inputs = [rng.normal(size=(16, 3)), rng.normal(size=(16, c)),
              rng.normal(size=(20, 3)), rng.normal(size=(20, c))]
    store = T.ParamStore()
    cv = C.CostVolume(store, "cv", c, 4, 3, np.random.default_rng(5), mode)
    _offset_biases(store, seed=2)
    shifts = ("cv/u1/1/b", "cv/u2/1/b") if mode == "attentive" else ()
    _assert_matches_oracle(
        cv, lambda *ts: cost_volume_concat(cv, *ts), store, inputs, shifts)


def test_set_conv_rejects_features_narrower_than_its_mlp():
    rng = np.random.default_rng(4)
    coords = rng.normal(size=(20, 3))
    store = T.ParamStore()
    mlp = _mlp(store, "sc", 3 + 2 * 5, [6], seed=0)
    centers, nbr = P.farthest_point_sample(coords, 6, 4)
    P.set_conv(T.const(coords), T.const(rng.normal(size=(20, 5))),
               centers, nbr, mlp)
    with pytest.raises(P.PcopsError, match=r"\[3, 4, 4\] do not sum to .* 13"):
        P.set_conv(T.const(coords), T.const(rng.normal(size=(20, 4))),
                   centers, nbr, mlp)
    with pytest.raises(P.PcopsError, match="do not sum"):
        P.set_conv(T.const(coords), None, centers, nbr, mlp)


def test_set_upconv_rejects_sparse_features_of_the_wrong_width():
    rng = np.random.default_rng(5)
    dense, sparse = rng.normal(size=(12, 3)), rng.normal(size=(5, 3))
    store = T.ParamStore()
    mlp1 = _mlp(store, "up1", 3 + 4, [6], seed=0)
    mlp2 = _mlp(store, "up2", 6 + 3, [5], seed=1)
    nbr = P.knn_indices(dense, sparse, 2)
    dense_f = T.const(rng.normal(size=(12, 3)))
    P.set_upconv(T.const(dense), dense_f, T.const(sparse),
                 T.const(rng.normal(size=(5, 4))), nbr, mlp1, mlp2)
    for width in (3, 5):
        with pytest.raises(P.PcopsError, match="do not sum"):
            P.set_upconv(T.const(dense), dense_f, T.const(sparse),
                         T.const(rng.normal(size=(5, width))), nbr,
                         mlp1, mlp2)


def test_cost_volume_rejects_features_of_the_wrong_width():
    rng = np.random.default_rng(6)
    p1, p2 = rng.normal(size=(10, 3)), rng.normal(size=(12, 3))
    store = T.ParamStore()
    cv = C.CostVolume(store, "cv", 5, 3, 3, np.random.default_rng(0))
    for w1, w2 in ((4, 5), (5, 4), (4, 4)):
        with pytest.raises(P.PcopsError, match="do not sum"):
            cv(T.const(p1), T.const(rng.normal(size=(10, w1))),
               T.const(p2), T.const(rng.normal(size=(12, w2))))


def test_a_taped_pair_builds_no_per_edge_concat():
    rng = np.random.default_rng(0)
    net = OdometryNet(desk_config())
    with T.Tape() as tape:
        out = net.forward(rng.normal(size=(600, 3)), rng.normal(size=(600, 3)))
        loss = T.reduce_sum(T.mul(out.levels[-1].t, out.levels[-1].t))
    tape.backward(loss, net.store)
    kinds = {node.kind for node in tape.nodes}
    assert {"gather", "matmul"} <= kinds
    assert "concat" not in kinds
