"""Sampling and aggregation layers against independent oracles."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import finite_diff, grad_gap
from lidom import headmask as H
from lidom import pcops as P
from lidom import tensor as T

seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)


# --- oracles: straight-line reimplementations kept intentionally naive ---

def fps_oracle(points, m):
    points = np.asarray(points, dtype=np.float64)
    chosen = [0]
    d2 = ((points - points[0]) ** 2).sum(axis=1)
    for _ in range(m - 1):
        best = 0
        for j in range(1, len(points)):
            if d2[j] > d2[best]:
                best = j
        chosen.append(best)
        nd = ((points - points[best]) ** 2).sum(axis=1)
        d2 = np.minimum(d2, nd)
    return chosen


def knn_oracle(query, ref, k):
    query = np.asarray(query, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    rows = []
    for q in query:
        d2 = ((q[None, :] - ref) ** 2).sum(axis=-1)
        rows.append(sorted(range(len(ref)), key=lambda j: (d2[j], j))[:k])
    return rows


def test_fps_unit_square_corners():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    assert P.farthest_point_sample(pts, 2, 1)[0].tolist() == [0, 2]


def test_fps_collinear():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [10, 0, 0]])
    assert P.farthest_point_sample(pts, 2, 1)[0].tolist() == [0, 2]


def test_fps_tie_breaks_to_lowest_index():
    # both side points are exactly 1 away from the start; lower index wins
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [-1, 0, 0]])
    assert P.farthest_point_sample(pts, 2, 1)[0].tolist() == [0, 1]


@given(seeds, st.integers(min_value=2, max_value=40))
@settings(max_examples=40, deadline=None)
def test_fps_matches_oracle(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    m = int(rng.integers(1, n + 1))
    got, _ = P.farthest_point_sample(pts, m, 1)
    assert got.tolist() == fps_oracle(pts, m)
    assert len(set(got.tolist())) == m


def test_fps_rejects_oversample():
    with pytest.raises(P.PcopsError):
        P.farthest_point_sample(np.zeros((3, 3)), 4, 1)
    with pytest.raises(P.PcopsError):
        P.farthest_point_sample(np.zeros((3, 3)), 0, 1)


@given(seeds, st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_knn_matches_oracle(seed, n, m):
    rng = np.random.default_rng(seed)
    ref = rng.normal(size=(n, 3))
    query = rng.normal(size=(m, 3))
    k = int(rng.integers(1, n + 1))
    got = P.knn_indices(query, ref, k)
    assert got.tolist() == knn_oracle(query, ref, k)


def test_knn_tie_breaks_to_lowest_index():
    ref = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0]])
    got = P.knn_indices(np.zeros((1, 3)), ref, 3)
    assert got.tolist() == [[0, 1, 2]]


def test_knn_self_query_returns_self_first():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(20, 3))
    got = P.knn_indices(pts, pts, 1)
    assert got[:, 0].tolist() == list(range(20))


def test_knn_rejects_bad_k():
    with pytest.raises(P.PcopsError):
        P.knn_indices(np.zeros((2, 3)), np.zeros((4, 3)), 5)
    with pytest.raises(P.PcopsError):
        P.knn_indices(np.zeros((2, 3)), np.zeros((4, 3)), 0)


def _select(d2, k):
    """P._nearest on one chunk of distance rows, with fresh work buffers."""
    return P._nearest(d2, k, np.empty(d2.shape, dtype=bool),
                      np.empty(d2.shape))


def _stable_argsort(d2, k):
    """The (value, index) order, from a full stable sort of every row."""
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


# Rows on an integer grid of 3, 9 or 1001 values: ties at the k-th value in
# no row, in some rows or in all of them.
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=40),
       st.sampled_from([2, 8, 1000]), st.data())
@settings(max_examples=80, deadline=None)
def test_selection_matches_a_full_stable_sort(rows, n, top, data):
    k = data.draw(st.integers(min_value=1, max_value=n))
    values = data.draw(st.lists(st.integers(min_value=0, max_value=top),
                                min_size=rows * n, max_size=rows * n))
    d2 = np.array(values, dtype=np.float64).reshape(rows, n)
    assert np.array_equal(_select(d2, k), _stable_argsort(d2, k))


@pytest.mark.parametrize("tied", [[], [1], [0, 1, 2]],
                         ids=["no-row", "one-row", "every-row"])
def test_selection_with_rows_tied_at_the_kth_value(tied):
    # distinct values per row; a tied row's largest value moves down onto
    # its 3rd smallest, so 4 entries lie within its k-th value
    d2 = np.array([[5.0, 1.0, 4.0, 2.0, 3.0, 9.0],
                   [7.0, 3.0, 1.0, 8.0, 2.0, 6.0],
                   [0.0, 6.0, 2.0, 9.0, 1.0, 4.0]])
    k = 3
    for r in tied:
        d2[r, np.argmax(d2[r])] = np.sort(d2[r])[k - 1]
    within = (d2 <= np.sort(d2, axis=1)[:, k - 1:k]).sum(axis=1)
    assert np.flatnonzero(within > k).tolist() == tied
    assert np.array_equal(_select(d2, k), _stable_argsort(d2, k))


# Integer-grid clouds are full of exact duplicates, so distance ties (at the
# k-th place too) are the rule rather than the exception.  A KNN chunk holds
# 65536 // n queries; the pinned examples cross chunk boundaries with k == n
# and with the cloud queried against itself (m is then unused).
@given(seeds, st.integers(min_value=1, max_value=80),
       st.integers(min_value=1, max_value=1500), st.booleans(), st.booleans())
@example(seed=1, n=60, m=1200, self_query=False, k_is_n=True)
@example(seed=2, n=600, m=1, self_query=True, k_is_n=False)
@example(seed=3, n=700, m=1, self_query=True, k_is_n=True)
@settings(max_examples=30, deadline=None)
def test_knn_matches_oracle_on_duplicate_grid(seed, n, m, self_query, k_is_n):
    rng = np.random.default_rng(seed)
    ref = rng.integers(0, 3, size=(n, 3)).astype(np.float64)
    query = ref if self_query else \
        rng.integers(-1, 4, size=(m, 3)).astype(np.float64)
    k = n if k_is_n else int(rng.integers(1, n + 1))
    got = P.knn_indices(query, ref, k)
    assert got.tolist() == knn_oracle(query, ref, k)


@given(seeds, st.integers(min_value=1000, max_value=1200),
       st.integers(min_value=1, max_value=160))
@example(seed=0, n=1000, m=125)
@example(seed=0, n=1000, m=126)
@settings(max_examples=10, deadline=None)
def test_fps_matches_oracle_with_duplicates(seed, n, m):
    # at most 125 distinct points: asking for more picks than that is an
    # error, since every remaining distance is zero
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 5, size=(n, 3)).astype(np.float64)
    distinct = len(np.unique(pts, axis=0))
    if m > distinct:
        with pytest.raises(P.PcopsError, match=f"{distinct} distinct"):
            P.farthest_point_sample(pts, m, 1)
    else:
        got, _ = P.farthest_point_sample(pts, m, 1)
        assert got.tolist() == fps_oracle(pts, m)


# FPS's neighbour table comes from its own distance rows, kept in chunks of
# 65536 // n picks; on duplicate-heavy grids it must still equal a separate
# KNN, ties at the k-th place included.  The pinned examples cross chunk
# boundaries (chunks of 65 and 54 picks), one of them with k == n.
@given(seeds, st.integers(min_value=1, max_value=1200),
       st.integers(min_value=1, max_value=200), st.booleans())
@example(seed=0, n=1000, m=125, k_is_n=True)
@example(seed=1, n=1200, m=125, k_is_n=False)
@settings(max_examples=30, deadline=None)
def test_fps_table_matches_knn_on_duplicate_grid(seed, n, m, k_is_n):
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 5, size=(n, 3)).astype(np.float64)
    m = min(m, len(np.unique(pts, axis=0)))
    k = n if k_is_n else int(rng.integers(1, n + 1))
    centers, nbr = P.farthest_point_sample(pts, m, k)
    assert centers.tolist() == fps_oracle(pts, m)
    assert nbr.tolist() == P.knn_indices(pts[centers], pts, k).tolist()


def _grid(side):
    axis = np.arange(float(side))
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                    axis=-1).reshape(-1, 3)


@pytest.mark.parametrize("k", [1, 26, 343])
def test_fps_table_when_every_point_is_picked(k):
    # m == n on a 7x7x7 lattice: 343 picks cross the 191-pick chunk, and
    # every lattice neighbourhood is full of distance ties
    pts = _grid(7)
    centers, nbr = P.farthest_point_sample(pts, len(pts), k)
    assert sorted(centers.tolist()) == list(range(len(pts)))
    assert nbr.tolist() == P.knn_indices(pts[centers], pts, k).tolist()


@pytest.mark.parametrize("sizes, k", [([512, 128, 64, 32, 16], 8),
                                      ([300, 300, 7], 7), ([1], 1)])
def test_sample_pyramid_equals_fps_level_by_level(sizes, k):
    # the per-level loop the network ran before sample_pyramid: each level
    # samples the gathered coordinates of the level below
    pts = np.random.default_rng(3).normal(size=(600, 3))
    coords = T.const(pts)
    tables = P.sample_pyramid(pts, sizes, k)
    assert len(tables) == len(sizes)
    for (centers, nbr), m in zip(tables, sizes):
        want_c, want_nbr = P.farthest_point_sample(coords.data, m, k)
        assert centers.tobytes() == want_c.tobytes()
        assert nbr.tobytes() == want_nbr.tobytes()
        coords = T.gather_rows(coords, want_c)


# sample_pyramid's deeper levels are prefixes of level 1: FPS run on an FPS
# sample picks it again in order, on a lattice where every distance ties,
# on a cloud full of duplicate points, and on one with no ties at all
@pytest.mark.parametrize("pts, m", [
    (_grid(9), 160),
    (np.round(np.random.default_rng(4).normal(size=(1500, 3)) * 2) / 2, 120),
    (np.random.default_rng(5).normal(size=(500, 3)), 160),
], ids=["grid", "rounded-gaussian", "random"])
def test_fps_of_an_fps_sample_picks_it_in_order(pts, m):
    sample = pts[P.farthest_point_sample(pts, m, 1)[0]]
    for i in range(1, m + 1):
        got, _ = P.farthest_point_sample(sample, i, 1)
        assert got.tolist() == list(range(i))


@pytest.mark.parametrize("sizes, k, match", [
    ([64, 65], 4, "cannot sample 65 points from a cloud of 64"),
    ([64, 32, 0], 4, "cannot sample 0 points from a cloud of 32"),
    ([64, 8, 4], 9, "k=9 invalid for a reference cloud of 8"),
], ids=["more-than-below", "none", "k-beyond-level-2"])
def test_sample_pyramid_rejects_what_fps_level_by_level_rejects(sizes, k,
                                                                match):
    pts = np.random.default_rng(3).normal(size=(600, 3))
    with pytest.raises(P.PcopsError, match=match):
        P.sample_pyramid(pts, sizes, k)


def test_sample_pyramid_of_no_sizes_is_empty():
    assert P.sample_pyramid(np.zeros((4, 3)), [], 1) == []


def test_fps_rejects_bad_k():
    pts = np.arange(12.0).reshape(4, 3)
    for k in (0, -1, 5):
        with pytest.raises(P.PcopsError, match=f"k={k} invalid"):
            P.farthest_point_sample(pts, 2, k)


_CLOUD = np.random.default_rng(0).normal(size=(50, 3))


@pytest.mark.parametrize("bad, match", [
    (np.zeros((4, 2)), r"expected \(n, 3\) points"),
    (np.zeros(3), r"expected \(n, 3\) points"),
    (np.array([[0.0, 0, 0], [np.nan, 0, 0]]), "non-finite coordinates"),
    (np.array([[0.0, 0, 0], [0, np.inf, 0]]), "non-finite coordinates"),
    # squared distances would overflow, or underflow to zero or subnormals
    (_CLOUD * 1e160, r"coordinates beyond 3\.87e\+153 overflow"),
    (_CLOUD * 1e-170, r"an extent of .*e-170 underflows"),
    # not silently cast to float64: the real part, or 0/1
    (_CLOUD.astype(complex), "real numbers, got complex128"),
    (_CLOUD > 0.0, "real numbers, got bool"),
], ids=["2d", "1d", "nan", "inf", "huge", "tiny", "complex", "bool"])
def test_knn_and_fps_reject_bad_coordinates(bad, match):
    good = np.zeros((4, 3))
    for op in (lambda: P.knn_indices(bad, good, 1),
               lambda: P.knn_indices(good, bad, 1),
               lambda: P.farthest_point_sample(bad, 1, 1)):
        with pytest.raises(P.PcopsError, match=match):
            op()


def test_random_sample_replacement_rule():
    rng = np.random.default_rng(0)
    idx = P.random_sample(10, 10, rng)
    assert sorted(idx.tolist()) == list(range(10))
    idx = P.random_sample(10, 6, rng)
    assert len(set(idx.tolist())) == 6
    idx = P.random_sample(4, 9, rng)  # oversample draws with replacement
    assert len(idx) == 9 and set(idx.tolist()) <= set(range(4))


def test_random_sample_seeded_deterministic():
    a = P.random_sample(50, 20, np.random.default_rng(42))
    b = P.random_sample(50, 20, np.random.default_rng(42))
    assert np.array_equal(a, b)


# --- aggregation layers ---

def _mlp(store, prefix, in_w, widths, seed=0):
    return P.make_layers(store, prefix, [in_w, *widths],
                         np.random.default_rng(seed))


def test_set_conv_shapes_and_determinism():
    rng = np.random.default_rng(1)
    coords = rng.normal(size=(30, 3))
    feats = rng.normal(size=(30, 5))
    store = T.ParamStore()
    mlp = _mlp(store, "sc", 3 + 2 * 5, [8, 6])
    centers, nbr = P.farthest_point_sample(coords, 10, 4)

    def run():
        c, f = P.set_conv(T.const(coords), T.const(feats), centers, nbr, mlp)
        return c.data, f.data

    c1, f1 = run()
    c2, f2 = run()
    assert c1.shape == (10, 3) and f1.shape == (10, 6)
    assert np.array_equal(c1, coords[centers])
    assert f1.tobytes() == f2.tobytes()


def test_set_conv_rejects_non_integer_centres():
    coords = np.random.default_rng(1).normal(size=(30, 3))
    mlp = _mlp(T.ParamStore(), "sc", 3, [4])
    centers, nbr = P.farthest_point_sample(coords, 10, 4)
    with pytest.raises(T.TensorError, match="must be integers"):
        P.set_conv(T.const(coords), None, centers + 0.5, nbr, mlp)


def test_set_conv_first_layer_without_features():
    rng = np.random.default_rng(2)
    coords = rng.normal(size=(20, 3))
    store = T.ParamStore()
    mlp = _mlp(store, "sc", 3, [4])
    centers, nbr = P.farthest_point_sample(coords, 6, 3)
    _, f = P.set_conv(T.const(coords), None, centers, nbr, mlp)
    assert f.shape == (6, 4)


def test_set_conv_translation_invariant_features():
    # the MLP sees only relative coordinates, so shifting the whole cloud
    # must not change the aggregated features
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(25, 3))
    feats = rng.normal(size=(25, 4))
    store = T.ParamStore()
    mlp = _mlp(store, "sc", 3 + 2 * 4, [6])
    centers, nbr = P.farthest_point_sample(coords, 8, 4)
    _, f0 = P.set_conv(T.const(coords), T.const(feats), centers, nbr, mlp)
    shifted = coords + np.array([5.0, -3.0, 2.0])
    nbr_s = P.knn_indices(shifted[centers], shifted, 4)
    _, f1 = P.set_conv(T.const(shifted), T.const(feats), centers, nbr_s, mlp)
    assert np.allclose(f0.data, f1.data, atol=1e-12)


def test_set_conv_gradients():
    rng = np.random.default_rng(4)
    coords = rng.normal(size=(12, 3))
    feats = rng.normal(size=(12, 3))
    store = T.ParamStore()
    mlp = _mlp(store, "sc", 9, [5], seed=7)
    centers, nbr = P.farthest_point_sample(coords, 5, 4)
    w_name = "sc/0/W"

    def run(fv, wv):
        store[w_name].value = wv
        with T.Tape() as tp:
            tf = T.Parameter("feats", fv)
            _, out = P.set_conv(T.const(coords), tf, centers, nbr, mlp)
            loss = T.reduce_sum(T.mul(out, out))
        grads = tp.backward(loss, store)
        return loss, grads

    w0 = store[w_name].value.copy()
    loss, grads = run(feats, w0)
    n_f = finite_diff(lambda v: run(v, w0)[0].item(), feats)
    n_w = finite_diff(lambda v: run(feats, v)[0].item(), w0)
    assert grad_gap(grads["feats"], n_f) < 1e-4
    assert grad_gap(grads[w_name], n_w) < 1e-4


def test_set_upconv_shapes_and_gradients():
    rng = np.random.default_rng(5)
    dense = rng.normal(size=(14, 3))
    dense_f = rng.normal(size=(14, 3))
    sparse = rng.normal(size=(6, 3))
    sparse_f = rng.normal(size=(6, 4))
    store = T.ParamStore()
    mlp1 = _mlp(store, "up1", 3 + 4, [6], seed=8)
    mlp2 = _mlp(store, "up2", 6 + 3, [5], seed=9)
    nbr = P.knn_indices(dense, sparse, 3)

    def run(sf):
        with T.Tape() as tp:
            tsf = T.Parameter("sparse_feats", sf)
            out = P.set_upconv(T.const(dense), T.const(dense_f),
                               T.const(sparse), tsf, nbr, mlp1, mlp2)
            loss = T.reduce_sum(T.mul(out, out))
        return loss, tp.backward(loss)["sparse_feats"], out

    loss, grad, out = run(sparse_f)
    assert out.shape == (14, 5)
    numeric = finite_diff(lambda v: run(v)[0].item(), sparse_f)
    assert grad_gap(grad, numeric) < 1e-4


def test_pose_head_fc_layers_are_linear():
    # pose_head's FC path has no activation: its t, through two FC layers
    # from a mean pooling, is linear in the embedding
    store, rng = T.ParamStore(), np.random.default_rng(0)
    fc_q = P.make_layers(store, "fc_q", [4, 6, 4], rng, 1.0)
    fc_t = P.make_layers(store, "fc_t", [4, 6, 3], rng, 1.0)
    a, b = np.random.default_rng(1).normal(size=(2, 5, 4))

    def t(x):
        return H.pose_head(T.const(x), None, fc_q, fc_t)[1].data

    assert np.allclose(t(0.5 * a + 0.5 * b), 0.5 * t(a) + 0.5 * t(b),
                       atol=1e-12)


def test_make_layers_out_bias():
    store = T.ParamStore()
    out_bias = np.array([1.0, 0.0, 0.0, 0.0])
    layers = P.make_layers(store, "fc", [3, 5, 4], np.random.default_rng(0),
                           1.0, out_bias)
    assert [(w.name, b.name) for w, b in layers] == [("fc/0/W", "fc/0/b"),
                                                     ("fc/1/W", "fc/1/b")]
    assert np.array_equal(store["fc/0/b"].value, np.zeros(5))
    assert np.array_equal(store["fc/1/b"].value, [1.0, 0.0, 0.0, 0.0])
