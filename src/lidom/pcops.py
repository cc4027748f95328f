"""Point-set primitives: sampling, neighbor queries, local aggregation layers.

Index selection (farthest-point sampling, k nearest neighbors, random
subsampling) runs on plain arrays and is deliberately outside the autodiff
graph; gradients flow through the gathered coordinates and features instead.
Both sampling routines are exact and deterministic: FPS breaks max-distance
ties toward the lowest index, KNN sorts by (distance, index).  KNN computes
every squared distance but sorts only a partial selection: argpartition
finds k candidates per query, and only rows tied at the k-th distance fall
back to a full stable sort.  Both reject clouds that are not (n, 3) or not
finite, and FPS rejects a cloud with fewer distinct points than it must pick.

set_conv aggregates each sampled center's neighborhood through a shared MLP
and a max pool; set_upconv propagates sparse-level features back to a denser
level.  A SharedMLP takes its input as parts, mlp(*parts, nbr=...), and
runs its first layer factorized (the EdgeConv split): rather than
concatenating (offset, neighbor features, center features) per edge and
multiplying by the first weight, each part multiplies its own row block of
that weight, neighbor features once per point before the (n, k) gather and
center features once per center.  That equals the concat form up to
summation order.  Shared MLPs apply relu on every layer; the FC stacks used
by pose heads elsewhere do not (see headmask).
"""
from __future__ import annotations

import numpy as np

from . import tensor as T

__all__ = [
    "PcopsError", "SharedMLP", "FcStack",
    "farthest_point_sample", "knn_indices", "random_sample",
    "set_conv", "set_upconv",
]

# Queries per KNN chunk: rows * n_ref elements, so that each (rows, n_ref)
# float64 work buffer is about 512 KiB and stays in a core's cache.
_KNN_CHUNK_ELEMS = 1 << 16


class PcopsError(ValueError):
    """Invalid sample sizes, neighbor counts, or cloud shapes."""


def _points(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 3:
        raise PcopsError(f"{name} needs shape (n, 3), got {a.shape}")
    if not np.isfinite(a).all():
        raise PcopsError(f"{name} has non-finite coordinates")
    return a


def _sq_dists(a, b, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = (dx*dx + dy*dy) + dz*dz for broadcastable coordinate triples a
    and b: the same rounding as ((a - b) ** 2).sum(-1), with no (..., 3)
    temporary."""
    np.subtract(a[0], b[0], out=out)
    np.multiply(out, out, out=out)
    for j in (1, 2):
        np.subtract(a[j], b[j], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(out, tmp, out=out)
    return out


def farthest_point_sample(points: np.ndarray, m: int) -> np.ndarray:
    """Greedy max-min sampling; returns m indices.

    The first pick is point 0.  Each later pick maximizes the distance to
    the selected set, ties resolved to the lowest index.  Picks are distinct
    points; a cloud with fewer than m distinct points raises PcopsError.
    """
    points = _points(points, "points")
    n = points.shape[0]
    if m < 1 or m > n:
        raise PcopsError(f"cannot sample {m} points from a cloud of {n}")
    cols = [np.ascontiguousarray(points[:, j]) for j in range(3)]
    d2, nd, tmp = np.empty(n), np.empty(n), np.empty(n)
    sel = np.empty(m, dtype=np.int64)
    sel[0] = 0
    _sq_dists(cols, points[0], d2, tmp)
    for i in range(1, m):
        nxt = int(np.argmax(d2))  # first max wins ties
        if d2[nxt] == 0.0:  # the i picks so far are every distinct point
            raise PcopsError(f"cannot sample {m} distinct points from a "
                             f"cloud with {i} distinct points")
        sel[i] = nxt
        np.minimum(d2, _sq_dists(cols, points[nxt], nd, tmp), out=d2)
    return sel


def knn_indices(query: np.ndarray, ref: np.ndarray, k: int) -> np.ndarray:
    """Exact k nearest neighbors; (m, k) indices into ref, each row ordered
    by (squared distance, index).

    Per chunk of queries: argpartition picks k candidates per row, which are
    then ordered by (squared distance, index).  The candidates are the unique
    answer unless more than k points lie within the k-th distance (a tie at
    the k-th place); those rows alone take a full stable sort.
    """
    query = _points(query, "query")
    ref = _points(ref, "ref")
    n = ref.shape[0]
    if k < 1 or k > n:
        raise PcopsError(f"k={k} invalid for a reference cloud of {n}")
    ref_cols = [np.ascontiguousarray(ref[:, j]) for j in range(3)]
    chunk = max(1, min(query.shape[0], _KNN_CHUNK_ELEMS // n))
    d2_buf = np.empty((chunk, n))
    tmp_buf = np.empty((chunk, n))
    within_buf = np.empty((chunk, n), dtype=bool)
    out = np.empty((query.shape[0], k), dtype=np.int64)
    for lo in range(0, query.shape[0], chunk):
        q = query[lo:lo + chunk]
        rows = q.shape[0]
        d2, tmp, within = d2_buf[:rows], tmp_buf[:rows], within_buf[:rows]
        _sq_dists(q.T[:, :, None], ref_cols, d2, tmp)
        cand = np.argpartition(d2, k - 1, axis=1)[:, :k]
        cand.sort(axis=1)
        cand_d2 = np.take_along_axis(d2, cand, axis=1)
        # a stable sort of index-ordered candidates orders by (d2, index)
        order = np.argsort(cand_d2, axis=1, kind="stable")
        best = np.take_along_axis(cand, order, axis=1)
        kth = cand_d2.max(axis=1, keepdims=True)
        np.less_equal(d2, kth, out=within)
        tied = np.flatnonzero(np.count_nonzero(within, axis=1) > k)
        if tied.size:
            best[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
        out[lo:lo + rows] = best
    return out


def random_sample(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform indices; without replacement unless size exceeds the cloud."""
    if n < 1 or size < 1:
        raise PcopsError(f"cannot draw {size} indices from {n} points")
    return rng.choice(n, size=size, replace=size > n)


class SharedMLP:
    """Per-row matmul + bias + relu stack applied pointwise.

    relu_last=False leaves the final layer linear; layers that produce
    softmax logits need signed outputs, and a relu there starves the
    attention gradient whenever a neighborhood's logits all clamp to zero.
    """

    def __init__(self, store: T.ParamStore, prefix: str, in_width: int,
                 widths: list[int], rng: np.random.Generator,
                 relu_last: bool = True) -> None:
        self.layers: list[tuple[T.Parameter, T.Parameter]] = []
        self.relu_last = relu_last
        fan_in = in_width
        for i, w in enumerate(widths):
            scale = np.sqrt(2.0 / fan_in)
            weight = store.create(f"{prefix}/{i}/W",
                                  rng.normal(size=(fan_in, w)) * scale)
            bias = store.create(f"{prefix}/{i}/b", np.zeros(w))
            self.layers.append((weight, bias))
            fan_in = w

    def __call__(self, *parts: T.Tensor, nbr: np.ndarray | None = None
                 ) -> T.Tensor:
        """The MLP over input rows that concat `parts` in order, without
        building the concat.

        The first layer is linear, so each part multiplies its own row block
        of the first weight, and the bias is added once.  Without nbr every
        part is per row.  With the (n, k) table nbr the rows are edges: a
        rank-3 part is per edge (n, k, w) or per center (n, 1, w) and
        broadcasts over the neighborhood; a rank-2 part is per reference
        point (n_ref, w), projected once per point and gathered by nbr.
        Equals the MLP on the concat up to summation order.
        """
        weight, bias = self.layers[0]
        w = weight.tensor()
        widths = [p.shape[-1] for p in parts]
        if sum(widths) != w.shape[0]:
            raise PcopsError(f"input widths {widths} do not sum to the "
                             f"first layer's {w.shape[0]} rows")
        x, lo, b = None, 0, bias.tensor()
        for part, width in zip(parts, widths):
            proj = T.matmul(part, T.gather_rows(w, np.arange(lo, lo + width)))
            if part.data.ndim == 2:
                if b is not None:  # before any gather: per point, not per edge
                    proj, b = T.add(proj, b), None
                if nbr is not None:
                    proj = T.gather_rows(proj, nbr)
            x = proj if x is None else T.add(x, proj)
            lo += width
        if b is not None:
            x = T.add(x, b)
        last = len(self.layers) - 1
        for i, (weight, bias) in enumerate(self.layers):
            if i:
                x = T.add(T.matmul(x, weight.tensor()), bias.tensor())
            if i < last or self.relu_last:
                x = T.relu(x)
        return x


class FcStack:
    """Linear stack for regression heads (no activations)."""

    def __init__(self, store: T.ParamStore, prefix: str, in_width: int,
                 widths: list[int], rng: np.random.Generator,
                 out_bias: np.ndarray | None = None) -> None:
        self.layers: list[tuple[T.Parameter, T.Parameter]] = []
        fan_in = in_width
        for i, w in enumerate(widths):
            scale = np.sqrt(1.0 / fan_in)
            weight = store.create(f"{prefix}/{i}/W",
                                  rng.normal(size=(fan_in, w)) * scale)
            init_b = np.zeros(w)
            if out_bias is not None and i == len(widths) - 1:
                init_b = np.asarray(out_bias, dtype=np.float64).copy()
            bias = store.create(f"{prefix}/{i}/b", init_b)
            self.layers.append((weight, bias))
            fan_in = w

    def __call__(self, x: T.Tensor) -> T.Tensor:
        for weight, bias in self.layers:
            x = T.add(T.matmul(x, weight.tensor()), bias.tensor())
        return x


def set_conv(coords: T.Tensor, feats: T.Tensor | None,
             center_idx: np.ndarray, k: int, mlp: SharedMLP
             ) -> tuple[T.Tensor, T.Tensor]:
    """Sampled local aggregation.

    For each center, gather its k nearest input points and max-pool the
    shared MLP over the neighborhood.  The MLP's input per edge is
    (neighbor - center, neighbor features, center features); its first
    layer runs factorized (SharedMLP with nbr): offsets per edge, neighbor
    features projected once per input point and gathered, center features
    projected once per center.  Returns (center coords, features).
    """
    centers = np.asarray(center_idx, dtype=np.int64)
    nbr = knn_indices(coords.data[centers], coords.data, k)
    out_coords = T.gather_rows(coords, centers)
    m = centers.shape[0]
    parts = [T.sub(T.gather_rows(coords, nbr),
                   T.reshape(out_coords, (m, 1, 3)))]
    if feats is not None:
        ctr_f = T.gather_rows(feats, centers)
        parts += [feats, T.reshape(ctr_f, (m, 1, ctr_f.shape[1]))]
    pooled = T.reduce_max(mlp(*parts, nbr=nbr), axis=1)
    return out_coords, pooled


def set_upconv(dense_coords: T.Tensor, dense_feats: T.Tensor,
               sparse_coords: T.Tensor, sparse_feats: T.Tensor,
               nbr: np.ndarray, mlp1: SharedMLP, mlp2: SharedMLP) -> T.Tensor:
    """Propagate sparse-level features to every dense point.

    nbr is the (n_dense, k) table of each dense point's nearest sparse points,
    knn_indices(dense coords, sparse coords, k); callers that propagate
    several sparse features over the same two clouds share one table.  Per
    dense point: max-pool the first MLP over those k sparse points, whose
    input per edge is (sparse - dense, sparse features), run factorized as
    in set_conv; then run the second MLP on (pooled features, the dense
    point's own features).
    """
    n = nbr.shape[0]
    rel = T.sub(T.gather_rows(sparse_coords, nbr),
                T.reshape(dense_coords, (n, 1, 3)))
    pooled = T.reduce_max(mlp1(rel, sparse_feats, nbr=nbr), axis=1)
    return mlp2(pooled, dense_feats)
