"""Point-set primitives: sampling, neighbor queries, local aggregation layers.

Index selection (farthest-point sampling, k nearest neighbors, random
subsampling) runs on plain arrays and is deliberately outside the autodiff
graph; gradients flow through the gathered coordinates and features instead.
Both sampling routines are exact and deterministic: FPS breaks max-distance
ties toward the lowest index, KNN sorts by (distance, index).  KNN computes
every squared distance but sorts only a selection: a value partition finds
each query's k-th distance, and only the entries within it are sorted (the
k that are the answer, more when the query ties at its k-th distance).
FPS computes each pick's distance row to the whole cloud anyway, so it
returns the pick's k nearest points with it, by the same selection:
set_conv takes that table and the pyramid runs no KNN of its own.  Both
reject clouds that break _points' contract, and FPS rejects a cloud with
fewer distinct points than it must pick.  knn_indices runs its chunks of
queries on two threads (lidom.workers.each), each with its own work
buffers; a chunk writes only its own rows of the table, by the same code,
so the table has the bits of one thread's.

sample_pyramid runs FPS level after level and returns every level's
(centers, nbr) for one cloud.  No parameter reaches those tables, so
OdometryNet.forward builds pc2's in lidom.workers' sampler process, with
the bits of an in-process call, while it runs pc1's pyramid.

set_conv aggregates each sampled center's neighborhood through a shared MLP
and a max pool; set_upconv propagates sparse-level features back to a denser
level.  A shared MLP is a plain list of (weight, bias) layers from
make_layers, which its caller hands to one T.mlp op with relu on every
layer.  T.mlp takes its input as parts and runs the first layer factorized
(the EdgeConv split): rather than concatenating (offset, neighbor
features, center features) per edge and multiplying by the first weight,
each part multiplies its own row block of that weight, neighbor features
once per point before the (n, k) gather and center features once per
center.  That equals the concat form up to summation order.  set_conv and
set_upconv's first MLP max-pool inside the op (pool=True).  The other
layer lists go to the same ops: an attentive cost-volume stage hands its
u and v to one T.attend op, make_mask runs its MLP with a linear last
layer, and pose_head runs each FC layer, all linear, as a one-layer T.mlp
(see headmask).
"""
from __future__ import annotations

import threading

import numpy as np

from . import tensor as T
from . import workers as W

__all__ = [
    "PcopsError", "farthest_point_sample", "knn_indices", "make_layers",
    "random_sample",
    "sample_pyramid", "set_conv", "set_upconv",
]

class PcopsError(ValueError):
    """Invalid sample sizes, neighbor counts, or clouds."""


# squared distances between points of clouds within +-_MAX_COORD are at
# most 3 * (2 * _MAX_COORD)**2, the largest float64; an extent below
# _MIN_EXTENT squares to less than the smallest normal one
_MAX_COORD = np.sqrt(np.finfo(np.float64).max / 12.0)
_MIN_EXTENT = np.sqrt(np.finfo(np.float64).tiny)


def _points(a, name: str) -> np.ndarray:
    """a as float64 points; a PcopsError naming it unless it is an (n, 3)
    array of finite real numbers whose largest coordinate and extent keep
    squared distances in float64's normal range (an extent of 0, one
    distinct point, is exact and left to sampling to reject)."""
    a = np.asarray(a)
    if a.dtype.kind not in "iuf":
        raise PcopsError(f"{name}: coordinates must be real numbers, "
                         f"got {a.dtype}")
    a = a.astype(np.float64, copy=False)
    if a.ndim != 2 or a.shape[1] != 3:
        raise PcopsError(f"{name}: expected (n, 3) points, got {a.shape}")
    if a.size == 0:
        return a
    if not np.isfinite(a).all():
        raise PcopsError(f"{name}: non-finite coordinates")
    lo, hi = a.min(axis=0), a.max(axis=0)
    if max(-lo.min(), hi.max()) > _MAX_COORD:
        raise PcopsError(f"{name}: coordinates beyond {_MAX_COORD:.3g} "
                         f"overflow squared distances")
    extent = (hi - lo).max()
    if 0.0 < extent < _MIN_EXTENT:
        raise PcopsError(f"{name}: an extent of {extent:.3g} underflows "
                         f"squared distances")
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


def _nearest(d2: np.ndarray, k: int, within: np.ndarray,
             kth: np.ndarray) -> np.ndarray:
    """Column indices of each row's k smallest entries of d2, ordered by
    (value, index); within (bool) and kth (float) are work buffers of d2's
    shape.

    np.partition takes each row's k-th smallest value into kth, and the
    entries d2 <= that value are each row's candidates: exactly k unless
    the row ties at its k-th value.  They come in index order, and each
    row's go into one row of a table padded with inf to the longest row's
    count, so a stable sort of that table by value orders every row's
    candidates by (value, index) with the padding last, and its first k
    are the answer.  Ties need no other path: only a tied row has more
    than k candidates.
    """
    rows, n = d2.shape
    np.copyto(kth, d2)
    kth.partition(k - 1, axis=1)
    np.less_equal(d2, kth[:, k - 1:k], out=within)
    kept = np.flatnonzero(within)
    row = kept // n
    counts = np.bincount(row, minlength=rows)
    starts = np.cumsum(counts) - counts
    cand = np.full((rows, counts.max()), np.inf)
    cand[row, np.arange(kept.size) - starts[row]] = d2.reshape(-1)[kept]
    order = np.argsort(cand, axis=1, kind="stable")[:, :k]
    return kept[starts[:, None] + order] % n


def _check_k(k: int, n: int) -> None:
    if k < 1 or k > n:
        raise PcopsError(f"k={k} invalid for a reference cloud of {n}")


def farthest_point_sample(points: np.ndarray, m: int, k: int
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Greedy max-min sampling; returns (centers, nbr): m indices, and the
    (m, k) table of each center's k nearest points, which equals
    knn_indices(points[centers], points, k).

    The first pick is point 0.  Each later pick maximizes the distance to
    the selected set, ties resolved to the lowest index.  Picks are distinct
    points; a cloud with fewer than m distinct points raises PcopsError.
    Each pick's squared-distance row, which the max-min update needs anyway,
    goes into a chunk buffer that knn_indices' selection turns into the
    table, so no distance is computed twice.
    """
    points = _points(points, "points")
    n = points.shape[0]
    if m < 1 or m > n:
        raise PcopsError(f"cannot sample {m} points from a cloud of {n}")
    _check_k(k, n)
    cols = [np.ascontiguousarray(points[:, j]) for j in range(3)]
    chunk = max(1, min(m, W.BLOCK_ELEMS // n))
    rows_buf, kth_buf = np.empty((chunk, n)), np.empty((chunk, n))
    within_buf = np.empty((chunk, n), dtype=bool)
    d2, tmp = np.empty(n), np.empty(n)
    sel = np.empty(m, dtype=np.int64)
    nbr = np.empty((m, k), dtype=np.int64)
    for i in range(m):
        row = rows_buf[i % chunk]
        if i == 0:
            nxt = 0
            d2[:] = _sq_dists(cols, points[0], row, tmp)
        else:
            nxt = int(d2.argmax())  # first max wins ties
            if d2[nxt] == 0.0:  # the i picks so far are every distinct point
                raise PcopsError(f"cannot sample {m} distinct points from a "
                                 f"cloud with {i} distinct points")
            np.minimum(d2, _sq_dists(cols, points[nxt], row, tmp), out=d2)
        sel[i] = nxt
        if i % chunk == chunk - 1 or i == m - 1:
            lo = i - i % chunk
            nbr[lo:i + 1] = _nearest(rows_buf[:i + 1 - lo], k,
                                     within_buf[:i + 1 - lo],
                                     kth_buf[:i + 1 - lo])
    return sel, nbr


def sample_pyramid(points: np.ndarray, sizes, k: int
                   ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each pyramid level's (centers, nbr) for one cloud, finest first.

    Level i takes sizes[i] centers from the level below it (level 1 from
    points) by farthest_point_sample, with each center's k nearest points
    there; both index the level below.
    """
    points = _points(points, "points")
    tables = []
    for m in sizes:
        centers, nbr = farthest_point_sample(points, m, k)
        tables.append((centers, nbr))
        points = points[centers]
    return tables


def knn_indices(query: np.ndarray, ref: np.ndarray, k: int) -> np.ndarray:
    """Exact k nearest neighbors; (m, k) indices into ref, each row ordered
    by (squared distance, index).

    Per chunk of queries, the squared distances to every reference point go
    through the value-partition selection of _nearest.
    """
    query = _points(query, "query")
    ref = _points(ref, "ref")
    n = ref.shape[0]
    _check_k(k, n)
    ref_cols = [np.ascontiguousarray(ref[:, j]) for j in range(3)]
    chunk = max(1, min(query.shape[0], W.BLOCK_ELEMS // n))
    out = np.empty((query.shape[0], k), dtype=np.int64)
    bufs = {}   # each thread's (d2, tmp, within) chunk buffers

    def select(lo):
        tid = threading.get_ident()
        if tid not in bufs:
            bufs[tid] = (np.empty((chunk, n)), np.empty((chunk, n)),
                         np.empty((chunk, n), dtype=bool))
        d2_buf, tmp_buf, within_buf = bufs[tid]
        q = query[lo:lo + chunk]
        rows = q.shape[0]
        d2 = _sq_dists(q.T[:, :, None], ref_cols, d2_buf[:rows],
                       tmp_buf[:rows])
        # the distances are done with tmp_buf, so the selection reuses it
        out[lo:lo + rows] = _nearest(d2, k, within_buf[:rows],
                                     tmp_buf[:rows])

    W.each(select, range(0, query.shape[0], chunk))
    return out


def random_sample(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform indices; without replacement unless size exceeds the cloud."""
    if n < 1 or size < 1:
        raise PcopsError(f"cannot draw {size} indices from {n} points")
    return rng.choice(n, size=size, replace=size > n)


def make_layers(store: T.ParamStore, prefix: str, dims: list[int],
                rng: np.random.Generator, gain: float = 2.0,
                out_bias: np.ndarray | None = None
                ) -> list[tuple[T.Parameter, T.Parameter]]:
    """The (weight, bias) parameters "{prefix}/{i}/W" and "/b" of a stack
    from dims[i] to dims[i + 1] channels, layer by layer, as the list that
    T.mlp and T.attend take: weights drawn N(0, gain / fan_in), biases zero
    but out_bias on the last layer if given (the parameter copies it).
    Gain 2 (He init) suits the relu stacks; the linear FC heads take 1."""
    layers = []
    for i, (fan_in, w) in enumerate(zip(dims, dims[1:])):
        weight = store.create(f"{prefix}/{i}/W", rng.normal(size=(fan_in, w))
                              * np.sqrt(gain / fan_in))
        last = out_bias is not None and i == len(dims) - 2
        bias = out_bias if last else np.zeros(w)
        layers.append((weight, store.create(f"{prefix}/{i}/b", bias)))
    return layers


def _offsets(ref: T.Tensor, nbr: np.ndarray, centres: T.Tensor) -> T.Tensor:
    """Each edge's offset, ref[nbr[i, j]] - centres[i], of shape (n, k, 3)
    for the (n, k) table nbr: a gather, a reshape and a sub."""
    return T.sub(T.gather_rows(ref, nbr),
                 T.reshape(centres, (nbr.shape[0], 1, 3)))


def set_conv(coords: T.Tensor, feats: T.Tensor | None,
             center_idx: np.ndarray, nbr: np.ndarray, layers: list
             ) -> tuple[T.Tensor, T.Tensor]:
    """Sampled local aggregation.

    nbr is the (m, k) table of each center's nearest input points, as
    farthest_point_sample returns it with the centers.  For each center,
    max-pool the shared MLP over its k neighbors, as one pooled T.mlp op
    (pool=True), which builds no per-edge output.  The MLP's input per edge
    is (neighbor - center, neighbor features, center features); its first
    layer runs factorized (T.mlp with nbr): offsets per edge, neighbor
    features projected once per input point and gathered, center features
    (m, 1, c), projected once per center.  Returns (center coords, features).
    """
    out_coords = T.gather_rows(coords, center_idx)
    parts = [_offsets(coords, nbr, out_coords)]
    if feats is not None:
        parts += [feats, T.gather_rows(feats, center_idx[:, None])]
    return out_coords, T.mlp(layers, *parts, nbr=nbr, pool=True)


def set_upconv(dense_coords: T.Tensor, dense_feats: T.Tensor,
               sparse_coords: T.Tensor, sparse_feats: T.Tensor,
               nbr: np.ndarray, layers1: list, layers2: list) -> T.Tensor:
    """Propagate sparse-level features to every dense point.

    nbr is the (n_dense, k) table of each dense point's nearest sparse points,
    knn_indices(dense coords, sparse coords, k); callers that propagate
    several sparse features over the same two clouds share one table.  Per
    dense point: max-pool the first MLP over those k sparse points as one
    pooled T.mlp op (pool=True), whose input per edge is (sparse - dense,
    sparse features), run factorized as in set_conv; then run the second
    MLP on (pooled features, the dense point's own features).
    """
    rel = _offsets(sparse_coords, nbr, dense_coords)
    pooled = T.mlp(layers1, rel, sparse_feats, nbr=nbr, pool=True)
    return T.mlp(layers2, pooled, dense_feats)
