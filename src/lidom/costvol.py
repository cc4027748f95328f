"""Two-stage attentive correlation between consecutive point clouds.

Stage one attends over each first-cloud point's k1 nearest neighbors in the
second cloud, producing a per-point motion embedding.  Stage two re-attends
over each point's k2 nearest neighbors within the first cloud (neighborhoods
taken in coordinate space), which spreads the embeddings across the local
patch and suppresses spurious matches.

Both stages share one input construction: for a center with feature f_c and a
neighbor at offset d with feature f_n, the attention MLP u and the value MLP
v both see (d, |d|, f_c, f_n).  No (n, k, 4 + 2c) concat is built: u and v
take the four as parts with the neighbor table, so their first layer runs
factorized, with d and |d| per edge, f_c per center, and f_n projected once
per reference point and then gathered; this equals the concat form up to
summation order.  Attention weights are a per-channel softmax over the
neighborhood.  The "uniform" variant has no u: its stage is the mean of v
over the neighborhood (an mlp, a sum and a mul by 1/k), which removes the
learned attention while keeping the value path intact.

Past the offsets and distances, each attentive stage is one T.attend op
over u's and v's layers.  It accumulates the weighted values in place,
and a taped stage keeps only the four parts, so no per-edge weight, value
or product outlives the forward; its backward recomputes them.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .pcops import _offsets, knn_indices, make_layers

__all__ = ["CostVolume", "CostVolumeError"]

_DIST_EPS = 1e-20


class CostVolumeError(ValueError):
    pass


class CostVolume:
    """Parameter block and forward pass.  Input features, hidden layers and
    output embeddings all have `width` channels, so both stages' MLPs read
    4 + 2 * width inputs."""

    def __init__(self, store: T.ParamStore, prefix: str, width: int,
                 k1: int, k2: int, rng: np.random.Generator,
                 mode: str = "attentive") -> None:
        if mode not in ("attentive", "uniform"):
            raise CostVolumeError(f"unknown cost-volume mode {mode!r}")
        self.k1, self.k2 = k1, k2
        dims = [4 + 2 * width, width, width]
        self.v1 = make_layers(store, f"{prefix}/v1", dims, rng)
        self.v2 = make_layers(store, f"{prefix}/v2", dims, rng)
        self.u1 = self.u2 = None
        if mode == "attentive":
            self.u1 = make_layers(store, f"{prefix}/u1", dims, rng)
            self.u2 = make_layers(store, f"{prefix}/u2", dims, rng)

    def _attend(self, centers: T.Tensor, center_f: T.Tensor,
                ref_coords: T.Tensor, ref_f: T.Tensor, nbr: np.ndarray,
                u: list | None, v: list) -> T.Tensor:
        n, k = nbr.shape
        rel = _offsets(ref_coords, nbr, centers)
        dist = T.sqrt(T.add(T.reduce_sum(T.mul(rel, rel), axis=2, keepdims=True),
                            T.const(_DIST_EPS)))
        parts = (rel, dist, T.reshape(center_f, (n, 1, center_f.shape[1])),
                 ref_f)
        if u is None:
            return T.mul(T.reduce_sum(T.mlp(v, *parts, nbr=nbr), axis=1),
                         T.const(1.0 / k))
        return T.attend(u, v, *parts, nbr=nbr)

    def __call__(self, coords1: T.Tensor, feats1: T.Tensor,
                 coords2: T.Tensor, feats2: T.Tensor) -> T.Tensor:
        if feats1.shape[0] != coords1.shape[0]:
            raise CostVolumeError("first cloud: features and coords disagree")
        if feats2.shape[0] != coords2.shape[0]:
            raise CostVolumeError("second cloud: features and coords disagree")
        nbr1 = knn_indices(coords1.data, coords2.data, self.k1)
        pe = self._attend(coords1, feats1, coords2, feats2, nbr1, self.u1,
                          self.v1)
        nbr2 = knn_indices(coords1.data, coords1.data, self.k2)
        return self._attend(coords1, pe, coords1, pe, nbr2, self.u2, self.v2)
