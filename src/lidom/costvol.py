"""Two-stage attentive correlation between consecutive point clouds.

Stage one attends over each first-cloud point's k1 nearest neighbors in the
second cloud, producing a per-point motion embedding.  Stage two re-attends
over each point's k2 nearest neighbors within the first cloud (neighborhoods
taken in coordinate space), which spreads the embeddings across the local
patch and suppresses spurious matches.

Both stages share one input construction: for a center with feature f_c and a
neighbor at offset d with feature f_n, the attention MLP u and the value MLP
v both see (d, |d|, f_c, f_n).  No (n, k, 4 + 2c) concat is built: u and v
take the four as parts with the neighbor table, mlp(*parts, nbr=nbr), so
their first layer runs factorized, with d and |d| per edge, f_c per center,
and f_n projected once per reference point and then gathered; this equals
the concat form up to summation order.  Attention weights are a per-channel
softmax over the neighborhood; the "uniform" variant replaces them with 1/k,
which removes the learned attention while keeping the value path intact.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .pcops import SharedMLP, knn_indices

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
        in_w, widths = 4 + 2 * width, [width, width]
        self.v1 = SharedMLP(store, f"{prefix}/v1", in_w, widths, rng)
        self.v2 = SharedMLP(store, f"{prefix}/v2", in_w, widths, rng)
        self.u1: SharedMLP | None = None
        self.u2: SharedMLP | None = None
        if mode == "attentive":
            self.u1 = SharedMLP(store, f"{prefix}/u1", in_w, widths, rng,
                                relu_last=False)
            self.u2 = SharedMLP(store, f"{prefix}/u2", in_w, widths, rng,
                                relu_last=False)

    def _attend(self, centers: T.Tensor, center_f: T.Tensor,
                ref_coords: T.Tensor, ref_f: T.Tensor, nbr: np.ndarray,
                u: SharedMLP | None, v: SharedMLP) -> T.Tensor:
        n, k = nbr.shape
        rel = T.sub(T.gather_rows(ref_coords, nbr),
                    T.reshape(centers, (n, 1, 3)))
        dist = T.sqrt(T.add(T.reduce_sum(T.mul(rel, rel), axis=2, keepdims=True),
                            T.const(_DIST_EPS)))
        parts = (rel, dist, T.reshape(center_f, (n, 1, center_f.shape[1])),
                 ref_f)
        val = v(*parts, nbr=nbr)
        if u is None:
            weights = T.const(np.full((n, k, 1), 1.0 / k))
            return T.reduce_sum(T.mul(weights, val), axis=1)
        weights = T.softmax_axis(u(*parts, nbr=nbr), axis=1)
        return T.reduce_sum(T.mul(weights, val), axis=1)

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
