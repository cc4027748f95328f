"""Trainable point weighting and masked pose regression.

make_mask turns per-point embeddings into a per-channel distribution over the
points (softmax along the point axis, so every channel's weights sum to one).
pose_head pools embeddings under that mask into a single vector and regresses
a unit quaternion and a translation through separate linear stacks.

warp_refine is one coarse-to-fine refinement step: propagate the coarser
embedding and mask down with set upconvs, rigidly warp the first cloud by the
coarse pose, re-correlate against the second cloud, fuse everything into a
refined embedding and mask, regress a residual pose, and compose it onto the
coarse one.  The ablation flags reduce the step to its published variants.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .costvol import CostVolume
from .geom import pose_compose_t, quat_normalize_t, rotate_points_t
from .pcops import FcStack, SharedMLP, knn_indices, set_upconv

__all__ = ["make_mask", "pose_head", "RefineBlock", "warp_refine"]


def make_mask(embedding: T.Tensor, feats: T.Tensor, prior: T.Tensor | None,
              mlp: SharedMLP) -> T.Tensor:
    """Per-channel point weighting; columns sum to one.

    Input rows are (embedding, prior, features) when a coarser-level prior is
    present, (embedding, features) otherwise.
    """
    parts = (embedding, feats) if prior is None else (embedding, prior, feats)
    return T.softmax_axis(mlp(*parts), axis=0)


def pose_head(embedding: T.Tensor, mask: T.Tensor | None, fc_q: FcStack,
              fc_t: FcStack) -> tuple[T.Tensor, T.Tensor]:
    """Weighted-sum pooling, then q = normalize(FC(pooled)), t = FC(pooled).

    Without a mask the pooling is a plain per-channel mean.
    """
    if mask is None:
        n = embedding.shape[0]
        pooled = T.mul(T.reduce_sum(embedding, axis=0), T.const(1.0 / n))
    else:
        pooled = T.reduce_sum(T.mul(embedding, mask), axis=0)
    row = T.reshape(pooled, (1, pooled.shape[0]))
    q = quat_normalize_t(T.reshape(fc_q(row), (4,)))
    t = T.reshape(fc_t(row), (3,))
    return q, t


@dataclass
class RefineBlock:
    """Parameters for one refinement level."""

    up_e1: SharedMLP
    up_e2: SharedMLP
    cost_volume: CostVolume
    refine_mlp: SharedMLP
    fc_q: FcStack
    fc_t: FcStack
    mask_mlp: SharedMLP | None = None
    up_m1: SharedMLP | None = None
    up_m2: SharedMLP | None = None


def warp_refine(blk: RefineBlock, coords1: T.Tensor, feats1: T.Tensor,
                coords2: T.Tensor, feats2: T.Tensor,
                sparse_coords: T.Tensor, sparse_embedding: T.Tensor,
                sparse_mask: T.Tensor | None,
                q_coarse: T.Tensor, t_coarse: T.Tensor, up_k: int,
                use_warp: bool = True
                ) -> tuple[T.Tensor, T.Tensor, T.Tensor, T.Tensor | None]:
    """One warp-refinement step; returns (q, t, embedding, mask).

    A missing mask_mlp means masked pooling is disabled (mean pooling); a
    missing up_m1/up_m2 pair means the mask is re-estimated from scratch at
    this level and sparse_mask, the coarser level's mask, is not read.
    use_warp False skips the rigid warp but keeps the residual composition.
    """
    up_nbr = knn_indices(coords1.data, sparse_coords.data, up_k)
    ce = set_upconv(coords1, feats1, sparse_coords, sparse_embedding,
                    up_nbr, blk.up_e1, blk.up_e2)
    cm = None
    if blk.up_m1 is not None:
        cm = set_upconv(coords1, feats1, sparse_coords, sparse_mask,
                        up_nbr, blk.up_m1, blk.up_m2)
    warped = coords1
    if use_warp:
        warped = rotate_points_t(q_coarse, t_coarse, coords1)
    re = blk.cost_volume(warped, feats1, coords2, feats2)
    emb = blk.refine_mlp(ce, re, feats1)
    mask = None
    if blk.mask_mlp is not None:
        mask = make_mask(emb, feats1, cm, blk.mask_mlp)
    dq, dt = pose_head(emb, mask, blk.fc_q, blk.fc_t)
    q, t = pose_compose_t(dq, dt, q_coarse, t_coarse)
    return q, t, emb, mask
