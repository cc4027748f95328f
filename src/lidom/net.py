"""End-to-end odometry network.

Two input clouds are subsampled to a fixed size and pushed through a shared
four-level aggregation pyramid.  An attentive cost volume correlates the two
clouds at the penultimate level (optionally the coarsest); a dedicated set
conv carries that embedding to the coarsest level, where a mask and the first
pose are regressed.  Three warp-refinement steps then walk back down the
pyramid, each warping the first cloud by the coarse pose, re-correlating,
and composing a residual pose, so the forward pass emits four poses ordered
coarse to fine.

NetConfig.ablation picks the full model ("none") or one of the published
ablations, one at a time (ABLATIONS): a uniform (non-attentive) cost volume,
no mask, per-level masks without coarse-to-fine conditioning, no warp, no
refinement at all (a single pose), and the first embedding at the coarsest
level instead of the penultimate one.  __init__ builds the network for it,
and forward runs what __init__ built.

forward has lidom.workers' sampler process build pc2's pyramid tables (one
FPS run per cloud, pcops.sample_pyramid) while pc1's pyramid runs, or builds
them itself when the sampler gives no reply, with the same bits.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from . import tensor as T
from . import workers as W
from .costvol import CostVolume
from .headmask import RefineBlock, make_mask, pose_head, warp_refine
from .pcops import (PcopsError, _points, make_layers, random_sample,
                    sample_pyramid, set_conv)

__all__ = ["ABLATIONS", "NetConfig", "NetError", "OdometryNet", "NetOutput",
           "LevelOutput", "desk_config", "full_config"]


ABLATIONS = ("none", "uniform_cost_volume", "no_mask", "no_mask_optimization",
             "no_warp", "no_refinement", "last_level_embedding")


class NetError(ValueError):
    """Bad configuration or malformed forward inputs."""


@dataclass(frozen=True)
class NetConfig:
    """Architecture sizes, the ablation and the init seed.  desk_config and
    full_config are the two presets; OdometryNet validates what it is given."""

    n_input: int = 8192
    n1: int = 2048
    n2: int = 1024
    n3: int = 256
    n4: int = 64
    c1: int = 32
    c2: int = 64
    c3: int = 128
    c4: int = 256
    knn_k: int = 16
    cv_k1: int = 16
    cv_k2: int = 16
    up_k: int = 8
    fc_hidden1: int = 256
    fc_hidden2: int = 128
    ablation: str = "none"
    init_seed: int = 0

    def levels(self) -> list[tuple[int, int]]:
        return [(self.n1, self.c1), (self.n2, self.c2),
                (self.n3, self.c3), (self.n4, self.c4)]

    def validate(self) -> None:
        """Raise NetError naming the field unless each int field (sizes,
        widths, k's, init seed) holds a non-bool integer, ablation is one of
        ABLATIONS, and the values fit together."""
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type != "int":
                continue
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise NetError(f"{f.name} must be an integer, got {v!r}")
            if f.name == "init_seed" and v < 0:
                raise NetError(f"init_seed must be non-negative, got {v}")
            if f.name != "init_seed" and v < 1:
                raise NetError(f"{f.name} must be positive, got {v}")
        counts = [self.n_input, self.n1, self.n2, self.n3, self.n4]
        if any(a < b for a, b in zip(counts, counts[1:])):
            raise NetError(f"level counts must not increase: {counts}")
        for name in ("knn_k", "up_k", "cv_k1", "cv_k2"):
            if getattr(self, name) > self.n4:
                raise NetError(f"{name}={getattr(self, name)} exceeds the "
                               f"coarsest level ({self.n4})")
        if not isinstance(self.ablation, str) or \
                self.ablation not in ABLATIONS:
            raise NetError(f"ablation must be one of {', '.join(ABLATIONS)}; "
                           f"got {self.ablation!r}")


def desk_config(**overrides) -> NetConfig:
    """Small preset: the scale of the tier-1 tests and of overfitting
    checks, a forward in tens of milliseconds on one CPU core."""
    cfg = NetConfig(n_input=512, n1=128, n2=64, n3=32, n4=16,
                    c1=8, c2=16, c3=32, c4=64,
                    knn_k=8, cv_k1=4, cv_k2=4, up_k=4,
                    fc_hidden1=64, fc_hidden2=32)
    return replace(cfg, **overrides)


def full_config(**overrides) -> NetConfig:
    return replace(NetConfig(), **overrides)


@dataclass
class LevelOutput:
    """One pyramid level's pose estimate and its supporting tensors."""

    level: int
    coords: np.ndarray
    q: T.Tensor
    t: T.Tensor
    embedding: T.Tensor
    mask: T.Tensor | None


@dataclass
class NetOutput:
    """Levels ordered coarse to fine."""

    levels: list[LevelOutput]


class OdometryNet:
    def __init__(self, cfg: NetConfig) -> None:
        cfg.validate()
        self.cfg = cfg
        self.store = T.ParamStore()
        rng = np.random.default_rng(cfg.init_seed)
        lv = cfg.levels()

        def layers(prefix, *dims, **init):
            return make_layers(self.store, prefix, list(dims), rng, **init)

        self.pyramid = []
        prev_c = 0
        for i, (_, c) in enumerate(lv, start=1):
            in_w = 3 + 2 * prev_c if prev_c else 3
            self.pyramid.append(layers(f"pyramid/l{i}/mlp", in_w, c, c))
            prev_c = c

        ab = cfg.ablation
        last = ab == "last_level_embedding"
        mode = "uniform" if ab == "uniform_cost_volume" else "attentive"
        use_mask = ab != "no_mask"
        with_prior = use_mask and ab != "no_mask_optimization"
        c3, c4 = lv[2][1], lv[3][1]
        self.cv_init = CostVolume(self.store, "init/cv", c4 if last else c3,
                                  cfg.cv_k1, cfg.cv_k2, rng, mode)
        # None when the first embedding is at the coarsest level already
        self.carry = None if last else layers("init/carry", 3 + 2 * c3,
                                              c4, c4)
        self.init_mask = (layers("init/mask", 2 * c4, c4, c4) if use_mask
                          else None)
        h1, h2 = cfg.fc_hidden1, cfg.fc_hidden2
        q_init = dict(gain=1.0, out_bias=np.array([1.0, 0.0, 0.0, 0.0]))
        self.init_fc_q = layers("init/fc_q", c4, h1, h2, 4, **q_init)
        self.init_fc_t = layers("init/fc_t", c4, h1, h2, 3, gain=1.0)

        # the refinement levels, coarse to fine; none without refinement
        self.blocks: dict[int, RefineBlock] = {}
        if ab != "no_refinement":
            for level in (3, 2, 1):
                c = lv[level - 1][1]
                c_sparse = lv[level][1]
                pre = f"refine/l{level}"
                mask_w = (3 if with_prior else 2) * c
                self.blocks[level] = RefineBlock(
                    up_e1=layers(f"{pre}/up_e/mlp1", 3 + c_sparse, c, c),
                    up_e2=layers(f"{pre}/up_e/mlp2", 2 * c, c),
                    cost_volume=CostVolume(self.store, f"{pre}/cv", c,
                                           cfg.cv_k1, cfg.cv_k2, rng, mode),
                    refine_mlp=layers(f"{pre}/emb", 3 * c, c, c),
                    fc_q=layers(f"{pre}/fc_q", c, h1, h2, 4, **q_init),
                    fc_t=layers(f"{pre}/fc_t", c, h1, h2, 3, gain=1.0),
                    mask_mlp=(layers(f"{pre}/mask", mask_w, c, c)
                              if use_mask else None),
                    up_m1=(layers(f"{pre}/up_m/mlp1", 3 + c_sparse, c, c)
                           if with_prior else None),
                    up_m2=(layers(f"{pre}/up_m/mlp2", 2 * c, c)
                           if with_prior else None),
                )

    def _run_pyramid(self, pts: np.ndarray, tables
                     ) -> tuple[list[T.Tensor], list[T.Tensor]]:
        """The coords and feats of one cloud's pyramid levels, one per
        (centers, nbr) table that sample_pyramid gives for it."""
        coords, feats = [T.const(pts)], [None]
        for layers, (centers, nbr) in zip(self.pyramid, tables):
            c, f = set_conv(coords[-1], feats[-1], centers, nbr, layers)
            coords.append(c)
            feats.append(f)
        return coords[1:], feats[1:]

    def forward(self, pc1: np.ndarray, pc2: np.ndarray) -> NetOutput:
        pc1, pc2 = _cloud("pc1", pc1), _cloud("pc2", pc2)
        rng = np.random.default_rng(0)
        cfg = self.cfg
        sub1 = pc1[random_sample(pc1.shape[0], cfg.n_input, rng)]
        sub2 = pc2[random_sample(pc2.shape[0], cfg.n_input, rng)]

        sizes = [n for n, _ in cfg.levels()]
        # pc2's coarsest level is read only by a last-level first embedding:
        # the penultimate one and every refinement step use levels 3-1
        sizes2 = sizes if self.carry is None else sizes[:3]
        with W.SAMPLER.tables(sub2, sizes2, cfg.knn_k) as reply:
            tables1 = _named("pc1", sample_pyramid, sub1, sizes, cfg.knn_k)
            coords1, feats1 = self._run_pyramid(sub1, tables1)
            # reply() is None when the sampler cannot start, died or is busy
            tables2 = _named("pc2", lambda: reply() or sample_pyramid(
                sub2, sizes2, cfg.knn_k))
            coords2, feats2 = self._run_pyramid(sub2, tables2)

        if self.carry is not None:
            e3 = self.cv_init(coords1[2], feats1[2], coords2[2], feats2[2])
            # the same centers and neighborhoods as pc1's level 4
            _, e4 = set_conv(coords1[2], e3, *tables1[3], self.carry)
        else:
            e4 = self.cv_init(coords1[3], feats1[3], coords2[3], feats2[3])

        mask4 = None
        if self.init_mask is not None:
            mask4 = make_mask(e4, feats1[3], None, self.init_mask)
        q, t = pose_head(e4, mask4, self.init_fc_q, self.init_fc_t)
        levels = [LevelOutput(4, coords1[3].data, q, t, e4, mask4)]

        emb, mask = e4, mask4
        for level, blk in self.blocks.items():
            i = level - 1
            q, t, emb, mask = warp_refine(
                blk, coords1[i], feats1[i], coords2[i], feats2[i],
                coords1[i + 1], emb, mask, q, t, cfg.up_k,
                use_warp=cfg.ablation != "no_warp")
            levels.append(LevelOutput(level, coords1[i].data, q, t, emb, mask))
        return NetOutput(levels)


def _cloud(name: str, pc) -> np.ndarray:
    """pc as float64 points; a NetError naming the cloud unless it is
    nonempty and meets pcops' cloud contract (pcops._points)."""
    try:
        pc = _points(pc, name)
    except PcopsError as e:
        raise NetError(str(e)) from e
    if pc.shape[0] < 1:
        raise NetError(f"{name}: expected nonempty (n, 3) points")
    return pc


def _named(name: str, tables, *args):
    """tables(*args), with a PcopsError (too few distinct points in the
    scan) raised as a NetError naming the cloud."""
    try:
        return tables(*args)
    except PcopsError as e:
        raise NetError(f"{name}: {e}") from e

