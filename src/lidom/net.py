"""End-to-end odometry network.

Two input clouds are subsampled to a fixed size and pushed through a shared
four-level aggregation pyramid.  An attentive cost volume correlates the two
clouds at the penultimate level (optionally the coarsest); a dedicated set
conv carries that embedding to the coarsest level, where a mask and the first
pose are regressed.  Three warp-refinement steps then walk back down the
pyramid, each warping the first cloud by the coarse pose, re-correlating,
and composing a residual pose, so the forward pass emits four poses ordered
coarse to fine.

Config flags expose the published ablations: uniform (non-attentive) cost
volume, no mask, per-level mask without coarse-to-fine conditioning, no warp,
no refinement at all (single pose), and the first embedding at the coarsest
level instead of the penultimate one.

forward has lidom.workers' sampler process sample pc2's pyramid tables
while pc1's pyramid runs, and samples them itself when the sampler gives no
reply; the tables carry the same bits either way.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from . import tensor as T
from . import workers as W
from .costvol import CostVolume
from .headmask import RefineBlock, make_mask, pose_head, warp_refine
from .pcops import (PcopsError, make_layers, random_sample, sample_pyramid,
                    set_conv)

__all__ = ["NetConfig", "NetError", "OdometryNet", "NetOutput", "LevelOutput",
           "desk_config", "full_config"]


class NetError(ValueError):
    """Bad configuration or malformed forward inputs."""


@dataclass(frozen=True)
class NetConfig:
    """Architecture sizes, ablation flags and the init seed.  desk_config and
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
    first_embedding: str = "penultimate"
    cost_volume_mode: str = "attentive"
    use_mask: bool = True
    optimize_mask: bool = True
    use_warp: bool = True
    use_warp_refinement: bool = True
    init_seed: int = 0

    def levels(self) -> list[tuple[int, int]]:
        return [(self.n1, self.c1), (self.n2, self.c2),
                (self.n3, self.c3), (self.n4, self.c4)]

    def validate(self) -> None:
        """Raise NetError naming the field unless each int field (sizes,
        widths, k's, init seed) holds a non-bool integer, each bool field
        (the ablation flags) a bool, and the values fit together."""
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "bool" and not isinstance(v, (bool, np.bool_)):
                raise NetError(f"{f.name} must be a bool, got {v!r}")
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
        if self.first_embedding not in ("penultimate", "last"):
            raise NetError(
                f"first_embedding must be penultimate or last, "
                f"got {self.first_embedding!r}")
        if self.cost_volume_mode not in ("attentive", "uniform"):
            raise NetError(
                f"cost_volume_mode must be attentive or uniform, "
                f"got {self.cost_volume_mode!r}")


def desk_config(**overrides) -> NetConfig:
    """Small preset that trains in minutes on one CPU core."""
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

        cv_level = 3 if cfg.first_embedding == "penultimate" else 4
        c_cv = lv[cv_level - 1][1]
        self.cv_init = CostVolume(self.store, "init/cv", c_cv, cfg.cv_k1,
                                  cfg.cv_k2, rng, cfg.cost_volume_mode)
        c3, c4 = lv[2][1], lv[3][1]
        self.carry = None
        if cfg.first_embedding == "penultimate":
            self.carry = layers("init/carry", 3 + 2 * c3, c4, c4)

        self.init_mask = None
        if cfg.use_mask:
            self.init_mask = layers("init/mask", 2 * c4, c4, c4)
        h1, h2 = cfg.fc_hidden1, cfg.fc_hidden2
        q_init = dict(gain=1.0, out_bias=np.array([1.0, 0.0, 0.0, 0.0]))
        self.init_fc_q = layers("init/fc_q", c4, h1, h2, 4, **q_init)
        self.init_fc_t = layers("init/fc_t", c4, h1, h2, 3, gain=1.0)

        self.blocks: dict[int, RefineBlock] = {}
        if cfg.use_warp_refinement:
            for level in (3, 2, 1):
                c = lv[level - 1][1]
                c_sparse = lv[level][1]
                pre = f"refine/l{level}"
                with_prior = cfg.use_mask and cfg.optimize_mask
                mask_w = (3 if with_prior else 2) * c
                self.blocks[level] = RefineBlock(
                    up_e1=layers(f"{pre}/up_e/mlp1", 3 + c_sparse, c, c),
                    up_e2=layers(f"{pre}/up_e/mlp2", 2 * c, c),
                    cost_volume=CostVolume(self.store, f"{pre}/cv", c,
                                           cfg.cv_k1, cfg.cv_k2, rng,
                                           cfg.cost_volume_mode),
                    refine_mlp=layers(f"{pre}/emb", 3 * c, c, c),
                    fc_q=layers(f"{pre}/fc_q", c, h1, h2, 4, **q_init),
                    fc_t=layers(f"{pre}/fc_t", c, h1, h2, 3, gain=1.0),
                    mask_mlp=(layers(f"{pre}/mask", mask_w, c, c)
                              if cfg.use_mask else None),
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
        sizes2 = sizes if cfg.first_embedding == "last" else sizes[:3]
        with W.SAMPLER.tables(sub2, sizes2, cfg.knn_k) as reply:
            tables1 = _named("pc1", sample_pyramid, sub1, sizes, cfg.knn_k)
            coords1, feats1 = self._run_pyramid(sub1, tables1)
            # reply() is None when the sampler cannot start, died or is busy
            tables2 = _named("pc2", lambda: reply() or sample_pyramid(
                sub2, sizes2, cfg.knn_k))
            coords2, feats2 = self._run_pyramid(sub2, tables2)

        if cfg.first_embedding == "penultimate":
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

        if cfg.use_warp_refinement:
            emb, mask = e4, mask4
            for level in (3, 2, 1):
                i = level - 1
                q, t, emb, mask = warp_refine(
                    self.blocks[level], coords1[i], feats1[i], coords2[i],
                    feats2[i], coords1[i + 1], emb, mask, q, t, cfg.up_k,
                    use_warp=cfg.use_warp)
                levels.append(LevelOutput(level, coords1[i].data,
                                          q, t, emb, mask))
        return NetOutput(levels)


# squared distances between points of clouds within +-_MAX_COORD are at
# most 3 * (2 * _MAX_COORD)**2, the largest float64; an extent below
# _MIN_EXTENT squares to less than the smallest normal one
_MAX_COORD = np.sqrt(np.finfo(np.float64).max / 12.0)
_MIN_EXTENT = np.sqrt(np.finfo(np.float64).tiny)


def _cloud(name: str, pc) -> np.ndarray:
    """pc as float64 points; a NetError naming the cloud unless it is a
    nonempty (n, 3) array of finite real numbers whose largest coordinate
    and extent keep squared distances in float64's normal range (an extent
    of 0, one distinct point, is exact and left to sampling to reject)."""
    pc = np.asarray(pc)
    if pc.dtype.kind not in "iuf":
        raise NetError(f"{name}: coordinates must be real numbers, "
                       f"got {pc.dtype}")
    pc = pc.astype(np.float64, copy=False)
    if pc.ndim != 2 or pc.shape[1] != 3 or pc.shape[0] < 1:
        raise NetError(f"{name}: expected nonempty (n, 3) points")
    if not np.isfinite(pc).all():
        raise NetError(f"{name}: non-finite coordinates")
    if np.abs(pc).max() > _MAX_COORD:
        raise NetError(f"{name}: coordinates beyond {_MAX_COORD:.3g} "
                       f"overflow squared distances")
    extent = np.ptp(pc, axis=0).max()
    if 0.0 < extent < _MIN_EXTENT:
        raise NetError(f"{name}: an extent of {extent:.3g} underflows "
                       f"squared distances")
    return pc


def _named(name: str, tables, *args):
    """tables(*args), with a PcopsError (too few distinct points in the
    scan) raised as a NetError naming the cloud."""
    try:
        return tables(*args)
    except PcopsError as e:
        raise NetError(f"{name}: {e}") from e

