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

The pyramid's sampling (FPS centres and k-NN tables, pcops.sample_pyramid)
uses no parameter, and nothing pc1 does needs pc2's until the first cost
volume.  So forward sends pc2's subsample to a sampler process and samples
and runs pc1's pyramid meanwhile, on a second core.  The child runs the same
sample_pyramid from the same lidom sources on the same float64 points, and
pickle carries arrays across the pipe byte for byte, so poses, tapes and
gradients are bit-identical to sampling in this process.  The sampler is
one child per Python process, shared by every OdometryNet.  The first
forward starts it with subprocess.Popen running `python -c` (not fork, and
not multiprocessing, which re-imports the caller's __main__).  It exits when
its stdin closes: at interpreter exit an atexit hook closes that pipe and
reaps it, and if this process dies the pipe closes with it.  A forward whose
sampler cannot start or has died samples pc2 in this process with the same
function, and the next forward starts a new sampler; a forward that raises
with a request in flight kills the sampler, so no later request can read
that reply.

Once the sampler's work is done the second core runs half of the per-edge
work instead: every per-edge mlp and attend op (the set_convs, the cost
volumes, the set_upconvs) and every KNN call splits its rows into blocks
that this thread and one helper thread claim in turn (tensor._each).  A
block writes only its own rows, by the same code, so poses, tapes and
gradients keep the bits of one thread.  A taped pair's backward shares
the helper too: attend's recompute and softmax gradient run per block and
its two stack backwards as two items, and each layer's parts and each
hidden layer's input-gradient blocks are items, each written only by the
code one thread would run, so the gradients keep their bits as well.
Like the sampler, the helper is one per process, and the first forward
that needs it starts it.  At a fork, os.register_at_fork hooks drop both
in the child, which closes its copies of the sampler pipes at once, so
that the parent's exit never waits on it, and starts its own.
"""
from __future__ import annotations

import atexit
import numbers
import os
import sys
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, replace

import numpy as np

from . import tensor as T
from .costvol import CostVolume
from .headmask import RefineBlock, make_mask, pose_head, warp_refine
from .pcops import (FcStack, PcopsError, SharedMLP, random_sample,
                    sample_pyramid, set_conv)

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


class _Pyramid:
    """Per-cloud result of the shared aggregation stack."""

    def __init__(self) -> None:
        self.coords: list[T.Tensor] = []   # level 1..4
        self.feats: list[T.Tensor] = []
        self.center_idx: list[np.ndarray] = []
        self.nbr: list[np.ndarray] = []    # each level's (n, knn_k) table


class OdometryNet:
    def __init__(self, cfg: NetConfig) -> None:
        cfg.validate()
        self.cfg = cfg
        self.store = T.ParamStore()
        rng = np.random.default_rng(cfg.init_seed)
        lv = cfg.levels()

        self.pyramid: list[SharedMLP] = []
        prev_c = 0
        for i, (_, c) in enumerate(lv, start=1):
            in_w = 3 + 2 * prev_c if prev_c else 3
            self.pyramid.append(SharedMLP(self.store, f"pyramid/l{i}/mlp",
                                          in_w, [c, c], rng))
            prev_c = c

        cv_level = 3 if cfg.first_embedding == "penultimate" else 4
        c_cv = lv[cv_level - 1][1]
        self.cv_init = CostVolume(self.store, "init/cv", c_cv, cfg.cv_k1,
                                  cfg.cv_k2, rng, cfg.cost_volume_mode)
        self.carry: SharedMLP | None = None
        if cfg.first_embedding == "penultimate":
            c3, c4 = lv[2][1], lv[3][1]
            self.carry = SharedMLP(self.store, "init/carry",
                                   3 + 2 * c3, [c4, c4], rng)

        c4 = lv[3][1]
        self.init_mask: SharedMLP | None = None
        if cfg.use_mask:
            self.init_mask = SharedMLP(self.store, "init/mask", 2 * c4,
                                       [c4, c4], rng, relu_last=False)
        fc_widths = [cfg.fc_hidden1, cfg.fc_hidden2]
        identity_q = np.array([1.0, 0.0, 0.0, 0.0])
        self.init_fc_q = FcStack(self.store, "init/fc_q", c4,
                                 fc_widths + [4], rng, out_bias=identity_q)
        self.init_fc_t = FcStack(self.store, "init/fc_t", c4,
                                 fc_widths + [3], rng)

        self.blocks: dict[int, RefineBlock] = {}
        if cfg.use_warp_refinement:
            for level in (3, 2, 1):
                c = lv[level - 1][1]
                c_sparse = lv[level][1]
                pre = f"refine/l{level}"
                with_prior = cfg.use_mask and cfg.optimize_mask
                self.blocks[level] = RefineBlock(
                    up_e1=SharedMLP(self.store, f"{pre}/up_e/mlp1",
                                    3 + c_sparse, [c, c], rng),
                    up_e2=SharedMLP(self.store, f"{pre}/up_e/mlp2",
                                    2 * c, [c], rng),
                    cost_volume=CostVolume(self.store, f"{pre}/cv", c,
                                           cfg.cv_k1, cfg.cv_k2, rng,
                                           cfg.cost_volume_mode),
                    refine_mlp=SharedMLP(self.store, f"{pre}/emb",
                                         3 * c, [c, c], rng),
                    fc_q=FcStack(self.store, f"{pre}/fc_q", c,
                                 fc_widths + [4], rng, out_bias=identity_q),
                    fc_t=FcStack(self.store, f"{pre}/fc_t", c,
                                 fc_widths + [3], rng),
                    mask_mlp=(SharedMLP(self.store, f"{pre}/mask",
                                        (3 if with_prior else 2) * c, [c, c],
                                        rng, relu_last=False)
                              if cfg.use_mask else None),
                    up_m1=(SharedMLP(self.store, f"{pre}/up_m/mlp1",
                                     3 + c_sparse, [c, c], rng)
                           if with_prior else None),
                    up_m2=(SharedMLP(self.store, f"{pre}/up_m/mlp2",
                                     2 * c, [c], rng)
                           if with_prior else None),
                )

    def _run_pyramid(self, pts: np.ndarray, tables) -> _Pyramid:
        """The pyramid levels of one cloud, one per (centers, nbr) table
        that sample_pyramid gives for it."""
        out = _Pyramid()
        coords = T.const(pts)
        feats: T.Tensor | None = None
        for mlp, (centers, nbr) in zip(self.pyramid, tables):
            coords, feats = set_conv(coords, feats, centers, nbr, mlp)
            out.coords.append(coords)
            out.feats.append(feats)
            out.center_idx.append(centers)
            out.nbr.append(nbr)
        return out

    def forward(self, pc1: np.ndarray, pc2: np.ndarray) -> NetOutput:
        pc1 = np.asarray(pc1, dtype=np.float64)
        pc2 = np.asarray(pc2, dtype=np.float64)
        for name, pc in (("pc1", pc1), ("pc2", pc2)):
            if pc.ndim != 2 or pc.shape[1] != 3 or pc.shape[0] < 1:
                raise NetError(f"{name}: expected nonempty (n, 3) points")
            if not np.isfinite(pc).all():
                raise NetError(f"{name}: non-finite coordinates")
        rng = np.random.default_rng(0)
        cfg = self.cfg
        sub1 = pc1[random_sample(pc1.shape[0], cfg.n_input, rng)]
        sub2 = pc2[random_sample(pc2.shape[0], cfg.n_input, rng)]

        sizes = [n for n, _ in cfg.levels()]
        # pc2's coarsest level is read only by a last-level first embedding:
        # the penultimate one and every refinement step use levels 3-1
        sizes2 = sizes if cfg.first_embedding == "last" else sizes[:3]
        with _SAMPLER.tables(sub2, sizes2, cfg.knn_k) as pc2_tables:
            p1 = self._run_pyramid(sub1, _named("pc1", sample_pyramid, sub1,
                                                sizes, cfg.knn_k))
            p2 = self._run_pyramid(sub2, _named("pc2", pc2_tables))

        if cfg.first_embedding == "penultimate":
            e3 = self.cv_init(p1.coords[2], p1.feats[2],
                              p2.coords[2], p2.feats[2])
            # the same centers and neighborhoods as pc1's level 4
            _, e4 = set_conv(p1.coords[2], e3, p1.center_idx[3], p1.nbr[3],
                             self.carry)
        else:
            e4 = self.cv_init(p1.coords[3], p1.feats[3],
                              p2.coords[3], p2.feats[3])

        mask4 = None
        if self.init_mask is not None:
            mask4 = make_mask(e4, p1.feats[3], None, self.init_mask)
        q, t = pose_head(e4, mask4, self.init_fc_q, self.init_fc_t)
        levels = [LevelOutput(4, p1.coords[3].data, q, t, e4, mask4)]

        if cfg.use_warp_refinement:
            emb, mask = e4, mask4
            for level in (3, 2, 1):
                blk = self.blocks[level]
                idx = level - 1
                q, t, emb, mask = warp_refine(
                    blk, p1.coords[idx], p1.feats[idx],
                    p2.coords[idx], p2.feats[idx],
                    p1.coords[idx + 1], emb, mask, q, t, cfg.up_k,
                    use_warp=cfg.use_warp)
                levels.append(LevelOutput(level, p1.coords[idx].data,
                                          q, t, emb, mask))
        return NetOutput(levels)


def _named(name: str, tables, *args):
    """tables(*args), with a PcopsError (too few distinct points in the
    scan) raised as a NetError naming the cloud."""
    try:
        return tables(*args)
    except PcopsError as e:
        raise NetError(f"{name}: {e}") from e


# Seconds the sampler gets to exit once its stdin closes, before a kill.
_EXIT_TIMEOUT_S = 2.0


class _Sampler:
    """The sampler process (see the module docstring): a child that runs
    sample_pyramid for pickled (points, sizes, k) requests on its stdin and
    writes each reply, (True, tables) or (False, PcopsError message), to its
    stdout pipe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()  # one request in flight
        self._proc = None              # subprocess.Popen once started

    @contextmanager
    def tables(self, points: np.ndarray, sizes: list[int], k: int):
        """Send sample_pyramid(points, sizes, k) to the child and yield a
        function that returns its tables (or raises its PcopsError).  They
        come from this process instead when the child cannot start, has
        died, or is busy with another thread's request.  A request still in
        flight when the block exits kills the child."""
        if not self._lock.acquire(blocking=False):
            yield lambda: sample_pyramid(points, sizes, k)
            return
        try:
            # True until a send fails cleanly or the reply is read: an
            # interrupted write or read leaves the pipes mid-message
            pending = True
            pending = self._send((points, sizes, k))

            def result():
                nonlocal pending
                reply = self._receive() if pending else None
                pending = False
                if reply is None:
                    return sample_pyramid(points, sizes, k)
                ok, payload = reply
                if not ok:
                    raise PcopsError(payload)
                return payload

            yield result
        finally:
            if pending:
                self._stop(kill=True)
            self._lock.release()

    def _send(self, request) -> bool:
        import pickle
        if self._proc is None:
            self._start()
        if self._proc is None:
            return False
        try:
            pickle.dump(request, self._proc.stdin, pickle.HIGHEST_PROTOCOL)
            self._proc.stdin.flush()
            return True
        except OSError:  # BrokenPipeError: the child has died
            self._stop(kill=True)
            return False

    def _receive(self):
        import pickle
        try:
            return pickle.load(self._proc.stdout)
        except (EOFError, OSError, pickle.UnpicklingError):
            self._stop(kill=True)
            return None

    def _start(self) -> None:
        import subprocess
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = (f"import sys; sys.path.insert(0, {src!r}); "
                "from lidom.net import _sampler_main; _sampler_main()")
        try:
            self._proc = subprocess.Popen([sys.executable, "-c", code],
                                          stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE)
        except OSError:
            self._proc = None

    def _forget(self) -> None:
        """Drop a forked child's copy of its parent's sampler handle (an
        at-fork hook).  The child closes its copies of both pipes, so that
        the sampler sees EOF once the parent closes its own, and does not
        wait: the sampler is not the child's to reap.  poll()'s waitpid
        fails with ECHILD, which Popen takes as an exit, so the handle goes
        without a warning."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        for pipe in (proc.stdin, proc.stdout):
            with suppress(OSError):
                pipe.close()
        proc.poll()

    def _stop(self, kill: bool) -> None:
        """Close the child's pipes and reap it: kill it first if asked, or
        if it has not exited within _EXIT_TIMEOUT_S of its stdin closing."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        import subprocess
        if kill:
            proc.kill()
        with suppress(OSError):  # an interrupted write's rest cannot go
            proc.stdin.close()
        try:
            proc.wait(timeout=_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def close(self) -> None:
        self._stop(kill=False)


_SAMPLER = _Sampler()
atexit.register(_SAMPLER.close)
os.register_at_fork(after_in_child=_SAMPLER._forget)


def _sampler_main() -> None:
    """The sampler process's loop: answer requests until stdin closes."""
    import pickle
    import signal
    # Ctrl-C reaches the whole process group: the parent handles it, and
    # its exit closes stdin
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    while True:
        try:
            points, sizes, k = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = (True, sample_pyramid(points, sizes, k))
        except PcopsError as e:
            reply = (False, str(e))
        try:
            pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
            replies.flush()
        except BrokenPipeError:  # the parent has gone: exit without a flush
            os._exit(0)
