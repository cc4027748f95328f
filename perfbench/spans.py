"""Outside-in tracing of lidom: spans around public functions, tape
statistics, and bytes reachable from tapes and parameters.

Nothing here edits lidom.  `Tracer.install` replaces each traced function in
every lidom module that binds it (the modules import by name, so patching the
defining module alone would miss most calls) and wraps two methods,
`OdometryNet.forward` and `CostVolume.__call__`, on their classes.
`uninstall` restores the originals.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly (one thread), so the self times of all spans
under a root add up to the root's duration.
"""
from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (owner module, function, span name, attrs from the call's arguments)
TRACED_FUNCTIONS = [
    ("lidom.pcops", "knn_indices", "pcops.knn",
     lambda query, ref, *a, **kw: {"evals": len(query) * len(ref)}),
    ("lidom.pcops", "farthest_point_sample", "pcops.fps",
     lambda points, m, *a, **kw: {"m": m}),
    ("lidom.pcops", "set_conv", "pcops.set_conv",
     lambda coords, feats, center_idx, *a, **kw: {"m": len(center_idx)}),
    ("lidom.pcops", "set_upconv", "pcops.set_upconv", None),
    ("lidom.pcops", "random_sample", "pcops.random_sample", None),
    ("lidom.headmask", "warp_refine", "headmask.warp_refine", None),
    ("lidom.headmask", "make_mask", "headmask.make_mask", None),
    ("lidom.headmask", "pose_head", "headmask.pose_head", None),
    ("lidom.geom", "rotate_points_t", "geom.rotate_points_t", None),
    ("lidom.geom", "pose_compose_t", "geom.pose_compose_t", None),
    ("lidom.geom", "quat_normalize_t", "geom.quat_normalize_t", None),
]
TRACED_METHODS = [
    ("lidom.net", "OdometryNet", "forward", "net.forward"),
    ("lidom.costvol", "CostVolume", "__call__", "costvol.call"),
]

# Per-pair metrics whose sum is the pair's wall time (bench.pair_s): each
# traced span's self time lands in exactly one of them.
SELF_TIME_PARTITION = (
    "pcops.knn_s", "pcops.fps_s", "pcops.set_conv_self_s",
    "pcops.set_upconv_self_s", "pcops.random_sample_s", "net.self_s",
    "costvol.self_s", "headmask.self_s", "geom.s", "tensor.backward_s",
    "bench.self_s", "trace.instrument_s",
)
TAPE_KINDS = ("matmul", "gather", "add", "mul", "concat", "reshape", "relu")
BACKWARD_KINDS = ("matmul", "gather", "max", "concat", "add", "mul", "softmax")
MIB = float(1 << 20)
# Reported per pair, averaged over the traced pairs.  Those a workload never
# produces (tape metrics on eager inference) read 0.
PER_PAIR_METRICS = SELF_TIME_PARTITION + (
    "bench.pair_s", "pcops.knn_calls", "pcops.knn_dist_evals",
    "pcops.fps_picks", "net.forward_s", "net.pyramid.l1_s",
    "net.pyramid.l2_s", "net.pyramid.l3_s", "net.pyramid.l4_s", "net.init_s",
    "costvol.init_s", "costvol.refine_s", "headmask.warp_refine.l3_s",
    "headmask.warp_refine.l2_s", "headmask.warp_refine.l1_s",
    "geom.tape_nodes", "tensor.tape_nodes",
    *(f"tensor.tape_nodes.{k}" for k in TAPE_KINDS),
    "tensor.tape_mb", *(f"tensor.tape_mb.{k}" for k in TAPE_KINDS),
    "tensor.grads_mb",
    *(f"tensor.backward_s.{k}" for k in BACKWARD_KINDS),
    "tensor.backward_s.other",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "nodes")

    def __init__(self, name: str, start: float, parent: int | None,
                 attrs: dict) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs
        self.nodes = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.  Set `tape` to count the tape nodes each
    span records."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.tape = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.tape = None

    def _node_count(self) -> int:
        return len(self.tape.nodes) if self.tape is not None else 0

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, 0.0, parent, attrs)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        nodes0 = self._node_count()
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.nodes = self._node_count() - nodes0
            self._stack.pop()

    def wrap(self, fn, name: str, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        lidom_modules = [m for n, m in list(sys.modules.items())
                         if n == "lidom" or n.startswith("lidom.")]
        for owner, fname, span_name, attrs_of in TRACED_FUNCTIONS:
            original = getattr(sys.modules[owner], fname)
            wrapper = self.wrap(original, span_name, attrs_of)
            for mod in lidom_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for owner, cls_name, meth, span_name in TRACED_METHODS:
            cls = getattr(sys.modules[owner], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self.wrap(original, span_name))

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def self_nodes(spans: list[Span]) -> list[int]:
    child = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.nodes
    return [s.nodes - c for s, c in zip(spans, child)]


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span], level_sizes: list[int]) -> dict[str, float]:
    """Per-layer times and counts for the spans of one pair.

    level_sizes are the pyramid point counts n1..n4; a sampling or set_conv
    span is assigned to pyramid level i by its center count.  Spans before
    the first cost volume call are pyramid work; from that call to the end of
    the first pose head is the initial (level-4) estimate.
    """
    st = self_times(spans)
    sn = self_nodes(spans)
    m: dict[str, float] = defaultdict(float)
    first_cv = next((s.start for s in spans if s.name == "costvol.call"),
                    float("inf"))
    refine_level = iter(("l3", "l2", "l1"))
    init_head_end = None
    for i, s in enumerate(spans):
        name, dur = s.name, s.duration
        if name == "pcops.knn":
            m["pcops.knn_s"] += st[i]
            m["pcops.knn_calls"] += 1
            m["pcops.knn_dist_evals"] += s.attrs["evals"]
        elif name == "pcops.fps":
            m["pcops.fps_s"] += st[i]
            m["pcops.fps_picks"] += s.attrs["m"]
            if s.start < first_cv and s.attrs["m"] in level_sizes:
                m[f"net.pyramid.l{level_sizes.index(s.attrs['m']) + 1}_s"] += dur
        elif name == "pcops.set_conv":
            m["pcops.set_conv_self_s"] += st[i]
            if s.start < first_cv and s.attrs["m"] in level_sizes:
                m[f"net.pyramid.l{level_sizes.index(s.attrs['m']) + 1}_s"] += dur
        elif name == "pcops.set_upconv":
            m["pcops.set_upconv_self_s"] += st[i]
        elif name == "pcops.random_sample":
            m["pcops.random_sample_s"] += st[i]
        elif name == "net.forward":
            m["net.forward_s"] += dur
            m["net.self_s"] += st[i]
        elif name == "costvol.call":
            m["costvol.self_s"] += st[i]
            if _has_ancestor(spans, i, "headmask.warp_refine"):
                m["costvol.refine_s"] += dur
            else:
                m["costvol.init_s"] += dur
        elif name.startswith("headmask."):
            m["headmask.self_s"] += st[i]
            if name == "headmask.warp_refine":
                m[f"headmask.warp_refine.{next(refine_level)}_s"] += dur
            elif (name == "headmask.pose_head" and init_head_end is None
                  and not _has_ancestor(spans, i, "headmask.warp_refine")):
                init_head_end = s.end
        elif name.startswith("geom."):
            m["geom.s"] += st[i]
            m["geom.tape_nodes"] += sn[i]
        elif name == "tensor.backward":
            m["tensor.backward_s"] += st[i]
        elif name == "trace.instrument":
            m["trace.instrument_s"] += st[i]
        elif name.startswith("bench."):
            m["bench.self_s"] += st[i]
            if name == "bench.pair":
                m["bench.pair_s"] += dur
    if init_head_end is not None:
        m["net.init_s"] += init_head_end - first_cv
    return dict(m)


# --- tape statistics ---

def tape_node_counts(tape) -> dict[str, float]:
    counts: dict[str, int] = defaultdict(int)
    for node in tape.nodes:
        counts[node.kind] += 1
    out = {"tensor.tape_nodes": float(len(tape.nodes))}
    for kind in TAPE_KINDS:
        out[f"tensor.tape_nodes.{kind}"] = float(counts.get(kind, 0))
    return out


def time_backward(tape, totals: dict[str, float]) -> None:
    """Wrap every node's backward_fn so backward() adds its time per kind."""
    def timed(kind, fn):
        def run(g):
            t0 = time.perf_counter()
            try:
                return fn(g)
            finally:
                totals[kind] += time.perf_counter() - t0
        return run

    for node in tape.nodes:
        if node.backward_fn is not None:
            node.backward_fn = timed(node.kind, node.backward_fn)


def backward_by_kind(totals: dict[str, float]) -> dict[str, float]:
    out = {f"tensor.backward_s.{k}": totals.get(k, 0.0) for k in BACKWARD_KINDS}
    out["tensor.backward_s.other"] = sum(
        v for k, v in totals.items() if k not in BACKWARD_KINDS)
    return out


class Reach:
    """Counts the bytes of distinct array buffers reachable from objects.

    Buffers are counted once across all calls on one instance, so successive
    calls give the bytes newly reachable from each root.  Objects of a type
    in `stop` are not entered.  Modules, classes and function globals are
    never entered: the walk follows data, closures, containers and instance
    attributes only.
    """

    def __init__(self, skip_buffers=()) -> None:
        self._objs: set[int] = set()
        self._bufs: set[int] = {id(_owner(a)) for a in skip_buffers}

    def bytes_from(self, root, stop: tuple[type, ...] = ()) -> int:
        total = 0
        todo = [root]
        while todo:
            o = todo.pop()
            if id(o) in self._objs or isinstance(o, stop):
                continue
            self._objs.add(id(o))
            if isinstance(o, np.ndarray):
                owner = _owner(o)
                if id(owner) not in self._bufs:
                    self._bufs.add(id(owner))
                    total += owner.nbytes
            elif isinstance(o, (type, types.ModuleType, str, bytes, int, float,
                                complex, bool)) or o is None:
                continue
            elif isinstance(o, types.FunctionType):
                todo.extend(c.cell_contents for c in (o.__closure__ or ())
                            if _cell_full(c))
            elif isinstance(o, types.MethodType):
                todo.append(o.__self__)
            elif isinstance(o, (list, tuple, set, frozenset)):
                todo.extend(o)
            elif isinstance(o, dict):
                todo.extend(o.values())
            else:
                if hasattr(o, "__dict__"):
                    todo.extend(vars(o).values())
                for cls in type(o).__mro__:
                    for slot in getattr(cls, "__slots__", ()):
                        if hasattr(o, slot):
                            todo.append(getattr(o, slot))
        return total


def _owner(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _cell_full(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True


def tape_bytes(tape, reach: Reach) -> dict[str, float]:
    """Bytes held by the tape's nodes, by the kind of the first node (in
    record order) that reaches each buffer.  Other tapes are not entered."""
    tape_type = type(tape)
    by_kind: dict[str, int] = defaultdict(int)
    for node in tape.nodes:
        if node.backward_fn is not None:
            by_kind[node.kind] += reach.bytes_from(node.backward_fn,
                                                   stop=(tape_type,))
    out = {"tensor.tape_mb": sum(by_kind.values()) / MIB}
    for kind in TAPE_KINDS:
        out[f"tensor.tape_mb.{kind}"] = by_kind.get(kind, 0) / MIB
    return out
