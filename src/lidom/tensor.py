"""Reverse-mode automatic differentiation on dense float64 arrays.

A Tape records every op applied while it is active; backward() replays the
record in reverse and accumulates gradients into the leaves.  Ops called with
no active tape run eagerly and return constant tensors, so inference runs the
same code as training and records nothing.

A tape holds only what its backward reads (op closures keep arrays and
shapes, never a Tensor; backward keeps leaf gradients only) and parameters
never point at it, so reference counting frees it once its caller lets go.

The op set is exactly what the odometry network needs: broadcasting
elementwise arithmetic, relu/sqrt, matmul of a rank 2 or 3 array by a rank-2
matrix, axis softmax, sum and per-axis max reductions, reshape, and row
gathers with scatter-add gradients.  Everything is double precision end
to end.
"""
from __future__ import annotations

import math
import re
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor", "Tape", "Parameter", "ParamStore", "TensorError",
    "const", "add", "sub", "mul", "div", "relu", "sqrt",
    "matmul", "softmax_axis", "reduce_sum", "reduce_max", "reshape",
    "gather_rows", "save_params", "load_params",
]


class TensorError(ValueError):
    """Raised on shape mismatches, bad indices, or tape misuse."""


class Tensor:
    """A dense float64 array, optionally bound to a node on a tape."""

    __slots__ = ("data", "tape", "nid", "param_name")

    def __init__(self, data) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.tape: Tape | None = None
        self.nid: int | None = None
        self.param_name: str | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, taped={self.tape is not None})"


def const(data) -> Tensor:
    return Tensor(data)


class _Node:
    __slots__ = ("kind", "parents", "backward_fn", "shape")

    def __init__(self, kind: str, parents: tuple[int, ...],
                 backward_fn: Callable | None, shape: tuple[int, ...]) -> None:
        self.kind = kind
        self.parents = parents
        self.backward_fn = backward_fn
        self.shape = shape


_ACTIVE: list["Tape"] = []


class Tape:
    """Ordered op record.  Single writer; enter to record, backward() later.

    Leaving the context stops recording but keeps the node structure, so
    backward() and grad() work after exit.  Parameter leaves are keyed by
    name on the tape; other tensors are tagged with their tape and node id.
    backward() drops each interior gradient once it has propagated it.
    """

    def __init__(self) -> None:
        self.nodes: list[_Node] = []
        self._grads: list[np.ndarray | None] | None = None
        self._param_leaves: dict[str, tuple[Tensor, int]] = {}
        self.live = False

    def __enter__(self) -> "Tape":
        if self.nodes:
            raise TensorError("tape already used; tapes are single-shot")
        self.live = True
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> None:
        self.live = False
        _ACTIVE.pop()

    def _nid(self, t: Tensor) -> int | None:
        """t's node on this tape, or None if the tape has not seen it."""
        if t.param_name is None:
            return t.nid if t.tape is self else None
        leaf = self._param_leaves.get(t.param_name)
        if leaf is not None and leaf[0] is not t:
            raise TensorError(
                f"two parameters named {t.param_name!r} on one tape")
        return None if leaf is None else leaf[1]

    def _ensure_node(self, t: Tensor) -> int:
        nid = self._nid(t)
        if nid is not None:
            return nid
        if t.tape is not None and t.tape.live:
            raise TensorError("tensor belongs to another live tape")
        nid = len(self.nodes)
        self.nodes.append(_Node("leaf", (), None, t.data.shape))
        if t.param_name is None:
            t.tape = self
            t.nid = nid
        else:
            self._param_leaves[t.param_name] = (t, nid)
        return nid

    def _record(self, kind: str, inputs: Sequence[Tensor], out: Tensor,
                backward_fn: Callable) -> None:
        pids = tuple(self._ensure_node(t) for t in inputs)
        out.tape = self
        out.nid = len(self.nodes)
        self.nodes.append(_Node(kind, pids, backward_fn, out.data.shape))

    def backward(self, root: Tensor,
                 store: "ParamStore | None" = None) -> dict[str, np.ndarray]:
        """Accumulate d(root)/d(leaf) for every leaf; return parameter grads.

        root must be scalar.  The returned map covers every trainable
        parameter in `store` (zeros for parameters the graph never touched);
        without a store it covers just the parameters the tape saw.
        """
        rid = self._nid(root)
        if rid is None:
            raise TensorError("backward root is not on this tape")
        if root.data.size != 1:
            raise TensorError(
                f"backward root must be scalar, got shape {root.data.shape}")
        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        grads[rid] = np.ones(self.nodes[rid].shape, dtype=np.float64)
        for nid in range(rid, -1, -1):
            node = self.nodes[nid]
            g = grads[nid]
            if g is None or node.backward_fn is None:
                continue
            grads[nid] = None   # interior: spent once propagated
            parent_grads = node.backward_fn(g)
            for pid, pg in zip(node.parents, parent_grads):
                if pg is None:
                    continue
                if grads[pid] is None:
                    grads[pid] = pg
                else:
                    grads[pid] = grads[pid] + pg
        self._grads = grads
        out: dict[str, np.ndarray] = {}
        for name, (_, nid) in self._param_leaves.items():
            if grads[nid] is None:
                grads[nid] = np.zeros(self.nodes[nid].shape)
            out[name] = grads[nid]
        if store is not None:
            for p in store:
                if p.trainable and p.name not in out:
                    out[p.name] = np.zeros_like(p.value)
        return out

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient of the last backward() root with respect to leaf t."""
        if self._grads is None:
            raise TensorError("backward has not run on this tape")
        nid = self._nid(t)
        if nid is None:
            raise TensorError("tensor is not on this tape")
        if self.nodes[nid].kind != "leaf":
            raise TensorError("backward keeps leaf gradients only; "
                              "this tensor is an interior node")
        g = self._grads[nid]
        return g if g is not None else np.zeros(t.data.shape)


def _current_tape(inputs: Sequence[Tensor]) -> Tape | None:
    tape = _ACTIVE[-1] if _ACTIVE else None
    for t in inputs:
        if t.tape is not None and t.tape.live and t.tape is not tape:
            raise TensorError("op mixes tensors from two different live tapes")
    return tape


def _make(kind: str, inputs: Sequence[Tensor], out_data: np.ndarray,
          backward_fn: Callable) -> Tensor:
    out = Tensor(out_data)
    tape = _current_tape(inputs)
    if tape is not None:
        tape._record(kind, inputs, out, backward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise TensorError(
            f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None


# --- elementwise ---

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    out = a.data + b.data
    sa, sb = a.data.shape, b.data.shape
    return _make("add", (a, b), out, lambda g: (
        _unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    out = a.data - b.data
    sa, sb = a.data.shape, b.data.shape
    return _make("sub", (a, b), out, lambda g: (
        _unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    ad, bd = a.data, b.data
    out = ad * bd
    return _make("mul", (a, b), out, lambda g: (
        _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("div", a, b)
    ad, bd = a.data, b.data
    out = ad / bd
    return _make("div", (a, b), out, lambda g: (
        _unbroadcast(g / bd, ad.shape),
        _unbroadcast(-g * ad / (bd * bd), bd.shape)))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return _make("relu", (a,), a.data * mask, lambda g: (g * mask,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    # subgradient 0 at exactly 0, so norms of zero vectors stay finite
    def back(g):
        denom = np.where(out > 0.0, out, 1.0)
        return (np.where(out > 0.0, 0.5 * g / denom, 0.0),)
    return _make("sqrt", (a,), out, back)


# --- matmul ---

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., k) @ (k, n) for a of rank 2 or 3 and a rank-2 b (a weight or a
    constant map), so b's gradient is one GEMM over a's flattened rows."""
    ad, bd = a.data, b.data
    if ad.ndim not in (2, 3) or bd.ndim != 2:
        raise TensorError(f"matmul: needs ranks 2 or 3 by 2, "
                          f"got {ad.shape} and {bd.shape}")
    k, n = bd.shape
    if ad.shape[-1] != k:
        raise TensorError(
            f"matmul: inner dimensions differ, {ad.shape} vs {bd.shape}")
    out = np.matmul(ad, bd)

    def back(g):
        return (np.matmul(g, bd.T), ad.reshape(-1, k).T @ g.reshape(-1, n))

    return _make("matmul", (a, b), out, back)


# --- softmax / reductions ---

def softmax_axis(a: Tensor, axis: int) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _make("softmax", (a,), out, back)


def reduce_sum(a: Tensor, axis: int | None = None,
               keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def back(g):
        ge = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(ge, shape).copy(),)

    return _make("sum", (a,), out, back)


def reduce_max(a: Tensor, axis: int) -> Tensor:
    """Max over one axis; gradient flows to the first (lowest-index) argmax."""
    out = a.data.max(axis=axis)
    arg = np.expand_dims(a.data.argmax(axis=axis), axis)  # first index on ties
    shape = a.data.shape

    def back(g):
        ga = np.zeros(shape)
        np.put_along_axis(ga, arg, np.expand_dims(g, axis), axis)
        return (ga,)

    return _make("max", (a,), out, back)


# --- shape ops ---

def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise TensorError(
            f"reshape: cannot reshape {a.data.shape} to {shape}") from None
    in_shape = a.data.shape
    return _make("reshape", (a,), out, lambda g: (g.reshape(in_shape),))


def gather_rows(a: Tensor, indices) -> Tensor:
    """out[i, ...] = a[indices[i, ...]] for an index array of any shape, so
    the output has shape indices.shape + a.shape[1:] ((n, k) neighbour
    tables gather straight to (n, k, c) groups).  The gradient scatter-adds
    rows picked more than once."""
    idx = np.asarray(indices, dtype=np.int64)
    n = a.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise TensorError(
            f"gather_rows: index out of range for first dimension {n}")
    out = a.data[idx]
    shape = a.data.shape

    def back(g):
        # flat index and rows keep np.add.at on its fast 1-D path
        ga = np.zeros(shape)
        np.add.at(ga, idx.reshape(-1), g.reshape((idx.size,) + ga.shape[1:]))
        return (ga,)

    return _make("gather", (a,), out, back)


# --- parameters and serialization ---

_NAME_RE = re.compile(r"^[A-Za-z0-9_./-]+$")


class Parameter:
    """Named trainable array.  tensor() hands out one shared Tensor object so
    every forward pass records the same leaf identity."""

    def __init__(self, name: str, value, trainable: bool = True) -> None:
        if not _NAME_RE.match(name):
            raise TensorError(f"bad parameter name {name!r}")
        self.name = name
        self.trainable = trainable
        self._t = Tensor(np.array(value, dtype=np.float64))
        self._t.param_name = name

    @property
    def value(self) -> np.ndarray:
        return self._t.data

    @value.setter
    def value(self, v) -> None:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != self._t.data.shape:
            raise TensorError(
                f"parameter {self.name}: shape {v.shape} != {self._t.data.shape}")
        self._t.data = v

    def tensor(self) -> Tensor:
        return self._t

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.value.shape})"


class ParamStore:
    """Insertion-ordered registry of parameters, keyed by unique name."""

    def __init__(self) -> None:
        self._params: dict[str, Parameter] = {}

    def create(self, name: str, value, trainable: bool = True) -> Parameter:
        if name in self._params:
            raise TensorError(f"duplicate parameter name {name!r}")
        p = Parameter(name, value, trainable)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)


_CKPT_MAGIC = b"tensorstate 1"


def save_params(store: ParamStore) -> bytes:
    """Serialize: text header, then per parameter a text line plus raw
    little-endian float64 bytes.  Byte-exact round trip with load_params."""
    out = bytearray()
    out += _CKPT_MAGIC + b"\n"
    out += f"count {len(store)}\n".encode()
    for p in store:
        dims = " ".join(str(d) for d in p.value.shape)
        head = f"param {p.name} {int(p.trainable)} {p.value.ndim}"
        out += (head + (" " + dims if dims else "") + "\n").encode()
        out += np.ascontiguousarray(p.value, dtype="<f8").tobytes()
        out += b"\n"
    return bytes(out)


_COUNT_RE = re.compile(rb"count (\d+)")
_PARAM_RE = re.compile(rb"param ([!-~]+) ([01]) (\d+)((?: \d+)*)")


def _read_line(buf: bytes, pos: int) -> tuple[bytes, int]:
    end = buf.find(b"\n", pos)
    if end < 0:
        raise TensorError("truncated checkpoint: a line has no end")
    return buf[pos:end], end + 1


def load_params(blob: bytes) -> ParamStore:
    """Parse save_params output; a malformed blob raises TensorError."""
    line, pos = _read_line(blob, 0)
    if line != _CKPT_MAGIC:
        raise TensorError(f"bad checkpoint header {line!r}")
    line, pos = _read_line(blob, pos)
    count = _COUNT_RE.fullmatch(line)
    if count is None:
        raise TensorError(f"bad parameter count line {line!r}")
    store = ParamStore()
    for _ in range(int(count[1])):
        line, pos = _read_line(blob, pos)
        head = _PARAM_RE.fullmatch(line)
        if head is None:
            raise TensorError(f"expected param line, got {line!r}")
        name, ndim = head[1].decode(), int(head[3])
        shape = tuple(int(d) for d in head[4].split())
        if len(shape) != ndim:
            raise TensorError(f"parameter {name}: {len(shape)} dims given, "
                              f"{ndim} declared")
        nbytes = 8 * math.prod(shape)
        raw = blob[pos:pos + nbytes]
        if len(raw) != nbytes:
            raise TensorError(f"parameter {name}: truncated data")
        pos += nbytes
        if blob[pos:pos + 1] != b"\n":
            raise TensorError(f"parameter {name}: missing terminator")
        pos += 1
        value = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        store.create(name, value, bool(int(head[2])))
    if pos != len(blob):
        raise TensorError(f"{len(blob) - pos} trailing bytes after the last "
                          f"parameter")
    return store
