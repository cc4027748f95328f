"""Reverse-mode automatic differentiation on dense float64 arrays.

A Tape records only what a parameter reaches: an op applied while it is
active gets a node if an input is a Parameter or an output the tape
recorded.  Parameters are the only leaves and constants get no node, so
backward() replays the record in reverse and returns the parameters'
gradients; the tape has no grad().  Ops called with no active tape run
eagerly and return constant tensors, so inference runs the same code as
training and records nothing.  Eager ops also compute only their
output: state that only backward reads (mlp's relu mask, a pooled mlp's
argmax) is built while a tape records and never otherwise.  A tape records
only its own thread's ops: the recording tape is per thread, and entering
a tape while another records on the same thread raises TensorError.

A tape holds only what its backward reads (op closures keep arrays and
shapes, never a Tensor; it keeps no gradient) and parameters never point
at it, so reference counting frees it once its caller lets go.  An op
notes when it records which of its inputs a parameter reaches, and its
backward computes (and its closure keeps what it needs for) only those
inputs' gradients, giving None for a constant.
mlp and attend are the two ops that recompute in backward: they keep their
input parts only and rebuild the per-edge arrays from them (mlp its hidden
layers, attend also both stacks' outputs and the softmax weights), which
are the bulk of a training tape.  Both run per-edge layers over blocks of
output rows sized to stay in cache, forward and recompute alike, after
projecting each per-point part once; every op in such a block is
row-local (a matmul per row), so the blocks give the bits of one pass over
all rows.  A per-row stack's layer is one 2-D matmul, whose BLAS
summation order depends on the row count, so it runs in one pass.

The blocks of one op, and attend's two stack backwards, run on this
thread and the helper thread of lidom.workers, which says how.  Each item
writes only its own outputs, by the code one thread would run, and touches
no tape, and the op records its node on its caller's thread afterwards, so
every output and gradient keeps the bits of one thread.

The op set is exactly what the odometry network needs: broadcasting
elementwise arithmetic, sqrt, matmul of two rank-2 arrays, mlp (a stack of
layers relu?(concat(parts) @ w + b) as one op: a shared MLP, or one layer
of an FC stack; pooled, a set abstraction, the max of a shared MLP over each
neighbourhood), attend (a neighbourhood's softmax-weighted sum of one mlp
stack's outputs, weights from another, as one op: an attentive cost-volume
stage), axis softmax, sum reductions, reshape, and row gathers with
scatter-add gradients.
Everything is double precision end to end.
"""
from __future__ import annotations

import math
import re
import threading
from typing import Callable, Sequence

import numpy as np

from . import workers as W

__all__ = [
    "Tensor", "Tape", "Parameter", "ParamStore", "TensorError",
    "const", "add", "sub", "mul", "div", "sqrt",
    "matmul", "mlp", "attend", "softmax_axis", "reduce_sum",
    "reshape", "gather_rows", "save_params", "load_params",
]


class TensorError(ValueError):
    """Raised on shape mismatches, bad indices, or tape misuse."""


class Tensor:
    """A dense float64 array, optionally bound to a node on a tape."""

    __slots__ = ("data", "tape", "nid")

    def __init__(self, data) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.tape: Tape | None = None
        self.nid: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        """The value of a one-element tensor, whatever its shape."""
        if self.data.size != 1:
            raise TensorError(f"item: needs one element, got shape "
                              f"{self.data.shape}")
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, taped={self.tape is not None})"


def const(data) -> Tensor:
    return Tensor(data)


class _Node:
    __slots__ = ("kind", "parents", "backward_fn", "shape")

    def __init__(self, kind: str, parents: tuple[int | None, ...],
                 backward_fn: Callable | None, shape: tuple[int, ...]) -> None:
        self.kind = kind
        self.parents = parents
        self.backward_fn = backward_fn
        self.shape = shape


class _Recording(threading.local):
    tape: Tape | None = None   # the tape recording on this thread, if any


_ACTIVE = _Recording()


class Tape:
    """Ordered record of the ops a parameter reaches on one thread.  Enter
    to record, backward() later; entering one while another tape records on
    the same thread raises TensorError.

    Leaving the context stops recording but keeps the node structure, so
    backward() works after exit.  Parameters are the leaves, keyed by name on
    the tape and never tagged; each recorded output is tagged with its tape
    and node id.  There is no grad(): backward() returns the parameters'
    gradients and drops each interior one once it has propagated it.
    """

    def __init__(self) -> None:
        self.nodes: list[_Node] = []
        self._param_leaves: dict[str, tuple[Parameter, int]] = {}

    def __enter__(self) -> "Tape":
        if _ACTIVE.tape is not None:
            raise TensorError("another tape is recording on this thread; "
                              "tapes do not nest")
        if self.nodes:
            raise TensorError("tape already used; tapes are single-shot")
        _ACTIVE.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.tape = None

    def _reaches(self, t: Tensor) -> bool:
        """Whether a parameter reaches t: t is a Parameter or an output this
        tape recorded.  Any other input is a constant."""
        return isinstance(t, Parameter) or t.tape is self

    def _nid(self, t: Tensor) -> int | None:
        """t's node on this tape, a parameter's made on first sight; None
        for a constant."""
        if not self._reaches(t):
            return None
        if t.tape is self:
            return t.nid
        leaf = self._param_leaves.get(t.name)
        if leaf is None:
            leaf = self._param_leaves[t.name] = (t, len(self.nodes))
            self.nodes.append(_Node("leaf", (), None, t.data.shape))
        elif leaf[0] is not t:
            raise TensorError(f"two parameters named {t.name!r} on one tape")
        return leaf[1]

    def _record(self, kind: str, inputs: Sequence[Tensor], out: Tensor,
                backward_fn: Callable) -> None:
        """Record out unless every input is a constant."""
        pids = tuple(self._nid(t) for t in inputs)
        if any(pid is not None for pid in pids):
            out.tape = self
            out.nid = len(self.nodes)
            self.nodes.append(_Node(kind, pids, backward_fn, out.data.shape))

    def backward(self, root: Tensor,
                 store: "ParamStore | None" = None) -> dict[str, np.ndarray]:
        """Return d(root)/d(parameter) for every parameter on the tape.

        root must be scalar and reached by a parameter (an output this tape
        recorded).  Constant parents get no gradient.  The returned map
        covers every trainable parameter in `store` (zeros for parameters
        the graph never touched); without a store it covers just the
        parameters the tape saw.

        Nodes run from the last to the first, and each adds its parent
        gradients in parent order.  A node that lists one tensor twice, with
        gradients g1 then g2, leaves it (X + g1) + g2, where X is what later
        nodes gave it: attend lists its parts twice to add u's and v's
        gradients as two separate nodes would.
        """
        if root.tape is not self:
            raise TensorError("backward root is not on this tape: no "
                              "parameter reaches it")
        if root.data.size != 1:
            raise TensorError(
                f"backward root must be scalar, got shape {root.data.shape}")
        rid = root.nid
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
                if pid is None or pg is None:
                    continue
                if grads[pid] is None:
                    grads[pid] = pg
                else:
                    grads[pid] = grads[pid] + pg
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


def _make(kind: str, inputs: Sequence[Tensor], out_data: np.ndarray,
          backward_fn: Callable) -> Tensor:
    out = Tensor(out_data)
    if _ACTIVE.tape is not None:
        _ACTIVE.tape._record(kind, inputs, out, backward_fn)
    return out


def _reached(t: Tensor) -> bool:
    """Whether a parameter reaches t on the recording tape, so that an op's
    backward needs t's gradient."""
    return _ACTIVE.tape is not None and _ACTIVE.tape._reaches(t)


def _binary(kind: str, a: Tensor, b: Tensor, out: np.ndarray,
            ga: Callable, gb: Callable) -> Tensor:
    """Record a two-input op whose input gradients are ga(g) and gb(g); its
    backward keeps and runs only those of inputs a parameter reaches, and
    gives None for the other."""
    ga = ga if _reached(a) else None
    gb = gb if _reached(b) else None
    return _make(kind, (a, b), out, lambda g: (
        None if ga is None else ga(g), None if gb is None else gb(g)))


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


def _indices(op: str, indices) -> np.ndarray:
    """indices as an int64 array; TensorError unless their dtype is integer
    (an empty list, whose numpy dtype is float, holds no index)."""
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "iu":
        raise TensorError(f"{op}: indices must be integers, got {idx.dtype}")
    return idx.astype(np.int64, copy=False)


def _check_rows(op: str, idx: np.ndarray, n: int) -> None:
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise TensorError(f"{op}: index out of range for first dimension {n}")


def _scatter_rows(idx: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """Scatter-add: row idx[i] of the (n, ...) result sums every row i of g
    (g has shape idx.shape + row shape).  np.bincount over the flat
    row * width + channel indices adds in index order, as np.add.at does, so
    the sums carry the same bits, and it runs about 3x faster."""
    row = g.shape[idx.ndim:]
    width = math.prod(row)
    flat = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    return np.bincount(flat, weights=g.reshape(-1),
                       minlength=n * width).reshape((n,) + row)


# --- elementwise ---

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    sa, sb = a.data.shape, b.data.shape
    return _binary("add", a, b, a.data + b.data,
                   lambda g: _unbroadcast(g, sa),
                   lambda g: _unbroadcast(g, sb))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    sa, sb = a.data.shape, b.data.shape
    return _binary("sub", a, b, a.data - b.data,
                   lambda g: _unbroadcast(g, sa),
                   lambda g: _unbroadcast(-g, sb))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    ad, bd = a.data, b.data
    sa, sb = ad.shape, bd.shape
    return _binary("mul", a, b, ad * bd,
                   lambda g: _unbroadcast(g * bd, sa),
                   lambda g: _unbroadcast(g * ad, sb))


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("div", a, b)
    ad, bd = a.data, b.data
    sa, sb = ad.shape, bd.shape
    return _binary("div", a, b, ad / bd,
                   lambda g: _unbroadcast(g / bd, sa),
                   lambda g: _unbroadcast(-g * ad / (bd * bd), sb))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    # subgradient 0 at exactly 0, so norms of zero vectors stay finite
    def back(g):
        denom = np.where(out > 0.0, out, 1.0)
        return (np.where(out > 0.0, 0.5 * g / denom, 0.0),)
    return _make("sqrt", (a,), out, back)


# --- matmul ---

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(m, k) @ (k, n) of two rank-2 arrays: geom's pose algebra."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise TensorError(f"matmul: needs two rank-2 arrays, "
                          f"got {ad.shape} and {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise TensorError(
            f"matmul: inner dimensions differ, {ad.shape} vs {bd.shape}")
    return _binary("matmul", a, b, ad @ bd, lambda g: g @ bd.T,
                   lambda g: ad.T @ g)


def _project(pd: np.ndarray, wj: np.ndarray, out=None) -> np.ndarray:
    """pd @ wj, into out if given.  A width-1 part's product is an outer
    product: the broadcast multiply gives matmul's bits at a fraction of its
    cost."""
    if wj.shape[0] == 1:
        return np.multiply(pd, wj, out=out)
    return np.matmul(pd, wj, out=out)


def _layer_plan(op: str, wd: np.ndarray, bd: np.ndarray,
                part_shapes: list[tuple[int, ...]], nbr) -> tuple:
    """Check one layer's weight, bias, part shapes and table, naming op in
    any error; return (bounds, gathered, proj_shapes, out_shape, bias_at,
    nbr), all that its forward and backward need besides the arrays."""
    widths = [s[-1] for s in part_shapes]
    if wd.ndim != 2 or sum(widths) != wd.shape[0] or bd.shape != wd.shape[1:]:
        raise TensorError(f"{op}: parts of widths {widths} and bias "
                          f"{bd.shape} do not fit weight {wd.shape}")
    if any(len(s) not in (2, 3) for s in part_shapes):
        raise TensorError(f"{op}: parts must have rank 2 or 3")
    c = wd.shape[1]
    gathered = [nbr is not None and len(s) == 2 for s in part_shapes]
    shapes = [nbr.shape + (c,) if gat else s[:-1] + (c,)
              for s, gat in zip(part_shapes, gathered)]
    try:
        shape = np.broadcast_shapes(*shapes)
    except ValueError:
        raise TensorError(f"{op}: part rows {[s[:-1] for s in shapes]} "
                          f"do not broadcast") from None
    for s, gat in zip(part_shapes, gathered):
        if gat:
            _check_rows(op, nbr, s[0])
    bias_at = next((j for j, s in enumerate(part_shapes) if len(s) == 2),
                   None)
    return np.cumsum([0] + widths), gathered, shapes, shape, bias_at, nbr


def _layer_forward(wd: np.ndarray, bd: np.ndarray, srcs: list[np.ndarray],
                   plan: tuple, relu: bool, idx, out: np.ndarray
                   ) -> np.ndarray:
    """relu?(concat(parts) @ wd + bd) over one block of output rows, without
    the concat, into out; see mlp.  srcs are the block's rows of the parts,
    but a gathered part is its whole per-point projection (_sources), which
    idx, the block's rows of the table, picks from."""
    bounds, gathered, shapes, shape, bias_at, _ = plan
    for j, src in enumerate(srcs):
        if gathered[j]:
            proj = np.take(src, idx, axis=0)
        else:
            whole = j == 0 and shapes[j] == shape
            proj = _project(src, wd[bounds[j]:bounds[j + 1]],
                            out if whole else None)
            if j == bias_at:
                proj += bd
        if j == 0:
            if proj is not out:
                out[...] = proj
        else:
            out += proj
    if bias_at is None:
        out += bd
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def _layer_backward(g: np.ndarray, wd: np.ndarray, datas: list[np.ndarray],
                    plan: tuple, need: Sequence[bool]) -> tuple:
    """(weight grad, bias grad, part grads) of one layer, from the gradient
    g of its output with any relu mask already applied.  A part's gradient
    is None unless need says a parameter reaches it.  Each part unbroadcasts
    g to its rows (scatter-adding a gathered part's) and writes its own rows
    of the weight gradient."""
    bounds, gathered, shapes, _, bias_at, nbr = plan
    c = wd.shape[1]
    gw = np.empty(wd.shape)
    gb = _unbroadcast(g, (c,)) if bias_at is None else None
    gparts = [None] * len(datas)
    for j, pd in enumerate(datas):
        lo, hi = bounds[j], bounds[j + 1]
        gj = _unbroadcast(g, shapes[j])
        if gathered[j]:
            gj = _scatter_rows(nbr, gj, pd.shape[0])
        if j == bias_at:
            gb = _unbroadcast(gj, (c,))
        gw[lo:hi] = pd.reshape(-1, hi - lo).T @ gj.reshape(-1, c)
        if need[j]:
            gparts[j] = np.matmul(gj, wd[lo:hi].T)
    return gw, gb, gparts


def _stack(op: str, layers, shapes: list, nbr) -> tuple[list, list, list]:
    """(weights, biases, plans) of a non-empty stack of (weight, bias)
    layers: the first layer's plan over parts of these shapes with the table
    nbr, each later one's over the output before it."""
    if not layers:
        raise TensorError(f"{op}: needs at least one layer")
    ws, bs = [w.data for w, _ in layers], [b.data for _, b in layers]
    plans = []
    for wd, bd in zip(ws, bs):
        plans.append(_layer_plan(op, wd, bd, shapes, nbr))
        shapes, nbr = [plans[-1][3]], None
    return ws, bs, plans


def _blocks(*stacks) -> list[slice]:
    """The stacks' common output rows in blocks of at most W.BLOCK_ELEMS
    elements of their widest layer output, the last block ragged.

    A per-row stack, of (n, c) outputs, is one block: each of its layers is
    one 2-D matmul over the block's rows, and BLAS picks its kernel, and
    with it the summation order, by the row count (one row is a
    matrix-vector product).  A per-edge layer is a matmul per row of the
    block, which no block size changes."""
    plans = [plan for stack in stacks for plan in stack[2]]
    n = plans[0][3][0]
    if len(plans[0][3]) == 2:
        return [slice(0, n)]
    step = max(1, W.BLOCK_ELEMS // max(math.prod(p[3][1:]) for p in plans))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _sources(stack: tuple, datas: list) -> list:
    """The first layer's parts as _layer_forward reads them: a gathered part
    projected once per reference point, with the bias if the plan adds it
    there, every other part as it is."""
    ws, bs, plans = stack
    bounds, gathered, _, _, bias_at, _ = plans[0]
    srcs = list(datas)
    for j, gat in enumerate(gathered):
        if gat:
            srcs[j] = _project(datas[j], ws[0][bounds[j]:bounds[j + 1]])
            if j == bias_at:
                srcs[j] += bs[0]
    return srcs


def _forward(stack: tuple, srcs: list, rows: slice, relu_last: bool,
             outs: list) -> np.ndarray:
    """Run the stack's first len(outs) layers over the output rows `rows`:
    the first reads their rows of srcs (_sources), each later one the output
    before it, and layer i writes into outs[i], or a fresh block array if
    that is None.  Returns the last output."""
    ws, bs, plans = stack
    gathered, nbr = plans[0][1], plans[0][5]
    # a part of one row broadcasts over every block
    x = [s if gat or s.shape[0] == 1 else s[rows]
         for s, gat in zip(srcs, gathered)]
    idx = None if nbr is None else nbr[rows]
    for i, out in enumerate(outs):
        if out is None:
            out = np.empty((rows.stop - rows.start,) + plans[i][3][1:])
        relu = i < len(ws) - 1 or relu_last
        x = [_layer_forward(ws[i], bs[i], x, plans[i], relu, idx, out)]
    return x[0]


def _hidden(stack: tuple, datas: list) -> list[list]:
    """Every layer's inputs: the parts, then each hidden layer's output
    (relu on), from which the last layer runs.  The hidden layers run over
    every row, block by block on two threads (W.each), each block into its
    rows of full-size arrays."""
    hidden = [np.empty(p[3]) for p in stack[2][:-1]]
    if hidden:
        srcs = _sources(stack, datas)
        W.each(lambda rows: _forward(stack, srcs, rows, True,
                                     [h[rows] for h in hidden]),
               _blocks(stack))
    return [datas, *([h] for h in hidden)]


def _stack_backward(g: np.ndarray, stack: tuple, ins: list,
                    need: Sequence[bool]) -> tuple[list, list]:
    """Backpropagate through a stack from the gradient g of its output, the
    last layer's relu mask (if any) already applied; ins is _hidden's list,
    dropped as it is spent, and need says which of the stack's inputs (w0,
    b0, w1, b1, ..., then the parts) a parameter reaches.  Returns ([w0, b0,
    w1, b1, ...] grads, part grads), None where need is False.

    It runs on one thread: mlp's on the caller's, attend's two as the two
    items of one W.each call.  A hidden layer computes its weight and bias
    gradients from its input h first; then its input gradient, masked by
    h's relu, which is read first, takes h's buffer."""
    ws, _, plans = stack
    depth = len(ws)
    grads = [None] * (2 * depth)
    for i in range(depth - 1, 0, -1):
        grads[2 * i], grads[2 * i + 1], _ = _layer_backward(
            g, ws[i], ins[i], plans[i], (False,))
        (h,), ins[i] = ins[i], None
        live = h > 0.0
        g = np.matmul(g, ws[i].T, out=h)
        g *= live
    grads[0], grads[1], gparts = _layer_backward(g, ws[0], ins[0], plans[0],
                                                 need[2 * depth:])
    return [gr if n else None for gr, n in zip(grads, need)], gparts


def _stack_item(item: list) -> None:
    """A W.each item [g, stack, ins, need] of attend's backward, replaced by
    [_stack_backward's result].  g leaves the list as the call takes it, so
    that the stack's backward frees it once it is spent."""
    stack, ins, need = item[1:]
    item[:] = [_stack_backward(item.pop(0), stack, ins, need)]


def mlp(layers: Sequence[tuple[Tensor, Tensor]], *parts: Tensor, nbr=None,
        relu_last: bool = True, pool: bool = False) -> Tensor:
    """The (weight, bias) layers one after another as one op: the first is
    relu(concat(parts) @ w + b) over parts, without the concat, each later
    one the same over the output before it, with relu on every hidden layer
    and on the last if relu_last.  A shared MLP is one mlp, and so is each
    layer of an FC stack, with relu_last off.  With pool it is a set
    abstraction: the (n, c) max over the neighbours of its (n, k, c)
    output, for the (n, k) table nbr.

    Each part multiplies its own row block of the first weight (a view; a
    width-1 part is a broadcast multiply).  Without nbr every part is per
    row, (n, width).  With the (n, k) table nbr the rows are edges: a rank-3
    part is per edge (n, k, width) or per centre (n, 1, width) and
    broadcasts over the neighbourhood; a rank-2 part is per reference point
    (n_ref, width), projected once per point, before any block, and then
    gathered by nbr.  The bias is added once, to the first rank-2 part's
    projection (per point, before any gather) if there is one, else to the
    sum.  Each layer equals the layer on the concat up to summation order.

    A per-edge stack runs in blocks of output rows (centres), each sized so
    that one per-edge array of it is about 512 KiB (W.BLOCK_ELEMS): a block
    runs every layer while its arrays stay in cache, and writes its rows of
    the output, on this thread or the helper (W.each).  Every op in such a
    block is row-local (a matmul per centre), so the blocks give the bits of
    one pass over all rows.  A per-row stack runs as one block (see
    _blocks).  Within a block the parts accumulate in place into the first
    projection and the relu, max(x, 0.0), runs in place.  A pooled block
    max-reduces its temporaries into its rows of the output, so no
    per-edge output is built.

    A taped mlp keeps only its parts' arrays and, with relu_last, one bool
    mask of its output; pooled, that mask is (n, c), and the blocks also
    write an (n, c) first-index argmax (uint8 for k <= 256) for it to keep.
    Its backward recomputes the hidden layers from the parts by the same
    block code into full-size arrays, so they carry the bits the forward
    computed and then dropped (the per-edge hidden outputs are the bulk of
    a training tape and cost one forward to rebuild), and then
    backpropagates layer by layer on this thread; pooled, from the masked
    gradient at each argmax and +0.0 elsewhere, which gives the bits of a
    max node after the unpooled mlp.  It computes the gradients of the
    inputs a parameter reaches only.
    """
    if nbr is not None:
        nbr = _indices("mlp", nbr)
    datas = [p.data for p in parts]
    stack = _stack("mlp", layers, [d.shape for d in datas], nbr)
    edge_shape = stack[2][-1][3]
    taped, arg = _ACTIVE.tape is not None, None
    if pool:
        if nbr is None or nbr.ndim != 2 or edge_shape[:-1] != nbr.shape:
            raise TensorError(f"mlp: pool needs an (n, k) table and a "
                              f"per-edge output, got {edge_shape}")
        n, k, c = edge_shape
        out = np.empty((n, c))
        if taped:
            arg = np.empty((n, c), np.min_scalar_type(k - 1))
    else:
        out = np.empty(edge_shape)
    srcs = _sources(stack, datas)

    def block(rows):
        # the last layer writes into its rows of out, or pooled into a block
        # temporary that max-reduces into them
        hidden = [None] * (len(layers) - 1)
        last = _forward(stack, srcs, rows, relu_last,
                        hidden + [None if pool else out[rows]])
        if pool:
            last.max(axis=1, out=out[rows])
            if arg is not None:
                arg[rows] = np.argmax(last, axis=1)

    W.each(block, _blocks(stack))
    if not taped:
        return Tensor(out)
    mask = out > 0.0 if relu_last else None
    inputs = (*(t for layer in layers for t in layer), *parts)
    need = tuple(_reached(t) for t in inputs)

    def back(g):
        if mask is not None:
            g = g * mask
        if pool:
            gl = np.zeros(edge_shape)
            np.put_along_axis(gl, arg[:, None, :], g[:, None, :], 1)
            g = gl
        grads, gparts = _stack_backward(g, stack, _hidden(stack, datas), need)
        return (*grads, *gparts)

    return _make("mlp", inputs, out, back)


def attend(u_layers: Sequence[tuple[Tensor, Tensor]],
           v_layers: Sequence[tuple[Tensor, Tensor]], *parts: Tensor,
           nbr) -> Tensor:
    """Attentive pooling over each row's k neighbours as one op: the (n, c)
    sum over axis 1 of softmax_axis(u, 1) * v, where v and u are the mlp
    stacks v_layers (relu on every layer) and u_layers (no relu on the
    last: its outputs are logits) over the same parts and (n, k) table nbr,
    and both give (n, k, c).

    Equals that chain of ops (mlp, mlp, softmax_axis, mul, reduce_sum) bit
    for bit.  Both stacks run in the same blocks of rows as mlp's, and each
    block reduces straight to its rows of the output: the softmax runs in
    place on u's block and the weighted values accumulate in place into
    v's, so no per-edge array is bigger than a block.

    A taped attend keeps only its parts' arrays.  Its backward runs the
    forward's blocks again: each recomputes its rows of both stacks'
    hidden layers into full-size arrays, its values and softmax weights
    into block temporaries, and replays the chain's sum, mul and softmax
    backward arithmetic into its rows of the logits' and the values'
    gradients.  Then u's and v's stack backwards run as two W.each items,
    which alone hold each stack's incoming gradient and hidden layers, so
    each is freed once spent.  The parts are listed twice among the node's
    parents, u's copy first, and get u's and v's gradients separately (if a
    parameter reaches them), so the tape adds them in the chain's order.
    """
    nbr = _indices("attend", nbr)
    if nbr.ndim != 2:
        raise TensorError(f"attend: nbr must be an (n, k) table, "
                          f"got shape {nbr.shape}")
    datas = [p.data for p in parts]
    shapes = [d.shape for d in datas]
    v = _stack("attend", v_layers, shapes, nbr)
    u = _stack("attend", u_layers, shapes, nbr)
    out_shape = v[2][-1][3]
    if out_shape[:-1] != nbr.shape:
        raise TensorError(f"attend: values of shape {out_shape} are not "
                          f"per edge of the {nbr.shape} table")
    if u[2][-1][3] != out_shape:
        raise TensorError(f"attend: logits of shape {u[2][-1][3]} and "
                          f"values of shape {out_shape} differ")

    out = np.empty((nbr.shape[0], out_shape[-1]))
    vsrc, usrc = _sources(v, datas), _sources(u, datas)

    def block(rows):
        val = _forward(v, vsrc, rows, True, [None] * len(v_layers))
        logits = _forward(u, usrc, rows, False, [None] * len(u_layers))
        val *= _softmax(logits, 1, out=logits)
        val.sum(axis=1, out=out[rows])

    W.each(block, _blocks(v, u))
    if _ACTIVE.tape is None:
        return Tensor(out)
    inputs = (*(t for layer in u_layers for t in layer), *parts,
              *(t for layer in v_layers for t in layer), *parts)
    need = tuple(_reached(t) for t in inputs)
    un = 2 * len(u_layers) + len(parts)

    def back(g):
        vsrc, usrc = _sources(v, datas), _sources(u, datas)
        vh = [np.empty(p[3]) for p in v[2][:-1]]
        uh = [np.empty(p[3]) for p in u[2][:-1]]
        glogits, gval = np.empty(out_shape), np.empty(out_shape)

        def block(rows):
            # both stacks' hidden rows into their full-size arrays, the
            # values and the softmax weights into block temporaries
            val = _forward(v, vsrc, rows, True, [h[rows] for h in vh] + [None])
            w = _forward(u, usrc, rows, False, [h[rows] for h in uh] + [None])
            _softmax(w, 1, out=w)
            ge = np.expand_dims(g[rows], 1)
            # the weights' gradient, then the logits'
            gl = np.multiply(ge, val, out=glogits[rows])
            gv = np.multiply(gl, w, out=gval[rows])
            gl -= gv.sum(axis=1, keepdims=True)
            gl *= w
            # the values' gradient
            np.multiply(ge, w, out=gv)
            gv *= val > 0.0

        W.each(block, _blocks(v, u))
        # the items alone hold each stack's incoming gradient and hidden
        # layers, which its backward drops as it goes
        items = [[glogits, u, [datas, *([h] for h in uh)], need[:un]],
                 [gval, v, [datas, *([h] for h in vh)], need[un:]]]
        del vh, uh, glogits, gval
        W.each(_stack_item, items)
        (ugrads, ugparts), (vgrads, vgparts) = (item[0] for item in items)
        return (*ugrads, *ugparts, *vgrads, *vgparts)

    return _make("attend", inputs, out, back)


# --- softmax / reductions ---

def _softmax(x: np.ndarray, axis: int, out=None) -> np.ndarray:
    """Softmax of x over axis, into out (x itself to run in place)."""
    out = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax_axis(a: Tensor, axis: int) -> Tensor:
    out = _softmax(a.data, axis)

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
    idx = _indices("gather_rows", indices)
    _check_rows("gather_rows", idx, a.data.shape[0])
    out = np.take(a.data, idx, axis=0)
    shape = a.data.shape

    def back(g):
        return (_scatter_rows(idx, g, shape[0]),)

    return _make("gather", (a,), out, back)


# --- parameters and serialization ---

_NAME_RE = re.compile(r"^[A-Za-z0-9_./-]+$")


class Parameter(Tensor):
    """Named trainable tensor, the tape's one kind of leaf: ops take it as
    they take any tensor, and a tape keys it by name and never tags it, so
    it keeps no finished tape alive."""

    __slots__ = ("name", "trainable")

    def __init__(self, name: str, value, trainable: bool = True) -> None:
        if not _NAME_RE.match(name):
            raise TensorError(f"bad parameter name {name!r}")
        super().__init__(np.array(value, dtype=np.float64))
        self.name = name
        self.trainable = trainable

    @property
    def value(self) -> np.ndarray:
        return self.data

    @value.setter
    def value(self, v) -> None:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != self.data.shape:
            raise TensorError(
                f"parameter {self.name}: shape {v.shape} != {self.data.shape}")
        self.data = v

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
