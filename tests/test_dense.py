"""T.mlp, a stack of layers as one op, as a single layer and as whole
shared MLPs, and T.attend, a cost-volume stage as one op: finite-difference
gradients for every kind of part, and bit-identity with the op chains they
replaced.

The oracle for one layer, `layer_chain`, is that chain: per part a matmul by
the weight's row block cut out with gather_rows, the bias added once, then
relu as a * (a > 0).  mlp sums the same products in the same order, so
outputs and every gradient agree bit for bit, except that its in-place relu
writes +0.0 where a * (a > 0) gave -0.0 for a negative input; `_bits`
compares with the sign of zero cleared.  The oracle for a stack,
`dense_chain`, runs one layer_chain per layer, so it shares no layer code
with mlp.  The oracle for attend, `attend_chain`, is mlp for u and v, then
softmax_axis, mul and reduce_sum.  The oracle for a pooled mlp is
conftest's `pooled_chain`: the unpooled mlp, then a max node whose gradient
goes to each column's first argmax.
"""
import concurrent.futures
import functools
import threading
import time
import weakref

import numpy as np
import pytest

from conftest import finite_diff, grad_gap, params, pooled_chain
from lidom import tensor as T
from lidom import workers as W

N, K, N_REF, C = 6, 4, 5, 3
# one repeated index inside a row and rows that share indices, so the
# gathered part's scatter-add sums several edges into one point
NBR = np.array([[0, 1, 1, 4], [2, 2, 3, 0], [4, 3, 2, 1],
                [0, 0, 0, 0], [1, 4, 4, 2], [3, 1, 0, 2]])

# part layouts the network feeds, as (shape, gathered); widths vary
EDGE, CENTRE, POINT = (N, K, 2), (N, 1, 3), (N_REF, 4)
LAYOUTS = {
    "set_conv": ([EDGE, POINT, CENTRE], NBR),
    "cost_volume": ([EDGE, (N, K, 1), CENTRE, POINT], NBR),
    "set_upconv": ([EDGE, POINT], NBR),
    "edge_only": ([EDGE], NBR),
    "centre_first": ([CENTRE, EDGE], NBR),
    "point_first": ([POINT, EDGE, CENTRE], NBR),
    "rows": ([(N, 2), (N, 4), (N, 1)], None),
    "one_row_part": ([(N, 5)], None),
    "per_edge_hidden": ([(N, K, 5)], None),
}


def layer_chain(w, b, *parts, nbr=None, relu=True):
    x, lo, bias = None, 0, b
    for part in parts:
        width = part.shape[-1]
        proj = T.matmul(part, T.gather_rows(w, np.arange(lo, lo + width)))
        if part.data.ndim == 2:
            if bias is not None:
                proj, bias = T.add(proj, bias), None
            if nbr is not None:
                proj = T.gather_rows(proj, nbr)
        x = proj if x is None else T.add(x, proj)
        lo += width
    if bias is not None:
        x = T.add(x, bias)
    return T.mul(x, T.const(x.data > 0.0)) if relu else x


def one_layer(w, b, *parts, nbr=None, relu=True):
    return T.mlp([(w, b)], *parts, nbr=nbr, relu_last=relu)


def _inputs(layout, seed=0):
    shapes, nbr = LAYOUTS[layout]
    rng = np.random.default_rng(seed)
    parts = [rng.normal(size=s) for s in shapes]
    w = rng.normal(size=(sum(s[-1] for s in shapes), C))
    b = rng.normal(size=C)
    return w, b, parts, nbr


def _run(op, w, b, parts, nbr, relu):
    """op under a tape, read out through a fixed random projection; returns
    (output, loss, [grad of w, grad of b, grads of the parts])."""
    with T.Tape() as tp:
        ts = params(w, b, *parts)
        out = op(*ts, nbr=nbr, relu=relu)
        proj = np.random.default_rng(99).normal(size=out.shape)
        loss = T.reduce_sum(T.mul(out, T.const(proj)))
    grads = tp.backward(loss)
    return out.data, loss.item(), [grads[t.name] for t in ts]


def _bits(a):
    return (np.asarray(a) + 0.0).tobytes()   # -0.0 + 0.0 is +0.0


@pytest.mark.parametrize("relu", [True, False])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_dense_gradients_match_central_differences(layout, relu):
    w, b, parts, nbr = _inputs(layout)
    _, _, grads = _run(one_layer, w, b, parts, nbr, relu)
    arrays = [w, b] + parts
    for i, (x, g) in enumerate(zip(arrays, grads)):
        def f(v, i=i):
            moved = list(arrays)
            moved[i] = v
            return _run(one_layer, *moved[:2], moved[2:], nbr, relu)[1]
        assert grad_gap(g, finite_diff(f, x)) < 1e-4, i


@pytest.mark.parametrize("relu", [True, False])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_dense_is_bit_identical_to_the_op_chain(layout, relu):
    w, b, parts, nbr = _inputs(layout, seed=1)
    out, loss, grads = _run(one_layer, w, b, parts, nbr, relu)
    want, want_loss, want_grads = _run(layer_chain, w, b, parts, nbr, relu)
    assert _bits(out) == _bits(want)
    assert loss == want_loss
    for g, wg in zip(grads, want_grads):
        assert _bits(g) == _bits(wg)
    # eager computes no mask and records nothing, and gives the same bits
    eager = one_layer(*[T.const(a) for a in [w, b] + parts], nbr=nbr,
                      relu=relu)
    assert eager.tape is None
    assert eager.data.tobytes() == out.tobytes()


def test_dense_records_one_node_with_a_bool_mask():
    w, b, parts, nbr = _inputs("set_conv")
    with T.Tape() as tp:
        one_layer(*params(w, b, *parts), nbr=nbr)
    kinds = [node.kind for node in tp.nodes]
    assert kinds.count("mlp") == 1 and set(kinds) == {"leaf", "mlp"}
    cells = [c.cell_contents for c in tp.nodes[-1].backward_fn.__closure__]
    masks = [c for c in cells if isinstance(c, np.ndarray) and c.dtype == bool]
    assert len(masks) == 1 and masks[0].shape == (N, K, C)


@pytest.mark.parametrize("bad, match", [
    (lambda w, b, ps, nbr: (w[:-1], b, ps, nbr), "do not fit"),
    (lambda w, b, ps, nbr: (w, b[:-1], ps, nbr), "do not fit"),
    (lambda w, b, ps, nbr: (w, b, ps, nbr + 1), "out of range"),
    (lambda w, b, ps, nbr: (w, b, ps, -nbr), "out of range"),
    (lambda w, b, ps, nbr: (w, b, ps, nbr + 0.5), "must be integers"),
    (lambda w, b, ps, nbr: (w, b, ps, nbr[:-1]), "do not broadcast"),
    (lambda w, b, ps, nbr: (w, b, [ps[0][None]] + ps[1:], nbr), "rank 2 or 3"),
], ids=["weight-rows", "bias", "index-high", "index-negative", "index-float",
        "table-rows", "rank-4-part"])
def test_dense_rejects_mismatched_inputs(bad, match):
    w, b, parts, nbr = bad(*_inputs("set_conv"))
    with pytest.raises(T.TensorError, match=match):
        one_layer(*[T.const(a) for a in [w, b] + parts], nbr=nbr)


# hidden widths of the stacks, distinct from C and from every part width
HIDDEN = (7, 5)


def _stack_inputs(layout, depth, seed=0):
    """A depth-layer stack's (weight, bias) arrays over a layout's parts."""
    _, _, parts, nbr = _inputs(layout, seed)
    rng = np.random.default_rng(seed + 100)
    widths = [sum(p.shape[-1] for p in parts), *HIDDEN[:depth - 1], C]
    layers = [(rng.normal(size=(a, c)) / np.sqrt(a), rng.normal(size=c))
              for a, c in zip(widths, widths[1:])]
    return layers, parts, nbr


def dense_chain(layers, *parts, nbr=None, relu_last=True):
    x = parts
    for i, (w, b) in enumerate(layers):
        x = (layer_chain(w, b, *x, nbr=nbr if i == 0 else None,
                         relu=i < len(layers) - 1 or relu_last),)
    return x[0]


def _run_stack(op, layers, parts, nbr, relu_last):
    """op over a stack under a tape, read out through a fixed random
    projection; returns (output, loss, grads of every weight, bias and
    part, in that order)."""
    with T.Tape() as tp:
        ts = params(*[a for layer in layers for a in layer])
        pts = params(*parts, prefix="part")
        out = op(list(zip(ts[::2], ts[1::2])), *pts, nbr=nbr,
                 relu_last=relu_last)
        proj = np.random.default_rng(99).normal(size=out.shape)
        loss = T.reduce_sum(T.mul(out, T.const(proj)))
    grads = tp.backward(loss)
    return out.data, loss.item(), [grads[t.name] for t in ts + pts]


@pytest.mark.parametrize("relu_last", [True, False])
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_mlp_is_bit_identical_to_the_dense_chain(layout, depth, relu_last):
    layers, parts, nbr = _stack_inputs(layout, depth, seed=2)
    out, loss, grads = _run_stack(T.mlp, layers, parts, nbr, relu_last)
    want, want_loss, want_grads = _run_stack(dense_chain, layers, parts, nbr,
                                             relu_last)
    assert _bits(out) == _bits(want)
    assert loss == want_loss
    assert len(grads) == 2 * depth + len(parts)
    for g, wg in zip(grads, want_grads):
        assert _bits(g) == _bits(wg)
    eager = T.mlp([(T.const(w), T.const(b)) for w, b in layers],
                  *[T.const(a) for a in parts], nbr=nbr, relu_last=relu_last)
    assert eager.tape is None
    assert eager.data.tobytes() == out.tobytes()


@pytest.mark.parametrize("relu_last", [True, False])
@pytest.mark.parametrize("layout", ["set_conv", "cost_volume", "rows"])
def test_mlp_gradients_match_central_differences(layout, relu_last):
    layers, parts, nbr = _stack_inputs(layout, 2)
    _, _, grads = _run_stack(T.mlp, layers, parts, nbr, relu_last)
    arrays = [a for layer in layers for a in layer] + parts

    def loss_at(i, v):
        moved = list(arrays)
        moved[i] = v
        stack = list(zip(moved[0:4:2], moved[1:4:2]))
        return _run_stack(T.mlp, stack, moved[4:], nbr, relu_last)[1]

    for i, (x, g) in enumerate(zip(arrays, grads)):
        assert grad_gap(g, finite_diff(lambda v: loss_at(i, v), x)) < 1e-4, i


def _closure_arrays(fn):
    """Every array reachable from fn's closure cells, through containers
    and nested closures."""
    found, todo, seen = [], [fn], set()
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            found.append(o)
        elif isinstance(o, (list, tuple)):
            todo.extend(o)
        elif callable(o) and getattr(o, "__closure__", None):
            todo.extend(c.cell_contents for c in o.__closure__)
    return found


@pytest.mark.parametrize("relu_last", [True, False])
def test_mlp_records_one_node_that_keeps_no_hidden_layer(relu_last):
    layers, parts, nbr = _stack_inputs("set_conv", 3)
    with T.Tape() as tp:
        ts = params(*[a for layer in layers for a in layer])
        pts = params(*parts, prefix="part")
        T.mlp(list(zip(ts[::2], ts[1::2])), *pts, nbr=nbr,
              relu_last=relu_last)
    kinds = [node.kind for node in tp.nodes]
    assert kinds.count("mlp") == 1 and set(kinds) == {"leaf", "mlp"}
    held = _closure_arrays(tp.nodes[-1].backward_fn)
    hidden = {(N, K, h) for h in HIDDEN} | {(N_REF, h) for h in HIDDEN}
    assert not [a.shape for a in held if a.shape in hidden]
    masks = [a.shape for a in held if a.dtype == bool]
    assert masks == ([(N, K, C)] if relu_last else [])
    # what it keeps per edge is its parts, by reference, and that mask
    per_edge = [a for a in held if a.ndim == 3 and a.dtype != bool]
    assert all(any(a is p.data for p in pts) for a in per_edge)


def test_mlp_rejects_an_empty_stack():
    with pytest.raises(T.TensorError, match="at least one layer"):
        T.mlp([], T.const(np.ones((N, C))))


# --- pooled mlp: a set abstraction, max over each neighbourhood, as one op ---

pooled = functools.partial(T.mlp, pool=True)


def _per_edge(part):
    return part.ndim == 3 and part.shape[1] == K


def _pool_inputs(layout, depth, case, seed=0):
    """A stack over a layout's parts, made to hit a pooling corner: "ties"
    gives each row's edges one per-edge input, so that the edges of a row
    that share a neighbour give equal outputs (row 3's four edges, and two
    edges of rows 0, 1 and 4); "zeros" moves the last bias far down, so that
    the relu clamps whole columns to 0 ("ties" moves it up, so that the
    tied maxima are positive); "nan" puts a NaN into one edge's
    input, so that its row's maxima are NaN."""
    layers, parts, nbr = _stack_inputs(layout, depth, seed)
    w, b = layers[-1]
    if case == "ties":
        parts = [np.repeat(p[:, :1], K, axis=1) if _per_edge(p) else p
                 for p in parts]
        layers = layers[:-1] + [(w, b + 2.0 * np.abs(b).max() + 4.0)]
    elif case == "zeros":
        layers = layers[:-1] + [(w, b - 2.0 * np.abs(b).max() - 4.0)]
    elif case == "nan":
        parts = [p.copy() for p in parts]
        parts[0][2, 1, 0] = np.nan
    return layers, parts, nbr


@pytest.mark.parametrize("case", ["random", "ties", "zeros", "nan"])
@pytest.mark.parametrize("relu_last", [True, False])
@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("layout", ["set_conv", "cost_volume"])
def test_pooled_mlp_is_bit_identical_to_the_chain(layout, depth, relu_last,
                                                 case):
    layers, parts, nbr = _pool_inputs(layout, depth, case, seed=7)
    out, loss, grads = _run_stack(pooled, layers, parts, nbr, relu_last)
    want, want_loss, want_grads = _run_stack(pooled_chain, layers, parts, nbr,
                                             relu_last)
    assert out.shape == (N, C)
    assert _bits(out) == _bits(want)
    assert _bits(loss) == _bits(want_loss)
    assert len(grads) == 2 * depth + len(parts)
    for i, (g, wg) in enumerate(zip(grads, want_grads)):
        assert _bits(g) == _bits(wg), i
    eager = pooled([(T.const(w), T.const(b)) for w, b in layers],
                   *[T.const(a) for a in parts], nbr=nbr, relu_last=relu_last)
    assert eager.tape is None
    assert eager.data.tobytes() == out.tobytes()
    # each case reaches its corner
    edges = T.mlp([(T.const(w), T.const(b)) for w, b in layers],
                  *[T.const(a) for a in parts], nbr=nbr,
                  relu_last=relu_last).data
    top = edges.max(axis=1, keepdims=True)
    tied = (edges == top).sum(axis=1) > 1
    if case == "ties":
        assert (tied & (top[:, 0] > 0.0)).any()
    elif case == "zeros" and relu_last:
        assert (tied & (top[:, 0] == 0.0)).any()
    elif case == "nan":
        assert np.isnan(out).any() and not np.isnan(out).all()


@pytest.mark.parametrize("relu_last", [True, False])
def test_pooled_mlp_gradients_match_central_differences(relu_last):
    layers, parts, nbr = _stack_inputs("set_conv", 2)
    _, _, grads = _run_stack(pooled, layers, parts, nbr, relu_last)
    arrays = [a for layer in layers for a in layer] + parts

    def loss_at(i, v):
        moved = list(arrays)
        moved[i] = v
        stack = list(zip(moved[0:4:2], moved[1:4:2]))
        return _run_stack(pooled, stack, moved[4:], nbr, relu_last)[1]

    for i, (x, g) in enumerate(zip(arrays, grads)):
        assert grad_gap(g, finite_diff(lambda v: loss_at(i, v), x)) < 1e-4, i


@pytest.mark.parametrize("relu_last", [True, False])
def test_pooled_mlp_records_one_node_that_keeps_no_per_edge_array(relu_last):
    layers, parts, nbr = _stack_inputs("set_conv", 3)
    with T.Tape() as tp:
        ts = params(*[a for layer in layers for a in layer])
        pts = params(*parts, prefix="part")
        pooled(_pairs(ts), *pts, nbr=nbr, relu_last=relu_last)
    kinds = [node.kind for node in tp.nodes]
    assert kinds.count("mlp") == 1 and set(kinds) == {"leaf", "mlp"}
    assert tp.nodes[-1].shape == (N, C)
    held = _closure_arrays(tp.nodes[-1].backward_fn)
    # no per-edge output, hidden layer or relu mask: what it keeps per edge
    # is its parts, by reference
    assert all(any(a is p.data for p in pts) for a in held if a.ndim == 3)
    hidden = {(N_REF, h) for h in HIDDEN}
    assert not [a.shape for a in held if a.shape in hidden]
    # the first argmax per output, in uint8, and the pooled relu mask
    assert [(a.shape, a.dtype) for a in held if a.dtype.kind == "u"] == \
        [((N, C), np.uint8)]
    masks = [a.shape for a in held if a.dtype == bool]
    assert masks == ([(N, C)] if relu_last else [])


def test_an_eager_pooled_mlp_computes_no_argmax(monkeypatch):
    layers, parts, nbr = _stack_inputs("set_conv", 2)
    calls = []
    argmax = np.argmax
    monkeypatch.setattr(np, "argmax",
                        lambda *a, **kw: calls.append(1) or argmax(*a, **kw))
    pooled([(T.const(w), T.const(b)) for w, b in layers],
           *[T.const(a) for a in parts], nbr=nbr)
    assert calls == []
    _run_stack(pooled, layers, parts, nbr, True)
    assert calls == [1]


@pytest.mark.parametrize("nbr, parts", [
    (None, [EDGE]),
    (NBR[0], [(N_REF, 2)]),
], ids=["no-table", "table-rank"])
def test_pooled_mlp_needs_a_table_and_a_per_edge_output(nbr, parts):
    rng = np.random.default_rng(0)
    layer = [(T.const(rng.normal(size=(2, C))), T.const(np.zeros(C)))]
    with pytest.raises(T.TensorError, match="pool needs an"):
        pooled(layer, *[T.const(rng.normal(size=s)) for s in parts], nbr=nbr)


# --- attend: the cost volume's attentive pooling as one op ---

def attend_chain(u_layers, v_layers, *parts, nbr):
    """The op chain attend replaced: v and u as mlp nodes, a softmax over
    the neighbourhood, the weighted values and their sum over the
    neighbourhood."""
    val = T.mlp(v_layers, *parts, nbr=nbr)
    weights = T.softmax_axis(
        T.mlp(u_layers, *parts, nbr=nbr, relu_last=False), axis=1)
    return T.reduce_sum(T.mul(weights, val), axis=1)


def _attend_inputs(layout, depth, seed=0):
    """(u layers, v layers, parts, nbr) over one layout."""
    v, parts, nbr = _stack_inputs(layout, depth, seed)
    u = _stack_inputs(layout, depth, seed + 1)[0]
    return u, v, parts, nbr


def _pairs(ts):
    return list(zip(ts[::2], ts[1::2]))


def _run_attend(op, u, v, parts, nbr, later=False):
    """op under a tape, read out through a fixed random projection; with
    later, a term per part is recorded after op, so each part's gradient
    already holds one from a later node when op's backward reaches it.
    Returns (output, loss, grads of u's weights and biases, v's, the
    parts, in that order)."""
    with T.Tape() as tp:
        us = params(*[a for layer in u for a in layer], prefix="u")
        vs = params(*[a for layer in v for a in layer], prefix="v")
        pts = params(*parts, prefix="part")
        out = op(_pairs(us), _pairs(vs), *pts, nbr=nbr)
        rng = np.random.default_rng(99)
        loss = T.reduce_sum(T.mul(out, T.const(rng.normal(size=out.shape))))
        for p in pts if later else ():
            term = T.mul(p, T.const(rng.normal(size=p.shape)))
            loss = T.add(loss, T.reduce_sum(term))
    grads = tp.backward(loss)
    return out.data, loss.item(), [grads[t.name] for t in us + vs + pts]


ATTEND_LAYOUTS = ["cost_volume", "set_conv", "edge_only", "centre_first"]

# attend has one mode, learned weights: the uniform stage is the mean of one
# mlp that CostVolume builds from mlp, sum and mul. The `uniform` axis keeps
# only False so that the learned-weight case ids stay as they were.
LEARNED_WEIGHTS = pytest.mark.parametrize("uniform", [False])


@pytest.mark.parametrize("later", [False, True])
@LEARNED_WEIGHTS
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("layout", ATTEND_LAYOUTS)
def test_attend_is_bit_identical_to_the_op_chain(layout, depth, uniform,
                                                 later):
    u, v, parts, nbr = _attend_inputs(layout, depth, seed=3)
    out, loss, grads = _run_attend(T.attend, u, v, parts, nbr, later)
    want, want_loss, want_grads = _run_attend(attend_chain, u, v, parts, nbr,
                                              later)
    assert _bits(out) == _bits(want)
    assert loss == want_loss
    assert len(grads) == 4 * depth + len(parts)
    for i, (g, wg) in enumerate(zip(grads, want_grads)):
        assert _bits(g) == _bits(wg), i
    eager = T.attend([(T.const(w), T.const(b)) for w, b in u],
                     [(T.const(w), T.const(b)) for w, b in v],
                     *[T.const(a) for a in parts], nbr=nbr)
    assert eager.tape is None
    assert eager.data.tobytes() == out.tobytes()


@LEARNED_WEIGHTS
def test_attend_gradients_match_central_differences(uniform):
    u, v, parts, nbr = _attend_inputs("cost_volume", 2)
    _, _, grads = _run_attend(T.attend, u, v, parts, nbr)
    arrays = [a for s in (u, v) for layer in s for a in layer] + parts

    def loss_at(i, x):
        moved = list(arrays)
        moved[i] = x
        return _run_attend(T.attend, _pairs(moved[0:4]), _pairs(moved[4:8]),
                           moved[8:], nbr)[1]

    for i, (x, g) in enumerate(zip(arrays, grads)):
        assert grad_gap(g, finite_diff(lambda y: loss_at(i, y), x)) < 1e-4, i


@LEARNED_WEIGHTS
def test_attend_records_one_node_that_keeps_its_parts_only(uniform):
    u, v, parts, nbr = _attend_inputs("cost_volume", 3)
    with T.Tape() as tp:
        us = _pairs(params(*[a for layer in u for a in layer], prefix="u"))
        vs = _pairs(params(*[a for layer in v for a in layer], prefix="v"))
        pts = params(*parts, prefix="part")
        T.attend(us, vs, *pts, nbr=nbr)
    kinds = [node.kind for node in tp.nodes]
    assert kinds.count("attend") == 1 and set(kinds) == {"leaf", "attend"}
    # the parts are listed twice, u's copy first, so that the tape adds
    # u's gradient and then v's into each part; parameters are never
    # tagged, and the tape numbers their leaves in the order it first sees
    # them
    names = [t.name for s in (us, vs)
             for t in [t for layer in s for t in layer] + pts]
    leaf = {name: i for i, name in enumerate(dict.fromkeys(names))}
    assert list(tp.nodes[-1].parents) == [leaf[name] for name in names]
    held = _closure_arrays(tp.nodes[-1].backward_fn)
    # no value, logit, weight or hidden array, and no relu mask
    per_edge = ({(N, K, c) for c in (C,) + HIDDEN}
                | {(N_REF, h) for h in HIDDEN})
    assert not [a.shape for a in held
                if a.shape in per_edge and a.dtype.kind == "f"]
    assert not [a.shape for a in held if a.dtype == bool]
    # what it keeps per edge is its parts, by reference
    assert all(any(a is p.data for p in pts) for a in held
               if a.ndim == 3 and a.dtype.kind == "f")


def _centre_rows(stack):
    """The stack with its first weight cut to the cost_volume layout's
    CENTRE rows, for that part alone."""
    return [(stack[0][0][3:6], stack[0][1])] + stack[1:]


@pytest.mark.parametrize("bad, match", [
    (lambda u, v, ps, nbr: (u[:1] + [(u[1][0][:, :-1], u[1][1][:-1])], v, ps,
                            nbr), "differ"),
    (lambda u, v, ps, nbr: (u, v, ps, nbr[0]), r"\(n, k\) table"),
    (lambda u, v, ps, nbr: (_centre_rows(u), _centre_rows(v), [ps[2]], nbr),
     "not per edge"),
    (lambda u, v, ps, nbr: (u, [], ps, nbr), "at least one layer"),
    (lambda u, v, ps, nbr: ([], v, ps, nbr), "at least one layer"),
], ids=["widths", "table-rank", "no-edge-part", "empty-v", "empty-u"])
def test_attend_rejects_mismatched_inputs(bad, match):
    u, v, parts, nbr = bad(*_attend_inputs("cost_volume", 2))
    with pytest.raises(T.TensorError, match=match):
        T.attend([(T.const(w), T.const(b)) for w, b in u],
                 [(T.const(w), T.const(b)) for w, b in v],
                 *[T.const(a) for a in parts], nbr=nbr)


def test_attend_has_no_uniform_mode():
    # a uniform stage is the mean of one mlp (CostVolume builds it), so
    # attend always takes logit layers
    _, v, parts, nbr = _attend_inputs("cost_volume", 2)
    with pytest.raises(T.TensorError, match="at least one layer"):
        T.attend(None, [(T.const(w), T.const(b)) for w, b in v],
                 *[T.const(a) for a in parts], nbr=nbr)


# --- row blocks: mlp and attend run over blocks of output rows ---

ONE_BLOCK = 1 << 62    # a BLOCK_ELEMS that fits any test stack in one block


def _ragged_blocks(monkeypatch, layout, widths, step):
    """Make mlp and attend run a layout's N = 6 rows in blocks of step rows
    and a ragged last one: BLOCK_ELEMS is step rows of the widest layer
    output.  Returns a list that gets one entry per W.each call: ("rows",
    its blocks' sorted row counts) for a call over row blocks, and
    ("stacks", 2) for attend's two stack backwards.  The calling thread and
    the helper share a call's items, so their order is not fixed."""
    shapes, nbr = LAYOUTS[layout]
    per_edge = nbr is not None or len(shapes[0]) == 3
    monkeypatch.setattr(W, "BLOCK_ELEMS",
                        step * (K if per_edge else 1) * max(widths))
    calls, each = [], W.each

    def each_spy(fn, items):
        if all(isinstance(rows, slice) for rows in items):
            calls.append(("rows", tuple(sorted(rows.stop - rows.start
                                               for rows in items))))
        else:
            calls.append(("stacks", len(items)))
        each(fn, items)

    monkeypatch.setattr(W, "each", each_spy)
    return calls


def _mlp_bits(layers, parts, nbr, relu_last, pool=False):
    """Eager output, taped output, loss and every weight, bias and part
    gradient of one mlp, pooled or not, as bytes."""
    op = functools.partial(T.mlp, pool=pool)
    out, loss, grads = _run_stack(op, layers, parts, nbr, relu_last)
    eager = op([(T.const(w), T.const(b)) for w, b in layers],
               *[T.const(a) for a in parts], nbr=nbr, relu_last=relu_last)
    return [eager.data.tobytes(), out.tobytes(), np.float64(loss).tobytes(),
            *[g.tobytes() for g in grads]]


def _attend_bits(u, v, parts, nbr):
    """Eager output, taped output, loss and every u, v and part gradient of
    one attend, as bytes."""
    out, loss, grads = _run_attend(T.attend, u, v, parts, nbr)
    eager = T.attend([(T.const(w), T.const(b)) for w, b in u],
                     [(T.const(w), T.const(b)) for w, b in v],
                     *[T.const(a) for a in parts], nbr=nbr)
    return [eager.data.tobytes(), out.tobytes(), loss,
            *[g.tobytes() for g in grads]]


# the layouts with a table also run pooled, as "<layout>-pool"
BLOCK_LAYOUTS = [pytest.param(layout, pool, id=layout + "-pool" * pool)
                 for layout in ["set_conv", "cost_volume", "centre_first",
                                "point_first", "rows", "per_edge_hidden"]
                 for pool in (False, True)
                 if not pool or LAYOUTS[layout][1] is not None]


@pytest.mark.parametrize("step", [4, 5], ids=["ragged-2", "ragged-1"])
@pytest.mark.parametrize("relu_last", [True, False])
@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("layout, pool", BLOCK_LAYOUTS)
def test_mlp_in_row_blocks_is_bit_identical_to_one_block(
        monkeypatch, layout, pool, depth, relu_last, step):
    # per-edge, per-centre, gathered and width-1 parts with the table,
    # pooled or not, and per-row (with a width-1 part) and per-edge parts
    # without it
    layers, parts, nbr = _stack_inputs(layout, depth, seed=4)
    if pool:
        # ties across a block's rows and a NaN in the last block's rows
        parts = [np.repeat(p[:, :1], K, axis=1) if _per_edge(p) else p
                 for p in parts]
        next(p for p in parts if _per_edge(p))[N - 1, 2, 0] = np.nan
    monkeypatch.setattr(W, "BLOCK_ELEMS", ONE_BLOCK)
    want = _mlp_bits(layers, parts, nbr, relu_last, pool)
    calls = _ragged_blocks(monkeypatch, layout,
                           [w.shape[1] for w, _ in layers], step)
    assert _mlp_bits(layers, parts, nbr, relu_last, pool) == want
    # the taped forward, the backward's recompute of the hidden layers (at
    # depth > 1) and the eager forward, each in a block of step rows and a
    # ragged one; the stack's backward runs on this thread alone.  A per-row
    # stack runs in one block (BLAS's summation order depends on a 2-D
    # matmul's row count)
    blocks = ("rows", (N,) if layout == "rows" else
              tuple(sorted([step, N - step])))
    assert calls == [blocks] * (2 + (depth > 1))


@pytest.mark.parametrize("step", [4, 5], ids=["ragged-2", "ragged-1"])
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("layout", ATTEND_LAYOUTS)
def test_attend_in_row_blocks_is_bit_identical_to_one_block(
        monkeypatch, layout, depth, step):
    u, v, parts, nbr = _attend_inputs(layout, depth, seed=5)
    monkeypatch.setattr(W, "BLOCK_ELEMS", ONE_BLOCK)
    want = _attend_bits(u, v, parts, nbr)
    calls = _ragged_blocks(monkeypatch, layout,
                           [w.shape[1] for w, _ in u + v], step)
    assert _attend_bits(u, v, parts, nbr) == want
    # the taped forward runs v and u per block, and so does the backward's
    # recompute with the softmax gradient; then u's and v's stack backwards
    # are the two items of one call, which make no call of their own; last,
    # the eager forward
    blocks = ("rows", tuple(sorted([step, N - step])))
    assert calls == [blocks, blocks, ("stacks", 2), blocks]


class _IdlePool:
    """An executor whose jobs never start: each future stays pending until
    its caller cancels it."""

    def submit(self, fn, *args):
        return concurrent.futures.Future()


def test_full_config_stacks_in_row_blocks_are_bit_identical_to_one_block(
        monkeypatch):
    # full_config's shapes: the finest refinement's cost-volume stage (2048
    # centres, 16 neighbours, 32 channels) and pyramid level 2's set_conv
    # (1024 centres of 2048 points, 64 channels), in BLOCK_ELEMS's blocks
    rng = np.random.default_rng(6)

    def stack(widths):
        return [(rng.normal(size=(a, c)) / np.sqrt(a), rng.normal(size=c))
                for a, c in zip(widths, widths[1:])]

    nbr = rng.integers(0, 2048, size=(2048, 16))
    cv_parts = [rng.normal(size=s) for s in
                [(2048, 16, 3), (2048, 16, 1), (2048, 1, 32), (2048, 32)]]
    u, v = stack([68, 32, 32]), stack([68, 32, 32])
    sc_nbr = rng.integers(0, 2048, size=(1024, 16))
    sc_parts = [rng.normal(size=s) for s in
                [(1024, 16, 3), (2048, 32), (1024, 1, 32)]]
    sc = stack([67, 64, 64])
    assert len(T._blocks(T._stack("attend", [(T.const(w), T.const(b))
                                             for w, b in v],
                                  [p.shape for p in cv_parts], nbr))) == 16
    # the thread idents that ran each spied function's calls
    threads = {name: set() for name in ("_forward", "_stack_backward")}

    def spy(name, fn):
        def run(*args):
            threads[name].add(threading.get_ident())
            return fn(*args)
        monkeypatch.setattr(T, name, run)

    def bits():
        for ran in threads.values():
            ran.clear()
        return (_attend_bits(u, v, cv_parts, nbr),
                _mlp_bits(sc, sc_parts, sc_nbr, True))

    for name in threads:
        spy(name, getattr(T, name))
    blocked = bits()
    # forward blocks and u's and v's stack backwards each ran on this
    # thread and on the helper
    for ran in threads.values():
        assert len(ran) == 2 and threading.get_ident() in ran
    # with a helper whose jobs never start, this thread runs every item
    with monkeypatch.context() as m:
        m.setattr(W, "_POOL", _IdlePool())
        assert bits() == blocked
        for ran in threads.values():
            assert ran == {threading.get_ident()}
    monkeypatch.setattr(W, "BLOCK_ELEMS", ONE_BLOCK)
    assert bits() == blocked


@pytest.mark.parametrize("raiser", ["caller", "helper", "backward-caller",
                                    "backward-helper"])
def test_a_block_that_raises_fails_the_op_once_no_block_runs(monkeypatch,
                                                             raiser):
    # each thread's first item waits for the other's; then one raises while
    # the other's is still running, and the op must raise only once that
    # one is done, having started no further item.  The items are mlp's
    # forward blocks, or attend's u and v stack backwards, whose failure
    # fails the tape's backward
    if raiser.startswith("backward-"):
        u, v, parts, nbr = _attend_inputs("cost_volume", 2, seed=5)
        spied = "_stack_backward"

        def bits():
            return _attend_bits(u, v, parts, nbr)

        def op():
            _run_attend(T.attend, u, v, parts, nbr)
    else:
        layers, parts, nbr = _stack_inputs("set_conv", 2, seed=4)
        spied = "_forward"

        def bits():
            return _mlp_bits(layers, parts, nbr, True)

        def op():
            T.mlp([(T.const(w), T.const(b)) for w, b in layers],
                  *[T.const(a) for a in parts], nbr=nbr)

        _ragged_blocks(monkeypatch, "set_conv",
                       [w.shape[1] for w, _ in layers], 1)
    want = bits()
    caller, fn = threading.get_ident(), getattr(T, spied)
    met, lock = threading.Barrier(2, timeout=30), threading.Lock()
    started, running = [], [0]

    def spy(*args):
        with lock:
            started.append(threading.get_ident())
            running[0] += 1
        try:
            met.wait()
            if (threading.get_ident() == caller) == raiser.endswith("caller"):
                raise RuntimeError("item failed")
            time.sleep(0.2)
            return fn(*args)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(T, spied, spy)
    with pytest.raises(RuntimeError, match="item failed"):
        op()
    assert running == [0] and len(started) == 2 and caller in started
    # the helper outlives the failure and serves the next op
    monkeypatch.setattr(T, spied, fn)
    assert bits() == want
    assert any(t.name.startswith("lidom-helper")
               for t in threading.enumerate())


def test_a_busy_helper_never_stalls_a_call_nor_keeps_its_fn():
    # another thread's call holds the helper in one of its items; a call
    # made meanwhile runs every item on its own thread and returns without
    # waiting, and its job, left on the helper's queue, keeps nothing alive
    helper_in, release, helper_done = (threading.Event(), threading.Event(),
                                       [])

    def hold(item):
        if threading.current_thread().name.startswith("lidom-helper"):
            helper_in.set()
            release.wait(timeout=30)
            helper_done.append(item)
        else:
            helper_in.wait(timeout=30)

    holder = threading.Thread(target=W.each, args=(hold, [0, 1]))
    holder.start()
    try:
        assert helper_in.wait(timeout=30)
        ran = []
        fn = lambda item: ran.append((item, threading.get_ident()))
        fn_ref = weakref.ref(fn)
        W.each(fn, range(8))
        assert helper_done == []
        assert sorted(ran) == [(i, threading.get_ident()) for i in range(8)]
        del fn
        assert fn_ref() is None and helper_done == []
    finally:
        release.set()
        holder.join(timeout=30)
    assert not holder.is_alive() and helper_done == [1]
    # the released helper serves the next call: each item waits for the
    # other, on the other thread
    met = threading.Barrier(2, timeout=30)
    W.each(lambda item: met.wait(), range(2))
