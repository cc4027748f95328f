"""Autodiff engine: per-op finite-difference checks, tape rules, checkpoints."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_diff, grad_gap, params
from lidom import tensor as T
from lidom.net import OdometryNet, desk_config

TOL = 1e-4


def _check_unary(op, x, chain=None):
    """FD-check d(sum(op(x)))/dx against the tape."""
    def run(arr):
        with T.Tape() as tp:
            t = T.Parameter("x", arr)
            y = op(t)
            if chain is not None:
                y = chain(y)
            loss = T.reduce_sum(y)
        return loss, tp.backward(loss)["x"]

    loss, analytic = run(x)

    def f(arr):
        return run(arr)[0].item()

    numeric = finite_diff(f, x)
    assert grad_gap(analytic, numeric) < TOL


def _check_binary(op, x, y):
    def run(ax, ay):
        with T.Tape() as tp:
            ta, tb = params(ax, ay)
            loss = T.reduce_sum(op(ta, tb))
        return loss, tp.backward(loss)

    loss, grads = run(x, y)
    ga, gb = grads["x0"], grads["x1"]
    na = finite_diff(lambda a: run(a, y)[0].item(), x)
    nb = finite_diff(lambda b: run(x, b)[0].item(), y)
    assert grad_gap(ga, na) < TOL
    assert grad_gap(gb, nb) < TOL


def test_grad_add_broadcast():
    rng = np.random.default_rng(0)
    _check_binary(T.add, rng.normal(size=(4, 5)), rng.normal(size=(5,)))


def test_grad_sub():
    rng = np.random.default_rng(1)
    _check_binary(T.sub, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))


def test_grad_mul_broadcast():
    rng = np.random.default_rng(2)
    _check_binary(T.mul, rng.normal(size=(2, 3, 4)), rng.normal(size=(1, 3, 4)))


def test_grad_div():
    rng = np.random.default_rng(3)
    _check_binary(T.div, rng.normal(size=(4, 3)),
                  rng.normal(size=(4, 3)) + 3.0)


def test_grad_relu():
    # relu alone: a one-layer mlp with an identity weight and a zero bias,
    # inputs offset away from the kink so central differences are valid
    x = np.random.default_rng(5).normal(size=(6, 3))
    x[np.abs(x) < 1e-3] = 0.5
    _check_unary(lambda t: T.mlp([(T.const(np.eye(3)), T.const(np.zeros(3)))],
                                 t), x)


def test_grad_sqrt():
    x = np.abs(np.random.default_rng(7).normal(size=(5,))) + 0.5
    _check_unary(T.sqrt, x)


def test_sqrt_zero_gradient_is_zero():
    with T.Tape() as tp:
        t = T.Parameter("t", np.zeros(3))
        loss = T.reduce_sum(T.sqrt(t))
    assert np.all(tp.backward(loss)["t"] == 0.0)


def test_grad_matmul_rank2():
    rng = np.random.default_rng(9)
    _check_binary(T.matmul, rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))


def test_grad_matmul_batched_shared_rhs():
    rng = np.random.default_rng(11)
    _check_binary(T.matmul, rng.normal(size=(5, 3, 4)), rng.normal(size=(4, 2)))


def test_grad_softmax():
    x = np.random.default_rng(12).normal(size=(4, 6))
    _check_unary(lambda t: T.softmax_axis(t, axis=1), x,
                 chain=lambda y: T.mul(y, T.const(
                     np.random.default_rng(13).normal(size=(4, 6)))))


def test_softmax_large_values_stable():
    x = np.array([[1000.0, 1000.0, 999.0]])
    y = T.softmax_axis(T.const(x), axis=1)
    assert np.all(np.isfinite(y.data))
    assert abs(y.data.sum() - 1.0) < 1e-12


def test_grad_reduce_sum_axis():
    x = np.random.default_rng(14).normal(size=(3, 4, 2))
    _check_unary(lambda t: T.reduce_sum(t, axis=1), x,
                 chain=lambda y: T.mul(y, y))


def _max_pool(t):
    """The max over axis 1 of an (n, k, c) tensor, as a pooled mlp whose one
    layer passes its per-edge part through (weight I, bias 0, no relu)."""
    n, k, c = t.shape
    layer = [(T.const(np.eye(c)), T.const(np.zeros(c)))]
    return T.mlp(layer, t, nbr=np.zeros((n, k), dtype=np.int64),
                 relu_last=False, pool=True)


def test_grad_pooled_mlp_axis():
    x = np.random.default_rng(15).normal(size=(4, 5, 2))
    _check_unary(_max_pool, x, chain=lambda y: T.mul(y, y))


def test_pooled_mlp_tie_gradient_goes_to_first():
    with T.Tape() as tp:
        t = T.Parameter("t", np.array([[[2.0], [5.0], [5.0], [1.0]]]))
        loss = T.reduce_sum(_max_pool(t))
    assert tp.backward(loss)["t"].ravel().tolist() == [0.0, 1.0, 0.0, 0.0]


def _check_gather(x, idx):
    def run(arr):
        with T.Tape() as tp:
            t = T.Parameter("x", arr)
            g = T.gather_rows(t, idx)
            loss = T.reduce_sum(T.mul(g, g))
        return loss, tp.backward(loss)["x"], g

    loss, grad, g = run(x)
    assert g.shape == idx.shape + x.shape[1:]
    numeric = finite_diff(lambda a: run(a)[0].item(), x)
    assert grad_gap(grad, numeric) < TOL
    # bit for bit the flat gather plus reshape
    with T.Tape() as flat_tp:
        ft = T.Parameter("x", x)
        fg = T.reshape(T.gather_rows(ft, idx.reshape(-1)), g.shape)
        flat_loss = T.reduce_sum(T.mul(fg, fg))
    flat_grad = flat_tp.backward(flat_loss)["x"]
    assert g.data.tobytes() == fg.data.tobytes()
    assert grad.tobytes() == flat_grad.tobytes()


def test_grad_gather_rows_with_duplicates():
    x = np.random.default_rng(18).normal(size=(5, 3))
    _check_gather(x, np.array([0, 2, 2, 4]))
    # an (n, k) neighbor table, as the network gathers groups
    _check_gather(x, np.array([[0, 2, 2], [4, 2, 0]]))


@pytest.mark.parametrize("row", [(), (3,), (2, 2)])
def test_gather_rows_scatter_adds_in_index_order(row):
    # row 0 is picked four times and takes 1e16, 1, -1e16, 1: summed in that
    # order they give 1, summed backwards 0
    idx = np.array([[0, 1, 0], [0, 2, 0]])
    g = np.random.default_rng(21).normal(size=idx.shape + row)
    g[idx == 0] = np.array([1e16, 1.0, -1e16, 1.0]).reshape(
        (4,) + (1,) * len(row))
    want = np.zeros((3,) + row)
    np.add.at(want, idx.reshape(-1), g.reshape((idx.size,) + row))
    assert (want[0] == 1.0).all()
    with T.Tape() as tp:
        a = T.Parameter("a", np.zeros((3,) + row))
        loss = T.reduce_sum(T.mul(T.gather_rows(a, idx), T.const(g)))
    assert tp.backward(loss)["a"].tobytes() == want.tobytes()


def test_grad_reshape():
    x = np.random.default_rng(19).normal(size=(6, 2))
    _check_unary(lambda t: T.reshape(t, (3, 4)), x,
                 chain=lambda y: T.mul(y, y))


def test_reshape_to_another_size_raises():
    with pytest.raises(T.TensorError, match=r"\(6, 2\) to \(5, 1, 2\)"):
        T.reshape(T.const(np.zeros((6, 2))), (5, 1, 2))


def test_composite_chain_close_to_real_use():
    # one layer (matmul + bias + relu) -> softmax -> weighted sum, end to end
    rng = np.random.default_rng(20)
    w = rng.normal(size=(4, 3))
    x = rng.normal(size=(5, 4))
    b = rng.normal(size=3)

    def run(wv):
        with T.Tape() as tp:
            tw = T.Parameter("w", wv)
            h = T.mlp([(tw, T.const(b))], T.const(x))
            a = T.softmax_axis(h, axis=0)
            loss = T.reduce_sum(T.mul(a, h))
        return loss, tp.backward(loss)["w"]

    loss, grad = run(w)
    numeric = finite_diff(lambda v: run(v)[0].item(), w)
    assert grad_gap(grad, numeric) < TOL


def test_fanout_accumulates():
    with T.Tape() as tp:
        t = T.Parameter("t", np.array([2.0]))
        y = T.add(T.mul(t, t), T.mul(t, T.const(np.array([3.0]))))
        loss = T.reduce_sum(y)
    assert abs(tp.backward(loss)["t"][0] - 7.0) < 1e-12


def test_a_tensor_listed_twice_gets_its_gradients_in_parent_order():
    # one mlp layer over (a, a): a is listed twice among the node's
    # parents, with gradients g1 = 2**53 and g2 = -2**53; a later node has
    # already given it X = 1.  In float64 (X + g1) + g2 is 0.0, while
    # (X + g2) + g1 and X + (g1 + g2) are both 1.0
    big = 2.0 ** 53
    assert ((1.0 + big) - big, (1.0 - big) + big, 1.0 + (big - big)) \
        == (0.0, 1.0, 1.0)
    with T.Tape() as tp:
        a = T.Parameter("a", np.array([[0.5]]))
        layer = (T.const(np.array([[big], [-big]])), T.const(np.zeros(1)))
        y = T.mlp([layer], a, a, relu_last=False)
        loss = T.add(T.reduce_sum(y), T.reduce_sum(a))
    # a parameter is never tagged, so the two ids are a's one leaf
    first, second = tp.nodes[y.nid].parents[-2:]
    assert first == second and tp.nodes[first].kind == "leaf"
    assert tp.backward(loss)["a"].tolist() == [[0.0]]


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)],
                         ids=["0-d", "1", "1x1"])
def test_item_reads_a_one_element_tensor_of_any_shape(shape):
    t = T.const(np.full(shape, 2.5))
    assert t.item() == 2.5 and type(t.item()) is float
    # Tape.backward takes such a root, and a loss is read through item()
    with T.Tape() as tp:
        w = T.Parameter("w", np.full(shape, 3.0))
        loss = T.mul(w, w)
    assert loss.item() == 9.0
    assert tp.backward(loss)["w"].tolist() == np.full(shape, 6.0).tolist()


def test_item_of_more_than_one_element_raises():
    with pytest.raises(T.TensorError, match=r"one element, got shape \(2,\)"):
        T.const(np.ones(2)).item()


def test_backward_non_scalar_root_raises():
    with T.Tape() as tp:
        t = T.Parameter("t", np.ones((2, 2)))
        y = T.mul(t, t)
    with pytest.raises(T.TensorError, match="scalar"):
        tp.backward(y)


def test_two_live_tapes_rejected():
    p = T.Parameter("p", np.ones(2))
    with T.Tape() as outer:
        T.mul(p, T.const(np.ones(2)))
        with pytest.raises(T.TensorError, match="do not nest"):
            with T.Tape():
                pass
        # the outer tape still records after the failed entry
        T.mul(p, T.const(np.ones(2)))
    assert [n.kind for n in outer.nodes].count("mul") == 2


def test_matmul_shape_error_mentions_shapes():
    with pytest.raises(T.TensorError, match=r"\(2, 3\).*\(4, 2\)"):
        T.matmul(T.const(np.ones((2, 3))), T.const(np.ones((4, 2))))


def test_matmul_rejects_a_rank3_right_hand_side():
    # the right-hand side is always a weight or a constant map
    with pytest.raises(T.TensorError, match=r"\(5, 4, 2\)"):
        T.matmul(T.const(np.ones((5, 3, 4))), T.const(np.ones((5, 4, 2))))


def test_broadcast_error_mentions_op():
    with pytest.raises(T.TensorError, match="add"):
        T.add(T.const(np.ones((2, 3))), T.const(np.ones((4,))))


def test_gather_out_of_range_raises():
    a = T.const(np.ones((3, 2)))
    with pytest.raises(T.TensorError, match="out of range"):
        T.gather_rows(a, np.array([0, 3]))
    # numpy would truncate 0.7 to row 0 and read a bool as row 0 or 1
    for bad in ([0.7, 1.2], np.array([True, False])):
        with pytest.raises(T.TensorError, match="must be integers"):
            T.gather_rows(a, bad)
    # an empty list, though its numpy dtype is float, gathers no row
    assert T.gather_rows(a, []).shape == (0, 2)


def test_unreached_parameter_gets_zero_grad():
    store = T.ParamStore()
    used = store.create("used", np.ones(2))
    unused = store.create("unused", np.ones(3))
    with T.Tape() as tp:
        loss = T.reduce_sum(T.mul(used, used))
    grads = tp.backward(loss, store)
    assert np.array_equal(grads["used"], np.array([2.0, 2.0]))
    assert np.array_equal(grads["unused"], np.zeros(3))
    assert unused.value.shape == (3,)


def test_same_named_parameters_on_one_tape_raise():
    # two stores may each hold a "w"; one tape cannot tell their leaves apart,
    # so 5a + 7b would silently lose a gradient
    a = T.ParamStore().create("w", np.array([1.0]))
    b = T.ParamStore().create("w", np.array([1.0]))
    with T.Tape():
        T.mul(T.const(np.array([5.0])), a)
        with pytest.raises(T.TensorError, match="two parameters named 'w'"):
            T.mul(T.const(np.array([7.0])), b)


def test_a_tape_records_only_what_a_parameter_reaches():
    store = T.ParamStore()
    w = store.create("w", np.array([1.0, 2.0]))
    with T.Tape() as tp:
        # ops over constants only: sqrt(9 * 1), sqrt(16 * 1) = 3, 4
        x = T.sqrt(T.mul(T.const(np.array([9.0, 16.0])), T.const(1.0)))
        h = T.mul(w, x)
        loss = T.reduce_sum(T.mul(h, h))
    assert x.tape is None and x.nid is None
    assert [n.kind for n in tp.nodes] == ["leaf", "mul", "mul", "sum"]
    # the constant x has no node: its parent slot is None
    assert tp.nodes[h.nid].parents == (0, None)
    grads = tp.backward(loss, store)
    assert grads["w"].tolist() == [18.0, 64.0]
    # the parameter is keyed on the tape, never tagged with it
    assert w.tape is None


def test_an_op_over_constants_only_records_nothing():
    with T.Tape() as tp:
        y = T.mlp([(T.const(np.eye(2)), T.const(np.zeros(2)))],
                  T.const(np.ones((3, 2))))
        z = T.reduce_sum(T.gather_rows(y, np.array([0, 2])))
    assert tp.nodes == []
    assert (y.tape, y.nid, z.tape, z.nid) == (None, None, None, None)


def test_backward_from_a_root_no_parameter_reaches_raises():
    p = T.Parameter("p", np.ones(2))
    with T.Tape() as tp:
        T.reduce_sum(T.mul(p, p))
        loss = T.reduce_sum(T.mul(T.const(np.ones(2)), T.const(np.ones(2))))
    assert loss.tape is None
    with pytest.raises(T.TensorError, match="no parameter reaches it"):
        tp.backward(loss)


def test_eager_mode_without_tape():
    y = T.add(T.const(np.ones(3)), T.const(np.ones(3)))
    assert y.tape is None
    assert np.array_equal(y.data, np.full(3, 2.0))


def test_replay_bit_identical():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(8, 4))
    w = rng.normal(size=(4, 4))

    def run():
        with T.Tape() as tp:
            h = T.softmax_axis(T.matmul(T.const(x), T.Parameter("w", w)),
                               axis=1)
            loss = T.reduce_sum(T.mul(h, h))
        g = tp.backward(loss)
        return loss.item(), h.data.tobytes()

    l1, b1 = run()
    l2, b2 = run()
    assert l1 == l2 and b1 == b2


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_rows_sum_to_one(rows, cols, seed):
    x = np.random.default_rng(seed).normal(size=(rows, cols)) * 10
    y = T.softmax_axis(T.const(x), axis=1)
    assert np.allclose(y.data.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(y.data >= 0.0)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_softmax_shift_invariant(seed):
    x = np.random.default_rng(seed).normal(size=(3, 5))
    a = T.softmax_axis(T.const(x), axis=1).data
    b = T.softmax_axis(T.const(x + 123.0), axis=1).data
    assert np.allclose(a, b, atol=1e-12)


def test_checkpoint_round_trip_byte_exact():
    rng = np.random.default_rng(22)
    store = T.ParamStore()
    store.create("net/layer0/W", rng.normal(size=(4, 3)))
    store.create("net/layer0/b", rng.normal(size=(3,)))
    store.create("log_var", np.array(-2.5), trainable=True)
    blob = T.save_params(store)
    loaded = T.load_params(blob)
    assert loaded.names() == store.names()
    for p in store:
        assert np.array_equal(loaded[p.name].value, p.value)
    assert T.save_params(loaded) == blob


def test_checkpoint_bad_header_rejected():
    with pytest.raises(T.TensorError, match="header"):
        T.load_params(b"not a checkpoint\n")


def test_checkpoint_truncated_rejected():
    store = T.ParamStore()
    store.create("w", np.ones((2, 2)))
    blob = T.save_params(store)
    with pytest.raises(T.TensorError):
        T.load_params(blob[:-9])


_FIRST_HEAD = b"param pyramid/l1/mlp/0/W 1 2 3 8"


def _desk_checkpoint() -> bytes:
    return T.save_params(OdometryNet(desk_config()).store)


def _insert_blank_line_before_first_param(blob: bytes) -> bytes:
    at = blob.index(b"\nparam ") + 1
    return blob[:at] + b"\n" + blob[at:]


@pytest.mark.parametrize("corrupt", [
    lambda b: b + b"extra",
    lambda b: b.replace(b"count 196", b"count x196", 1),
    _insert_blank_line_before_first_param,
    lambda b: b.replace(b"count 196", b"count 197", 1),
    lambda b: b.replace(b"count 196", b"count", 1),
    lambda b: b.replace(_FIRST_HEAD, b"param pyramid/l1/mlp/0/W? 1 2 3 8"),
    lambda b: b.replace(_FIRST_HEAD, b"param pyramid/l1/mlp/0/W 1 3 3 8"),
    lambda b: b.replace(_FIRST_HEAD, b"param pyramid/l1/mlp/0/W 7 2 3 8"),
    lambda b: b.rstrip(b"\n"),
], ids=["trailing-bytes", "count-not-a-number", "blank-line",
        "count-too-high", "count-missing", "bad-name", "ndim-too-high",
        "trainable-not-a-flag", "no-final-newline"])
def test_malformed_checkpoint_raises_tensor_error(corrupt):
    blob = _desk_checkpoint()
    assert _FIRST_HEAD in blob and len(T.load_params(blob)) == 196
    bad = corrupt(blob)
    assert bad != blob
    with pytest.raises(T.TensorError):
        T.load_params(bad)


def test_duplicate_parameter_name_rejected():
    store = T.ParamStore()
    store.create("w", np.ones(2))
    with pytest.raises(T.TensorError, match="duplicate"):
        store.create("w", np.ones(2))
