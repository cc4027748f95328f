"""Whole-network input guards, config validation, the paper's ablations,
the work a forward does, the tape's lifetime and a whole-network gradient
check."""
import gc
import os
import subprocess
import sys
import textwrap
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import lidom.geom
import lidom.headmask
import lidom.net
from conftest import grad_gap
from lidom import tensor as T
from lidom import workers as W
from lidom.costvol import CostVolume
from lidom.net import NetError, OdometryNet, desk_config
from lidom.pcops import FcStack, PcopsError, SharedMLP


def _scans(seed=0, n=600):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3)), rng.normal(size=(n, 3))


def _poses(out):
    return np.array([np.concatenate([lv.q.data, lv.t.data])
                     for lv in out.levels])


def _pose_loss(out):
    """Weighted squared pose error per level, coarse to fine, against a
    fixed motion."""
    q_gt = T.const(np.array([0.999, 0.0, 0.0447, 0.0]))
    t_gt = T.const(np.array([0.3, -0.1, 0.05]))
    total = None
    for w, lv in zip((1.6, 0.8, 0.4, 0.2), out.levels):
        dq, dt = T.sub(lv.q, q_gt), T.sub(lv.t, t_gt)
        term = T.add(T.reduce_sum(T.mul(dt, dt)),
                     T.mul(T.const(10.0), T.reduce_sum(T.mul(dq, dq))))
        term = T.mul(T.const(w), term)
        total = term if total is None else T.add(total, term)
    return total


def _train_step(net, pc1, pc2):
    with T.Tape() as tape:
        out = net.forward(pc1, pc2)
        loss = _pose_loss(out)
    return tape, out, loss, tape.backward(loss, net.store)


def test_forward_rejects_a_nan_point():
    pc1, pc2 = _scans()
    net = OdometryNet(desk_config())
    net.forward(pc1, pc2)
    pc1[123, 1] = np.nan
    with pytest.raises(NetError, match="pc1"):
        net.forward(pc1, pc2)


def test_forward_rejects_a_scan_with_fewer_distinct_points_than_level_1():
    # 100 points drawn with replacement up to n_input = 512 cannot give the
    # 128 distinct level-1 centers
    pc = np.random.default_rng(1).normal(size=(100, 3))
    with pytest.raises(NetError, match="pc1: cannot sample 128 distinct"):
        OdometryNet(desk_config()).forward(pc, pc)


def test_forward_rejects_a_pc2_with_fewer_distinct_points_than_level_1(
        monkeypatch):
    pc1 = _scans()[0]
    few = np.random.default_rng(1).normal(size=(100, 3))
    calls = _counting(monkeypatch, lidom.net, "sample_pyramid")
    net = OdometryNet(desk_config())
    # pc2 is sampled in the sampler process; its error crosses the pipe
    # with its type and message
    with pytest.raises(NetError, match="pc2: cannot sample 128 distinct") \
            as info:
        net.forward(pc1, few)
    assert isinstance(info.value.__cause__, PcopsError)
    assert len(calls) == 1
    # pc1's error comes first, with pc2's request still in flight
    with pytest.raises(NetError, match="pc1: cannot sample 128 distinct"):
        net.forward(few, few)
    # which no later request reads: that reply is an error
    fresh = OdometryNet(desk_config()).forward(*_scans())
    assert _poses(net.forward(*_scans())).tobytes() == \
        _poses(fresh).tobytes()


@pytest.mark.parametrize("key, value, match", [
    ("n2", 4096, "must not increase"),
    ("knn_k", 17, "knn_k=17 exceeds"),
    ("first_embedding", "first", "first_embedding"),
    ("cost_volume_mode", "banana", "cost_volume_mode"),
    ("knn_k", 0, "knn_k must be positive, got 0"),
    ("knn_k", -1, "knn_k must be positive, got -1"),
    ("cv_k1", 0, "cv_k1 must be positive"),
    ("cv_k2", 0, "cv_k2 must be positive"),
    ("up_k", 0, "up_k must be positive"),
    ("fc_hidden1", 0, "fc_hidden1 must be positive"),
    ("fc_hidden2", 0, "fc_hidden2 must be positive"),
    # a truthy string is no flag: it would build the masked model
    ("use_mask", "no", "use_mask must be a bool, got 'no'"),
    ("use_warp", 0, "use_warp must be a bool, got 0"),
    ("n1", 128.0, "n1 must be an integer, got 128.0"),
    ("cv_k1", 4.0, "cv_k1 must be an integer, got 4.0"),
    ("knn_k", True, "knn_k must be an integer, got True"),
    ("c2", np.float64(16), "c2 must be an integer"),
    ("fc_hidden1", "64", "fc_hidden1 must be an integer"),
    ("init_seed", -1, "init_seed must be non-negative, got -1"),
    ("init_seed", 1.0, "init_seed must be an integer, got 1.0"),
])
def test_config_rejects(key, value, match):
    with pytest.raises(NetError, match=match):
        OdometryNet(desk_config(**{key: value}))


def test_config_accepts_numpy_integers_and_bools():
    ints = {k: np.int64(v) for k, v in vars(desk_config()).items()
            if isinstance(v, int) and not isinstance(v, bool)}
    net = OdometryNet(desk_config(**ints, use_warp=np.bool_(True)))
    out = net.forward(*_scans())
    assert _poses(out).tobytes() == \
        _poses(OdometryNet(desk_config()).forward(*_scans())).tobytes()


# each ablation with the parameter-name fragment it removes
ABLATIONS = [
    ({}, ()),
    ({"cost_volume_mode": "uniform"}, ("/u1/", "/u2/")),
    ({"use_mask": False}, ("/mask/",)),
    ({"optimize_mask": False}, ("up_m",)),
    ({"use_warp": False}, ()),
    ({"use_warp_refinement": False}, ("refine/",)),
    ({"first_embedding": "last"}, ("init/carry",)),
]


@pytest.mark.parametrize("overrides, gone", ABLATIONS,
                         ids=[next(iter(o), "full") for o, _ in ABLATIONS])
def test_ablation_forward_and_parameters(overrides, gone):
    net = OdometryNet(desk_config(**overrides))
    out = net.forward(*_scans())
    expect = [4] if overrides.get("use_warp_refinement") is False \
        else [4, 3, 2, 1]
    assert [lv.level for lv in out.levels] == expect
    poses = _poses(out)
    assert np.isfinite(poses).all()
    assert np.allclose(np.linalg.norm(poses[:, :4], axis=1), 1.0, atol=1e-12)
    names = net.store.names()
    full = OdometryNet(desk_config()).store.names()
    for frag in gone:
        assert any(frag in n for n in full), frag
        assert not any(frag in n for n in names), frag
    # the same seed builds the same network, so poses match bit for bit
    again = OdometryNet(desk_config(**overrides)).forward(*_scans())
    assert _poses(again).tobytes() == poses.tobytes()


@pytest.mark.parametrize("overrides", [o for o, _ in ABLATIONS],
                         ids=[next(iter(o), "full") for o, _ in ABLATIONS])
def test_eager_forward_equals_taped_bit_for_bit(overrides):
    # eager ops skip what only backward reads (argmaxes, relu masks); what
    # they compute must not differ
    net = OdometryNet(desk_config(**overrides))
    pc1, pc2 = _scans()
    eager = net.forward(pc1, pc2)
    with T.Tape() as tape:
        taped = net.forward(pc1, pc2)
    assert len(tape.nodes) > 0
    for e, t in zip(eager.levels, taped.levels, strict=True):
        assert e.q.tape is None and t.q.tape is tape
        for a, b in ((e.q, t.q), (e.t, t.t), (e.embedding, t.embedding),
                     (e.mask, t.mask)):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.data.tobytes() == b.data.tobytes()


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("first, fps_calls", [("penultimate", 4 + 3),
                                              ("last", 4 + 4)])
def test_pyramid_runs_only_the_levels_that_are_read(monkeypatch, first,
                                                    fps_calls):
    # a penultimate first embedding and every refinement step read pc2's
    # levels 3-1 only, so its coarsest level is neither sampled nor built
    pyramids = _counting(monkeypatch, OdometryNet, "_run_pyramid")
    convs = _counting(monkeypatch, lidom.net, "set_conv")
    OdometryNet(desk_config(first_embedding=first)).forward(*_scans())
    # one FPS per (centers, nbr) table: pc1's from this process, pc2's from
    # the sampler
    assert [len(tables) for _, _, tables in pyramids] == \
        [4, fps_calls - 4]
    # the penultimate embedding adds the carry set_conv to the pyramid's
    assert len(convs) == fps_calls + (first == "penultimate")


def _check_taped_pair_nodes(monkeypatch, mode):
    mlps = _counting(monkeypatch, SharedMLP, "__call__")
    handed = _counting(monkeypatch, SharedMLP, "tensors")
    fcs = _counting(monkeypatch, FcStack, "__call__")
    cvs = _counting(monkeypatch, CostVolume, "__call__")
    net = OdometryNet(desk_config(cost_volume_mode=mode))
    tape = _train_step(net, *_scans())[0]
    kinds = [node.kind for node in tape.nodes]
    n_fc = sum(len(fc.layers) for fc, *_ in fcs)
    assert kinds.count("mlp") == len(mlps) + n_fc and len(mlps) > 0 < n_fc
    # an attentive cost volume is two attend nodes, one per stage, and each
    # of them takes the tensors of two SharedMLPs, u and v, that record no
    # mlp node; a uniform stage is its v's mlp node, a sum and a mul
    attends = 2 * len(cvs) if mode == "attentive" else 0
    assert len(cvs) > 0 and kinds.count("attend") == attends
    assert len(handed) == len(mlps) + 2 * attends
    # the pair records every kind the op set has, attend only if attentive,
    # and no other
    ops = {"leaf", "add", "sub", "mul", "div", "sqrt", "matmul", "mlp",
           "softmax", "sum", "reshape", "gather"}
    assert set(kinds) == ops | ({"attend"} if attends else set())


def test_a_taped_pair_records_one_node_per_mlp_and_per_fc_layer(monkeypatch):
    _check_taped_pair_nodes(monkeypatch, "attentive")


def test_a_uniform_taped_pair_records_no_attend_node(monkeypatch):
    _check_taped_pair_nodes(monkeypatch, "uniform")


@pytest.mark.parametrize("overrides", [o for o, _ in ABLATIONS],
                         ids=[next(iter(o), "full") for o, _ in ABLATIONS])
def test_a_taped_pair_has_a_leaf_per_parameter_it_uses_and_no_other(
        monkeypatch, overrides):
    # T.mlp and T.attend are the only ops handed parameters: their layers
    handed = [_counting(monkeypatch, T, op) for op in ("mlp", "attend")]
    net = OdometryNet(desk_config(**overrides))
    with T.Tape() as tape:
        loss = _pose_loss(net.forward(*_scans()))
    used = {p.name for calls in handed for args in calls for stack in args
            if isinstance(stack, list) for layer in stack for p in layer}
    assert used == set(net.store.names())
    leaves = [node for node in tape.nodes if node.kind == "leaf"]
    assert len(leaves) == len(used)
    # without a store, backward covers the parameters on the tape only
    assert set(tape.backward(loss)) == used
    # every other node has a parent a parameter reaches
    assert all(any(pid is not None for pid in node.parents)
               for node in tape.nodes if node.kind != "leaf")


@pytest.mark.parametrize("overrides", [o for o, _ in ABLATIONS],
                         ids=[next(iter(o), "full") for o, _ in ABLATIONS])
def test_every_rotated_quaternion_is_unit(monkeypatch, overrides):
    # rotate_points_t does not normalize q, so each caller must hand it a
    # unit one: warp_refine the coarse pose, pose_compose_t pose_head's dq
    calls = _counting(monkeypatch, lidom.geom, "rotate_points_t")
    monkeypatch.setattr(lidom.headmask, "rotate_points_t",
                        lidom.geom.rotate_points_t)
    OdometryNet(desk_config(**overrides)).forward(*_scans())
    refine = overrides.get("use_warp_refinement", True)
    warp = overrides.get("use_warp", True)
    assert len(calls) == 3 * refine * (1 + warp)
    for q, *_ in calls:
        assert abs(np.linalg.norm(q.data) - 1.0) <= 1e-15


def test_no_warp_changes_the_refined_poses():
    full = _poses(OdometryNet(desk_config()).forward(*_scans()))
    no_warp = _poses(OdometryNet(desk_config(use_warp=False))
                     .forward(*_scans()))
    # level 4 is estimated before any warp, so it is unchanged
    assert full[0].tobytes() == no_warp[0].tobytes()
    assert not np.allclose(full[1:], no_warp[1:], atol=1e-9)


def test_a_dropped_tape_is_freed_without_the_cycle_collector():
    net = OdometryNet(desk_config())
    pc1, pc2 = _scans()
    gc.disable()
    try:
        tape, out, loss, grads = _train_step(net, pc1, pc2)
        first = {k: g.copy() for k, g in grads.items()}
        ref = weakref.ref(tape)
        del tape, out, loss, grads
        # parameters hold no reference to the finished tape, and no closure
        # on it holds a Tensor, so reference counting alone frees it
        assert ref() is None
    finally:
        gc.enable()
    # a fresh tape on the same parameters gives the same gradients
    grads = _train_step(net, pc1, pc2)[3]
    assert grads.keys() == first.keys()
    for name, g in grads.items():
        assert g.tobytes() == first[name].tobytes(), name


@pytest.mark.parametrize("other", ["eager", "taped"])
def test_a_tape_records_only_its_own_thread(other):
    # a second thread forwards, eagerly or under its own tape, while this
    # thread's tape records: each tape gets only its own thread's ops, and
    # both steps keep the node counts and bits they have when run alone
    net = OdometryNet(desk_config())
    pc1, pc2 = _scans()
    scans2 = _scans(seed=1)
    tape, _, _, grads = _train_step(net, pc1, pc2)
    tape2, out2, _, grads2 = _train_step(net, *scans2)
    nodes, nodes2, poses2 = len(tape.nodes), len(tape2.nodes), _poses(out2)
    got, errors = [], []

    def run():
        try:
            got.append(_train_step(net, *scans2) if other == "taped"
                       else (None, net.forward(*scans2), None, None))
        except BaseException as e:
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with T.Tape() as tape:
            thread = threading.Thread(target=run)
            thread.start()
            loss = _pose_loss(net.forward(pc1, pc2))
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive() and errors == []
    (tape2, out2, _, now2), = got
    assert len(tape.nodes) == nodes
    assert _poses(out2).tobytes() == poses2.tobytes()
    if other == "eager":
        assert all(t.tape is None for lv in out2.levels
                   for t in (lv.q, lv.t, lv.embedding, lv.mask))
    else:
        assert len(tape2.nodes) == nodes2
        assert all(t.tape is tape2 for lv in out2.levels for t in (lv.q, lv.t))
        for name, g in grads2.items():
            assert g.tobytes() == now2[name].tobytes(), name
    now = tape.backward(loss, net.store)
    assert now.keys() == grads.keys()
    for name, g in grads.items():
        assert g.tobytes() == now[name].tobytes(), name


def _spare_gradients(tape):
    """Wrap every node's backward_fn so that it collects (kind, array) for
    each array it returns for a constant (None) parent; returns that
    list."""
    spare = []

    def wrap(node, fn):
        def run(g):
            pgs = fn(g)
            spare.extend((node.kind, pg) for pid, pg in zip(node.parents, pgs)
                         if pid is None and pg is not None)
            return pgs
        return run

    for node in tape.nodes:
        if node.backward_fn is not None:
            node.backward_fn = wrap(node, node.backward_fn)
    return spare


def test_backward_computes_no_gradient_for_a_constant_input(monkeypatch):
    net = OdometryNet(desk_config())
    pc1, pc2 = _scans()

    def step():
        with T.Tape() as tape:
            loss = _pose_loss(net.forward(pc1, pc2))
        spare = _spare_gradients(tape)
        return tape.backward(loss, net.store), spare

    grads, spare = step()
    assert spare == []
    # as if a parameter reached every input: each op also differentiates its
    # constant inputs (edge offsets, cloud coordinates, constant maps), the
    # tape drops those arrays, and the parameters' gradients keep their bits
    monkeypatch.setattr(T, "_reached", lambda t: T._ACTIVE.tape is not None)
    every, spare = step()
    assert {"mlp", "attend", "sub", "matmul"} <= {
        kind for kind, _ in spare}
    assert grads.keys() == every.keys()
    for name, g in grads.items():
        assert g.tobytes() == every[name].tobytes(), name


def test_whole_network_gradient_matches_central_differences():
    """Central differences of the four-level pose loss against backward()
    on 24 parameter entries sampled with a fixed rng.

    Every bias first gets a fixed small random offset.  With zero biases
    each centre's self-neighbour (rel = 0) feeds exactly 0 into a ReLU, and
    finite differences across that kink read half the slope (at zero biases
    pyramid/l1/mlp/1/b is off by over 20%).
    """
    net = OdometryNet(desk_config())
    rng = np.random.default_rng(0)
    for p in net.store:
        if p.name.endswith("/b"):
            p.value = p.value + 0.05 * rng.standard_normal(p.value.shape)
    pc1, pc2 = _scans()
    grads = _train_step(net, pc1, pc2)[3]
    params = list(net.store)
    h = 1e-5
    for i in rng.choice(len(params), 24, replace=False):
        p = params[i]
        j = tuple(int(rng.integers(n)) for n in p.value.shape)
        base = p.value
        loss = []
        for step in (h, -h):
            moved = base.copy()
            moved[j] += step
            p.value = moved
            loss.append(_pose_loss(net.forward(pc1, pc2)).item())
        p.value = base
        numeric = (loss[0] - loss[1]) / (2.0 * h)
        gap = grad_gap(np.array([grads[p.name][j]]), np.array([numeric]))
        assert gap < 1e-4, (p.name, j, grads[p.name][j], numeric)


def _outputs(out):
    """Every array a forward hands back, level by level."""
    return [a.tobytes() for lv in out.levels
            for a in (lv.coords, lv.q.data, lv.t.data, lv.embedding.data,
                      lv.mask.data if lv.mask is not None else np.empty(0))]


@pytest.mark.parametrize("overrides", [o for o, _ in ABLATIONS],
                         ids=[next(iter(o), "full") for o, _ in ABLATIONS])
def test_the_sampler_gives_the_bits_of_sampling_in_process(monkeypatch,
                                                           overrides):
    net = OdometryNet(desk_config(**overrides))
    pc1, pc2 = _scans()
    calls = _counting(monkeypatch, lidom.net, "sample_pyramid")

    def both():
        eager = net.forward(pc1, pc2)
        tape, taped, _, grads = _train_step(net, pc1, pc2)
        return _outputs(eager), _outputs(taped), grads

    eager, taped, grads = both()
    assert len(calls) == 2   # pc1's, per forward: pc2's ran in the sampler
    # a request in flight holds the lock, so a forward samples in process
    with W.SAMPLER._lock:
        serial = both()
    assert len(calls) == 6
    assert eager == serial[0] and taped == serial[1] and eager == taped
    assert grads.keys() == serial[2].keys()
    for name, g in grads.items():
        assert g.tobytes() == serial[2][name].tobytes(), name


@pytest.mark.parametrize("fan_out", [False, True],
                         ids=["cache-blocks", "every-op-fans-out"])
def test_forwards_on_threads_get_their_own_pc2_tables(monkeypatch, fan_out):
    # one thread's request holds the sampler, the others sample in process;
    # a reply read by the wrong request would change that forward's poses.
    # With blocks of a row or two and KNN chunks of a query or two, every
    # mlp, attend and KNN call splits its work, and the six threads share
    # the one helper thread
    nets = [OdometryNet(desk_config(init_seed=i)) for i in range(2)]
    jobs = [(nets[i % 2], *_scans(seed=i)) for i in range(6)]
    want = [_poses(net.forward(pc1, pc2)).tobytes() for net, pc1, pc2 in jobs]
    if fan_out:
        monkeypatch.setattr(W, "BLOCK_ELEMS", 1 << 8)
    got = [[] for _ in jobs]

    def run(i):
        for _ in range(3):
            got[i].append(_poses(jobs[i][0].forward(*jobs[i][1:])).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 3 for w in want]


def test_a_sampler_that_cannot_start_samples_in_process(monkeypatch,
                                                        tmp_path):
    want = _poses(OdometryNet(desk_config()).forward(*_scans())).tobytes()
    W.SAMPLER.close()
    calls = _counting(monkeypatch, lidom.net, "sample_pyramid")
    monkeypatch.setattr(sys, "executable", str(tmp_path / "no-python"))
    net = OdometryNet(desk_config())
    assert _poses(net.forward(*_scans())).tobytes() == want
    assert len(calls) == 2 and W.SAMPLER._proc is None
    monkeypatch.undo()
    assert _poses(net.forward(*_scans())).tobytes() == want
    assert W.SAMPLER._proc is not None


# No `if __name__ == "__main__"` guard: a sampler started through
# multiprocessing's spawn would re-run this whole script
LIFECYCLE_SCRIPT = """
import sys
import threading
import numpy as np
sys.path.insert(0, {src!r})
import lidom.net as N
import lidom.workers as W

def poses(net):
    rng = np.random.default_rng(0)
    out = net.forward(rng.normal(size=(600, 3)), rng.normal(size=(600, 3)))
    return b"".join(lv.q.data.tobytes() + lv.t.data.tobytes()
                    for lv in out.levels)

def started():
    return threading.active_count() - 1, W.SAMPLER._proc is not None

def loaded():   # what the helper and the sampler import when they start
    return [m for m in ("subprocess", "concurrent.futures")
            if m in sys.modules]

assert started() == (0, False)   # importing starts nothing
assert loaded() == []            # nor imports what starting needs
net = N.OdometryNet(N.desk_config())
assert started() == (0, False)   # nor does building a network
assert loaded() == []
W.BLOCK_ELEMS = 1 << 10         # so that desk_config's stacks split
first = poses(net)
assert started() == (1, True)    # the first forward starts both
assert loaded() == ["subprocess", "concurrent.futures"]
proc = W.SAMPLER._proc
print(proc.pid)
proc.kill()
proc.wait()
assert poses(net) == first   # sampled in this process: the sampler died
assert W.SAMPLER._proc is None
assert poses(net) == first   # by a new sampler
print(W.SAMPLER._proc.pid)
"""


def test_the_sampler_exits_with_its_process_and_survives_a_kill(tmp_path):
    src = Path(lidom.net.__file__).resolve().parents[1]
    script = tmp_path / "two_forwards.py"
    script.write_text(textwrap.dedent(LIFECYCLE_SCRIPT.format(src=str(src))))
    run = subprocess.run([sys.executable, "-W", "error", str(script)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    pids = [int(line) for line in run.stdout.split()]
    assert len(pids) == 2 and pids[0] != pids[1]
    for pid in pids:   # the killed sampler and the one atexit reaped
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


FORK_SCRIPT = """
import os
import select
import signal
import sys
import threading
import time
import warnings
import numpy as np
sys.path.insert(0, {src!r})
import lidom.net as N
import lidom.workers as W

def poses(net):
    rng = np.random.default_rng(0)
    out = net.forward(rng.normal(size=(600, 3)), rng.normal(size=(600, 3)))
    return b"".join(lv.q.data.tobytes() + lv.t.data.tobytes()
                    for lv in out.levels)

W.BLOCK_ELEMS = 1 << 10         # so that desk_config's stacks split
net = N.OdometryNet(N.desk_config())
first = poses(net)
assert threading.active_count() == 2
parent_sampler = W.SAMPLER._proc.pid
print(parent_sampler, flush=True)
ready_r, ready_w = os.pipe()     # the child's sampler pid, once it forwarded
done_r, done_w = os.pipe()       # EOF once the parent has closed its sampler
with warnings.catch_warnings():  # forking with a thread running is the test
    warnings.simplefilter("ignore", DeprecationWarning)
    pid = os.fork()
if pid == 0:
    # the child has no copy of the helper thread, so its first split op
    # must start its own, as its first forward starts its own sampler
    ok = False
    try:
        os.close(ready_r)
        os.close(done_w)
        ok = (poses(net) == first and threading.active_count() == 2
              and W.SAMPLER._proc.pid != parent_sampler)
        os.write(ready_w, b"%d\\n" % W.SAMPLER._proc.pid)
        os.read(done_r, 1)
        W.SAMPLER.close()
    finally:
        os._exit(0 if ok else 1)
os.close(ready_w)
os.close(done_r)

def fail(why):
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    sys.exit(why)

if not select.select([ready_r], [], [], 60)[0]:
    fail("the forked child's forward did not finish")
line = os.read(ready_r, 64)
if line:
    print(line.decode().strip(), flush=True)
    # the living child holds no copy of the sampler's stdin, so the sampler
    # sees EOF at once and close() need not wait for its kill
    start = time.monotonic()
    W.SAMPLER.close()
    took = time.monotonic() - start
    if took > W._EXIT_TIMEOUT_S / 4:
        fail(f"closing the sampler took {{took:.2f}} s beside a forked child")
os.close(done_w)
deadline = time.monotonic() + 60
while True:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        break
    if time.monotonic() > deadline:
        fail("the forked child did not exit")
    time.sleep(0.05)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def test_a_forked_child_starts_its_own_helper_thread(tmp_path):
    src = Path(lidom.net.__file__).resolve().parents[1]
    script = tmp_path / "fork.py"
    script.write_text(textwrap.dedent(FORK_SCRIPT.format(src=str(src))))
    # the child lets go of its copy of the parent's sampler handle with no
    # ResourceWarning: it closes its copies of the pipes and reaps nothing
    run = subprocess.run([sys.executable, "-W", "error::ResourceWarning",
                          str(script)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    pids = [int(line) for line in run.stdout.split()]
    assert len(pids) == 2 and pids[0] != pids[1]
    for pid in pids:   # the parent's and the child's samplers
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


LOCKED_FORK_SCRIPT = """
import os
import sys
import threading
import warnings
import numpy as np
sys.path.insert(0, {src!r})
import lidom.net as N
import lidom.workers as W

def poses(net):
    rng = np.random.default_rng(0)
    out = net.forward(rng.normal(size=(600, 3)), rng.normal(size=(600, 3)))
    return b"".join(lv.q.data.tobytes() + lv.t.data.tobytes()
                    for lv in out.levels)

net = N.OdometryNet(N.desk_config())
first = poses(net)
# another thread holds the sampler's lock, as it does with a pc2 request
# in flight, when this thread forks
held, release = threading.Event(), threading.Event()

def hold():
    with W.SAMPLER._lock:
        held.set()
        release.wait(timeout=60)

holder = threading.Thread(target=hold)
holder.start()
held.wait(timeout=60)
with warnings.catch_warnings():  # forking with a thread running is the test
    warnings.simplefilter("ignore", DeprecationWarning)
    pid = os.fork()
if pid == 0:
    # the child's lock is its own, so its forward sends pc2 to a sampler
    # of its own instead of sampling in process
    ok = False
    try:
        ok = poses(net) == first and W.SAMPLER._proc is not None
        W.SAMPLER.close()
    finally:
        os._exit(0 if ok else 1)
_, status = os.waitpid(pid, 0)
release.set()
holder.join()
sys.exit(os.waitstatus_to_exitcode(status))
"""


def test_a_child_forked_while_the_sampler_lock_is_held_starts_a_sampler(
        tmp_path):
    src = Path(lidom.net.__file__).resolve().parents[1]
    script = tmp_path / "fork_locked.py"
    script.write_text(textwrap.dedent(
        LOCKED_FORK_SCRIPT.format(src=str(src))))
    run = subprocess.run([sys.executable, "-W", "error::ResourceWarning",
                          str(script)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stderr == "", run.stderr


NO_FORWARD_FORK_SCRIPT = """
import os
import sys
import time
import warnings
import numpy as np
sys.path.insert(0, {src!r})
import lidom.net as N
import lidom.workers as W

rng = np.random.default_rng(0)
N.OdometryNet(N.desk_config()).forward(rng.normal(size=(600, 3)),
                                       rng.normal(size=(600, 3)))
print(W.SAMPLER._proc.pid, flush=True)
done_r, done_w = os.pipe()       # EOF once the parent has closed its sampler
with warnings.catch_warnings():  # forking with the helper thread running
    warnings.simplefilter("ignore", DeprecationWarning)
    pid = os.fork()
if pid == 0:
    # the child never forwards: it sleeps until the parent is done
    os.close(done_w)
    os.read(done_r, 1)
    os._exit(0)
os.close(done_r)
start = time.monotonic()
W.SAMPLER.close()
print(time.monotonic() - start, flush=True)
os.close(done_w)
os.waitpid(pid, 0)
"""


def test_a_forked_child_that_never_forwards_does_not_delay_close(tmp_path):
    # the child lets go of its copies of the sampler pipes at the fork, so
    # the sampler sees EOF as soon as the parent closes its own
    src = Path(lidom.net.__file__).resolve().parents[1]
    script = tmp_path / "fork_idle.py"
    script.write_text(textwrap.dedent(
        NO_FORWARD_FORK_SCRIPT.format(src=str(src))))
    run = subprocess.run([sys.executable, "-W", "error::ResourceWarning",
                          str(script)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    pid, took = run.stdout.split()
    assert float(took) < W._EXIT_TIMEOUT_S / 4
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid), 0)


SHUTDOWN_SCRIPT = """
import sys
import threading
import numpy as np
sys.path.insert(0, {src!r})
import lidom.net as N
import lidom.workers as W

def poses(net):
    rng = np.random.default_rng(0)
    out = net.forward(rng.normal(size=(600, 3)), rng.normal(size=(600, 3)))
    return b"".join(lv.q.data.tobytes() + lv.t.data.tobytes()
                    for lv in out.levels)

def late():
    threading.main_thread().join()   # the interpreter is shutting down
    print(poses(net).hex(), flush=True)

W.BLOCK_ELEMS = 1 << 10         # so that desk_config's stacks split
net = N.OdometryNet(N.desk_config())
if {warm}:                       # start the helper before shutdown
    print(poses(net).hex(), flush=True)
threading.Thread(target=late).start()
"""


@pytest.mark.parametrize("warm", [True, False],
                         ids=["helper-started", "helper-never-started"])
def test_a_thread_forwards_after_the_main_thread_returned(tmp_path, warm):
    # once shutdown begins no helper takes a job, so the forward runs every
    # split op on its own thread, with the same poses
    src = Path(lidom.net.__file__).resolve().parents[1]
    script = tmp_path / "late.py"
    script.write_text(textwrap.dedent(
        SHUTDOWN_SCRIPT.format(src=str(src), warm=warm)))
    run = subprocess.run([sys.executable, "-W", "error", str(script)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    rng = np.random.default_rng(0)
    out = OdometryNet(desk_config()).forward(rng.normal(size=(600, 3)),
                                             rng.normal(size=(600, 3)))
    want = b"".join(lv.q.data.tobytes() + lv.t.data.tobytes()
                    for lv in out.levels).hex()
    assert run.stdout.split() == [want] * (2 if warm else 1)
