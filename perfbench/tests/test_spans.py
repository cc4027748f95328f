import gc
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import lidom.costvol
import lidom.headmask
import lidom.net
import lidom.pcops
import scans
import spans as S
import worker
from lidom.net import OdometryNet, desk_config

LEVELS = [n for n, _ in desk_config().levels()]


@pytest.fixture(scope="module")
def model():
    return OdometryNet(desk_config())


def _traced_step(model, train):
    tracer = S.Tracer()
    totals = defaultdict(float) if train else None
    tracer.install()
    try:
        pair = scans.make_pair(scans.DESK, 1)
        result = worker.run_step(model, pair, train, tracer, totals)
    finally:
        tracer.uninstall()
    return tracer, result, totals


@pytest.mark.parametrize("train", [False, True])
def test_self_times_add_up_to_the_pair(model, train):
    tracer, (elapsed, *_), _ = _traced_step(model, train)
    root = tracer.spans[0]
    assert root.name == "bench.pair" and root.parent is None
    assert sum(S.self_times(tracer.spans)) == pytest.approx(root.duration, rel=1e-9)
    m = defaultdict(float, S.layer_metrics(tracer.spans, LEVELS))
    parts = sum(m[name] for name in S.SELF_TIME_PARTITION)
    assert parts == pytest.approx(m["bench.pair_s"], rel=1e-9)
    assert m["bench.pair_s"] <= elapsed
    assert all(m[name] >= 0.0 for name in S.SELF_TIME_PARTITION)
    stages = sum(m[f"net.pyramid.l{i}_s"] for i in range(1, 5)) + m["net.init_s"] \
        + sum(m[f"headmask.warp_refine.l{i}_s"] for i in (3, 2, 1))
    assert 0.0 < stages <= m["net.forward_s"]


def test_counts_match_the_network(model):
    tracer, _, _ = _traced_step(model, train=False)
    m = S.layer_metrics(tracer.spans, LEVELS)
    # two clouds through four pyramid levels
    assert m["pcops.fps_picks"] == 2 * sum(LEVELS)
    # 8 pyramid set_convs, carry set_conv, 4 cost volumes x 2, 3 upconvs x 2
    assert m["pcops.knn_calls"] == 8 + 1 + 8 + 6
    assert m["pcops.knn_dist_evals"] > 0
    assert m.get("geom.tape_nodes", 0) == 0   # eager: nothing recorded


def test_uninstall_restores_every_binding(model):
    before = (lidom.pcops.knn_indices, lidom.costvol.knn_indices,
              lidom.net.set_conv, lidom.headmask.set_upconv,
              lidom.net.OdometryNet.forward, lidom.costvol.CostVolume.__call__)
    tracer = S.Tracer()
    tracer.install()
    assert lidom.costvol.knn_indices is not before[1]
    assert lidom.pcops.knn_indices is lidom.costvol.knn_indices
    tracer.uninstall()
    after = (lidom.pcops.knn_indices, lidom.costvol.knn_indices,
             lidom.net.set_conv, lidom.headmask.set_upconv,
             lidom.net.OdometryNet.forward, lidom.costvol.CostVolume.__call__)
    assert all(a is b for a, b in zip(before, after))


def test_tape_statistics_and_retention(model):
    tracer, (_, out, tape, grads), totals = _traced_step(model, train=True)
    params = [p.value for p in model.store]
    counts = S.tape_node_counts(tape)
    assert counts["tensor.tape_nodes"] == len(tape.nodes)
    reach = S.Reach(params)
    held = S.tape_bytes(tape, reach)
    assert held["tensor.tape_mb"] > 0.0
    assert S.Reach(params).bytes_from(tape) / S.MIB > held["tensor.tape_mb"]
    assert reach.bytes_from(tape) > 0        # gradients kept on the tape
    assert sum(S.backward_by_kind(totals).values()) > 0.0
    del tracer, out, tape, grads
    gc.collect()
    # parameters still point at the finished tape
    assert S.Reach(params).bytes_from(model.store) > 0


def test_run_refuses_a_tree_without_sources(tmp_path):
    here = Path(worker.__file__).resolve().parent
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in here.glob("*.py"):
        (copy / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload",
                           "full_infer", "--seed", "0", "--seconds", "1"],
                          capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
