import numpy as np
import pytest

import checks
import scans
import worker
from lidom import tensor as T
from lidom.net import OdometryNet, desk_config


@pytest.fixture(scope="module")
def run():
    model = OdometryNet(desk_config())
    pair = scans.make_pair(scans.DESK, 0)
    return model, pair


def _out(run):
    model, pair = run
    return model.forward(pair.pc1, pair.pc2)


def test_good_output_passes(run):
    assert checks.check_output(_out(run), run[0].cfg) == []


def test_nan_pose_is_rejected(run):
    out = _out(run)
    out.levels[2].t.data[1] = np.nan
    assert checks.check_output(out, run[0].cfg)


def test_swapped_levels_are_rejected(run):
    out = _out(run)
    out.levels[0], out.levels[1] = out.levels[1], out.levels[0]
    assert checks.check_output(out, run[0].cfg)


def test_missing_level_is_rejected(run):
    out = _out(run)
    out.levels.pop()
    assert checks.check_output(out, run[0].cfg)


def test_non_unit_quaternion_is_rejected(run):
    out = _out(run)
    out.levels[3].q.data *= 1.0 + 1e-9
    assert checks.check_output(out, run[0].cfg)


def test_reference_and_cross_checks(run):
    poses = checks.pose_array(_out(run))
    ref = {"digest": "abc", "poses": poses.tolist()}
    assert checks.check_reference(poses, "abc", ref) == []
    assert checks.check_reference(poses, "other", ref)
    moved = poses.copy()
    moved[0, 4] += 1e-6
    assert checks.check_reference(moved, "abc", ref)
    assert checks.check_same(poses, poses.copy()) == []
    assert checks.check_same(poses, moved)


def test_gradient_check(run):
    model, pair = run
    _, _, _, grads = worker.run_step(model, pair, train=True)
    ref = checks.grad_summary(grads, model.store)
    assert checks.check_grads(grads, model.store, ref) == []
    name = max(ref, key=lambda n: ref[n][0])
    g = grads[name]
    flipped = g.ravel()[::-1].reshape(g.shape)
    for bad in (-g, g * (1.0 + 1e-4), np.zeros_like(g), g + np.nan, flipped):
        assert checks.check_grads({**grads, name: bad}, model.store, ref)
    del grads[name]
    assert checks.check_grads(grads, model.store, ref)


def test_taped_forward_matches_eager(run):
    model, pair = run
    with T.Tape():
        taped = checks.pose_array(model.forward(pair.pc1, pair.pc2))
    assert checks.check_same(checks.pose_array(_out(run)), taped) == []
