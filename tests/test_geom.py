"""Pose algebra: algebraic identities, input guards, tensor-mode grads."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_diff, grad_gap
from lidom import geom as G
from lidom import tensor as T

seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)


def random_quat(rng) -> G.Quaternion:
    v = rng.normal(size=4)
    return G.quat_normalize(G.Quaternion(*v))


def random_pose(rng) -> G.Pose:
    return G.Pose(random_quat(rng), rng.normal(size=3))


def test_mul_identity():
    rng = np.random.default_rng(0)
    q = random_quat(rng)
    out = G.quat_mul(q, G.Quaternion.identity())
    assert np.allclose(out.as_array(), q.as_array(), atol=1e-15)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_mul_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_quat(rng) for _ in range(3))
    left = G.quat_mul(G.quat_mul(a, b), c)
    right = G.quat_mul(a, G.quat_mul(b, c))
    assert np.allclose(left.as_array(), right.as_array(), atol=1e-12)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_unit_norm_closed_under_mul(seed):
    rng = np.random.default_rng(seed)
    q = G.quat_mul(random_quat(rng), random_quat(rng))
    assert abs(q.norm() - 1.0) < 1e-12


def test_normalize_rejects_zero():
    with pytest.raises(G.GeomError):
        G.quat_normalize(G.Quaternion(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(G.GeomError):
        G.quat_inverse(G.Quaternion(0.0, 0.0, 0.0, 0.0))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_canonicalize_collapses_double_cover(seed):
    rng = np.random.default_rng(seed)
    q = random_quat(rng)
    neg = G.Quaternion(-q.w, -q.x, -q.y, -q.z)
    a = G.quat_canonicalize(q).as_array()
    b = G.quat_canonicalize(neg).as_array()
    assert np.array_equal(a, b)
    assert a[0] >= 0.0


def test_rotate_quarter_turn_about_z():
    q = G.euler_to_quat(math.pi / 2, 0.0, 0.0)
    out = G.rotate_point(q, None, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-12)


def test_rotate_matches_quaternion_sandwich():
    rng = np.random.default_rng(3)
    q = random_quat(rng)
    p = rng.normal(size=3)
    pq = G.Quaternion(0.0, *p)
    sandwich = G.quat_mul(G.quat_mul(q, pq), G.quat_inverse(q))
    out = G.rotate_point(q, None, p)
    assert np.allclose(out, [sandwich.x, sandwich.y, sandwich.z], atol=1e-12)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_rotation_preserves_distances(seed):
    rng = np.random.default_rng(seed)
    pose = random_pose(rng)
    pts = rng.normal(size=(6, 3))
    out = G.rotate_point(pose.q, pose.t, pts)
    d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    d_out = np.linalg.norm(out[:, None] - out[None, :], axis=-1)
    assert np.allclose(d_in, d_out, atol=1e-9)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_compose_matches_matrix_product(seed):
    rng = np.random.default_rng(seed)
    delta, coarse = random_pose(rng), random_pose(rng)
    composed = G.pose_compose(delta, coarse)
    r_d, r_c = G.quat_to_rotmat(delta.q), G.quat_to_rotmat(coarse.q)
    assert np.allclose(G.quat_to_rotmat(composed.q), r_d @ r_c, atol=1e-12)
    assert np.allclose(composed.t, r_d @ coarse.t + delta.t, atol=1e-12)


@pytest.mark.parametrize("q, t", [
    ((np.nan, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((1.0, 0.0, np.inf, 0.0), (0.0, 0.0, 0.0)),
    ((1.0, 0.0, 0.0, 0.0), (0.0, np.nan, 0.0)),
    ((1.0, 0.0, 0.0, 0.0), (-np.inf, 0.0, 0.0)),
])
def test_pose_rejects_non_finite(q, t):
    with pytest.raises(G.GeomError, match="finite"):
        G.Pose(G.Quaternion(*q), np.array(t))


def test_euler_zero_is_identity():
    q = G.euler_to_quat(0.0, 0.0, 0.0)
    assert np.array_equal(q.as_array(), [1.0, 0.0, 0.0, 0.0])


def test_euler_matches_axis_matrix_product():
    yaw, pitch, roll = 0.3, -0.2, 0.5
    cz, sz = math.cos(yaw), math.sin(yaw)
    cy, sy = math.cos(pitch), math.sin(pitch)
    cx, sx = math.cos(roll), math.sin(roll)
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1.0]])
    ry = np.array([[cy, 0, sy], [0, 1.0, 0], [-sy, 0, cy]])
    rx = np.array([[1.0, 0, 0], [0, cx, -sx], [0, sx, cx]])
    q = G.euler_to_quat(yaw, pitch, roll)
    assert np.allclose(G.quat_to_rotmat(q), rz @ ry @ rx, atol=1e-12)


def test_quat_angle_quarter_turn():
    q = G.euler_to_quat(math.pi / 2, 0.0, 0.0)
    assert abs(G.quat_angle(G.Quaternion.identity(), q) - math.pi / 2) < 1e-12


# --- tensor-mode mirrors ---

def test_quat_mul_t_matches_value():
    rng = np.random.default_rng(20)
    a, b = random_quat(rng), random_quat(rng)
    out = G.quat_mul_t(T.const(a.as_array()), T.const(b.as_array()))
    assert np.allclose(out.data, G.quat_mul(a, b).as_array(), atol=1e-15)


def test_normalize_t_unit_across_magnitudes():
    rng = np.random.default_rng(21)
    for scale in (1e-6, 1e-3, 1.0, 1e3):
        q = rng.normal(size=4) * scale
        out = G.quat_normalize_t(T.const(q))
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-9


def test_normalize_t_finite_gradient_at_origin():
    with T.Tape() as tp:
        q = T.const(np.zeros(4))
        loss = T.reduce_sum(G.quat_normalize_t(q))
    tp.backward(loss)
    assert np.all(np.isfinite(tp.grad(q)))


def test_rotate_points_t_matches_value():
    rng = np.random.default_rng(22)
    pose = random_pose(rng)
    pts = rng.normal(size=(8, 3))
    out = G.rotate_points_t(T.const(pose.q.as_array()),
                            T.const(pose.t), T.const(pts))
    assert np.allclose(out.data, G.rotate_point(pose.q, pose.t, pts),
                       atol=1e-12)


def test_rotate_points_t_gradients():
    rng = np.random.default_rng(23)
    qv = random_quat(rng).as_array()
    tv = rng.normal(size=3)
    pv = rng.normal(size=(4, 3))
    wv = rng.normal(size=(4, 3))

    def run(q, t, p):
        with T.Tape() as tp:
            tq, tt, tpnts = T.const(q), T.const(t), T.const(p)
            out = G.rotate_points_t(tq, tt, tpnts)
            loss = T.reduce_sum(T.mul(out, T.const(wv)))
        tp.backward(loss)
        return loss, tp, tq, tt, tpnts

    loss, tp, tq, tt, tpts = run(qv, tv, pv)
    for tensor, val, arg in ((tq, qv, 0), (tt, tv, 1), (tpts, pv, 2)):
        def f(x, arg=arg):
            args = [qv, tv, pv]
            args[arg] = x
            return run(*args)[0].item()
        assert grad_gap(tp.grad(tensor), finite_diff(f, val)) < 1e-4


def test_pose_compose_t_matches_value():
    rng = np.random.default_rng(24)
    delta, coarse = random_pose(rng), random_pose(rng)
    q_out, t_out = G.pose_compose_t(
        T.const(delta.q.as_array()), T.const(delta.t),
        T.const(coarse.q.as_array()), T.const(coarse.t))
    expect = G.pose_compose(delta, coarse)
    got = G.quat_canonicalize(G.Quaternion.from_array(q_out.data))
    assert np.allclose(got.as_array(), expect.q.as_array(), atol=1e-12)
    assert np.allclose(t_out.data, expect.t, atol=1e-12)


def test_pose_compose_t_identity_delta_is_noop():
    rng = np.random.default_rng(25)
    coarse = random_pose(rng)
    q_out, t_out = G.pose_compose_t(
        T.const(np.array([1.0, 0.0, 0.0, 0.0])), T.const(np.zeros(3)),
        T.const(coarse.q.as_array()), T.const(coarse.t))
    assert np.abs(q_out.data - coarse.q.as_array()).max() < 1e-12
    assert np.abs(t_out.data - coarse.t).max() < 1e-12


def test_pose_compose_t_gradients():
    rng = np.random.default_rng(26)
    vals = [random_quat(rng).as_array(), rng.normal(size=3),
            random_quat(rng).as_array(), rng.normal(size=3)]
    w_q, w_t = rng.normal(size=4), rng.normal(size=3)

    def run(dq, dt, q, t):
        with T.Tape() as tp:
            ts = [T.const(v) for v in (dq, dt, q, t)]
            q_out, t_out = G.pose_compose_t(*ts)
            loss = T.add(T.reduce_sum(T.mul(q_out, T.const(w_q))),
                         T.reduce_sum(T.mul(t_out, T.const(w_t))))
        tp.backward(loss)
        return loss, tp, ts

    loss, tp, ts = run(*vals)
    for i in range(4):
        def f(x, i=i):
            args = list(vals)
            args[i] = x
            return run(*args)[0].item()
        assert grad_gap(tp.grad(ts[i]), finite_diff(f, vals[i])) < 1e-4
