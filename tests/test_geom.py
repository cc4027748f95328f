"""Pose ops: algebraic identities against plain-array oracles, and
finite-difference gradients."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_diff, grad_gap, params
from lidom import geom as G
from lidom import tensor as T

seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)


# --- plain-array oracles ---

def hamilton(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of two (w, x, y, z) quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_to_rotmat(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of q / |q|."""
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def random_quat(rng) -> np.ndarray:
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def quat_mul(a, b) -> np.ndarray:
    return G.quat_mul_t(T.const(a), T.const(b)).data


def rotate(q, t, pts) -> np.ndarray:
    return G.rotate_points_t(T.const(q), T.const(t), T.const(pts)).data


def compose(dq, dt, q, t) -> tuple[np.ndarray, np.ndarray]:
    q_out, t_out = G.pose_compose_t(*(T.const(v) for v in (dq, dt, q, t)))
    return q_out.data, t_out.data


# --- algebraic identities ---

def test_mul_identity():
    rng = np.random.default_rng(0)
    q = random_quat(rng)
    out = quat_mul(q, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out, q, atol=1e-15)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_mul_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_quat(rng) for _ in range(3))
    left = quat_mul(quat_mul(a, b), c)
    right = quat_mul(a, quat_mul(b, c))
    assert np.allclose(left, right, atol=1e-12)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_unit_norm_closed_under_mul(seed):
    rng = np.random.default_rng(seed)
    q = quat_mul(random_quat(rng), random_quat(rng))
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_canonicalize_collapses_double_cover(seed):
    # q and -q are one rotation: R is even in q, so the outputs are equal
    # bit for bit, in a warp and in a composed translation alike
    rng = np.random.default_rng(seed)
    q, t, pts = random_quat(rng), rng.normal(size=3), rng.normal(size=(5, 3))
    assert np.array_equal(rotate(q, t, pts), rotate(-q, t, pts))
    dq, dt = random_quat(rng), rng.normal(size=3)
    assert np.array_equal(compose(dq, dt, q, t)[1],
                          compose(-dq, dt, q, t)[1])


def test_rotate_quarter_turn_about_z():
    q = np.array([math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4)])
    out = rotate(q, np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
    assert np.allclose(out, [[0.0, 1.0, 0.0]], atol=1e-12)


def test_rotate_matches_quaternion_sandwich():
    rng = np.random.default_rng(3)
    q = random_quat(rng)
    p = rng.normal(size=3)
    conj = q * np.array([1.0, -1.0, -1.0, -1.0])
    sandwich = hamilton(hamilton(q, np.concatenate([[0.0], p])), conj)
    out = rotate(q, np.zeros(3), p.reshape(1, 3))
    assert np.allclose(out, [sandwich[1:]], atol=1e-12)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_rotation_preserves_distances(seed):
    rng = np.random.default_rng(seed)
    q, t = random_quat(rng), rng.normal(size=3)
    pts = rng.normal(size=(6, 3))
    out = rotate(q, t, pts)
    d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    d_out = np.linalg.norm(out[:, None] - out[None, :], axis=-1)
    assert np.allclose(d_in, d_out, atol=1e-9)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_compose_matches_matrix_product(seed):
    rng = np.random.default_rng(seed)
    dq, dt, q, t = (random_quat(rng), rng.normal(size=3),
                    random_quat(rng), rng.normal(size=3))
    q_out, t_out = compose(dq, dt, q, t)
    r_d, r_c = quat_to_rotmat(dq), quat_to_rotmat(q)
    assert np.allclose(quat_to_rotmat(q_out), r_d @ r_c, atol=1e-12)
    assert np.allclose(t_out, r_d @ t + dt, atol=1e-12)


# --- each op against its oracle ---

def test_quat_mul_t_matches_value():
    rng = np.random.default_rng(20)
    a, b = random_quat(rng), random_quat(rng)
    assert np.allclose(quat_mul(a, b), hamilton(a, b), atol=1e-15)


def test_normalize_t_unit_across_magnitudes():
    rng = np.random.default_rng(21)
    for scale in (1e-6, 1e-3, 1.0, 1e3):
        q = rng.normal(size=4) * scale
        out = G.quat_normalize_t(T.const(q))
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-9


def test_normalize_t_finite_gradient_at_origin():
    with T.Tape() as tp:
        q = T.Parameter("q", np.zeros(4))
        loss = T.reduce_sum(G.quat_normalize_t(q))
    assert np.all(np.isfinite(tp.backward(loss)["q"]))


def test_rotate_points_t_matches_value():
    rng = np.random.default_rng(22)
    q, t = random_quat(rng), rng.normal(size=3)
    pts = rng.normal(size=(8, 3))
    assert np.allclose(rotate(q, t, pts), pts @ quat_to_rotmat(q).T + t,
                       atol=1e-12)


def test_rotate_points_t_gradients():
    rng = np.random.default_rng(23)
    qv = random_quat(rng)
    tv = rng.normal(size=3)
    pv = rng.normal(size=(4, 3))
    wv = rng.normal(size=(4, 3))

    def run(q, t, p):
        with T.Tape() as tp:
            tq, tt, tpnts = params(q, t, p)
            out = G.rotate_points_t(tq, tt, tpnts)
            loss = T.reduce_sum(T.mul(out, T.const(wv)))
        return loss, tp.backward(loss)

    loss, grads = run(qv, tv, pv)
    for name, val, arg in (("x0", qv, 0), ("x1", tv, 1), ("x2", pv, 2)):
        def f(x, arg=arg):
            args = [qv, tv, pv]
            args[arg] = x
            return run(*args)[0].item()
        assert grad_gap(grads[name], finite_diff(f, val)) < 1e-4


def test_pose_compose_t_matches_value():
    rng = np.random.default_rng(24)
    dq, dt, q, t = (random_quat(rng), rng.normal(size=3),
                    random_quat(rng), rng.normal(size=3))
    q_out, t_out = compose(dq, dt, q, t)
    expect_q = hamilton(dq, q)
    assert np.allclose(q_out, expect_q / np.linalg.norm(expect_q), atol=1e-12)
    assert np.allclose(t_out, quat_to_rotmat(dq) @ t + dt, atol=1e-12)


def test_pose_compose_t_identity_delta_is_noop():
    rng = np.random.default_rng(25)
    q, t = random_quat(rng), rng.normal(size=3)
    q_out, t_out = compose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3), q, t)
    assert np.abs(q_out - q).max() < 1e-12
    assert np.abs(t_out - t).max() < 1e-12


def test_pose_compose_t_gradients():
    rng = np.random.default_rng(26)
    vals = [random_quat(rng), rng.normal(size=3),
            random_quat(rng), rng.normal(size=3)]
    w_q, w_t = rng.normal(size=4), rng.normal(size=3)

    def run(dq, dt, q, t):
        with T.Tape() as tp:
            q_out, t_out = G.pose_compose_t(*params(dq, dt, q, t))
            loss = T.add(T.reduce_sum(T.mul(q_out, T.const(w_q))),
                         T.reduce_sum(T.mul(t_out, T.const(w_t))))
        return loss, tp.backward(loss)

    loss, grads = run(*vals)
    for i in range(4):
        def f(x, i=i):
            args = list(vals)
            args[i] = x
            return run(*args)[0].item()
        assert grad_gap(grads[f"x{i}"], finite_diff(f, vals[i])) < 1e-4
