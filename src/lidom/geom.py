"""Quaternion and rigid-pose algebra, in plain-number and tensor form.

Quaternions are Hamilton, scalar first (w, x, y, z).  A Pose is a unit
quaternion in canonical form (w >= 0) plus a translation; applying it maps a
point p to rotate(q, p) + t.  The *_t functions mirror the value-mode ops on
autodiff tensors so the network can warp points and compose pose residuals
with gradients flowing through every term.  They act on whole vectors: the
Hamilton product is two matmuls against a constant table built from
quat_mul, and R - I is a constant linear map of vec(q q^T) that encodes
quat_to_rotmat's formula.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T

__all__ = [
    "GeomError", "Quaternion", "Pose",
    "quat_mul", "quat_conjugate", "quat_inverse", "quat_normalize",
    "quat_canonicalize", "quat_angle", "rotate_point", "pose_compose",
    "euler_to_quat", "quat_to_rotmat",
    "quat_mul_t", "quat_normalize_t", "rotate_points_t", "pose_compose_t",
]

_ZERO_NORM = 1e-12
# added to |q|^2 before the square root in quat_normalize_t
_NORM_EPS = 1e-18


class GeomError(ValueError):
    """Degenerate input: zero or non-finite quaternion, non-finite
    translation, bad shape."""


@dataclass(frozen=True)
class Quaternion:
    w: float
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=np.float64)

    @staticmethod
    def from_array(a) -> "Quaternion":
        a = np.asarray(a, dtype=np.float64)
        if a.shape != (4,):
            raise GeomError(f"quaternion needs shape (4,), got {a.shape}")
        return Quaternion(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    def norm(self) -> float:
        return math.sqrt(self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2)


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def quat_conjugate(q: Quaternion) -> Quaternion:
    return Quaternion(q.w, -q.x, -q.y, -q.z)


def quat_inverse(q: Quaternion) -> Quaternion:
    n2 = q.w ** 2 + q.x ** 2 + q.y ** 2 + q.z ** 2
    if n2 < _ZERO_NORM ** 2:
        raise GeomError("cannot invert a zero-norm quaternion")
    c = quat_conjugate(q)
    return Quaternion(c.w / n2, c.x / n2, c.y / n2, c.z / n2)


def quat_normalize(q: Quaternion) -> Quaternion:
    if not np.isfinite(q.as_array()).all():
        raise GeomError(f"cannot normalize a non-finite quaternion {q}")
    n = q.norm()
    if n < _ZERO_NORM:
        raise GeomError("cannot normalize a zero-norm quaternion")
    return Quaternion(q.w / n, q.x / n, q.y / n, q.z / n)


def quat_canonicalize(q: Quaternion) -> Quaternion:
    """Fix the double cover: q and -q map to the same output (w >= 0)."""
    if q.w < 0.0:
        return Quaternion(-q.w, -q.x, -q.y, -q.z)
    return q


def quat_angle(a: Quaternion, b: Quaternion) -> float:
    """Rotation angle in radians between the two unit quaternions."""
    dot = abs(a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z)
    return 2.0 * math.acos(min(1.0, dot))


def quat_to_rotmat(q: Quaternion) -> np.ndarray:
    q = quat_normalize(q)
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ], dtype=np.float64)


def euler_to_quat(yaw: float, pitch: float, roll: float) -> Quaternion:
    """Intrinsic Z-Y-X: yaw about z, then pitch about the new y, then roll
    about the new x.  Angles in radians."""
    cy, sy = math.cos(yaw / 2), math.sin(yaw / 2)
    cp, sp = math.cos(pitch / 2), math.sin(pitch / 2)
    cr, sr = math.cos(roll / 2), math.sin(roll / 2)
    qz = Quaternion(cy, 0.0, 0.0, sy)
    qy = Quaternion(cp, 0.0, sp, 0.0)
    qx = Quaternion(cr, sr, 0.0, 0.0)
    return quat_canonicalize(quat_mul(quat_mul(qz, qy), qx))


@dataclass(frozen=True)
class Pose:
    """Unit canonical quaternion + translation; maps p to rotate(q, p) + t."""

    q: Quaternion
    t: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=np.float64)
        if t.shape != (3,):
            raise GeomError(f"translation needs shape (3,), got {t.shape}")
        if not np.isfinite(t).all():
            raise GeomError(f"translation is not finite: {t}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "q",
                           quat_canonicalize(quat_normalize(self.q)))


def rotate_point(q: Quaternion, t: np.ndarray | None, p: np.ndarray) -> np.ndarray:
    """q [0, p] q^-1 + t for one point (3,) or a stack (n, 3)."""
    p = np.asarray(p, dtype=np.float64)
    single = p.ndim == 1
    pts = p.reshape(1, 3) if single else p
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise GeomError(f"points need shape (3,) or (n, 3), got {p.shape}")
    out = pts @ quat_to_rotmat(q).T
    if t is not None:
        out = out + np.asarray(t, dtype=np.float64)
    return out[0] if single else out


def pose_compose(delta: Pose, coarse: Pose) -> Pose:
    """Refinement: q = dq * q_c, t = dq [0, t_c] dq^-1 + dt."""
    q = quat_mul(delta.q, coarse.q)
    t = rotate_point(delta.q, delta.t, coarse.t)
    return Pose(q, t)


# --- differentiable mirrors ---

# (a b)_i = sum_jk a_j _HAMILTON[j, 4 i + k] b_k: quat_mul on basis pairs
_HAMILTON = np.array([[quat_mul(Quaternion(*ej), Quaternion(*ek)).as_array()
                       for ek in np.eye(4)] for ej in np.eye(4)]
                     ).transpose(0, 2, 1).reshape(4, 16)

# quat_to_rotmat's formula entry by entry, row-major: R = I + 2 * (these
# signed products of w, x, y, z).  Each entry of the map's output sums two
# terms +-2 q_a q_b, so a matmul against it rounds as the formula does.
_ROTMAT_TERMS = ("-yy-zz", "+xy-wz", "+xz+wy",
                 "+xy+wz", "-xx-zz", "+yz-wx",
                 "+xz-wy", "+yz+wx", "-xx-yy")


def _rotmat_transposed_map() -> np.ndarray:
    """(16, 9) map from vec(q q^T) to vec(R^T - I)."""
    m = np.zeros((4, 4, 3, 3))
    for e, terms in enumerate(_ROTMAT_TERMS):
        row, col = divmod(e, 3)
        for sign, a, b in zip(terms[::3], terms[1::3], terms[2::3]):
            m["wxyz".index(a), "wxyz".index(b), col, row] = \
                2.0 if sign == "+" else -2.0
    return m.reshape(16, 9)


_ROT_T = _rotmat_transposed_map()
_EYE_ROW = np.eye(3).reshape(1, 9)


def quat_mul_t(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    """Hamilton product: a times the table is the (4, 4) matrix of
    left-multiplication by a, which then multiplies b."""
    left = T.reshape(T.matmul(T.reshape(a, (1, 4)), T.const(_HAMILTON)),
                     (4, 4))
    return T.reshape(T.matmul(left, T.reshape(b, (4, 1))), (4,))


def quat_normalize_t(q: T.Tensor) -> T.Tensor:
    """Two stabilized passes: unit to machine precision for any sensible
    input magnitude, finite gradient even at the origin."""
    for _ in range(2):
        n2 = T.reduce_sum(T.mul(q, q))
        q = T.div(q, T.sqrt(T.add(n2, T.const(_NORM_EPS))))
    return q


def rotate_points_t(q: T.Tensor, t: T.Tensor | None, pts: T.Tensor) -> T.Tensor:
    """Differentiable rotate(normalize(q), pts) + t for pts of shape (n, 3)."""
    q = quat_normalize_t(q)
    qq = T.reshape(T.mul(T.reshape(q, (4, 1)), q), (1, 16))
    # R^T, so the product pts @ rt applies R on the left
    rt = T.add(T.matmul(qq, T.const(_ROT_T)), T.const(_EYE_ROW))
    out = T.matmul(pts, T.reshape(rt, (3, 3)))
    if t is not None:
        out = T.add(out, t)
    return out


def pose_compose_t(dq: T.Tensor, dt: T.Tensor, q: T.Tensor,
                   t: T.Tensor) -> tuple[T.Tensor, T.Tensor]:
    """Tensor-mode refinement step; both inputs assumed unit quaternions."""
    q_out = quat_normalize_t(quat_mul_t(dq, q))
    t_rot = rotate_points_t(dq, None, T.reshape(t, (1, 3)))
    t_out = T.add(T.reshape(t_rot, (3,)), dt)
    return q_out, t_out
