"""Differentiable quaternion and rigid-pose ops on autodiff tensors.

Quaternions are Hamilton, scalar first (w, x, y, z).  A pose is a unit
quaternion q plus a translation t; applying it maps a point p to
R(q) p + t.  The network warps points and composes pose residuals with
these ops, with gradients flowing through every term.  They act on whole
vectors: the Hamilton product is two matmuls against a constant table, and
R - I is a constant linear map of vec(q q^T).  Both tables are written out
below as signed products of quaternion components; the tests check them
against a plain-array Hamilton product and rotation-matrix formula.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T

__all__ = ["quat_mul_t", "quat_normalize_t", "rotate_points_t",
           "pose_compose_t"]

# added to |q|^2 before the square root in quat_normalize_t
_NORM_EPS = 1e-18


def _signed_products(terms: tuple[str, ...], scale: float) -> np.ndarray:
    """(4, 4, len(terms)) map m with m[a, b, e] = +-scale for every signed
    product "+ab" or "-ab" of components a, b in terms[e]."""
    m = np.zeros((4, 4, len(terms)))
    for e, term in enumerate(terms):
        for sign, a, b in zip(term[::3], term[1::3], term[2::3]):
            m["wxyz".index(a), "wxyz".index(b), e] = \
                scale if sign == "+" else -scale
    return m


# (a b)_i = sum_jk a_j _HAMILTON[j, 4 i + k] b_k
_HAMILTON = _signed_products(
    ("+ww-xx-yy-zz", "+wx+xw+yz-zy", "+wy-xz+yw+zx", "+wz+xy-yx+zw"), 1.0
).transpose(0, 2, 1).reshape(4, 16)

# The rotation matrix of a unit quaternion entry by entry, row-major:
# R = I + 2 * (these signed products of w, x, y, z).  Each entry of the
# map's output sums two terms +-2 q_a q_b, so a matmul against it rounds as
# the formula does.
_ROTMAT_TERMS = ("-yy-zz", "+xy-wz", "+xz+wy",
                 "+xy+wz", "-xx-zz", "+yz-wx",
                 "+xz-wy", "+yz+wx", "-xx-yy")
# (16, 9) map from vec(q q^T) to vec(R^T - I)
_ROT_T = (_signed_products(_ROTMAT_TERMS, 2.0).reshape(4, 4, 3, 3)
          .transpose(0, 1, 3, 2).reshape(16, 9))
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


def rotate_points_t(q: T.Tensor, t: T.Tensor, pts: T.Tensor) -> T.Tensor:
    """Differentiable R(q) pts + t for pts of shape (n, 3) and a unit q
    (R(q) is a rotation only then; q is not normalized here)."""
    qq = T.reshape(T.mul(T.reshape(q, (4, 1)), q), (1, 16))
    # R^T, so the product pts @ rt applies R on the left
    rt = T.add(T.matmul(qq, T.const(_ROT_T)), T.const(_EYE_ROW))
    return T.add(T.matmul(pts, T.reshape(rt, (3, 3))), t)


def pose_compose_t(dq: T.Tensor, dt: T.Tensor, q: T.Tensor,
                   t: T.Tensor) -> tuple[T.Tensor, T.Tensor]:
    """Refinement step q = dq q_c, t = R(dq) t_c + dt for unit dq and q
    (rotate_points_t takes dq as it is); the composed q is renormalized."""
    q_out = quat_normalize_t(quat_mul_t(dq, q))
    t_out = rotate_points_t(dq, dt, T.reshape(t, (1, 3)))
    return q_out, T.reshape(t_out, (3,))
