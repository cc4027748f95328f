"""Shared oracles: central-difference gradients, comparison helpers and the
op chain that a pooled T.mlp equals."""
from __future__ import annotations

import numpy as np

from lidom import tensor as T


def finite_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar-valued f at x, in float64."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return g


def grad_gap(analytic: np.ndarray, numeric: np.ndarray,
             abs_floor: float = 1e-8) -> float:
    """Worst mismatch: relative where |analytic| >= abs_floor, else absolute."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    assert analytic.shape == numeric.shape
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    small = np.abs(analytic) < abs_floor
    rel = np.where(small, diff, diff / np.where(scale == 0.0, 1.0, scale))
    return float(rel.max()) if rel.size else 0.0


def params(*arrays, prefix: str = "x") -> list:
    """One T.Parameter per array, named prefix0, prefix1, ... in order.  A
    tape records only what a parameter reaches and returns parameters'
    gradients only, so a test takes an input's gradient by making the input
    a parameter and reading its name from Tape.backward's map."""
    return [T.Parameter(f"{prefix}{i}", a) for i, a in enumerate(arrays)]


def reduce_max(a: T.Tensor, axis: int) -> T.Tensor:
    """The oracle of a pooled T.mlp's pooling: the max over one axis as a
    tape node of its own, "max", whose gradient flows to the first
    (lowest-index) argmax by np.argmax."""
    out = a.data.max(axis=axis)
    arg = np.expand_dims(a.data.argmax(axis=axis), axis)
    shape = a.data.shape

    def back(g):
        ga = np.zeros(shape)
        np.put_along_axis(ga, arg, np.expand_dims(g, axis), axis)
        return (ga,)

    return T._make("max", (a,), out, back)


def pooled_chain(layers, *parts, nbr, relu_last: bool = True) -> T.Tensor:
    """The op chain that T.mlp(..., pool=True) is bit for bit: the unpooled
    mlp node over the (n, k) table, then reduce_max over the neighbours."""
    return reduce_max(T.mlp(layers, *parts, nbr=nbr, relu_last=relu_last),
                      axis=1)
