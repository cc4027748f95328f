"""Shared oracles: central-difference gradients, comparison helpers, a
rank-3 matmul for the op chains that T.mlp and T.attend equal, and the op
chain that a pooled T.mlp equals; and a loader for perfbench's modules."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

from lidom import tensor as T


def load_perfbench(name: str):
    """perfbench/<name>.py as module perfbench_<name>, without putting
    perfbench on the import path (dataclasses look the module up in
    sys.modules while it runs)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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


def matmul(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    """(..., k) @ (k, n) for a of rank 2 or 3 and a rank-2 b, as a tape node
    of its own, "matmul"; b's gradient is one GEMM over a's flattened rows.
    T.matmul takes rank 2 only, and np.matmul on an (n, k, w) array does not
    always give the bits of the same product over its (n * k, w) rows, so
    the op-chain oracles multiply their rank-3 parts here."""
    ad, bd = a.data, b.data
    assert ad.ndim in (2, 3) and bd.ndim == 2 and ad.shape[-1] == bd.shape[0]
    k, n = bd.shape

    def back(g):
        return np.matmul(g, bd.T), ad.reshape(-1, k).T @ g.reshape(-1, n)

    return T._make("matmul", (a, b), np.matmul(ad, bd), back)


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
