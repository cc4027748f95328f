"""Shared oracles: central-difference gradients and comparison helpers."""
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
