"""Per-pair correctness checks.  Each returns a list of problems; an empty
list means the pair passed.  A pair with any problem counts as failed."""
from __future__ import annotations

import zlib

import numpy as np

# Poses must match the recorded reference to within this, elementwise:
# |pose - ref| <= REF_TOL * max(1, |ref|).  It admits reordered float64
# arithmetic (about 1e-13 through this network) and rejects any change in
# which neighbours or samples are picked, which moves poses by far more.
REF_TOL = 1e-9
UNIT_TOL = 1e-12
# Each parameter's gradient summary must match the reference to within
# GRAD_TOL times that parameter's reference gradient norm.  A float64
# backward that sums in another order moves it by about 1e-12 of the norm;
# a wrong or missing gradient term moves it by far more.  Some gradients are
# zero up to rounding (biases in front of a softmax, which ignores a shift):
# about 1e-17 of the whole gradient's norm, where every other parameter's is
# above 1e-6 of it.  A norm below ZERO_SHARE of the whole is held to
# GRAD_TOL of that share instead, so reordered rounding passes there too.
GRAD_TOL = 1e-6
ZERO_SHARE = 1e-9
LEVEL_ORDER = [4, 3, 2, 1]


def pose_array(out) -> np.ndarray:
    """(4, 7) array of raw (q, t) per level, coarse to fine."""
    return np.array([np.concatenate([lv.q.data, lv.t.data])
                     for lv in out.levels])


def check_output(out, cfg) -> list[str]:
    """Four finite levels, coarse to fine, with unit quaternions."""
    levels = out.levels
    found = [lv.level for lv in levels]
    if found != LEVEL_ORDER:
        return [f"levels are {found}, expected {LEVEL_ORDER}"]
    problems = []
    sizes = {4: cfg.n4, 3: cfg.n3, 2: cfg.n2, 1: cfg.n1}
    for lv in levels:
        if lv.coords.shape[0] != sizes[lv.level]:
            problems.append(f"level {lv.level}: {lv.coords.shape[0]} points, "
                            f"expected {sizes[lv.level]}")
        arrays = {"q": lv.q.data, "t": lv.t.data,
                  "embedding": lv.embedding.data, "coords": lv.coords}
        if lv.mask is not None:
            arrays["mask"] = lv.mask.data
        for name, a in arrays.items():
            if not np.all(np.isfinite(a)):
                problems.append(f"level {lv.level}: non-finite {name}")
        if lv.q.data.shape != (4,) or lv.t.data.shape != (3,):
            problems.append(f"level {lv.level}: pose shapes "
                            f"{lv.q.data.shape}, {lv.t.data.shape}")
        elif abs(float(np.linalg.norm(lv.q.data)) - 1.0) > UNIT_TOL:
            problems.append(f"level {lv.level}: |q| = "
                            f"{np.linalg.norm(lv.q.data)!r}")
    return problems


def check_reference(poses: np.ndarray, digest: str, ref: dict) -> list[str]:
    if ref["digest"] != digest:
        return ["input differs from the one the reference was recorded on"]
    want = np.array(ref["poses"])
    if poses.shape != want.shape:
        return [f"pose array shape {poses.shape}, reference {want.shape}"]
    err = np.abs(poses - want) / np.maximum(1.0, np.abs(want))
    if not np.all(err <= REF_TOL):
        return [f"poses differ from the reference by {np.nanmax(err):.3e} "
                f"(tolerance {REF_TOL:g})"]
    return []


def check_same(eager: np.ndarray, taped: np.ndarray) -> list[str]:
    if not np.array_equal(eager, taped):
        return ["taped forward poses are not bit-identical to eager"]
    return []


def _direction(name: str, shape) -> np.ndarray:
    v = np.random.default_rng(zlib.crc32(name.encode())).standard_normal(shape)
    return v / np.linalg.norm(v)


def grad_summary(grads: dict, store) -> dict[str, list[float]]:
    """Per trainable parameter: [gradient norm, projection of the gradient
    on a fixed random unit direction].  The projection catches a sign flip
    or a permutation, which leave the norm alone."""
    return {p.name: [float(np.linalg.norm(grads[p.name])),
                     float(np.vdot(_direction(p.name, p.value.shape),
                                   grads[p.name]))]
            for p in store if p.trainable}


def check_grads(grads: dict, store, ref: dict) -> list[str]:
    """Every trainable parameter has a finite gradient that matches the
    reference summary `ref` (from `grad_summary`)."""
    problems = []
    for p in store:
        if not p.trainable:
            continue
        g = grads.get(p.name)
        if g is None:
            problems.append(f"{p.name}: no gradient")
        elif g.shape != p.value.shape or not np.all(np.isfinite(g)):
            problems.append(f"{p.name}: bad gradient")
    if problems:
        return problems
    found = grad_summary(grads, store)
    if found.keys() != ref.keys():
        return ["trainable parameters differ from the reference's"]
    floor = ZERO_SHARE * float(np.linalg.norm([n for n, _ in ref.values()]))
    for name, (norm, proj) in found.items():
        want_norm, want_proj = ref[name]
        tol = GRAD_TOL * max(want_norm, floor)
        if abs(norm - want_norm) > tol or abs(proj - want_proj) > tol:
            problems.append(f"{name}: gradient (norm {norm:.6e}, projection "
                            f"{proj:.6e}) differs from the reference "
                            f"({want_norm:.6e}, {want_proj:.6e})")
    return problems
