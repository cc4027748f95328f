"""Seeded synthetic LiDAR scan pairs with a known rigid motion.

A scene is a ground plane, building facades along both sides of a street,
parked-car boxes and poles.  A spinning sensor with `beams` rings casts
`beams * azimuth_steps` rays from two poses: the second pose is the first
moved forward along the street by 0.5-1.5 m with a small lateral drift and a
yaw of at most 3 degrees.  Ring sampling makes point density fall with range,
and rays that hit nothing within `max_range` are dropped.

Each scan is expressed in its own sensor frame.  The returned motion (q, t)
maps first-frame points into the second frame, p2 = rotate(q, p1) + t, which
is the pose the network regresses when it warps the first cloud onto the
second.  The same seed always gives the same pair.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

SENSOR_HEIGHT = 1.73
RANGE_NOISE = 0.02


@dataclass(frozen=True)
class ScanSpec:
    beams: int
    azimuth_steps: int
    elev_low_deg: float
    elev_high_deg: float
    max_range: float


# ~20k returns per scan, like one revolution of a 32-beam spinning LiDAR.
FULL = ScanSpec(beams=32, azimuth_steps=660, elev_low_deg=-25.0,
                elev_high_deg=5.0, max_range=80.0)
# Fewer rays than desk_config.n_input (512), so subsampling must draw with
# replacement and the network sees exact duplicate points.
DESK = ScanSpec(beams=8, azimuth_steps=60, elev_low_deg=-25.0,
                elev_high_deg=5.0, max_range=40.0)


@dataclass(frozen=True)
class ScanPair:
    pc1: np.ndarray
    pc2: np.ndarray
    q: np.ndarray   # (4,) unit quaternion, scalar first
    t: np.ndarray   # (3,)

    def digest(self) -> str:
        """Hash of both clouds, to tie a recorded reference to its inputs."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.pc1, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(self.pc2, dtype="<f8").tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class _Scene:
    walls: np.ndarray      # (w, 6): x0, y0, x1, y1, z_low, z_high
    poles: np.ndarray      # (p, 5): x, y, radius, z_low, z_high


def _yaw_matrix(yaw: float) -> np.ndarray:
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _box_walls(cx: float, cy: float, hx: float, hy: float,
               height: float) -> list[list[float]]:
    ground = -SENSOR_HEIGHT
    top = ground + height
    x0, x1, y0, y1 = cx - hx, cx + hx, cy - hy, cy + hy
    return [[x0, y0, x1, y0, ground, top], [x1, y0, x1, y1, ground, top],
            [x1, y1, x0, y1, ground, top], [x0, y1, x0, y0, ground, top]]


def _make_scene(rng: np.random.Generator) -> _Scene:
    ground = -SENSOR_HEIGHT
    walls: list[list[float]] = []
    for side in (-1.0, 1.0):
        x = -60.0
        while x < 60.0:
            length = rng.uniform(8.0, 25.0)
            y = side * rng.uniform(7.0, 12.0)
            walls.append([x, y, x + length, y, ground,
                          ground + rng.uniform(4.0, 15.0)])
            x += length + rng.uniform(1.0, 8.0)
    for _ in range(rng.integers(6, 12)):
        side = rng.choice([-1.0, 1.0])
        walls.extend(_box_walls(rng.uniform(-40.0, 40.0),
                                side * rng.uniform(3.0, 5.0),
                                rng.uniform(1.8, 2.4), rng.uniform(0.8, 1.0),
                                rng.uniform(1.4, 1.7)))
    n_poles = int(rng.integers(15, 30))
    poles = np.column_stack([
        rng.uniform(-50.0, 50.0, n_poles),
        rng.choice([-1.0, 1.0], n_poles) * rng.uniform(4.5, 7.0, n_poles),
        rng.uniform(0.08, 0.35, n_poles),
        np.full(n_poles, ground),
        ground + rng.uniform(3.0, 8.0, n_poles),
    ])
    return _Scene(np.array(walls), poles)


def _ray_directions(spec: ScanSpec) -> np.ndarray:
    elev = np.deg2rad(np.linspace(spec.elev_low_deg, spec.elev_high_deg,
                                  spec.beams))
    azim = np.linspace(0.0, 2.0 * np.pi, spec.azimuth_steps, endpoint=False)
    el, az = np.meshgrid(elev, azim, indexing="ij")
    return np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az),
                     np.sin(el)], axis=-1).reshape(-1, 3)


def _cast(scene: _Scene, origin: np.ndarray, dirs: np.ndarray,
          max_range: float) -> np.ndarray:
    """Distance to the first hit along each ray; inf where nothing is hit."""
    hit = np.full(dirs.shape[0], np.inf)
    dz = dirs[:, 2]
    down = dz < 0.0
    hit[down] = (-SENSOR_HEIGHT - origin[2]) / dz[down]

    dx, dy = dirs[:, :1], dirs[:, 1:2]
    w = scene.walls
    ex, ey = w[:, 2] - w[:, 0], w[:, 3] - w[:, 1]
    px, py = w[:, 0] - origin[0], w[:, 1] - origin[1]
    denom = dx * ey - dy * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        tw = (px * ey - py * ex) / denom
        sw = (px * dy - py * dx) / denom
    zw = origin[2] + tw * dirs[:, 2:3]
    ok = ((np.abs(denom) > 1e-12) & (tw > 0.0) & (sw >= 0.0) & (sw <= 1.0)
          & (zw >= w[:, 4]) & (zw <= w[:, 5]))
    hit = np.minimum(hit, np.where(ok, tw, np.inf).min(axis=1))

    p = scene.poles
    cx, cy = p[:, 0] - origin[0], p[:, 1] - origin[1]
    a = dx * dx + dy * dy
    b = -2.0 * (dx * cx + dy * cy)
    c = cx * cx + cy * cy - p[:, 2] ** 2
    disc = b * b - 4.0 * a * c
    with np.errstate(invalid="ignore", divide="ignore"):
        tp = (-b - np.sqrt(disc)) / (2.0 * a)
    zp = origin[2] + tp * dirs[:, 2:3]
    ok = (disc >= 0.0) & (tp > 0.0) & (zp >= p[:, 3]) & (zp <= p[:, 4])
    hit = np.minimum(hit, np.where(ok, tp, np.inf).min(axis=1))
    hit[hit > max_range] = np.inf
    return hit


def _scan(scene: _Scene, spec: ScanSpec, position: np.ndarray, yaw: float,
          rng: np.random.Generator) -> np.ndarray:
    rot = _yaw_matrix(yaw)
    dirs_local = _ray_directions(spec)
    dist = _cast(scene, position, dirs_local @ rot.T, spec.max_range)
    keep = np.isfinite(dist)
    noisy = dist[keep] + rng.normal(0.0, RANGE_NOISE, int(keep.sum()))
    return dirs_local[keep] * noisy[:, None]


def make_pair(spec: ScanSpec, seed: int) -> ScanPair:
    """Two scans of one random scene from two nearby sensor poses."""
    rng = np.random.default_rng(seed)
    scene = _make_scene(rng)
    yaw1 = rng.uniform(-0.05, 0.05)
    pos1 = np.array([rng.uniform(-5.0, 5.0), rng.uniform(-1.0, 1.0), 0.0])
    step = rng.uniform(0.5, 1.5)
    yaw2 = yaw1 + np.deg2rad(rng.uniform(-3.0, 3.0))
    pos2 = pos1 + _yaw_matrix(yaw1) @ np.array(
        [step, rng.uniform(-0.05, 0.05), 0.0])
    pc1 = _scan(scene, spec, pos1, yaw1, rng)
    pc2 = _scan(scene, spec, pos2, yaw2, rng)
    # p_world = R1 p1 + pos1 = R2 p2 + pos2, so p2 = R2^T R1 p1 + R2^T (pos1 - pos2)
    dyaw = yaw1 - yaw2
    q = np.array([np.cos(dyaw / 2.0), 0.0, 0.0, np.sin(dyaw / 2.0)])
    t = _yaw_matrix(yaw2).T @ (pos1 - pos2)
    return ScanPair(pc1, pc2, q, t)


def pair_sequence(seed: int, pool_size: int):
    """Endless pool indices: a fresh seeded permutation per pass."""
    rng = np.random.default_rng(seed)
    while True:
        yield from (int(i) for i in rng.permutation(pool_size))
