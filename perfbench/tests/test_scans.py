import numpy as np

import scans
from lidom.net import desk_config


def test_same_seed_same_pair():
    a, b = scans.make_pair(scans.DESK, 7), scans.make_pair(scans.DESK, 7)
    for x, y in ((a.pc1, b.pc1), (a.pc2, b.pc2), (a.q, b.q), (a.t, b.t)):
        assert np.array_equal(x, y)
    assert a.digest() == b.digest()
    assert scans.make_pair(scans.DESK, 8).digest() != a.digest()


def test_desk_scans_are_sparser_than_the_network_input():
    n_input = desk_config().n_input
    for seed in range(5):
        pair = scans.make_pair(scans.DESK, seed)
        assert 0 < len(pair.pc1) < n_input and 0 < len(pair.pc2) < n_input


def test_full_scans_have_about_20k_points():
    pair = scans.make_pair(scans.FULL, 0)
    assert 15_000 < len(pair.pc1) < 25_000
    ranges = np.linalg.norm(pair.pc1, axis=1)
    # ring sampling: far fewer returns past 20 m than within it
    assert (ranges < 20.0).sum() > 2 * (ranges >= 20.0).sum()


def test_motion_is_forward_travel_plus_small_yaw():
    for seed in range(5):
        pair = scans.make_pair(scans.DESK, seed)
        assert np.isclose(np.linalg.norm(pair.q), 1.0)
        assert pair.q[1] == 0.0 and pair.q[2] == 0.0
        yaw = 2.0 * np.arctan2(pair.q[3], pair.q[0])
        assert abs(yaw) <= np.deg2rad(3.0) + 1e-12
        assert 0.45 < np.linalg.norm(pair.t) < 1.6 and pair.t[2] == 0.0


def _median_nn(a, b):
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
    return float(np.median(np.sqrt(d2.min(axis=1))))


def test_known_motion_aligns_the_scans():
    # Ground returns form sensor-centred rings that look alike from any pose;
    # only structure above the ground shows the motion.
    pair = scans.make_pair(scans.FULL, 3)
    above1 = pair.pc1[pair.pc1[:, 2] > 0.5 - scans.SENSOR_HEIGHT][::4]
    above2 = pair.pc2[pair.pc2[:, 2] > 0.5 - scans.SENSOR_HEIGHT]
    w, _, _, z = pair.q
    c, s = w * w - z * z, 2.0 * w * z
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    moved = above1 @ rot.T + pair.t
    assert _median_nn(moved, above2) < 0.5 * _median_nn(above1, above2)


def test_pair_sequence_is_seeded_and_covers_the_pool():
    take = lambda seed: [i for i, _ in zip(scans.pair_sequence(seed, 8), range(16))]
    assert take(3) == take(3) and take(3) != take(4)
    assert sorted(take(3)[:8]) == list(range(8))
