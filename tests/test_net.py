"""Whole-network input guards, config validation and the paper's ablations."""
import numpy as np
import pytest

from lidom.net import NetError, OdometryNet, desk_config


def _scans(seed=0, n=600):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3)), rng.normal(size=(n, 3))


def _poses(out):
    return np.array([np.concatenate([lv.q.data, lv.t.data])
                     for lv in out.levels])


def test_forward_rejects_a_nan_point():
    pc1, pc2 = _scans()
    net = OdometryNet(desk_config())
    net.forward(pc1, pc2)
    pc1[123, 1] = np.nan
    with pytest.raises(NetError, match="pc1"):
        net.forward(pc1, pc2)


def test_forward_rejects_a_scan_with_fewer_distinct_points_than_level_1():
    # 100 points drawn with replacement up to n_input = 512 cannot give the
    # 128 distinct level-1 centers
    pc = np.random.default_rng(1).normal(size=(100, 3))
    with pytest.raises(NetError, match="pc1: cannot sample 128 distinct"):
        OdometryNet(desk_config()).forward(pc, pc)


@pytest.mark.parametrize("key, value, match", [
    ("n2", 4096, "must not increase"),
    ("knn_k", 17, "knn_k=17 exceeds"),
    ("first_embedding", "first", "first_embedding"),
    ("cost_volume_mode", "banana", "cost_volume_mode"),
])
def test_config_rejects(key, value, match):
    with pytest.raises(NetError, match=match):
        OdometryNet(desk_config(**{key: value}))


# each ablation with the parameter-name fragment it removes
ABLATIONS = [
    ({}, ()),
    ({"cost_volume_mode": "uniform"}, ("/u1/", "/u2/")),
    ({"use_mask": False}, ("/mask/",)),
    ({"optimize_mask": False}, ("up_m",)),
    ({"use_warp": False}, ()),
    ({"use_warp_refinement": False}, ("refine/",)),
    ({"first_embedding": "last"}, ("init/carry",)),
]


@pytest.mark.parametrize("overrides, gone", ABLATIONS,
                         ids=[next(iter(o), "full") for o, _ in ABLATIONS])
def test_ablation_forward_and_parameters(overrides, gone):
    net = OdometryNet(desk_config(**overrides))
    out = net.forward(*_scans())
    expect = [4] if overrides.get("use_warp_refinement") is False \
        else [4, 3, 2, 1]
    assert [lv.level for lv in out.levels] == expect
    poses = _poses(out)
    assert np.isfinite(poses).all()
    assert np.allclose(np.linalg.norm(poses[:, :4], axis=1), 1.0, atol=1e-12)
    names = net.store.names()
    full = OdometryNet(desk_config()).store.names()
    for frag in gone:
        assert any(frag in n for n in full), frag
        assert not any(frag in n for n in names), frag
    # the same seed builds the same network, so poses match bit for bit
    again = OdometryNet(desk_config(**overrides)).forward(*_scans())
    assert _poses(again).tobytes() == poses.tobytes()


def test_no_warp_changes_the_refined_poses():
    full = _poses(OdometryNet(desk_config()).forward(*_scans()))
    no_warp = _poses(OdometryNet(desk_config(use_warp=False))
                     .forward(*_scans()))
    # level 4 is estimated before any warp, so it is unchanged
    assert full[0].tobytes() == no_warp[0].tobytes()
    assert not np.allclose(full[1:], no_warp[1:], atol=1e-9)
