"""Whole-network input guards and the config parser."""
from dataclasses import fields

import numpy as np
import pytest

from lidom.net import (NetConfig, NetError, OdometryNet, desk_config,
                       parse_config_text, read_config_file)
from lidom.pcops import PcopsError


def test_forward_rejects_a_nan_point():
    rng = np.random.default_rng(0)
    net = OdometryNet(desk_config())
    pc1 = rng.normal(size=(600, 3))
    pc2 = rng.normal(size=(600, 3))
    net.forward(pc1, pc2)
    pc1[123, 1] = np.nan
    with pytest.raises(NetError, match="pc1"):
        net.forward(pc1, pc2)


def test_forward_rejects_a_scan_with_fewer_distinct_points_than_level_1():
    # 100 points drawn with replacement up to n_input = 512 cannot give the
    # 128 distinct level-1 centers
    pc = np.random.default_rng(1).normal(size=(100, 3))
    with pytest.raises(PcopsError, match="cannot sample 128 distinct"):
        OdometryNet(desk_config()).forward(pc, pc)


def test_config_text_round_trips_every_field():
    cfg = desk_config(first_embedding="last", cost_volume_mode="uniform",
                      use_mask=False, optimize_mask=False, use_warp=False,
                      use_warp_refinement=False, init_seed=7)
    default = NetConfig()
    names = [f.name for f in fields(NetConfig)]
    assert len(names) == 22
    assert all(getattr(cfg, n) != getattr(default, n) for n in names)
    lines = ["# every field, away from its default", ""]
    lines += [f"  {n} = {getattr(cfg, n)}  " for n in names]
    assert parse_config_text("\n".join(lines + ["", "# end"])) == cfg


@pytest.mark.parametrize("text, match", [
    ("no_such_key = 1", "unknown key"),
    ("use_mask = maybe", "boolean"),
    ("n1 = 2.5", "expected int"),
    ("n2 = 4096", "must not increase"),
])
def test_config_text_rejects(text, match):
    with pytest.raises(NetError, match=match):
        parse_config_text(text)


def test_read_config_file(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("n1 = 1024\nuse_warp = no\n")
    assert read_config_file(path) == NetConfig(n1=1024, use_warp=False)
