"""Whole-network input guards."""
import numpy as np
import pytest

from lidom.net import NetError, OdometryNet, desk_config


def test_forward_rejects_a_nan_point():
    rng = np.random.default_rng(0)
    net = OdometryNet(desk_config())
    pc1 = rng.normal(size=(600, 3))
    pc2 = rng.normal(size=(600, 3))
    net.forward(pc1, pc2)
    pc1[123, 1] = np.nan
    with pytest.raises(NetError, match="pc1"):
        net.forward(pc1, pc2)
