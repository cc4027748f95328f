"""Point-cloud odometry: differentiable hierarchical pose regression between
two LiDAR scans, in float64 numpy with a hand-written tape autodiff."""

__version__ = "0.1.0"
