"""Point-cloud odometry: differentiable hierarchical pose regression between
two LiDAR scans, in float64 numpy with a hand-written tape autodiff.

It runs on two cores (lidom.workers' helper thread and sampler process),
tuned for BLAS on one thread, as with OPENBLAS_NUM_THREADS=1 set before
numpy is imported: at OpenBLAS's default count a taped full_config step ran
about 60% slower on two vCPUs.  lidom sets no environment variable."""

__version__ = "0.1.0"
