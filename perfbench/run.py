"""lidom benchmark: seeded synthetic LiDAR scan pairs through OdometryNet.

    python3 perfbench/run.py --workload full_infer --seed 0 --seconds 10 --trace 0

Run from anywhere; it benchmarks the lidom sources under src/ next to this
directory and exits with code 2 when they are missing.

Workloads (see BENCHMARK.json for why each exists):
  full_infer  eager full_config forward on ~20k-point scans
  full_train  taped full_config forward + pose loss + backward

Every process runs one client in a closed loop with BLAS pinned to one
thread.  With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics:
  setup_s      median over SETUP_SAMPLES fresh processes of: import lidom,
               construct OdometryNet, load_params from a save_params blob
               (the byte-exact round trip is checked, untimed)
  pairs_per_s  pairs completed / summed pair wall time
  pair_s.p50   median wall seconds per pair
  peak_rss_mb  high-water RSS of the fresh process that ran the pairs
  ok_frac      1 - fail_frac: pairs that neither raised nor failed a check,
               over pairs attempted
With --trace 1 it reports per-layer metrics instead, averaged per pair, from
a traced loop that follows an untraced one in the same process.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
SETUP_SAMPLES = 8
# Beyond its timed phases a run spends this long at most: set-up processes,
# the eager/taped cross-check and the last pair of each phase.  A run that
# takes longer is stopped and reported as an error.
SLACK_S = 120.0


def pin_blas() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _child(request: dict, blob: bytes, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
        input=blob, stdout=subprocess.PIPE, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()), check=True)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")) or ".backward_s." in name:
        return "s"
    if name.endswith("_mb") or ".tape_mb." in name:
        return "MiB"
    return "count"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["full_infer", "full_train"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lidom" / "__init__.py").is_file():
        print(f"error: no lidom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    phases = 2 if args.trace else 1
    deadline = time.monotonic() + phases * args.seconds + SLACK_S
    pin_blas()
    sys.path.insert(0, str(HERE))
    import worker
    blob = worker.make_checkpoint()
    request = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace}
    # Half the set-up samples before the pairs and half after, so that their
    # median spans the run rather than one moment of a shared host's load.
    setups = [_child({**request, "mode": "setup"}, blob, deadline)["setup"]
              for _ in range(SETUP_SAMPLES // 2)]
    res = _child({**request, "mode": "run"}, blob, deadline)
    setups += [_child({**request, "mode": "setup"}, blob, deadline)["setup"]
               for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    run = res["run"]
    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        attempted += res["trace"]["attempted"]
        failed += res["trace"]["failed"]
    correct = failed == 0 and all(s["roundtrip_ok"] for s in setups + [res["setup"]])
    times = run["times"]
    p50 = statistics.median(times)
    print(f"{args.workload} seed={args.seed}: {len(times)} pairs timed, "
          f"pair_s.p50 {p50:.4f} s over n={len(times)}, "
          f"{failed}/{attempted} failed, BLAS threads {BLAS_THREADS}, "
          f"setup samples n={len(setups)}")
    if args.trace:
        found = dict(res["trace"]["metrics"])
        found["rss.first_pair_mb"] = run["first_pair_rss_mib"]
        found["tensor.ckpt_load_s"] = res["setup"]["load_s"]
        found["tensor.ckpt_mb"] = res["setup"]["ckpt_mb"]
        metrics = {k: _metric(v, _unit(k)) for k, v in found.items()}
    else:
        metrics = {
            "setup_s": _metric(statistics.median(s["setup_s"] for s in setups), "s"),
            "pairs_per_s": _metric(len(times) / sum(times), "1/s"),
            "pair_s.p50": _metric(p50, "s"),
            "peak_rss_mb": _metric(run["peak_rss_mib"], "MiB"),
            "ok_frac": _metric((attempted - failed) / attempted, "fraction"),
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
