"""Record the reference poses the benchmark checks every pair against.

    python3 perfbench/record_reference.py

For each pool pair, runs the eager forward and a taped training step with
the benchmark's checkpoint, and writes the poses and a per-parameter
gradient summary to reference/full.json.  Run it only when the program's
outputs are meant to change; the benchmark then accepts the new ones.
"""
from __future__ import annotations

import gc
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402


def record() -> dict:
    import checks
    import scans
    blob = worker.make_checkpoint()
    model, setup = worker.timed_setup(blob)
    if not setup["roundtrip_ok"]:
        raise SystemExit("checkpoint round trip is not byte-exact")
    pairs = []
    for idx in range(worker.POOL_SIZE):
        pair = scans.make_pair(scans.FULL, idx)
        poses = worker.eager_poses(model, pair)
        _, _, _, grads = worker.run_step(model, pair, train=True)
        summary = checks.grad_summary(grads, model.store)
        pairs.append({"digest": pair.digest(), "poses": poses.tolist(),
                      "grads": summary})
        grads = None
        gc.collect()   # the tape's closures and tensors form cycles
        zero = [name for name, (norm, _) in summary.items() if norm == 0.0]
        print(f"pair {idx} recorded; zero gradient: {zero}", file=sys.stderr)
    return {"config": "full",
            "ckpt_sha256": hashlib.sha256(blob).hexdigest(),
            "pairs": pairs}


def dumps(ref: dict) -> str:
    """One pair per line, so a re-recording diffs pair by pair."""
    head = {k: v for k, v in ref.items() if k != "pairs"}
    lines = ",\n".join(json.dumps(p) for p in ref["pairs"])
    return json.dumps(head)[:-1] + ', "pairs": [\n' + lines + "\n]}\n"


def main() -> int:
    run.pin_blas()
    ref = record()
    worker.REFERENCE.parent.mkdir(exist_ok=True)
    worker.REFERENCE.write_text(dumps(ref))
    return 0


if __name__ == "__main__":
    sys.exit(main())
