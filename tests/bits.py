"""One sha256 over the numbers a change that keeps the bits must keep.

    OPENBLAS_NUM_THREADS=1 python tests/bits.py desk|full

For desk_config or full_config at init_seed=1, each of lidom.net.ABLATIONS
in turn (the full model, then its six ablations), on perfbench's seeded
scan pairs 0 and 5 (scans.DESK or scans.FULL), the digest covers the
checkpoint bytes, the eager and the taped forward's poses, and every
parameter's gradient of perfbench's pose loss.  It prints the digest, then
each taped pair's tape node count.  Two commits, or two runs of one, carry
the same bits when they print the same lines.  pytest does not collect this
file: at full scale it runs for tens of seconds.
"""
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import scans  # noqa: E402
import worker  # noqa: E402
from lidom import tensor as T  # noqa: E402
from lidom.net import (ABLATIONS, OdometryNet, desk_config,  # noqa: E402
                       full_config)
SCALES = {"desk": (desk_config, scans.DESK), "full": (full_config, scans.FULL)}
PAIRS = (0, 5)


def main(scale: str) -> None:
    config, spec = SCALES[scale]
    pairs = [scans.make_pair(spec, seed) for seed in PAIRS]
    digest, nodes = hashlib.sha256(), []
    for ablation in ABLATIONS:
        net = OdometryNet(config(init_seed=1, ablation=ablation))
        digest.update(T.save_params(net.store))
        for pair in pairs:
            eager = net.forward(pair.pc1, pair.pc2)
            with T.Tape() as tape:
                taped = net.forward(pair.pc1, pair.pc2)
                loss = worker.pose_loss(taped, pair.q, pair.t)
            nodes.append(len(tape.nodes))
            grads = tape.backward(loss, net.store)
            for lv in eager.levels + taped.levels:
                digest.update(lv.q.data.tobytes() + lv.t.data.tobytes())
            for name in sorted(grads):
                digest.update(name.encode() + grads[name].tobytes())
    print(f"sha256 {digest.hexdigest()}")
    print("tape nodes", *nodes)


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in SCALES:
        sys.exit(f"usage: python {sys.argv[0]} {'|'.join(SCALES)}")
    main(sys.argv[1])
