"""One benchmark process: set up lidom, then run a workload's pairs.

    python3 perfbench/worker.py '<json args>' < checkpoint.blob

The checkpoint blob (from `make_checkpoint`) arrives on stdin.  The JSON
arguments are {"mode": "setup" | "run", "workload": ..., "seed": ...,
"seconds": ..., "trace": 0 | 1}.  The last stdout line is a JSON result.
run.py starts this script in a fresh process, so the import time it measures
is real and its peak RSS is this workload's alone.  Modules that import numpy
are imported inside functions, never at module level, so that the timed
set-up pays for numpy's import as a user's first `import lidom` does.
"""
from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "full.json"

# Parameters come from a network built with this seed, not the default 0, so
# loading them visibly replaces what the constructor initialised.
CKPT_SEED = 1
MIN_PAIRS = 2

# Whether each workload runs a taped forward + loss + backward (else eager).
# Both use full_config on scans.FULL.
TRAIN = {"full_infer": False, "full_train": True}
POOL_SIZE = 16
# Per-level weights, coarse to fine (the alpha schedule recalled from the
# paper), and the weight of the quaternion term.  Any fixed positive
# weights exercise the same backward.
LEVEL_WEIGHTS = (1.6, 0.8, 0.4, 0.2)
Q_WEIGHT = 10.0


def _import_lidom():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import lidom.net
    import lidom.tensor
    where = Path(lidom.net.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"lidom imported from {where}, not from this checkout")
    return lidom.net, lidom.tensor


def make_checkpoint() -> bytes:
    N, T = _import_lidom()
    return T.save_params(N.OdometryNet(N.full_config(init_seed=CKPT_SEED)).store)


def timed_setup(blob: bytes):
    """Import lidom, construct the network, load the checkpoint into it."""
    t0 = time.perf_counter()
    N, T = _import_lidom()
    t1 = time.perf_counter()
    model = N.OdometryNet(N.full_config())
    t2 = time.perf_counter()
    loaded = T.load_params(blob)
    for p in model.store:
        p.value = loaded[p.name].value
    t3 = time.perf_counter()
    ok = (loaded.names() == model.store.names()
          and T.save_params(model.store) == blob)
    return model, {"import_s": t1 - t0, "construct_s": t2 - t1,
                   "load_s": t3 - t2, "setup_s": t3 - t0, "roundtrip_ok": ok,
                   "ckpt_mb": len(blob) / float(1 << 20)}


def pose_loss(out, q_gt, t_gt):
    """Fixed multi-level pose loss against the pair's known motion."""
    import lidom.tensor as T
    total = None
    for w, lv in zip(LEVEL_WEIGHTS, out.levels):
        dq = T.sub(lv.q, T.const(q_gt))
        dt = T.sub(lv.t, T.const(t_gt))
        term = T.add(T.reduce_sum(T.mul(dt, dt)),
                     T.mul(T.const(Q_WEIGHT), T.reduce_sum(T.mul(dq, dq))))
        term = T.mul(T.const(w), term)
        total = term if total is None else T.add(total, term)
    return total


def _untraced(name: str):
    return nullcontext()


def run_step(model, pair, train: bool, tracer=None, backward_totals=None):
    """One pair through the program; returns (seconds, out, tape, grads).

    Everything between the two clock reads is program work plus, when
    traced, the tracer's own spans.
    """
    import lidom.tensor as T
    import spans as S
    span = tracer.span if tracer is not None else _untraced
    tape = grads = None
    t0 = time.perf_counter()
    with span("bench.pair"):
        if not train:
            out = model.forward(pair.pc1, pair.pc2)
        else:
            with T.Tape() as tape:
                if tracer is not None:
                    tracer.tape = tape
                out = model.forward(pair.pc1, pair.pc2)
                with span("bench.loss"):
                    loss = pose_loss(out, pair.q, pair.t)
            if backward_totals is not None:
                with span("trace.instrument"):
                    S.time_backward(tape, backward_totals)
            with span("tensor.backward"):
                grads = tape.backward(loss, model.store)
    return time.perf_counter() - t0, out, tape, grads


def eager_poses(model, pair):
    import checks
    return checks.pose_array(model.forward(pair.pc1, pair.pc2))


def taped_poses(model, pair):
    import checks
    import lidom.tensor as T
    with T.Tape():
        return checks.pose_array(model.forward(pair.pc1, pair.pc2))


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    def __init__(self, name: str, model, seed: int, blob: bytes) -> None:
        import scans
        self.name = name
        self.train = TRAIN[name]
        self.model = model
        ref = json.loads(REFERENCE.read_text())
        self.reference = ref["pairs"]
        self.same_ckpt = ref["ckpt_sha256"] == hashlib.sha256(blob).hexdigest()
        self.order = scans.pair_sequence(seed, POOL_SIZE)
        self.deferred = None   # (pair, eager poses) awaiting the taped check

    def next_pair(self):
        import scans
        idx = next(self.order)
        return idx, scans.make_pair(scans.FULL, idx)

    def check(self, out, grads, poses, idx, digest, eager) -> list[str]:
        import checks
        problems = checks.check_output(out, self.model.cfg)
        ref = self.reference[idx]
        if not self.same_ckpt:
            problems.append("checkpoint differs from the reference's")
        elif not problems:
            problems += checks.check_reference(poses, digest, ref)
        if grads is not None:
            problems += checks.check_grads(grads, self.model.store, ref["grads"])
        if eager is not None:
            problems += checks.check_same(eager, poses)
        return problems

    def run_phase(self, seconds: float, tracer=None, on_pair=None) -> dict:
        """Closed loop, one client: next pair only after the last is done.

        Runs until `seconds` of wall time, not counting the cross-check,
        have passed and at least MIN_PAIRS pairs are done.  Checks and the
        collection between pairs happen outside each pair's timing.  The
        first pair of an untraced phase also gets the eager/taped
        cross-check; for inference it is deferred to
        `deferred_cross_check`, because a taped forward holds far more
        memory than the eager inference being measured.
        """
        import checks
        times, failed, attempted = [], [], 0
        first_rss = None
        start = time.perf_counter()
        checking = 0.0   # cross-check time, left out of the measured window
        while (attempted < MIN_PAIRS
               or time.perf_counter() - start - checking < seconds):
            idx, pair = self.next_pair()
            attempted += 1
            cross = tracer is None and attempted == 1
            try:
                eager = None
                if cross and self.train:
                    t0 = time.perf_counter()
                    eager = eager_poses(self.model, pair)
                    checking += time.perf_counter() - t0
                totals = defaultdict(float) if tracer and self.train else None
                if tracer is not None:
                    tracer.reset()
                elapsed, out, tape, grads = run_step(self.model, pair,
                                                     self.train, tracer, totals)
                times.append(elapsed)
                poses = checks.pose_array(out)
                problems = self.check(out, grads, poses, idx, pair.digest(), eager)
                if cross and not self.train:
                    self.deferred = (pair, poses)
                if on_pair is not None:
                    on_pair(tape, totals)
            except Exception:
                traceback.print_exc()
                problems = ["raised"]
            out = tape = grads = None
            gc.collect()   # the tape's closures and tensors form cycles
            if first_rss is None:
                first_rss = rss_mib()
            if problems:
                print(f"{self.name} pair {idx}: {problems}", file=sys.stderr)
                failed.append(attempted)
        return {"times": times, "attempted": attempted, "failed": failed,
                "peak_rss_mib": rss_mib(), "first_pair_rss_mib": first_rss}

    def deferred_cross_check(self) -> bool:
        """Taped forward on the first inference pair; True if it failed."""
        import checks
        if self.deferred is None:
            return False
        pair, poses = self.deferred
        self.deferred = None
        try:
            problems = checks.check_same(poses, taped_poses(self.model, pair))
        except Exception:
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            print(f"{self.name} cross-check: {problems}", file=sys.stderr)
        return bool(problems)


def main() -> int:
    args = json.loads(sys.argv[1])
    blob = sys.stdin.buffer.read()
    model, setup = timed_setup(blob)
    if args["mode"] == "setup":
        print(json.dumps({"setup": setup}))
        return 0
    runner = Runner(args["workload"], model, args["seed"], blob)
    result = {"setup": setup, "run": runner.run_phase(args["seconds"])}
    if args["trace"]:
        result["trace"] = traced_phase(runner, args["seconds"], result["run"])
    failed = set(result["run"]["failed"])
    if runner.deferred_cross_check():
        failed.add(1)
    result["run"]["failed"] = len(failed)
    print(json.dumps(result))
    return 0


def traced_phase(runner: Runner, seconds: float, untraced: dict) -> dict:
    """Per-layer metrics, averaged per pair, from a separate traced loop."""
    import spans as S
    model = runner.model
    levels = [n for n, _ in model.cfg.levels()]
    param_bufs = [p.value for p in model.store]
    tracer = S.Tracer()
    sums: dict[str, float] = defaultdict(float)
    pairs = 0

    def on_pair(tape, totals):
        nonlocal pairs
        pairs += 1
        found = S.layer_metrics(tracer.spans, levels)
        if tape is not None:
            reach = S.Reach(param_bufs)
            found.update(S.tape_node_counts(tape))
            found.update(S.tape_bytes(tape, reach))
            found["tensor.grads_mb"] = reach.bytes_from(tape) / S.MIB
            found.update(S.backward_by_kind(totals))
        for k, v in found.items():
            sums[k] += v

    tracer.install()
    try:
        phase = runner.run_phase(seconds, tracer, on_pair)
    finally:
        tracer.uninstall()
    metrics = {name: sums[name] / max(pairs, 1) for name in S.PER_PAIR_METRICS}
    metrics["tensor.retained_mb"] = (
        S.Reach(param_bufs).bytes_from(model.store) / S.MIB)
    metrics["trace.overhead_s"] = (statistics.median(phase["times"])
                                   - statistics.median(untraced["times"]))
    return {"metrics": metrics, "attempted": phase["attempted"],
            "failed": len(phase["failed"])}


if __name__ == "__main__":
    sys.exit(main())
