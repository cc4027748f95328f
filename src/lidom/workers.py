"""How lidom uses a second core: one helper thread and one sampler process.

each(fn, items) runs the row blocks of an mlp or attend op and attend's
two stack backwards (tensor), or knn_indices' query chunks (pcops), on two
threads, the caller's and the process's one helper thread, the worker of a
one-thread ThreadPoolExecutor: both pop items off one list and run each by
the same code into its own outputs.  No item touches a tape, so which
thread runs it changes no bit, and numpy's loops and BLAS release the
interpreter lock, so the two threads' items overlap on two cores.  The
first call with two items imports concurrent.futures and starts the
helper; once the interpreter is shutting down, the caller runs every item.

SAMPLER is the pc2 sampler process.  The pyramid's tables (FPS centres and
k-NN tables, pcops.sample_pyramid) use no parameter, and nothing pc1 does
needs pc2's until the first cost volume, so OdometryNet.forward sends pc2's
subsample to the sampler and runs pc1's pyramid meanwhile.  The child runs
the same sample_pyramid from the same lidom sources (it imports lidom.pcops
only) on the same float64 points, and pickle carries arrays across the pipe
byte for byte, so poses, tapes and gradients are those of sampling in this
process.  One sampler serves every OdometryNet in a Python process; the
first forward starts it with subprocess.Popen running `python -c` (not
fork, and not multiprocessing, which re-imports the caller's __main__).  It
exits when its stdin closes: at interpreter exit an atexit hook closes that
pipe and reaps it, and if this process dies the pipe closes with it.  A
forward whose sampler cannot start, has died or is busy with another
thread's request samples pc2 itself, and the next forward starts a new
sampler; a forward that raises with a request in flight kills the sampler,
so no later request can read that reply.

At a fork one os.register_at_fork hook drops the executor and the sampler
handle in the child, which closes its copies of the sampler pipes at once,
so that the parent's exit never waits on it; the child starts its own
helper and sampler when it needs them.  Nothing from lidom is imported at
module level, so tensor and pcops import this module without a cycle; they
read BLOCK_ELEMS and each at call time.
"""
from __future__ import annotations

import atexit
import os
import sys
import threading
from contextlib import contextmanager, suppress
from typing import Callable, Sequence

__all__ = ["BLOCK_ELEMS", "SAMPLER", "each"]


# Output rows per block of an mlp or attend stack: rows times the elements
# per row of the stack's widest layer output is at most this, so that one
# per-edge (rows, k, c) float64 array is about 512 KiB and a block's layers
# stay in a core's cache.  pcops' FPS and KNN size their (rows, n_ref)
# distance chunks by it for the same reason.
BLOCK_ELEMS = 1 << 16


_POOL = None                  # the helper thread's ThreadPoolExecutor
_POOL_LOCK = threading.Lock()  # one thread makes it


def _submit(job: list):
    """The helper's future for _drain(job), the helper made on first use;
    None once the interpreter is shutting down and takes no new job."""
    global _POOL
    try:
        with _POOL_LOCK:
            if _POOL is None:
                from concurrent.futures import ThreadPoolExecutor
                _POOL = ThreadPoolExecutor(max_workers=1,
                                           thread_name_prefix="lidom-helper")
        return _POOL.submit(_drain, job)
    except RuntimeError:  # shutting down: no new thread, no new job
        return None


def _drain(job: list) -> None:
    """Run fn on the items of job = [fn, items in reverse], popping the
    next until none is left.  An exception empties the list, so that the
    other thread claims no more."""
    fn, todo = job
    while True:
        try:
            item = todo.pop()
        except IndexError:
            return
        try:
            fn(item)
        except BaseException:
            todo.clear()
            raise


def each(fn: Callable, items: Sequence) -> None:
    """fn(item) for every item, on this thread and on the helper thread,
    which pop the items off one list.  The call puts one job on the
    helper's queue and waits for it only if the helper has started it (its
    future cannot be cancelled), so a helper that is busy with another
    thread's call or not yet running never stalls it, and no call can
    deadlock.  No item in lidom makes a call of its own; the rule protects
    callers on separate threads, which share the one helper.  An exception
    stops further claims and is raised here once the other thread has
    finished its current item (this thread's, if both raise).  Once the
    interpreter is shutting down, this thread runs every item.

    The items must write disjoint outputs and touch no tape: a caller
    records its node after the call, on its own thread."""
    if len(items) < 2:
        for item in items:
            fn(item)
        return
    job = [fn, list(reversed(items))]
    helper = _submit(job)
    try:
        _drain(job)
    finally:
        started = helper is not None and not helper.cancel()
        error = helper.exception() if started else None
        # a cancelled job stays queued until the helper gets to it, and
        # must not keep fn's arrays alive until then
        job.clear()
    if error is not None:
        raise error


# Seconds the sampler gets to exit once its stdin closes, before a kill.
_EXIT_TIMEOUT_S = 2.0


class _Sampler:
    """The sampler process: it answers each pickled (points, sizes, k)
    request with sample_pyramid's tables or the PcopsError it raised."""

    def __init__(self) -> None:
        self._lock = threading.Lock()  # one request in flight
        self._proc = None              # subprocess.Popen once started

    @contextmanager
    def tables(self, points, sizes: list[int], k: int):
        """Send sample_pyramid(points, sizes, k) to the child and yield
        reply(): its tables, or the exception it raised, raised here, or
        None when the child cannot start, has died or is busy with another
        thread's request.  A request in flight at exit kills the child."""
        if not self._lock.acquire(blocking=False):
            yield lambda: None
            return
        try:
            # True until a send fails cleanly or the reply is read: an
            # interrupted write or read leaves the pipes mid-message
            pending = True
            pending = self._send((points, sizes, k))

            def reply():
                nonlocal pending
                got = self._receive() if pending else None
                pending = False
                if isinstance(got, Exception):
                    raise got
                return got

            yield reply
        finally:
            if pending:
                self._stop(kill=True)
            self._lock.release()

    def _send(self, request) -> bool:
        import pickle
        if self._proc is None:
            self._start()
        if self._proc is None:
            return False
        try:
            pickle.dump(request, self._proc.stdin, pickle.HIGHEST_PROTOCOL)
            self._proc.stdin.flush()
            return True
        except OSError:  # BrokenPipeError: the child has died
            self._stop(kill=True)
            return False

    def _receive(self):
        import pickle
        try:
            return pickle.load(self._proc.stdout)
        except (EOFError, OSError, pickle.UnpicklingError):
            self._stop(kill=True)
            return None

    def _start(self) -> None:
        import subprocess
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = (f"import sys; sys.path.insert(0, {src!r}); "
                "from lidom.workers import _sampler_main; _sampler_main()")
        with suppress(OSError):  # the interpreter cannot start
            self._proc = subprocess.Popen([sys.executable, "-c", code],
                                          stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE)

    def _forget(self) -> None:
        """Drop a forked child's copy of its parent's sampler handle.  The
        child closes its copies of both pipes, so that the sampler sees EOF
        once the parent closes its own, and does not wait: the sampler is
        not the child's to reap.  poll()'s waitpid fails with ECHILD, which
        Popen takes as an exit, so the handle goes without a warning."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        for pipe in (proc.stdin, proc.stdout):
            with suppress(OSError):
                pipe.close()
        proc.poll()

    def _stop(self, kill: bool) -> None:
        """Close the child's pipes and reap it: kill it first if asked, or
        if it has not exited within _EXIT_TIMEOUT_S of its stdin closing."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        import subprocess
        if kill:
            proc.kill()
        with suppress(OSError):  # an interrupted write's rest cannot go
            proc.stdin.close()
        try:
            proc.wait(timeout=_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def close(self) -> None:
        self._stop(kill=False)


SAMPLER = _Sampler()
atexit.register(SAMPLER.close)


def _after_fork_in_child() -> None:
    """Drop the executor, the lock another thread may have held at the
    fork, and the parent's sampler handle."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()
    SAMPLER._forget()


os.register_at_fork(after_in_child=_after_fork_in_child)


def _sampler_main() -> None:
    """The sampler process's loop: answer requests until stdin closes."""
    import pickle
    import signal

    from lidom.pcops import PcopsError, sample_pyramid
    # Ctrl-C reaches the whole process group: the parent handles it, and
    # its exit closes stdin
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    while True:
        try:
            points, sizes, k = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = sample_pyramid(points, sizes, k)
        except PcopsError as e:
            reply = e
        try:
            pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
            replies.flush()
        except BrokenPipeError:  # the parent has gone: exit without a flush
            os._exit(0)
