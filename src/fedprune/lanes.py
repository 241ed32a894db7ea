"""Lanes: independent pieces of work spread over the process's CPUs.

The pieces are a round's lockstep chunks, test-set chunks and accuracy
counts, and the train and test sets a command builds once.

`on_lanes(items, work, count, commit)` calls `work(item, lane)` for every
item on L lanes. Lane j takes items j, j + L, j + 2L, ... in order; lane 0
runs in the calling thread and lanes 1..L-1 on a thread pool created on
first use. Each lane runs in a copy of the caller's context, so
`np.errstate` and other context variables hold there as they do in the
caller. The call returns once every lane has finished; if lanes fail, the
first failure in lane order is raised.

A lane computes what it would compute alone, on data no other lane writes,
so the results do not depend on L. The caller combines them in item order
through `commit(item, lane)`: after its work on an item, a lane waits until
every earlier item is committed and then commits its own, so commits run
one at a time, in item order, each right after its item's work. A lane
reuses its buffers for its next item only after its own commit, and no lane
waits at a barrier for the slowest lane of a wave.

L is fixed at import. Importing this module sets numpy's bundled OpenBLAS
to one thread, whatever the BLAS environment variables say, so the metrics
bytes do not depend on them, and L is C, the CPUs this process may run on.
Without a bundled OpenBLAS (another BLAS picks its own threads), L is 1 and
a warning says so. `BLAS_KERNEL` names the kernel OpenBLAS picked for this
CPU, e.g. "SkylakeX" (None without one): kernels round differently in the
last bits, so the bytes do depend on it. A caller asks `width(work)` how
many lanes its items are worth; work whose matrix products or fills are too
small to leave the GIL for long gets one lane, and so does work started
inside a lane (none is today), which could otherwise wait on pool threads
its caller holds.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import os
import threading
import warnings
from pathlib import Path

import numpy as np


def _pin_blas() -> str | None:
    """Set numpy's bundled OpenBLAS to one thread and name its kernel; None, with a warning, if none."""
    for lib in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"):
        with contextlib.suppress(OSError, AttributeError):  # not loadable, or no such symbol
            blas = ctypes.CDLL(str(lib))
            pin, corename = blas.scipy_openblas_set_num_threads64_, blas.scipy_openblas_get_corename64_
            pin.argtypes, pin.restype = [ctypes.c_int], None
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            pin(1)
            return corename().decode()
    warnings.warn("no bundled OpenBLAS to pin to one thread: running on one lane", RuntimeWarning)
    return None


try:
    _CPUS = len(os.sched_getaffinity(0))  # the CPUs this process may run on
except AttributeError:  # no affinity call on this platform
    _CPUS = os.cpu_count() or 1
BLAS_KERNEL = _pin_blas()
LANES = _CPUS if BLAS_KERNEL else 1

# Fewest multiply-adds per matrix product (rows x parameters) for which an
# item gets more than one lane. BLAS releases the GIL only inside a product;
# between products two lanes take turns holding it, and below this size the
# hand-overs cost more than the second core gives. Measured with 1 BLAS
# thread on a 2-core Xeon VM (python 3.11, numpy 2.4), two lanes against
# one: evaluate() 20-32-10 at 128 rows (1.2e5) 2.3x slower, 100-64-10
# (9e5) 1.05-1.3x slower, 784-16-10 (1.6e6) 0.89x, 784-200-10 (2e7) 0.71x;
# local_update at 10 rows per slot, 100-64-10 in chunks of 10 (7e5) 0.97x,
# 784-64-10 in chunks of 2 (1e6) 0.8x, 784-200-10 one slot a chunk (1.6e6)
# 0.7-0.8x.
# The same bound serves as values per item for fills, whose generator and
# ufunc loops release the GIL: two synth_blobs sets of 784 columns on two
# lanes against one, pool already made, take at 1e5 values each 0.59x, 3e5
# 0.54x (-8 ms), 1e6 0.53x (-22 ms), 7.8e6 0.51x; a fresh process pays
# ~10 ms to import concurrent.futures and start the pool, which only sets
# of 1e6 values or more win back. Two load_idx sets of 28x28 images (~81%
# zero pixels), pool already made, medians of 7: plain files of 1e5 values
# each 1.19x, 1e6 0.69x (-2 ms), 7.8e6 0.59x (-21 ms); gzipped (2.9x
# smaller on disk), 1e5 values 1.26x, 1e6 0.65x (-9 ms), 7.8e6 0.55x
# (-84 ms); MNIST-sized 60,000 + 10,000 images 0.88x plain (206 -> 181 ms)
# and gzipped (682 -> 600 ms). There an item's values are its image file's
# bytes on disk: exact for plain files, fewer when gzipped, so a gzipped set
# of 1e6 to ~3e6 values stays on one lane that two would speed up.
MIN_WORK = 10**6

_inside = contextvars.ContextVar("fedprune_inside_lane", default=False)
_pool = None  # (workers, ThreadPoolExecutor), made on first use


def width(work: int) -> int:
    """Lanes for items whose products take `work` multiply-adds each.

    Items that fill arrays pass the values each fills as `work`. LANES, or 1
    inside a lane or when `work` is below MIN_WORK.
    """
    return 1 if _inside.get() or work < MIN_WORK else LANES


def _executor(workers: int):
    """A pool of at least `workers` threads."""
    global _pool
    if _pool is None or _pool[0] < workers:
        from concurrent.futures import ThreadPoolExecutor  # only runs that use lanes pay for it

        if _pool is not None:
            _pool[1].shutdown()
        _pool = (workers, ThreadPoolExecutor(workers, thread_name_prefix="fedprune-lane"))
    return _pool[1]


def on_lanes(items, work, count: int, commit=None) -> None:
    """work(item, lane) for every item on L = min(count, len(items)) lanes.

    Lane j takes items j, j + L, ... in order; `count` comes from `width()`.
    With `commit`, the lane that worked on item i then calls
    commit(item, lane) once items 0..i-1 are committed. A failure in `work`
    or `commit` of item i releases the lanes waiting to commit: no item
    after i is committed, and each lane stops before its next commit.

    With `commit` the lanes of one call wait for each other, and the pool is
    shared: calls from two threads outside the lanes must not overlap, or the
    waiting lanes of one call could hold the threads the other needs.
    """
    lanes = max(1, min(count, len(items)))
    turn = threading.Condition()
    committed = 0  # items 0..committed-1 are committed
    failed = False

    def lane(j):
        nonlocal committed, failed
        _inside.set(True)
        try:
            for i in range(j, len(items), lanes):
                work(items[i], j)
                if commit is None:
                    continue
                with turn:
                    turn.wait_for(lambda: committed == i or failed)
                    if failed:
                        return
                commit(items[i], j)  # alone: no other lane holds the turn
                with turn:
                    committed = i + 1
                    turn.notify_all()
        except BaseException:
            with turn:
                failed = True
                turn.notify_all()
            raise

    contexts = [contextvars.copy_context() for _ in range(lanes)]
    pending = []
    if lanes > 1:
        pool = _executor(lanes - 1)
        pending = [pool.submit(contexts[j].run, lane, j) for j in range(1, lanes)]
    failure = None
    try:
        contexts[0].run(lane, 0)
    except BaseException as exc:  # wait for the other lanes before raising
        failure = exc
    for future in pending:
        exc = future.exception()
        if failure is None:
            failure = exc
    if failure is not None:
        raise failure
