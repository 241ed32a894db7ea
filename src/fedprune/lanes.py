"""Lanes: independent pieces of a round's work spread over the process's CPUs.

`on_lanes(items, work, count)` calls `work(item, lane)` for every item on
L lanes. Lane j takes items j, j + L, j + 2L, ... in order; lane 0 runs in
the calling thread and lanes 1..L-1 on a thread pool created on first use.
Each lane runs in a copy of the caller's context, so `np.errstate` and
other context variables hold there as they do in the caller. The call
returns once every lane has finished; if lanes fail, the first failure in
lane order is raised.

A lane computes what it would compute alone, on data no other lane writes,
so the results do not depend on L. The caller combines them in item order.

L is fixed at import. With C the CPUs this process may run on and B the BLAS
thread count it was started with (the first of OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS that is set, else C), L = max(1, C // B):
lanes use the cores that BLAS leaves idle. A caller asks `width(work)` how
many lanes its items are worth; work started inside a lane, or work whose
matrix products are too small to leave the GIL for long, gets one lane.
"""

from __future__ import annotations

import contextvars
import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def lane_count(environ=os.environ, cpus: int | None = None) -> int:
    """max(1, C // B) for C usable CPUs and B BLAS threads; 1 when B is unset."""
    if cpus is None:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            cpus = os.cpu_count() or 1
    blas = next((environ[var] for var in BLAS_ENV if var in environ), "").strip()
    threads = int(blas) if blas.isdigit() else 0  # 0: BLAS picks its own count, C
    return max(1, cpus // threads) if threads > 0 else 1


LANES = lane_count()

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
MIN_WORK = 10**6

_inside = contextvars.ContextVar("fedprune_inside_lane", default=False)
_pool = None  # (workers, ThreadPoolExecutor), made on first use


def width(work: int) -> int:
    """Lanes for items whose products take `work` multiply-adds each.

    LANES, or 1 inside a lane or when `work` is below MIN_WORK.
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


def on_lanes(items, work, count: int) -> None:
    """work(item, lane) for every item on L = min(count, len(items)) lanes.

    Lane j takes items j, j + L, ... in order; `count` comes from `width()`.
    """
    lanes = max(1, min(count, len(items)))

    def lane(j):
        _inside.set(True)
        for item in items[j::lanes]:
            work(item, j)

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
