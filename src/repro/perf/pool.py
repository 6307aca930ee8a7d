"""Persistent warm-worker pool with chunked, dynamically fed dispatch.

``try_map`` (repro.perf.parallel) builds a fresh ``ProcessPoolExecutor``
per call and submits one future per item.  That shape is right for
fault-isolation tests, but wrong for throughput: every call pays pool
startup, every *item* pays a task round-trip, and oversubscribing a
small machine (``--jobs 4`` on one core) makes each task *slower* than
serial while the harness happily reports the fan-out as a win.  This
module is the coarse-grained counterpart (docs/PERFORMANCE.md):

* **Warm, persistent workers** — one :class:`WarmPool` outlives many
  ``map_chunked`` calls (and, via :func:`shared_pool`, many runner
  instances — the analysis service reuses one pool across requests).
  Workers run :func:`_warm_worker` once at birth: import the heavy
  analysis modules and optionally open the shared disk tier, so the
  first real task pays no import or index-build latency.  Under the
  ``fork`` start method the import step is effectively free (the child
  inherits the parent's modules); under ``spawn`` it is the whole point.
* **Oversubscription clamp** — :func:`effective_workers` caps the pool
  at the machine's usable CPU count.  Extra workers on a saturated
  machine add contention, not parallelism, and contention inflates
  per-task wall clocks (the committed ``BENCH_table1.json`` regression
  this PR fixes).
* **Chunked dynamic dispatch** — items are grouped into chunks (several
  work units per task round-trip) and chunks are *fed* to the pool as
  workers finish, rather than submitted all at once: a worker that
  lands a long chunk simply receives fewer chunks later, which is the
  work-stealing rebalance that keeps stragglers from serializing the
  tail.  Inside a chunk each item is individually guarded, so one
  raising item costs one slot, exactly like ``try_map``.

Results always settle in **input order** (the journal hook contract of
the resilient suite runner).
"""

from __future__ import annotations

import atexit
import logging
import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.perf.parallel import default_jobs, process_pool_usable
from repro.util.errors import WorkerCrashed

log = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

# Modules a warm worker pre-imports: the benchmark registry (compiles
# every benchmark source on import) and the driver stack it pulls in.
WARM_MODULES: Tuple[str, ...] = (
    "repro.benchsuite",
    "repro.core.blazer",
    "repro.domains.zone",
)


def effective_workers(jobs: int) -> int:
    """Clamp a requested fan-out to what the machine can actually run.

    ``--jobs 4`` on a one-core box must mean one warm worker, not four
    processes time-slicing one core: the work is CPU-bound, so the extra
    processes cannot overlap anything and only add scheduler contention
    (and, under the harness's in-worker wall clocks, make every
    benchmark look slower than serial).
    """
    return max(1, min(int(jobs), default_jobs()))


def _warm_worker(
    modules: Tuple[str, ...],
    perf_flag: Optional[bool],
    disk_prime: Optional[str],
) -> None:
    """Per-worker initializer: run once, before the first task."""
    import importlib

    for name in modules:
        try:
            importlib.import_module(name)
        except Exception:  # pragma: no cover - a missing optional module
            log.warning("warm import of %s failed", name, exc_info=True)
    if perf_flag is not None:
        from repro.perf import runtime

        runtime.set_enabled(perf_flag)
    if disk_prime:
        try:
            from repro.perf.disktier import DiskTier

            DiskTier(disk_prime)  # opens/creates the index once per worker
        except Exception:  # pragma: no cover - unwritable prime path
            log.warning("disk-tier prime of %s failed", disk_prime, exc_info=True)
    # Everything imported so far — including the heap inherited from the
    # parent under ``fork`` — is permanent for this worker's lifetime.
    # Freezing it takes those objects out of every future GC pass: a
    # worker forked from a parent with a large heap (the bench harness
    # after its serial baseline) would otherwise re-traverse millions of
    # inherited objects on each gen-2 collection, a measured ~30% tax on
    # allocation-heavy analyses.
    import gc

    gc.collect()
    gc.freeze()


def _prewarm_probe() -> bool:
    """No-op task: submitting it forces the executor to spawn workers."""
    return True


def _run_chunk(
    fn: Callable[[T], R], chunk: Sequence[T]
) -> List[Tuple[bool, Union[R, Exception]]]:
    """Worker-side chunk body: per-item isolation inside one task."""
    out: List[Tuple[bool, Union[R, Exception]]] = []
    for item in chunk:
        try:
            out.append((True, fn(item)))
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            out.append((False, exc))
    return out


def chunk_size_for(n_items: int, workers: int) -> int:
    """Chunk size targeting ~4 chunks per worker: coarse enough that
    task round-trips stop dominating, fine enough that a straggler chunk
    can be rebalanced around."""
    return max(1, -(-n_items // (workers * 4)))


class WarmPool:
    """A persistent process pool with warm workers and chunked dispatch.

    Thread-safe for sequential reuse (one ``map_chunked`` at a time per
    pool; the shared registry serializes via its own lock).  A pool
    whose executor broke (a worker died) transparently rebuilds the
    executor on the next call — the broken call itself reports
    :class:`WorkerCrashed` for the affected items, matching ``try_map``.
    """

    def __init__(
        self,
        jobs: int,
        perf_flag: Optional[bool] = None,
        modules: Tuple[str, ...] = WARM_MODULES,
        disk_prime: Optional[str] = None,
    ):
        self.workers = effective_workers(jobs)
        self._perf_flag = perf_flag
        self._modules = tuple(modules)
        self._disk_prime = disk_prime
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    # -- executor lifecycle -------------------------------------------------

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_warm_worker,
                initargs=(self._modules, self._perf_flag, self._disk_prime),
            )
        return self._pool

    def _discard_executor(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        with self._lock:
            self._discard_executor()

    def prewarm(self) -> None:
        """Start (fork) the workers now and wait for one round-trip.

        Useful before a measurement session: under ``fork`` the workers
        snapshot the parent heap at fork time, so forking *early* —
        before the caller allocates its own bulk — keeps the children
        lean, and the round-trip proves the initializers ran.
        """
        with self._lock:
            pool = self._executor()
            pool.submit(_prewarm_probe).result()

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- dispatch -----------------------------------------------------------

    def map_chunked(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        chunk_size: Optional[int] = None,
        on_result: Optional[Callable[[int, Union[R, Exception]], None]] = None,
    ) -> List[Union[R, Exception]]:
        """Apply ``fn`` to every item through the warm pool.

        Returns one slot per item, in input order: the result, or the
        exception that item raised (a dead worker maps every item of the
        affected — and every not-yet-submitted — chunk to
        :class:`WorkerCrashed`).  ``on_result(index, outcome)`` fires in
        input order as the settled prefix grows, so journals stay
        crash-consistent exactly as with ``try_map``.

        Chunks are fed dynamically: at most ``workers`` chunks are in
        flight; each completion submits the next pending chunk, so fast
        workers drain the queue while a straggler finishes its one chunk.
        """
        items = list(items)
        if not items:
            return []
        n = len(items)
        if chunk_size is None:
            chunk_size = chunk_size_for(n, self.workers)
        chunks: List[Tuple[int, List[T]]] = [
            (start, items[start : start + chunk_size])
            for start in range(0, n, chunk_size)
        ]
        results: List[Union[R, Exception]] = [None] * n  # type: ignore[list-item]
        filled = [False] * n
        settled = 0

        def fill(start: int, chunk: Sequence[T], outcome) -> None:
            if isinstance(outcome, Exception):
                for k in range(len(chunk)):
                    results[start + k] = outcome
                    filled[start + k] = True
            else:
                for k, (_ok, value) in enumerate(outcome):
                    results[start + k] = value
                    filled[start + k] = True

        def settle_prefix() -> None:
            nonlocal settled
            while settled < n and filled[settled]:
                if on_result is not None:
                    on_result(settled, results[settled])
                settled += 1

        with self._lock:
            pool = self._executor()
            next_chunk = 0
            live: Dict[object, Tuple[int, List[T]]] = {}
            broken = False

            def submit_more() -> bool:
                """Fill the free worker slots; False once the pool broke
                (a worker can die before the first completion arrives)."""
                nonlocal next_chunk
                while next_chunk < len(chunks) and len(live) < self.workers:
                    start, chunk = chunks[next_chunk]
                    try:
                        live[pool.submit(_run_chunk, fn, chunk)] = (start, chunk)
                    except BrokenExecutor:
                        return False
                    next_chunk += 1
                return True

            try:
                broken = not submit_more()
                while live and not broken:
                    done, _ = wait(live, return_when=FIRST_COMPLETED)
                    for future in done:
                        start, chunk = live.pop(future)
                        try:
                            outcome = future.result()
                        except BrokenExecutor as exc:
                            broken = True
                            outcome = WorkerCrashed(
                                "worker pool broke while running chunk at %d: %s"
                                % (start, exc),
                                task=str(items[start]),
                            )
                        except KeyboardInterrupt:
                            raise
                        except Exception as exc:  # chunk-level failure
                            outcome = exc
                        fill(start, chunk, outcome)
                    settle_prefix()
                    if not broken:
                        broken = not submit_more()
            except KeyboardInterrupt:
                self._discard_executor()
                raise
            if broken:
                self._discard_executor()
                crash = WorkerCrashed(
                    "worker pool broke with %d chunk(s) unscheduled"
                    % (len(chunks) - next_chunk),
                    task="pool",
                )
                for future, (start, chunk) in live.items():
                    fill(start, chunk, crash)
                while next_chunk < len(chunks):
                    start, chunk = chunks[next_chunk]
                    fill(start, chunk, crash)
                    next_chunk += 1
                settle_prefix()
        return results


def warm_executor(
    workers: int,
    disk_prime: Optional[str] = None,
    modules: Tuple[str, ...] = WARM_MODULES,
) -> ProcessPoolExecutor:
    """A plain ``ProcessPoolExecutor`` whose workers run the warm
    initializer — for callers that manage their own pool lifecycle (the
    analysis daemon's process-isolation tier) but still want workers
    that have imported the analysis stack before their first job."""
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_warm_worker,
        initargs=(tuple(modules), None, disk_prime),
    )


# -- process-wide shared pools -------------------------------------------------

_SHARED: Dict[Tuple[int, Optional[bool], Optional[str]], WarmPool] = {}
_SHARED_LOCK = threading.Lock()


def shared_pool(
    jobs: int,
    perf_flag: Optional[bool] = None,
    disk_prime: Optional[str] = None,
) -> WarmPool:
    """The process-wide warm pool for a configuration (created once).

    Successive suite runs — and the analysis service's successive
    requests — reuse the same warm workers instead of paying pool
    startup per run.  Pools are keyed by (clamped worker count, perf
    flag, disk-prime path) and shut down at interpreter exit.
    """
    key = (effective_workers(jobs), perf_flag, disk_prime)
    with _SHARED_LOCK:
        pool = _SHARED.get(key)
        if pool is None:
            pool = _SHARED[key] = WarmPool(
                jobs, perf_flag=perf_flag, disk_prime=disk_prime
            )
        return pool


def shutdown_shared() -> None:
    """Shut down every shared pool (atexit, and tests)."""
    with _SHARED_LOCK:
        for pool in _SHARED.values():
            pool.shutdown()
        _SHARED.clear()


atexit.register(shutdown_shared)


def warm_pool_usable() -> bool:
    """Process pools available on this platform?"""
    return process_pool_usable()
