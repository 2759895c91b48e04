"""Pluggable execution backends for the batched sDTW engine.

:class:`~repro.batch.engine.BatchSDTWEngine` is a *lane manager*: it decides
which read occupies which lane, when lanes are recycled, and what the
per-round occupancy trace looks like. *Where and how* the lane-stacked
:class:`~repro.core.sdtw.BatchSDTWState` actually advances is this module's
job. An :class:`ExecutionBackend` owns the resident DP state and exposes
three data-movement verbs plus lane bookkeeping:

* ``advance(lanes, queries)`` — the per-round hot path: feed each listed lane
  its new (kernel-scale) query samples and return the post-advance cost and
  end position per lane;
* ``gather(lanes)`` / ``scatter(lanes, state)`` — stack lane state out of /
  into the backend (snapshots, tests, interop); cold paths;
* ``allocate`` / ``reset`` — capacity growth and lane recycling.

Backends are **panel-aware**: the reference they hold may be a
:class:`~repro.core.panel.TargetPanel`'s concatenated column space, whose
per-target offsets arrive as ``block_starts``. ``advance`` returns
``(costs, ends)`` of shape ``(n_lanes, n_blocks)`` — one per-target
cost/local-end pair per lane, bit-identical to independent single-reference
runs (a plain single reference is one block, so the arrays are just
``(n_lanes, 1)``).

Three implementations are registered, mirroring how UNCALLED exposes its DTW
variants behind a string-keyed ``METHODS`` mapping:

* :class:`NumpyBackend` (``"numpy"``) — the in-process path: one
  :class:`BatchSDTWState` in this process, advanced by
  :func:`~repro.core.sdtw.sdtw_resume_batch`. Exactly the execution PR 2's
  monolithic engine performed.
* :class:`ShardedProcessBackend` (``"sharded"``) — **lanes** striped across a
  persistent pool of worker processes, one shard of the stacked state
  resident per worker. Per round only the ragged query chunks travel down
  the pipes and only the per-lane cost/end snapshots travel back; the rows
  themselves never move. Each shard's state lives in a shared-memory block
  (``int32`` rows for the all-integer hardware configurations — half the
  footprint), so gather/scatter/reset are zero-copy parent-side reads and
  writes, with no worker round trip. Scales with the *channel* count.
* :class:`ColumnShardedBackend` (``"colsharded"``) — **reference columns**
  striped across the worker pool: every worker holds all lanes but only its
  contiguous column tile. Per round the parent snapshots each tile's left
  *halo* (the last ``max(chunk)`` columns of its left neighbour, read from
  shared memory) and ships it with the chunks; workers advance their tile
  exactly (the halo re-computation is discarded) and return per-target
  partial minima, which the parent merges left-to-right. This is the shape
  that parallelizes a **single-channel genome-scale** workload, where lane
  sharding has nothing to stripe.

All backends run the same kernel on the same per-lane state, so per-lane,
per-target costs, rows and therefore Read Until decisions are bit-identical —
backend selection is purely an execution concern, which is what lets
``RunConfig(backend="sharded")`` scale a full flowcell across cores without
touching decision logic.

Every ``advance`` additionally accepts per-lane ``prune_bounds`` (kill
thresholds for the kernel's pruning layer — see
:func:`~repro.core.sdtw.sdtw_resume_batch`) and accumulates the
advanced/pruned cell counts in :attr:`ExecutionBackend.stats`; worker
backends ship the per-round deltas back inside their reply payloads.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import time
import traceback
from math import ceil
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.config import SDTWConfig
from repro.obs.trace import NULL_TRACER, Tracer, worker_span
from repro.core.sdtw import (
    AdvanceStats,
    BatchSDTWState,
    int32_data_path,
    normalize_block_starts,
    reduce_block_minima,
    sdtw_resume_batch,
    tile_block_starts,
    tile_halo_start,
)

__all__ = [
    "ColumnShardedBackend",
    "ExecutionBackend",
    "NumpyBackend",
    "ShardedProcessBackend",
    "available_backends",
    "create_backend",
    "default_workers",
    "register_backend",
]


def default_workers() -> int:
    """Worker processes a multi-process backend starts when none are given.

    One per core this process may run on (its CPU affinity, not the
    machine's core count), capped at 8. No core is reserved for the parent:
    it only waits on the pool while the workers compute.
    """
    return min(8, len(os.sched_getaffinity(0)))


class ExecutionBackend(Protocol):
    """Where the lane-stacked sDTW state lives and how it advances.

    Implementations own one logical ``(capacity, reference_length)``
    :class:`BatchSDTWState` (however it is physically stored) and must keep
    per-lane results bit-identical to per-read :func:`sdtw_resume` calls —
    the lane manager and every layer above it treat backends as
    interchangeable.
    """

    backend_name: str

    # Cumulative advanced/pruned cell counts across every ``advance`` call;
    # the engine reads (and a fresh instance resets) these for telemetry.
    stats: AdvanceStats

    # Observability hook: the engine hands the backend its tracer, so advance
    # phases land on the engine's timeline.
    tracer: Tracer

    @property
    def capacity(self) -> int:
        """Lanes currently allocated."""
        ...

    @property
    def reference_length(self) -> int: ...

    @property
    def n_blocks(self) -> int:
        """Targets in the panel this backend's reference concatenates (>= 1)."""
        ...

    def allocate(self, min_capacity: int) -> None:
        """Grow storage to at least ``min_capacity`` lanes (never shrinks).

        Existing lane state is preserved; new lanes come up zeroed. The
        backend may round the capacity up (e.g. to a multiple of its shard
        count) — callers re-read :attr:`capacity` afterwards.
        """
        ...

    def reset(self, lanes: np.ndarray) -> None:
        """Return the given lanes to the fresh (no samples consumed) state."""
        ...

    def advance(
        self,
        lanes: np.ndarray,
        queries: Sequence[np.ndarray],
        prune_bounds: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Advance each listed lane with its new query samples (the hot path).

        Returns ``(costs, end_positions)`` of shape ``(len(lanes),
        n_blocks)``: the post-advance cost and block-local end position per
        lane **per panel target**, bit-identical to independent
        single-reference runs. The backend updates its resident
        rows/runs/samples in place. ``prune_bounds`` (one kill threshold per
        listed lane, ``inf`` = never prune) engages the kernel's pruning
        layer; it is ``None`` when pruning is off.
        """
        ...

    def gather(self, lanes: np.ndarray) -> BatchSDTWState:
        """Stack the given lanes' state into a fresh :class:`BatchSDTWState`."""
        ...

    def scatter(self, lanes: np.ndarray, state: BatchSDTWState) -> None:
        """Write stacked lane state back into the backend's resident storage."""
        ...

    def close(self) -> None:
        """Release workers/storage. Idempotent; the backend is unusable after."""
        ...


# ------------------------------------------------------------------- registry
BackendFactory = Callable[..., ExecutionBackend]

_BACKENDS: Dict[str, BackendFactory] = {}


def register_backend(name: str) -> Callable[[BackendFactory], BackendFactory]:
    """Register an execution-backend factory under a string key (decorator).

    Factories are called as ``factory(reference, config, capacity,
    block_starts=..., **options)`` and must return an object satisfying
    :class:`ExecutionBackend`.
    """

    def wrap(factory: BackendFactory) -> BackendFactory:
        key = name.lower()
        if key in _BACKENDS:
            raise ValueError(f"execution backend {name!r} is already registered")
        _BACKENDS[key] = factory
        return factory

    return wrap


def available_backends() -> Tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def create_backend(
    name: str,
    reference: np.ndarray,
    config: SDTWConfig,
    capacity: int,
    **options: Any,
) -> ExecutionBackend:
    """Instantiate a registered execution backend by name.

    An unknown name raises :class:`ValueError` listing
    :func:`available_backends`, so callers (CLI ``--backend`` choices, spec
    validation) can surface the registry verbatim.
    """
    try:
        factory = _BACKENDS[name.lower()]
    except KeyError:
        known = ", ".join(available_backends()) or "(none)"
        raise ValueError(
            f"unknown execution backend {name!r}; available backends: {known}"
        ) from None
    return factory(reference, config, capacity, **options)


def _state_dtypes(config: SDTWConfig) -> Tuple[np.dtype, np.dtype]:
    """(rows, runs) storage dtypes for a backend's resident state.

    The all-integer hardware data path (:func:`~repro.core.sdtw.int32_data_path`,
    the precondition of the kernel's int32 fast path) stores ``int32`` rows
    and runs, halving the footprint. Other configurations store the
    :class:`BatchSDTWState` dtypes directly.
    """
    if int32_data_path(config):
        return np.dtype(np.int32), np.dtype(np.int32)
    rows = np.dtype(np.int64) if config.quantize else np.dtype(np.float64)
    return rows, np.dtype(np.int64)


# --------------------------------------------------------------- numpy backend
@register_backend("numpy")
class NumpyBackend:
    """In-process execution: one resident :class:`BatchSDTWState`.

    This is PR 2's engine execution extracted verbatim: ``advance`` gathers
    the listed lanes into a contiguous stacked state, runs one
    :func:`sdtw_resume_batch` wavefront, and scatters the advanced rows back.
    ``block_starts`` makes the reference a multi-target panel column space.
    """

    backend_name = "numpy"
    # Observability hook the engine overwrites; the shared disabled tracer
    # makes every span below a single `if` (same on every built-in backend).
    tracer: Tracer = NULL_TRACER

    def __init__(
        self,
        reference: np.ndarray,
        config: Optional[SDTWConfig] = None,
        capacity: int = 8,
        block_starts: Optional[np.ndarray] = None,
    ) -> None:
        self.config = config if config is not None else SDTWConfig()
        self.reference_values = np.asarray(
            reference, dtype=np.int64 if self.config.quantize else np.float64
        )
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.block_starts = normalize_block_starts(block_starts, self.reference_values.size)
        self.stats = AdvanceStats()
        self._state = BatchSDTWState.initial(
            capacity, self.reference_values.size, self.config
        )

    @property
    def capacity(self) -> int:
        return self._state.n_lanes

    @property
    def reference_length(self) -> int:
        return self._state.reference_length

    @property
    def n_blocks(self) -> int:
        return int(self.block_starts.size)

    def allocate(self, min_capacity: int) -> None:
        old = self._state
        if min_capacity <= old.n_lanes:
            return
        state = BatchSDTWState.initial(min_capacity, old.reference_length, self.config)
        state.rows[: old.n_lanes] = old.rows
        state.runs[: old.n_lanes] = old.runs
        state.samples_processed[: old.n_lanes] = old.samples_processed
        self._state = state

    def reset(self, lanes: np.ndarray) -> None:
        self._state.rows[lanes] = 0
        self._state.runs[lanes] = 0
        self._state.samples_processed[lanes] = 0

    def advance(
        self,
        lanes: np.ndarray,
        queries: Sequence[np.ndarray],
        prune_bounds: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        tracer = self.tracer
        with tracer.span("backend.advance", backend="numpy", n_lanes=int(np.size(lanes))):
            with tracer.span("backend.gather"):
                gathered = BatchSDTWState(
                    rows=self._state.rows[lanes],
                    runs=self._state.runs[lanes],
                    samples_processed=self._state.samples_processed[lanes],
                )
            with tracer.span("backend.wavefront"):
                advanced = sdtw_resume_batch(
                    queries,
                    self.reference_values,
                    self.config,
                    state=gathered,
                    block_starts=self.block_starts,
                    prune_bounds=prune_bounds,
                    stats=self.stats,
                )
            with tracer.span("backend.scatter"):
                self._state.rows[lanes] = advanced.rows
                self._state.runs[lanes] = advanced.runs
                self._state.samples_processed[lanes] = advanced.samples_processed
            with tracer.span("backend.reduce"):
                return reduce_block_minima(advanced.rows, self.block_starts)

    def gather(self, lanes: np.ndarray) -> BatchSDTWState:
        return BatchSDTWState(
            rows=self._state.rows[lanes].copy(),
            runs=self._state.runs[lanes].copy(),
            samples_processed=self._state.samples_processed[lanes].copy(),
        )

    def scatter(self, lanes: np.ndarray, state: BatchSDTWState) -> None:
        self._state.rows[lanes] = state.rows
        self._state.runs[lanes] = state.runs
        self._state.samples_processed[lanes] = state.samples_processed

    def close(self) -> None:
        return None


# ------------------------------------------------------------- sharded backend
def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to the parent's shared block without claiming ownership.

    Workers are children of the creating process, so they share its resource
    tracker: their attach re-adds the same name to the tracker's (set-based)
    cache, which is a no-op, and the parent's ``unlink`` clears it exactly
    once. No per-worker unregistering is needed — or safe.
    """
    return shared_memory.SharedMemory(name=name)


class _ShardViews:
    """Numpy views of one shard's state inside a shared-memory block.

    Layout: ``rows (local_capacity, reference_length)`` then ``runs`` of the
    same shape then ``samples_processed (local_capacity,)`` int64, padded to
    alignment. Parent and worker both construct views over the same block,
    so reset/gather/scatter are plain array operations with no pipe traffic.
    """

    _ALIGN = 16

    def __init__(
        self,
        block: shared_memory.SharedMemory,
        local_capacity: int,
        reference_length: int,
        rows_dtype: np.dtype,
        runs_dtype: np.dtype,
    ) -> None:
        self.block = block
        shape = (local_capacity, reference_length)
        rows_bytes = self._padded(int(rows_dtype.itemsize) * local_capacity * reference_length)
        runs_bytes = self._padded(int(runs_dtype.itemsize) * local_capacity * reference_length)
        self.rows = np.ndarray(shape, dtype=rows_dtype, buffer=block.buf, offset=0)
        self.runs = np.ndarray(shape, dtype=runs_dtype, buffer=block.buf, offset=rows_bytes)
        self.samples = np.ndarray(
            (local_capacity,), dtype=np.int64, buffer=block.buf, offset=rows_bytes + runs_bytes
        )

    @classmethod
    def _padded(cls, nbytes: int) -> int:
        return (nbytes + cls._ALIGN - 1) // cls._ALIGN * cls._ALIGN

    @classmethod
    def nbytes(
        cls,
        local_capacity: int,
        reference_length: int,
        rows_dtype: np.dtype,
        runs_dtype: np.dtype,
    ) -> int:
        cells = local_capacity * reference_length
        return (
            cls._padded(int(rows_dtype.itemsize) * cells)
            + cls._padded(int(runs_dtype.itemsize) * cells)
            + 8 * local_capacity
        )

    def initialize(self, lanes: Optional[np.ndarray] = None) -> None:
        """The free start: zero rows, runs and samples."""
        target = slice(None) if lanes is None else lanes
        self.rows[target] = 0
        self.runs[target] = 0
        self.samples[target] = 0

    def release(self) -> None:
        """Drop the numpy views (they pin the buffer) and close the block."""
        del self.rows, self.runs, self.samples
        self.block.close()


def _check_int32_rows(rows: np.ndarray) -> None:
    """Reject advanced rows that no longer fit the int32 shared storage."""
    if rows.size:
        peak = int(np.abs(rows).max())
        if peak >= 2**31:
            raise OverflowError(
                f"advanced rows reach {peak}, beyond int32 shard storage; "
                "use the numpy backend for this configuration"
            )


def _shard_worker(
    conn,
    shm_name: str,
    local_capacity: int,
    reference: np.ndarray,
    config: SDTWConfig,
    block_starts: np.ndarray,
) -> None:
    """Worker loop: advance the resident shard state on request.

    The shard's rows/runs/samples live in the parent-created shared block;
    this process is the only writer between an ``advance`` request and its
    reply, and the parent only touches the block while no request is in
    flight, so no locking is needed.

    Advance requests carry a trace flag; when set, the worker stamps its own
    span tuples on the shared monotonic clock (workers are forked children,
    so parent and worker ``perf_counter`` readings share one timeline) and
    ships them back inside the reply for the parent tracer to merge.
    """
    rows_dtype, runs_dtype = _state_dtypes(config)
    views = _ShardViews(
        _attach_shm(shm_name), local_capacity, reference.size, rows_dtype, runs_dtype
    )
    int32_rows = rows_dtype == np.dtype(np.int32)
    clock = time.perf_counter
    try:
        while True:
            message = conn.recv()
            command = message[0]
            try:
                if command == "advance":
                    _, local_lanes, queries, bounds, trace = message
                    start_s = clock() if trace else 0.0
                    state = BatchSDTWState(
                        rows=views.rows[local_lanes],
                        runs=views.runs[local_lanes],
                        samples_processed=views.samples[local_lanes],
                    )
                    stats = AdvanceStats()
                    wave_start_s = clock() if trace else 0.0
                    advanced = sdtw_resume_batch(
                        queries,
                        reference,
                        config,
                        state=state,
                        block_starts=block_starts,
                        prune_bounds=bounds,
                        stats=stats,
                    )
                    wave_end_s = clock() if trace else 0.0
                    if int32_rows:
                        _check_int32_rows(advanced.rows)
                    views.rows[local_lanes] = advanced.rows
                    views.runs[local_lanes] = advanced.runs
                    views.samples[local_lanes] = advanced.samples_processed
                    payload = reduce_block_minima(advanced.rows, block_starts)
                    records = None
                    if trace:
                        records = [
                            worker_span("worker.wavefront", wave_start_s, wave_end_s, depth=1),
                            worker_span(
                                "worker.advance",
                                start_s,
                                clock(),
                                child_s=wave_end_s - wave_start_s,
                            ),
                        ]
                    delta = (stats.cells_advanced, stats.cells_pruned)
                    conn.send(("ok", (payload, records, delta)))
                elif command == "attach":
                    _, shm_name, local_capacity = message
                    old = views
                    views = _ShardViews(
                        _attach_shm(shm_name),
                        local_capacity,
                        reference.size,
                        rows_dtype,
                        runs_dtype,
                    )
                    old.release()
                    conn.send(("ok", None))
                elif command == "stop":
                    conn.send(("ok", None))
                    return
                else:  # pragma: no cover - protocol violation
                    raise ValueError(f"unknown shard command {command!r}")
            except Exception:
                conn.send(("error", traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - parent died
        return
    finally:
        try:
            views.release()
        except BufferError:  # pragma: no cover - stray view reference
            pass
        conn.close()


class _WorkerPoolBackend:
    """Shared lifecycle of the multi-process backends.

    Owns the worker pool plumbing both sharding shapes need: the start-method
    choice, the request/reply pipes with error propagation, and the
    close/atexit teardown of processes, parent-side views and shared blocks.
    Subclasses populate ``_blocks``/``_views``/``_conns``/``_processes`` in
    their constructors and call :meth:`_register_finalizer` once spawned.
    """

    def __init__(self) -> None:
        self._closed = False
        # fork shares the parent's pages and starts in milliseconds; fall back
        # to the default (spawn) where fork is unavailable. Workers only need
        # picklable arguments, so both start methods work.
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else None)
        self._blocks: List[shared_memory.SharedMemory] = []
        self._views: List[_ShardViews] = []
        self._conns = []
        self._processes = []

    def _register_finalizer(self) -> None:
        # Daemon processes die with the interpreter, but the shared segments
        # must be unlinked explicitly or they outlive the run.
        self._finalizer = atexit.register(self.close)

    def _recv(self, shard: int):
        try:
            status, payload = self._conns[shard].recv()
        except EOFError:
            raise RuntimeError(
                f"{self.backend_name} backend worker {shard} died unexpectedly"
            ) from None
        if status != "ok":
            raise RuntimeError(f"{self.backend_name} backend worker {shard} failed:\n{payload}")
        return payload

    def _request(self, shard: int, message) -> Any:
        self._conns[shard].send(message)
        return self._recv(shard)

    # Bounded wait for the stop handshake (shared across all shards); an
    # instance attribute so tests can shrink it for dead-worker scenarios.
    stop_timeout_s = 5.0

    def close(self) -> None:
        """Shut the pool down; safe whatever state a round left the pipes in.

        A session abandoned mid-round — an advance dispatched whose replies
        were never consumed, a worker that raised, a worker that died — must
        neither hang teardown nor leak the shared-memory segments. Stale
        replies are drained first (so the stop ack is not mistaken for
        them), the stop handshake waits a bounded time, workers still alive
        after the deadline are terminated, and every segment is unlinked
        unconditionally.
        """
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        deadline = time.monotonic() + self.stop_timeout_s
        for conn in self._conns:
            try:
                while conn.poll(0):  # leftovers of an abandoned round
                    conn.recv()
                conn.send(("stop",))
            except (OSError, ValueError, EOFError, BrokenPipeError):
                pass
        for conn in self._conns:
            try:
                # Anything arriving before the ack is a late reply to the
                # abandoned round; consume until the ack or the deadline.
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not conn.poll(remaining):
                        break
                    if conn.recv() == ("ok", None):
                        break
            except (OSError, ValueError, EOFError, BrokenPipeError):
                pass
            finally:
                conn.close()
        for process in self._processes:
            process.join(timeout=max(deadline - time.monotonic(), 0.1))
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - unkillable worker
                process.kill()
                process.join(timeout=5.0)
        for views in self._views:
            try:
                views.release()
            except BufferError:  # pragma: no cover - stray view reference
                pass
        self._views.clear()
        for block in self._blocks:
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._blocks.clear()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass


@register_backend("sharded")
class ShardedProcessBackend(_WorkerPoolBackend):
    """Lanes striped across a persistent pool of worker processes.

    Lane ``l`` lives in shard ``l % workers`` at local slot ``l // workers``,
    so consecutive lane admissions spread across shards and every shard's
    occupancy stays within one lane of the others — the static striping keeps
    per-round shard batches balanced without any migration machinery.

    Each worker holds its shard of the stacked state resident in a
    shared-memory block the parent allocates (``int32`` rows on the
    all-integer hardware path). Per engine round the parent sends every busy
    shard its ragged query chunks, the shards run their wavefronts
    concurrently, and only the per-lane cost/end snapshots come back — the
    DP rows never cross a pipe. ``gather``/``scatter``/``reset`` are
    parent-side shared-memory reads and writes.
    """

    backend_name = "sharded"
    tracer: Tracer = NULL_TRACER

    def __init__(
        self,
        reference: np.ndarray,
        config: Optional[SDTWConfig] = None,
        capacity: int = 8,
        workers: Optional[int] = None,
        block_starts: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__()
        self.config = config if config is not None else SDTWConfig()
        self.reference_values = np.asarray(
            reference, dtype=np.int64 if self.config.quantize else np.float64
        )
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if workers is None:
            workers = default_workers()
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.n_workers = int(workers)
        self.block_starts = normalize_block_starts(block_starts, self.reference_values.size)
        self._rows_dtype, self._runs_dtype = _state_dtypes(self.config)
        self._local_capacity = max(1, ceil(capacity / self.n_workers))
        self.stats = AdvanceStats()

        for shard in range(self.n_workers):
            block = self._create_block(self._local_capacity)
            views = _ShardViews(
                block,
                self._local_capacity,
                self.reference_values.size,
                self._rows_dtype,
                self._runs_dtype,
            )
            views.initialize()
            parent_conn, worker_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_shard_worker,
                args=(
                    worker_conn,
                    block.name,
                    self._local_capacity,
                    self.reference_values,
                    self.config,
                    self.block_starts,
                ),
                daemon=True,
                name=f"sdtw-shard-{shard}",
            )
            process.start()
            worker_conn.close()
            self._blocks.append(block)
            self._views.append(views)
            self._conns.append(parent_conn)
            self._processes.append(process)
        self._register_finalizer()

    # ----------------------------------------------------------- bookkeeping
    @property
    def capacity(self) -> int:
        return self._local_capacity * self.n_workers

    @property
    def reference_length(self) -> int:
        return int(self.reference_values.size)

    @property
    def n_blocks(self) -> int:
        return int(self.block_starts.size)

    def _create_block(self, local_capacity: int) -> shared_memory.SharedMemory:
        size = _ShardViews.nbytes(
            local_capacity, self.reference_values.size, self._rows_dtype, self._runs_dtype
        )
        return shared_memory.SharedMemory(create=True, size=size)

    def _shard_of(self, lanes: np.ndarray) -> np.ndarray:
        return np.asarray(lanes, dtype=np.intp) % self.n_workers

    def _local_of(self, lanes: np.ndarray) -> np.ndarray:
        return np.asarray(lanes, dtype=np.intp) // self.n_workers

    # ------------------------------------------------------------- lifecycle
    def allocate(self, min_capacity: int) -> None:
        if self._closed:
            raise RuntimeError("backend is closed")
        if min_capacity <= self.capacity:
            return
        local_capacity = max(self._local_capacity + 1, ceil(min_capacity / self.n_workers))
        for shard in range(self.n_workers):
            block = self._create_block(local_capacity)
            views = _ShardViews(
                block,
                local_capacity,
                self.reference_values.size,
                self._rows_dtype,
                self._runs_dtype,
            )
            views.initialize()
            old = self._views[shard]
            views.rows[: self._local_capacity] = old.rows
            views.runs[: self._local_capacity] = old.runs
            views.samples[: self._local_capacity] = old.samples
            self._request(shard, ("attach", block.name, local_capacity))
            old_block = old.block
            old.release()
            old_block.unlink()
            self._blocks[shard] = block
            self._views[shard] = views
        self._local_capacity = local_capacity

    def reset(self, lanes: np.ndarray) -> None:
        lanes = np.asarray(lanes, dtype=np.intp)
        shards = self._shard_of(lanes)
        local = self._local_of(lanes)
        for shard in np.unique(shards):
            self._views[shard].initialize(local[shards == shard])

    def advance(
        self,
        lanes: np.ndarray,
        queries: Sequence[np.ndarray],
        prune_bounds: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self._closed:
            raise RuntimeError("backend is closed")
        tracer = self.tracer
        trace = tracer.enabled
        with tracer.span("backend.advance", backend="sharded", n_lanes=int(np.size(lanes))):
            lanes = np.asarray(lanes, dtype=np.intp)
            shards = self._shard_of(lanes)
            local = self._local_of(lanes)
            busy: List[Tuple[int, np.ndarray]] = []
            with tracer.span("backend.dispatch"):
                for shard in np.unique(shards):
                    members = np.flatnonzero(shards == shard)
                    bounds = None if prune_bounds is None else np.asarray(prune_bounds)[members]
                    self._conns[shard].send(
                        ("advance", local[members], [queries[i] for i in members], bounds, trace)
                    )
                    busy.append((int(shard), members))
            costs = np.empty(
                (lanes.size, self.n_blocks),
                dtype=np.float64 if not self.config.quantize else np.int64,
            )
            ends = np.empty((lanes.size, self.n_blocks), dtype=np.intp)
            # Every busy shard's reply must be consumed even if an earlier one
            # failed — an unread reply would desync the request/reply protocol
            # and surface as a *stale* result on the next call.
            errors: List[Exception] = []
            with tracer.span("backend.collect"):
                for shard, members in busy:
                    try:
                        (shard_costs, shard_ends), records, delta = self._recv(shard)
                    except RuntimeError as error:
                        errors.append(error)
                        continue
                    tracer.merge_worker_records(records, track=f"sharded-worker-{shard}")
                    self.stats.add(*delta)
                    costs[members] = shard_costs
                    ends[members] = shard_ends
            if errors:
                # Shards that succeeded have already applied the round; the
                # failed shards have not. Callers should treat the backend's
                # state as undefined for the lanes of this round.
                raise errors[0]
            return costs, ends

    def gather(self, lanes: np.ndarray) -> BatchSDTWState:
        lanes = np.asarray(lanes, dtype=np.intp)
        shards = self._shard_of(lanes)
        local = self._local_of(lanes)
        rows = np.empty(
            (lanes.size, self.reference_length),
            dtype=np.int64 if self.config.quantize else np.float64,
        )
        runs = np.empty((lanes.size, self.reference_length), dtype=np.int64)
        samples = np.empty(lanes.size, dtype=np.int64)
        for index in range(lanes.size):
            views = self._views[shards[index]]
            rows[index] = views.rows[local[index]]
            runs[index] = views.runs[local[index]]
            samples[index] = views.samples[local[index]]
        return BatchSDTWState(rows=rows, runs=runs, samples_processed=samples)

    def scatter(self, lanes: np.ndarray, state: BatchSDTWState) -> None:
        lanes = np.asarray(lanes, dtype=np.intp)
        shards = self._shard_of(lanes)
        local = self._local_of(lanes)
        for index in range(lanes.size):
            views = self._views[shards[index]]
            views.rows[local[index]] = state.rows[index]
            views.runs[local[index]] = state.runs[index]
            views.samples[local[index]] = state.samples_processed[index]


# -------------------------------------------------------- column-sharded backend
def _column_worker(
    conn,
    shm_name: str,
    capacity: int,
    reference: np.ndarray,
    config: SDTWConfig,
    tile_start: int,
    tile_end: int,
    block_starts: np.ndarray,
) -> None:
    """Worker loop owning one contiguous column tile for **all** lanes.

    Every advance request carries the tile's left halo — the last
    ``max(chunk)`` columns of the pre-advance state to the tile's left, read
    from shared memory by the parent before any worker starts writing. The
    worker re-runs the wavefront over ``[halo_start, tile_end)`` and keeps
    only its own columns; because information moves at most one column per
    query step, those columns are bit-identical to the untiled advance.
    """
    rows_dtype, runs_dtype = _state_dtypes(config)
    tile_width = tile_end - tile_start
    views = _ShardViews(_attach_shm(shm_name), capacity, tile_width, rows_dtype, runs_dtype)
    int32_rows = rows_dtype == np.dtype(np.int32)
    clock = time.perf_counter
    try:
        while True:
            message = conn.recv()
            command = message[0]
            try:
                if command == "advance":
                    _, lanes, queries, halo_rows, halo_runs, halo_start, bounds, trace = message
                    start_s = clock() if trace else 0.0
                    rows = views.rows[lanes]
                    runs = views.runs[lanes]
                    if halo_start < tile_start:
                        rows = np.concatenate([halo_rows, rows], axis=1)
                        runs = np.concatenate([halo_runs, runs], axis=1)
                    state = BatchSDTWState(
                        rows=rows, runs=runs, samples_processed=views.samples[lanes]
                    )
                    sub_starts = tile_block_starts(block_starts, halo_start, tile_end)
                    stats = AdvanceStats()
                    wave_start_s = clock() if trace else 0.0
                    advanced = sdtw_resume_batch(
                        queries,
                        reference[halo_start:tile_end],
                        config,
                        state=state,
                        block_starts=sub_starts,
                        prune_bounds=bounds,
                        stats=stats,
                    )
                    wave_end_s = clock() if trace else 0.0
                    keep = tile_start - halo_start
                    tile_rows = advanced.rows[:, keep:]
                    if int32_rows:
                        _check_int32_rows(tile_rows)
                    views.rows[lanes] = tile_rows
                    views.runs[lanes] = advanced.runs[:, keep:]
                    views.samples[lanes] = advanced.samples_processed
                    payload = _tile_block_minima(
                        tile_rows, tile_start, tile_end, block_starts, reference.size
                    )
                    records = None
                    if trace:
                        records = [
                            worker_span("worker.wavefront", wave_start_s, wave_end_s, depth=1),
                            worker_span(
                                "worker.advance",
                                start_s,
                                clock(),
                                child_s=wave_end_s - wave_start_s,
                            ),
                        ]
                    delta = (stats.cells_advanced, stats.cells_pruned)
                    conn.send(("ok", (payload, records, delta)))
                elif command == "attach":
                    _, shm_name, capacity = message
                    old = views
                    views = _ShardViews(
                        _attach_shm(shm_name), capacity, tile_width, rows_dtype, runs_dtype
                    )
                    old.release()
                    conn.send(("ok", None))
                elif command == "stop":
                    conn.send(("ok", None))
                    return
                else:  # pragma: no cover - protocol violation
                    raise ValueError(f"unknown column-shard command {command!r}")
            except Exception:
                conn.send(("error", traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - parent died
        return
    finally:
        try:
            views.release()
        except BufferError:  # pragma: no cover - stray view reference
            pass
        conn.close()


def _tile_block_minima(
    tile_rows: np.ndarray,
    tile_start: int,
    tile_end: int,
    block_starts: np.ndarray,
    reference_length: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-block partial minima of one tile's advanced rows.

    Blocks not overlapping the tile report the dtype's 'never wins' sentinel
    so the parent's strictly-smaller merge keeps the leftmost argmin — the
    tie-breaking :func:`np.argmin` uses over the full row. ``ends`` are
    block-local, matching :func:`reduce_block_minima`.
    """
    n_lanes = tile_rows.shape[0]
    n_blocks = block_starts.size
    sentinel = (
        np.iinfo(np.int64).max
        if np.issubdtype(tile_rows.dtype, np.integer)
        else np.inf
    )
    bounds = np.append(block_starts, reference_length)
    costs = np.full((n_lanes, n_blocks), sentinel, dtype=tile_rows.dtype)
    ends = np.zeros((n_lanes, n_blocks), dtype=np.intp)
    for block in range(n_blocks):
        overlap_start = max(int(bounds[block]), tile_start)
        overlap_end = min(int(bounds[block + 1]), tile_end)
        if overlap_start >= overlap_end:
            continue
        segment = tile_rows[:, overlap_start - tile_start : overlap_end - tile_start]
        local = np.argmin(segment, axis=1)
        costs[:, block] = segment[np.arange(n_lanes), local]
        ends[:, block] = local + (overlap_start - int(bounds[block]))
    return costs, ends


@register_backend("colsharded")
class ColumnShardedBackend(_WorkerPoolBackend):
    """Reference **columns** striped across a persistent worker pool.

    The dual of :class:`ShardedProcessBackend`: every worker holds *all*
    lanes but only a contiguous tile of the reference columns, so a workload
    with one (or few) channels against a genome-scale reference — where lane
    striping has nothing to distribute — still engages every core. Tiles are
    an equal contiguous partition of the concatenated panel column space;
    ragged panel targets simply fall across tile boundaries, since panel
    block boundaries and tile boundaries are independent.

    Per round the parent snapshots each tile's left halo (the last
    ``max(chunk)`` pre-advance columns, a parent-side shared-memory read)
    **before** dispatching any work, sends every worker its chunks + halo,
    and merges the returned per-target partial minima left to right —
    strictly-smaller updates, so ties resolve to the leftmost column exactly
    like ``np.argmin`` over the full row. Rows never cross a pipe;
    ``gather``/``scatter``/``reset`` are parent-side column-slice reads and
    writes across the tiles.
    """

    backend_name = "colsharded"
    tracer: Tracer = NULL_TRACER

    def __init__(
        self,
        reference: np.ndarray,
        config: Optional[SDTWConfig] = None,
        capacity: int = 8,
        workers: Optional[int] = None,
        block_starts: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__()
        self.config = config if config is not None else SDTWConfig()
        self.reference_values = np.asarray(
            reference, dtype=np.int64 if self.config.quantize else np.float64
        )
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if workers is None:
            workers = default_workers()
        if workers <= 0:
            raise ValueError("workers must be positive")
        # A tile must hold at least one column.
        self.n_workers = int(min(workers, self.reference_values.size))
        self.block_starts = normalize_block_starts(block_starts, self.reference_values.size)
        self._rows_dtype, self._runs_dtype = _state_dtypes(self.config)
        self._capacity = int(capacity)
        self.stats = AdvanceStats()

        # Equal contiguous column tiles (the last one may be narrower).
        edges = np.linspace(0, self.reference_values.size, self.n_workers + 1, dtype=np.int64)
        self._tiles: List[Tuple[int, int]] = [
            (int(edges[i]), int(edges[i + 1])) for i in range(self.n_workers)
        ]

        for shard, (tile_start, tile_end) in enumerate(self._tiles):
            block = self._create_block(self._capacity, tile_end - tile_start)
            views = _ShardViews(
                block, self._capacity, tile_end - tile_start, self._rows_dtype, self._runs_dtype
            )
            views.initialize()
            parent_conn, worker_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_column_worker,
                args=(
                    worker_conn,
                    block.name,
                    self._capacity,
                    self.reference_values,
                    self.config,
                    tile_start,
                    tile_end,
                    self.block_starts,
                ),
                daemon=True,
                name=f"sdtw-coltile-{shard}",
            )
            process.start()
            worker_conn.close()
            self._blocks.append(block)
            self._views.append(views)
            self._conns.append(parent_conn)
            self._processes.append(process)
        self._register_finalizer()

    # ----------------------------------------------------------- bookkeeping
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def reference_length(self) -> int:
        return int(self.reference_values.size)

    @property
    def n_blocks(self) -> int:
        return int(self.block_starts.size)

    def _create_block(self, capacity: int, tile_width: int) -> shared_memory.SharedMemory:
        size = _ShardViews.nbytes(capacity, tile_width, self._rows_dtype, self._runs_dtype)
        return shared_memory.SharedMemory(create=True, size=size)

    def _halo_columns(
        self, lanes: np.ndarray, column_start: int, column_end: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Copy pre-advance state columns ``[column_start, column_end)``.

        The range may span several tiles (a chunk longer than a tile width);
        pieces are assembled from the parent-side views.
        """
        width = column_end - column_start
        rows = np.empty((lanes.size, width), dtype=self._rows_dtype)
        runs = np.empty((lanes.size, width), dtype=self._runs_dtype)
        for (tile_start, tile_end), views in zip(self._tiles, self._views):
            piece_start = max(tile_start, column_start)
            piece_end = min(tile_end, column_end)
            if piece_start >= piece_end:
                continue
            destination = slice(piece_start - column_start, piece_end - column_start)
            source = slice(piece_start - tile_start, piece_end - tile_start)
            # Column-slice first (a view), then lane-index: copies only the
            # halo-wide window, not the whole (lanes, tile_width) tile.
            rows[:, destination] = views.rows[:, source][lanes]
            runs[:, destination] = views.runs[:, source][lanes]
        return rows, runs

    # ------------------------------------------------------------- lifecycle
    def allocate(self, min_capacity: int) -> None:
        if self._closed:
            raise RuntimeError("backend is closed")
        if min_capacity <= self._capacity:
            return
        for shard, (tile_start, tile_end) in enumerate(self._tiles):
            width = tile_end - tile_start
            block = self._create_block(min_capacity, width)
            views = _ShardViews(block, min_capacity, width, self._rows_dtype, self._runs_dtype)
            views.initialize()
            old = self._views[shard]
            views.rows[: self._capacity] = old.rows
            views.runs[: self._capacity] = old.runs
            views.samples[: self._capacity] = old.samples
            self._request(shard, ("attach", block.name, min_capacity))
            old_block = old.block
            old.release()
            old_block.unlink()
            self._blocks[shard] = block
            self._views[shard] = views
        self._capacity = int(min_capacity)

    def reset(self, lanes: np.ndarray) -> None:
        lanes = np.asarray(lanes, dtype=np.intp)
        # Every tile holds a column slice of each lane; samples are replicated
        # per tile, so all of them reset together.
        for views in self._views:
            views.initialize(lanes)

    def advance(
        self,
        lanes: np.ndarray,
        queries: Sequence[np.ndarray],
        prune_bounds: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self._closed:
            raise RuntimeError("backend is closed")
        tracer = self.tracer
        trace = tracer.enabled
        with tracer.span("backend.advance", backend="colsharded", n_lanes=int(np.size(lanes))):
            lanes = np.asarray(lanes, dtype=np.intp)
            halo_width = max((int(np.asarray(query).size) for query in queries), default=0)
            # Every tile worker sees the full per-lane bounds (column sharding
            # replicates lanes), so per-tile stats sum to the whole-row figure
            # plus the halo recompute — honest about the work actually done.
            bounds = None if prune_bounds is None else np.asarray(prune_bounds)
            # Snapshot every halo BEFORE dispatching: workers write their tiles
            # concurrently, and a halo must be the pre-advance state.
            requests = []
            with tracer.span("backend.halo"):
                for tile_start, tile_end in self._tiles:
                    halo_start = tile_halo_start(self.block_starts, tile_start, halo_width)
                    if halo_start < tile_start:
                        halo_rows, halo_runs = self._halo_columns(lanes, halo_start, tile_start)
                    else:
                        halo_rows = halo_runs = None
                    requests.append(
                        ("advance", lanes, queries, halo_rows, halo_runs, halo_start, bounds, trace)
                    )
            with tracer.span("backend.dispatch"):
                for shard, request in enumerate(requests):
                    self._conns[shard].send(request)

            costs = np.full(
                (lanes.size, self.n_blocks),
                np.iinfo(np.int64).max if self.config.quantize else np.inf,
                dtype=np.int64 if self.config.quantize else np.float64,
            )
            ends = np.zeros((lanes.size, self.n_blocks), dtype=np.intp)
            # Consume every reply even if an earlier shard failed (protocol sync),
            # merging partial minima in tile order: strictly-smaller wins, so a
            # tie keeps the leftmost tile — np.argmin's tie-breaking.
            errors: List[Exception] = []
            with tracer.span("backend.collect"):
                for shard in range(self.n_workers):
                    try:
                        (tile_costs, tile_ends), records, delta = self._recv(shard)
                    except RuntimeError as error:
                        errors.append(error)
                        continue
                    tracer.merge_worker_records(
                        records, track=f"colsharded-worker-{shard}"
                    )
                    self.stats.add(*delta)
                    better = tile_costs < costs
                    costs[better] = tile_costs[better]
                    ends[better] = tile_ends[better]
            if errors:
                # Tiles that succeeded already applied the round; the failed
                # tiles did not. The state is undefined for this round's lanes.
                raise errors[0]
            return costs, ends

    def gather(self, lanes: np.ndarray) -> BatchSDTWState:
        lanes = np.asarray(lanes, dtype=np.intp)
        rows = np.empty(
            (lanes.size, self.reference_length),
            dtype=np.int64 if self.config.quantize else np.float64,
        )
        runs = np.empty((lanes.size, self.reference_length), dtype=np.int64)
        for (tile_start, tile_end), views in zip(self._tiles, self._views):
            rows[:, tile_start:tile_end] = views.rows[lanes]
            runs[:, tile_start:tile_end] = views.runs[lanes]
        samples = np.asarray(self._views[0].samples[lanes], dtype=np.int64)
        return BatchSDTWState(rows=rows, runs=runs, samples_processed=samples)

    def scatter(self, lanes: np.ndarray, state: BatchSDTWState) -> None:
        lanes = np.asarray(lanes, dtype=np.intp)
        for (tile_start, tile_end), views in zip(self._tiles, self._views):
            views.rows[lanes] = state.rows[:, tile_start:tile_end]
            views.runs[lanes] = state.runs[:, tile_start:tile_end]
            views.samples[lanes] = state.samples_processed
