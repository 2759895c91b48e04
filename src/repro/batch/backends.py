"""The execution backend of the batched sDTW engine.

:class:`~repro.batch.engine.BatchSDTWEngine` is a *lane manager*: it decides
which read occupies which lane, when lanes are recycled, and what the
per-round occupancy trace looks like. *Where and how* the lane-stacked
:class:`~repro.core.sdtw.BatchSDTWState` actually advances is this module's
job. :class:`NumpyBackend` owns the resident DP state and exposes three
data-movement verbs plus lane bookkeeping:

* ``advance(lanes, queries)`` — the per-round hot path: feed each listed lane
  its new (kernel-scale) query samples and return the post-advance cost and
  end position per lane;
* ``gather(lanes)`` / ``scatter(lanes, state)`` — copy lane state out of /
  into the backend (snapshots, tests, interop, and storing the rounds the
  compiled kernel does not advance in place); cold paths;
* ``allocate`` / ``reset`` — capacity growth and lane recycling.

The backend is **panel-aware**: the reference it holds may be a
:class:`~repro.core.panel.TargetPanel`'s concatenated column space, whose
per-target offsets arrive as ``block_starts``. ``advance`` returns
``(costs, ends)`` of shape ``(n_lanes, n_blocks)`` — one per-target
cost/local-end pair per lane, bit-identical to independent single-reference
runs (a plain single reference is one block, so the arrays are just
``(n_lanes, 1)``).

:class:`NumpyBackend` keeps one :class:`BatchSDTWState` in this process and
advances it with :func:`~repro.core.sdtw.sdtw_resume_batch`, whose compiled
C kernel runs every round of the hardware data path (the oracle,
:func:`~repro.core.sdtw.sdtw_resume` per lane, runs the rest). On that path
the state stays resident as ``int32`` and the kernel advances and reduces
the listed rows where they lie. With ``workers=N`` the backend splits
each round's lanes into up to ``N`` contiguous groups and advances them on
``N`` threads (the C kernel runs without the GIL) — the software analogue of
the paper assigning each read to an available tile. Every group runs the
same kernel on its own lanes' state, so costs, rows and therefore Read Until
decisions are bit-identical whatever ``workers`` is.

Every ``advance`` moves each listed lane over every column and accumulates
the advanced cells and the kernel path in :attr:`NumpyBackend.stats`;
pruning is the engine's lane gate, which decides before dispatch which
lanes are listed at all.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SDTWConfig
from repro.obs.trace import NULL_TRACER, Tracer, WorkerSpan, worker_span
from repro.core.sdtw import (
    AdvanceStats,
    BatchSDTWState,
    RowReductions,
    int32_data_path,
    normalize_block_starts,
    sdtw_resume_batch,
)

__all__ = ["NumpyBackend", "default_workers"]


def default_workers() -> int:
    """Kernel threads ``backend="auto"`` runs: one per usable core, capped at 8.

    Usable means this process's CPU affinity, not the machine's core count.
    The serving layer also caps a tenant's ``workers`` at this value.
    """
    return min(8, len(os.sched_getaffinity(0)))


class NumpyBackend:
    """In-process execution: one resident :class:`BatchSDTWState`.

    The backend owns one logical ``(capacity, reference_length)`` state and
    keeps per-lane results bit-identical to per-read
    :func:`~repro.core.sdtw.sdtw_resume` calls. ``advance`` runs one
    in-place :func:`sdtw_resume_batch` call over the listed lanes
    (``lanes=``) and returns their per-target reductions, which the state
    keeps beside its rows (:class:`~repro.core.sdtw.RowReductions`: each
    row's per-block minima and end positions, and a bound on its magnitude
    for the kernel's range guard). ``block_starts`` makes the reference a
    multi-target panel column space.

    ``workers`` is the kernel-thread count. ``None`` or 1 runs every round on
    the calling thread. With ``N >= 2`` the backend owns one thread pool, and
    a round listing at least two lanes is split into ``min(N, len(lanes))``
    contiguous groups: each group advances its own disjoint lanes in place
    on a pool thread, and the calling thread merges the groups' cell counts
    once every group has finished.

    On the ``int32`` data path (:func:`~repro.core.sdtw.int32_data_path`)
    rows and capped dwell are stored as ``int32``, the dtype the compiled
    kernel reads and writes, so a round copies and converts no lane state:
    the kernel restarts fresh lanes, severs panel blocks and reduces each
    row itself. Any other round (values outside the kernel's range,
    ``int64`` storage, no compiler) comes back as the advanced lanes'
    state, and the backend stores it with :meth:`scatter`. A round that
    leaves the kernel's range comes back ``int64`` from the oracle, and
    storing it widens the storage to
    ``int64`` once, for good. With threads, the calling thread stores the
    groups' states once every group has finished, so no group writes int32
    rows into storage that has been replaced.
    """

    backend_name = "numpy"
    # Observability hook the engine overwrites; the shared disabled tracer
    # makes every span below a single `if`.
    tracer: Tracer = NULL_TRACER

    def __init__(
        self,
        reference: np.ndarray,
        config: Optional[SDTWConfig] = None,
        capacity: int = 8,
        block_starts: Optional[np.ndarray] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.config = config if config is not None else SDTWConfig()
        self.reference_values = np.asarray(
            reference, dtype=np.int64 if self.config.quantize else np.float64
        )
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if workers is not None and workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = 1 if workers is None else int(workers)
        self.block_starts = normalize_block_starts(block_starts, self.reference_values.size)
        # Advanced-cell and kernel-path counts summed over every `advance`;
        # the engine and the serving layer read them.
        self.stats = AdvanceStats()
        self._state = BatchSDTWState.initial(
            capacity, self.reference_values.size, self.config
        )
        if int32_data_path(self.config):
            self._state = BatchSDTWState(
                rows=self._state.rows.astype(np.int32),
                runs=self._state.runs.astype(np.int32),
                samples_processed=self._state.samples_processed,
            )
        self._reductions = RowReductions(
            capacity, self.n_blocks, np.int64 if self.config.quantize else np.float64
        )
        self._pool = (
            ThreadPoolExecutor(self.workers, thread_name_prefix="numpy-backend")
            if self.workers > 1
            else None
        )
        self._closed = False

    @property
    def capacity(self) -> int:
        """Lanes currently allocated."""
        return self._state.n_lanes

    @property
    def reference_length(self) -> int:
        return self._state.reference_length

    @property
    def n_blocks(self) -> int:
        """Targets in the panel the reference concatenates (>= 1)."""
        return int(self.block_starts.size)

    @property
    def dtype(self) -> str:
        """The resident rows' dtype: ``"int32"`` on the hardware data path
        until a round leaves the kernel's range, ``"int64"`` from then on
        (and on quantized configs off that path), ``"float64"`` unquantized."""
        return str(self._state.rows.dtype)

    def allocate(self, min_capacity: int) -> None:
        """Grow storage to at least ``min_capacity`` lanes; never shrinks.

        Existing lane state is preserved; new lanes come up at the free
        start. Callers re-read :attr:`capacity` afterwards.
        """
        old = self._state
        if min_capacity <= old.n_lanes:
            return
        shape = (min_capacity, old.reference_length)
        state = BatchSDTWState(
            rows=np.zeros(shape, dtype=old.rows.dtype),
            runs=np.zeros(shape, dtype=old.runs.dtype),
            samples_processed=np.zeros(min_capacity, dtype=np.int64),
        )
        state.rows[: old.n_lanes] = old.rows
        state.runs[: old.n_lanes] = old.runs
        state.samples_processed[: old.n_lanes] = old.samples_processed
        self._state = state
        self._reductions = self._reductions.grown(min_capacity)

    def reset(self, lanes: np.ndarray) -> None:
        """Return the given lanes to the free start (no samples consumed)."""
        self._state.rows[lanes] = 0
        self._state.runs[lanes] = 0
        self._state.samples_processed[lanes] = 0
        self._reductions.reset(lanes)

    def advance(
        self,
        lanes: np.ndarray,
        queries: Sequence[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Advance each listed lane with its new query samples (the hot path).

        Returns ``(costs, end_positions)`` of shape ``(len(lanes),
        n_blocks)``: the post-advance cost and block-local end position per
        lane **per panel target**, bit-identical to independent
        single-reference runs. The resident rows, runs and sample counts are
        updated in place.
        """
        if self._closed:
            raise RuntimeError("backend is closed")
        tracer = self.tracer
        lanes = np.asarray(lanes, dtype=np.intp)
        n_lanes = int(lanes.size)
        with tracer.span("backend.advance", backend="numpy", n_lanes=n_lanes):
            n_groups = min(self.workers, n_lanes)
            if n_groups >= 2:
                self._advance_groups(lanes, queries, n_groups)
            else:
                with tracer.span("backend.wavefront"):
                    unstored = sdtw_resume_batch(
                        queries,
                        self.reference_values,
                        self.config,
                        state=self._state,
                        block_starts=self.block_starts,
                        stats=self.stats,
                        lanes=lanes,
                        out=self._reductions,
                    )
                if unstored is not None:
                    with tracer.span("backend.scatter"):
                        self.scatter(lanes, unstored)
            return self._reductions.costs[lanes], self._reductions.ends[lanes]

    def _advance_groups(
        self,
        lanes: np.ndarray,
        queries: Sequence[np.ndarray],
        n_groups: int,
    ) -> None:
        """Advance ``n_groups`` contiguous lane groups on the pool threads."""
        tracer = self.tracer
        n_lanes = len(lanes)
        edges = [n_lanes * group // n_groups for group in range(n_groups + 1)]
        futures = [
            self._pool.submit(
                self._advance_group,
                lanes[start:stop],
                queries[start:stop],
                tracer.enabled,
            )
            for start, stop in zip(edges, edges[1:])
        ]
        with tracer.span("backend.collect"):
            # Every group finishes before any error surfaces, so no thread is
            # still writing lane state when the caller sees it.
            wait(futures)
        errors = [future.exception() for future in futures]
        first_error = next((error for error in errors if error is not None), None)
        if first_error is not None:
            raise first_error
        for thread, (start, stop, future) in enumerate(zip(edges, edges[1:], futures)):
            unstored, stats, records = future.result()
            self.stats.merge(stats)
            tracer.merge_worker_records(records, track=f"numpy-thread-{thread}")
            if unstored is not None:
                # Only now that no group writes int32 rows may the storage widen.
                self.scatter(lanes[start:stop], unstored)

    def _advance_group(
        self,
        lanes: np.ndarray,
        queries: Sequence[np.ndarray],
        trace: bool,
    ) -> Tuple[Optional[BatchSDTWState], AdvanceStats, Optional[List[WorkerSpan]]]:
        """Advance one group's lanes in place (pool thread).

        Groups hold disjoint lanes, so they write disjoint rows of the
        resident state and its reductions. Lanes the kernel did not advance
        in place come back for the calling thread to store. A :class:`Tracer` keeps
        one span stack, so this never opens a span: with ``trace`` on it
        stamps worker-span tuples for the calling thread to merge.
        """
        clock = time.perf_counter
        start_s = clock() if trace else 0.0
        stats = AdvanceStats()
        unstored = sdtw_resume_batch(
            queries,
            self.reference_values,
            self.config,
            state=self._state,
            block_starts=self.block_starts,
            stats=stats,
            lanes=lanes,
            out=self._reductions,
        )
        records = None
        if trace:
            end_s = clock()
            records = [
                worker_span("worker.wavefront", start_s, end_s, depth=1),
                worker_span("worker.advance", start_s, end_s, child_s=end_s - start_s),
            ]
        return unstored, stats, records

    def gather(self, lanes: np.ndarray) -> BatchSDTWState:
        """Copy the given lanes' state into a fresh :class:`BatchSDTWState`."""
        return BatchSDTWState(
            rows=self._state.rows[lanes].copy(),
            runs=self._state.runs[lanes].copy(),
            samples_processed=self._state.samples_processed[lanes].copy(),
        )

    def scatter(self, lanes: np.ndarray, state: BatchSDTWState) -> None:
        """Store lane state, first widening ``int32`` storage to ``state``'s int64.

        Numpy's setitem casts silently, so int64 values are never assigned
        into int32 storage. Dwell is stored capped (``min(run, cap)``, the
        only value the recurrence reads), as the compiled kernel reads and
        writes it, so stored dwell means the same on every path; the lanes'
        reductions are recomputed from their new rows.
        """
        if state.rows.dtype.itemsize > self._state.rows.dtype.itemsize:
            self._state = BatchSDTWState(
                rows=self._state.rows.astype(np.int64),
                runs=self._state.runs.astype(np.int64),
                samples_processed=self._state.samples_processed,
            )
        self._state.rows[lanes] = state.rows
        self._state.runs[lanes] = np.minimum(state.runs, self.config.match_bonus_cap)
        self._state.samples_processed[lanes] = state.samples_processed
        self._reductions.store(lanes, state.rows, self.block_starts)

    def close(self) -> None:
        """Shut the thread pool down. Idempotent; ``advance`` refuses after."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown()
