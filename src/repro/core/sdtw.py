"""Subsequence dynamic time warping kernels (paper Sections 4.3 and 4.7).

Subsequence DTW (sDTW) aligns the whole query (a read prefix) against *any*
contiguous region of the reference squiggle: the first query sample may start
at any reference position for free, and the answer is the minimum value of
the last DP row.

The kernels, all computing identical costs for their configuration:

* :func:`sdtw_cost_matrix` — a direct, loop-based implementation returning
  the full DP matrix (and optionally the alignment path). Used for tests and
  for visualizing small alignments; quadratic memory.
* :func:`sdtw_resume` — the hardware ("no reference deletions") recurrence,
  row-vectorized and resumable: the oracle every fast path is checked
  against. A fresh alignment is the *free-start* state, an all-zero row with
  zero dwell, so every query sample — the first one included — runs through
  the same step; continuing from a stored row is the paper's multi-stage
  filtering (Section 5.1, "Variable Query Length").
* :func:`sdtw_last_row` / :func:`sdtw_cost` — the last row and its minimum:
  :func:`sdtw_resume` for the hardware recurrences, and for the vanilla one
  a two-row kernel that resolves the in-row dependency (``S[i, j-1]``)
  exactly with a prefix-minimum transformation.

The hardware accelerator model in :mod:`repro.hardware` reuses the integer
kernel so the systolic array is bit-compatible with the software filter.

The resumable recurrence also comes in a **batched** form:
:func:`sdtw_resume_batch` stacks many lanes into a ``(lanes, reference)``
state (:class:`BatchSDTWState`) and advances all of them in one call — the
kernel :class:`repro.batch.NumpyBackend` runs for
:class:`repro.batch.BatchSDTWEngine` (once per round, or once per lane group
on each kernel thread). Per-lane results are bit-identical to per-read
:func:`sdtw_resume` calls, which is what makes the lane split invisible to
decisions. The batched call has one fast path and one fallback:

* a compiled C loop (``_sdtw_kernel.c``, built on first use by
  :mod:`repro.core.ckernel`) for the all-integer hardware data path
  (:func:`int32_data_path`), taken by every call whose values stay in the
  range that keeps ``int32`` exact;
* the oracle itself, :func:`sdtw_resume` run per lane and per panel block,
  for every other configuration, for calls outside that range, and for
  every call when no C compiler is available.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import ckernel
from repro.core.config import SDTWConfig

__all__ = [
    "AdvanceStats",
    "BatchSDTWState",
    "RowReductions",
    "SDTWResult",
    "SDTWState",
    "int32_data_path",
    "lb_envelopes",
    "lb_keogh_bounds",
    "normalize_block_starts",
    "reduce_block_minima",
    "sdtw_cost",
    "sdtw_cost_matrix",
    "sdtw_last_row",
    "sdtw_resume",
    "sdtw_resume_batch",
]


class AdvanceStats:
    """Mutable accounting a batched advance fills in.

    ``cells_advanced`` counts the DP cells the wavefront swept (query
    samples x reference columns of every call); ``c_calls`` and
    ``generic_calls`` count the wavefront calls that ran the compiled kernel
    and the oracle fallback. The numpy backend accumulates one instance
    across rounds; each kernel thread fills its own and the backend merges
    them. Lanes the engine's lane gate skips never reach the backend, so the
    engine counts their cells itself.
    """

    __slots__ = ("cells_advanced", "c_calls", "generic_calls")

    def __init__(self) -> None:
        self.cells_advanced = 0
        self.c_calls = 0
        self.generic_calls = 0

    def merge(self, other: "AdvanceStats") -> None:
        self.cells_advanced += other.cells_advanced
        self.c_calls += other.c_calls
        self.generic_calls += other.generic_calls


def _as_kernel_arrays(
    query: np.ndarray,
    reference: np.ndarray,
    config: SDTWConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cast inputs to the dtype the configured kernel accumulates in."""
    dtype = np.int64 if config.quantize else np.float64
    query_values = np.asarray(query, dtype=dtype)
    reference_values = np.asarray(reference, dtype=dtype)
    if query_values.ndim != 1 or reference_values.ndim != 1:
        raise ValueError("query and reference must be 1-D arrays")
    if query_values.size == 0 or reference_values.size == 0:
        raise ValueError("query and reference must be non-empty")
    return query_values, reference_values


def _local_distance(value, reference: np.ndarray, config: SDTWConfig) -> np.ndarray:
    diff = value - reference
    if config.distance == "squared":
        return diff * diff
    return np.abs(diff)


class SDTWResult:
    """Outcome of one sDTW alignment: the optimal cost and where it ends."""

    __slots__ = ("cost", "end_position", "per_sample_cost", "query_length", "reference_length")

    def __init__(
        self,
        cost: float,
        end_position: int,
        query_length: int,
        reference_length: int,
    ) -> None:
        self.cost = float(cost)
        self.end_position = int(end_position)
        self.query_length = int(query_length)
        self.reference_length = int(reference_length)
        self.per_sample_cost = self.cost / self.query_length if self.query_length else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SDTWResult(cost={self.cost:.2f}, end_position={self.end_position}, "
            f"per_sample_cost={self.per_sample_cost:.3f})"
        )


def sdtw_last_row(
    query: np.ndarray,
    reference: np.ndarray,
    config: Optional[SDTWConfig] = None,
) -> np.ndarray:
    """Return the final DP row ``S[N-1, :]`` of the configured sDTW recurrence.

    The minimum of this row is the subsequence alignment cost; its argmin is
    the reference position where the best alignment ends.
    """
    cfg = config if config is not None else SDTWConfig()
    if not cfg.allow_reference_deletions:
        return sdtw_resume(query, reference, cfg).row
    query_values, reference_values = _as_kernel_arrays(query, reference, cfg)
    return _last_row_with_deletions(query_values, reference_values, cfg)


def _state_dtype(config: SDTWConfig):
    """Dtype a resumable state row is stored in (int64 on the quantized path)."""
    return np.int64 if config.quantize else np.float64


def _accumulator_dtype(config: SDTWConfig):
    """Dtype the resumable recurrence accumulates in.

    The match bonus mixes the integer costs with a (possibly fractional)
    reward, so the bonus recurrence accumulates in float64 and rounds back to
    integers at the end of each call; without a bonus the quantized recurrence
    is exact integer arithmetic end-to-end.
    """
    return np.int64 if (config.quantize and not config.uses_bonus) else np.float64


def _big_for(dtype):
    """A shifted-in boundary cost that is never selected by the minimum."""
    return np.int64(2**40) if dtype is np.int64 else np.inf


def int32_data_path(config: SDTWConfig) -> bool:
    """Whether ``config`` is the all-integer hardware data path.

    Quantized values, absolute distance, a whole-number bonus, and a dwell
    cap and largest credit (``match_bonus * match_bonus_cap``) below
    ``2**28``. On this path the batched wavefront may run its compiled
    ``int32`` kernel, and the numpy backend keeps its lane state in
    ``int32``; each call still checks its own value range before taking it.
    """
    return (
        config.quantize
        and config.distance == "absolute"
        and float(config.match_bonus).is_integer()
        and config.match_bonus_cap < 2**28
        and config.match_bonus * config.match_bonus_cap < 2**28
    )


def normalize_block_starts(block_starts, reference_length: int) -> np.ndarray:
    """Validate per-target column offsets over a concatenated reference.

    ``block_starts`` lists the column index where each target's reference
    begins inside the concatenated column space (a
    :class:`repro.core.panel.TargetPanel` layout). The result always starts
    at 0 and is strictly increasing; ``None`` means one block spanning every
    column.
    """
    if reference_length <= 0:
        raise ValueError("reference_length must be positive")
    if block_starts is None:
        return np.zeros(1, dtype=np.int64)
    starts = np.asarray(block_starts, dtype=np.int64).ravel()
    if starts.size == 0 or starts[0] != 0:
        raise ValueError("block_starts must begin with column 0")
    if np.any(np.diff(starts) <= 0):
        raise ValueError("block_starts must be strictly increasing")
    if int(starts[-1]) >= reference_length:
        raise ValueError(
            f"block start {int(starts[-1])} is beyond the {reference_length}-column reference"
        )
    return starts


def reduce_block_minima(
    rows: np.ndarray, block_starts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-block (per-target) cost and end-position reduction of DP rows.

    ``rows`` is a ``(n_lanes, reference_length)`` stack of last DP rows over a
    concatenated column space and ``block_starts`` the per-target offsets.
    Returns ``(costs, ends)`` of shape ``(n_lanes, n_blocks)`` where
    ``costs[l, b]`` is the row minimum inside block ``b`` and ``ends[l, b]``
    its argmin *local to the block* — exactly the cost/end an independent
    single-reference run over that target would report.
    """
    rows = np.asarray(rows)
    n_lanes, n_columns = rows.shape
    starts = normalize_block_starts(block_starts, int(n_columns))
    bounds = [int(start) for start in starts] + [int(n_columns)]
    costs = np.empty((n_lanes, starts.size), dtype=rows.dtype)
    ends = np.empty((n_lanes, starts.size), dtype=np.intp)
    lane_index = np.arange(n_lanes)
    for block in range(starts.size):
        segment = rows[:, bounds[block] : bounds[block + 1]]
        block_ends = np.argmin(segment, 1)
        ends[:, block] = block_ends
        costs[:, block] = segment[lane_index, block_ends]
    return costs, ends


# --------------------------------------------------------------------------
# Lower bounds for the engine's lane gate (UCRSuite's LB_Keogh adapted to
# streaming sDTW)
#
# Every alignment path of the no-deletion recurrence consumes every query
# sample exactly once, each step adding a non-negative local distance against
# *some* reference column. A lower bound on each sample's cheapest possible
# local distance therefore sums to a lower bound on the cost any path must add
# while consuming the chunk — regardless of where in the reference the path
# sits. Block boundaries sever the diagonal, so a path that ends inside block
# ``b`` also started inside block ``b`` and the per-block bounds compose with
# the engine's cached per-target row minima. The match bonus is budgeted by
# the engine's kill bound (``threshold + margin + bonus*(remaining+cap)``),
# which already credits every diagonal the lane could still harvest, so these
# bounds only need to never exceed the true *un-credited* local cost.


def lb_envelopes(
    reference_values: np.ndarray, block_starts=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-block ``(mins, maxs)`` value envelopes of a concatenated reference.

    Block ``b``'s envelope is the min/max of its column values, so a query
    sample ``v`` can never incur less than ``max(0, v - max_b, min_b - v)``
    of local distance inside the block.
    """
    values = np.asarray(reference_values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("reference must be a non-empty 1-D array")
    starts = normalize_block_starts(block_starts, values.size)
    return np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)


def lb_keogh_bounds(
    queries: Sequence[np.ndarray],
    block_lows: np.ndarray,
    block_highs: np.ndarray,
    config: SDTWConfig,
) -> np.ndarray:
    """LB_Keogh-style bounds of one round: a ``(lanes, blocks)`` array.

    ``result[k, b]`` lower-bounds the cost any path confined to block ``b``
    must add while lane ``k`` consumes its whole chunk ``queries[k]``: each
    sample adds at least its distance to the block's ``[min, max]`` value
    envelope (squared for the squared-distance kernel). One pass over the
    round's concatenated samples; a lane without samples gets 0.
    """
    lows = np.asarray(block_lows, dtype=np.float64)
    highs = np.asarray(block_highs, dtype=np.float64)
    lengths = np.fromiter((len(query) for query in queries), np.int64, len(queries))
    bounds = np.zeros((lengths.size, lows.size), dtype=np.float64)
    has_samples = lengths > 0
    if not has_samples.any():
        return bounds
    samples = np.concatenate(queries).astype(np.float64)[:, None]
    gaps = np.maximum(0.0, np.maximum(samples - highs, lows - samples))
    if config.distance == "squared":
        gaps *= gaps
    starts = (np.cumsum(lengths) - lengths)[has_samples]
    bounds[has_samples] = np.add.reduceat(gaps, starts, axis=0)
    return bounds


class SDTWState:
    """Resumable kernel state after processing a query prefix.

    The hardware's multi-stage filtering (paper Section 5.1, "Variable Query
    Length") stores the last PE's costs to DRAM so that alignment can continue
    when a longer prefix is requested. ``row`` is the last DP row and ``run``
    the per-column dwell counters the match bonus needs. Quantized-kernel rows
    are integer costs and stay ``int64`` end-to-end; float kernels store
    ``float64`` rows.
    """

    __slots__ = ("row", "run", "samples_processed")

    def __init__(self, row: np.ndarray, run: Optional[np.ndarray], samples_processed: int) -> None:
        row = np.asarray(row)
        self.row = row.astype(np.int64 if np.issubdtype(row.dtype, np.integer) else np.float64)
        self.run = None if run is None else np.asarray(run, dtype=np.int64)
        self.samples_processed = int(samples_processed)

    @property
    def cost(self) -> float:
        return float(self.row.min())

    @property
    def end_position(self) -> int:
        return int(np.argmin(self.row))


class BatchSDTWState:
    """Stacked resumable state: one lane per concurrent alignment.

    ``rows`` is the ``(n_lanes, reference_length)`` matrix of last DP rows,
    ``runs`` the matching dwell counters and ``samples_processed`` the
    per-lane query progress. Only ``min(runs, match_bonus_cap)`` is defined —
    the one value the recurrence reads — and the compiled ``int32`` kernel
    stores just that. A lane with ``samples_processed == 0`` is at the free
    start (an all-zero row with zero dwell): :meth:`initial` writes it, and
    :func:`sdtw_resume_batch` starts such a lane from it, whatever its row
    holds, once the lane gets samples. A lane that gets no samples does not
    change.

    Integer rows and runs are ``int64`` unless they are given as ``int32``,
    which the state keeps (the numpy backend's resident state on the
    ``int32`` data path); float rows are ``float64``. Arrays already of
    those dtypes are kept, not copied.
    """

    __slots__ = ("rows", "runs", "samples_processed")

    def __init__(
        self,
        rows: np.ndarray,
        runs: np.ndarray,
        samples_processed: np.ndarray,
    ) -> None:
        rows, runs = np.asarray(rows), np.asarray(runs)
        if rows.dtype != np.int32:
            integer = np.issubdtype(rows.dtype, np.integer)
            rows = rows.astype(np.int64 if integer else np.float64, copy=False)
        self.rows = rows
        self.runs = runs if runs.dtype == np.int32 else runs.astype(np.int64, copy=False)
        self.samples_processed = np.asarray(samples_processed, dtype=np.int64)
        if self.rows.ndim != 2:
            raise ValueError("rows must be a (n_lanes, reference_length) matrix")
        if self.runs.shape != self.rows.shape:
            raise ValueError("runs must have the same shape as rows")
        if self.samples_processed.shape != (self.rows.shape[0],):
            raise ValueError("samples_processed must have one entry per lane")

    @classmethod
    def initial(
        cls,
        n_lanes: int,
        reference_length: int,
        config: Optional[SDTWConfig] = None,
    ) -> "BatchSDTWState":
        """``n_lanes`` lanes at the free start: zero rows, zero dwell, no samples."""
        cfg = config if config is not None else SDTWConfig()
        if n_lanes < 0:
            raise ValueError("n_lanes must be non-negative")
        if reference_length <= 0:
            raise ValueError("reference_length must be positive")
        return cls(
            rows=np.zeros((n_lanes, reference_length), dtype=_state_dtype(cfg)),
            runs=np.zeros((n_lanes, reference_length), dtype=np.int64),
            samples_processed=np.zeros(n_lanes, dtype=np.int64),
        )

    @property
    def n_lanes(self) -> int:
        return int(self.rows.shape[0])

    @property
    def reference_length(self) -> int:
        return int(self.rows.shape[1])

    @property
    def costs(self) -> np.ndarray:
        """Per-lane optimal subsequence cost so far (the row minimum)."""
        return self.rows.min(axis=1)

    @property
    def end_positions(self) -> np.ndarray:
        """Per-lane reference position where the best alignment ends."""
        return np.argmin(self.rows, axis=1)

    def lane(self, index: int) -> SDTWState:
        """The scalar :class:`SDTWState` view of one lane."""
        return SDTWState(
            row=self.rows[index],
            run=self.runs[index],
            samples_processed=int(self.samples_processed[index]),
        )


def sdtw_resume(
    query: np.ndarray,
    reference: np.ndarray,
    config: Optional[SDTWConfig] = None,
    state: Optional[SDTWState] = None,
) -> SDTWState:
    """Process (more of) a query through the no-reference-deletion recurrence.

    Without ``state`` (or from a state that has consumed no samples) the
    alignment starts free: an all-zero previous row with zero dwell, so the
    first sample's step leaves exactly its local distances, and the result's
    row is :func:`sdtw_last_row`. With a state it continues the alignment
    as if the new samples had been part of the original query. Only the
    hardware recurrences (no reference deletions) are resumable, mirroring
    the accelerator.
    """
    cfg = config if config is not None else SDTWConfig()
    if cfg.allow_reference_deletions:
        raise ValueError("sdtw_resume requires allow_reference_deletions=False")
    query_values, reference_values = _as_kernel_arrays(query, reference, cfg)

    bonus = float(cfg.match_bonus)
    cap = cfg.match_bonus_cap
    accumulator = _accumulator_dtype(cfg)
    big = _big_for(accumulator)

    if state is not None and state.row.size != reference_values.size:
        raise ValueError(
            f"state row length {state.row.size} does not match reference length {reference_values.size}"
        )
    if state is None or state.samples_processed == 0:
        previous = np.zeros(reference_values.size, dtype=accumulator)
        run = np.zeros(reference_values.size, dtype=np.int64)
        processed = 0
    else:
        previous = state.row.astype(accumulator)
        run = (
            state.run.copy()
            if state.run is not None
            else np.ones(reference_values.size, dtype=np.int64)
        )
        processed = state.samples_processed

    cost_shift = np.empty_like(previous)
    run_shift = np.empty_like(run)
    for value in query_values:
        local = _local_distance(value, reference_values, cfg).astype(accumulator)
        cost_shift[0] = big
        cost_shift[1:] = previous[:-1]
        run_shift[0] = 0
        run_shift[1:] = run[:-1]
        diagonal = cost_shift - bonus * np.minimum(run_shift, cap) if bonus else cost_shift
        take_diagonal = diagonal < previous
        previous = local + np.where(take_diagonal, diagonal, previous)
        run = np.where(take_diagonal, 1, run + 1)

    if cfg.quantize and cfg.uses_bonus:
        row = np.rint(previous).astype(np.int64)
    else:
        row = previous
    return SDTWState(row=row, run=run, samples_processed=processed + query_values.size)


def sdtw_resume_batch(
    queries: Sequence[np.ndarray],
    reference: np.ndarray,
    config: Optional[SDTWConfig] = None,
    state: Optional[BatchSDTWState] = None,
    block_starts: Optional[np.ndarray] = None,
    stats: Optional[AdvanceStats] = None,
    *,
    lanes: Optional[np.ndarray] = None,
    out: Optional[RowReductions] = None,
) -> Optional[BatchSDTWState]:
    """Advance many resumable alignments in one call.

    ``queries`` holds one (possibly ragged-length) array of new query samples
    per lane. Each lane computes exactly the no-reference-deletion
    recurrence of :func:`sdtw_resume` over every column, so per-lane rows and
    costs are **bit-identical** to calling ``sdtw_resume`` once per lane —
    the batch kernel only restructures the per-read work.

    A lane whose ``state.samples_processed`` is zero starts from the free
    start (an all-zero row with zero dwell), as a fresh ``sdtw_resume`` call
    does, and its first sample runs through the same step as every other.
    A lane that gets no samples (an empty array) does not change, fresh or
    not. Returns a new :class:`BatchSDTWState`; the input state is not
    mutated.

    The returned ``runs`` are defined up to the cap:
    ``min(runs, match_bonus_cap)`` equals ``sdtw_resume``'s
    ``min(run, match_bonus_cap)``, the only value the recurrence reads. The
    compiled kernel keeps just that capped counter.

    Execution notes: the all-integer configurations (quantized, absolute
    distance, whole-number bonus — the hardware data path) run the compiled
    ``int32`` kernel whenever the call's values keep every intermediate cost
    within ``+-2**28``; all values are then exact small integers, so the
    outputs remain bit-identical to the scalar kernel. An ``int32`` state
    comes back ``int32`` from that kernel; every other call runs
    :func:`sdtw_resume` per lane and per panel block, and returns ``int64``
    rows and runs on a quantized config.

    ``block_starts`` declares a multi-target **panel** layout: the reference
    is N independent target references concatenated along the column axis,
    each beginning at one of the listed offsets. The recurrence's only
    cross-column dependency is the diagonal shift, so severing the diagonal
    at every block start makes each block's columns bit-identical to an
    independent single-reference run over that target — one wavefront
    advances the whole panel. Reduce per target afterwards with
    :func:`reduce_block_minima`. ``stats`` accumulates the call's advanced
    cells and which wavefront path it ran.

    ``lanes`` makes the call an in-place advance of a resident state (the
    numpy backend's hot path): query ``k`` advances row ``lanes[k]`` of
    ``state`` (listed lanes are distinct), and ``out`` is the state's
    :class:`RowReductions`, whose magnitudes the call reads instead of
    scanning rows. When the compiled kernel advances the listed rows where
    they lie, the call stores the rows, dwell, sample counts and reductions
    itself and returns ``None``. Every other call (``int64`` or float
    storage, values outside the kernel's range, no compiler) stores nothing
    and returns the listed lanes' advanced state, for the caller to store,
    widening ``int32`` storage first when that state is ``int64``.
    """
    cfg = config if config is not None else SDTWConfig()
    if cfg.allow_reference_deletions:
        raise ValueError("sdtw_resume_batch requires allow_reference_deletions=False")

    input_dtype = np.int64 if cfg.quantize else np.float64
    reference_values = np.asarray(reference, dtype=input_dtype)
    if reference_values.ndim != 1 or reference_values.shape[0] == 0:
        raise ValueError("reference must be a non-empty 1-D array")

    chunks = [np.asarray(q, dtype=input_dtype) for q in queries]
    if any(chunk.ndim != 1 for chunk in chunks):
        raise ValueError("every lane query must be a 1-D array")
    n_lanes = len(chunks)
    reference_length = int(reference_values.shape[0])

    if lanes is not None:
        if state is None or out is None:
            raise ValueError("lanes= advances a resident state: pass its state= and out=")
        lanes = np.ascontiguousarray(lanes, dtype=np.int64)
        if lanes.shape != (n_lanes,):
            raise ValueError(f"{lanes.size} lanes were listed but {n_lanes} queries were given")
        if n_lanes and (int(lanes.min()) < 0 or int(lanes.max()) >= state.n_lanes):
            raise IndexError(f"a listed lane is outside the state's {state.n_lanes} lanes")
    elif state is None:
        state = BatchSDTWState.initial(n_lanes, reference_length, cfg)
    elif state.n_lanes != n_lanes:
        raise ValueError(f"state has {state.n_lanes} lanes but {n_lanes} queries were given")
    if state.reference_length != reference_length:
        raise ValueError(
            f"state reference length {state.reference_length} does not match "
            f"reference length {reference_length}"
        )

    starts = normalize_block_starts(block_starts, reference_length)
    lengths = np.fromiter((chunk.shape[0] for chunk in chunks), dtype=np.int64, count=n_lanes)
    if lanes is not None:
        return _advance_resident(
            chunks, lengths, reference_values, cfg, state, lanes, starts, out, stats
        )
    return _advance_copy(chunks, lengths, reference_values, cfg, state, starts, stats)


def _magnitudes(rows: np.ndarray) -> np.ndarray:
    """Each row's ``max |row|``, in int64 (float64 for float rows)."""
    wide = np.float64 if rows.dtype.kind == "f" else np.int64
    return np.maximum(rows.max(axis=1).astype(wide), -rows.min(axis=1).astype(wide))


class RowReductions:
    """Per-lane reductions a resident state keeps beside its rows.

    ``costs`` and ``ends`` (``(capacity, n_blocks)``) hold each stored row's
    per-block minimum and block-local first argmin, as
    :func:`reduce_block_minima` computes them, and ``magnitudes``
    (``(capacity,)``) an upper bound on each stored row's ``max |row|``. An
    in-place :func:`sdtw_resume_batch` (``lanes=``) reads the magnitudes for
    its ``int32`` range guard instead of scanning rows, and the backend
    returns the costs and ends. The compiled kernel rewrites all three for
    the lanes it advances; :meth:`store` reduces rows stored any other way.
    A lane at the free start (a zero row) reduces to zeros.
    """

    __slots__ = ("costs", "ends", "magnitudes")

    def __init__(self, capacity: int, n_blocks: int, dtype=np.int64) -> None:
        self.costs = np.zeros((capacity, n_blocks), dtype=dtype)
        self.ends = np.zeros((capacity, n_blocks), dtype=np.intp)
        self.magnitudes = np.zeros(capacity, dtype=dtype)

    def grown(self, capacity: int) -> "RowReductions":
        """A copy with room for ``capacity`` lanes; the new lanes are free starts."""
        grown = RowReductions(capacity, self.costs.shape[1], self.costs.dtype)
        kept = self.magnitudes.shape[0]
        grown.costs[:kept] = self.costs
        grown.ends[:kept] = self.ends
        grown.magnitudes[:kept] = self.magnitudes
        return grown

    def reset(self, lanes: np.ndarray) -> None:
        """The given lanes went back to the free start."""
        self.costs[lanes] = 0
        self.ends[lanes] = 0
        self.magnitudes[lanes] = 0

    def store(self, lanes: np.ndarray, rows: np.ndarray, block_starts: np.ndarray) -> None:
        """Reduce the given lanes' new ``rows`` (one row per listed lane)."""
        self.costs[lanes], self.ends[lanes] = reduce_block_minima(rows, block_starts)
        self.magnitudes[lanes] = _magnitudes(rows)


def _advance_resident(
    chunks: List[np.ndarray],
    lengths: np.ndarray,
    reference_values: np.ndarray,
    cfg: SDTWConfig,
    state: BatchSDTWState,
    lanes: np.ndarray,
    starts: np.ndarray,
    out: RowReductions,
    stats: Optional[AdvanceStats],
) -> Optional[BatchSDTWState]:
    """``sdtw_resume_batch(lanes=...)``: advance rows ``lanes`` of ``state``.

    On ``int32`` storage the compiled kernel advances the listed rows where
    they lie: it restarts fresh lanes itself and reduces every row it
    finishes into ``out``, so a round copies no lane state. Its range guard
    reads ``out.magnitudes``. Every other call advances a copy of the
    listed lanes (:func:`_advance_copy`) and returns it for the caller to
    store.
    """
    if not lengths.any():
        return None
    if state.rows.dtype == np.int32 and int32_data_path(cfg):
        restart = (state.samples_processed[lanes] == 0) & (lengths > 0)
        rows_bound = int(out.magnitudes[lanes[~restart]].max(initial=0))
        query = _int32_query(chunks, lengths, reference_values, cfg, rows_bound)
        if query is not None:
            if stats is not None:
                stats.c_calls += 1
                stats.cells_advanced += int(lengths.sum()) * state.reference_length
            out.costs[lanes], out.ends[lanes], out.magnitudes[lanes] = _advance_batch_int32(
                state.rows, state.runs, lanes, restart, query, lengths,
                reference_values.astype(np.int32), starts, int(cfg.match_bonus),
                cfg.match_bonus_cap,
            )
            state.samples_processed[lanes] += lengths
            return None
    gathered = BatchSDTWState(
        state.rows[lanes], state.runs[lanes], state.samples_processed[lanes]
    )
    return _advance_copy(chunks, lengths, reference_values, cfg, gathered, starts, stats)


def _int32_query(
    chunks: Sequence[np.ndarray],
    lengths: np.ndarray,
    reference_values: np.ndarray,
    cfg: SDTWConfig,
    rows_bound: int,
) -> Optional[np.ndarray]:
    """The call's samples as one int32 query, if the compiled kernel can take it.

    It can when it is built and every intermediate cost stays within
    ``+-2**28``: stored rows within ``rows_bound`` (lanes that restart
    excluded), plus at most one local distance and one bonus per sample.
    ``None`` otherwise. Some lane must have samples.
    """
    if ckernel.load() is None:
        return None
    query = np.concatenate(chunks)
    value_bound = max(
        int(query.max()), -int(query.min()),
        int(reference_values.max()), -int(reference_values.min()),
    )
    growth = (2 * value_bound + int(cfg.match_bonus) + 1) * int(lengths.max())
    if rows_bound + growth >= 2**28:
        return None
    return query.astype(np.int32)


def _advance_copy(
    chunks: List[np.ndarray],
    lengths: np.ndarray,
    reference_values: np.ndarray,
    cfg: SDTWConfig,
    state: BatchSDTWState,
    starts: np.ndarray,
    stats: Optional[AdvanceStats],
) -> BatchSDTWState:
    """Advance every lane of ``state`` into new arrays, leaving it as it was.

    A lane with ``samples_processed == 0`` starts from the free start, and a
    lane with no samples keeps its stored row and (capped) dwell. On the
    ``int32`` data path, when this call's values stay in range, the compiled
    kernel (:func:`_advance_batch_int32`) advances int32 copies of every
    lane; every other call runs the oracle per lane
    (:func:`_advance_batch_generic`). Int32 rows come back as int32 only
    when they went in as int32 and the compiled kernel ran; otherwise
    quantized rows come back as int64.
    """
    processed = state.samples_processed + lengths
    rows, runs = state.rows, state.runs
    if not lengths.any():
        return BatchSDTWState(rows.copy(), runs.copy(), processed)
    if stats is not None:
        stats.cells_advanced += int(lengths.sum()) * state.reference_length
    if int32_data_path(cfg):
        restart = (state.samples_processed == 0) & (lengths > 0)
        rows_bound = int(_magnitudes(rows)[~restart].max(initial=0))
        query = _int32_query(chunks, lengths, reference_values, cfg, rows_bound)
        if query is not None:
            if stats is not None:
                stats.c_calls += 1
            cap = cfg.match_bonus_cap
            # A restarted lane's stored row may wrap here; the kernel never reads it.
            rows32 = rows.astype(np.int32)
            dwell = np.minimum(runs, cap).astype(np.int32, copy=False)
            _advance_batch_int32(
                rows32, dwell, np.arange(len(chunks), dtype=np.int64), restart, query,
                lengths, reference_values.astype(np.int32), starts, int(cfg.match_bonus), cap,
            )
            if rows.dtype != np.int32:
                rows32, dwell = rows32.astype(np.int64), dwell.astype(np.int64)
            return BatchSDTWState(rows32, dwell, processed)

    if stats is not None:
        stats.generic_calls += 1
    rows, runs = _advance_batch_generic(
        chunks, reference_values, cfg, rows, runs, state.samples_processed, starts
    )
    return BatchSDTWState(rows, runs, processed)


def _advance_batch_int32(
    rows: np.ndarray,
    dwell: np.ndarray,
    lanes: np.ndarray,
    restart: np.ndarray,
    query: np.ndarray,
    lengths: np.ndarray,
    reference: np.ndarray,
    block_starts: np.ndarray,
    bonus: int,
    cap: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compiled integer wavefront (the hardware data path), in place.

    Lane ``k`` advances row ``lanes[k]`` of ``rows`` and ``dwell`` (the
    capped dwell ``min(run, cap)``) over its ``lengths[k]`` samples of
    ``query``, one step per sample, from the free start when ``restart[k]``
    is set; a lane with no samples keeps its row. The diagonal is severed at
    every panel block start. The C loop in ``_sdtw_kernel.c`` runs the
    integer operations of :func:`sdtw_resume` in ``int32``, one L1-sized
    column tile at a time, passing each step's edge to the next tile through
    a halo of one entry per sample of the longest chunk, and reduces each
    tile as it finishes it; the caller guarantees the range that makes them
    exact. ``rows`` and ``dwell`` may be any stack of int32 rows whose
    columns are contiguous. Returns ``(costs, ends, magnitudes)``: per lane,
    what :func:`reduce_block_minima` gives for its new row, and its
    ``max |row|``.
    """
    n_lanes = lanes.shape[0]
    n_columns = rows.shape[1]
    if (
        dwell.shape != rows.shape
        or dwell.strides != rows.strides
        or rows.strides[1] != rows.itemsize
        or restart.shape != (n_lanes,)
        or lengths.shape != (n_lanes,)
        or int(lengths.sum()) != query.shape[0]
        or reference.shape != (n_columns,)
    ):
        raise ValueError("int32 wavefront arrays disagree in shape")
    if n_lanes and (int(lanes.min()) < 0 or int(lanes.max()) >= rows.shape[0]):
        raise IndexError("int32 wavefront lane out of range")
    if (
        block_starts[0] != 0
        or int(block_starts[-1]) >= n_columns
        or (block_starts.size > 1 and not np.all(np.diff(block_starts) > 0))
    ):
        raise ValueError("block starts must rise strictly from column 0 inside the row")
    offsets = np.zeros(n_lanes + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    halo = np.empty(int(lengths.max(initial=0)), dtype=np.int32)
    costs = np.empty((n_lanes, block_starts.shape[0]), dtype=np.int64)
    ends = np.empty_like(costs)
    magnitudes = np.empty(n_lanes, dtype=np.int64)
    ckernel.load()(
        n_lanes, lanes, restart, n_columns, rows.strides[0] // rows.itemsize, rows, dwell,
        query, offsets, reference, block_starts.shape[0], block_starts, bonus, cap, halo,
        costs, ends, magnitudes,
    )
    return costs, ends, magnitudes


def _advance_batch_generic(
    lanes: Sequence[np.ndarray],
    reference_values: np.ndarray,
    cfg: SDTWConfig,
    rows: np.ndarray,
    runs: np.ndarray,
    samples_processed: np.ndarray,
    starts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The batched fallback: the oracle :func:`sdtw_resume`, per lane and block.

    Each lane that got samples resumes from its stored row and dwell (or
    the free start, if it has processed none) on each panel block's slice of
    the reference, whose first column, like column 0, takes no diagonal.
    Lanes without samples keep their stored state. Returns new rows in the
    state dtype (``int64`` when quantized) and ``int64`` runs.
    """
    out_rows = rows.astype(_state_dtype(cfg))
    out_runs = runs.astype(np.int64)
    edges = [*starts.tolist(), reference_values.shape[0]]
    for lane, query in enumerate(lanes):
        if not query.shape[0]:
            continue
        for lo, hi in zip(edges, edges[1:]):
            resumed = sdtw_resume(
                query,
                reference_values[lo:hi],
                cfg,
                SDTWState(rows[lane, lo:hi], runs[lane, lo:hi], int(samples_processed[lane])),
            )
            out_rows[lane, lo:hi] = resumed.row
            out_runs[lane, lo:hi] = resumed.run
    return out_rows, out_runs


def sdtw_cost(
    query: np.ndarray,
    reference: np.ndarray,
    config: Optional[SDTWConfig] = None,
) -> SDTWResult:
    """Optimal subsequence alignment cost of ``query`` against ``reference``."""
    cfg = config if config is not None else SDTWConfig()
    last_row = sdtw_last_row(query, reference, cfg)
    end_position = int(np.argmin(last_row))
    return SDTWResult(
        cost=float(last_row[end_position]),
        end_position=end_position,
        query_length=int(np.asarray(query).size),
        reference_length=int(np.asarray(reference).size),
    )


def _last_row_with_deletions(
    query: np.ndarray,
    reference: np.ndarray,
    config: SDTWConfig,
) -> np.ndarray:
    """Vanilla recurrence: ``S[i,j] = d + min(S[i-1,j-1], S[i-1,j], S[i,j-1])``.

    The in-row dependency ``S[i, j-1]`` is eliminated exactly: with
    ``m[j] = min(S[i-1, j-1], S[i-1, j])`` the recurrence expands to
    ``S[i, j] = D[j] + min_{l <= j} (m[l] - D[l-1])`` where ``D`` is the
    prefix sum of the local distances along the row, so one cumulative
    minimum per row reproduces the loop result.
    """
    previous = _local_distance(query[0], reference, config).astype(np.float64)
    reference_float = reference.astype(np.float64)
    query_float = query.astype(np.float64)
    big = np.inf
    for i in range(1, query_float.size):
        local = _local_distance(query_float[i], reference_float, config)
        shifted = np.empty_like(previous)
        shifted[0] = big
        shifted[1:] = previous[:-1]
        m = np.minimum(shifted, previous)
        prefix = np.cumsum(local)
        offset = np.empty_like(prefix)
        offset[0] = 0.0
        offset[1:] = prefix[:-1]
        previous = prefix + np.minimum.accumulate(m - offset)
    if config.quantize:
        return np.rint(previous)
    return previous


def sdtw_cost_matrix(
    query: np.ndarray,
    reference: np.ndarray,
    config: Optional[SDTWConfig] = None,
    return_path: bool = False,
) -> Tuple[np.ndarray, Optional[List[Tuple[int, int]]]]:
    """Direct (loop-based) sDTW returning the full DP matrix.

    Intended for small inputs: tests use it to validate the vectorized
    kernels, and examples use it to visualize alignment paths. When
    ``return_path`` is True the optimal subsequence alignment path is traced
    back from the best cell of the last row.
    """
    cfg = config if config is not None else SDTWConfig()
    query_values, reference_values = _as_kernel_arrays(query, reference, cfg)
    n, m = query_values.size, reference_values.size
    matrix = np.zeros((n, m), dtype=np.float64)
    run = np.ones((n, m), dtype=np.int64)
    matrix[0, :] = _local_distance(query_values[0], reference_values, cfg)

    use_bonus = cfg.uses_bonus
    for i in range(1, n):
        for j in range(m):
            local = float(_local_distance(query_values[i], reference_values[j : j + 1], cfg)[0])
            # Candidate order matters only for ties; vertical is listed first so
            # tie-breaking matches the vectorized kernels (which prefer the
            # vertical move when the bonus-adjusted diagonal is not strictly
            # smaller).
            candidates = [(matrix[i - 1, j], "vertical")]
            if j > 0:
                diagonal = matrix[i - 1, j - 1]
                if use_bonus:
                    diagonal = diagonal - cfg.match_bonus * min(run[i - 1, j - 1], cfg.match_bonus_cap)
                candidates.append((diagonal, "diagonal"))
            if cfg.allow_reference_deletions and j > 0:
                candidates.append((matrix[i, j - 1], "horizontal"))
            best_value, best_move = min(candidates, key=lambda item: item[0])
            matrix[i, j] = local + best_value
            if use_bonus:
                run[i, j] = 1 if best_move == "diagonal" else run[i - 1, j] + 1

    path: Optional[List[Tuple[int, int]]] = None
    if return_path:
        path = _traceback(matrix, query_values, reference_values, cfg, run)
    return matrix, path


def _traceback(
    matrix: np.ndarray,
    query: np.ndarray,
    reference: np.ndarray,
    config: SDTWConfig,
    run: np.ndarray,
) -> List[Tuple[int, int]]:
    n, m = matrix.shape
    i = n - 1
    j = int(np.argmin(matrix[-1]))
    path = [(i, j)]
    while i > 0:
        local = float(_local_distance(query[i], reference[j : j + 1], config)[0])
        remaining = matrix[i, j] - local
        candidates = []
        if j > 0:
            diagonal = matrix[i - 1, j - 1]
            if config.uses_bonus:
                diagonal = diagonal - config.match_bonus * min(run[i - 1, j - 1], config.match_bonus_cap)
            candidates.append((abs(diagonal - remaining), i - 1, j - 1))
        candidates.append((abs(matrix[i - 1, j] - remaining), i - 1, j))
        if config.allow_reference_deletions and j > 0:
            candidates.append((abs(matrix[i, j - 1] - remaining), i, j - 1))
        _, i, j = min(candidates, key=lambda item: item[0])
        path.append((i, j))
    path.reverse()
    return path
