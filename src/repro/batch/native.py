"""The ``"native"`` execution backend: a compiled scalar-loop wavefront.

:class:`NativeBackend` ports the int32 fast path of
:func:`repro.core.sdtw._advance_batch_int32` to a Numba ``njit`` scalar loop.
The vectorized kernels express pruning as masked array operations — every
lane still sweeps whole span widths per step, and early abandoning can only
skip *future rounds*. A scalar loop prunes the way UCRSuite does: the kill
comparison is a real ``break``, so an abandoned lane stops mid-round after
the exact step its running row minimum crossed the bound, and the per-block
active spans bound each step's inner loop directly.

Kernel contract (shared with the vectorized pruned path, see
:func:`repro.core.sdtw.sdtw_resume_batch`):

* every output cost at or below the caller's decision bound is bit-identical
  to the brute-force advance;
* frozen columns keep their exact last-computed value (which is provably
  above the kill bound), never a sentinel — so resumption and the int32
  value-range analysis stay exact;
* with an infinite kill bound the loop degenerates to the plain recurrence
  and outputs are bit-identical to every other backend, pruned or not.

The kernel itself has two compiled builds sharing one contract: the Numba
``njit`` of :func:`advance_scalar_kernel`, and an ahead-of-time Cython
extension (``repro.batch._native_kernel``, built from ``_native_kernel.pyx``
by ``pip install -e .[native]``) for deployments without a JIT. The backend
prefers the Cython build when it imports, falls back to Numba, and —
``jit=False`` / ``kernel="python"`` — runs the identical kernel as pure
Python, which is how the test suite covers this backend's code path
bit-for-bit on machines (and CI runners) with neither. The name is always
registered so configs naming ``"native"`` validate everywhere;
*constructing* the backend with no compiled kernel available raises a
:class:`RuntimeError` with an install hint.

Configurations outside the integer data path (float kernels, squared
distance, fractional bonus) fall back to the inherited
:class:`~repro.batch.backends.NumpyBackend` advance for the round, in the
spirit of per-workload kernel-variant selection rather than hard failure.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SDTWConfig
from repro.core.sdtw import reduce_block_minima
from repro.batch.backends import NumpyBackend, register_backend

__all__ = [
    "NativeBackend",
    "advance_scalar_kernel",
    "cython_kernel_available",
    "numba_available",
]


def numba_available() -> bool:
    """Whether the Numba JIT is importable in this interpreter."""
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


# The optional ahead-of-time compiled kernel (repro.batch._native_kernel,
# built from _native_kernel.pyx by `pip install -e .[native]`). Probed once
# per process; None when the extension was never built.
_CYTHON_KERNEL = None
_CYTHON_PROBED = False


def _cython_kernel():
    global _CYTHON_KERNEL, _CYTHON_PROBED
    if not _CYTHON_PROBED:
        _CYTHON_PROBED = True
        try:
            from repro.batch import _native_kernel
        except ImportError:
            _CYTHON_KERNEL = None
        else:
            _CYTHON_KERNEL = _native_kernel.advance_scalar_kernel
    return _CYTHON_KERNEL


def cython_kernel_available() -> bool:
    """Whether the compiled Cython kernel extension is importable."""
    return _cython_kernel() is not None


def advance_scalar_kernel(
    rows: np.ndarray,
    runs: np.ndarray,
    query_flat: np.ndarray,
    query_offsets: np.ndarray,
    reference: np.ndarray,
    bonus: int,
    cap: int,
    kill: np.ndarray,
    fresh: np.ndarray,
    block_lo: np.ndarray,
    block_hi: np.ndarray,
    big: int,
) -> int:
    """Scalar wavefront over lane-stacked state, pruned by per-lane kill bounds.

    Advances ``rows``/``runs`` **in place** (lane ``l``'s new samples are
    ``query_flat[query_offsets[l]:query_offsets[l + 1]]``) and returns the
    number of DP cells actually computed. ``runs`` hold capped dwell counters
    (``track_runs=False`` semantics). ``kill[l]`` is the lane's kill bound
    (``inf`` = never prune): per block, only the span from the first live
    column to one past the last live column plus the step count is swept, a
    severed diagonal at each span's left edge (it can only raise values that
    are already provably dead), and a step whose running row minimum exceeds
    the bound breaks out of the lane — every remaining cell stays frozen at
    its exact partial value, which is itself above the bound.

    This body is what :class:`NativeBackend` feeds to ``numba.njit``; it is
    also a correct (slow) pure-Python/NumPy-scalar kernel, which is how the
    bit-identity suite exercises it without a JIT.
    """
    n_lanes = rows.shape[0]
    n_blocks = block_lo.shape[0]
    cells = 0
    for lane in range(n_lanes):
        begin = query_offsets[lane]
        end = query_offsets[lane + 1]
        if end == begin:
            continue
        bound = kill[lane]
        if fresh[lane]:
            first = query_flat[begin]
            for j in range(rows.shape[1]):
                d = first - reference[j]
                rows[lane, j] = d if d >= 0 else -d
                runs[lane, j] = 1
            cells += rows.shape[1]
            begin += 1
        steps = end - begin
        if steps == 0:
            continue
        # Per-block active spans: [first live, last live + 1 + steps) clipped
        # to the block — information moves one column rightward per step and
        # never crosses a block boundary.
        lo = np.empty(n_blocks, np.int64)
        hi = np.empty(n_blocks, np.int64)
        alive = False
        for block in range(n_blocks):
            first_live = -1
            last_live = -1
            for j in range(block_lo[block], block_hi[block]):
                if rows[lane, j] <= bound:
                    if first_live < 0:
                        first_live = j
                    last_live = j
            lo[block] = first_live
            if first_live >= 0:
                alive = True
                reach = last_live + 1 + steps
                hi[block] = reach if reach < block_hi[block] else block_hi[block]
        if not alive:
            continue  # early abandon: the whole round's work is skipped
        for step in range(steps):
            value = query_flat[begin + step]
            row_min = big
            for block in range(n_blocks):
                span_lo = lo[block]
                if span_lo < 0:
                    continue
                span_hi = hi[block]
                diagonal = big
                for j in range(span_lo, span_hi):
                    previous = rows[lane, j]
                    old_run = runs[lane, j]
                    d = value - reference[j]
                    if d < 0:
                        d = -d
                    if diagonal < previous:
                        new_value = d + diagonal
                        new_run = 1
                    else:
                        new_value = d + previous
                        new_run = old_run + 1
                        if new_run > cap:
                            new_run = cap
                    capped = old_run if old_run < cap else cap
                    diagonal = previous - bonus * capped
                    rows[lane, j] = new_value
                    if bonus != 0:
                        # track_runs=False semantics: capped counters, and
                        # without a bonus the counters pass through untouched.
                        runs[lane, j] = new_run
                    if new_value < row_min:
                        row_min = new_value
                cells += span_hi - span_lo
            if row_min > bound:
                # The real break: every live value just crossed the kill
                # bound, so the remaining steps cannot produce a cost at or
                # below the decision bound — freeze the lane mid-round.
                break
    return cells


# One compiled kernel per process, shared by every NativeBackend instance.
_COMPILED = None


def _compiled_kernel():
    global _COMPILED
    if _COMPILED is None:
        import numba

        _COMPILED = numba.njit(cache=True)(advance_scalar_kernel)
    return _COMPILED


@register_backend("native")
class NativeBackend(NumpyBackend):
    """In-process execution through the compiled scalar-loop kernel.

    Holds the same resident :class:`BatchSDTWState` as
    :class:`~repro.batch.backends.NumpyBackend` (gather/scatter/reset/allocate
    are inherited); only ``advance`` differs. Integer-data-path rounds
    (quantized, absolute distance, whole-number bonus — the hardware
    configuration) run the scalar kernel on ``int32`` arrays when the value
    range allows, ``int64`` otherwise; any other configuration falls back to
    the inherited vectorized advance for the round.

    ``kernel`` pins the kernel build: ``"cython"`` (the AOT extension),
    ``"numba"``, ``"python"``, or ``"auto"`` (default with ``jit=True``:
    Cython when built, else Numba). ``jit=False`` is the back-compatible
    spelling of ``kernel="python"``. All builds are bit-identical.
    """

    backend_name = "native"

    def __init__(
        self,
        reference: np.ndarray,
        config: Optional[SDTWConfig] = None,
        capacity: int = 8,
        block_starts: Optional[np.ndarray] = None,
        jit: bool = True,
        kernel: Optional[str] = None,
    ) -> None:
        self.jit = bool(jit)
        if kernel is None:
            kernel = "auto" if self.jit else "python"
        if kernel not in ("auto", "cython", "numba", "python"):
            raise ValueError(
                f"kernel must be one of auto, cython, numba, python; got {kernel!r}"
            )
        # Compiled-kernel preference: the AOT Cython extension when it was
        # built (no JIT warm-up, works without Numba), the Numba njit kernel
        # otherwise; "python" is the uncompiled escape hatch the bit-identity
        # suite runs everywhere.
        if kernel == "auto":
            if cython_kernel_available():
                kernel = "cython"
            elif numba_available():
                kernel = "numba"
            else:
                raise RuntimeError(
                    "the 'native' execution backend needs a compiled scalar "
                    "kernel: pip install numba, or build the Cython extension "
                    "with pip install -e .[native] (or pass jit=False to run "
                    "the identical kernel as pure Python)"
                )
        elif kernel == "cython" and not cython_kernel_available():
            raise RuntimeError(
                "the compiled Cython kernel (repro.batch._native_kernel) is "
                "not built; pip install -e .[native] (or python setup.py "
                "build_ext --inplace) builds it"
            )
        elif kernel == "numba" and not numba_available():
            raise RuntimeError(
                "the 'native' execution backend compiles its scalar kernel with "
                "Numba, which is not installed; pip install numba (or pass "
                "jit=False to run the identical kernel as pure Python)"
            )
        self.kernel_name = kernel
        super().__init__(
            reference, config=config, capacity=capacity, block_starts=block_starts
        )
        cfg = self.config
        self._scalar_eligible = (
            cfg.quantize
            and cfg.distance == "absolute"
            and float(cfg.match_bonus).is_integer()
            and not cfg.allow_reference_deletions
        )
        self._block_lo = self.block_starts.astype(np.int64)
        self._block_hi = np.append(
            self._block_lo[1:], np.int64(self.reference_values.size)
        )

    def _kernel(self):
        if self.kernel_name == "cython":
            return _cython_kernel()
        if self.kernel_name == "numba":
            return _compiled_kernel()
        return advance_scalar_kernel

    def advance(
        self,
        lanes: np.ndarray,
        queries: Sequence[np.ndarray],
        prune_bounds: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        if not self._scalar_eligible:
            return super().advance(lanes, queries, prune_bounds=prune_bounds)
        tracer = self.tracer
        with tracer.span("backend.advance", backend="native", n_lanes=int(np.size(lanes))):
            lanes = np.asarray(lanes, dtype=np.intp)
            lane_queries = [np.asarray(query, dtype=np.int64) for query in queries]
            lengths = [int(query.size) for query in lane_queries]
            reference_length = int(self.reference_values.size)

            with tracer.span("backend.gather"):
                samples = self._state.samples_processed[lanes]
                rows64 = self._state.rows[lanes]
                runs64 = self._state.runs[lanes]

            # The scalar loop carries bonus * min(run, cap) through plain
            # integer arithmetic; int32 storage needs every intermediate to
            # stay far from the sentinel, exactly like _advance_batch_int32.
            bonus = int(self.config.match_bonus)
            cap = int(self.config.match_bonus_cap)
            value_bound = max(
                max((int(np.abs(query).max()) for query in lane_queries if query.size), default=0),
                int(np.abs(self.reference_values).max()),
            )
            rows_bound = int(np.abs(rows64).max()) if rows64.size else 0
            growth = (2 * value_bound + bonus + 1) * max(lengths, default=0)
            use_int32 = (
                cap * bonus < 2**28 and rows_bound + growth < 2**28
            )
            work_dtype = np.int32 if use_int32 else np.int64
            big = int(2**29 if use_int32 else 2**40)

            rows = np.ascontiguousarray(rows64, dtype=work_dtype)
            runs = np.ascontiguousarray(runs64, dtype=work_dtype)
            # runs enter the recurrence only through min(run, cap); cap the
            # stored counters up front so resumed int64 counters from another
            # backend's state cannot overflow the int32 working arrays.
            np.minimum(runs, cap if bonus else np.iinfo(work_dtype).max, out=runs)
            reference = np.ascontiguousarray(self.reference_values, dtype=work_dtype)
            offsets = np.zeros(len(lane_queries) + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            query_flat = np.empty(int(offsets[-1]), dtype=work_dtype)
            for index, query in enumerate(lane_queries):
                query_flat[offsets[index] : offsets[index + 1]] = query
            fresh = np.asarray(
                [lengths[i] > 0 and int(samples[i]) == 0 for i in range(len(lengths))],
                dtype=np.bool_,
            )
            if prune_bounds is None:
                kill = np.full(len(lane_queries), np.inf, dtype=np.float64)
            else:
                kill = np.asarray(prune_bounds, dtype=np.float64).ravel()
                if kill.shape[0] != len(lane_queries):
                    raise ValueError(
                        f"prune_bounds has {kill.shape[0]} entries "
                        f"but {len(lane_queries)} lanes were given"
                    )

            with tracer.span("backend.wavefront"):
                cells = int(
                    self._kernel()(
                        rows,
                        runs,
                        query_flat,
                        offsets,
                        reference,
                        bonus,
                        cap,
                        kill,
                        fresh,
                        self._block_lo,
                        self._block_hi,
                        big,
                    )
                )
            nominal = sum(lengths) * reference_length
            self.stats.add(cells, nominal - cells)

            with tracer.span("backend.scatter"):
                self._state.rows[lanes] = rows
                self._state.runs[lanes] = runs
                self._state.samples_processed[lanes] = samples + np.asarray(
                    lengths, dtype=np.int64
                )
            with tracer.span("backend.reduce"):
                return reduce_block_minima(
                    rows.astype(np.int64, copy=False), self.block_starts
                )
