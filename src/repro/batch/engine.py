"""The batched sDTW execution engine: lane management over the numpy backend.

:class:`BatchSDTWEngine` is the *lane manager* behind one reference squiggle:
reads are *admitted* to a free lane when their first chunk arrives, every
polling round advances all lanes that received signal with one wavefront, and
decided reads are *retired* so their lane is recycled. Lane storage grows by
doubling, so the engine serves any number of concurrent channels.

Where the lane-stacked DP state physically lives — and how the wavefront
executes — is delegated to a :class:`~repro.batch.backends.NumpyBackend`: it
keeps one in-process :class:`BatchSDTWState` and runs
:func:`~repro.core.sdtw.sdtw_resume_batch` on the calling thread, or splits
each round's lanes over ``workers`` kernel threads. Results are bit-identical
per lane, so admission, retirement, decisions and the occupancy trace never
depend on the thread count.

The engine also records a :class:`BatchRound` per busy ``step`` call — how
many lanes advanced and how many query samples they consumed, stamped with
the poll index so idle polls (rounds where no lane received signal) leave a
gap instead of a zero-lane entry that would deflate occupancy statistics.
That occupancy trace is exactly the request stream the accelerator's
multi-tile dispatch model wants:
:meth:`repro.hardware.scheduler.TileScheduler.simulate_batch_trace` replays
the dense trace and
:meth:`~repro.hardware.scheduler.TileScheduler.simulate_engine_rounds` the
sparse round records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.batch.backends import NumpyBackend
from repro.core.config import SDTWConfig
from repro.core.panel import TargetPanel
from repro.core.reference import ReferenceSquiggle
from repro.core.sdtw import SDTWState, lb_envelopes, lb_keogh_bounds
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = ["BatchRound", "BatchSDTWEngine", "LaneSnapshot"]


@dataclass(frozen=True, slots=True)
class BatchRound:
    """Occupancy record of one busy engine step.

    ``index`` is the poll the round happened on (idle polls are counted but
    not recorded, so indices may have gaps), ``n_lanes`` how many lanes the
    wavefront advanced and ``n_samples`` how many query samples they consumed.
    """

    index: int
    n_lanes: int
    n_samples: int


@dataclass(frozen=True)
class LaneSnapshot:
    """One lane's alignment progress after a step.

    ``cost``/``end_position`` describe the best-matching panel target
    (``target`` names it; ties go to the first target in panel order, the
    same tie-breaking ``np.argmin`` applies within a row). ``target_costs``
    and ``target_ends`` carry the full per-target breakdown, ordered like the
    panel — for a single-reference engine they are 1-tuples and ``cost`` is
    exactly the pre-panel behaviour.
    """

    key: Hashable
    cost: float
    end_position: int
    samples_processed: int
    target: Optional[str] = None
    target_costs: Tuple[float, ...] = ()
    target_ends: Tuple[int, ...] = ()

    @property
    def per_sample_cost(self) -> float:
        return self.cost / max(self.samples_processed, 1)


class BatchSDTWEngine:
    """Advance many concurrent sDTW alignments in lockstep.

    Parameters
    ----------
    reference:
        What to align against: a :class:`~repro.core.panel.TargetPanel`
        (N named targets advanced in one wavefront, per-target costs
        reduced every round), a :class:`~repro.core.reference.ReferenceSquiggle`
        (coerced to a 1-entry panel), or raw reference values on the
        kernel's scale — quantized integers for a quantized config,
        normalized floats otherwise
        (``ReferenceSquiggle.values(quantized=config.quantize)``).
    config:
        Kernel configuration; must use the resumable no-reference-deletion
        recurrence (the hardware recurrences).
    initial_capacity:
        Lanes preallocated up front; storage doubles on demand.
    backend:
        Execution backend: the name ``"numpy"`` or a prebuilt
        :class:`~repro.batch.backends.NumpyBackend`. The engine owns a
        backend it builds from the name (``close`` shuts it down) but only
        borrows a prebuilt one.
    backend_options:
        Extra keyword arguments for the :class:`NumpyBackend` the engine
        builds (e.g. ``{"workers": 4}`` kernel threads).
    tracer:
        Observability hook (:class:`repro.obs.Tracer`). Defaults to the
        shared disabled tracer, making every span a single ``if``; an
        enabled tracer records ``engine.step``/``engine.admit``/
        ``engine.grow`` spans and is handed to the backend so advance
        phases (scatter, wavefront, reduce, gather — and per-thread
        worker spans when ``workers`` splits the lanes) land on the same
        timeline.
        Tracing never changes what the engine computes.
    prune:
        Enable the lane gate: before each round is dispatched, a lane
        whose cached per-target costs already exceed its kill bound dies,
        and from then on skips the backend (early abandoning). Off by
        default — the brute-force advance is preserved bit for bit. The
        gate engages once :attr:`prune_bound` is set (the decision bound,
        e.g. the eject threshold): live lanes advance over every column,
        so costs at or below ``prune_bound + prune_margin`` stay
        bit-identical to brute force and decisions against the bound never
        change; a dead lane's costs stay above the bound.
    prune_margin:
        Extra slack added to :attr:`prune_bound` before deriving kill
        bounds; finite and non-negative. ``0.0`` prunes most aggressively
        while keeping decisions exact; a positive margin additionally
        keeps every reported cost within ``margin`` of the bound bit-exact
        (useful when callers inspect near-threshold costs, at the price of
        fewer pruned lanes).
    prune_lifetime_samples:
        Upper bound on the total query samples any lane will ever
        consume (e.g. the classifier's decision prefix). The match bonus
        lets future samples *lower* a cost, so with a bonus configured
        the kill bounds must budget the maximum remaining credit —
        required when ``prune`` is on and the config uses a bonus.
        Feeding a lane beyond this bound voids the exactness guarantee.
    lb_cascade:
        Tighten the lane gate with a lower bound (requires ``prune``): a
        lane's floor becomes its cached per-target costs plus the
        LB_Keogh-style cost its new chunk must add in each target
        (:func:`~repro.core.sdtw.lb_keogh_bounds`), so a lane can die
        before the round that would take it past its kill bound runs.
        The bound is conservative, so the same exactness contract as
        ``prune`` holds. Lanes it kills count as ``lanes_lb_skipped`` /
        ``cells_lb_skipped`` instead of ``cells_pruned``.
    """

    def __init__(
        self,
        reference: np.ndarray,
        config: Optional[SDTWConfig] = None,
        initial_capacity: int = 8,
        backend: Union[str, NumpyBackend] = "numpy",
        backend_options: Optional[Mapping[str, Any]] = None,
        tracer: Tracer = NULL_TRACER,
        prune: bool = False,
        prune_margin: float = 0.0,
        prune_lifetime_samples: Optional[int] = None,
        lb_cascade: bool = False,
    ) -> None:
        self.tracer = tracer
        self.config = config if config is not None else SDTWConfig()
        if self.config.allow_reference_deletions:
            raise ValueError(
                "BatchSDTWEngine requires allow_reference_deletions=False "
                "(only the hardware recurrences are resumable)"
            )
        if initial_capacity <= 0:
            raise ValueError("initial_capacity must be positive")
        if not (np.isfinite(prune_margin) and prune_margin >= 0):
            raise ValueError(
                f"prune_margin must be finite and non-negative, got {prune_margin}"
            )
        if prune_lifetime_samples is not None and prune_lifetime_samples <= 0:
            raise ValueError("prune_lifetime_samples must be positive")
        if prune and self.config.uses_bonus and prune_lifetime_samples is None:
            raise ValueError(
                "prune requires prune_lifetime_samples when the config uses a "
                "match bonus: the kill bounds must budget the maximum bonus "
                "credit the remaining samples could still earn"
            )
        if lb_cascade and not prune:
            raise ValueError(
                "lb_cascade requires prune=True: the lower bound tightens the "
                "prune gate's comparison against its kill bounds"
            )
        self.prune = bool(prune)
        self.prune_margin = float(prune_margin)
        self.lb_cascade = bool(lb_cascade)
        # What the gate skipped: the cells of skipped lanes count as pruned,
        # or with `lb_cascade` as LB-skipped lane-rounds and cells.
        self.cells_pruned = 0
        self.lanes_lb_skipped = 0
        self.cells_lb_skipped = 0
        self.prune_lifetime_samples = (
            None if prune_lifetime_samples is None else int(prune_lifetime_samples)
        )
        # The decision bound the gate protects (costs at or below it stay
        # exact). None defers the gate until a caller — typically the
        # classifier, once its threshold is calibrated — sets it; it may
        # move between rounds, and a dead lane stays dead regardless.
        self.prune_bound: Optional[float] = None
        dtype = np.int64 if self.config.quantize else np.float64
        if isinstance(reference, ReferenceSquiggle):
            reference = TargetPanel.single(reference)
        if isinstance(reference, TargetPanel):
            self.panel: Optional[TargetPanel] = reference
            self.reference_values = np.asarray(
                reference.values(quantized=self.config.quantize), dtype=dtype
            )
            self.target_names: Tuple[str, ...] = reference.names
            self._block_starts = reference.offsets
        else:
            self.panel = None
            self.reference_values = np.asarray(reference, dtype=dtype)
            self.target_names = ("target",)
            self._block_starts = None
        if self.reference_values.ndim != 1 or self.reference_values.size == 0:
            raise ValueError("reference must be a non-empty 1-D array")
        n_targets = len(self.target_names)
        if self.lb_cascade:
            self._lb_lows, self._lb_highs = lb_envelopes(
                self.reference_values, self._block_starts
            )
        if isinstance(backend, str):
            if backend.lower() != "numpy":
                raise ValueError(
                    f"unknown execution backend {backend!r}; available backends: numpy"
                )
            options = dict(backend_options or {})
            if self._block_starts is not None:
                options.setdefault("block_starts", self._block_starts)
            self._backend = NumpyBackend(
                self.reference_values, self.config, initial_capacity, **options
            )
            self._owns_backend = True
        else:
            if backend_options:
                raise ValueError("backend_options only apply when backend is a name")
            if backend.reference_length != self.reference_values.size:
                raise ValueError(
                    f"backend holds a {backend.reference_length}-sample reference "
                    f"but the engine was given {self.reference_values.size} samples"
                )
            if backend.n_blocks != n_targets:
                raise ValueError(
                    f"backend reduces {backend.n_blocks} panel blocks "
                    f"but the engine serves {n_targets} targets"
                )
            self._backend = backend
            self._owns_backend = False
        self._backend.tracer = tracer
        capacity = self._backend.capacity
        self._lane_of: Dict[Hashable, int] = {}
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        # Decision-relevant scalars cached lane-manager-side so snapshots and
        # progress queries never round-trip to the backend: `advance` returns
        # them every round and `reset` re-zeroes them. One column per panel
        # target; the best-target view is reduced on demand.
        self._costs = np.zeros((capacity, n_targets), dtype=np.float64)
        self._ends = np.zeros((capacity, n_targets), dtype=np.intp)
        self._samples = np.zeros(capacity, dtype=np.int64)
        # Lanes the gate killed: skipped every round until readmitted. Only
        # they hold stale backend state; every live lane's row is exact.
        self._dead = np.zeros(capacity, dtype=bool)
        self.rounds: List[BatchRound] = []
        self._n_polls = 0
        # Running totals over every busy round, so the occupancy gauges a
        # service reads every round cost O(1) however long the session runs,
        # and stay whole when a caller that never replays the trace empties
        # `rounds` to keep its memory flat.
        self._busy_rounds = 0
        self._lane_rounds = 0
        self._peak_lanes = 0

    # -------------------------------------------------------------- lane admin
    @property
    def backend(self) -> NumpyBackend:
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.backend_name

    @property
    def capacity(self) -> int:
        return self._backend.capacity

    @property
    def n_targets(self) -> int:
        """Panel targets this engine classifies against (1 for a plain reference)."""
        return len(self.target_names)

    @property
    def n_active(self) -> int:
        return len(self._lane_of)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._lane_of

    def active_keys(self) -> Tuple[Hashable, ...]:
        return tuple(self._lane_of)

    def _grow(self) -> None:
        old_capacity = self._backend.capacity
        with self.tracer.span("engine.grow", old_capacity=old_capacity):
            self._backend.allocate(old_capacity * 2)
        capacity = self._backend.capacity
        self._free.extend(range(capacity - 1, old_capacity - 1, -1))
        grown = np.zeros((capacity, self.n_targets), dtype=np.float64)
        grown[:old_capacity] = self._costs
        self._costs = grown
        grown_ends = np.zeros((capacity, self.n_targets), dtype=np.intp)
        grown_ends[:old_capacity] = self._ends
        self._ends = grown_ends
        grown_samples = np.zeros(capacity, dtype=np.int64)
        grown_samples[:old_capacity] = self._samples
        self._samples = grown_samples
        grown_dead = np.zeros(capacity, dtype=bool)
        grown_dead[:old_capacity] = self._dead
        self._dead = grown_dead

    def admit(self, key: Hashable) -> int:
        """Assign ``key`` a fresh lane; returns the lane index."""
        if key in self._lane_of:
            raise ValueError(f"read {key!r} already occupies a lane")
        with self.tracer.span("engine.admit"):
            if not self._free:
                self._grow()
            lane = self._free.pop()
            self._backend.reset(np.array([lane], dtype=np.intp))
            self._costs[lane] = 0.0
            self._ends[lane] = 0
            self._samples[lane] = 0
            self._dead[lane] = False
            self._lane_of[key] = lane
        return lane

    def retire(self, key: Hashable) -> None:
        """Release ``key``'s lane (no-op for unknown keys)."""
        lane = self._lane_of.pop(key, None)
        if lane is not None:
            self._free.append(lane)
            self.tracer.instant("engine.retire", lane=lane)

    def samples_processed(self, key: Hashable) -> int:
        """Query samples consumed so far by ``key``'s alignment."""
        return int(self._samples[self._lane_of[key]])

    def _lane_snapshot(self, key: Hashable, lane: int) -> LaneSnapshot:
        lane_costs = self._costs[lane]
        best = int(np.argmin(lane_costs))  # ties: first target in panel order
        # One float per target, shared by `cost`: a decision keeps both.
        target_costs = tuple(lane_costs.tolist())
        return LaneSnapshot(
            key=key,
            cost=target_costs[best],
            end_position=int(self._ends[lane, best]),
            samples_processed=int(self._samples[lane]),
            target=self.target_names[best],
            target_costs=target_costs,
            target_ends=tuple(self._ends[lane].tolist()),
        )

    def snapshot(self, key: Hashable) -> LaneSnapshot:
        """Current cost/end-position of one active lane (best panel target)."""
        return self._lane_snapshot(key, self._lane_of[key])

    def state_of(self, key: Hashable) -> SDTWState:
        """Scalar :class:`SDTWState` view of one lane (tests / interop)."""
        lane = self._lane_of[key]
        return self._backend.gather(np.array([lane], dtype=np.intp)).lane(0)

    # ---------------------------------------------------------------- pruning
    def _gate(
        self, lanes: np.ndarray, queries: Sequence[np.ndarray], lengths: np.ndarray
    ) -> Optional[np.ndarray]:
        """The lane gate: which of this round's lanes to dispatch.

        ``None`` (dispatch all) unless pruning is on and :attr:`prune_bound`
        is set. A lane may die only if no alignment continuing it can ever
        end at or below the decision bound ``prune_bound + prune_margin``.
        Over ``r`` remaining query samples a path earns at most
        ``bonus * (r + cap)`` of match-bonus credit (each diagonal harvests
        at most ``cap``; ``r`` steps fit at most ``r`` diagonals plus one
        pre-built run), so the kill bound is the decision bound plus that
        credit, with ``r`` the lane's remaining lifetime (at least this
        round's chunk). A lane's floor is its cached per-target costs, plus
        the chunk's :func:`~repro.core.sdtw.lb_keogh_bounds` with
        ``lb_cascade``: every sample adds at least its envelope gap, and
        block boundaries confine a path to one target. A lane with samples
        dies when its lowest floor exceeds its kill bound. Its cached costs
        are clamped up to the floor (they provably stay above the kill
        bound, so the reported value is faithful), its stored row stays
        frozen, and it is skipped every later round. A fresh lane's floor
        is its free-start row, exactly 0.
        """
        if not self.prune or self.prune_bound is None:
            return None
        config = self.config
        kill = float(self.prune_bound) + self.prune_margin
        if config.uses_bonus:
            remaining = np.maximum(self.prune_lifetime_samples - self._samples[lanes], lengths)
            kill = kill + float(config.match_bonus) * (remaining + float(config.match_bonus_cap))
        floors = self._costs[lanes]
        if self.lb_cascade:
            floors = floors + lb_keogh_bounds(queries, self._lb_lows, self._lb_highs, config)
        dead = self._dead[lanes]
        has_samples = lengths > 0
        dying = ~dead & has_samples & (floors.min(axis=1) > kill)
        if dying.any():
            dying_lanes = lanes[dying]
            self._costs[dying_lanes] = np.maximum(self._costs[dying_lanes], floors[dying])
            self._dead[dying_lanes] = True
            dead = dead | dying
        skipped = dead & has_samples
        cells = int(lengths[skipped].sum()) * int(self.reference_values.size)
        if self.lb_cascade:
            lanes_skipped = int(np.count_nonzero(skipped))
            self.lanes_lb_skipped += lanes_skipped
            self.cells_lb_skipped += cells
            if self.tracer.enabled:
                with self.tracer.span(
                    "backend.lb", lanes_skipped=lanes_skipped, cells_skipped=cells
                ):
                    pass
        else:
            self.cells_pruned += cells
        return ~dead

    @property
    def cells_advanced(self) -> int:
        """DP cells the backend actually swept (all rounds so far)."""
        return int(self._backend.stats.cells_advanced)

    # ------------------------------------------------------------------- step
    def step(
        self, items: Sequence[Tuple[Hashable, np.ndarray]]
    ) -> Dict[Hashable, LaneSnapshot]:
        """Advance every listed alignment with one batched wavefront.

        ``items`` pairs each read key with its new (kernel-scale) query
        samples for this round; lengths may be ragged. Unknown keys are
        admitted automatically. Returns the post-step snapshot per key.

        Every call counts as one poll; only polls that actually advance
        lanes append a :class:`BatchRound` (idle polls would otherwise
        deflate the occupancy statistics the dispatch models consume).
        """
        keys = [key for key, _ in items]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate read keys in one batch round")
        poll = self._n_polls
        self._n_polls += 1
        if not keys:
            return {}
        with self.tracer.span("engine.step", poll=poll, n_lanes=len(keys)):
            for key in keys:
                if key not in self._lane_of:
                    self.admit(key)
            lanes = np.fromiter(
                (self._lane_of[key] for key in keys), dtype=np.intp, count=len(keys)
            )
            queries = [np.asarray(query) for _, query in items]
            lengths = np.fromiter(
                (query.size for query in queries), dtype=np.int64, count=len(queries)
            )

            self.rounds.append(
                BatchRound(index=poll, n_lanes=len(keys), n_samples=int(lengths.sum()))
            )
            self._busy_rounds += 1
            self._lane_rounds += len(keys)
            self._peak_lanes = max(self._peak_lanes, len(keys))

            pruned_before = self.cells_pruned
            advanced_before = self.cells_advanced
            live = self._gate(lanes, queries, lengths)
            live_lanes, live_queries = lanes, queries
            if live is not None and not live.all():
                live_lanes = lanes[live]
                live_queries = [queries[int(index)] for index in np.flatnonzero(live)]
            if live_lanes.size:
                costs, ends = self._backend.advance(live_lanes, live_queries)
                self._costs[live_lanes] = costs
                self._ends[live_lanes] = ends
            if live is not None and self.tracer.enabled:
                with self.tracer.span(
                    "backend.prune",
                    cells_advanced=self.cells_advanced - advanced_before,
                    cells_pruned=self.cells_pruned - pruned_before,
                ):
                    pass
            # Skipped lanes still consume their samples logically: decision
            # timing (remaining-lifetime accounting, prefix trimming) must not
            # depend on whether the gate fired. Their backend-side state stays
            # frozen at the round that killed them.
            self._samples[lanes] += lengths

            return {
                key: self._lane_snapshot(key, int(lanes[index]))
                for index, key in enumerate(keys)
            }

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down a backend the engine created (borrowed backends survive)."""
        if self._owns_backend:
            self._backend.close()

    def __enter__(self) -> "BatchSDTWEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- occupancy
    @property
    def n_polls(self) -> int:
        """Total ``step`` calls, idle polls included."""
        return self._n_polls

    @property
    def busy_rounds(self) -> int:
        """Polls that listed at least one lane, also those whose records have
        left :attr:`rounds`."""
        return self._busy_rounds

    @property
    def occupancy_trace(self) -> List[int]:
        """Per-poll active-lane counts — the multi-tile dispatch request trace.

        Dense over every poll (idle polls contribute a zero), so index ``r``
        maps to time ``r * round_duration`` when the trace is replayed.
        Polls whose records were removed from :attr:`rounds` read zero.
        """
        trace = [0] * self._n_polls
        for entry in self.rounds:
            trace[entry.index] = entry.n_lanes
        return trace

    @property
    def peak_occupancy(self) -> int:
        """Most lanes any busy round advanced (0 before the first)."""
        return self._peak_lanes

    @property
    def mean_occupancy(self) -> float:
        """Mean lanes per *busy* round (idle polls excluded)."""
        if not self._busy_rounds:
            return 0.0
        return self._lane_rounds / self._busy_rounds
