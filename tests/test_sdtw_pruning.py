"""Tests for the pruned sDTW wavefront.

The pruning exactness contract under test, at every kernel-thread count:
with ``prune=True`` and a decision bound ``B = prune_bound + prune_margin``,

* accept/eject decisions (``cost <= prune_bound``) are bit-identical to the
  brute-force wavefront,
* every cost at or below ``B`` is bit-exact (value and end position),
* costs above ``B`` may be stale in either direction — frozen columns keep
  their last exact value, which can undercut the brute-force minimum — but
  can never falsely dip to or below ``B``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.sdtw as sdtw_module
from repro.batch.backends import NumpyBackend
from repro.batch.engine import BatchSDTWEngine
from repro.core.config import SDTWConfig
from repro.core.panel import TargetPanel
from repro.core.sdtw import (
    AdvanceStats,
    BatchSDTWState,
    reduce_block_minima,
    sdtw_resume,
    sdtw_resume_batch,
)
from repro.obs.trace import Tracer
from repro.runtime import RunConfig, open_session
from repro.sequencer.read_until_api import SignalChunk

# The numpy backend on one, two and three kernel threads.
PRUNE_BACKENDS = [
    ("numpy", None),
    ("numpy", {"workers": 2}),
    ("numpy", {"workers": 3}),
]
PRUNE_IDS = ["numpy", "2-workers", "3-workers"]

_PRUNE_REFERENCE = np.random.default_rng(20260807).integers(-127, 128, 60)

prune_settings = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

signal_values = st.integers(min_value=-127, max_value=127)
lane_query = st.lists(signal_values, min_size=1, max_size=24).map(lambda v: np.array(v))
lane_queries = st.lists(lane_query, min_size=1, max_size=4)


def _brute_schedule(schedules, reference, config):
    """Per-round brute-force states for every lane (the exactness oracle)."""
    states = [None] * len(schedules)
    per_round = []
    for round_index in range(len(schedules[0])):
        for lane, schedule in enumerate(schedules):
            chunk = schedule[round_index]
            if chunk.size:
                states[lane] = sdtw_resume(chunk, reference, config, state=states[lane])
        per_round.append(list(states))
    return per_round


def _pruned_engine(reference, config=None, backend="numpy", options=None, **kwargs):
    kwargs.setdefault("prune", True)
    return BatchSDTWEngine(
        reference, config, backend=backend, backend_options=options, **kwargs
    )


class TestPrunedBitIdentity:
    @prune_settings
    @given(queries=lane_queries, data=st.data())
    def test_pruned_matches_brute_on_every_backend(self, queries, data):
        """The acceptance property: across ragged chunk schedules on every
        registered backend, pruned decisions are bit-identical to brute force
        and every cost at or below ``threshold + margin`` is bit-exact."""
        n_rounds = data.draw(st.integers(min_value=1, max_value=3))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        schedules = []
        for query in queries:
            cuts = np.sort(rng.integers(0, query.size + 1, size=n_rounds - 1))
            bounds = [0, *cuts.tolist(), query.size]
            schedules.append([query[bounds[i] : bounds[i + 1]] for i in range(n_rounds)])

        config = SDTWConfig.hardware()
        brute_rounds = _brute_schedule(schedules, _PRUNE_REFERENCE, config)
        final_costs = sorted(
            state.cost for state in brute_rounds[-1] if state is not None
        )
        # A threshold somewhere inside the observed cost range makes both
        # decision outcomes and both sides of the exactness bound reachable.
        threshold = float(
            data.draw(st.sampled_from(final_costs)) + data.draw(st.integers(-5, 5))
        )
        margin = float(data.draw(st.sampled_from([0.0, 40.0])))
        bound = threshold + margin
        lifetime = max(sum(c.size for c in schedule) for schedule in schedules)

        engines = [
            _pruned_engine(
                _PRUNE_REFERENCE,
                config,
                backend=name,
                options=options,
                prune_margin=margin,
                prune_lifetime_samples=lifetime,
            )
            for name, options in PRUNE_BACKENDS
        ]
        try:
            for engine in engines:
                engine.prune_bound = threshold
            for round_index in range(n_rounds):
                items = [
                    (lane, schedules[lane][round_index])
                    for lane in range(len(queries))
                ]
                snaps = [engine.step(items) for engine in engines]
                for lane, brute in enumerate(brute_rounds[round_index]):
                    if brute is None:
                        continue
                    for name, snap in zip(PRUNE_BACKENDS, snaps):
                        got = snap[lane]
                        assert (got.cost <= threshold) == (
                            brute.cost <= threshold
                        ), (name, lane, round_index)
                        if brute.cost <= bound:
                            assert got.cost == brute.cost, (name, lane, round_index)
                            assert got.end_position == brute.end_position, (
                                name,
                                lane,
                                round_index,
                            )
                        else:
                            assert got.cost > bound, (name, lane, round_index)
        finally:
            for engine in engines:
                engine.close()

    @pytest.mark.parametrize("backend,options", PRUNE_BACKENDS, ids=PRUNE_IDS)
    def test_per_target_costs_exact_below_bound_on_panel(
        self, backend, options, kmer_model
    ):
        """With a multi-target panel, per-target costs obey the same contract
        target by target: exact at or below the bound, never falsely below."""
        rng = np.random.default_rng(20260808)
        from repro.genomes.sequences import random_genome

        panel = TargetPanel.from_genomes(
            {"a": random_genome(40, seed=5), "b": random_genome(55, seed=6)},
            kmer_model=kmer_model,
        )
        concatenated = panel.values(quantized=True)
        rounds, chunk = 3, 40
        total = rounds * chunk
        chunks_per_lane = []
        for lane in range(6):
            if lane < 2:  # on-target: a slice of the panel buffer plus noise
                start = int(rng.integers(0, max(1, concatenated.size - total)))
                base = np.tile(concatenated, total // concatenated.size + 2)[
                    start : start + total
                ]
                prefix = np.clip(base + rng.integers(-2, 3, total), -127, 127)
            else:
                prefix = rng.integers(-127, 128, total)
            chunks_per_lane.append(
                [prefix[r * chunk : (r + 1) * chunk] for r in range(rounds)]
            )

        config = SDTWConfig.hardware()
        with BatchSDTWEngine(panel, config) as brute_engine:
            for round_index in range(rounds):
                brute_snaps = brute_engine.step(
                    [(lane, chunks_per_lane[lane][round_index]) for lane in range(6)]
                )
        # Threshold midway between the on- and off-target lane costs: accepts
        # stay exact, ejected lanes blow through the kill bound and freeze.
        lane_costs = [brute_snaps[lane].cost for lane in range(6)]
        threshold = float((max(lane_costs[:2]) + min(lane_costs[2:])) / 2.0)
        assert max(lane_costs[:2]) < min(lane_costs[2:])
        bound = threshold  # margin 0: the decisions-only guarantee

        with _pruned_engine(
            panel,
            config,
            backend=backend,
            options=options,
            prune_lifetime_samples=total,
        ) as engine:
            engine.prune_bound = threshold
            for round_index in range(rounds):
                snaps = engine.step(
                    [(lane, chunks_per_lane[lane][round_index]) for lane in range(6)]
                )
        pruned_some = engine.cells_pruned > 0
        for lane in range(6):
            brute, got = brute_snaps[lane], snaps[lane]
            assert (got.cost <= threshold) == (brute.cost <= threshold), (backend, lane)
            for target in range(panel.n_targets):
                brute_cost = brute.target_costs[target]
                got_cost = got.target_costs[target]
                if brute_cost <= bound:
                    assert got_cost == brute_cost, (backend, lane, target)
                    assert got.target_ends[target] == brute.target_ends[target]
                else:
                    assert got_cost > bound, (backend, lane, target)
        assert pruned_some, f"{backend}: the pruning layer never engaged"

    def test_prune_off_is_bit_identical_brute_force(self, rng):
        """The default path: prune=False engines advance every cell and the
        counters say so."""
        reference = rng.integers(-127, 128, 50)
        config = SDTWConfig.hardware()
        query = rng.integers(-127, 128, 40)
        with BatchSDTWEngine(reference, config) as engine:
            snap = engine.step([(0, query)])[0]
            expected = sdtw_resume(query, reference, config)
            assert snap.cost == expected.cost
            assert np.array_equal(engine.state_of(0).row, expected.row)
        assert engine.cells_pruned == 0
        assert engine.cells_advanced == 40 * 50

    def test_pruned_engine_without_bound_runs_brute_force(self, rng):
        """prune=True but no prune_bound stamped yet (calibration pending):
        every cell advances and results are exact."""
        reference = rng.integers(-127, 128, 50)
        config = SDTWConfig.hardware()
        query = rng.integers(-127, 128, 40)
        with _pruned_engine(
            reference, config, prune_lifetime_samples=40
        ) as engine:
            snap = engine.step([(0, query)])[0]
        expected = sdtw_resume(query, reference, config)
        assert snap.cost == expected.cost
        assert engine.cells_pruned == 0
        assert engine.cells_advanced == 40 * 50


class TestPruneCounters:
    def _workload(self, rng, reference, n_lanes=8, rounds=3, chunk=40):
        chunks = []
        for lane in range(n_lanes):
            if lane == 0:  # one on-target lane stays alive throughout
                prefix = np.clip(
                    np.tile(reference, rounds * chunk // reference.size + 2)[
                        : rounds * chunk
                    ]
                    + rng.integers(-2, 3, rounds * chunk),
                    -127,
                    127,
                )
            else:
                prefix = rng.integers(-127, 128, rounds * chunk)
            chunks.append([prefix[r * chunk : (r + 1) * chunk] for r in range(rounds)])
        return chunks

    def test_cells_pruned_grows_as_margin_tightens(self, rng):
        """Monotonicity: a tighter (smaller) prune_margin can only prune more
        cells, and advanced + pruned always accounts for every nominal cell."""
        reference = rng.integers(-127, 128, 60)
        config = SDTWConfig.hardware()
        rounds, chunk, n_lanes = 3, 40, 8
        chunks = self._workload(rng, reference, n_lanes, rounds, chunk)
        nominal = n_lanes * rounds * chunk * reference.size

        pruned_by_margin = []
        for margin in (0.0, 500.0, 2000.0, 8000.0):
            with _pruned_engine(
                reference,
                config,
                prune_margin=margin,
                prune_lifetime_samples=rounds * chunk,
            ) as engine:
                engine.prune_bound = 0.0
                for round_index in range(rounds):
                    engine.step(
                        [(lane, chunks[lane][round_index]) for lane in range(n_lanes)]
                    )
                assert engine.cells_advanced + engine.cells_pruned == nominal
                pruned_by_margin.append(engine.cells_pruned)
        assert pruned_by_margin[0] > 0
        for tighter, looser in zip(pruned_by_margin, pruned_by_margin[1:]):
            assert tighter >= looser, pruned_by_margin

    def test_backend_prune_span_and_session_summary_counters(
        self, reference_squiggle, target_signals
    ):
        """Satellite contract: the engine emits a ``backend.prune`` span with
        the per-round deltas, and ``session.summary()`` reports the totals."""
        rng = np.random.default_rng(20260809)
        config = RunConfig(
            reference=reference_squiggle,
            threshold=-1e6,  # far below any cost: everything ejects, and the
            # kill bounds sit so low that round two+ is fully pruned
            prefix_samples=800,
            chunk_samples=400,
            n_channels=4,
            trace=True,
            prune=True,
        )
        with open_session(config) as session:
            for lane in range(4):
                signal = rng.normal(90.0, 12.0, size=800)
                for round_index in range(2):
                    session.submit(
                        [
                            SignalChunk(
                                channel=lane,
                                read_id=f"r{lane}",
                                read_number=lane,
                                chunk_start_sample=round_index * 400,
                                signal_pa=signal[
                                    round_index * 400 : (round_index + 1) * 400
                                ],
                                is_last=round_index == 1,
                            )
                        ]
                    )
            summary = session.summary()
        assert summary["cells_advanced"] > 0
        assert summary["cells_pruned"] > 0
        assert "backend.prune" in summary["phase_totals"]

    def test_engine_validation(self, rng):
        reference = rng.integers(-127, 128, 30)
        with pytest.raises(ValueError, match="prune_margin"):
            BatchSDTWEngine(reference, prune=True, prune_margin=-1.0)
        with pytest.raises(ValueError, match="prune_lifetime_samples"):
            BatchSDTWEngine(reference, prune=True, prune_lifetime_samples=0)
        # The hardware config uses a match bonus, so the bonus-credit kill
        # bound needs a lifetime to be sound.
        with pytest.raises(ValueError, match="prune_lifetime_samples"):
            BatchSDTWEngine(reference, SDTWConfig.hardware(), prune=True)
        # A bonus-free config needs no lifetime: the bound is the threshold.
        BatchSDTWEngine(
            reference,
            SDTWConfig(
                distance="absolute",
                allow_reference_deletions=False,
                quantize=True,
                match_bonus=0.0,
            ),
            prune=True,
        ).close()

    def test_backend_prune_span_carries_round_deltas(self, rng):
        reference = rng.integers(-127, 128, 40)
        tracer = Tracer(track="test")
        with _pruned_engine(
            reference,
            SDTWConfig.hardware(),
            prune_lifetime_samples=60,
            tracer=tracer,
        ) as engine:
            engine.prune_bound = -1e6
            for round_index in range(3):
                engine.step([(0, rng.integers(-127, 128, 20))])
        spans = [record for record in tracer.records() if record.name == "backend.prune"]
        assert len(spans) == 3
        assert sum(span.args["cells_pruned"] for span in spans) == engine.cells_pruned
        assert (
            sum(span.args["cells_advanced"] for span in spans) == engine.cells_advanced
        )


# ------------------------------------------------------------ pruned shortcut
_SHORTCUT_STARTS = np.array([0, 60])
_SHORTCUT_COLUMNS = 130


def _shortcut_round(kind, rng):
    """Stored state, chunks and kill bounds of one pruned round of ``kind``.

    Four lanes, and each half of them (the two groups of a two-thread
    split) has the round's kind. Stored costs are 6,000 and more against
    kill bounds of 5,000, so a column is live only where it is set lower:

    * ``fresh``: lanes 0 and 2 restart over stale rows the range guard
      would refuse, lane 1 is live in the middle of each block, lane 3 dead;
    * ``covered``: no lane restarts, every block's first and last column is
      live in some lane of each half (lane 0 at the first, lane 1 at the
      last, lane 2 at both), and lane 3 is dead;
    * ``partial``: lanes 0-2 are live only in the middle of each block, and
      lane 3 is dead.
    """
    config = SDTWConfig.hardware()
    rows = rng.integers(6_000, 9_000, (4, _SHORTCUT_COLUMNS))
    runs = rng.integers(0, config.match_bonus_cap + 1, rows.shape)
    processed = np.full(4, 50)
    lasts = np.append(_SHORTCUT_STARTS[1:], _SHORTCUT_COLUMNS) - 1
    middles = np.r_[20:30, 80:90]
    if kind == "fresh":
        processed[[0, 2]] = 0
        rows[[0, 2]] = 2**28 - 1
        rows[1, middles] = rng.integers(0, 4_000, middles.size)
    elif kind == "covered":
        rows[np.ix_([0, 2], _SHORTCUT_STARTS)] = 100
        rows[np.ix_([1, 2], lasts)] = 200
        rows[np.ix_([0, 1, 2], middles)] = rng.integers(0, 4_000, (3, middles.size))
    else:
        rows[np.ix_([0, 1, 2], middles)] = rng.integers(0, 4_000, (3, middles.size))
    chunks = [rng.integers(-127, 128, n) for n in (7, 12, 5, 9)]
    state = BatchSDTWState(rows, runs, processed)
    return config, state, chunks, np.full(4, 5_000.0)


class TestPrunedShortcut:
    @pytest.mark.parametrize("workers", [None, 2], ids=["1-thread", "2-workers"])
    @pytest.mark.parametrize("kind", ["fresh", "covered", "partial"])
    def test_single_call_matches_the_span_driver(self, kind, workers, rng, monkeypatch):
        """A pruned round whose spans would cover every column runs as one
        in-place kernel call over the surviving lanes; rows, runs, costs,
        ends and cell counts equal the span driver's, which builds the
        union live mask. Other rounds run the span driver."""
        config, state, chunks, bounds = _shortcut_round(kind, rng)
        reference = rng.integers(-127, 128, _SHORTCUT_COLUMNS)
        cap = config.match_bonus_cap
        groups = [slice(0, 4)] if workers is None else [slice(0, 2), slice(2, 4)]

        expected_stats = AdvanceStats()
        expected_rows, expected_runs = [], []
        for group in groups:
            advanced = sdtw_resume_batch(
                chunks[group], reference, config,
                state=BatchSDTWState(
                    state.rows[group], state.runs[group], state.samples_processed[group]
                ),
                block_starts=_SHORTCUT_STARTS, prune_bounds=bounds[group],
                stats=expected_stats,
            )
            expected_rows.append(advanced.rows)
            expected_runs.append(advanced.runs)
        expected_rows = np.concatenate(expected_rows)
        expected_runs = np.concatenate(expected_runs)

        span_driver_calls = []
        span_driver = sdtw_module._resume_batch_pruned
        monkeypatch.setattr(
            sdtw_module, "_resume_batch_pruned",
            lambda *args: span_driver_calls.append(1) or span_driver(*args),
        )
        lanes = np.arange(4)
        backend = NumpyBackend(
            reference, config, capacity=4, block_starts=_SHORTCUT_STARTS, workers=workers
        )
        try:
            backend.scatter(
                lanes,
                BatchSDTWState(
                    state.rows.astype(np.int32), state.runs.astype(np.int32),
                    state.samples_processed,
                ),
            )
            costs, ends = backend.advance(lanes, chunks, prune_bounds=bounds)
            gathered = backend.gather(lanes)
        finally:
            backend.close()

        assert bool(span_driver_calls) == (kind == "partial")
        assert backend.stats.generic_calls == 0
        assert np.array_equal(gathered.rows, expected_rows)
        assert np.array_equal(np.minimum(gathered.runs, cap), np.minimum(expected_runs, cap))
        assert np.array_equal(
            gathered.samples_processed, state.samples_processed + [c.size for c in chunks]
        )
        expected_costs, expected_ends = reduce_block_minima(expected_rows, _SHORTCUT_STARTS)
        assert np.array_equal(costs, expected_costs)
        assert np.array_equal(ends, expected_ends)
        assert (backend.stats.cells_advanced, backend.stats.cells_pruned) == (
            expected_stats.cells_advanced, expected_stats.cells_pruned
        )
        assert backend.stats.cells_pruned > 0
