"""Tests for the lower-bound lane gate (``lb_cascade``).

The gate contract under test, at every kernel-thread count: with
``prune=True`` and ``lb_cascade=True``, lanes whose cheapest admissible cost
provably exceeds their kill bound skip the backend dispatch entirely, and

* accept/eject decisions (``cost <= prune_bound``) stay bit-identical to the
  brute-force wavefront,
* every cost at or below ``prune_bound + prune_margin`` stays bit-exact,
* costs above the bound may be clamped up to the violated lower bound —
  faithful, since the true cost provably exceeds the bound forever — but can
  never falsely dip to or below it.

The cascade's admissibility is tested directly against the recurrence
(bonus-free configs, where each query sample must add at least its envelope
gap).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.batch.engine import BatchSDTWEngine
from repro.core.config import SDTWConfig
from repro.core.panel import TargetPanel
from repro.core.sdtw import (
    lb_envelopes,
    lb_keogh_bounds,
    lb_kim_bound,
    sdtw_resume,
)
from repro.obs.trace import Tracer
from repro.runtime import RunConfig, open_session
from repro.sequencer.read_until_api import SignalChunk

from test_sdtw_pruning import (
    _PRUNE_REFERENCE,
    PRUNE_BACKENDS,
    _brute_schedule,
    lane_queries,
    prune_settings,
)

BONUS_FREE_CONFIGS = [
    SDTWConfig(
        distance="absolute",
        allow_reference_deletions=False,
        quantize=True,
        match_bonus=0.0,
    ),
    SDTWConfig(
        distance="squared",
        allow_reference_deletions=False,
        quantize=False,
        match_bonus=0.0,
    ),
]


def _gated_engine(reference, config=None, backend="numpy", options=None, **kwargs):
    kwargs.setdefault("prune", True)
    kwargs.setdefault("lb_cascade", True)
    return BatchSDTWEngine(
        reference, config, backend=backend, backend_options=options, **kwargs
    )


class TestLowerBoundAdmissibility:
    @pytest.mark.parametrize("config", BONUS_FREE_CONFIGS)
    def test_bounds_never_exceed_true_added_cost(self, config, rng):
        """Without a match bonus every query sample adds at least its envelope
        gap, so processing a chunk can never grow the row minimum by less
        than LB_Kim or LB_Keogh — fresh and resumed lanes alike."""
        if config.quantize:
            reference = rng.integers(-127, 128, 60)
            draw = lambda n: rng.integers(-127, 128, n)
        else:
            reference = rng.normal(90.0, 12.0, 60)
            draw = lambda n: rng.normal(90.0, 25.0, n)
        lows, highs = lb_envelopes(reference)
        assert lows.shape == highs.shape == (1,)
        for warm_size in (0, 5, 30):
            for chunk_size in (1, 2, 17):
                state = (
                    sdtw_resume(draw(warm_size), reference, config)
                    if warm_size
                    else None
                )
                before = 0.0 if state is None else float(np.min(state.row))
                chunk = draw(chunk_size)
                after = float(
                    np.min(sdtw_resume(chunk, reference, config, state=state).row)
                )
                kim = lb_kim_bound(chunk, float(lows[0]), float(highs[0]), config)
                keogh = lb_keogh_bounds(chunk, lows, highs, config)
                assert kim >= 0.0 and keogh[0] >= 0.0
                assert before + kim <= after + 1e-9, (warm_size, chunk_size)
                assert before + keogh[0] <= after + 1e-9, (warm_size, chunk_size)
                # The cascade tightens rung by rung: per-block envelopes are
                # never wider than the global extrema, and every sample counts.
                assert keogh[0] >= kim

    def test_per_block_envelopes_match_per_target_slices(self, rng):
        values = rng.integers(-127, 128, 90)
        starts = np.array([0, 40, 65])
        lows, highs = lb_envelopes(values, starts)
        bounds = list(zip(starts.tolist(), [*starts.tolist()[1:], values.size]))
        for block, (lo, hi) in enumerate(bounds):
            assert lows[block] == values[lo:hi].min()
            assert highs[block] == values[lo:hi].max()

    def test_empty_chunk_bounds_are_zero(self):
        config = SDTWConfig.hardware()
        empty = np.array([], dtype=np.int64)
        assert lb_kim_bound(empty, -10.0, 10.0, config) == 0.0
        assert np.array_equal(
            lb_keogh_bounds(empty, np.array([-10.0]), np.array([10.0]), config),
            np.zeros(1),
        )


class TestGatedBitIdentity:
    @prune_settings
    @given(queries=lane_queries, data=st.data())
    def test_gated_matches_brute_on_every_backend(self, queries, data):
        """The acceptance property: with the lane gate on, decisions across
        ragged chunk schedules on every registered backend are bit-identical
        to brute force and every cost at or below ``threshold + margin`` is
        bit-exact."""
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
        threshold = float(
            data.draw(st.sampled_from(final_costs)) + data.draw(st.integers(-5, 5))
        )
        margin = float(data.draw(st.sampled_from([0.0, 40.0])))
        bound = threshold + margin
        lifetime = max(sum(c.size for c in schedule) for schedule in schedules)

        engines = [
            _gated_engine(
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

    @pytest.mark.parametrize("backend,options", PRUNE_BACKENDS)
    def test_gated_per_target_costs_on_panel(self, backend, options, kmer_model):
        """Multi-target panels: the gate consults cached per-target minima and
        per-block envelopes, and the per-target cost contract holds while
        off-target lanes are skipped outright."""
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
        lane_costs = [brute_snaps[lane].cost for lane in range(6)]
        threshold = float((max(lane_costs[:2]) + min(lane_costs[2:])) / 2.0)
        assert max(lane_costs[:2]) < min(lane_costs[2:])
        bound = threshold  # margin 0: the decisions-only guarantee

        with _gated_engine(
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
        assert engine.lanes_lb_skipped > 0, f"{backend}: the lane gate never fired"

    def test_dead_threshold_skips_every_dispatch(self, rng):
        """With a bound no alignment can reach, the gate kills every lane in
        round one and stale-dead lanes stay skipped: the backend never runs,
        yet reported costs stay faithfully above the bound."""
        reference = rng.integers(-127, 128, 50)
        rounds, chunk, n_lanes = 3, 20, 4
        threshold = -1e6
        with _gated_engine(
            reference,
            SDTWConfig.hardware(),
            prune_lifetime_samples=rounds * chunk,
        ) as engine:
            engine.prune_bound = threshold
            for round_index in range(rounds):
                snaps = engine.step(
                    [
                        (lane, rng.integers(-127, 128, chunk))
                        for lane in range(n_lanes)
                    ]
                )
        assert engine.cells_advanced == 0
        assert engine.lanes_lb_skipped == n_lanes * rounds
        assert engine.cells_lb_skipped == n_lanes * rounds * chunk * reference.size
        for lane in range(n_lanes):
            assert snaps[lane].cost > threshold


class TestGateCounters:
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

    def test_skips_shrink_as_margin_loosens_and_cells_account(self, rng):
        """Monotonicity: a looser (larger) prune_margin can only skip fewer
        lanes, and advanced + pruned + lb_skipped always accounts for every
        nominal cell."""
        reference = rng.integers(-127, 128, 60)
        config = SDTWConfig.hardware()
        rounds, chunk, n_lanes = 3, 40, 8
        chunks = self._workload(rng, reference, n_lanes, rounds, chunk)
        nominal = n_lanes * rounds * chunk * reference.size

        skipped_by_margin = []
        for margin in (0.0, 500.0, 2000.0, 8000.0):
            with _gated_engine(
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
                assert (
                    engine.cells_advanced
                    + engine.cells_pruned
                    + engine.cells_lb_skipped
                    == nominal
                )
                skipped_by_margin.append(engine.lanes_lb_skipped)
        assert skipped_by_margin[0] > 0
        for tighter, looser in zip(skipped_by_margin, skipped_by_margin[1:]):
            assert tighter >= looser, skipped_by_margin

    def test_backend_lb_span_carries_round_deltas(self, rng):
        reference = rng.integers(-127, 128, 40)
        tracer = Tracer(track="test")
        with _gated_engine(
            reference,
            SDTWConfig.hardware(),
            prune_lifetime_samples=60,
            tracer=tracer,
        ) as engine:
            engine.prune_bound = -1e6
            for round_index in range(3):
                engine.step([(0, rng.integers(-127, 128, 20))])
        spans = [record for record in tracer.records() if record.name == "backend.lb"]
        assert len(spans) == 3
        assert sum(span.args["lanes_skipped"] for span in spans) == engine.lanes_lb_skipped
        assert sum(span.args["cells_skipped"] for span in spans) == engine.cells_lb_skipped

    def test_session_summary_reports_gate_counters(self, reference_squiggle):
        """Satellite contract: ``session.summary()`` carries the gate totals
        and the flight recorder sees the ``backend.lb`` span."""
        rng = np.random.default_rng(20260809)
        config = RunConfig(
            reference=reference_squiggle,
            threshold=-1e6,  # far below any cost: the gate kills every lane
            prefix_samples=800,
            chunk_samples=400,
            n_channels=4,
            trace=True,
            prune=True,
            lb_cascade=True,
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
        assert summary["lanes_lb_skipped"] > 0
        assert summary["cells_lb_skipped"] > 0
        assert "backend.lb" in summary["phase_totals"]


class TestValidation:
    def test_engine_validation(self, rng):
        reference = rng.integers(-127, 128, 30)
        config = BONUS_FREE_CONFIGS[0]
        with pytest.raises(ValueError, match="lb_cascade"):
            BatchSDTWEngine(reference, config, lb_cascade=True)

    def test_run_config_validation_and_round_trip(self):
        genome = "ACGT" * 30
        with pytest.raises(ValueError, match="lb_cascade"):
            RunConfig(genome=genome, lb_cascade=True)
        config = RunConfig(genome=genome, prune=True, lb_cascade=True)
        restored = RunConfig.from_dict(config.to_dict())
        assert restored.lb_cascade is True
