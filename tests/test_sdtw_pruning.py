"""Tests for the engine's lane gate (``prune``, tightened by ``lb_cascade``).

The exactness contract under test, at every kernel-thread count: with
``prune=True`` (optionally with ``lb_cascade=True``) and a decision bound
``B = prune_bound + prune_margin``,

* accept/eject decisions (``cost <= prune_bound``) are bit-identical to the
  brute-force wavefront,
* every cost at or below ``B`` is bit-exact (value and end position),
* a lane the gate kills keeps its cached costs, clamped up to its floor
  (its costs plus the chunk's lower bound with ``lb_cascade``): stale in
  either direction against brute force, since its row stays frozen, but
  never falsely at or below ``B``.

Live lanes advance over every column, so their costs are exact. The lower
bound's admissibility is tested directly against the recurrence (bonus-free
configs, where each query sample must add at least its envelope gap).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch.engine import BatchSDTWEngine
from repro.core.config import SDTWConfig
from repro.core.panel import TargetPanel
from repro.core.sdtw import lb_envelopes, lb_keogh_bounds, sdtw_resume
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
# The gate on cached costs alone, and tightened by the LB_Keogh bound.
GATES = pytest.mark.parametrize("lb_cascade", [False, True], ids=["prune", "lb"])

_PRUNE_REFERENCE = np.random.default_rng(20260807).integers(-127, 128, 60)

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


def _skips(engine, lb_cascade):
    """What the gate skipped: pruned cells, or LB-skipped lanes with the LB."""
    return engine.lanes_lb_skipped if lb_cascade else engine.cells_pruned


class TestLowerBound:
    @pytest.mark.parametrize("config", BONUS_FREE_CONFIGS)
    def test_bounds_never_exceed_true_added_cost(self, config, rng):
        """Without a match bonus every query sample adds at least its envelope
        gap, so processing a chunk can never grow the row minimum by less
        than LB_Keogh — fresh and resumed lanes alike."""
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
                keogh = lb_keogh_bounds([chunk], lows, highs, config)
                assert keogh.shape == (1, 1)
                assert keogh[0, 0] >= 0.0
                assert before + keogh[0, 0] <= after + 1e-9, (warm_size, chunk_size)

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
        lows, highs = np.array([-10.0]), np.array([10.0])
        assert np.array_equal(lb_keogh_bounds([empty], lows, highs, config), np.zeros((1, 1)))
        assert lb_keogh_bounds([], lows, highs, config).shape == (0, 1)

    @pytest.mark.parametrize("config", BONUS_FREE_CONFIGS, ids=["absolute", "squared"])
    def test_round_bounds_equal_a_per_lane_loop(self, config, rng):
        """One pass over a ragged round (an empty lane, a one-sample lane,
        longer lanes) against a three-block panel gives, lane by lane and
        block by block, the sum of each sample's envelope gap."""
        values = rng.integers(-60, 61, 90)
        lows, highs = lb_envelopes(values, np.array([0, 40, 65]))
        queries = [rng.integers(-127, 128, n) for n in (5, 0, 1, 12, 0, 3)]
        bounds = lb_keogh_bounds(queries, lows, highs, config)
        assert bounds.shape == (len(queries), 3)
        for lane, query in enumerate(queries):
            for block in range(3):
                expected = 0.0
                for value in query.tolist():
                    gap = max(0.0, value - highs[block], lows[block] - value)
                    expected += gap * gap if config.distance == "squared" else gap
                assert bounds[lane, block] == expected, (lane, block)


class TestPrunedBitIdentity:
    @GATES
    @prune_settings
    @given(queries=lane_queries, data=st.data())
    def test_pruned_matches_brute_on_every_backend(self, lb_cascade, queries, data):
        """The acceptance property: across ragged chunk schedules at every
        thread count, gated decisions are bit-identical to brute force and
        every cost at or below ``threshold + margin`` is bit-exact."""
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
                lb_cascade=lb_cascade,
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
    @GATES
    def test_panel_per_target_costs(self, lb_cascade, backend, options, kmer_model):
        """With a multi-target panel, per-target costs obey the same contract
        target by target: exact at or below the bound, never falsely below,
        while off-target lanes are skipped outright."""
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
        # stay exact, ejected lanes blow through the kill bound and die.
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
            lb_cascade=lb_cascade,
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
        assert _skips(engine, lb_cascade) > 0, f"{backend}: the lane gate never fired"

    def test_dead_threshold_skips_every_dispatch(self, rng):
        """With a bound no alignment can reach, the gate kills every lane in
        round one and dead lanes stay skipped: the backend never runs, yet
        reported costs stay faithfully above the bound."""
        reference = rng.integers(-127, 128, 50)
        rounds, chunk, n_lanes = 3, 20, 4
        threshold = -1e6
        with _pruned_engine(
            reference,
            SDTWConfig.hardware(),
            prune_lifetime_samples=rounds * chunk,
            lb_cascade=True,
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

    @pytest.mark.parametrize("threshold", [-1.0, 0.0])
    def test_fresh_lane_floor_is_zero(self, threshold, rng):
        """A fresh lane's floor is its free-start row, exactly 0: with prune
        alone, a kill bound below 0 skips it on arrival, and it is ejected;
        a kill bound of 0 lets it advance exactly."""
        config = BONUS_FREE_CONFIGS[0]  # no bonus: the kill bound is the threshold
        reference = rng.integers(-127, 128, 50)
        query = rng.integers(-127, 128, 30)
        with _pruned_engine(reference, config) as engine:
            engine.prune_bound = threshold
            snap = engine.step([(0, query)])[0]
        if threshold < 0:
            assert snap.cost > threshold  # ejected
            assert engine.cells_advanced == 0
            assert engine.cells_pruned == query.size * reference.size
        else:
            assert snap.cost == sdtw_resume(query, reference, config).cost
            assert engine.cells_advanced == query.size * reference.size
            assert engine.cells_pruned == 0

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

    @GATES
    def test_margin_monotone_and_cells_account(self, lb_cascade, rng):
        """Monotonicity: a tighter (smaller) prune_margin can only skip more,
        and advanced + pruned + lb_skipped always accounts for every nominal
        cell."""
        reference = rng.integers(-127, 128, 60)
        config = SDTWConfig.hardware()
        rounds, chunk, n_lanes = 3, 40, 8
        chunks = self._workload(rng, reference, n_lanes, rounds, chunk)
        nominal = n_lanes * rounds * chunk * reference.size

        skipped_by_margin = []
        for margin in (0.0, 500.0, 2000.0, 8000.0):
            with _pruned_engine(
                reference,
                config,
                prune_margin=margin,
                prune_lifetime_samples=rounds * chunk,
                lb_cascade=lb_cascade,
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
                if not lb_cascade:
                    assert engine.cells_lb_skipped == 0
                skipped_by_margin.append(_skips(engine, lb_cascade))
        assert skipped_by_margin[0] > 0
        for tighter, looser in zip(skipped_by_margin, skipped_by_margin[1:]):
            assert tighter >= looser, skipped_by_margin

    @GATES
    def test_gate_spans_carry_round_deltas(self, lb_cascade, rng):
        """Every gated round emits a ``backend.prune`` span (and, with the
        LB, a ``backend.lb`` span) whose args sum to the engine's totals."""
        reference = rng.integers(-127, 128, 40)
        tracer = Tracer(track="test")
        with _pruned_engine(
            reference,
            SDTWConfig.hardware(),
            prune_lifetime_samples=60,
            tracer=tracer,
            lb_cascade=lb_cascade,
        ) as engine:
            engine.prune_bound = -1e6
            for round_index in range(3):
                engine.step([(0, rng.integers(-127, 128, 20))])
        records = tracer.records()
        spans = [record for record in records if record.name == "backend.prune"]
        assert len(spans) == 3
        assert sum(span.args["cells_pruned"] for span in spans) == engine.cells_pruned
        assert (
            sum(span.args["cells_advanced"] for span in spans) == engine.cells_advanced
        )
        spans = [record for record in records if record.name == "backend.lb"]
        assert len(spans) == (3 if lb_cascade else 0)
        assert sum(span.args["lanes_skipped"] for span in spans) == engine.lanes_lb_skipped
        assert sum(span.args["cells_skipped"] for span in spans) == engine.cells_lb_skipped

    @GATES
    def test_session_summary_counters(self, lb_cascade, reference_squiggle):
        """``session.summary()`` reports the gate's totals with exact
        accounting, and the flight recorder sees its spans: under a dead
        threshold every fresh lane dies on arrival, so every nominal cell is
        skipped; under a live one every cell advances."""
        for threshold in (-1e6, 1e9):
            rng = np.random.default_rng(20260809)
            config = RunConfig(
                reference=reference_squiggle,
                threshold=threshold,
                prefix_samples=800,
                chunk_samples=400,
                n_channels=4,
                trace=True,
                prune=True,
                lb_cascade=lb_cascade,
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
                engine = session.engine
                nominal = sum(entry.n_samples for entry in engine.rounds) * int(
                    engine.reference_values.size
                )
                summary = session.summary()
            assert nominal > 0
            skipped = summary["cells_lb_skipped" if lb_cascade else "cells_pruned"]
            if threshold < 0:
                assert summary["cells_advanced"] == 0
                assert skipped == nominal
                if lb_cascade:
                    assert summary["lanes_lb_skipped"] > 0
                    assert summary["cells_lb_skipped"] > 0
                else:
                    assert summary["cells_pruned"] > 0
            else:
                assert summary["cells_advanced"] == nominal
                assert skipped == 0
            assert "backend.prune" in summary["phase_totals"]
            if lb_cascade:
                assert "backend.lb" in summary["phase_totals"]

    def test_engine_validation(self, rng):
        reference = rng.integers(-127, 128, 30)
        for margin in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="prune_margin"):
                BatchSDTWEngine(reference, prune=True, prune_margin=margin)
        with pytest.raises(ValueError, match="prune_lifetime_samples"):
            BatchSDTWEngine(reference, prune=True, prune_lifetime_samples=0)
        # The hardware config uses a match bonus, so the bonus-credit kill
        # bound needs a lifetime to be sound.
        with pytest.raises(ValueError, match="prune_lifetime_samples"):
            BatchSDTWEngine(reference, SDTWConfig.hardware(), prune=True)
        # A bonus-free config needs no lifetime: the bound is the threshold.
        BatchSDTWEngine(reference, BONUS_FREE_CONFIGS[0], prune=True).close()


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

    def test_nan_threshold_and_non_finite_margin_are_refused(self):
        """Either would become a confident decision: every read ejected
        against a NaN threshold, and a NaN kill bound freezing every lane."""
        genome = "ACGT" * 30
        for threshold in (float("nan"), "5"):
            with pytest.raises(ValueError, match="^threshold"):
                RunConfig(genome=genome, threshold=threshold)
        for margin in (float("nan"), float("inf"), -1.0, "1"):
            with pytest.raises(ValueError, match="^prune_margin"):
                RunConfig(genome=genome, prune=True, prune_margin=margin)
        # An infinite threshold stays legal: it accepts every read.
        assert RunConfig(genome=genome, threshold=float("inf")).threshold == float("inf")
        assert RunConfig(genome=genome, threshold=float("-inf")).threshold == float("-inf")
