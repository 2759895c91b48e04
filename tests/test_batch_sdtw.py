"""Tests for the batched sDTW execution engine (repro.batch) and its kernel.

The contract under test: ``sdtw_resume_batch`` / ``BatchSDTWEngine`` /
``BatchSquiggleClassifier`` are pure execution-engine changes — every cost,
row and decision is bit-identical to the per-read scalar path, whatever the
kernel config or chunk geometry.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.core.sdtw as sdtw_module
from repro.batch.classifier import BatchSquiggleClassifier
from repro.batch.engine import BatchSDTWEngine
from repro.core.config import SDTWConfig
from repro.core.filter import MultiStageSquiggleFilter, SquiggleFilter
from repro.core.sdtw import (
    BatchSDTWState,
    sdtw_last_row,
    sdtw_resume,
    sdtw_resume_batch,
)
from repro.hardware.scheduler import TileScheduler
from repro.pipeline.api import build_pipeline, create_classifier, supports_chunk_batching
from repro.pipeline.read_until import ReadUntilPipeline
from repro.sequencer.read_until_api import ReadUntilSimulator
from repro.sequencer.reads import ReadGenerator, ReadLengthModel
from repro.sequencer.run import MinIONParameters

NO_CAPTURE = MinIONParameters(capture_time_s=0.0)

# Every resumable kernel configuration class: bonus/no-bonus, abs/squared,
# quantized/float, plus a fractional bonus (generic float path).
RESUMABLE_CONFIGS = [
    SDTWConfig.hardware(),
    SDTWConfig(distance="absolute", allow_reference_deletions=False, quantize=True, match_bonus=0.0),
    SDTWConfig(distance="squared", allow_reference_deletions=False, quantize=True, match_bonus=0.0),
    SDTWConfig(distance="squared", allow_reference_deletions=False, quantize=False, match_bonus=0.0),
    SDTWConfig(distance="absolute", allow_reference_deletions=False, quantize=False, match_bonus=0.0),
    SDTWConfig(distance="absolute", allow_reference_deletions=False, quantize=True, match_bonus=3.0, match_bonus_cap=4),
    SDTWConfig(distance="absolute", allow_reference_deletions=False, quantize=False, match_bonus=2.5, match_bonus_cap=4),
]

signal_values = st.integers(min_value=-127, max_value=127)
lane_query = st.lists(signal_values, min_size=1, max_size=30).map(lambda v: np.array(v))
lane_queries = st.lists(lane_query, min_size=1, max_size=6)
reference_signal = st.lists(signal_values, min_size=4, max_size=50).map(lambda v: np.array(v))

default_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _chunk_schedule(rng, query, n_rounds):
    """Split ``query`` into ``n_rounds`` contiguous (possibly empty) chunks."""
    cuts = np.sort(rng.integers(0, query.size + 1, size=n_rounds - 1))
    bounds = [0, *cuts.tolist(), query.size]
    return [query[bounds[i] : bounds[i + 1]] for i in range(n_rounds)]


@st.composite
def ragged_schedules(draw):
    """Per-lane chunk lists over a shared number of rounds."""
    queries = draw(lane_queries)
    n_rounds = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    return [_chunk_schedule(rng, query, n_rounds) for query in queries]


# A read that crosses the int32 guard mid-read: kernel-scale samples of about
# +-3e6 in 20-sample chunks take the int32 path until the stored rows plus one
# chunk's growth pass 2**28, then the generic path.
_GUARD_RNG = np.random.default_rng(0)
INT32_GUARD_REFERENCE = _GUARD_RNG.integers(-3_000_000, 3_000_001, 40)
_GUARD_READ = _GUARD_RNG.integers(-3_000_000, 3_000_001, 200)
INT32_GUARD_SCHEDULES = [[_GUARD_READ[start : start + 20] for start in range(0, 200, 20)]]


# ------------------------------------------------------------------- kernel
class TestBatchKernel:
    @default_settings
    @given(
        schedules=ragged_schedules(),
        reference=reference_signal,
        config=st.sampled_from(RESUMABLE_CONFIGS),
    )
    @example(
        schedules=INT32_GUARD_SCHEDULES,
        reference=INT32_GUARD_REFERENCE,
        config=SDTWConfig.hardware(),
    )
    def test_bit_identical_to_scalar_resume_over_ragged_rounds(
        self, schedules, reference, config
    ):
        """The core property: after every round, per-lane rows, capped runs
        and progress match per-read sdtw_resume exactly, across all configs
        and ragged chunk schedules."""
        cap = config.match_bonus_cap
        state = None
        scalar = [None] * len(schedules)
        for chunks in zip(*schedules):
            state = sdtw_resume_batch(list(chunks), reference, config, state=state)
            for lane, chunk in enumerate(chunks):
                if chunk.size:
                    scalar[lane] = sdtw_resume(chunk, reference, config, state=scalar[lane])
                expected = scalar[lane]
                if expected is None:
                    continue
                assert np.array_equal(state.rows[lane], expected.row)
                if config.uses_bonus:
                    assert np.array_equal(
                        np.minimum(state.runs[lane], cap), np.minimum(expected.run, cap)
                    )
                assert state.samples_processed[lane] == expected.samples_processed
                assert state.lane(lane).cost == expected.cost
                assert state.lane(lane).end_position == expected.end_position
        assert all(expected is not None for expected in scalar)  # min_size=1

    def test_int32_guard_example_switches_kernel_mid_read(self):
        """The guard-crossing example above starts on the int32 path and
        finishes on the generic one."""
        paths = []
        state = None
        with mock.patch.object(
            sdtw_module, "_advance_batch_int32", wraps=sdtw_module._advance_batch_int32
        ) as fast:
            for chunks in zip(*INT32_GUARD_SCHEDULES):
                before = fast.call_count
                state = sdtw_resume_batch(
                    list(chunks), INT32_GUARD_REFERENCE, SDTWConfig.hardware(), state=state
                )
                paths.append("int32" if fast.call_count > before else "generic")
        assert paths[0] == "int32" and paths[-1] == "generic"

    @pytest.mark.parametrize("config", RESUMABLE_CONFIGS)
    def test_fresh_batch_matches_last_row(self, config, rng):
        reference = rng.integers(-127, 128, 40)
        queries = [rng.integers(-127, 128, n) for n in (1, 7, 23, 23)]
        state = sdtw_resume_batch(queries, reference, config)
        for lane, query in enumerate(queries):
            expected = sdtw_last_row(query, reference, config)
            assert np.array_equal(
                np.asarray(state.rows[lane], dtype=np.float64),
                np.asarray(expected, dtype=np.float64),
            )

    def test_quantized_state_stays_integer(self, rng):
        """Satellite fix: integer kernels keep int64 state end-to-end."""
        reference = rng.integers(-127, 128, 30)
        query = rng.integers(-127, 128, 12)
        for config in RESUMABLE_CONFIGS:
            scalar = sdtw_resume(query, reference, config)
            batch = sdtw_resume_batch([query], reference, config)
            expected = np.int64 if config.quantize else np.float64
            assert scalar.row.dtype == expected
            assert batch.rows.dtype == expected

    def test_zero_length_lane_passes_through(self, rng):
        config = SDTWConfig.hardware()
        reference = rng.integers(-127, 128, 30)
        first = sdtw_resume_batch([rng.integers(-127, 128, 8), rng.integers(-127, 128, 5)], reference, config)
        second = sdtw_resume_batch([np.array([], dtype=np.int64), rng.integers(-127, 128, 4)], reference, config, state=first)
        assert np.array_equal(second.rows[0], first.rows[0])
        assert second.samples_processed[0] == first.samples_processed[0]
        assert second.samples_processed[1] == first.samples_processed[1] + 4

    def test_rejects_vanilla_and_mismatches(self, rng):
        reference = rng.integers(-127, 128, 20)
        with pytest.raises(ValueError):
            sdtw_resume_batch([np.arange(5)], reference, SDTWConfig.vanilla())
        state = BatchSDTWState.initial(2, reference.size, SDTWConfig.hardware())
        with pytest.raises(ValueError):
            sdtw_resume_batch([np.arange(5)], reference, SDTWConfig.hardware(), state=state)
        with pytest.raises(ValueError):
            sdtw_resume_batch(
                [np.arange(5), np.arange(3)], reference[:-1], SDTWConfig.hardware(), state=state
            )


# ------------------------------------------------------------------- engine
class TestBatchEngine:
    def test_admit_retire_recycles_lanes(self, rng):
        engine = BatchSDTWEngine(rng.integers(-127, 128, 25), initial_capacity=2)
        engine.admit("a")
        engine.admit("b")
        assert engine.capacity == 2 and engine.n_active == 2
        engine.admit("c")  # forces growth
        assert engine.capacity == 4
        engine.retire("b")
        assert "b" not in engine and engine.n_active == 2
        engine.admit("d")  # reuses b's lane
        assert engine.capacity == 4
        with pytest.raises(ValueError):
            engine.admit("a")
        engine.retire("unknown")  # no-op

    def test_step_matches_scalar_and_lane_reuse_is_clean(self, rng):
        config = SDTWConfig.hardware()
        reference = rng.integers(-127, 128, 40)
        engine = BatchSDTWEngine(reference, config, initial_capacity=1)
        first = rng.integers(-127, 128, 12)
        engine.step([("one", first)])
        engine.retire("one")
        # A new read on the recycled lane must not see stale state.
        fresh = rng.integers(-127, 128, 9)
        snapshot = engine.step([("two", fresh)])["two"]
        expected = sdtw_resume(fresh, reference, config)
        assert snapshot.cost == expected.cost
        assert snapshot.end_position == expected.end_position
        assert snapshot.samples_processed == expected.samples_processed
        assert np.array_equal(engine.state_of("two").row, expected.row)

    def test_duplicate_keys_rejected(self, rng):
        engine = BatchSDTWEngine(rng.integers(-127, 128, 20))
        with pytest.raises(ValueError):
            engine.step([("x", np.arange(3)), ("x", np.arange(2))])

    def test_occupancy_trace_records_rounds(self, rng):
        engine = BatchSDTWEngine(rng.integers(-127, 128, 20))
        engine.step([("a", rng.integers(-127, 128, 5)), ("b", rng.integers(-127, 128, 3))])
        engine.step([("a", rng.integers(-127, 128, 2))])
        engine.step([])
        assert engine.occupancy_trace == [2, 1, 0]
        assert engine.peak_occupancy == 2
        assert engine.rounds[0].n_samples == 8

    def test_occupancy_aggregates_match_the_round_list(self, rng):
        """The running peak and mean equal what the round list gives, across
        idle polls, lane growth and retirement."""
        engine = BatchSDTWEngine(rng.integers(-127, 128, 20), initial_capacity=2)
        assert (engine.peak_occupancy, engine.mean_occupancy) == (0, 0.0)
        schedule = [("ab", ""), ("", ""), ("abcde", "ab"), ("c", ""), ("", "cde"), ("fg", "")]
        for keys, retired in schedule:
            engine.step([(key, rng.integers(-127, 128, 3)) for key in keys])
            for key in retired:
                engine.retire(key)
            lanes = [entry.n_lanes for entry in engine.rounds]
            assert engine.peak_occupancy == max(lanes, default=0)
            assert engine.mean_occupancy == (float(np.mean(lanes)) if lanes else 0.0)
        assert engine.capacity > 2 and engine.n_polls == len(schedule)


# --------------------------------------------------------------- scheduler
class TestBatchTraceScheduling:
    def test_trace_replay_counts_every_lane(self):
        scheduler = TileScheduler(n_tiles=2, classification_latency_s=1e-3)
        stats = scheduler.simulate_batch_trace([4, 0, 3], round_duration_s=0.5)
        assert stats.n_requests == 7
        assert stats.simulated_seconds == pytest.approx(1.5)
        # 4 simultaneous arrivals on 2 tiles: someone waits a full service.
        assert stats.max_waiting_ms >= 1.0
        assert stats.mean_utilization > 0.0

    def test_trace_validation(self):
        scheduler = TileScheduler(n_tiles=1)
        with pytest.raises(ValueError):
            scheduler.simulate_batch_trace([1, -1], 0.5)
        with pytest.raises(ValueError):
            scheduler.simulate_batch_trace([1], 0.0)

    def test_synthetic_simulate_still_works(self):
        stats = TileScheduler(n_tiles=3, seed=5).simulate(request_rate_per_s=100.0, duration_s=1.0)
        assert stats.n_requests > 0
        assert stats.utilization.shape == (3,)


# ----------------------------------------------------- filter batch routing
class TestFilterBatchRouting:
    @pytest.mark.parametrize(
        "config",
        [
            SDTWConfig.hardware(),
            SDTWConfig(distance="absolute", allow_reference_deletions=False, quantize=True, match_bonus=0.0),
            SDTWConfig(distance="squared", allow_reference_deletions=False, quantize=False, match_bonus=0.0),
            SDTWConfig.vanilla(),  # exercises the per-read fallback
        ],
    )
    def test_classify_batch_equals_per_read(
        self, config, reference_squiggle, target_signals, nontarget_signals
    ):
        squiggle_filter = SquiggleFilter(reference_squiggle, config=config, prefix_samples=500)
        signals = list(target_signals) + list(nontarget_signals)
        batch = squiggle_filter.classify_batch(signals, threshold=1e12)
        scalar = [squiggle_filter.classify(signal, threshold=1e12) for signal in signals]
        assert batch == scalar
        assert squiggle_filter.cost_batch(signals) == [
            squiggle_filter.cost(signal) for signal in signals
        ]

    def test_multistage_classify_batch_equals_per_read(
        self, reference_squiggle, target_signals, nontarget_signals
    ):
        multistage = MultiStageSquiggleFilter.calibrated(
            reference_squiggle,
            target_signals,
            nontarget_signals,
            prefix_lengths=(300, 600),
        )
        signals = list(target_signals) + list(nontarget_signals)
        assert multistage.classify_batch(signals) == [
            multistage.classify(signal) for signal in signals
        ]

    def test_empty_batch(self, calibrated_filter):
        assert calibrated_filter.classify_batch([]) == []
        assert calibrated_filter.cost_batch([]) == []


# --------------------------------------------------- streaming classifier
@pytest.fixture(scope="module")
def flowcell_reads(mixture, kmer_model):
    generator = ReadGenerator(
        mixture,
        kmer_model=kmer_model,
        length_model=ReadLengthModel(mean_bases=300, sigma=0.15, min_bases=220, max_bases=500),
        seed=20260728,
    )
    reads = [generator.generate_one(source="virus") for _ in range(8)]
    reads += [generator.generate_one(source="host") for _ in range(24)]
    return reads


@pytest.fixture(scope="module")
def batch_threshold(reference_squiggle, target_signals, nontarget_signals):
    classifier = BatchSquiggleClassifier(reference_squiggle, prefix_samples=800)
    return classifier.calibrate(target_signals, nontarget_signals, chunk_samples=400)


class TestBatchSquiggleClassifier:
    def test_registered_and_advertises_batching(self, reference_squiggle):
        classifier = create_classifier(
            "batch_squigglefilter", reference=reference_squiggle, prefix_samples=800
        )
        assert isinstance(classifier, BatchSquiggleClassifier)
        assert supports_chunk_batching(classifier)
        assert classifier.min_decision_samples == 800

    def test_requires_threshold(self, reference_squiggle, flowcell_reads):
        classifier = BatchSquiggleClassifier(reference_squiggle, prefix_samples=800)
        simulator = ReadUntilSimulator(
            flowcell_reads[:1], parameters=NO_CAPTURE, chunk_samples=400, n_channels=1
        )
        with pytest.raises(ValueError):
            classifier.on_chunk_batch(simulator.get_read_chunks())

    def test_scalar_on_chunk_is_a_batch_of_one(
        self, reference_squiggle, batch_threshold, flowcell_reads
    ):
        batched = BatchSquiggleClassifier(
            reference_squiggle, threshold=batch_threshold, prefix_samples=800
        )
        scalar = BatchSquiggleClassifier(
            reference_squiggle, threshold=batch_threshold, prefix_samples=800
        )
        simulator_a = ReadUntilSimulator(
            flowcell_reads, parameters=NO_CAPTURE, chunk_samples=400, n_channels=4
        )
        simulator_b = ReadUntilSimulator(
            flowcell_reads, parameters=NO_CAPTURE, chunk_samples=400, n_channels=4
        )
        decided_a = {}
        decided_b = {}
        while not simulator_a.finished:
            chunks = simulator_a.get_read_chunks()
            for chunk, action in zip(chunks, batched.on_chunk_batch(chunks)):
                if action.is_terminal:
                    decided_a[chunk.read_id] = action
                simulator_a._apply_action(chunk, action.to_simulator_action(), 0.0)
            if not chunks and not simulator_a.finished:
                break
        while not simulator_b.finished:
            chunks = simulator_b.get_read_chunks()
            for chunk in chunks:
                action = scalar.on_chunk(chunk)
                if action.is_terminal:
                    decided_b[chunk.read_id] = action
                simulator_b._apply_action(chunk, action.to_simulator_action(), 0.0)
            if not chunks and not simulator_b.finished:
                break
        assert decided_a and decided_a == decided_b

    def test_pipeline_batched_equals_scalar_run(
        self, reference_squiggle, target_genome, batch_threshold, flowcell_reads
    ):
        """Acceptance: identical per-read decisions on a seeded flowcell, with
        multi-chunk geometry and 8 concurrent channels."""
        results = {}
        for batch in (True, False):
            classifier = BatchSquiggleClassifier(
                reference_squiggle, threshold=batch_threshold, prefix_samples=800
            )
            pipeline = ReadUntilPipeline(
                classifier,
                target_genome,
                assemble=False,
                chunk_samples=400,
                n_channels=8,
                batch=batch,
            )
            result = pipeline.run(flowcell_reads)
            results[batch] = {
                outcome.read.read_id: (
                    outcome.ejected,
                    outcome.decision.cost if outcome.decision else None,
                    outcome.decision.samples_used if outcome.decision else None,
                )
                for outcome in result.session.outcomes
            }
            assert result.streaming["batched"] is batch
        assert results[True] == results[False]
        assert len(results[True]) == len(flowcell_reads)

    def test_pipeline_matches_squigglefilter_at_default_geometry(
        self, reference_squiggle, target_genome, calibrated_filter, flowcell_reads
    ):
        """With chunk == prefix (the default), per-chunk normalization equals
        whole-prefix normalization, so the batched classifier reproduces the
        classic SquiggleFilter pipeline decisions exactly."""
        scalar = ReadUntilPipeline(
            calibrated_filter, target_genome, prefix_samples=800, assemble=False, n_channels=8
        ).run(flowcell_reads)
        batched_classifier = BatchSquiggleClassifier(
            reference_squiggle, threshold=calibrated_filter.threshold, prefix_samples=800
        )
        batched = ReadUntilPipeline(
            batched_classifier,
            target_genome,
            prefix_samples=800,
            assemble=False,
            n_channels=8,
            batch=True,
        ).run(flowcell_reads)
        scalar_decisions = {
            o.read.read_id: (o.ejected, o.decision.cost) for o in scalar.session.outcomes
        }
        batched_decisions = {
            o.read.read_id: (o.ejected, o.decision.cost) for o in batched.session.outcomes
        }
        assert scalar_decisions == batched_decisions

    def test_occupancy_trace_feeds_tile_scheduler(
        self, reference_squiggle, target_genome, batch_threshold, flowcell_reads
    ):
        classifier = BatchSquiggleClassifier(
            reference_squiggle, threshold=batch_threshold, prefix_samples=800
        )
        result = ReadUntilPipeline(
            classifier,
            target_genome,
            assemble=False,
            chunk_samples=400,
            n_channels=8,
            batch=True,
        ).run(flowcell_reads)
        occupancy = result.streaming["batch_occupancy"]
        assert result.streaming["peak_batch_lanes"] <= 8
        assert sum(occupancy) >= len(flowcell_reads)  # every read aligned at least once
        stats = TileScheduler(n_tiles=2).simulate_batch_trace(
            occupancy, result.streaming["chunk_duration_s"]
        )
        assert stats.n_requests == sum(occupancy)

    def test_coverage_goal_applies_whole_round(
        self, reference_squiggle, target_genome, batch_threshold, flowcell_reads
    ):
        """A goal hit mid-round must not drop the round's other decisions:
        every read that got a terminal action before the stop is accounted."""
        classifier = BatchSquiggleClassifier(
            reference_squiggle, threshold=batch_threshold, prefix_samples=800
        )
        pipeline = ReadUntilPipeline(
            classifier,
            target_genome,
            assemble=False,
            chunk_samples=400,
            n_channels=8,
            batch=True,
        )
        result = pipeline.run(flowcell_reads, target_bases_goal=1)
        outcome_ids = {outcome.read.read_id for outcome in result.session.outcomes}
        # The goal triggers on the first accepted target; every decided read
        # of that round (and before) still shows up in the outcomes.
        accepted = [o for o in result.session.outcomes if not o.ejected and o.decision]
        assert accepted, "goal run produced no accepted reads"
        assert all(
            outcome.decision is not None or outcome.ejected is False
            for outcome in result.session.outcomes
        )
        assert outcome_ids  # session aborted early but accounting is intact

    def test_batch_true_requires_capable_classifier(self, calibrated_filter, target_genome, flowcell_reads):
        pipeline = ReadUntilPipeline(
            calibrated_filter, target_genome, prefix_samples=800, assemble=False, batch=True
        )
        with pytest.raises(ValueError, match="on_chunk_batch"):
            pipeline.run(flowcell_reads)

    def test_build_pipeline_with_batch_key(self, reference_squiggle, target_genome, batch_threshold, flowcell_reads):
        pipeline = build_pipeline(
            {
                "classifier": {
                    "name": "batch_squigglefilter",
                    "reference": reference_squiggle,
                    "threshold": batch_threshold,
                    "prefix_samples": 800,
                },
                "target_genome": target_genome,
                "prefix_samples": 800,
                "batch": True,
                "assemble": False,
            }
        )
        result = pipeline.run(flowcell_reads)
        assert result.streaming["batched"] is True
        assert result.session.n_reads == len(flowcell_reads)
        assert result.recall >= 0.7


# ------------------------------------------------------------------- CLI
class TestBatchCli:
    def test_read_until_batch_flag(self, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "read-until",
                "--batch",
                "--n-channels", "4",
                "--target-length", "800",
                "--background-length", "3000",
                "--n-reads", "10",
                "--calibration-reads-per-class", "5",
                "--prefix-samples", "500",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "batch_squigglefilter" in output
        assert "peak_batch_lanes" in output

    def test_batch_flag_requires_squigglefilter(self, capsys):
        from repro.cli import main

        exit_code = main(["read-until", "--batch", "--classifier", "multistage"])
        assert exit_code == 2
        assert "--batch requires" in capsys.readouterr().err

    def test_batch_classifier_selectable_by_name(self, capsys):
        from repro.cli import main

        args = [
            "read-until",
            "--classifier", "batch_squigglefilter",
            "--n-channels", "2",
            "--target-length", "800",
            "--background-length", "3000",
            "--n-reads", "8",
            "--calibration-reads-per-class", "4",
            "--prefix-samples", "500",
        ]
        assert main(args) == 0
        output = capsys.readouterr().out
        assert "batch_squigglefilter" in output
        assert "peak_batch_lanes" in output
        # --no-batch forces the per-read scalar path of the same classifier.
        assert main(args + ["--no-batch"]) == 0
        output = capsys.readouterr().out
        assert "batch_squigglefilter" in output
        assert "peak_batch_lanes" not in output
