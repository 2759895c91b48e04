"""Tests for the execution backend (`repro.batch.backends`).

The contract under test: every cost, row, snapshot and Read Until decision
is bit-identical whether the numpy backend advances a round's lanes on the
calling thread or splits them over ``workers`` kernel threads (two threads,
and three for uneven groups and rounds with fewer lanes than threads),
across lane churn, capacity growth and ragged chunk schedules.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch.backends import NumpyBackend
from repro.batch.classifier import BatchSquiggleClassifier
from repro.batch.engine import BatchSDTWEngine
from repro.core.config import SDTWConfig
from repro.core.sdtw import int32_data_path, sdtw_resume
from repro.hardware.scheduler import TileScheduler
from repro.pipeline.api import build_pipeline
from repro.pipeline.read_until import ReadUntilPipeline
from repro.runtime import RunConfig
from repro.sequencer.reads import ReadGenerator, ReadLengthModel

# (backend name, factory options) pairs every backend-agnostic test runs over:
# one thread, two, and three (uneven groups; rounds with fewer lanes than
# threads).
BACKENDS = [("numpy", None), ("numpy", {"workers": 2}), ("numpy", {"workers": 3})]

# Configuration classes with distinct execution paths: the int32 fast path, a
# no-bonus integer config, a float config, a fractional bonus.
KERNEL_CONFIGS = [
    SDTWConfig.hardware(),
    SDTWConfig(distance="absolute", allow_reference_deletions=False, quantize=True, match_bonus=0.0),
    SDTWConfig(distance="squared", allow_reference_deletions=False, quantize=False, match_bonus=0.0),
    SDTWConfig(distance="absolute", allow_reference_deletions=False, quantize=False, match_bonus=2.5, match_bonus_cap=4),
]


def make_engine(reference, config=None, backend="numpy", options=None, **kwargs):
    return BatchSDTWEngine(
        reference, config, backend=backend, backend_options=options, **kwargs
    )


# ------------------------------------------------------------ backend choice
class TestBackendRegistry:
    """The engine builds the one backend, ``numpy``, by name, or borrows a
    prebuilt one."""

    def test_unknown_backend_rejected_listing_registry(self, rng):
        """An unknown name is a ValueError naming the one backend there is."""
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_engine(rng.integers(-127, 128, 30), backend="tpu")
        with pytest.raises(ValueError, match="available backends: numpy$"):
            make_engine(rng.integers(-127, 128, 30), backend="sharded")

    def test_engine_borrows_prebuilt_backend(self, rng):
        reference = rng.integers(-127, 128, 30)
        backend = NumpyBackend(reference, SDTWConfig.hardware(), capacity=4)
        engine = make_engine(reference, backend=backend)
        assert engine.backend is backend
        assert engine.backend_name == "numpy"
        assert engine.capacity == 4
        with pytest.raises(ValueError, match="backend_options"):
            make_engine(reference, backend=backend, options={"workers": 2})
        with pytest.raises(ValueError, match="reference"):
            make_engine(rng.integers(-127, 128, 31), backend=backend)

    def test_engine_reports_backend_name(self, rng):
        reference = rng.integers(-127, 128, 30)
        with make_engine(reference, backend="numpy", options={"workers": 2}) as engine:
            assert engine.backend_name == "numpy"
            assert engine.backend.workers == 2


# -------------------------------------------------------------- bit identity
signal_values = st.integers(min_value=-127, max_value=127)
lane_query = st.lists(signal_values, min_size=1, max_size=24).map(lambda v: np.array(v))
lane_queries = st.lists(lane_query, min_size=1, max_size=5)

backend_settings = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_PROPERTY_REFERENCE = np.random.default_rng(20260728).integers(-127, 128, 60)


class TestBackendBitIdentity:
    @backend_settings
    @given(queries=lane_queries, data=st.data())
    def test_threads_match_scalar_over_ragged_rounds(self, queries, data):
        """The acceptance property: identical rows/costs/ends at every thread
        count across ragged chunk schedules, including admissions
        mid-session."""
        n_rounds = data.draw(st.integers(min_value=1, max_value=3))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        schedules = []
        for query in queries:
            cuts = np.sort(rng.integers(0, query.size + 1, size=n_rounds - 1))
            bounds = [0, *cuts.tolist(), query.size]
            schedules.append([query[bounds[i] : bounds[i + 1]] for i in range(n_rounds)])

        config = SDTWConfig.hardware()
        engines = [
            make_engine(_PROPERTY_REFERENCE, config, backend=name, options=options)
            for name, options in BACKENDS
        ]
        try:
            scalar = [None] * len(queries)
            for round_index in range(n_rounds):
                snaps = [
                    engine.step(
                        [
                            (lane, schedules[lane][round_index])
                            for lane in range(len(queries))
                        ]
                    )
                    for engine in engines
                ]
                for lane in range(len(queries)):
                    chunk = schedules[lane][round_index]
                    if chunk.size:
                        scalar[lane] = sdtw_resume(
                            chunk, _PROPERTY_REFERENCE, config, state=scalar[lane]
                        )
                    if scalar[lane] is None:
                        continue
                    for engine, snap in zip(engines, snaps):
                        assert snap[lane].cost == scalar[lane].cost
                        assert snap[lane].end_position == scalar[lane].end_position
            for lane in range(len(queries)):
                rows = [engine.state_of(lane).row for engine in engines]
                assert np.array_equal(rows[0], scalar[lane].row)
                for other in rows[1:]:
                    assert np.array_equal(other, rows[0])
        finally:
            for engine in engines:
                engine.close()

    @pytest.mark.parametrize("config", KERNEL_CONFIGS)
    def test_threads_match_scalar_per_config(self, config, rng):
        reference = (
            rng.integers(-127, 128, 80) if config.quantize else rng.normal(size=80)
        )
        queries = [
            rng.integers(-127, 128, n).astype(np.float64)
            if not config.quantize
            else rng.integers(-127, 128, n)
            for n in (5, 17, 31)
        ]
        with make_engine(
            reference, config, backend="numpy", options={"workers": 2}
        ) as engine:
            scalar = [None] * len(queries)
            for start in range(0, 31, 11):
                items = []
                for lane, query in enumerate(queries):
                    chunk = query[start : start + 11]
                    items.append((lane, chunk))
                    if chunk.size:
                        scalar[lane] = sdtw_resume(chunk, reference, config, state=scalar[lane])
                engine.step(items)
            for lane in range(len(queries)):
                state = engine.state_of(lane)
                assert np.array_equal(state.row, scalar[lane].row)
                assert state.samples_processed == scalar[lane].samples_processed

    @pytest.mark.parametrize("backend,options", BACKENDS)
    def test_bonus_credit_beyond_int32_rule_identical_on_every_backend(
        self, backend, options, rng
    ):
        """A capped bonus credit of 2**29 is off the int32 data path, so rows
        far beyond int32 advance exactly at every thread count."""
        config = SDTWConfig(
            quantize=True,
            distance="absolute",
            allow_reference_deletions=False,
            match_bonus=2**27,
            match_bonus_cap=4,
        )
        assert int32_data_path(SDTWConfig.hardware()) and not int32_data_path(config)
        reference = rng.integers(-127, 128, 80)
        queries = [rng.integers(-127, 128, n) for n in (5, 17, 31)]
        with make_engine(reference, config, backend=backend, options=options) as engine:
            scalar = [None] * len(queries)
            for start in range(0, 31, 11):
                items = [(lane, query[start : start + 11]) for lane, query in enumerate(queries)]
                snaps = engine.step(items)
                for lane, chunk in items:
                    if chunk.size:
                        scalar[lane] = sdtw_resume(chunk, reference, config, state=scalar[lane])
                    assert snaps[lane].cost == scalar[lane].cost
                    assert snaps[lane].end_position == scalar[lane].end_position
            for lane in range(len(queries)):
                assert np.array_equal(engine.state_of(lane).row, scalar[lane].row)
            assert min(scalar[lane].cost for lane in range(len(queries))) < -(2**31)


# ----------------------------------------------------------------- lane churn
class TestLaneChurn:
    @pytest.mark.parametrize("backend,options", BACKENDS)
    def test_recycled_lanes_start_clean_across_grow(self, backend, options, rng):
        """Admit -> retire -> re-admit across a growth boundary: recycled
        lanes must come up zeroed and snapshots must never read stale state."""
        config = SDTWConfig.hardware()
        reference = rng.integers(-127, 128, 40)
        with make_engine(
            reference, config, backend=backend, options=options, initial_capacity=2
        ) as engine:
            first = {key: rng.integers(-127, 128, 12) for key in ("a", "b")}
            engine.step(list(first.items()))
            survivor = sdtw_resume(first["b"], reference, config)

            engine.retire("a")
            # Forces _grow(): "b" occupies one lane, "c" recycles a's lane,
            # "d" and "e" exceed the original capacity of 2.
            fresh = {key: rng.integers(-127, 128, 9) for key in ("c", "d", "e")}
            for key in fresh:
                engine.admit(key)
            assert engine.capacity > 2
            # Freshly admitted lanes show zero progress before any samples —
            # a stale read of a's old lane would show 12 samples.
            for key in fresh:
                assert engine.samples_processed(key) == 0
                assert engine.snapshot(key).cost == 0.0
                assert not engine.state_of(key).row.any()

            snaps = engine.step(list(fresh.items()))
            for key, query in fresh.items():
                expected = sdtw_resume(query, reference, config)
                assert snaps[key].cost == expected.cost
                assert snaps[key].samples_processed == expected.samples_processed
                assert np.array_equal(engine.state_of(key).row, expected.row)
            # The survivor's state crossed the growth boundary untouched.
            assert np.array_equal(engine.state_of("b").row, survivor.row)
            assert engine.samples_processed("b") == survivor.samples_processed

    @pytest.mark.parametrize("backend,options", BACKENDS)
    def test_retire_readmit_same_key_resets_progress(self, backend, options, rng):
        config = SDTWConfig.hardware()
        reference = rng.integers(-127, 128, 30)
        with make_engine(
            reference, config, backend=backend, options=options, initial_capacity=1
        ) as engine:
            engine.step([("read", rng.integers(-127, 128, 10))])
            before = engine.snapshot("read")
            assert before.samples_processed == 10
            engine.retire("read")
            engine.admit("read")
            assert engine.samples_processed("read") == 0
            replay = rng.integers(-127, 128, 6)
            snap = engine.step([("read", replay)])["read"]
            expected = sdtw_resume(replay, reference, config)
            assert snap.cost == expected.cost
            assert snap.samples_processed == 6


# ---------------------------------------------------------------- idle rounds
class TestIdleRounds:
    def test_idle_polls_are_counted_but_not_recorded(self, rng):
        engine = make_engine(rng.integers(-127, 128, 20))
        engine.step([("a", rng.integers(-127, 128, 5)), ("b", rng.integers(-127, 128, 3))])
        engine.step([])
        engine.step([("a", rng.integers(-127, 128, 2))])
        engine.step([])
        assert engine.n_polls == 4
        assert [entry.index for entry in engine.rounds] == [0, 2]
        assert [entry.n_lanes for entry in engine.rounds] == [2, 1]
        # The dense trace keeps the idle polls as zeros for timing...
        assert engine.occupancy_trace == [2, 0, 1, 0]
        assert engine.peak_occupancy == 2
        # ...but occupancy statistics are computed over busy rounds only.
        assert engine.mean_occupancy == pytest.approx(1.5)

    def test_all_idle_engine(self, rng):
        engine = make_engine(rng.integers(-127, 128, 20))
        engine.step([])
        engine.step([])
        assert engine.rounds == []
        assert engine.occupancy_trace == [0, 0]
        assert engine.mean_occupancy == 0.0
        assert engine.peak_occupancy == 0

    def test_simulate_engine_rounds_matches_dense_trace(self, rng):
        engine = make_engine(rng.integers(-127, 128, 20))
        keys = [f"r{i}" for i in range(5)]
        engine.step([(k, rng.integers(-127, 128, 4)) for k in keys])
        engine.step([])
        engine.step([(k, rng.integers(-127, 128, 4)) for k in keys[:3]])
        engine.step([])
        scheduler = TileScheduler(n_tiles=2, classification_latency_s=1e-3)
        dense = scheduler.simulate_batch_trace(engine.occupancy_trace, 0.5)
        sparse = scheduler.simulate_engine_rounds(engine.rounds, 0.5, n_polls=engine.n_polls)
        assert sparse.n_requests == dense.n_requests == 8
        assert sparse.simulated_seconds == dense.simulated_seconds
        assert sparse.waiting_times_s == dense.waiting_times_s
        assert np.array_equal(sparse.tile_busy_seconds, dense.tile_busy_seconds)

    def test_simulate_engine_rounds_validation(self):
        scheduler = TileScheduler(n_tiles=1)
        rounds = [type("R", (), {"index": 0, "n_lanes": 2})()]
        with pytest.raises(ValueError, match="round_duration_s"):
            scheduler.simulate_engine_rounds(rounds, 0.0)
        with pytest.raises(ValueError, match="n_polls"):
            scheduler.simulate_engine_rounds(rounds, 0.5, n_polls=0)
        bad = [
            type("R", (), {"index": 1, "n_lanes": 1})(),
            type("R", (), {"index": 1, "n_lanes": 1})(),
        ]
        with pytest.raises(ValueError, match="strictly increasing"):
            scheduler.simulate_engine_rounds(bad, 0.5)
        empty = scheduler.simulate_engine_rounds([], 0.5)
        assert empty.n_requests == 0


# ------------------------------------------------------------------ lifecycle
class TestBackendLifecycle:
    def test_close_is_idempotent_and_final(self, rng):
        reference = rng.integers(-127, 128, 30)
        engine = make_engine(reference, backend="numpy", options={"workers": 2})
        before = set(threading.enumerate())
        engine.step([(key, rng.integers(-127, 128, 5)) for key in ("a", "b")])
        pool_threads = set(threading.enumerate()) - before
        assert pool_threads  # the two-lane round started the pool's threads
        engine.close()
        engine.close()
        for thread in pool_threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        with pytest.raises(RuntimeError, match="closed"):
            engine.backend.advance(np.array([0]), [rng.integers(-127, 128, 3)])

    def test_engine_owns_created_backend_but_borrows_instances(self, rng):
        reference = rng.integers(-127, 128, 30)
        backend = NumpyBackend(reference, SDTWConfig.hardware(), capacity=4, workers=2)
        engine = make_engine(reference, backend=backend)
        engine.close()  # borrowed: must NOT shut the backend down
        costs, _ = backend.advance(np.array([0, 1]), [rng.integers(-127, 128, 3)] * 2)
        assert costs.shape == (2, 1)  # (lanes, panel blocks)
        backend.close()

    def test_classifier_close_releases_engine(self, reference_squiggle):
        classifier = BatchSquiggleClassifier(
            reference_squiggle,
            threshold=1e9,
            prefix_samples=400,
            run_config=RunConfig(workers=2),
        )
        assert classifier.backend_name == "numpy"
        assert classifier.engine.backend.workers == 2
        classifier.close()
        with pytest.raises(RuntimeError, match="closed"):
            classifier.engine.backend.advance(np.array([0]), [np.arange(3)])

    def test_workers_must_be_positive(self, rng):
        with pytest.raises(ValueError, match="workers"):
            NumpyBackend(
                rng.integers(-127, 128, 20), SDTWConfig.hardware(), capacity=2, workers=0
            )


# --------------------------------------------------------------- thread groups
class TestThreadGroups:
    def test_group_error_surfaces_after_every_group_finished(self, rng, monkeypatch):
        """A group that raises must not surface while another group still
        writes lane state; the backend then keeps advancing exact rounds."""
        import repro.batch.backends as backends_module

        kernel = backends_module.sdtw_resume_batch

        def slow_healthy_groups(queries, *args, **kwargs):
            if all(np.ndim(query) == 1 for query in queries):
                time.sleep(0.2)  # finishes well after the failing group raised
            return kernel(queries, *args, **kwargs)

        monkeypatch.setattr(backends_module, "sdtw_resume_batch", slow_healthy_groups)
        reference = rng.integers(-127, 128, 40)
        config = SDTWConfig.hardware()
        backend = NumpyBackend(reference, config, capacity=2, workers=2)
        try:
            good = rng.integers(-127, 128, 8)
            bad = rng.integers(-127, 128, (2, 2))  # 2-D: the kernel rejects it
            with pytest.raises(ValueError, match="1-D"):
                backend.advance(np.array([0, 1]), [bad, good])
            expected = sdtw_resume(good, reference, config)
            assert np.array_equal(backend.gather(np.array([1])).rows[0], expected.row)

            backend.reset(np.array([0]))
            fresh, follow_up = rng.integers(-127, 128, (2, 5))
            costs, ends = backend.advance(np.array([0, 1]), [fresh, follow_up])
            for lane, state in enumerate(
                (
                    sdtw_resume(fresh, reference, config),
                    sdtw_resume(follow_up, reference, config, state=expected),
                )
            ):
                assert costs[lane, 0] == state.cost
                assert ends[lane, 0] == state.end_position
        finally:
            backend.close()

    def test_more_threads_than_cores_lose_no_update(self, rng):
        """Eight threads with a tiny switch interval: every row and the merged
        cell count match one thread's, round after round."""
        reference = rng.integers(-127, 128, 64)
        config = SDTWConfig.hardware()
        single = NumpyBackend(reference, config, capacity=24)
        threaded = NumpyBackend(reference, config, capacity=24, workers=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(6):
                lanes = np.sort(rng.choice(24, size=int(rng.integers(2, 25)), replace=False))
                queries = [rng.integers(-127, 128, int(n)) for n in rng.integers(0, 9, lanes.size)]
                expected = single.advance(lanes, queries)
                got = threaded.advance(lanes, queries)
                assert all(np.array_equal(a, b) for a, b in zip(got, expected))
                assert threaded.stats.cells_advanced == single.stats.cells_advanced
            everything = np.arange(24)
            assert np.array_equal(threaded.gather(everything).rows, single.gather(everything).rows)
        finally:
            sys.setswitchinterval(interval)
            single.close()
            threaded.close()


# ------------------------------------------------------- pipeline + spec + CLI
@pytest.fixture(scope="module")
def backend_flowcell_reads(mixture, kmer_model):
    generator = ReadGenerator(
        mixture,
        kmer_model=kmer_model,
        length_model=ReadLengthModel(mean_bases=300, sigma=0.15, min_bases=220, max_bases=500),
        seed=20260729,
    )
    reads = [generator.generate_one(source="virus") for _ in range(6)]
    reads += [generator.generate_one(source="host") for _ in range(18)]
    return reads


@pytest.fixture(scope="module")
def backend_threshold(reference_squiggle, target_signals, nontarget_signals):
    classifier = BatchSquiggleClassifier(reference_squiggle, prefix_samples=800)
    return classifier.calibrate(target_signals, nontarget_signals, chunk_samples=400)


class TestShardedPipeline:
    def test_seeded_flowcell_decisions_identical_across_backends(
        self, reference_squiggle, target_genome, backend_threshold, backend_flowcell_reads
    ):
        """Acceptance: bit-identical accept/eject decisions on the seeded
        8-channel flowcell at every thread count."""
        decisions = []
        for backend, options in BACKENDS:
            with BatchSquiggleClassifier(
                reference_squiggle,
                threshold=backend_threshold,
                prefix_samples=800,
                run_config=RunConfig(backend=backend, **(options or {})),
            ) as classifier:
                result = ReadUntilPipeline(
                    classifier,
                    target_genome,
                    assemble=False,
                    chunk_samples=400,
                    n_channels=8,
                    batch=True,
                ).run(backend_flowcell_reads)
            assert result.streaming["backend"] == backend
            decisions.append(
                {
                    outcome.read.read_id: (
                        outcome.ejected,
                        outcome.decision.cost if outcome.decision else None,
                        outcome.decision.samples_used if outcome.decision else None,
                    )
                    for outcome in result.session.outcomes
                }
            )
        assert all(other == decisions[0] for other in decisions[1:])
        assert len(decisions[0]) == len(backend_flowcell_reads)

    def test_seeded_flowcell_decisions_identical_with_pruning(
        self, reference_squiggle, target_genome, backend_threshold, backend_flowcell_reads
    ):
        """Acceptance: with the prune gate on, every thread count still
        makes the seeded flowcell's accept/eject decisions bit-identically to the
        brute-force numpy run (accepted reads keep their exact cost; ejected
        reads may report a stale above-threshold cost, so only the decision
        and sample count are compared there)."""

        def run_flowcell(classifier):
            result = ReadUntilPipeline(
                classifier,
                target_genome,
                assemble=False,
                chunk_samples=400,
                n_channels=8,
                batch=True,
            ).run(backend_flowcell_reads)
            summary = {}
            for outcome in result.session.outcomes:
                decision = outcome.decision
                accepted = decision is not None and not outcome.ejected
                summary[outcome.read.read_id] = (
                    outcome.ejected,
                    decision.samples_used if decision else None,
                    decision.cost if accepted else None,
                )
            return summary

        with BatchSquiggleClassifier(
            reference_squiggle, threshold=backend_threshold, prefix_samples=800
        ) as classifier:
            brute = run_flowcell(classifier)

        for backend, options in BACKENDS:
            config = RunConfig(
                reference=reference_squiggle,
                threshold=backend_threshold,
                prefix_samples=800,
                backend=backend,
                prune=True,
                **(options or {}),
            )
            with BatchSquiggleClassifier(
                reference_squiggle, run_config=config
            ) as classifier:
                pruned = run_flowcell(classifier)
            assert pruned == brute, options
            assert classifier.engine.cells_pruned >= 0

    def test_build_pipeline_backend_key(
        self, reference_squiggle, target_genome, backend_threshold, backend_flowcell_reads
    ):
        pipeline = build_pipeline(
            {
                "classifier": {
                    "name": "batch_squigglefilter",
                    "reference": reference_squiggle,
                    "threshold": backend_threshold,
                    "prefix_samples": 800,
                },
                "target_genome": target_genome,
                "backend": "numpy",
                "workers": 2,
                "batch": True,
                "assemble": False,
            }
        )
        try:
            assert pipeline.classifier.backend_name == "numpy"
            assert pipeline.classifier.engine.backend.workers == 2
            result = pipeline.run(backend_flowcell_reads[:8])
            assert result.streaming["backend"] == "numpy"
            assert result.streaming["batched"] is True
        finally:
            pipeline.classifier.close()


class TestCliBackend:
    CLI_ARGS = [
        "read-until",
        "--n-channels", "4",
        "--target-length", "800",
        "--background-length", "3000",
        "--n-reads", "10",
        "--calibration-reads-per-class", "5",
        "--prefix-samples", "500",
    ]

    def test_workers_flag_runs_threaded_session(self, capsys):
        """--workers alone takes the session path, like --backend: on the
        default classifier it must not be silently ignored."""
        from repro.cli import main

        exit_code = main(self.CLI_ARGS + ["--workers", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "batch_squigglefilter" in output
        assert "numpy" in output

    def test_backend_flag_implies_batch_classifier(self, capsys):
        from repro.cli import main

        assert main(self.CLI_ARGS + ["--backend", "numpy"]) == 0
        output = capsys.readouterr().out
        assert "batch_squigglefilter" in output
        assert "numpy" in output

    def test_workers_flag_combines_with_config_file_backend(self, tmp_path, capsys):
        """--workers without --backend overlays the backend a config file
        names."""
        import json

        from repro.cli import main

        path = tmp_path / "run.json"
        path.write_text(json.dumps({"backend": "numpy"}))
        exit_code = main(
            self.CLI_ARGS + ["--config", str(path), "--workers", "2"]
        )
        assert exit_code == 0
        assert "numpy" in capsys.readouterr().out

    def test_backend_requires_squigglefilter_family(self, capsys):
        from repro.cli import main

        for flag, value in (("--backend", "numpy"), ("--workers", "2")):
            exit_code = main(["read-until", flag, value, "--classifier", "multistage"])
            assert exit_code == 2
            assert f"{flag} requires" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["sharded", "colsharded"])
    def test_removed_process_backends_rejected(self, name, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["read-until", "--backend", name])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "numpy" in err
