"""Tests for the unified RunConfig/ReadUntilSession runtime API.

The contract under test: one declarative, serializable :class:`RunConfig`
describes a run; :func:`open_session` owns lazy backend creation and engine
lifecycle; and driving a seeded flowcell through the session produces
decisions bit-identical to the pre-existing classifier/pipeline entry points
at every kernel-thread count.
"""

import json
import os
import threading
import warnings

import numpy as np
import pytest

from repro.batch.backends import NumpyBackend
from repro.batch.classifier import BatchSquiggleClassifier
from repro.core.config import SDTWConfig
from repro.pipeline.api import build_pipeline
from repro.pipeline.read_until import ReadUntilPipeline
from repro.runtime import (
    ReadUntilSession,
    RunConfig,
    SessionClosedError,
    open_session,
    resolve_auto,
)
from repro.sequencer.read_until_api import SignalChunk
from repro.sequencer.reads import ReadGenerator, ReadLengthModel

# Execution shapes the acceptance property runs over: one, two and three
# kernel threads.
SESSION_BACKENDS = [
    ("numpy", {}),
    ("numpy", {"workers": 2}),
    ("numpy", {"workers": 3}),
]
SESSION_IDS = ["numpy", "2-workers", "3-workers"]


def session_config(reference, threshold, **overrides):
    base = dict(
        reference=reference,
        threshold=threshold,
        prefix_samples=800,
        chunk_samples=400,
        n_channels=8,
    )
    base.update(overrides)
    return RunConfig(**base)


# -------------------------------------------------------------- validation
class TestRunConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(backend="tpu"), "backend"),
            (dict(backend="numpy", workers=0), "workers"),
            (dict(backend="numpy", workers=-3), "workers"),
            (dict(backend="sharded"), "backend"),
            (dict(backend="gpu"), "backend"),
            (dict(backend="native"), "backend"),
            (dict(backend="auto", workers=2), "workers"),
            (dict(prefix_samples=0), "prefix_samples"),
            (dict(chunk_samples=-1), "chunk_samples"),
            (dict(n_channels=0), "n_channels"),
            (dict(targets={}), "targets"),
            (dict(label=""), "label"),
            (dict(label="   "), "label"),
            (dict(label=7), "label"),
        ],
    )
    def test_invalid_field_named_in_error(self, kwargs, field):
        with pytest.raises(ValueError) as excinfo:
            RunConfig(**kwargs)
        assert str(excinfo.value).startswith(field), excinfo.value

    def test_exactly_one_reference_spec(self, reference_squiggle):
        with pytest.raises(ValueError, match="exactly one"):
            RunConfig(genome="ACGT" * 100, targets={"a": "ACGT" * 100})
        with pytest.raises(ValueError, match="exactly one"):
            RunConfig(genome="ACGT" * 100, reference=reference_squiggle)

    def test_with_revalidates(self):
        config = RunConfig(genome="ACGT" * 100)
        with pytest.raises(ValueError, match="backend"):
            config.with_(backend="tpu")

    def test_backend_name_normalized(self):
        assert RunConfig(backend="NumPy").backend == "numpy"

    def test_auto_backend_validates(self):
        assert RunConfig(genome="ACGT" * 100, backend="auto").backend == "auto"
        assert RunConfig(genome="ACGT" * 100, backend="AUTO").backend == "auto"

    def test_auto_rejects_manual_sizing(self):
        with pytest.raises(ValueError, match="workers"):
            RunConfig(backend="auto", workers=2)

    @pytest.mark.parametrize("name", ["sharded", "colsharded"])
    def test_removed_process_backends_rejected(self, name):
        with pytest.raises(ValueError, match="^backend: .*available backends: auto, numpy$"):
            RunConfig.from_dict({"backend": name})


# ------------------------------------------------------------ serialization
class TestRunConfigSerialization:
    def test_dict_roundtrip(self):
        config = RunConfig(
            targets={"a": "ACGT" * 200, "b": "GGCA" * 150},
            hardware=SDTWConfig.hardware().with_(match_bonus=0.0),
            threshold=123.5,
            prefix_samples=640,
            chunk_samples=320,
            n_channels=16,
            batch=True,
            label="flowcell-A",
            backend="numpy",
            workers=4,
        )
        assert config.to_dict()["label"] == "flowcell-A"
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_hardware_accepts_mapping(self):
        config = RunConfig(hardware={"distance": "absolute", "match_bonus": 0.0})
        assert config.hardware == SDTWConfig(distance="absolute", match_bonus=0.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="n_channel"):
            RunConfig.from_dict({"n_channel": 4})
        with pytest.raises(ValueError, match="^tile_columns"):
            RunConfig.from_dict({"tile_columns": 64})
        with pytest.raises(ValueError, match="^tune_budget_s"):
            RunConfig.from_dict({"tune_budget_s": 2.0})
        with pytest.raises(ValueError, match="^tune: "):
            RunConfig.from_dict({"tune": {}})
        with pytest.raises(ValueError, match="^backend_options: "):
            RunConfig.from_dict({"backend_options": {"workers": 2}})
        with pytest.raises(ValueError, match="^lb_level: "):
            RunConfig.from_dict({"lb_level": 2})

    def test_prebuilt_reference_not_serializable(self, reference_squiggle):
        config = RunConfig(reference=reference_squiggle)
        with pytest.raises(ValueError, match="reference"):
            config.to_dict()

    def test_json_file_roundtrip(self, tmp_path):
        config = RunConfig(genome="ACGT" * 200, workers=2)
        path = tmp_path / "run.json"
        config.to_file(path)
        assert RunConfig.from_file(path) == config
        assert json.loads(path.read_text())["workers"] == 2

    def test_yaml_file_roundtrip(self, tmp_path):
        pytest.importorskip("yaml")
        config = RunConfig(genome="ACGT" * 200, n_channels=4)
        path = tmp_path / "run.yaml"
        config.to_file(path)
        assert RunConfig.from_file(path) == config


# -------------------------------------------------------- session lifecycle
def _chunk(read_id, signal, start=0, channel=0, number=0, last=False):
    return SignalChunk(
        channel=channel,
        read_id=read_id,
        read_number=number,
        chunk_start_sample=start,
        signal_pa=np.asarray(signal, dtype=np.float64),
        is_last=last,
    )


class TestSessionLifecycle:
    def _config(self, reference_squiggle, **overrides):
        base = dict(reference=reference_squiggle, threshold=1e9, prefix_samples=400)
        base.update(overrides)
        return RunConfig(**base)

    def test_backend_not_spawned_until_first_submit(
        self, reference_squiggle, target_signals
    ):
        with open_session(self._config(reference_squiggle)) as session:
            assert not session.started
            assert session.engine is None
            actions = session.submit(
                [_chunk("r0", target_signals[0][:400], last=True)]
            )
            assert session.started
            assert session.engine is not None
            assert len(actions) == 1 and actions[0].is_terminal

    def test_calibrate_does_not_spawn_the_backend(
        self, reference_squiggle, target_signals, nontarget_signals
    ):
        with open_session(
            self._config(reference_squiggle, threshold=None)
        ) as session:
            threshold = session.calibrate(target_signals, nontarget_signals)
            assert threshold == session.threshold
            assert not session.started

    def test_double_close_is_idempotent(self, reference_squiggle):
        session = open_session(self._config(reference_squiggle))
        session.close()
        session.close()
        assert session.closed is True

    def test_reuse_after_close_raises(self, reference_squiggle, target_signals):
        session = open_session(self._config(reference_squiggle))
        session.submit([_chunk("r0", target_signals[0][:400], last=True)])
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.submit([_chunk("r1", target_signals[0][:400], last=True)])
        with pytest.raises(RuntimeError, match="closed"):
            session.classifier
        with pytest.raises(RuntimeError, match="closed"):
            session.calibrate([], [])

    def test_context_manager_closes_on_exception(self, reference_squiggle):
        with pytest.raises(KeyError):
            with open_session(self._config(reference_squiggle)) as session:
                raise KeyError("boom")
        with pytest.raises(RuntimeError, match="closed"):
            session.submit([])

    def test_failing_round_closes_the_session(
        self, reference_squiggle, target_signals
    ):
        # No threshold configured -> the round raises inside the classifier;
        # the session must close itself so nothing leaks, then refuse reuse.
        session = open_session(self._config(reference_squiggle, threshold=None))
        with pytest.raises(ValueError, match="threshold"):
            session.submit([_chunk("r0", target_signals[0][:400], last=True)])
        with pytest.raises(RuntimeError, match="closed"):
            session.submit([_chunk("r1", target_signals[0][:400], last=True)])

    def test_summary_tallies_decisions(self, reference_squiggle, target_signals):
        with open_session(self._config(reference_squiggle, n_channels=2)) as session:
            session.submit(
                [
                    _chunk("r0", target_signals[0][:400], last=True),
                    _chunk("r1", target_signals[1][:400], channel=1, last=True),
                ]
            )
            summary = session.summary()
        assert summary["rounds"] == 1
        assert summary["accepts"] + summary["ejects"] == 2
        assert summary["backend"] == "numpy"
        assert summary["peak_batch_lanes"] == 2

    def test_session_without_reference_spec_fails_on_first_use(self):
        with open_session(RunConfig(threshold=1e9)) as session:
            with pytest.raises(ValueError, match="reference"):
                session.submit([_chunk("r0", np.ones(10), last=True)])

    def test_summary_reports_the_config_label(
        self, reference_squiggle, target_signals
    ):
        with open_session(
            self._config(reference_squiggle, label="flowcell-A")
        ) as session:
            session.submit([_chunk("r0", target_signals[0][:400], last=True)])
            assert session.label == "flowcell-A"
            assert session.summary()["label"] == "flowcell-A"
        # Unlabeled sessions don't grow the key.
        with open_session(self._config(reference_squiggle)) as session:
            assert "label" not in session.summary()

    @pytest.mark.parametrize("backend,extra", SESSION_BACKENDS, ids=SESSION_IDS)
    def test_use_after_close_raises_session_closed_error(
        self, reference_squiggle, target_signals, backend, extra
    ):
        """Satellite contract: after close(), submit() and summary() raise
        the same documented SessionClosedError on every registered backend
        (which is-a RuntimeError, so existing handlers keep working)."""
        config = self._config(reference_squiggle, backend=backend, **extra)
        session = open_session(config)
        try:
            session.submit([_chunk("r0", target_signals[0][:400], last=True)])
        finally:
            session.close()
        assert session.closed
        with pytest.raises(SessionClosedError, match="closed"):
            session.submit([_chunk("r1", target_signals[0][:400], last=True)])
        with pytest.raises(SessionClosedError, match="closed"):
            session.summary()
        assert issubclass(SessionClosedError, RuntimeError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_chunk_rejected_before_any_read_begins(
        self, reference_squiggle, target_signals, bad
    ):
        """A NaN/±inf sample fails the round with a field-named ValueError
        naming the read — before any read of the round begins — and the
        session stays open to decide the next valid round."""
        poisoned = np.asarray(target_signals[0][:400], dtype=np.float64).copy()
        poisoned[17] = bad
        with open_session(self._config(reference_squiggle)) as session:
            with pytest.raises(ValueError, match="^signal_pa: .*'r-bad'"):
                session.submit(
                    [
                        _chunk("r-good", target_signals[1][:400], channel=1, last=True),
                        _chunk("r-bad", poisoned, last=True),
                    ]
                )
            assert not session.closed
            assert not session.started  # no read of the bad round was begun
            actions = session.submit([_chunk("r0", target_signals[0][:400], last=True)])
            assert len(actions) == 1 and actions[0].is_terminal
            assert session.summary()["rounds"] == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_chunk_rejected_on_the_fast_paths(
        self, reference_squiggle, target_signals, bad
    ):
        """The pipeline's fast path (session ``on_chunk_batch``) and the
        classifier's own ``on_chunk_batch`` reject a NaN/±inf round too,
        instead of turning it into a confident eject."""
        poisoned = np.full(400, bad)
        round_chunks = [
            _chunk("r-good", target_signals[1][:400], channel=1, last=True),
            _chunk("r-bad", poisoned, last=True),
        ]
        with BatchSquiggleClassifier(
            reference_squiggle, threshold=1e9, prefix_samples=400
        ) as classifier:
            with pytest.raises(ValueError, match="^signal_pa: .*'r-bad'"):
                classifier.on_chunk_batch(round_chunks)
            assert classifier.engine.n_active == 0  # no lane was admitted
        with open_session(self._config(reference_squiggle, n_channels=2)) as session:
            for chunk in round_chunks:
                session.begin_read(chunk.read_id)
            with pytest.raises(ValueError, match="^signal_pa: .*'r-bad'"):
                session.on_chunk_batch(round_chunks)

    @pytest.mark.parametrize("malformed", ["repeated_read", "two_d_signal"])
    def test_malformed_round_rejected_before_any_read_begins(
        self, reference_squiggle, target_signals, malformed
    ):
        """A round naming one read twice, or carrying a signal that is not
        1-D, fails with a field-named ValueError before any read begins; the
        session stays open and decides the next valid round."""
        signal = np.asarray(target_signals[0][:400], dtype=np.float64)
        if malformed == "repeated_read":
            bad_round = [
                _chunk("a", signal[:200]),
                _chunk("a", signal[200:], start=200, last=True),
            ]
            match = "^read_id: .*'a'"
        else:
            bad_round = [_chunk("a", signal.reshape(2, 200), last=True)]
            match = "^signal_pa: .*'a'"
        with open_session(self._config(reference_squiggle)) as session:
            with pytest.raises(ValueError, match=match):
                session.submit(bad_round)
            assert not session.closed
            assert not session.started  # no read of the bad round was begun
            actions = session.submit([_chunk("r0", signal, last=True)])
            assert len(actions) == 1 and actions[0].is_terminal
            assert session.summary()["rounds"] == 1

    def test_round_beyond_n_channels_rejected_before_any_read_begins(
        self, reference_squiggle, target_signals
    ):
        """A round that would leave more reads in flight than the session
        has channels fails with a field-named ValueError before any of its
        reads begins, so the engine never grows; the session stays open."""
        signal = target_signals[0][:400]
        with open_session(self._config(reference_squiggle)) as session:
            session.submit([_chunk("r0", signal, last=True)])
            capacity = session.engine.capacity
            flood = [_chunk(f"flood{i}", signal, last=True) for i in range(4096)]
            with pytest.raises(ValueError, match="^n_channels: .*4096 reads"):
                session.submit(flood)
            assert session.engine.capacity == capacity
            assert session.engine.n_active == 0
            # One undecided read occupies the only channel: a second read
            # cannot begin until the first is decided.
            session.submit([_chunk("r1", signal[:200])])
            with pytest.raises(ValueError, match="^n_channels"):
                session.submit([_chunk("r2", signal, last=True)])
            actions = session.submit([_chunk("r1", signal[200:], start=200, last=True)])
            assert actions[0].is_terminal
            actions = session.submit([_chunk("r2", signal, last=True)])
            assert actions[0].is_terminal
            assert not session.closed

    def test_concurrent_submit_from_second_thread_raises(
        self, reference_squiggle, target_signals
    ):
        """Sessions are single-writer: while one thread's round is in
        flight, a second thread's submit fails loudly instead of corrupting
        lane state."""
        session = open_session(self._config(reference_squiggle))
        in_round = threading.Event()
        release = threading.Event()

        real_on_chunk_batch = type(session).on_chunk_batch

        def slow_round(self_, chunks):
            result = real_on_chunk_batch(self_, chunks)
            in_round.set()
            release.wait(timeout=10.0)
            return result

        try:
            type(session).on_chunk_batch = slow_round  # type: ignore[method-assign]

            def first_submit():
                session.submit([_chunk("r0", target_signals[0][:400], last=True)])

            worker = threading.Thread(target=first_submit)
            worker.start()
            assert in_round.wait(timeout=10.0)
            with pytest.raises(RuntimeError, match="single-writer"):
                session.submit(
                    [_chunk("r1", target_signals[1][:400], last=True)]
                )
            release.set()
            worker.join(timeout=10.0)
            assert not worker.is_alive()
        finally:
            release.set()
            type(session).on_chunk_batch = real_on_chunk_batch  # type: ignore[method-assign]
            session.close()
        # The lock is released once the in-flight round finished: a fresh
        # session accepts submissions again (closed above, so just re-open).
        with open_session(self._config(reference_squiggle)) as fresh:
            fresh.submit([_chunk("r2", target_signals[0][:400], last=True)])


# ------------------------------------------------------ acceptance property
@pytest.fixture(scope="module")
def runtime_flowcell_reads(mixture, kmer_model):
    generator = ReadGenerator(
        mixture,
        kmer_model=kmer_model,
        length_model=ReadLengthModel(
            mean_bases=300, sigma=0.15, min_bases=220, max_bases=500
        ),
        seed=20260729,
    )
    reads = [generator.generate_one(source="virus") for _ in range(6)]
    reads += [generator.generate_one(source="host") for _ in range(18)]
    return reads


@pytest.fixture(scope="module")
def runtime_threshold(reference_squiggle, target_signals, nontarget_signals):
    classifier = BatchSquiggleClassifier(reference_squiggle, prefix_samples=800)
    return classifier.calibrate(
        target_signals, nontarget_signals, chunk_samples=400
    )


def _decision_fields(result):
    return {
        outcome.read.read_id: (
            outcome.ejected,
            outcome.decision.cost if outcome.decision else None,
            outcome.decision.samples_used if outcome.decision else None,
            outcome.decision.end_position if outcome.decision else None,
            outcome.decision.target if outcome.decision else None,
        )
        for outcome in result.session.outcomes
    }


class TestSessionBitIdentity:
    def test_seeded_flowcell_identical_through_every_entry_point(
        self,
        reference_squiggle,
        target_genome,
        runtime_threshold,
        runtime_flowcell_reads,
    ):
        """Acceptance: the seeded 8-channel flowcell decides identically
        through the legacy classifier+pipeline entry point and through
        ReadUntilSession, on every registered backend."""
        legacy = BatchSquiggleClassifier(
            reference_squiggle, threshold=runtime_threshold, prefix_samples=800
        )
        baseline = _decision_fields(
            ReadUntilPipeline(
                legacy,
                target_genome,
                assemble=False,
                chunk_samples=400,
                n_channels=8,
                batch=True,
            ).run(runtime_flowcell_reads)
        )
        assert len(baseline) == len(runtime_flowcell_reads)

        for backend, extra in SESSION_BACKENDS:
            config = session_config(
                reference_squiggle, runtime_threshold, backend=backend, **extra
            )
            with open_session(config) as session:
                result = session.run(
                    runtime_flowcell_reads, target_genome=target_genome
                )
            assert result.streaming["backend"] == backend, backend
            assert _decision_fields(result) == baseline, backend

    def test_build_pipeline_accepts_a_run_config(
        self,
        reference_squiggle,
        target_genome,
        runtime_threshold,
        runtime_flowcell_reads,
    ):
        legacy = BatchSquiggleClassifier(
            reference_squiggle, threshold=runtime_threshold, prefix_samples=800
        )
        baseline = _decision_fields(
            ReadUntilPipeline(
                legacy,
                target_genome,
                assemble=False,
                chunk_samples=400,
                n_channels=8,
                batch=True,
            ).run(runtime_flowcell_reads)
        )
        pipeline = build_pipeline(
            session_config(reference_squiggle, runtime_threshold)
        )
        try:
            result = pipeline.run(runtime_flowcell_reads)
        finally:
            pipeline.classifier.close()
        assert isinstance(pipeline.classifier, ReadUntilSession)
        assert _decision_fields(result) == baseline


# ------------------------------------------------------------ backend="auto"
class TestAutoBackend:
    @pytest.mark.parametrize(
        "cores,n_channels,expected",
        [
            (1, 1, ("numpy", 1, True, True)),
            (1, 2, ("numpy", 1, True, True)),
            (1, 64, ("numpy", 1, True, True)),
            (2, 1, ("numpy", 2, True, True)),
            (2, 2, ("numpy", 2, True, True)),
            (2, 64, ("numpy", 2, True, True)),
            (4, 1, ("numpy", 4, True, True)),
            (4, 2, ("numpy", 4, True, True)),
            (4, 64, ("numpy", 4, True, True)),
            (16, 64, ("numpy", 8, True, True)),
        ],
    )
    def test_rule_table(self, monkeypatch, cores, n_channels, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        resolved = resolve_auto(RunConfig(backend="auto", n_channels=n_channels))
        assert (
            resolved.backend,
            resolved.workers,
            resolved.prune,
            resolved.lb_cascade,
        ) == expected

    def test_default_worker_count_uses_every_usable_core(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        workers = resolve_auto(RunConfig(backend="auto")).workers
        assert workers == 2
        backend = NumpyBackend(
            np.arange(64, dtype=np.int64) % 9, SDTWConfig.hardware(), workers=workers
        )
        try:
            assert backend.workers == 2
        finally:
            backend.close()

    def test_auto_decisions_bit_identical_to_pinned(
        self,
        reference_squiggle,
        target_genome,
        runtime_threshold,
        runtime_flowcell_reads,
    ):
        """Acceptance: the seeded 8-channel flowcell decides identically
        with backend='auto' (whatever point the rule picks) and with the
        chosen backend pinned by hand."""
        auto_config = session_config(
            reference_squiggle, runtime_threshold, backend="auto"
        )
        with open_session(auto_config) as session:
            auto_result = session.run(
                runtime_flowcell_reads, target_genome=target_genome
            )
            auto = session.auto
            assert auto is not None
            summary = session.summary()
        assert summary["backend"] == auto["backend"]
        assert summary["auto"]["backend"] == auto["backend"]

        pinned_config = session_config(
            reference_squiggle,
            runtime_threshold,
            backend=auto["backend"],
            workers=auto["workers"],
            prune=auto["prune"],
            lb_cascade=auto["lb_cascade"],
        )
        with open_session(pinned_config) as session:
            pinned_result = session.run(
                runtime_flowcell_reads, target_genome=target_genome
            )
        assert _decision_fields(auto_result) == _decision_fields(pinned_result)

        # And identical to plain brute-force numpy: the rule may only change
        # speed, never a decision.
        numpy_config = session_config(reference_squiggle, runtime_threshold)
        with open_session(numpy_config) as session:
            numpy_result = session.run(
                runtime_flowcell_reads, target_genome=target_genome
            )
        assert _decision_fields(auto_result) == _decision_fields(numpy_result)

    def test_backend_name_before_and_after_resolution(
        self, reference_squiggle, runtime_threshold
    ):
        """auto resolves when the session opens: the backend is concrete
        before anything spawns, and spawning does not change it."""
        config = session_config(reference_squiggle, runtime_threshold, backend="auto")
        with open_session(config) as session:
            resolved = session.backend_name
            assert resolved != "auto"
            assert not session.started
            session.classifier
            assert session.backend_name == resolved


# ----------------------------------------------------- classifier run_config
class TestDeprecationShims:
    def test_classifier_default_construction_does_not_warn(self, reference_squiggle):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            BatchSquiggleClassifier(
                reference_squiggle, threshold=1e9, prefix_samples=400
            ).close()

    def test_classifier_consumes_run_config_fields(self, reference_squiggle):
        """run_config supplies threshold/prefix/hardware unless a kwarg
        explicitly overrides them — the migration table's contract."""
        config = RunConfig(
            threshold=123.0,
            prefix_samples=640,
            hardware=SDTWConfig.hardware().with_(match_bonus=0.0),
        )
        with BatchSquiggleClassifier(reference_squiggle, run_config=config) as classifier:
            assert classifier.threshold == 123.0
            assert classifier.prefix_samples == 640
            assert classifier.config == config.hardware
        with BatchSquiggleClassifier(
            reference_squiggle, run_config=config, prefix_samples=320
        ) as classifier:
            assert classifier.prefix_samples == 320


# ---------------------------------------------------------------------- CLI
class TestCliRunConfig:
    def test_config_dump_resolves_file_and_flags(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.json"
        RunConfig(prefix_samples=800, n_channels=4).to_file(path)
        exit_code = main(
            [
                "config-dump",
                "--config",
                str(path),
                "--backend",
                "numpy",
                "--workers",
                "2",
                "--prefix-samples",
                "500",
            ]
        )
        assert exit_code == 0
        dumped = json.loads(capsys.readouterr().out)
        # flag > file > default
        assert dumped["backend"] == "numpy"
        assert dumped["workers"] == 2
        assert dumped["prefix_samples"] == 500
        assert dumped["n_channels"] == 4

    def test_config_dump_resolve_pins_the_auto_point(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        exit_code = main(
            ["config-dump", "--backend", "auto", "--n-channels", "64", "--resolve"]
        )
        assert exit_code == 0
        dumped = json.loads(capsys.readouterr().out)
        assert (
            dumped["backend"],
            dumped["workers"],
            dumped["prune"],
            dumped["lb_cascade"],
        ) == ("numpy", 2, True, True)

    def test_config_dump_rejects_invalid_config(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.json"
        path.write_text(json.dumps({"backend": "tpu"}))
        assert main(["config-dump", "--config", str(path)]) == 2
        assert "backend" in capsys.readouterr().err

    def test_read_until_runs_from_config_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.json"
        RunConfig(
            prefix_samples=500, chunk_samples=250, n_channels=4, batch=True
        ).to_file(path)
        exit_code = main(
            [
                "read-until",
                "--config",
                str(path),
                "--n-reads",
                "10",
                "--target-length",
                "800",
                "--background-length",
                "3000",
                "--calibration-reads-per-class",
                "5",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "batch_squigglefilter" in output
        assert "numpy" in output