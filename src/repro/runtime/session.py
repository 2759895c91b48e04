"""The Read Until session: one lifecycle object over one configured run.

:func:`open_session` turns a :class:`~repro.runtime.config.RunConfig` into a
:class:`ReadUntilSession` — the single runtime object pipelines, benchmarks
and the CLI drive. The session owns what used to be managed ad hoc at every
call site:

* **lazy backend creation** — nothing is built at ``open_session``; the
  classifier, engine and execution backend (with its kernel threads) come
  up on the first chunk submitted. ``backend="auto"`` is resolved at open
  by :func:`~repro.runtime.config.resolve_auto`'s fixed rule, so the
  backend is concrete before anything starts;
* **engine lifecycle** — the session is a context manager, ``close()`` is
  idempotent, a failure inside a round closes the session (no leaked
  threads when a run dies mid-stream), and any use after ``close()`` raises;
* **one streaming interface** — ``submit(round_chunks) -> decisions`` feeds
  one polling round through the batched wavefront; ``summary()`` reports the
  session's decision tallies and engine occupancy.

The session also speaks the
:class:`~repro.pipeline.api.ReadUntilClassifier` protocol (``begin_read`` /
``on_chunk`` / ``on_chunk_batch`` / ``end_read``), so
:class:`~repro.pipeline.read_until.ReadUntilPipeline` accepts it directly —
the pipeline, a benchmark loop calling :meth:`submit`, and the CLI are all
the same code path underneath. Decisions are bit-identical to driving the
pre-session entry points with the same configuration, whatever thread count
the config names.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core import ckernel
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer
from repro.runtime.config import RunConfig, resolve_auto
from repro.sequencer.read_until_api import check_round_chunks

if TYPE_CHECKING:  # imported lazily at runtime to keep open_session cheap
    from repro.batch.classifier import BatchSquiggleClassifier
    from repro.pipeline.api import Action
    from repro.pipeline.read_until import PipelineRunResult
    from repro.sequencer.read_until_api import SignalChunk
    from repro.sequencer.reads import Read

__all__ = ["ReadUntilSession", "SessionClosedError", "open_session"]


class SessionClosedError(RuntimeError):
    """Raised by every interaction with a closed :class:`ReadUntilSession`.

    The after-close contract is uniform whatever the backend and thread
    count: ``submit``, ``summary``, ``calibrate`` and ``classifier`` on a
    closed session raise this (a :class:`RuntimeError` subclass, so existing
    ``except RuntimeError`` callers keep working). Open a fresh session with
    :func:`open_session` instead of resurrecting a closed one.
    """


def open_session(config: RunConfig) -> "ReadUntilSession":
    """Open a :class:`ReadUntilSession` for one declarative run configuration.

    Cheap by design: the reference panel, classifier and execution backend
    are all created lazily when the first chunks arrive, so opening a
    session to validate a config (or to calibrate) costs nothing.
    """
    return ReadUntilSession(config)


class ReadUntilSession:
    """Streaming Read Until runtime for one :class:`RunConfig`.

    Use as a context manager (the backend's kernel threads are stopped on
    exit, including exceptional exit), or call
    :meth:`close` explicitly. A session whose round raises is closed on the
    spot — abandoning it cannot leak backend resources — and every
    interaction after ``close()`` raises :class:`SessionClosedError`.

    Sessions are **single-writer**: lane state advances in submission order,
    so one round must finish before the next begins. Submitting from a
    second thread while a round is in flight raises :class:`RuntimeError`
    immediately (it can never corrupt lane state), while :meth:`close` from
    another thread waits for the in-flight round — what a draining service
    wants. Callers that need concurrency open one session per tenant (see
    :mod:`repro.serve`).
    """

    supports_chunk_batching = True

    def __init__(self, config: RunConfig) -> None:
        self.config = resolve_auto(config)
        self._auto = config.backend == "auto"
        self._classifier: Optional["BatchSquiggleClassifier"] = None
        self._panel = None
        self._threshold = config.threshold
        self._closed = False
        self._n_rounds = 0
        self._decisions: Dict[str, int] = {"accept": 0, "eject": 0}
        self._per_target_accepts: Dict[str, int] = {}
        self._begun: set = set()
        # Observability: an enabled tracer only when the config asks for it,
        # so untraced sessions pay one `if` per hook. Round wall-clock is
        # accumulated unconditionally (two clock reads per round) because
        # summary() reports it in both modes.
        self._tracer = Tracer(track="session") if config.tracing_enabled else NULL_TRACER
        self._round_wall_s = 0.0
        # Reentrant so the close-on-error path inside a round can take it
        # again from the same thread; a *different* thread mid-round fails
        # the non-blocking acquire and raises instead of corrupting lanes.
        self._io_lock = threading.RLock()

    def _acquire_writer(self, verb: str) -> None:
        if not self._io_lock.acquire(blocking=False):
            raise RuntimeError(
                f"concurrent {verb} on one ReadUntilSession: sessions are "
                "single-writer (rounds advance lane state in order); "
                "serialize submissions or open one session per tenant"
            )

    # -------------------------------------------------------------- protocol
    @property
    def name(self) -> str:
        return f"session:{self.config.backend}"

    @property
    def decision_latency_s(self) -> float:
        from repro.pipeline.api import DEFAULT_HARDWARE_LATENCY_S

        return DEFAULT_HARDWARE_LATENCY_S

    @property
    def min_decision_samples(self) -> int:
        return self.config.prefix_samples

    @property
    def max_decision_samples(self) -> int:
        return self.config.prefix_samples

    @property
    def started(self) -> bool:
        """Whether the first submission has spawned the execution backend."""
        return self._classifier is not None

    @property
    def backend_name(self) -> str:
        """The backend this session runs (or will run) on; never ``"auto"``."""
        return self.config.backend

    @property
    def auto(self) -> Optional[Dict[str, Any]]:
        """The point ``backend="auto"`` resolved to when the session opened.

        ``{backend, workers, prune, lb_cascade}`` as chosen by
        :func:`~repro.runtime.config.resolve_auto`; ``None`` when the config
        pinned its backend.
        """
        if not self._auto:
            return None
        return {
            name: getattr(self.config, name)
            for name in ("backend", "workers", "prune", "lb_cascade")
        }

    @property
    def threshold(self) -> Optional[float]:
        return self._threshold

    @property
    def classifier(self) -> "BatchSquiggleClassifier":
        """The underlying batched classifier (spawning it if needed)."""
        return self._ensure_classifier()

    @property
    def engine(self):
        """The lane-manager engine once started (``None`` before the first
        submission) — what the pipeline's streaming summary reads occupancy
        from."""
        return self._classifier.engine if self._classifier is not None else None

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def label(self) -> Optional[str]:
        return self.config.label

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError(
                "session is closed; open_session(config) creates a fresh one"
            )

    def _resolve_panel(self):
        if self._panel is None:
            self._panel = self.config.resolve_panel()
        return self._panel

    def _ensure_classifier(self) -> "BatchSquiggleClassifier":
        self._check_open()
        if self._classifier is None:
            from repro.batch.classifier import BatchSquiggleClassifier

            self._classifier = BatchSquiggleClassifier(
                self._resolve_panel(),
                config=self.config.hardware,
                threshold=self._threshold,
                prefix_samples=self.config.prefix_samples,
                name=self.name,
                run_config=self.config,
                tracer=self._tracer,
            )
        return self._classifier

    # -------------------------------------------------------- streaming verbs
    def begin_read(self, read_id: str) -> None:
        self._begun.add(read_id)
        self._ensure_classifier().begin_read(read_id)

    def end_read(self, read_id: str) -> None:
        self._begun.discard(read_id)
        if self._classifier is not None and not self._closed:
            self._classifier.end_read(read_id)

    def on_chunk(self, chunk: "SignalChunk") -> "Action":
        return self.on_chunk_batch([chunk])[0]

    def on_chunk_batch(self, chunks: Sequence["SignalChunk"]) -> List["Action"]:
        """Classify one polling round (the pipeline's fast path).

        Any failure inside the round — an overflow, a bad chunk — closes the
        session before propagating, so an abandoned run never leaks the
        backend's threads.
        """
        self._acquire_writer("round submission")
        try:
            classifier = self._ensure_classifier()
            try:
                round_start_s = time.perf_counter()
                with self._tracer.span(
                    "session.round", round=self._n_rounds, n_chunks=len(chunks)
                ):
                    actions = classifier.on_chunk_batch(chunks)
                self._round_wall_s += time.perf_counter() - round_start_s
            except Exception:
                self.close()
                raise
        finally:
            self._io_lock.release()
        self._n_rounds += 1
        for chunk, action in zip(chunks, actions):
            if not action.is_terminal:
                continue
            self._begun.discard(chunk.read_id)
            self._decisions[action.kind] = self._decisions.get(action.kind, 0) + 1
            if action.kind == "accept" and action.target is not None:
                self._per_target_accepts[action.target] = (
                    self._per_target_accepts.get(action.target, 0) + 1
                )
        return actions

    def submit(self, round_chunks: Sequence["SignalChunk"]) -> List["Action"]:
        """Feed one polling round of chunks; returns one action per chunk.

        The direct-drive verb for benchmarks and custom loops: unseen read
        ids are begun automatically, then the whole round advances through
        one batched wavefront exactly as the pipeline's fast path would.

        A malformed round raises :class:`ValueError` before anything runs —
        no read of the round is begun, and the session stays open for the
        next (valid) round: a chunk whose signal is not 1-D or holds a NaN
        or infinite sample, a read with two chunks in the round (these
        errors name the read), and a round that would leave more reads in
        flight than ``n_channels``. A read is in flight from when it begins
        until it is decided or ended; each channel carries one at a time, so
        the cap bounds the engine's lanes.
        """
        self._check_open()
        check_round_chunks(round_chunks)
        self._acquire_writer("submit")
        try:
            in_flight = len(self._begun | {chunk.read_id for chunk in round_chunks})
            if in_flight > self.config.n_channels:
                raise ValueError(
                    f"n_channels: the round would leave {in_flight} reads in flight "
                    f"on a session of {self.config.n_channels} channel(s); decide or "
                    "end reads before beginning more"
                )
            for chunk in round_chunks:
                if chunk.read_id not in self._begun:
                    self.begin_read(chunk.read_id)
            return self.on_chunk_batch(round_chunks)
        finally:
            self._io_lock.release()

    # ------------------------------------------------------------ calibration
    def calibrate(
        self,
        target_signals: Sequence[np.ndarray],
        nontarget_signals: Sequence[np.ndarray],
        objective: str = "f1",
        target_recall: float = 0.95,
        chunk_samples: Optional[int] = None,
    ) -> float:
        """Choose the ejection threshold from labelled reads and store it.

        Runs in-process on a throwaway numpy-backend classifier (calibration
        is a one-shot sweep; costs are bit-identical on every backend), so
        calibrating never spawns the configured execution backend early.
        """
        self._check_open()
        from repro.batch.classifier import BatchSquiggleClassifier

        chunk = chunk_samples if chunk_samples is not None else self.config.chunk_samples
        with BatchSquiggleClassifier(
            self._resolve_panel(),
            config=self.config.hardware,
            prefix_samples=self.config.prefix_samples,
            run_config=self.config.with_(backend="numpy", workers=None),
        ) as helper:
            self._threshold = helper.calibrate(
                target_signals,
                nontarget_signals,
                objective=objective,
                target_recall=target_recall,
                chunk_samples=chunk,
            )
        if self._classifier is not None:
            self._classifier.threshold = self._threshold
        return self._threshold

    # -------------------------------------------------------------- reporting
    @property
    def tracer(self) -> Tracer:
        """The session's tracer (the shared disabled one unless the config traces)."""
        return self._tracer

    def trace(self) -> List[SpanRecord]:
        """Flight-recorder snapshot: every recorded span/instant, oldest first.

        Empty unless the config enables tracing (``trace=True`` or a
        ``trace_path``). When ``workers`` splits a round's lanes, each kernel
        thread's spans appear under its own track id (``numpy-thread-0``,
        …).
        """
        return self._tracer.records()

    def summary(self) -> Dict[str, Any]:
        """Decision tallies, wall-clock and engine occupancy for everything submitted.

        Always includes ``round_wall_s`` (total wall seconds spent inside
        round submissions); once the engine has spawned, ``n_polls`` and
        ``busy_rounds`` account idle vs busy polling rounds (running counts:
        the summary's size does not grow with the rounds run; the per-poll
        occupancy trace is ``engine.occupancy_trace``), and ``kernel``
        says which wavefront ran: ``compiled`` (whether the compiled C
        kernel is loaded in this process), ``c_calls`` and
        ``generic_calls`` (wavefront calls on the C kernel and on the numpy
        oracle, over every kernel thread) and ``dtype`` (the lane state's:
        ``"int32"``, or ``"int64"`` once a round has left the kernel's range
        and the storage has widened). With tracing
        enabled, ``phase_totals`` breaks the wall time down per span name
        (count / total / self seconds, from the tracer's accumulating view).
        A ``backend="auto"`` session adds the resolved point under ``auto``.

        Raises :class:`SessionClosedError` on a closed session — capture the
        summary before :meth:`close` (the serving layer does exactly that
        when a tenant deletes a session).
        """
        self._check_open()
        summary: Dict[str, Any] = {
            "backend": self.backend_name,
            "prefix_samples": self.config.prefix_samples,
            "n_channels": self.config.n_channels,
            "threshold": self._threshold,
            "rounds": self._n_rounds,
            "accepts": self._decisions.get("accept", 0),
            "ejects": self._decisions.get("eject", 0),
            "closed": self._closed,
            "round_wall_s": self._round_wall_s,
        }
        if self.config.label is not None:
            summary["label"] = self.config.label
        if self._auto:
            summary["auto"] = self.auto
        if self._per_target_accepts:
            summary["per_target_accepts"] = dict(self._per_target_accepts)
        if self._classifier is not None:
            engine = self._classifier.engine
            summary["targets"] = list(engine.target_names)
            summary["peak_batch_lanes"] = engine.peak_occupancy
            summary["mean_batch_lanes"] = engine.mean_occupancy
            summary["n_polls"] = engine.n_polls
            summary["busy_rounds"] = engine.busy_rounds
            summary["cells_advanced"] = engine.cells_advanced
            summary["cells_pruned"] = engine.cells_pruned
            summary["lanes_lb_skipped"] = engine.lanes_lb_skipped
            summary["cells_lb_skipped"] = engine.cells_lb_skipped
            stats = engine.backend.stats
            summary["kernel"] = {
                "compiled": ckernel.loaded(),
                "c_calls": stats.c_calls,
                "generic_calls": stats.generic_calls,
                "dtype": engine.backend.dtype,
            }
        if self._tracer.enabled:
            summary["phase_totals"] = {
                name: stat.as_dict()
                for name, stat in sorted(self._tracer.phase_totals().items())
            }
        return summary

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the classifier and its execution backend. Idempotent.

        From another thread, blocks until an in-flight round finishes — a
        draining service never tears a backend down under a live wavefront.
        """
        with self._io_lock:
            if self._closed:
                return
            self._closed = True
            try:
                if self.config.trace_path is not None and len(self._tracer):
                    from repro.obs.export import write_chrome_trace

                    metadata = {
                        "backend": self.backend_name,
                        "rounds": self._n_rounds,
                    }
                    if self.config.label is not None:
                        metadata["label"] = self.config.label
                    write_chrome_trace(self._tracer, self.config.trace_path, metadata=metadata)
            finally:
                # An unwritable trace path must never leak the backend's
                # threads; the export error propagates after teardown.
                if self._classifier is not None:
                    self._classifier.close()

    def __enter__(self) -> "ReadUntilSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ convenience
    def run(
        self,
        reads: Sequence["Read"],
        target_genome: Optional[str] = None,
        target_bases_goal: Optional[int] = None,
        assemble: bool = False,
        assembler: Any = None,
    ) -> "PipelineRunResult":
        """Stream ``reads`` through a full Read Until simulation.

        Builds a :class:`~repro.pipeline.read_until.ReadUntilPipeline` from
        this session's config (channel count, chunk geometry, batch mode)
        with the session itself as the classifier, so the pipeline and
        :meth:`submit` exercise the identical code path. ``target_genome``
        defaults to the config's ``genome`` and is only required when
        ``assemble`` is on.
        """
        self._check_open()
        from repro.pipeline.read_until import ReadUntilPipeline

        genome = target_genome if target_genome is not None else self.config.genome
        if assemble and genome is None:
            raise ValueError("assemble=True needs a target_genome to assemble against")
        pipeline = ReadUntilPipeline(
            self,
            genome,
            prefix_samples=self.config.prefix_samples,
            chunk_samples=self.config.chunk_samples,
            n_channels=self.config.n_channels,
            batch=self.config.batch if self.config.batch is not None else True,
            assemble=assemble,
            assembler=assembler,
        )
        return pipeline.run(reads, target_bases_goal=target_bases_goal)
