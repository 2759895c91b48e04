"""Outside-in per-layer tracing: spans around public calls into each layer.

Nothing inside ``src/`` is instrumented for the benchmark. :func:`instrumented`
temporarily wraps the public entry point of every layer the replay passes
through -- ``ReadUntilSession.submit``, ``BatchSquiggleClassifier.on_chunk_batch``,
``SignalNormalizer.normalize``/``quantize``, ``BatchSDTWEngine.step``,
``NumpyBackend.advance``, ``sdtw_resume_batch`` as ``repro.batch.backends``
calls it, and on the serve path ``AsyncServeClient.submit_round`` and
``BackendPool.acquire`` -- with spans in :class:`repro.obs.Tracer` objects,
and restores the originals on exit.

A tracer keeps one LIFO span stack, so :class:`SpanRecorder` holds one tracer
per stack: one per thread for synchronous calls, one per tenant for
coroutines that interleave on one event loop. Self times come from the
tracers (span minus child spans); the replay's own ``bench.replay`` root span
has as self time exactly the wall clock no layer covers.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Hashable, Iterator, List, Mapping, Optional

import repro.batch.backends as backends_module
import repro.core.sdtw as sdtw_module
from repro.batch.backends import NumpyBackend
from repro.batch.classifier import BatchSquiggleClassifier
from repro.batch.engine import BatchSDTWEngine
from repro.core.normalization import SignalNormalizer
from repro.obs.export import write_chrome_trace
from repro.obs.trace import PhaseStat, Tracer
from repro.runtime import ReadUntilSession, RunConfig
from repro.serve.app import ServeApp
from repro.serve.client import AsyncServeClient
from repro.serve.pool import BackendPool

__all__ = [
    "PER_LAYER",
    "SpanRecorder",
    "instrumented",
    "instrumented_setup",
    "kernel_path_counter",
    "layer_metrics",
    "not_applicable",
]

# (name, unit, better): the per-layer metrics of BENCHMARK.json, in report order.
PER_LAYER = (
    ("sequencer.poll_s", "s", "lower"),
    ("runtime.submit_s", "s", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("runtime.rounds", "count", "higher"),
    ("setup.panel_s", "s", "lower"),
    ("setup.calibrate_s", "s", "lower"),
    ("setup.spawn_s", "s", "lower"),
    ("classifier.prepare_s", "s", "lower"),
    ("classifier.self_s", "s", "lower"),
    ("classifier.chunks", "count", "higher"),
    ("engine.step_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.lanes", "count", "higher"),
    ("engine.lanes_lb_skipped", "count", "higher"),
    ("engine.lb_skip_ratio", "ratio", "higher"),
    ("backend.advance_s", "s", "lower"),
    ("backend.self_s", "s", "lower"),
    ("backend.advances", "count", "higher"),
    ("kernel.s", "s", "lower"),
    ("kernel.cells_nominal", "count", "higher"),
    ("kernel.cells_advanced", "count", "lower"),
    ("kernel.cells_pruned", "count", "higher"),
    ("kernel.skip_ratio", "ratio", "higher"),
    ("kernel.effective_cells_per_s", "1/s", "higher"),
    ("serve.client_s", "s", "lower"),
    ("serve.pool_wait_s", "s", "lower"),
    ("serve.server_round_s", "s", "lower"),
    ("serve.wire_s", "s", "lower"),
    ("serve.retries_429", "count", "lower"),
    ("serve.request_bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

_SERVE_ONLY = tuple(name for name, _, _ in PER_LAYER if name.startswith("serve."))
_LB_ONLY = ("engine.lanes_lb_skipped", "engine.lb_skip_ratio")
_PRUNE_ONLY = ("kernel.cells_pruned", "kernel.skip_ratio")


def not_applicable(config: RunConfig, served: bool) -> List[str]:
    """Per-layer metrics that cannot be non-trivial on this workload (reported as 0)."""
    skipped: List[str] = []
    if not served:
        skipped.extend(_SERVE_ONLY)
    if not config.lb_cascade:
        skipped.extend(_LB_ONLY)
    if not config.prune:
        skipped.extend(_PRUNE_ONLY)
    return skipped


class SpanRecorder:
    """One :class:`Tracer` per span stack (thread or tenant), plus counters."""

    def __init__(self) -> None:
        self._tracers: Dict[Hashable, Tracer] = {}
        self._names: Dict[Hashable, str] = {}
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {}

    def name(self, key: Hashable, track: str) -> None:
        """Give the tracer of ``key`` a readable track name."""
        self._names[key] = track

    def tracer(self, key: Hashable) -> Tracer:
        tracer = self._tracers.get(key)
        if tracer is None:
            with self._lock:
                tracer = self._tracers.get(key)
                if tracer is None:
                    track = self._names.get(key, str(key))
                    tracer = self._tracers[key] = Tracer(track=track)
        return tracer

    def thread_tracer(self) -> Tracer:
        return self.tracer(threading.current_thread().name)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(amount)

    def totals(self) -> Dict[str, PhaseStat]:
        """Per-span-name count/total/self summed over every tracer."""
        merged: Dict[str, List[float]] = {}
        for tracer in list(self._tracers.values()):
            for name, stat in tracer.phase_totals().items():
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += stat.count
                entry[1] += stat.total_s
                entry[2] += stat.self_s
        return {
            name: PhaseStat(count=int(c), total_s=t, self_s=s)
            for name, (c, t, s) in merged.items()
        }

    def by_tracer(self, name: str) -> Dict[str, float]:
        """Total seconds of span ``name`` per track."""
        return {
            tracer.track: tracer.total_s(name)
            for tracer in list(self._tracers.values())
            if tracer.count(name)
        }

    def export(self, path: str, metadata: Mapping[str, Any]) -> None:
        """Write every track into one Chrome trace (``repro trace <path>`` reads it)."""
        merged = Tracer(track="perfbench")
        for tracer in list(self._tracers.values()):
            merged.merge_worker_records(
                [
                    (r.name, r.start_s, r.duration_s, r.self_s, r.depth)
                    for r in tracer.records()
                    if r.kind == "span"
                ],
                track=tracer.track,
            )
        write_chrome_trace(merged, path, metadata=dict(metadata))


def _sync_span(
    recorder: SpanRecorder,
    name: str,
    count: Optional[Callable[[tuple], int]] = None,
) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if count is not None:
                recorder.count(name, count(args))
            with recorder.thread_tracer().span(name):
                return original(*args, **kwargs)

        return wrapper

    return make


def _async_span(
    recorder: SpanRecorder, name: str, key: Callable[[tuple], Hashable]
) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            with recorder.tracer(key(args)).span(name):
                return await original(*args, **kwargs)

        return wrapper

    return make


def _request_bytes(recorder: SpanRecorder) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        async def wrapper(self: Any, method: str, path: str, body: bytes) -> Any:
            if path.rstrip("/").endswith("/rounds"):
                recorder.count("serve.request_bytes", len(body))
            return await original(self, method, path, body)

        return wrapper

    return make


@contextmanager
def _patched(patches: List[tuple]) -> Iterator[None]:
    """Replace ``owner.name`` with ``make(original)`` for each patch; undo on exit."""
    applied = []
    try:
        for owner, name, make in patches:
            original = owner.__dict__[name]
            setattr(owner, name, make(original))
            applied.append((owner, name, original))
        yield
    finally:
        for owner, name, original in reversed(applied):
            setattr(owner, name, original)


def instrumented(recorder: SpanRecorder):
    """Span every layer's public entry point into ``recorder`` (replay phase)."""
    return _patched(
        [
            (ReadUntilSession, "submit", _sync_span(recorder, "runtime.submit")),
            (
                BatchSquiggleClassifier,
                "on_chunk_batch",
                _sync_span(recorder, "classifier.on_chunk_batch"),
            ),
            (SignalNormalizer, "normalize", _sync_span(recorder, "classifier.normalize")),
            (SignalNormalizer, "quantize", _sync_span(recorder, "classifier.quantize")),
            (
                BatchSDTWEngine,
                "step",
                _sync_span(recorder, "engine.step", count=lambda args: len(args[1])),
            ),
            (NumpyBackend, "advance", _sync_span(recorder, "backend.advance")),
            (
                backends_module,
                "sdtw_resume_batch",
                _sync_span(recorder, "kernel.sdtw_resume_batch"),
            ),
            (
                AsyncServeClient,
                "submit_round",
                _async_span(recorder, "serve.client", key=lambda args: args[0]),
            ),
            (
                BackendPool,
                "acquire",
                _async_span(recorder, "serve.pool_wait", key=lambda args: f"pool:{args[1]}"),
            ),
            (ServeApp, "handle", _request_bytes(recorder)),
        ]
    )


def instrumented_setup(recorder: SpanRecorder):
    """Span the panel build wherever it runs (setup phase)."""
    return _patched([(RunConfig, "resolve_panel", _sync_span(recorder, "setup.panel"))])


@contextmanager
def kernel_path_counter(counts: Dict[str, int]) -> Iterator[None]:
    """Count which wavefront path ran: the int32 fast path or the int64/float one."""

    lock = threading.Lock()  # served rounds advance on several pool threads

    def counting(key: str) -> Callable[[Callable], Callable]:
        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with lock:
                    counts[key] = counts.get(key, 0) + 1
                return original(*args, **kwargs)

            return wrapper

        return make

    with _patched(
        [
            (sdtw_module, "_advance_batch_int32", counting("int32")),
            (sdtw_module, "_advance_batch_generic", counting("int64_or_float")),
        ]
    ):
        yield


def _total(totals: Mapping[str, PhaseStat], name: str) -> float:
    stat = totals.get(name)
    return stat.total_s if stat is not None else 0.0


def _self(totals: Mapping[str, PhaseStat], name: str) -> float:
    stat = totals.get(name)
    return stat.self_s if stat is not None else 0.0


def _count(totals: Mapping[str, PhaseStat], name: str) -> int:
    stat = totals.get(name)
    return stat.count if stat is not None else 0


# Every span name a replay records; their self times partition the wall clock.
REPLAY_SPANS = (
    "bench.replay",
    "sequencer.poll",
    "serve.client",
    "serve.pool_wait",
    "runtime.submit",
    "classifier.on_chunk_batch",
    "classifier.normalize",
    "classifier.quantize",
    "engine.step",
    "backend.advance",
    "kernel.sdtw_resume_batch",
)


def layer_metrics(
    replay: SpanRecorder,
    setup: SpanRecorder,
    summaries: List[Mapping[str, Any]],
    *,
    chunks: int,
    retries_429: int,
    untraced_wall_s: float,
    traced_wall_s: float,
) -> Dict[str, float]:
    """Every per-layer metric from one traced replay and one traced setup.

    ``trace.wall_s`` is the summed ``bench.replay`` span time: the replay's
    wall clock locally, tenant-seconds (tenants x wall) when served. The
    layer self times plus ``trace.unattributed_s`` add up to it exactly.
    """
    totals = replay.totals()
    unknown = sorted(set(totals) - set(REPLAY_SPANS))
    if unknown:
        raise RuntimeError(f"unexpected replay spans {unknown}")
    metrics: Dict[str, float] = {}
    metrics["sequencer.poll_s"] = _self(totals, "sequencer.poll")
    metrics["runtime.submit_s"] = _total(totals, "runtime.submit")
    metrics["runtime.self_s"] = _self(totals, "runtime.submit")
    metrics["runtime.rounds"] = _count(totals, "runtime.submit")

    setup_totals = setup.totals()
    server_side_panel = sum(
        seconds
        for track, seconds in setup.by_tracer("setup.panel").items()
        if track != "MainThread"
    )
    metrics["setup.panel_s"] = _total(setup_totals, "setup.panel")
    metrics["setup.calibrate_s"] = _self(setup_totals, "setup.calibrate")
    metrics["setup.spawn_s"] = _self(setup_totals, "setup.spawn") - server_side_panel

    metrics["classifier.prepare_s"] = _total(totals, "classifier.normalize") + _total(
        totals, "classifier.quantize"
    )
    metrics["classifier.self_s"] = _self(totals, "classifier.on_chunk_batch")
    metrics["classifier.chunks"] = chunks

    lanes = replay.counters.get("engine.step", 0)
    lb_skipped = sum(int(s.get("lanes_lb_skipped", 0)) for s in summaries)
    metrics["engine.step_s"] = _total(totals, "engine.step")
    metrics["engine.self_s"] = _self(totals, "engine.step")
    metrics["engine.lanes"] = lanes
    metrics["engine.lanes_lb_skipped"] = lb_skipped
    metrics["engine.lb_skip_ratio"] = lb_skipped / lanes if lanes else 0.0

    metrics["backend.advance_s"] = _total(totals, "backend.advance")
    metrics["backend.self_s"] = _self(totals, "backend.advance")
    metrics["backend.advances"] = _count(totals, "backend.advance")

    kernel_s = _total(totals, "kernel.sdtw_resume_batch")
    advanced = sum(int(s.get("cells_advanced", 0)) for s in summaries)
    pruned = sum(int(s.get("cells_pruned", 0)) for s in summaries)
    lb_cells = sum(int(s.get("cells_lb_skipped", 0)) for s in summaries)
    nominal = advanced + pruned + lb_cells
    metrics["kernel.s"] = kernel_s
    metrics["kernel.cells_nominal"] = nominal
    metrics["kernel.cells_advanced"] = advanced
    metrics["kernel.cells_pruned"] = pruned
    metrics["kernel.skip_ratio"] = (pruned + lb_cells) / nominal if nominal else 0.0
    metrics["kernel.effective_cells_per_s"] = nominal / kernel_s if kernel_s else 0.0

    client_s = _total(totals, "serve.client")
    pool_wait_s = _total(totals, "serve.pool_wait")
    server_round_s = metrics["runtime.submit_s"] if client_s else 0.0
    metrics["serve.client_s"] = client_s
    metrics["serve.pool_wait_s"] = pool_wait_s
    metrics["serve.server_round_s"] = server_round_s
    metrics["serve.wire_s"] = client_s - pool_wait_s - server_round_s if client_s else 0.0
    metrics["serve.retries_429"] = retries_429
    metrics["serve.request_bytes"] = replay.counters.get("serve.request_bytes", 0)

    wall = _total(totals, "bench.replay")
    unattributed = _self(totals, "bench.replay")
    layer_self = (
        metrics["sequencer.poll_s"]
        + metrics["serve.wire_s"]
        + pool_wait_s
        + metrics["runtime.self_s"]
        + metrics["classifier.prepare_s"]
        + metrics["classifier.self_s"]
        + metrics["engine.self_s"]
        + metrics["backend.self_s"]
        + kernel_s
    )
    if abs(layer_self + unattributed - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError(
            f"layer self times {layer_self:.6f} s + unattributed {unattributed:.6f} s "
            f"do not add up to the traced wall clock {wall:.6f} s"
        )
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = unattributed
    metrics["trace.unattributed_frac"] = unattributed / wall if wall else 0.0
    metrics["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
    return metrics
