"""The two run shapes: untraced (end-to-end metrics) and traced (per-layer).

An untraced run sets up ``SETUP_REPEATS`` times (the median is ``setup_s``),
then replays for the whole ``--seconds`` on the last set-up. A traced run sets
up once with spans, replays untraced for half the time, then replays the
same number of rounds on a fresh session with every layer spanned; the two
wall clocks give ``trace.overhead_frac``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.obs.export import format_phase_table, load_trace, phase_table
from repro.runtime import open_session

from perfbench.layers import (
    SpanRecorder,
    instrumented,
    instrumented_setup,
    kernel_path_counter,
    layer_metrics,
)
from perfbench.replay import (
    close_tenants,
    open_tenants,
    replay_local,
    replay_served,
    setup_local,
    setup_served,
)
from perfbench.workloads import WorkloadInputs

__all__ = ["Outcome", "run_local", "run_served"]

SETUP_REPEATS = 3


class Outcome:
    """What one workload run measured, before verification."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.threshold = 0.0
        self.replays: List[Any] = []  # every replay of the run; the last one is measured
        self.replay_configs: List[List[Any]] = []  # per replay, each tenant's served config
        self.summaries: List[Mapping[str, Any]] = []
        self.layers: Optional[Dict[str, float]] = None
        self.kernel_calls: Dict[str, int] = {}
        self.trace_file: Optional[Path] = None
        self.phase_table = ""

    def finish_trace(self, recorder: SpanRecorder, path: Path, metadata: Mapping[str, Any]) -> None:
        """Export the traced replay and render it the way ``repro trace`` does."""
        path.parent.mkdir(parents=True, exist_ok=True)
        recorder.export(str(path), metadata)
        self.trace_file = path
        self.phase_table = format_phase_table(phase_table(load_trace(str(path))))


def run_local(inputs: WorkloadInputs, seconds: float, trace_path: Optional[Path]) -> Outcome:
    """One local workload run; traced when ``trace_path`` is given."""
    outcome = Outcome()
    if trace_path is None:
        session = None
        for _ in range(SETUP_REPEATS):
            if session is not None:
                session.close()
            session, took = setup_local(inputs)
            outcome.setup_s.append(took)
        outcome.threshold = float(session.threshold)
        with session, kernel_path_counter(outcome.kernel_calls):
            outcome.replays.append(replay_local(inputs, session, seconds=seconds))
        return outcome

    setup_recorder, replay_recorder = SpanRecorder(), SpanRecorder()
    with instrumented_setup(setup_recorder):
        session, took = setup_local(inputs, tracer=setup_recorder.thread_tracer())
    outcome.setup_s.append(took)
    outcome.threshold = float(session.threshold)
    with session, kernel_path_counter(outcome.kernel_calls):
        untraced = replay_local(inputs, session, seconds=seconds / 2)
    with open_session(inputs.config.with_(threshold=outcome.threshold)) as second:
        second.classifier  # noqa: B018 - spawn before the traced replay starts
        with kernel_path_counter(outcome.kernel_calls), instrumented(replay_recorder):
            traced = replay_local(
                inputs, second, max_rounds=untraced.attempted, tracer=replay_recorder.thread_tracer()
            )
        outcome.summaries = [second.summary()]
    outcome.replays = [untraced, traced]
    outcome.layers = layer_metrics(
        replay_recorder,
        setup_recorder,
        outcome.summaries,
        chunks=traced.chunks,
        retries_429=0,
        untraced_wall_s=untraced.wall_s,
        traced_wall_s=traced.wall_s,
    )
    outcome.finish_trace(replay_recorder, trace_path, {"workload": inputs.spec.name})
    return outcome


async def _shut_down(tenants: Any) -> List[Mapping[str, Any]]:
    try:
        return await close_tenants(tenants)
    finally:
        tenants.server.__exit__(None, None, None)


async def run_served(inputs: WorkloadInputs, seconds: float, trace_path: Optional[Path]) -> Outcome:
    """One served workload run; traced when ``trace_path`` is given."""
    outcome = Outcome()
    if trace_path is None:
        tenants = None
        for _ in range(SETUP_REPEATS):
            if tenants is not None:
                await _shut_down(tenants)
            tenants, outcome.threshold, took = await setup_served(inputs)
            outcome.setup_s.append(took)
        try:
            with kernel_path_counter(outcome.kernel_calls):
                outcome.replays.append(await replay_served(inputs, tenants, seconds=seconds))
            outcome.replay_configs.append(tenants.configs)
        finally:
            await _shut_down(tenants)
        return outcome

    setup_recorder, replay_recorder = SpanRecorder(), SpanRecorder()
    with instrumented_setup(setup_recorder):
        tenants, outcome.threshold, took = await setup_served(
            inputs, tracer=setup_recorder.thread_tracer()
        )
    outcome.setup_s.append(took)
    try:
        with kernel_path_counter(outcome.kernel_calls):
            untraced = await replay_served(inputs, tenants, seconds=seconds / 2)
        await close_tenants(tenants)
        second = await open_tenants(tenants.server, inputs, outcome.threshold)
        with kernel_path_counter(outcome.kernel_calls), instrumented(replay_recorder):
            traced = await replay_served(
                inputs, second, max_rounds=untraced.rounds_per_tenant, recorder=replay_recorder
            )
        outcome.summaries = await close_tenants(second)
    finally:
        tenants.server.__exit__(None, None, None)
    outcome.replays = [untraced, traced]
    outcome.replay_configs = [tenants.configs, second.configs]
    outcome.layers = layer_metrics(
        replay_recorder,
        setup_recorder,
        outcome.summaries,
        chunks=traced.chunks,
        retries_429=traced.retries_429,
        untraced_wall_s=untraced.wall_s,
        traced_wall_s=traced.wall_s,
    )
    outcome.finish_trace(replay_recorder, trace_path, {"workload": inputs.spec.name})
    return outcome
