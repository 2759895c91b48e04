"""Set-up and closed-loop replay, locally and through ``repro.serve``.

The loop is closed: each tenant polls its flowcell, submits the round,
applies the returned actions (eject frees the pore, accept stops streaming)
and only then polls again. On a 2-core host the default path classifies at
about a tenth of real time, so an open loop at the sequencer's rate would
only measure backlog growth.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import NULL_TRACER, Tracer
from repro.pipeline.api import ACCEPT, EJECT, Action
from repro.runtime import ReadUntilSession, RunConfig, open_session
from repro.serve.app import BackgroundServer
from repro.serve.client import AsyncServeClient, ServeClientError
from repro.sequencer.read_until_api import SignalChunk

from perfbench.layers import SpanRecorder
from perfbench.workloads import WorkloadInputs, read_stream

__all__ = [
    "Decision",
    "ReplayResult",
    "ServedTenants",
    "calibrated_threshold",
    "close_tenants",
    "open_tenants",
    "replay_local",
    "replay_served",
    "setup_local",
    "setup_served",
]

# Pool slots of the in-process server: one per tenant, and one per core of a
# 2-core host.
SERVE_POOL_SLOTS = 2
# Threshold placement for calibrate(): halfway between the labelled classes'
# mean costs. The default F1 sweep on 8 + 8 calibration reads settles just
# above the highest calibration target cost, so recall on fresh reads swings
# from seed to seed with which targets the calibration set happened to hold.
CALIBRATION_OBJECTIVE = "midpoint"

_clock = time.perf_counter


@dataclass
class Decision:
    """One terminal action, tied back to its tenant, round and pool read."""

    tenant: int
    round_index: int
    read_id: str
    pool_index: int
    action: Action


@dataclass
class ReplayResult:
    wall_s: float = 0.0
    samples: int = 0
    chunks: int = 0
    latencies_s: List[float] = field(default_factory=list)
    rounds_per_tenant: List[int] = field(default_factory=list)
    errors: List[Tuple[int, int, str]] = field(default_factory=list)  # (tenant, round, why)
    decisions: List[Decision] = field(default_factory=list)
    # Per tenant: (round index, chunks of oracle-sampled reads) for the local replay check.
    sampled_rounds: List[List[Tuple[int, List[SignalChunk]]]] = field(default_factory=list)
    retries_429: int = 0

    @property
    def attempted(self) -> int:
        return sum(self.rounds_per_tenant)


class _TenantLoop:
    """Bookkeeping shared by the local and the served closed loop."""

    def __init__(self, inputs: WorkloadInputs, tenant: int, result: ReplayResult) -> None:
        self.tenant = tenant
        self.result = result
        self.pool_index: Dict[str, int] = {}
        self.sample = set(inputs.tenants[tenant].oracle_sample)
        self.flowcell = inputs.flowcell(read_stream(inputs.tenants[tenant].pool, self.pool_index))
        self.rounds = 0
        self.sampled: List[Tuple[int, List[SignalChunk]]] = []

    def poll(self, tracer: Tracer) -> List[SignalChunk]:
        with tracer.span("sequencer.poll"):
            return self.flowcell.get_read_chunks()

    def record(self, chunks: Sequence[SignalChunk], actions: Sequence[Action], tracer: Tracer) -> None:
        result = self.result
        result.samples += sum(chunk.chunk_length for chunk in chunks)
        result.chunks += len(chunks)
        sampled = [c for c in chunks if self.pool_index[c.read_id] in self.sample]
        if sampled:
            self.sampled.append((self.rounds, sampled))
        for chunk, action in zip(chunks, actions):
            if action.is_terminal:
                result.decisions.append(
                    Decision(
                        self.tenant,
                        self.rounds,
                        chunk.read_id,
                        self.pool_index[chunk.read_id],
                        action,
                    )
                )
        with tracer.span("sequencer.poll"):
            for chunk, action in zip(chunks, actions):
                if action.kind == EJECT:
                    self.flowcell.unblock(chunk.channel, chunk.read_id)
                elif action.kind == ACCEPT:
                    self.flowcell.stop_receiving(chunk.channel, chunk.read_id)
        self.rounds += 1

    def fail(self, why: str) -> None:
        self.result.errors.append((self.tenant, self.rounds, why))
        self.rounds += 1

    def finish(self) -> None:
        self.result.rounds_per_tenant[self.tenant] = self.rounds
        self.result.sampled_rounds[self.tenant] = self.sampled


def _result(n_tenants: int) -> ReplayResult:
    return ReplayResult(
        rounds_per_tenant=[0] * n_tenants, sampled_rounds=[[] for _ in range(n_tenants)]
    )


def _done(start: float, rounds: int, seconds: Optional[float], max_rounds: Optional[int]) -> bool:
    if seconds is not None and _clock() - start >= seconds:
        return True
    return max_rounds is not None and rounds >= max_rounds


# ------------------------------------------------------------------ local path
def setup_local(inputs: WorkloadInputs, tracer: Tracer = NULL_TRACER) -> Tuple[ReadUntilSession, float]:
    """Open, calibrate and spawn one session; returns it and the seconds taken."""
    start = _clock()
    session = open_session(inputs.config)
    with tracer.span("setup.calibrate"):
        session.calibrate(
            inputs.calibration_targets,
            inputs.calibration_nontargets,
            objective=CALIBRATION_OBJECTIVE,
        )
    with tracer.span("setup.spawn"):
        session.classifier  # noqa: B018 - first access spawns the execution backend
    return session, _clock() - start


def replay_local(
    inputs: WorkloadInputs,
    session: ReadUntilSession,
    *,
    seconds: Optional[float] = None,
    max_rounds: Optional[int] = None,
    tracer: Tracer = NULL_TRACER,
) -> ReplayResult:
    """Closed-loop replay of tenant 0 through ``session.submit``."""
    result = _result(1)
    loop = _TenantLoop(inputs, 0, result)
    start = _clock()
    with tracer.span("bench.replay"):
        while not _done(start, loop.rounds, seconds, max_rounds):
            chunks = loop.poll(tracer)
            if not chunks:
                continue
            submitted = _clock()
            try:
                actions = session.submit(chunks)
            except Exception as error:  # noqa: BLE001 - a raising round is a failed round
                loop.fail(f"{type(error).__name__}: {error}")
                break  # the session closes itself on a failed round
            result.latencies_s.append(_clock() - submitted)
            loop.record(chunks, actions, tracer)
    result.wall_s = _clock() - start
    loop.finish()
    return result


# ------------------------------------------------------------------ serve path
@dataclass
class ServedTenants:
    """A running in-process server and one client session per tenant."""

    server: BackgroundServer
    clients: List[AsyncServeClient]
    session_ids: List[str]
    configs: List[RunConfig]


def calibrated_threshold(inputs: WorkloadInputs, tracer: Tracer = NULL_TRACER) -> float:
    """Calibrate locally, as a client does before registering its tenants."""
    with open_session(inputs.config) as session, tracer.span("setup.calibrate"):
        return session.calibrate(
            inputs.calibration_targets,
            inputs.calibration_nontargets,
            objective=CALIBRATION_OBJECTIVE,
        )


async def open_tenants(server: BackgroundServer, inputs: WorkloadInputs, threshold: float) -> ServedTenants:
    """Create one session per tenant and spawn its backend with an empty round."""
    tenants = ServedTenants(server, [], [], [])
    for tenant in inputs.tenants:
        config = inputs.config.with_(threshold=threshold, label=tenant.label)
        client = AsyncServeClient(server.host, server.port)
        session_id = await client.create_session(config)
        await client.submit_round(session_id, [])
        tenants.clients.append(client)
        tenants.session_ids.append(session_id)
        tenants.configs.append(config)
    return tenants


async def close_tenants(tenants: ServedTenants) -> List[Dict]:
    """Close every tenant session; returns their final summaries."""
    summaries = []
    for client, session_id in zip(tenants.clients, tenants.session_ids):
        summaries.append(await client.close_session(session_id))
        await client.close()
    return summaries


async def setup_served(inputs: WorkloadInputs, tracer: Tracer = NULL_TRACER) -> Tuple[ServedTenants, float, float]:
    """Calibrate, start the server and open every tenant; returns (tenants, threshold, seconds)."""
    start = _clock()
    threshold = calibrated_threshold(inputs, tracer)
    with tracer.span("setup.spawn"):
        server = BackgroundServer(max_concurrency=SERVE_POOL_SLOTS)
        server.__enter__()
        try:
            tenants = await open_tenants(server, inputs, threshold)
        except BaseException:
            server.__exit__(None, None, None)
            raise
    return tenants, threshold, _clock() - start


async def replay_served(
    inputs: WorkloadInputs,
    tenants: ServedTenants,
    *,
    seconds: Optional[float] = None,
    max_rounds: Optional[Sequence[int]] = None,
    recorder: Optional[SpanRecorder] = None,
) -> ReplayResult:
    """Closed-loop replay of every tenant concurrently, one connection each."""
    result = _result(len(tenants.clients))
    start = _clock()

    async def tenant_loop(index: int) -> None:
        client, session_id = tenants.clients[index], tenants.session_ids[index]
        tracer = NULL_TRACER
        if recorder is not None:
            recorder.name(client, inputs.tenants[index].label)
            tracer = recorder.tracer(client)
        limit = None if max_rounds is None else max_rounds[index]
        loop = _TenantLoop(inputs, index, result)
        retries_before = client.backpressure_retries
        with tracer.span("bench.replay"):
            while not _done(start, loop.rounds, seconds, limit):
                chunks = loop.poll(tracer)
                if not chunks:
                    continue
                submitted = _clock()
                try:
                    actions, _ = await client.submit_round(session_id, chunks)
                except (ServeClientError, ConnectionError, OSError) as error:
                    loop.fail(f"{type(error).__name__}: {error}")
                    break
                result.latencies_s.append(_clock() - submitted)
                loop.record(chunks, actions, tracer)
        result.retries_429 += client.backpressure_retries - retries_before
        loop.finish()

    await asyncio.gather(*(tenant_loop(index) for index in range(len(tenants.clients))))
    result.wall_s = _clock() - start
    return result
