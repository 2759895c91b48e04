"""Tests for the multi-tenant classification service (``repro.serve``).

Layered like the subsystem itself: the metrics registry and the admission
pool are exercised directly (the pool through real event loops —
saturation, fairness, draining); the session manager's config validation is
checked to reuse ``RunConfig``'s field-naming errors verbatim; and the HTTP
surface runs end-to-end over the stdlib transport with real sockets,
including the acceptance property — decisions served over the wire are
bit-identical to a local ``open_session`` replay — and the deterministic
backpressure contract (429 + ``Retry-After`` while a slot is held, success
after release, no round ever dropped).
"""

import asyncio
import json
import socket

import numpy as np
import pytest

from repro.batch.backends import default_workers
from repro.runtime import RunConfig, open_session
from repro.serve import (
    BackendPool,
    BackgroundServer,
    MetricsRegistry,
    PoolClosedError,
    PoolSaturatedError,
    ServeClient,
    ServeClientError,
    ServeServer,
)
from repro.serve.app import MAX_BODY_BYTES, MAX_HEADER_BYTES, MAX_HEADER_LINES
from repro.serve.client import AsyncServeClient
from repro.serve.manager import SessionManager, chunk_from_payload
from repro.serve.workload import build_tenant_workloads, replay_flowcell

run = asyncio.run

GENOME = "ACGTTGCAAGGCTTAGCCGTAT" * 20


def service_config(**overrides):
    base = dict(
        genome=GENOME,
        threshold=1e9,
        prefix_samples=400,
        chunk_samples=200,
        n_channels=4,
    )
    base.update(overrides)
    return base


def wire_chunk(read_id, n=200, seed=0, last=True, channel=0):
    rng = np.random.default_rng(seed)
    return {
        "read_id": read_id,
        "signal": [float(v) for v in rng.normal(90.0, 10.0, n)],
        "channel": channel,
        "is_last": last,
    }


def _shape(value):
    """A JSON value with every list replaced by its length and every scalar
    by its type: two summaries of one size have equal shapes."""
    if isinstance(value, dict):
        return {key: _shape(item) for key, item in value.items()}
    if isinstance(value, list):
        return len(value)
    return type(value).__name__


# --------------------------------------------------------------- metrics
class TestMetricsRegistry:
    def test_counters_and_gauges_render_prometheus_text(self):
        metrics = MetricsRegistry()
        metrics.describe("widgets_total", "Widgets seen")
        metrics.inc("widgets_total", session="a")
        metrics.inc("widgets_total", 2, session="a")
        metrics.inc("widgets_total", session="b")
        metrics.set_gauge("depth", 7)
        text = metrics.render()
        assert "# HELP widgets_total Widgets seen" in text
        assert "# TYPE widgets_total counter" in text
        assert 'widgets_total{session="a"} 3' in text
        assert 'widgets_total{session="b"} 1' in text
        assert "depth 7" in text
        assert metrics.counter_value("widgets_total", session="a") == 3

    def test_summary_percentiles_are_nearest_rank(self):
        metrics = MetricsRegistry(quantiles=(0.5, 0.95, 0.99))
        for value in range(1, 101):
            metrics.observe("latency", float(value))
        quantiles = metrics.percentiles("latency")
        assert quantiles[0.5] == 50.0
        assert quantiles[0.95] == 95.0
        assert quantiles[0.99] == 99.0
        text = metrics.render()
        assert 'latency{quantile="0.5"} 50' in text
        assert "latency_count 100" in text

    def test_summary_keeps_only_the_most_recent_reservoir(self):
        metrics = MetricsRegistry(quantiles=(0.5, 1.0), reservoir=4)
        for value in range(1, 11):
            metrics.observe("latency", float(value))
        assert metrics.summary_count("latency") == 4
        assert metrics.percentiles("latency") == {0.5: 8.0, 1.0: 10.0}
        text = metrics.render()
        assert "latency_count 4" in text
        assert "latency_sum 34" in text

    def test_label_order_does_not_split_series(self):
        metrics = MetricsRegistry()
        metrics.inc("m", session="s", kind="accept")
        metrics.inc("m", kind="accept", session="s")
        assert metrics.counter_value("m", kind="accept", session="s") == 2


# ------------------------------------------------------------------ pool
class TestBackendPool:
    def test_runs_work_and_tracks_occupancy(self):
        async def scenario():
            pool = BackendPool(max_concurrency=2, max_queue=4)
            result = await pool.run("t", lambda x: x * 2, 21)
            assert result == 42
            assert pool.active == 0 and pool.queue_depth == 0
            await pool.close()

        run(scenario())

    def test_saturation_raises_with_retry_hint(self):
        async def scenario():
            pool = BackendPool(max_concurrency=1, max_queue=0)
            await pool.acquire("hog")
            with pytest.raises(PoolSaturatedError) as excinfo:
                await pool.acquire("victim")
            assert excinfo.value.retry_after_s > 0
            pool.release(0.01)
            # Slot free again: admission succeeds.
            await pool.acquire("victim")
            pool.release(0.01)
            await pool.close()

        run(scenario())

    def test_round_robin_is_fair_across_tenants(self):
        async def scenario():
            pool = BackendPool(max_concurrency=1, max_queue=10)
            await pool.acquire("hold")
            order = []

            async def wait(tenant, tag):
                await pool.acquire(tenant)
                order.append(tag)

            # Tenant A queues three rounds before B queues one: a fair pool
            # must not let A drain its backlog first.
            tasks = []
            for tenant, tag in [("A", "a1"), ("A", "a2"), ("A", "a3"), ("B", "b1")]:
                tasks.append(asyncio.ensure_future(wait(tenant, tag)))
                await asyncio.sleep(0)
            for _ in range(4):
                pool.release()
                await asyncio.sleep(0)
            await asyncio.gather(*tasks)
            assert order == ["a1", "b1", "a2", "a3"]
            for _ in range(4):
                pool.release()
            await pool.close()

        run(scenario())

    def test_no_barging_while_tenants_are_queued(self):
        async def scenario():
            pool = BackendPool(max_concurrency=1, max_queue=10)
            await pool.acquire("first")
            waiter = asyncio.ensure_future(pool.acquire("queued"))
            await asyncio.sleep(0)
            assert pool.queue_depth == 1
            # A free-slot check alone would admit this; fairness must not.
            barger = asyncio.ensure_future(pool.acquire("barger"))
            await asyncio.sleep(0)
            assert pool.queue_depth == 2
            pool.release()
            await waiter  # the queued tenant got the slot, not the barger
            pool.release()
            await barger
            pool.release()
            await pool.close()

        run(scenario())

    def test_close_refuses_new_work_and_drains_backlog(self):
        async def scenario():
            pool = BackendPool(max_concurrency=1, max_queue=4)
            started = asyncio.Event()
            import time as _time

            def slow():
                started.set()
                _time.sleep(0.05)
                return "done"

            task = asyncio.ensure_future(pool.run("t", slow))
            await started.wait()
            closer = asyncio.ensure_future(pool.close(drain=True))
            await asyncio.sleep(0)
            with pytest.raises(PoolClosedError):
                await pool.acquire("late")
            assert await task == "done"
            await closer
            assert pool.closed

        run(scenario())


# --------------------------------------------------------------- manager
class TestSessionManagerConfig:
    def _manager(self, **kwargs):
        return SessionManager(BackendPool(max_concurrency=1, max_queue=1), **kwargs)

    def test_invalid_tenant_config_reuses_runconfig_field_errors(self):
        async def scenario():
            manager = self._manager()
            with pytest.raises(ValueError) as excinfo:
                manager.resolve_config({"backend": "tpu"})
            assert str(excinfo.value).startswith("backend")
            with pytest.raises(ValueError, match="^label"):
                manager.resolve_config({"genome": GENOME, "label": ""})
            with pytest.raises(ValueError, match="n_channel"):
                manager.resolve_config({"genome": GENOME, "n_channel": 2})
            await manager.pool.close()

        run(scenario())

    def test_empty_config_without_template_is_an_error(self):
        async def scenario():
            manager = self._manager()
            with pytest.raises(ValueError, match="^config"):
                manager.resolve_config(None)
            await manager.pool.close()

        run(scenario())

    def test_tenant_config_overlays_the_server_template(self):
        async def scenario():
            manager = self._manager(
                default_config={"prefix_samples": 640, "n_channels": 2}
            )
            config = manager.resolve_config({"genome": GENOME, "n_channels": 6})
            assert config.prefix_samples == 640  # from the template
            assert config.n_channels == 6  # tenant override wins
            await manager.pool.close()

        run(scenario())

    def test_reference_up_to_the_buffer_resolves(self):
        """50,000 bases on both strands fill the 100 kb buffer exactly."""

        async def scenario():
            manager = self._manager()
            config = manager.resolve_config({"genome": "ACGT" * 12_500})
            assert len(config.genome) == 50_000 and config.include_reverse_complement
            config = manager.resolve_config(
                {"genome": "ACGT" * 25_000, "include_reverse_complement": False}
            )
            assert len(config.genome) == 100_000
            await manager.pool.close()

        run(scenario())

    def test_auto_resolved_at_create_and_gauge_exported(self):
        async def scenario():
            metrics = MetricsRegistry()
            manager = self._manager(
                metrics=metrics,
                default_config=service_config(backend="auto"),
            )
            try:
                first = manager.create()
                second = manager.create()
                assert first["backend"] != "auto"
                assert second["backend"] == first["backend"]
                assert first["auto"]["backend"] == first["backend"]
                assert first["auto"]["prune"] and first["auto"]["lb_cascade"]
                assert not first["started"]  # resolving spawned nothing
                text = metrics.render()
                assert "repro_serve_tuned_backend" in text
                assert f'backend="{first["backend"]}"' in text
                assert "cache_hit" not in text
            finally:
                await manager.drain()
                await manager.pool.close()

        run(scenario())

    def test_served_session_keeps_phase_totals_not_span_records(self):
        """Regression: every served session kept a flight recorder of up to
        65,536 span records that nothing read. The recorder is now emptied
        after each round, while the phase totals behind /metrics' per-phase
        round series keep accumulating."""

        async def scenario():
            metrics = MetricsRegistry()
            manager = self._manager(metrics=metrics)
            try:
                session_id = manager.create(service_config())["session_id"]
                session = manager._get(session_id).session
                for index in range(4):
                    chunks = [
                        wire_chunk(f"r{index}-{lane}", seed=index, channel=lane)
                        for lane in range(2)
                    ]
                    await manager.submit_round(session_id, chunks)
                    assert session.trace() == []
                assert session.tracer.phase_totals()["engine.step"].count == 4
                text = metrics.render()
                assert "repro_serve_round_phase_seconds" in text
                assert 'phase="engine.step"' in text
            finally:
                await manager.drain()
                await manager.pool.close()

        run(scenario())

    def test_served_session_keeps_no_round_records(self):
        """Regression: every busy round appended a BatchRound to the engine,
        and the summary carried one occupancy entry per poll, so a served
        tenant's memory and its summary body grew with every round. The
        records are now dropped after each round; the counts stay whole."""

        async def scenario():
            manager = self._manager()
            n_rounds = 12
            try:
                session_id = manager.create(service_config())["session_id"]
                session = manager._get(session_id).session
                summaries = []
                for index in range(n_rounds):
                    chunks = [
                        wire_chunk(f"r{index}-{lane}", seed=index, channel=lane)
                        for lane in range(2)
                    ]
                    await manager.submit_round(session_id, chunks)
                    assert session.engine.rounds == []
                    summaries.append(manager.summary(session_id))
                engine = session.engine
                assert engine.busy_rounds == n_rounds
                assert (engine.peak_occupancy, engine.mean_occupancy) == (2, 2.0)
                final = summaries[-1]
                assert final["busy_rounds"] == n_rounds
                assert "batch_occupancy" not in final
                # What GET /v1/sessions/{id}/summary returns has the same
                # keys and list lengths after 2 rounds as after 12.
                assert _shape(summaries[1]) == _shape(final)
            finally:
                await manager.drain()
                await manager.pool.close()

        run(scenario())

    def test_wire_chunk_validation_names_the_problem(self):
        with pytest.raises(ValueError, match="read_id"):
            chunk_from_payload({"signal": [1.0]})
        with pytest.raises(ValueError, match="signal"):
            chunk_from_payload({"read_id": "r", "signal": []})


# ------------------------------------------------------------- http api
@pytest.fixture(scope="module")
def serve_server():
    with BackgroundServer(max_concurrency=2, max_queue=8) as background:
        yield background


@pytest.fixture()
def serve_client(serve_server):
    client = ServeClient(serve_server.host, serve_server.port)
    yield client
    client.close()


class TestHttpEndToEnd:
    def test_session_lifecycle_over_the_wire(self, serve_client):
        session_id = serve_client.create_session(
            service_config(label="flowcell-A")
        )
        assert session_id.startswith("flowcell-A-")
        assert any(
            entry["session_id"] == session_id
            for entry in serve_client.list_sessions()
        )

        actions, meta = serve_client.submit_round(
            session_id, [wire_chunk("r0"), wire_chunk("r1", seed=1, channel=1)]
        )
        assert len(actions) == 2
        assert all(action.is_terminal for action in actions)
        assert meta["round"] == 1

        summary = serve_client.summary(session_id)
        assert summary["rounds"] == 1
        assert summary["label"] == "flowcell-A"

        final = serve_client.close_session(session_id)
        assert final["closed"] is True
        assert final["label"] == "flowcell-A"
        # Closed sessions are gone: the uniform 404 contract.
        with pytest.raises(ServeClientError) as excinfo:
            serve_client.summary(session_id)
        assert excinfo.value.status == 404

    def test_health_and_metrics_account_for_rounds(self, serve_client):
        session_id = serve_client.create_session(service_config(label="metrics"))
        serve_client.submit_round(session_id, [wire_chunk("r0")])
        health = serve_client.health()
        assert health["status"] == "ok"
        assert health["pool"]["max_concurrency"] == 2
        metrics = serve_client.metrics_text()
        assert f'repro_serve_rounds_total{{session="{session_id}"}} 1' in metrics
        assert "repro_serve_round_latency_seconds" in metrics
        assert "repro_serve_pool_queue_depth" in metrics
        serve_client.close_session(session_id)

    def test_metrics_expose_engine_cell_counters(self, serve_client):
        """_record_round folds the engine's cumulative cell counters into
        per-session serve counters: cells computed, cells of lanes the prune
        gate skipped, and cells of lanes the lower-bound gate skipped. Every
        session sees the same samples, so a lane that lives computes the
        nominal cells the dead ones skip."""
        live = serve_client.create_session(service_config(label="live", prune=True))
        pruned = serve_client.create_session(
            service_config(label="cells", threshold=-1e6, prune=True)
        )
        gated = serve_client.create_session(
            service_config(
                label="gated", threshold=-1e6, prune=True, lb_cascade=True
            )
        )
        # Streams span several rounds: dead lanes must stay skipped.
        for round_index in range(3):
            last = round_index == 2
            for session, read_id in ((live, "l0"), (pruned, "r0"), (gated, "g0")):
                serve_client.submit_round(
                    session, [wire_chunk(read_id, seed=round_index, last=last)]
                )
        metrics = serve_client.metrics_text()

        def counter(name, session):
            # A counter that never rose has no line.
            prefix = f'{name}{{session="{session}"}} '
            for line in metrics.splitlines():
                if line.startswith(prefix):
                    return float(line[len(prefix):])
            return 0.0

        nominal = counter("repro_serve_cells_advanced_total", live)
        assert nominal > 0
        assert counter("repro_serve_cells_pruned_total", live) == 0
        # Under the dead threshold every fresh lane dies on arrival.
        assert counter("repro_serve_cells_advanced_total", pruned) == 0
        assert counter("repro_serve_cells_pruned_total", pruned) == nominal
        # The gated session's lanes never reach a backend at all.
        assert counter("repro_serve_cells_lb_skipped_total", gated) > 0
        assert counter("repro_serve_cells_lb_skipped_total", gated) == nominal
        assert counter("repro_serve_cells_advanced_total", gated) == 0
        for session in (live, pruned, gated):
            serve_client.close_session(session)

    def test_metrics_count_kernel_calls_by_path(self, serve_client):
        """_record_round folds the backend's wavefront-call counters into
        repro_serve_kernel_calls_total, labelled by the path that ran: the
        hardware config runs every call on the compiled C kernel."""
        session_id = serve_client.create_session(service_config(label="kernel"))
        for round_index in range(3):
            serve_client.submit_round(
                session_id,
                [wire_chunk("k0", seed=round_index, last=round_index == 2)],
            )
        kernel = serve_client.summary(session_id)["kernel"]
        metrics = serve_client.metrics_text()

        def calls(path):
            prefix = f'repro_serve_kernel_calls_total{{path="{path}",session="{session_id}"}} '
            for line in metrics.splitlines():
                if line.startswith(prefix):
                    return float(line[len(prefix):])
            return 0.0

        assert "# HELP repro_serve_kernel_calls_total" in metrics
        assert kernel["c_calls"] > 0
        assert kernel["dtype"] == "int32"
        assert calls("c") == kernel["c_calls"]
        assert calls("generic") == kernel["generic_calls"] == 0
        serve_client.close_session(session_id)

    def test_error_statuses_name_the_problem(self, serve_client):
        with pytest.raises(ServeClientError) as excinfo:
            serve_client.create_session({"backend": "tpu"})
        assert excinfo.value.status == 400
        assert "backend" in excinfo.value.message

        with pytest.raises(ServeClientError) as excinfo:
            serve_client.summary("nope-0000")
        assert excinfo.value.status == 404
        assert "nope-0000" in excinfo.value.message

        session_id = serve_client.create_session(service_config())
        with pytest.raises(ServeClientError) as excinfo:
            serve_client.submit_round(session_id, [{"signal": [1.0, 2.0]}])
        assert excinfo.value.status == 400
        assert "read_id" in excinfo.value.message
        serve_client.close_session(session_id)

    def test_tenant_trace_path_gets_400_and_writes_no_file(self, serve_client, tmp_path):
        target = tmp_path / "tenant-trace.json"
        open_before = len(serve_client.list_sessions())
        with pytest.raises(ServeClientError) as excinfo:
            serve_client.create_session(service_config(trace_path=str(target)))
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith("trace_path")
        assert len(serve_client.list_sessions()) == open_before
        # A serialized RunConfig carries trace_path=None, which is accepted.
        session_id = serve_client.create_session(RunConfig(**service_config()))
        serve_client.submit_round(session_id, [wire_chunk("r0")])
        serve_client.close_session(session_id)
        assert not target.exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_samples_get_400_and_the_session_keeps_deciding(
        self, serve_client, bad
    ):
        session_id = serve_client.create_session(service_config(label="finite"))
        poisoned = wire_chunk("r-bad")
        poisoned["signal"][5] = bad
        with pytest.raises(ServeClientError) as excinfo:
            serve_client.submit_round(session_id, [poisoned])
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith("signal_pa")
        assert "r-bad" in excinfo.value.message
        actions, meta = serve_client.submit_round(session_id, [wire_chunk("r0")])
        assert len(actions) == 1 and actions[0].is_terminal
        assert meta["round"] == 1
        serve_client.close_session(session_id)

    def test_round_beyond_n_channels_gets_400_and_the_session_keeps_deciding(
        self, serve_client
    ):
        session_id = serve_client.create_session(
            service_config(label="flood", n_channels=1)
        )
        flood = [wire_chunk(f"flood{i}", n=4, seed=i) for i in range(4096)]
        with pytest.raises(ServeClientError) as excinfo:
            serve_client.submit_round(session_id, flood)
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith("n_channels")
        actions, meta = serve_client.submit_round(session_id, [wire_chunk("r0")])
        assert len(actions) == 1 and actions[0].is_terminal
        assert meta["round"] == 1
        serve_client.close_session(session_id)

    def test_repeated_read_in_a_round_gets_400_and_the_session_keeps_deciding(
        self, serve_client
    ):
        session_id = serve_client.create_session(service_config(label="repeat"))
        repeated = [wire_chunk("a", last=False), wire_chunk("a", seed=1)]
        with pytest.raises(ServeClientError) as excinfo:
            serve_client.submit_round(session_id, repeated)
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith("read_id")
        actions, meta = serve_client.submit_round(session_id, [wire_chunk("r0")])
        assert len(actions) == 1 and actions[0].is_terminal
        assert meta["round"] == 1
        serve_client.close_session(session_id)

    def test_n_channels_beyond_one_flow_cell_gets_400(self, serve_client):
        open_before = len(serve_client.list_sessions())
        with pytest.raises(ServeClientError) as excinfo:
            serve_client.create_session(service_config(n_channels=513))
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith("n_channels")
        assert len(serve_client.list_sessions()) == open_before
        session_id = serve_client.create_session(service_config(n_channels=512))
        serve_client.close_session(session_id)

    def test_reference_beyond_the_buffer_gets_400(self, serve_client):
        """A tenant's reference may fill the paper's 100 kb buffer, no more:
        every lane keeps per-column state, and both strands count."""
        open_before = len(serve_client.list_sessions())
        oversized = {
            "genome": dict(genome="ACGT" * 12_500 + "A"),
            "targets": dict(genome=None, targets={"a": "ACGT" * 6_000, "b": "ACGT" * 6_501}),
        }
        for field, overrides in oversized.items():
            with pytest.raises(ServeClientError) as excinfo:
                serve_client.create_session(service_config(**overrides))
            assert excinfo.value.status == 400
            assert excinfo.value.message.startswith(field)
            assert len(serve_client.list_sessions()) == open_before

    @pytest.mark.parametrize(
        "field,overrides",
        [
            ("threshold", dict(threshold=float("nan"))),
            ("prune_margin", dict(prune=True, prune_margin=float("nan"))),
            ("prune_margin", dict(prune=True, prune_margin=float("inf"))),
        ],
        ids=["nan-threshold", "nan-margin", "inf-margin"],
    )
    def test_non_finite_decision_bound_gets_400(self, serve_client, field, overrides):
        """JSON's NaN and Infinity parse to floats; as a threshold or prune
        margin they would turn every read into a confident decision."""
        open_before = len(serve_client.list_sessions())
        with pytest.raises(ServeClientError) as excinfo:
            serve_client.create_session(service_config(**overrides))
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith(field)
        assert len(serve_client.list_sessions()) == open_before

    def test_workers_beyond_usable_cores_gets_400(self, serve_client):
        """Every session's backend starts its own kernel threads, so a tenant
        may ask for at most one per usable core (capped at 8)."""
        open_before = len(serve_client.list_sessions())
        cap = default_workers()
        with pytest.raises(ServeClientError) as excinfo:
            serve_client.create_session(service_config(workers=cap + 1))
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith("workers")
        assert f"at most {cap} " in excinfo.value.message
        assert len(serve_client.list_sessions()) == open_before

    def test_closed_underlying_session_maps_to_conflict(
        self, serve_server, serve_client
    ):
        """A session whose runtime object died (e.g. a failed round closed
        it) answers 409, not 500 — SessionClosedError is part of the API."""
        session_id = serve_client.create_session(service_config(label="doomed"))
        serve_server.server.manager._sessions[session_id].session.close()
        with pytest.raises(ServeClientError) as excinfo:
            serve_client.submit_round(session_id, [wire_chunk("r0")])
        assert excinfo.value.status == 409
        assert "closed" in excinfo.value.message
        serve_client.close_session(session_id)

    def test_async_client_speaks_the_same_wire_format(self, serve_server):
        async def scenario():
            client = AsyncServeClient(serve_server.host, serve_server.port)
            try:
                session_id = await client.create_session(
                    service_config(label="async")
                )
                actions, meta = await client.submit_round(
                    session_id, [wire_chunk("r0")]
                )
                assert len(actions) == 1 and meta["round"] == 1
                final = await client.close_session(session_id)
                assert final["closed"] is True
            finally:
                await client.close()

        run(scenario())


def _raw_exchange(server, request):
    """Send one raw request; read until the server closes the connection."""
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(request)
        reply = b""
        while True:
            data = sock.recv(65536)
            if not data:
                break
            reply += data
    return reply


class TestRequestFraming:
    """The stdlib transport answers a request it cannot frame, then closes."""

    @pytest.mark.parametrize(
        "length,status",
        [("twelve", 400), ("-5", 400), (str(MAX_BODY_BYTES + 1), 413)],
    )
    def test_bad_content_length_is_answered_then_closed(
        self, serve_server, serve_client, length, status
    ):
        request = (
            "POST /v1/sessions HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode()
        reply = _raw_exchange(serve_server, request)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode()), head
        assert b"Connection: close" in head
        assert json.loads(body)["error"].startswith("Content-Length")
        assert serve_client.health()["status"] == "ok"

    @pytest.mark.parametrize(
        "n_lines,line_bytes",
        [(1, 70_000), (MAX_HEADER_LINES + 1, 8)],
        ids=["70000_byte_line", "101_lines"],
    )
    def test_oversized_request_head_gets_431_then_closed(
        self, serve_server, serve_client, n_lines, line_bytes
    ):
        """Regression: a header line beyond asyncio's 64 KiB line limit got
        no answer at all, and any number of header lines got 200."""
        headers = "".join(
            f"X-Pad-{index}: {'a' * line_bytes}\r\n" for index in range(n_lines)
        )
        reply = _raw_exchange(
            serve_server, f"GET /health HTTP/1.1\r\n{headers}\r\n".encode()
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 431 Request Header Fields Too Large"), head
        assert b"Connection: close" in head
        assert json.loads(body)["error"].startswith("headers")
        assert serve_client.health()["status"] == "ok"

    @pytest.mark.parametrize(
        "request_line", [b"GARBAGE", b"GET /health"], ids=["one_token", "no_version"]
    )
    def test_malformed_request_line_gets_400_then_closed(self, serve_server, request_line):
        """Regression: a request line that is not METHOD TARGET VERSION got
        no answer at all; the connection just closed."""
        reply = _raw_exchange(serve_server, request_line + b"\r\n\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), head
        assert b"Connection: close" in head
        assert json.loads(body)["error"].startswith("request line")
        reply = _raw_exchange(
            serve_server, b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert reply.startswith(b"HTTP/1.1 200 OK"), reply[:80]

    def test_request_head_at_both_caps_is_served(self, serve_server):
        """A head of exactly MAX_HEADER_LINES lines within MAX_HEADER_BYTES
        is an ordinary request."""
        line_bytes = MAX_HEADER_BYTES // MAX_HEADER_LINES - 64
        headers = "".join(
            f"X-Pad-{index}: {'a' * line_bytes}\r\n"
            for index in range(MAX_HEADER_LINES - 1)
        )
        reply = _raw_exchange(
            serve_server,
            f"GET /health HTTP/1.1\r\n{headers}Connection: close\r\n\r\n".encode(),
        )
        assert reply.startswith(b"HTTP/1.1 200 OK"), reply[:80]


class TestBackpressure:
    def test_saturated_pool_returns_429_then_recovers(self):
        """Deterministic backpressure: hold the only slot, watch a round get
        429 + Retry-After, release, watch the same round succeed."""

        async def scenario():
            server = ServeServer(max_concurrency=1, max_queue=0)
            created = await server.app.handle(
                "POST",
                "/v1/sessions",
                json.dumps({"config": service_config(label="bp")}).encode(),
            )
            assert created.status == 200
            session_id = created.body["session_id"]
            body = json.dumps({"chunks": [wire_chunk("r0")]}).encode()

            await server.pool.acquire("hog")  # occupy the only slot
            rejected = await server.app.handle(
                "POST", f"/v1/sessions/{session_id}/rounds", body
            )
            assert rejected.status == 429
            assert float(rejected.headers["Retry-After"]) > 0
            assert rejected.body["retry_after_s"] > 0
            assert (
                server.metrics.counter_value(
                    "repro_serve_rejected_total", reason="pool_saturated"
                )
                == 1
            )

            server.pool.release(0.01)
            accepted = await server.app.handle(
                "POST", f"/v1/sessions/{session_id}/rounds", body
            )
            assert accepted.status == 200
            assert len(accepted.body["actions"]) == 1
            await server.app.handle("DELETE", f"/v1/sessions/{session_id}", b"")
            await server.shutdown()

        run(scenario())

    def test_client_retries_through_saturation_without_losing_rounds(self):
        """The sync client's 429 loop: a tiny pool under two competing
        tenants produces retries, yet every round completes."""
        with BackgroundServer(max_concurrency=1, max_queue=1) as background:
            workloads = build_tenant_workloads(2, reads_per_tenant=3)
            baselines = []
            for workload in workloads:
                with open_session(workload.config) as session:
                    baselines.append(replay_flowcell(session.submit, workload))

            async def tenant(workload):
                client = AsyncServeClient(background.host, background.port)
                try:
                    session_id = await client.create_session(workload.config)

                    async def submit(chunks):
                        actions, _ = await client.submit_round(session_id, chunks)
                        return actions

                    from repro.serve.workload import replay_flowcell_async

                    decisions, rounds, _ = await replay_flowcell_async(
                        submit, workload
                    )
                    return decisions, rounds, client.backpressure_retries
                finally:
                    await client.close()

            async def fleet():
                return await asyncio.gather(*(tenant(w) for w in workloads))

            results = run(fleet())
            for (decisions, rounds, _retries), (base_decisions, base_rounds) in zip(
                results, baselines
            ):
                assert decisions == base_decisions
                assert rounds == base_rounds


class TestBitIdentity:
    def test_served_decisions_match_local_open_session(self):
        """Acceptance: a seeded flowcell replayed through the HTTP API
        decides bit-identically to the same replay through open_session."""
        workload = build_tenant_workloads(1, reads_per_tenant=4)[0]
        with open_session(workload.config) as session:
            baseline, baseline_rounds = replay_flowcell(session.submit, workload)

        with BackgroundServer(max_concurrency=2) as background:
            with ServeClient(background.host, background.port) as client:
                session_id = client.create_session(workload.config)
                served, rounds = replay_flowcell(
                    lambda chunks: client.submit_round(session_id, chunks)[0],
                    workload,
                )
                client.close_session(session_id)
        assert served == baseline
        assert rounds == baseline_rounds


class TestGracefulShutdown:
    def test_draining_refuses_new_work_but_health_stays_up(self):
        async def scenario():
            server = ServeServer(max_concurrency=1, max_queue=1)
            server.app.draining = True
            health = await server.app.handle("GET", "/health", b"")
            assert health.body["status"] == "draining"
            metrics = await server.app.handle("GET", "/metrics", b"")
            assert metrics.status == 200
            refused = await server.app.handle("POST", "/v1/sessions", b"{}")
            assert refused.status == 503
            await server.shutdown()

        run(scenario())

    def test_shutdown_closes_sessions_and_pool(self):
        async def scenario():
            server = ServeServer(max_concurrency=1, max_queue=1)
            created = await server.app.handle(
                "POST",
                "/v1/sessions",
                json.dumps({"config": service_config()}).encode(),
            )
            session_id = created.body["session_id"]
            await server.app.handle(
                "POST",
                f"/v1/sessions/{session_id}/rounds",
                json.dumps({"chunks": [wire_chunk("r0")]}).encode(),
            )
            await server.shutdown()
            assert len(server.manager) == 0
            assert server.pool.closed

        run(scenario())

    def test_background_server_drains_on_exit(self):
        with BackgroundServer(max_concurrency=1) as background:
            with ServeClient(background.host, background.port) as client:
                session_id = client.create_session(service_config(label="drain"))
                client.submit_round(session_id, [wire_chunk("r0")])
        # After __exit__ the server is gone: connections are refused.
        with pytest.raises((ConnectionError, ServeClientError, OSError)):
            probe = ServeClient(background.host, background.port, max_retries=0)
            probe._connection = None
            import http.client

            conn = http.client.HTTPConnection(
                background.host, background.port, timeout=2
            )
            conn.request("GET", "/health")
            conn.getresponse()


# -------------------------------------------------------------------- cli
class TestServeCli:
    def test_serve_rejects_invalid_config_template(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.json"
        path.write_text(json.dumps({"backend": "tpu"}))
        assert main(["serve", "--config", str(path)]) == 2
        assert "backend" in capsys.readouterr().err
