"""The asyncio classification service: routes, HTTP transport, lifecycle.

The request handling is framework-neutral: :class:`ServeApp` maps
``(method, path, json body)`` to a :class:`Response`, independent of any web
framework. The transport is :class:`ServeServer`, built on
``asyncio.start_server`` with a minimal HTTP/1.1 keep-alive parser, so the
service and its tests need no packages beyond the standard library.

Routes::

    GET    /health                     liveness + pool/session occupancy
    GET    /metrics                    Prometheus text exposition
    GET    /v1/sessions                list open sessions
    POST   /v1/sessions                create a session  {"config": {...RunConfig...}}
    POST   /v1/sessions/{id}/rounds    classify one round  {"chunks": [...]}
    GET    /v1/sessions/{id}/summary   live decision tallies + occupancy
    DELETE /v1/sessions/{id}           close; returns the final summary
    POST   /shutdown                   begin graceful draining (also SIGTERM)

Error mapping: config/chunk validation -> 400 (the ``RunConfig`` message,
naming the offending field), unknown session -> 404, closed session or
concurrent round -> 409, pool saturation -> 429 with a ``Retry-After``
header (admission control, not failure — clients retry and no round is
ever dropped), draining -> 503. On the stdlib transport a request line
that is not ``METHOD TARGET HTTP-VERSION`` gets 400, a malformed or
negative ``Content-Length`` gets 400 and a body above :data:`MAX_BODY_BYTES`
gets 413; each closes the connection without reading further. A request
head over :data:`MAX_HEADER_BYTES` or with more than
:data:`MAX_HEADER_LINES` header lines gets 431 and the connection closes.

Graceful shutdown (:meth:`ServeServer.shutdown`) drains in order: stop
admitting requests, let queued rounds finish, close every session (which
stops each execution backend's kernel threads), then close the listening
socket.
"""

from __future__ import annotations

import asyncio
import json
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.runtime import SessionClosedError
from repro.serve.manager import PoolSaturatedSessions, SessionManager, UnknownSessionError
from repro.obs.metrics import MetricsRegistry
from repro.serve.pool import BackendPool, PoolClosedError, PoolSaturatedError

__all__ = [
    "BackgroundServer",
    "Response",
    "ServeApp",
    "ServeServer",
    "serve_forever",
    "start_server",
]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

# Largest request body the stdlib transport reads into memory. A round of 512
# channels x 4,000 samples is about 20 MB of JSON, so 64 MiB is far above any
# real round while still bounding what one request can make the server hold.
MAX_BODY_BYTES = 64 * 1024 * 1024

# Largest request head (request line plus header lines) and most header lines
# the stdlib transport reads. The clients send a handful of short headers;
# without a cap, one connection could make the server store headers without
# end.
MAX_HEADER_BYTES = 64 * 1024
MAX_HEADER_LINES = 100


class _FramingError(Exception):
    """A request whose framing cannot be honoured; answered, then the
    connection closes (the rest of the stream can no longer be parsed)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Response:
    """One transport-independent HTTP response."""

    status: int = 200
    body: Dict[str, Any] = field(default_factory=dict)
    text: Optional[str] = None  # non-JSON payload (the /metrics exposition)
    headers: Dict[str, str] = field(default_factory=dict)

    def payload(self) -> Tuple[bytes, str]:
        if self.text is not None:
            return self.text.encode(), "text/plain; version=0.0.4; charset=utf-8"
        return (json.dumps(self.body) + "\n").encode(), "application/json"


class ServeApp:
    """Framework-neutral request handling over one manager/pool/metrics."""

    def __init__(
        self,
        manager: SessionManager,
        *,
        on_shutdown: Optional[Any] = None,
    ) -> None:
        self.manager = manager
        self.pool = manager.pool
        self.metrics = manager.metrics
        self.draining = False
        self._on_shutdown = on_shutdown  # callable scheduling a graceful stop

    # ------------------------------------------------------------- dispatch
    async def handle(self, method: str, path: str, body: bytes) -> Response:
        """Route one request; every error becomes a structured response."""
        try:
            return await self._route(method.upper(), path.rstrip("/") or "/", body)
        except PoolSaturatedError as error:
            self.metrics.inc("repro_serve_rejected_total", reason="pool_saturated")
            return Response(
                status=429,
                body={"error": str(error), "retry_after_s": error.retry_after_s},
                headers={"Retry-After": f"{error.retry_after_s:g}"},
            )
        except PoolSaturatedSessions as error:
            self.metrics.inc("repro_serve_rejected_total", reason="session_limit")
            return Response(status=429, body={"error": str(error)})
        except UnknownSessionError as error:
            return Response(status=404, body={"error": str(error)})
        except SessionClosedError as error:
            return Response(status=409, body={"error": str(error)})
        except PoolClosedError as error:
            return Response(status=503, body={"error": str(error)})
        except (ValueError, json.JSONDecodeError) as error:
            return Response(status=400, body={"error": str(error)})
        except Exception as error:  # noqa: BLE001 - the service must not die
            traceback.print_exc()
            return Response(
                status=500, body={"error": f"{type(error).__name__}: {error}"}
            )

    async def _route(self, method: str, path: str, body: bytes) -> Response:
        if path == "/health" and method == "GET":
            return self._health()
        if path == "/metrics" and method == "GET":
            return Response(text=self.metrics.render())
        if self.draining:
            return Response(
                status=503, body={"error": "server is draining; no new requests"}
            )
        if path == "/shutdown" and method == "POST":
            if self._on_shutdown is not None:
                self._on_shutdown()
            return Response(body={"draining": True})
        if path == "/v1/sessions":
            if method == "GET":
                return Response(body={"sessions": self.manager.list_sessions()})
            if method == "POST":
                payload = _parse_json(body)
                config = payload.get("config", payload or None)
                return Response(body=self.manager.create(config))
            return Response(status=405, body={"error": f"{method} not allowed here"})
        parts = path.strip("/").split("/")
        if len(parts) >= 2 and parts[0] == "v1" and parts[1] == "sessions" and len(parts) >= 3:
            session_id = parts[2]
            tail = parts[3] if len(parts) > 3 else None
            if tail == "rounds" and method == "POST":
                payload = _parse_json(body)
                chunks = payload.get("chunks")
                if chunks is None:
                    raise ValueError("chunks: the round payload names no chunks")
                return Response(body=await self.manager.submit_round(session_id, chunks))
            if tail == "summary" and method == "GET":
                return Response(body=self.manager.summary(session_id))
            if tail is None and method == "GET":
                return Response(body=self.manager.describe(session_id))
            if tail is None and method == "DELETE":
                return Response(body=await self.manager.close_session(session_id))
        return Response(status=404, body={"error": f"no route for {method} {path}"})

    def _health(self) -> Response:
        status = "draining" if self.draining else "ok"
        return Response(
            body={
                "status": status,
                "sessions": len(self.manager),
                "pool": self.pool.snapshot(),
            }
        )


def _parse_json(body: bytes) -> Dict[str, Any]:
    if not body:
        return {}
    data = json.loads(body.decode())
    if not isinstance(data, Mapping):
        raise ValueError("request body must be a JSON object")
    return dict(data)


# ----------------------------------------------------------- stdlib server
class ServeServer:
    """The stdlib asyncio HTTP transport around one :class:`ServeApp`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_concurrency: int = 2,
        max_queue: int = 32,
        default_config: Optional[Mapping[str, Any]] = None,
        max_sessions: int = 256,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.pool = BackendPool(max_concurrency=max_concurrency, max_queue=max_queue)
        self.metrics = MetricsRegistry()
        self.manager = SessionManager(
            self.pool,
            metrics=self.metrics,
            default_config=default_config,
            max_sessions=max_sessions,
        )
        self.app = ServeApp(self.manager, on_shutdown=self.request_shutdown)
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown_requested = asyncio.Event()
        self._connections: set = set()

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 to the ephemeral pick)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._requested_port

    async def start(self) -> "ServeServer":
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self._requested_port
        )
        return self

    def request_shutdown(self) -> None:
        """Signal-safe trigger for graceful draining (SIGTERM/SIGINT path)."""
        self._shutdown_requested.set()

    async def wait_shutdown_requested(self) -> None:
        await self._shutdown_requested.wait()

    async def shutdown(self) -> None:
        """Drain gracefully: refuse new work, finish the backlog, close all
        sessions (stopping their backends' threads), stop listening."""
        self.app.draining = True
        await self.pool.close(drain=True)
        await self.manager.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Idle keep-alive connections block on readline forever; cancel them.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    # ------------------------------------------------------------- transport
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _FramingError as error:
                    response = Response(status=error.status, body={"error": str(error)})
                    _write_response(writer, response, keep_alive=False)
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                response = await self.app.handle(method, path, body)
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                _write_response(writer, response, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            pass  # the peer went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # shutdown cancelled an idle keep-alive connection
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    request_line = await _read_head_line(reader, 0)
    if not request_line or request_line in (b"\r\n", b"\n"):
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        raise _FramingError(
            400,
            f"request line: expected 'METHOD TARGET HTTP-VERSION', got "
            f"{request_line[:100].decode('latin-1').strip()!r}",
        ) from None
    head_bytes = len(request_line)
    headers: Dict[str, str] = {}
    n_lines = 0
    while True:
        line = await _read_head_line(reader, head_bytes)
        if line in (b"\r\n", b"\n", b""):
            break
        head_bytes += len(line)
        n_lines += 1
        if n_lines > MAX_HEADER_LINES:
            raise _FramingError(
                431, f"headers: more than {MAX_HEADER_LINES} header lines"
            )
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        length = -1
    if length < 0:
        raise _FramingError(
            400, f"Content-Length: expected a non-negative integer, got {raw_length!r}"
        )
    if length > MAX_BODY_BYTES:
        raise _FramingError(
            413, f"Content-Length: {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return method, path, headers, body


async def _read_head_line(reader: asyncio.StreamReader, head_bytes: int) -> bytes:
    """One line of the request head; 431 once the head passes its byte cap."""
    try:
        line = await reader.readline()
    except ValueError:
        # StreamReader.readline raises this for a line beyond its own 64 KiB
        # buffer limit, a head over the cap whatever else it holds.
        line = None
    if line is None or head_bytes + len(line) > MAX_HEADER_BYTES:
        raise _FramingError(
            431, f"headers: the request head exceeds the {MAX_HEADER_BYTES}-byte limit"
        )
    return line


def _write_response(
    writer: asyncio.StreamWriter, response: Response, keep_alive: bool
) -> None:
    payload, content_type = response.payload()
    reason = _REASONS.get(response.status, "Unknown")
    head = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{name}: {value}" for name, value in response.headers.items())
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)


async def start_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_concurrency: int = 2,
    max_queue: int = 32,
    default_config: Optional[Mapping[str, Any]] = None,
    max_sessions: int = 256,
) -> ServeServer:
    """Create and start a :class:`ServeServer` (port 0 picks a free port)."""
    server = ServeServer(
        host,
        port,
        max_concurrency=max_concurrency,
        max_queue=max_queue,
        default_config=default_config,
        max_sessions=max_sessions,
    )
    return await server.start()


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8093,
    *,
    max_concurrency: int = 2,
    max_queue: int = 32,
    default_config: Optional[Mapping[str, Any]] = None,
    max_sessions: int = 256,
    quiet: bool = False,
) -> int:
    """Run the service until SIGTERM/SIGINT (or ``POST /shutdown``), then
    drain gracefully. Returns 0 — the CLI's blocking entry point."""

    async def _main() -> int:
        server = await start_server(
            host,
            port,
            max_concurrency=max_concurrency,
            max_queue=max_queue,
            default_config=default_config,
            max_sessions=max_sessions,
        )
        loop = asyncio.get_running_loop()
        try:
            import signal

            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, server.request_shutdown)
        except (ImportError, NotImplementedError, RuntimeError):
            pass  # platforms without signal handler support: /shutdown only
        if not quiet:
            print(
                f"repro.serve listening on http://{server.host}:{server.port} "
                f"(pool: {max_concurrency} slots, queue {max_queue})",
                flush=True,
            )
        await server.wait_shutdown_requested()
        if not quiet:
            print("repro.serve draining...", flush=True)
        await server.shutdown()
        if not quiet:
            print("repro.serve stopped", flush=True)
        return 0

    return asyncio.run(_main())


# -------------------------------------------------------- background thread
class BackgroundServer:
    """Run a :class:`ServeServer` on a dedicated event-loop thread.

    The in-process harness examples, tests and synchronous clients use: the
    calling thread gets ``host``/``port`` once the server is listening and
    may then drive it with blocking clients. Exiting the context manager
    drains the server and joins the thread.
    """

    def __init__(self, **server_kwargs: Any) -> None:
        self._kwargs = dict(server_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[ServeServer] = None

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError("serve thread failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        async def _main() -> None:
            try:
                self.server = await start_server(**self._kwargs)
            except BaseException as error:  # surface bind errors to the caller
                self._startup_error = error
                self._ready.set()
                return
            self._ready.set()
            await self.server.wait_shutdown_requested()
            await self.server.shutdown()

        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(_main())
        finally:
            self._loop.close()

    @property
    def host(self) -> str:
        assert self.server is not None
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    def __exit__(self, *exc_info: object) -> None:
        if self._loop is not None and self.server is not None:
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=60)
