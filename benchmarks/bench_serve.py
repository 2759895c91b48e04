"""Asyncio load generator for the ``repro.serve`` classification service.

Replays seeded flowcells as ``N`` concurrent tenants, each an
:class:`~repro.serve.client.AsyncServeClient` driving its own closed-loop
Read Until replay (``repro.serve.workload.replay_flowcell_async``), and
reports throughput plus client-observed per-round latency percentiles
(p50/p95/p99) per client count.

Three correctness properties are asserted, not just measured:

* **Bit identity** — every tenant's served decision records must equal the
  decisions from replaying the same workload through a local
  :func:`~repro.runtime.open_session` (JSON floats round-trip float64
  exactly, so the wire adds nothing).
* **Backpressure, not loss** — a deliberately saturated pass (pool of one
  slot, tiny admission queue) must produce ``429`` retries **and** the same
  decisions with zero dropped rounds: saturation is admission control, not
  failure.
* **Clean service state** — ``/health`` stays green, the server's
  ``repro_serve_rounds_total`` counters account for every submitted round,
  and the per-phase ``repro_serve_round_phase_seconds`` series (fed by the
  sessions' tracer phase totals) is present; its per-phase totals land in the
  report under ``round_phases``.

Modes:

* default — spins up an in-process :class:`~repro.serve.BackgroundServer`
  (ephemeral port), sweeps ``--clients`` (default 1, 4, 8), then runs the
  saturation pass, and writes the committed ``BENCH_serve.json`` report when
  ``--json`` is given.
* ``--smoke`` — 2 clients, short reads, against an **external** server when
  ``--port`` is given (the CI job starts ``repro serve`` separately) or an
  in-process one otherwise; skips the saturation pass (pool geometry is the
  server's, not ours) but still asserts bit identity.

Example::

    PYTHONPATH=src python benchmarks/bench_serve.py --clients 1 4 8 \
        --json BENCH_serve.json
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke --port 8093
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import re
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from _bench_utils import host_block, print_rows

from repro.runtime import open_session
from repro.serve import BackgroundServer
from repro.serve.client import AsyncServeClient, ServeClient
from repro.serve.workload import (
    TenantWorkload,
    build_tenant_workloads,
    replay_flowcell,
    replay_flowcell_async,
)


def _percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (same convention as the server's /metrics)."""
    if not samples:
        return math.nan
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _baseline_decisions(workloads: Sequence[TenantWorkload]) -> List[Dict[str, Any]]:
    """Ground truth: replay every tenant through a local open_session."""
    baselines = []
    for workload in workloads:
        with open_session(workload.config) as session:
            decisions, rounds = replay_flowcell(session.submit, workload)
        baselines.append({"decisions": decisions, "rounds": rounds})
    return baselines


async def _run_tenant(
    host: str, port: int, workload: TenantWorkload
) -> Dict[str, Any]:
    """One tenant: create session, replay the flowcell, close, report."""
    client = AsyncServeClient(host, port)
    try:
        session_id = await client.create_session(workload.config)

        async def submit(chunks):
            actions, _meta = await client.submit_round(session_id, chunks)
            return actions

        decisions, rounds, latencies = await replay_flowcell_async(submit, workload)
        final = await client.close_session(session_id)
        return {
            "label": workload.label,
            "decisions": decisions,
            "rounds": rounds,
            "latencies": latencies,
            "backpressure_retries": client.backpressure_retries,
            "final_summary_label": final.get("label"),
        }
    finally:
        await client.close()


async def _run_fleet(
    host: str, port: int, workloads: Sequence[TenantWorkload]
) -> Dict[str, Any]:
    start = time.perf_counter()
    tenants = await asyncio.gather(
        *(_run_tenant(host, port, workload) for workload in workloads)
    )
    wall_s = time.perf_counter() - start
    return {"wall_s": wall_s, "tenants": list(tenants)}


def _check_identity(
    tenants: Sequence[Dict[str, Any]], baselines: Sequence[Dict[str, Any]]
) -> None:
    for tenant, baseline in zip(tenants, baselines):
        if tenant["decisions"] != baseline["decisions"]:
            raise AssertionError(
                f"served decisions diverge from local open_session for "
                f"tenant {tenant['label']!r}"
            )
        if tenant["rounds"] != baseline["rounds"]:
            raise AssertionError(
                f"tenant {tenant['label']!r} submitted {tenant['rounds']} "
                f"rounds but the local replay took {baseline['rounds']} — "
                "a round was dropped or duplicated"
            )


def _aggregate(
    clients: int, fleet: Dict[str, Any], baselines: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    tenants = fleet["tenants"]
    _check_identity(tenants, baselines)
    latencies = [value for tenant in tenants for value in tenant["latencies"]]
    rounds = sum(tenant["rounds"] for tenant in tenants)
    return {
        "clients": clients,
        "rounds": rounds,
        "wall_s": round(fleet["wall_s"], 4),
        "throughput_rounds_per_s": round(rounds / fleet["wall_s"], 3),
        "round_latency_p50_s": round(_percentile(latencies, 0.50), 5),
        "round_latency_p95_s": round(_percentile(latencies, 0.95), 5),
        "round_latency_p99_s": round(_percentile(latencies, 0.99), 5),
        "backpressure_retries": sum(
            tenant["backpressure_retries"] for tenant in tenants
        ),
        "bit_identical": True,  # _check_identity raised otherwise
    }


_PHASE_LABEL = re.compile(r'phase="([^"]*)"')


def _parse_phase_series(metrics: str) -> Dict[str, Dict[str, float]]:
    """Aggregate ``repro_serve_round_phase_seconds`` across sessions."""
    phases: Dict[str, Dict[str, float]] = {}
    for line in metrics.splitlines():
        if not line.startswith("repro_serve_round_phase_seconds_"):
            continue
        match = _PHASE_LABEL.search(line)
        if match is None:
            continue
        entry = phases.setdefault(match.group(1), {"seconds": 0.0, "observations": 0})
        value = float(line.rsplit(" ", 1)[1])
        if line.startswith("repro_serve_round_phase_seconds_sum{"):
            entry["seconds"] += value
        elif line.startswith("repro_serve_round_phase_seconds_count{"):
            entry["observations"] += int(value)
    return {
        phase: {
            "seconds": round(entry["seconds"], 6),
            "observations": int(entry["observations"]),
        }
        for phase, entry in sorted(phases.items())
    }


def _service_checks(host: str, port: int, expected_rounds: int) -> Dict[str, Any]:
    """Post-run /health and /metrics assertions (shared with --smoke)."""
    probe = ServeClient(host, port)
    try:
        health = probe.health()
        if health.get("status") not in ("ok", "draining"):
            raise AssertionError(f"/health not green: {health}")
        metrics = probe.metrics_text()
        served = 0
        for line in metrics.splitlines():
            if line.startswith("repro_serve_rounds_total{"):
                served += int(float(line.rsplit(" ", 1)[1]))
        if served < expected_rounds:
            raise AssertionError(
                f"/metrics accounts for {served} rounds, expected at least "
                f"{expected_rounds}"
            )
        phases = _parse_phase_series(metrics)
        if not phases:
            raise AssertionError(
                "/metrics exposes no repro_serve_round_phase_seconds series — "
                "served sessions should always run with tracing on"
            )
        return {
            "health": health.get("status"),
            "metrics_rounds_total": served,
            "round_phases": phases,
        }
    finally:
        probe.close()


def _sweep(
    client_counts: Sequence[int],
    workload_kwargs: Dict[str, Any],
    max_concurrency: int,
    max_queue: int,
    external: Optional[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    all_workloads = build_tenant_workloads(max(client_counts), **workload_kwargs)
    baselines = _baseline_decisions(all_workloads)
    rows = []
    for clients in client_counts:
        workloads = all_workloads[:clients]
        if external is not None:
            host, port = external["host"], external["port"]
            fleet = asyncio.run(_run_fleet(host, port, workloads))
            row = _aggregate(clients, fleet, baselines[:clients])
            row.update(_service_checks(host, port, row["rounds"]))
        else:
            with BackgroundServer(
                max_concurrency=max_concurrency, max_queue=max_queue
            ) as server:
                fleet = asyncio.run(_run_fleet("127.0.0.1", server.port, workloads))
                row = _aggregate(clients, fleet, baselines[:clients])
                row.update(_service_checks("127.0.0.1", server.port, row["rounds"]))
        rows.append(row)
        print(
            f"  clients={clients}: {row['throughput_rounds_per_s']} rounds/s, "
            f"p50={row['round_latency_p50_s']}s p99={row['round_latency_p99_s']}s, "
            f"retries={row['backpressure_retries']}"
        )
    return rows


def _saturation_pass(
    clients: int, workload_kwargs: Dict[str, Any]
) -> Dict[str, Any]:
    """One slot, near-zero queue: saturation must retry, never drop."""
    workloads = build_tenant_workloads(clients, **workload_kwargs)
    baselines = _baseline_decisions(workloads)
    with BackgroundServer(max_concurrency=1, max_queue=2) as server:
        fleet = asyncio.run(_run_fleet("127.0.0.1", server.port, workloads))
        row = _aggregate(clients, fleet, baselines)
    row["max_concurrency"] = 1
    row["max_queue"] = 2
    if row["backpressure_retries"] == 0:
        raise AssertionError(
            "saturation pass produced zero 429 retries — the pool never "
            "pushed back (max_queue too large for this workload?)"
        )
    print(
        f"  saturation clients={clients}: {row['backpressure_retries']} "
        "backpressure retries, zero dropped rounds, decisions bit-identical"
    )
    return row


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--clients",
        type=int,
        nargs="+",
        default=None,
        help="client counts to sweep (default: 1 4 8; --smoke: 2)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short CI run: 2 clients, small reads, no saturation pass",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="external server host (with --port)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="connect to an already-running server instead of spawning one",
    )
    parser.add_argument(
        "--reads", type=int, default=None, help="reads per tenant (default 6; smoke 3)"
    )
    parser.add_argument(
        "--max-concurrency", type=int, default=2, help="in-process pool slots"
    )
    parser.add_argument(
        "--max-queue", type=int, default=32, help="in-process admission queue"
    )
    parser.add_argument(
        "--json", default=None, help="write the JSON report here (e.g. BENCH_serve.json)"
    )
    args = parser.parse_args(argv)

    client_counts = args.clients or ([2] if args.smoke else [1, 4, 8])
    reads = args.reads or (3 if args.smoke else 6)
    workload_kwargs = {"reads_per_tenant": reads, "n_channels": 4}
    external = {"host": args.host, "port": args.port} if args.port else None

    print(
        f"bench_serve: clients={client_counts} reads/tenant={reads} "
        + (f"external {args.host}:{args.port}" if external else "in-process server")
    )
    sweep_rows = _sweep(
        client_counts, workload_kwargs, args.max_concurrency, args.max_queue, external
    )

    report: Dict[str, Any] = {
        "host": host_block(),
        "workload": {
            "reads_per_tenant": reads,
            "n_channels": 4,
            "seed": 20210823,
            "smoke": bool(args.smoke),
        },
        "server": (
            {"mode": "external", "host": args.host, "port": args.port}
            if external
            else {
                "mode": "in-process",
                "max_concurrency": args.max_concurrency,
                "max_queue": args.max_queue,
            }
        ),
        "sweep": sweep_rows,
    }
    if not args.smoke and external is None:
        report["saturation"] = _saturation_pass(
            max(4, min(client_counts)), workload_kwargs
        )

    print_rows(
        "serve load sweep",
        sweep_rows,
        columns=[
            "clients",
            "rounds",
            "throughput_rounds_per_s",
            "round_latency_p50_s",
            "round_latency_p95_s",
            "round_latency_p99_s",
            "backpressure_retries",
            "bit_identical",
        ],
    )
    if args.json and args.json != "-":
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.json}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
