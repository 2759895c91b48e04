"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flowcell_default --seed 1 --seconds 34 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run; ``--trace 1``
reports the per-layer metrics of a traced one and writes its Chrome trace to
``perfbench/out/`` (render it with ``repro trace <file>``). The last stdout
line is the result object; the lines before it carry the provenance report
and readable tables. The exit code is non-zero when a decision disagrees with
the scalar oracle or a local replay, or when the checkout has no ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("realtime_factor", "ratio"),
    ("round_p50_ms", "ms"),
    ("round_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_round_frac", "ratio"),
)


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(inputs: Any, outcome: Any, failed: int, attempted: int) -> Dict[str, float]:
    import numpy as np

    from repro.sequencer.run import MinIONParameters

    replay = outcome.replays[-1]
    latencies_ms = np.asarray(replay.latencies_s, dtype=np.float64) * 1e3
    flowcell_rate = inputs.spec.total_channels * MinIONParameters().sample_rate_hz
    return {
        "realtime_factor": replay.samples / replay.wall_s / flowcell_rate,
        "round_p50_ms": float(np.percentile(latencies_ms, 50)),
        "round_p90_ms": float(np.percentile(latencies_ms, 90)),
        "setup_s": statistics.median(outcome.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_round_frac": 1.0 - failed / attempted if attempted else 0.0,
    }


def decision_quality(inputs: Any, outcome: Any) -> Dict[str, float]:
    """Recall and ejection rate over the measured replay's decided reads.

    Reported, not gated: at 1% target reads a run decides only a handful of
    target reads, so recall moves by a whole read's share from seed to seed.
    Decisions themselves are held bit-exact by the oracle check.
    """
    replay = outcome.replays[-1]
    truth = [inputs.tenants[d.tenant].pool[d.pool_index].is_target for d in replay.decisions]
    targets = [d.action.kind for d, is_target in zip(replay.decisions, truth) if is_target]
    others = [d.action.kind for d, is_target in zip(replay.decisions, truth) if not is_target]
    return {
        "target_recall": targets.count("accept") / len(targets) if targets else 0.0,
        "target_reads_decided": len(targets),
        "offtarget_eject_rate": others.count("eject") / len(others) if others else 0.0,
        "offtarget_reads_decided": len(others),
    }


def provenance(inputs: Any, outcome: Any) -> Dict[str, Any]:
    """Host and kernel-build block: which machine, and which wavefront path ran."""
    import numpy as np

    from repro.batch.native import cython_kernel_available, numba_available

    calls = outcome.kernel_calls
    paths = [name for name in ("int32", "int64_or_float") if calls.get(name)]
    return {
        "host": {
            "cpu_count": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "kernel": {
            "backend": inputs.config.backend,
            "build": "numpy wavefront (the numpy backend calls no compiled kernel)",
            "compiled_available": {"numba": numba_available(), "cython": cython_kernel_available()},
            "wavefront_calls": dict(calls),
            "int_path": "+".join(paths) or "none",
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import asyncio

    from perfbench.flows import run_local, run_served
    from perfbench.layers import PER_LAYER, not_applicable
    from perfbench.verify import verify
    from perfbench.workloads import WORKLOADS, build_inputs

    spec = WORKLOADS.get(args.workload)
    if spec is None or args.seconds <= 0:
        print(f"perfbench: workloads are {', '.join(WORKLOADS)}; --seconds > 0", file=sys.stderr)
        return 2
    inputs = build_inputs(spec, args.seed)
    trace_path = None
    if args.trace:
        trace_path = ROOT / "perfbench" / "out" / f"trace-{spec.name}-seed{args.seed}.json"
    if spec.served:
        outcome = asyncio.run(run_served(inputs, args.seconds, trace_path))
    else:
        outcome = run_local(inputs, args.seconds, trace_path)

    failed, reasons, checked = verify(inputs, outcome)
    attempted = sum(replay.attempted for replay in outcome.replays)
    if checked == 0:
        reasons.append("no oracle-sampled read was decided, so nothing was verified")
    correct = not failed and checked > 0

    skipped = not_applicable(inputs.config, spec.served) if args.trace else []
    if args.trace:
        values = dict(outcome.layers, **{name: 0.0 for name in skipped})
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = end_to_end(inputs, outcome, len(failed), attempted)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    replay = outcome.replays[-1]
    quality = decision_quality(inputs, outcome)
    config = {k: v for k, v in inputs.config.to_dict().items() if k not in ("genome", "targets")}
    report = {
        "workload": spec.name,
        "why": spec.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "run_config": config,
        "tenants": spec.tenants,
        "total_channels": spec.total_channels,
        "threshold": outcome.threshold,
        "setup_s_each": outcome.setup_s,
        "rounds_per_tenant": replay.rounds_per_tenant,
        "decisions": len(replay.decisions),
        "decision_quality": quality,
        "oracle_checked": checked,
        "failures": reasons[:20],
        "not_applicable": skipped,
        "trace_file": str(outcome.trace_file.relative_to(ROOT)) if outcome.trace_file else None,
        **provenance(inputs, outcome),
    }
    print(json.dumps({"report": report}, sort_keys=True))
    if outcome.phase_table:
        print(outcome.phase_table)
    for name, metric in metrics.items():
        note = "  (not applicable)" if name in skipped else ""
        print(f"{name:30s} {metric['value']:>20.6f} {metric['unit']}{note}")
    for name in ("target_recall", "offtarget_eject_rate"):
        print(f"{name:30s} {quality[name]:>20.6f} ratio  (reported, not gated)")
    result = {"correct": correct, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
