"""Candidate generation and the budgeted probe search.

µ-cuDNN's optimizer enumerates only the convolution algorithms the library
actually installed, benchmarks them on the real layer shape, and stops as
soon as a winner is clear; this module is the same search for the sDTW
runtime. Candidates are ``(backend, workers, prune, lb_cascade)`` points
drawn from:

* **installed backends only** — the registry
  (:func:`repro.batch.available_backends`) filtered by the native kernel's
  import probes, so a candidate list never names an engine this host cannot
  construct;
* **core-count seeds** — ``workers`` candidates from ``os.cpu_count()``
  (multi-process backends are only candidates when there is more than one
  core to shard across);
* **the exactness-preserving layers** — ``prune`` and ``prune+lb_cascade``
  variants of the in-process backends; both preserve accept/eject decisions
  bit for bit, so the tuner is free to turn them on whenever the probe says
  they pay.

The search itself is budgeted (``tune_budget_s`` bounds probe wall clock;
the first candidate always runs so resolution cannot come back empty) and
early-stops once the incumbent leads the runner-up by a configurable margin
after a minimum number of probes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Tuple

from repro.tune.cache import TunedDecision, TuningCache, cache_key
from repro.tune.probe import (
    PROBE_ROUNDS,
    PROBE_SEED,
    ProbeResult,
    WorkloadShape,
    run_probe,
    synthesize_workload,
)

__all__ = [
    "TuneOutcome",
    "generate_candidates",
    "installed_backends",
    "resolve_auto",
    "tune_config",
]

# Search defaults; override per run via RunConfig.tune = {"margin": ..., ...}.
DEFAULT_MARGIN = 1.25  # incumbent must lead runner-up by 25% to stop early
DEFAULT_MIN_PROBES = 3


def installed_backends() -> List[str]:
    """Registry backends this host can actually construct.

    ``available_backends()`` lists every *registered* name; the native
    entry additionally needs an importable kernel (Numba or the AOT Cython
    extension). Filtering here means a candidate never fails for a reason
    the probe could have known up front.
    """
    from repro.batch.backends import available_backends
    from repro.batch.native import cython_kernel_available, numba_available

    names: List[str] = []
    for name in available_backends():
        if name == "native" and not (numba_available() or cython_kernel_available()):
            continue
        names.append(name)
    return names


def _worker_seeds() -> List[int]:
    """Worker counts worth probing for the multi-process backends."""
    cpu = int(os.cpu_count() or 1)
    if cpu < 2:
        return []
    seeds = {2, min(4, cpu), cpu}
    return sorted(count for count in seeds if 2 <= count <= cpu)


def generate_candidates() -> List[ProbeResult]:
    """The ordered candidate list (as unprobed result points).

    Ordered so the strongest priors come first — the search early-stops and
    the budget truncates the tail, so a good incumbent must surface early:
    in-process brute force (the deployment default), its pruned and gated
    variants (big wins on mixed workloads, measured here on the mixed probe
    workload), the native kernel when installed, then the multi-process
    backends.
    """
    installed = installed_backends()
    candidates: List[ProbeResult] = []

    def add(backend: str, **point: Any) -> None:
        if backend in installed:
            candidates.append(ProbeResult(backend=backend, **point))

    add("numpy")
    add("numpy", prune=True)
    add("numpy", prune=True, lb_cascade=True)
    add("native")
    add("native", prune=True, lb_cascade=True)
    for workers in _worker_seeds():
        add("sharded", workers=workers)
        add("colsharded", workers=workers)
    return candidates


@dataclass(frozen=True)
class TuneOutcome:
    """Everything one resolution produced: the decision and how it was made."""

    decision: TunedDecision
    results: Tuple[ProbeResult, ...]
    shape: WorkloadShape
    key: str
    cache_path: str

    def table(self) -> List[Mapping[str, Any]]:
        """Probe-table rows, fastest first (the CLI and example print these)."""
        ordered = sorted(self.results, key=lambda r: r.cell_rate, reverse=True)
        return [result.as_row() for result in ordered]


def _tune_options(config: Any) -> Mapping[str, Any]:
    return dict(getattr(config, "tune", None) or {})


def tune_config(
    config: Any,
    panel: Optional[Any] = None,
    tracer: Optional[Any] = None,
    cache: Optional[TuningCache] = None,
) -> TuneOutcome:
    """Resolve the tuning decision for ``config`` (probe or cache hit).

    Honors ``config.tune`` options: ``cache_path`` (where the JSON cache
    lives), ``ignore_cache`` (skip the lookup, still record the verdict),
    ``margin``/``min_probes`` (early-stop policy), ``rounds``/``seed``
    (probe workload). Probe wall clock is bounded by
    ``config.tune_budget_s``; the first candidate always runs so the
    resolution cannot come back empty. Every probe runs under a
    ``tune.probe`` span on the caller's tracer (sessions pass theirs, so
    resolution shows up in the trace like any other phase).
    """
    from repro.obs.trace import NULL_TRACER

    tracer = tracer if tracer is not None else NULL_TRACER
    options = _tune_options(config)
    shape = WorkloadShape.from_config(config, panel=panel)
    key = cache_key(shape)
    if cache is None:
        cache = TuningCache(options.get("cache_path"))
    if not options.get("ignore_cache", False):
        entry = cache.get(key)
        if entry is not None and entry.get("backend"):
            try:
                decision = TunedDecision.from_dict(entry, cache_hit=True, key=key)
            except TypeError:
                decision = None
            if decision is not None:
                return TuneOutcome(
                    decision=decision,
                    results=(),
                    shape=shape,
                    key=key,
                    cache_path=str(cache.path),
                )

    margin = float(options.get("margin", DEFAULT_MARGIN))
    min_probes = int(options.get("min_probes", DEFAULT_MIN_PROBES))
    budget_s = float(getattr(config, "tune_budget_s", 2.0))
    start = time.perf_counter()
    with tracer.span("tune.workload", key=key):
        workload = synthesize_workload(
            shape,
            n_rounds=int(options.get("rounds", PROBE_ROUNDS)),
            seed=int(options.get("seed", PROBE_SEED)),
        )

    candidates = generate_candidates()
    results: List[ProbeResult] = []
    for candidate in candidates:
        elapsed = time.perf_counter() - start
        if results and elapsed >= budget_s:
            break
        with tracer.span(
            "tune.probe",
            candidate=candidate.label,
            backend=candidate.backend,
        ):
            result = run_probe(
                workload,
                backend=candidate.backend,
                workers=candidate.workers,
                prune=candidate.prune,
                lb_cascade=candidate.lb_cascade,
            )
        results.append(result)
        measured = sorted(
            (r for r in results if r.error is None),
            key=lambda r: r.cell_rate,
            reverse=True,
        )
        if len(results) >= min_probes and len(measured) >= 2:
            if measured[0].cell_rate >= margin * measured[1].cell_rate:
                break

    probed_s = time.perf_counter() - start
    measured = [r for r in results if r.error is None]
    if not measured:
        # Every candidate failed (should be impossible: numpy always runs).
        # Degrade to brute-force numpy rather than taking the session down.
        best = ProbeResult(backend="numpy")
    else:
        best = max(measured, key=lambda r: r.cell_rate)
    decision = TunedDecision(
        backend=best.backend,
        workers=best.workers,
        prune=best.prune,
        lb_cascade=best.lb_cascade,
        cell_rate=best.cell_rate,
        probed_s=probed_s,
        n_probes=len(results),
        cache_hit=False,
        key=key,
    )
    cache.put(key, decision.as_dict())
    cache.save()
    return TuneOutcome(
        decision=decision,
        results=tuple(results),
        shape=shape,
        key=key,
        cache_path=str(cache.path),
    )


def resolve_auto(
    config: Any,
    panel: Optional[Any] = None,
    tracer: Optional[Any] = None,
    cache: Optional[TuningCache] = None,
) -> Tuple[Any, TunedDecision]:
    """Resolve ``backend="auto"`` to a concrete, validated config.

    The identity transform for already-pinned configs, so call sites can
    route every config through here. Returns ``(resolved_config,
    decision)``; the decision's ``cache_hit`` flag says whether probes ran.
    """
    if getattr(config, "backend", None) != "auto":
        decision = TunedDecision(
            backend=config.backend,
            workers=config.workers,
            prune=config.prune,
            lb_cascade=config.lb_cascade,
            cache_hit=True,
        )
        return config, decision
    outcome = tune_config(config, panel=panel, tracer=tracer, cache=cache)
    return outcome.decision.apply(config), outcome.decision
