"""repro.tune — the self-tuning runtime.

Backend choice, worker counts and the exactness-preserving prune/lower-bound
layers all have workload- and host-dependent payoffs.
This package picks the operating point automatically, µ-cuDNN style:

* :mod:`repro.tune.probe` — deterministic calibration probes that replay a
  synthetic workload of the session's shape through each candidate point;
* :mod:`repro.tune.search` — the candidate generator (installed backends
  only, core-count-seeded worker sizes) and the budgeted, early-stopping
  search;
* :mod:`repro.tune.cache` — the persistent JSON tuning cache
  (``~/.cache/repro/tune.json``) keyed by host fingerprint and workload
  shape, so repeat runs skip the probes entirely.

Entry points opt in with ``RunConfig(backend="auto")``; sessions resolve it
lazily at spawn (traced as ``tune.probe`` spans), ``repro tune`` warms the
cache from the CLI, and ``repro.serve`` resolves each template once and
reuses the decision for every tenant session. All candidate points preserve
accept/eject decisions bit for bit, so tuning can never change a
classification — only its speed.
"""

from repro.tune.cache import (
    SCHEMA_VERSION,
    TunedDecision,
    TuningCache,
    cache_key,
    default_cache_path,
    host_fingerprint,
    size_bucket,
)
from repro.tune.probe import (
    ProbeResult,
    ProbeWorkload,
    WorkloadShape,
    run_probe,
    synthesize_workload,
)
from repro.tune.search import (
    TuneOutcome,
    generate_candidates,
    installed_backends,
    resolve_auto,
    tune_config,
)

__all__ = [
    "SCHEMA_VERSION",
    "ProbeResult",
    "ProbeWorkload",
    "TuneOutcome",
    "TunedDecision",
    "TuningCache",
    "WorkloadShape",
    "cache_key",
    "default_cache_path",
    "generate_candidates",
    "host_fingerprint",
    "installed_backends",
    "resolve_auto",
    "run_probe",
    "size_bucket",
    "synthesize_workload",
    "tune_config",
]
