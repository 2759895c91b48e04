"""The unified runtime API: declarative configs and session lifecycle.

One import gives the two objects every modern entry point is built on:

* :class:`RunConfig` — the validated, serializable description of a
  classification run (reference/panel, kernel config, thresholds,
  batch/backend/workers, channel count) with
  ``from_dict``/``to_dict`` and JSON/YAML file loading;
* :func:`open_session` / :class:`ReadUntilSession` — the lifecycle object
  that owns lazy backend creation, engine teardown (context manager,
  idempotent ``close()``, close-on-error) and the streaming interface
  (``submit(round_chunks) -> decisions``, ``summary()``).

Quickstart::

    from repro.runtime import RunConfig, open_session

    config = RunConfig(genome=genome, threshold=120_000.0,
                       n_channels=8, workers=4)
    with open_session(config) as session:
        result = session.run(reads)

The lower-level entry points (``build_pipeline(config)``,
``BatchSquiggleClassifier(run_config=...)``) take the same config and make
bit-identical decisions.
"""

from repro.runtime.config import RunConfig, load_config_mapping, resolve_auto
from repro.runtime.session import ReadUntilSession, SessionClosedError, open_session

__all__ = [
    "ReadUntilSession",
    "RunConfig",
    "SessionClosedError",
    "load_config_mapping",
    "open_session",
    "resolve_auto",
]
