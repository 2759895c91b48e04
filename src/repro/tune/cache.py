"""The persistent tuning cache: probe once per (host, shape), reuse forever.

µ-cuDNN's micro-batch optimizer caches its per-layer benchmark verdicts so a
second run of the same network pays nothing; this module is the same idea
for the Read Until runtime. A tuning decision is valid exactly as long as
the *host* (core count, interpreter, BLAS) and the *workload shape*
(reference columns, channel count, chunk length, panel blocks, kernel data
path) stay the same, so the cache key is a fingerprint of both — with the
size axes bucketed to powers of two, because a 4790-column reference and a
4801-column one tune identically.

The cache is one JSON file (default ``~/.cache/repro/tune.json``,
overridable via ``$REPRO_TUNE_CACHE`` or a ``cache_path`` tuner option) and
is deliberately paranoid about its own state: a missing, corrupted,
truncated or schema-stale file loads as *empty* — the tuner falls back to
probing, never raises — and writes are atomic (tempfile + rename) so a
crashed process cannot leave a half-written cache behind. ``ignore_cache``
callers skip the lookup but still record their verdict for the next run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "TunedDecision",
    "TuningCache",
    "cache_key",
    "default_cache_path",
    "host_fingerprint",
    "size_bucket",
]

# Bump when the cached decision payload or key derivation changes shape;
# entries from any other version load as empty (stale schemas never crash).
SCHEMA_VERSION = 2


def default_cache_path() -> Path:
    """Where the tuning cache lives unless a caller says otherwise.

    ``$REPRO_TUNE_CACHE`` wins (tests and hermetic deployments point it at a
    scratch file), then ``$XDG_CACHE_HOME/repro/tune.json``, then
    ``~/.cache/repro/tune.json``.
    """
    override = os.environ.get("REPRO_TUNE_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "tune.json"


def _blas_signature() -> str:
    """A best-effort name for the BLAS numpy was built against.

    Part of the host fingerprint because backend throughput ordering can
    flip with the BLAS (threaded MKL vs reference). Every numpy version
    spells its build config differently, so any failure degrades to
    ``"unknown"`` rather than poisoning the fingerprint.
    """
    try:
        config = np.__config__.show(mode="dicts")  # numpy >= 1.25
        blas = config.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name", "unknown")
        return str(name) if name else "unknown"
    except Exception:
        return "unknown"


def host_fingerprint() -> Dict[str, Any]:
    """The host-side half of the cache key, as a stable mapping.

    Everything here is cheap to read and deterministic across processes on
    one machine: logical core count (sizes the worker-pool candidates),
    platform triple, interpreter version (major.minor — patch releases do
    not move kernels), numpy version and BLAS name.
    """
    return {
        "cpu_count": int(os.cpu_count() or 1),
        "platform": f"{platform.system()}-{platform.machine()}",
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "numpy": np.__version__,
        "blas": _blas_signature(),
    }


def size_bucket(value: int) -> int:
    """The power-of-two bucket a size axis falls in (``0`` stays ``0``).

    Tuning decisions transfer between nearby sizes; bucketing keeps the
    cache small and makes the key stable under estimate-vs-exact column
    counts (a genome's estimated squiggle length and the built reference's
    real one land in the same bucket).
    """
    value = int(value)
    if value <= 0:
        return 0
    return 1 << (value - 1).bit_length()


def cache_key(shape: Any, fingerprint: Optional[Mapping[str, Any]] = None) -> str:
    """One stable string key for a (host, workload shape) pair.

    ``shape`` is a :class:`repro.tune.probe.WorkloadShape` (duck-typed: the
    key reads ``reference_columns`` / ``n_blocks`` / ``n_channels`` /
    ``chunk_samples`` / ``dtype_path``). Stable across processes by
    construction — every component is derived, none is randomized.
    """
    host = dict(fingerprint) if fingerprint is not None else host_fingerprint()
    parts = [
        f"v{SCHEMA_VERSION}",
        f"cpu={host['cpu_count']}",
        f"os={host['platform']}",
        f"py={host['python']}",
        f"np={host['numpy']}",
        f"blas={host['blas']}",
        f"cols={size_bucket(shape.reference_columns)}",
        f"blocks={size_bucket(shape.n_blocks)}",
        f"ch={size_bucket(shape.n_channels)}",
        f"chunk={size_bucket(shape.chunk_samples)}",
        f"dtype={shape.dtype_path}",
    ]
    return "|".join(parts)


@dataclass(frozen=True)
class TunedDecision:
    """The point the tuner picked, plus how it was reached.

    ``cache_hit`` distinguishes a decision replayed from the cache (file or
    the serving layer's per-template memo) from one freshly probed;
    ``cell_rate`` is the winning probe's nominal DP cells per second (0.0
    for a cache hit replay, which re-measures nothing).
    """

    backend: str
    workers: Optional[int] = None
    prune: bool = False
    lb_cascade: bool = False
    cell_rate: float = 0.0
    probed_s: float = 0.0
    n_probes: int = 0
    cache_hit: bool = False
    key: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], **overrides: Any) -> "TunedDecision":
        known = {field.name for field in dataclasses.fields(cls)}
        kept = {key: value for key, value in data.items() if key in known}
        kept.update(overrides)
        return cls(**kept)

    def apply(self, config: Any) -> Any:
        """Pin this decision into a :class:`~repro.runtime.RunConfig`.

        Returns a re-validated copy with the concrete backend and sizing
        fields; a user's explicit ``prune``/``lb_cascade`` are never turned
        *off* (the tuner only adds the layers, both of which preserve
        decisions bit for bit).
        """
        return config.with_(
            backend=self.backend,
            workers=self.workers,
            prune=bool(self.prune or config.prune),
            lb_cascade=bool(self.lb_cascade or config.lb_cascade),
        )


class TuningCache:
    """Corruption-tolerant JSON store of :class:`TunedDecision` payloads."""

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else default_cache_path()
        self._entries: Dict[str, Dict[str, Any]] = {}
        self.load()

    def load(self) -> None:
        """(Re)read the cache file; anything unreadable loads as empty."""
        self._entries = {}
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return  # missing, unreadable or corrupted: probe instead
        if not isinstance(raw, dict) or raw.get("schema") != SCHEMA_VERSION:
            return  # stale or foreign schema: probe instead
        entries = raw.get("entries")
        if isinstance(entries, dict):
            self._entries = {
                key: dict(value)
                for key, value in entries.items()
                if isinstance(key, str) and isinstance(value, dict)
            }

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        entry = self._entries.get(key)
        return dict(entry) if entry is not None else None

    def put(self, key: str, decision: Mapping[str, Any]) -> None:
        self._entries[key] = dict(decision)

    def save(self) -> bool:
        """Atomically persist the entries; an unwritable path is non-fatal.

        Returns whether the write landed — tuning must keep working on
        read-only filesystems, it just re-probes next run.
        """
        payload = json.dumps(
            {"schema": SCHEMA_VERSION, "entries": self._entries},
            indent=2,
            sort_keys=True,
        )
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload + "\n")
                os.replace(tmp_name, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    def clear(self) -> None:
        """Drop every entry and delete the file (the CLI's escape hatch)."""
        self._entries = {}
        try:
            self.path.unlink()
        except OSError:
            pass

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries
