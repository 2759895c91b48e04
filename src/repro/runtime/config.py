"""The declarative run configuration every entry point shares.

Before this module existed the knobs of a classification run were scattered
across method kwargs, ``build_pipeline`` spec keys and CLI flags that all
named the same things differently.
:class:`RunConfig` is the single declarative description — what to align
against, which kernel configuration, which thresholds, which execution
backend with how many kernel threads, how many channels — that
:func:`repro.runtime.open_session`, :func:`repro.pipeline.api.build_pipeline`,
the CLI (``repro read-until --config run.json`` / ``repro config-dump``) and
the benchmarks all construct and consume.

A config is validated at construction (every error names the offending
field), serializable (``to_dict``/``from_dict``, JSON always, YAML when
PyYAML is importable), and immutable — derive variants with :meth:`with_`.
The only non-serializable escape hatch is ``reference``: a prebuilt
:class:`~repro.core.reference.ReferenceSquiggle` or
:class:`~repro.core.panel.TargetPanel` attached in code (``to_dict`` refuses
it so a dumped config never silently loses its reference).

``backend`` is ``"numpy"``, the one execution backend, or ``"auto"``,
which :func:`resolve_auto` resolves to it by a fixed rule over the usable
core count; sessions, the serving layer and ``repro config-dump --resolve``
all call it when a session is opened.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.core.config import SDTWConfig

__all__ = ["RunConfig", "load_config_mapping", "resolve_auto"]


@dataclass(frozen=True)
class RunConfig:
    """One declarative description of a Read Until classification run.

    Parameters
    ----------
    genome / targets / reference:
        What to align against — exactly one of: a single target genome
        string, a mapping of target names to genome strings (screened as one
        :class:`~repro.core.panel.TargetPanel`), or a prebuilt
        reference/panel object (code-only; not serializable).
    include_reverse_complement:
        Whether genome-built references cover both strands.
    hardware:
        The sDTW kernel configuration (:class:`SDTWConfig`); defaults to the
        paper's full hardware data path.
    threshold:
        The ejection threshold. ``None`` means "calibrate before running"
        (:meth:`repro.runtime.ReadUntilSession.calibrate`). NaN is refused;
        ``inf`` accepts every read.
    prefix_samples:
        Signal prefix examined before the accept/eject decision.
    chunk_samples:
        Simulator chunk granularity (``None``: one chunk per decision point).
    n_channels:
        Concurrently sequencing channels the session serves.
    label:
        Optional tenant/run name. Purely descriptive — it flows through
        ``to_dict``/``from_dict``, session ``summary()`` output, benchmark
        report JSON and the ``repro.serve`` session ids, but never affects
        classification.
    batch:
        Pipeline execution mode: ``None`` auto-selects the batched fast path
        when available, ``True`` requires it, ``False`` forces per-read.
    trace / trace_path:
        Observability (:mod:`repro.obs`). ``trace=True`` enables the
        in-memory flight recorder (``session.trace()``, per-phase breakdown
        in ``summary()``); ``trace_path`` additionally writes a Chrome
        trace-event / Perfetto JSON file when the session closes (and
        implies ``trace=True``). Tracing never changes decisions.
    backend / workers:
        Execution backend for the batched engine: ``"numpy"``
        (:class:`repro.batch.NumpyBackend`), or ``"auto"`` for the fixed
        rule of :func:`resolve_auto`. ``workers`` is the numpy backend's
        kernel-thread count: each round's lanes are split into that many
        contiguous groups advanced in parallel (default: one thread, the
        calling one). ``backend="auto"`` picks the thread count itself, so
        it rejects a ``workers`` value.
    prune / prune_margin:
        The engine's lane gate (early abandoning). Off by default — brute
        force preserved bit for bit. With ``prune=True`` the classifier
        derives per-lane kill bounds from its eject threshold, and a lane
        whose cached costs exceed its bound stops advancing; live lanes
        advance over every column, so accept/eject decisions stay
        bit-identical at every thread count. ``prune_margin`` (finite,
        non-negative) widens the exactness window: every reported cost
        within ``margin`` of the threshold also stays bit-exact (at the
        price of fewer pruned lanes).
    lb_cascade:
        Tighten the lane gate with an LB_Keogh-style per-target envelope
        bound on each lane's new chunk (requires ``prune``), so a lane can
        skip the round that would take it past its kill bound — before
        dispatch. Decisions stay bit-identical to brute force.
    """

    genome: Optional[str] = None
    targets: Optional[Mapping[str, str]] = None
    reference: Optional[Any] = None
    include_reverse_complement: bool = True
    hardware: SDTWConfig = field(default_factory=SDTWConfig.hardware)
    threshold: Optional[float] = None
    prefix_samples: int = 2000
    chunk_samples: Optional[int] = None
    n_channels: int = 1
    batch: Optional[bool] = None
    label: Optional[str] = None
    trace: bool = False
    trace_path: Optional[str] = None
    backend: str = "numpy"
    workers: Optional[int] = None
    prune: bool = False
    prune_margin: float = 0.0
    lb_cascade: bool = False

    def __post_init__(self) -> None:
        if self.targets is not None:
            object.__setattr__(self, "targets", dict(self.targets))
        if isinstance(self.hardware, Mapping):
            object.__setattr__(self, "hardware", SDTWConfig(**self.hardware))
        specified = [
            name
            for name, value in (
                ("genome", self.genome),
                ("targets", self.targets),
                ("reference", self.reference),
            )
            if value is not None
        ]
        if len(specified) > 1:
            raise ValueError(
                f"{specified[0]}: give exactly one of genome, targets or reference "
                f"(got {', '.join(specified)})"
            )
        if self.targets is not None and not self.targets:
            raise ValueError("targets: the panel mapping must name at least one target")
        backend = self.backend.lower()
        if backend not in ("auto", "numpy"):
            raise ValueError(
                f"backend: unknown execution backend {self.backend!r}; "
                "available backends: auto, numpy"
            )
        object.__setattr__(self, "backend", backend)
        if self.workers is not None and self.workers <= 0:
            raise ValueError(f"workers: must be positive, got {self.workers}")
        if self.backend == "auto" and self.workers is not None:
            raise ValueError(
                "workers: backend='auto' picks the thread count itself; "
                "pin the backend to set it by hand"
            )
        if self.threshold is not None and (
            not isinstance(self.threshold, Real) or math.isnan(self.threshold)
        ):
            raise ValueError(
                f"threshold: must be a number (inf accepts every read), got "
                f"{self.threshold!r}; against NaN every read would be ejected"
            )
        if not (
            isinstance(self.prune_margin, Real)
            and math.isfinite(self.prune_margin)
            and self.prune_margin >= 0
        ):
            raise ValueError(
                f"prune_margin: must be a finite non-negative number, got "
                f"{self.prune_margin!r}"
            )
        if self.lb_cascade and not self.prune:
            raise ValueError(
                "lb_cascade: requires prune=True — the lower bound tightens the "
                "prune gate's comparison against its kill bounds"
            )
        if self.prefix_samples <= 0:
            raise ValueError(f"prefix_samples: must be positive, got {self.prefix_samples}")
        if self.chunk_samples is not None and self.chunk_samples <= 0:
            raise ValueError(f"chunk_samples: must be positive, got {self.chunk_samples}")
        if self.n_channels <= 0:
            raise ValueError(f"n_channels: must be positive, got {self.n_channels}")
        if self.label is not None and (
            not isinstance(self.label, str) or not self.label.strip()
        ):
            raise ValueError(
                f"label: must be a non-empty string naming the tenant/run, "
                f"got {self.label!r}"
            )
        if self.trace_path is not None and (
            not isinstance(self.trace_path, str) or not self.trace_path.strip()
        ):
            raise ValueError(
                f"trace_path: must be a non-empty file path for the exported "
                f"Chrome trace JSON, got {self.trace_path!r}"
            )

    @property
    def tracing_enabled(self) -> bool:
        """Whether sessions built from this config record spans (``trace`` or ``trace_path``)."""
        return bool(self.trace) or self.trace_path is not None

    # ------------------------------------------------------------ derivation
    def with_(self, **changes: Any) -> "RunConfig":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    def resolve_panel(self, kmer_model: Any = None) -> Any:
        """Build (or coerce) the :class:`TargetPanel` this config aligns against."""
        from repro.core.panel import TargetPanel  # deferred: import cycle via filter
        from repro.core.reference import ReferenceSquiggle

        if self.reference is not None:
            return TargetPanel.coerce(self.reference)
        if self.targets is not None:
            return TargetPanel.from_genomes(
                dict(self.targets),
                kmer_model=kmer_model,
                include_reverse_complement=self.include_reverse_complement,
            )
        if self.genome is not None:
            return TargetPanel.single(
                ReferenceSquiggle.from_genome(
                    self.genome,
                    kmer_model=kmer_model,
                    include_reverse_complement=self.include_reverse_complement,
                )
            )
        raise ValueError(
            "reference: the RunConfig names no alignment target; set genome, "
            "targets or reference before opening a session"
        )

    # --------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """A JSON/YAML-serializable mapping of every field.

        Refuses configs carrying a prebuilt ``reference`` object: dumping one
        would silently drop the alignment target, so reproducible configs
        must name it as ``genome`` or ``targets``.
        """
        if self.reference is not None:
            raise ValueError(
                "reference: prebuilt reference objects are not serializable; "
                "use the genome or targets fields for a dumpable config"
            )
        data = {
            fld.name: getattr(self, fld.name)
            for fld in dataclasses.fields(self)
            if fld.name != "reference"
        }
        data["hardware"] = dataclasses.asdict(self.hardware)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        """Construct from a plain mapping; unknown keys raise a ValueError."""
        known = {fld.name for fld in dataclasses.fields(cls)} - {"reference"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"{unknown[0]}: unknown RunConfig field(s) {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        return cls(**dict(data))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "RunConfig":
        """Load a config from a ``.json`` or ``.yaml``/``.yml`` file."""
        return cls.from_dict(load_config_mapping(path))

    def to_file(self, path: Union[str, Path]) -> None:
        """Write the serialized config to a ``.json`` or ``.yaml``/``.yml`` file."""
        path = Path(path)
        data = self.to_dict()
        if path.suffix.lower() in (".yaml", ".yml"):
            yaml = _require_yaml(path)
            path.write_text(yaml.safe_dump(data, sort_keys=True))
        else:
            path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    def to_json(self) -> str:
        """The serialized config as an indented JSON string."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def resolve_auto(config: RunConfig) -> RunConfig:
    """The concrete config ``backend="auto"`` runs as; pinned configs pass through.

    The rule: the ``numpy`` backend with ``workers`` from
    :func:`repro.batch.backends.default_workers` (usable cores, capped at 8),
    whatever the channel count, and ``prune`` and ``lb_cascade`` always on —
    both keep every decision bit-identical to brute force. Resolving builds
    no engine and writes no file.
    """
    if config.backend != "auto":
        return config
    from repro.batch.backends import default_workers  # deferred: keeps core importable

    return config.with_(
        backend="numpy", workers=default_workers(), prune=True, lb_cascade=True
    )


def _require_yaml(path: Path) -> Any:
    try:
        import yaml  # noqa: PLC0415 - optional dependency
    except ImportError:
        raise RuntimeError(
            f"loading {path.name} needs PyYAML (pip install pyyaml); "
            "JSON configs work without it"
        ) from None
    return yaml


def load_config_mapping(path: Union[str, Path]) -> Mapping[str, Any]:
    """The raw field mapping of a config file (what the CLI overlays flags on)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() in (".yaml", ".yml"):
        data = _require_yaml(path).safe_load(text)
    else:
        data = json.loads(text)
    if not isinstance(data, Mapping):
        raise ValueError(f"{path} does not contain a mapping of RunConfig fields")
    return data
