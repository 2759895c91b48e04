"""The unified streaming classifier API for Read Until.

Every Read Until classifier in this repository — the single-stage
:class:`~repro.core.filter.SquiggleFilter`, the multi-stage variant, the
hardware accelerator model and the basecall+align baseline — ultimately makes
the same kind of decision: given the signal chunks of a read streamed by the
sequencer, accept it (keep sequencing), eject it, or wait for more signal.
This module makes that contract explicit:

* :class:`Action` — a typed accept/eject/wait decision carrying the cost,
  stage and samples-used accounting the runtime models need;
* :class:`ReadUntilClassifier` — the incremental protocol
  (``begin_read(read_id)`` / ``on_chunk(SignalChunk) -> Action``) every
  streaming classifier implements;
* adapters that lift the repository's whole-prefix classifiers into the
  protocol (:class:`SingleStageAdapter`, :class:`MultiStageAdapter`,
  :class:`BasecallAlignAdapter`) plus :func:`as_streaming_classifier`, the
  structural dispatcher that picks the right one;
* a string-keyed classifier **registry** (:func:`register_classifier`,
  :func:`create_classifier`, :func:`available_classifiers`) mirroring how
  UNCALLED exposes its pluggable DTW methods behind a ``METHODS`` mapping;
* :func:`build_pipeline` — a factory that constructs a fully wired
  :class:`~repro.pipeline.read_until.ReadUntilPipeline` (classifier,
  :class:`~repro.sequencer.run.MinIONParameters`, assembler) from a
  :class:`~repro.runtime.RunConfig` or a plain config mapping; batch-capable
  classifiers run on the one execution backend, ``numpy`` (``backend`` is
  ``"numpy"`` or ``"auto"``, ``workers`` its thread count).

The payoff of streaming semantics is the multi-stage adapter: early stages
fire as soon as their prefix has arrived on the wire, so a clear non-target
read is ejected on an *early chunk* instead of after the final stage's prefix
— something a whole-prefix ``classify()`` call cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.assembly.consensus import ReferenceGuidedAssembler
from repro.baselines.basecall_align import BasecallAlignClassifier
from repro.core.filter import FilterDecision, FilterStage, MultiStageSquiggleFilter, SquiggleFilter
from repro.core.panel import TargetPanel
from repro.core.reference import ReferenceSquiggle
from repro.sequencer.read_until_api import ChunkAccumulator, SignalChunk
from repro.sequencer.reads import Read
from repro.sequencer.run import MinIONParameters

# Decision latency of the SquiggleFilter ASIC (paper Section 7.2): ~43 us,
# effectively zero on the Read Until timescale.
DEFAULT_HARDWARE_LATENCY_S = 4.3e-5

# The three action kinds a streaming classifier can return per chunk.
ACCEPT = "accept"
EJECT = "eject"
WAIT = "wait"
_KINDS = (ACCEPT, EJECT, WAIT)

# How each Action kind maps onto the Read Until wire protocol.
_SIMULATOR_ACTIONS = {ACCEPT: "stop_receiving", EJECT: "unblock", WAIT: "wait"}


@dataclass(frozen=True, slots=True)
class Action:
    """One streaming classification decision for the read currently in a pore.

    ``kind`` is one of :data:`ACCEPT` (keep sequencing the read), :data:`EJECT`
    (reverse the pore voltage and discard it) or :data:`WAIT` (not enough
    signal yet). Terminal actions carry the accounting the runtime and cost
    models consume: the alignment (or mapping) cost, the threshold it was
    compared against, the stage that fired, and how many samples were examined
    before the decision. Panel-mode classifiers additionally report which
    target the read matched (``target``, the per-target argmin) and the full
    per-target cost breakdown (``target_costs``, in panel order).
    """

    kind: str
    cost: float = 0.0
    samples_used: int = 0
    stage: int = 0
    threshold: float = 0.0
    end_position: int = 0
    target: Optional[str] = None
    target_costs: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}; expected one of {_KINDS}")

    @property
    def is_terminal(self) -> bool:
        """Whether this action ends the decision process for the read."""
        return self.kind != WAIT

    @property
    def per_sample_cost(self) -> float:
        return self.cost / max(self.samples_used, 1)

    @classmethod
    def wait(cls) -> "Action":
        return cls(kind=WAIT)

    @classmethod
    def from_decision(cls, decision: FilterDecision) -> "Action":
        """Lift a whole-prefix :class:`FilterDecision` into a terminal action."""
        return cls(
            kind=ACCEPT if decision.accept else EJECT,
            cost=decision.cost,
            samples_used=decision.samples_used,
            stage=decision.stage,
            threshold=decision.threshold,
            end_position=decision.end_position,
            target=decision.target,
            target_costs=decision.target_costs,
        )

    def as_filter_decision(self) -> FilterDecision:
        """Project a terminal action back onto the legacy decision shape."""
        if not self.is_terminal:
            raise ValueError("a wait action carries no decision")
        return FilterDecision(
            accept=self.kind == ACCEPT,
            cost=self.cost,
            per_sample_cost=self.per_sample_cost,
            samples_used=self.samples_used,
            threshold=self.threshold,
            end_position=self.end_position,
            stage=self.stage,
            target=self.target,
            target_costs=self.target_costs,
        )

    def to_simulator_action(self) -> str:
        """The ``run_client`` verb this action corresponds to."""
        return _SIMULATOR_ACTIONS[self.kind]


class ReadUntilClassifier(Protocol):
    """Incremental classification protocol driven by the chunk simulator.

    The pipeline calls ``begin_read`` once when a read's first chunk arrives,
    then ``on_chunk`` for every chunk (including the first) until a terminal
    :class:`Action` is returned or the read ends. A chunk flagged ``is_last``
    exhausts the read's signal, so implementations should decide on whatever
    prefix exists rather than wait for samples that will never arrive.
    ``end_read`` releases any per-read state for reads that finish without a
    terminal action (e.g. capped by the simulator's chunk budget).
    ``min_decision_samples`` and ``max_decision_samples`` advertise the
    earliest and latest decision points so the pipeline can pick a chunk size
    and a chunk budget.

    Classifiers that can advance many channels at once additionally expose
    ``on_chunk_batch(chunks) -> List[Action]`` (one action per chunk, in
    order) — the fast path :class:`~repro.pipeline.read_until.ReadUntilPipeline`
    drives whole polling rounds through when
    :func:`supports_chunk_batching` reports it, falling back to per-read
    ``on_chunk`` otherwise. Batched and scalar calls must make identical
    decisions; :class:`repro.batch.BatchSquiggleClassifier` is the reference
    implementation.
    """

    name: str
    decision_latency_s: float

    @property
    def min_decision_samples(self) -> int: ...

    @property
    def max_decision_samples(self) -> int: ...

    def begin_read(self, read_id: str) -> None: ...

    def on_chunk(self, chunk: SignalChunk) -> Action: ...

    def end_read(self, read_id: str) -> None: ...


class SingleStageAdapter:
    """Stream a whole-prefix classifier: wait until the prefix, then decide.

    Works for any object exposing ``classify(signal, prefix_samples=...) ->
    FilterDecision`` — :class:`SquiggleFilter` and the
    :class:`~repro.hardware.accelerator.SquiggleFilterAccelerator` both do.
    Reads shorter than the prefix are classified on their final chunk with
    whatever signal exists, matching the whole-prefix behaviour of
    ``classify(read.signal_pa)``.
    """

    def __init__(
        self,
        classifier: Any,
        prefix_samples: Optional[int] = None,
        name: Optional[str] = None,
        decision_latency_s: Optional[float] = None,
    ) -> None:
        self._chunks = ChunkAccumulator()
        self.classifier = classifier
        resolved = prefix_samples if prefix_samples is not None else getattr(
            classifier, "prefix_samples", None
        )
        if resolved is None or int(resolved) <= 0:
            raise ValueError("a positive prefix_samples is required")
        self.prefix_samples = int(resolved)
        self.name = name if name is not None else f"stream:{type(classifier).__name__}"
        latency = decision_latency_s
        if latency is None:
            latency = getattr(classifier, "decision_latency_s", None)
        self.decision_latency_s = float(latency) if latency is not None else DEFAULT_HARDWARE_LATENCY_S

    @property
    def min_decision_samples(self) -> int:
        return self.prefix_samples

    @property
    def max_decision_samples(self) -> int:
        return self.prefix_samples

    def begin_read(self, read_id: str) -> None:
        self._chunks.begin_read(read_id)

    def end_read(self, read_id: str) -> None:
        self._chunks.drop(read_id)

    def on_chunk(self, chunk: SignalChunk) -> Action:
        total = self._chunks.add(chunk)
        if total < self.prefix_samples and not chunk.is_last:
            return Action.wait()
        signal = self._chunks.prefix(chunk.read_id)
        self._chunks.drop(chunk.read_id)
        decision = self.classifier.classify(signal, prefix_samples=self.prefix_samples)
        return Action.from_decision(decision)


class MultiStageAdapter:
    """Stream a multi-stage filter: each stage fires at its own chunk boundary.

    Stage *i* runs as soon as ``stages[i].prefix_samples`` of signal have
    arrived; a rejection ejects the read right there, on an earlier chunk than
    the final stage's prefix — the behaviour the whole-prefix ``classify()``
    API cannot express. A read that ends before the last stage's prefix runs
    its remaining stages on the signal that exists, as ``classify()`` would.
    """

    def __init__(
        self,
        classifier: MultiStageSquiggleFilter,
        name: Optional[str] = None,
        decision_latency_s: Optional[float] = None,
    ) -> None:
        self._chunks = ChunkAccumulator()
        self.classifier = classifier
        self.name = name if name is not None else f"stream:{type(classifier).__name__}"
        self.decision_latency_s = (
            float(decision_latency_s) if decision_latency_s is not None else DEFAULT_HARDWARE_LATENCY_S
        )
        self._next_stage: Dict[str, int] = {}

    @property
    def min_decision_samples(self) -> int:
        return self.classifier.stages[0].prefix_samples

    @property
    def max_decision_samples(self) -> int:
        return self.classifier.stages[-1].prefix_samples

    def begin_read(self, read_id: str) -> None:
        self._chunks.begin_read(read_id)
        self._next_stage[read_id] = 0

    def end_read(self, read_id: str) -> None:
        self._chunks.drop(read_id)
        self._next_stage.pop(read_id, None)

    def on_chunk(self, chunk: SignalChunk) -> Action:
        total = self._chunks.add(chunk)
        index = self._next_stage.setdefault(chunk.read_id, 0)
        stages = self.classifier.stages
        while index < len(stages) and (total >= stages[index].prefix_samples or chunk.is_last):
            decision = self.classifier.classify_stage(self._chunks.prefix(chunk.read_id), index)
            index += 1
            self._next_stage[chunk.read_id] = index
            if not decision.accept or index == len(stages):
                self.end_read(chunk.read_id)
                return Action.from_decision(decision)
        return Action.wait()


class BasecallAlignAdapter:
    """Stream the basecall+align baseline.

    The simulated basecaller is an oracle-with-errors over the ground-truth
    read, so the adapter resolves the :class:`Read` by id (``read_lookup``)
    once enough signal has streamed in, rather than decoding raw chunks.
    """

    def __init__(
        self,
        classifier: BasecallAlignClassifier,
        read_lookup: Callable[[str], Optional[Read]],
        prefix_samples: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        self.classifier = classifier
        self.read_lookup = read_lookup
        resolved = prefix_samples if prefix_samples is not None else classifier.prefix_samples
        if int(resolved) <= 0:
            raise ValueError("a positive prefix_samples is required")
        self.prefix_samples = int(resolved)
        self.name = name if name is not None else f"stream:{type(classifier).__name__}"
        self.decision_latency_s = classifier.decision_latency_s

    @property
    def min_decision_samples(self) -> int:
        return self.prefix_samples

    @property
    def max_decision_samples(self) -> int:
        return self.prefix_samples

    def begin_read(self, read_id: str) -> None:  # noqa: ARG002 - protocol hook
        return None

    def end_read(self, read_id: str) -> None:  # noqa: ARG002 - protocol hook
        return None

    def on_chunk(self, chunk: SignalChunk) -> Action:
        if chunk.samples_seen < self.prefix_samples and not chunk.is_last:
            return Action.wait()
        read = self.read_lookup(chunk.read_id)
        if read is None:
            raise KeyError(f"unknown read {chunk.read_id!r} streamed to the baseline adapter")
        decision = self.classifier.classify_read(read, self.prefix_samples).as_filter_decision()
        return Action.from_decision(decision)


def supports_chunk_batching(classifier: Any) -> bool:
    """Whether a streaming classifier advertises the ``on_chunk_batch`` fast path."""
    return callable(getattr(classifier, "on_chunk_batch", None))


def as_streaming_classifier(
    classifier: Any,
    prefix_samples: Optional[int] = None,
    read_lookup: Optional[Callable[[str], Optional[Read]]] = None,
) -> ReadUntilClassifier:
    """Lift any of the repository's classifiers into the streaming protocol.

    Dispatch is structural (no type checks): objects already speaking the
    protocol pass through, multi-stage filters get per-stage scheduling,
    read-oriented baselines get the lookup-based adapter, and anything with a
    plain ``classify(signal, prefix_samples=...)`` gets the single-stage
    wait-then-decide policy.
    """
    if hasattr(classifier, "on_chunk") and hasattr(classifier, "begin_read"):
        return classifier
    if hasattr(classifier, "classify_stage") and hasattr(classifier, "stages"):
        return MultiStageAdapter(classifier)
    if hasattr(classifier, "classify_read"):
        if read_lookup is None:
            raise TypeError(
                "read-oriented classifiers need a read_lookup to resolve read ids "
                "(the pipeline supplies one automatically)"
            )
        return BasecallAlignAdapter(classifier, read_lookup, prefix_samples)
    if hasattr(classifier, "classify"):
        return SingleStageAdapter(classifier, prefix_samples)
    raise TypeError(
        f"{type(classifier).__name__} exposes neither the streaming protocol nor a "
        "classify()/classify_read() method"
    )


# --------------------------------------------------------------------- registry
ClassifierFactory = Callable[..., Any]

_REGISTRY: Dict[str, ClassifierFactory] = {}


def register_classifier(name: str) -> Callable[[ClassifierFactory], ClassifierFactory]:
    """Register a classifier factory under a string key (decorator).

    Factories are plain callables taking keyword parameters; they should
    accept a ``genome`` keyword so :func:`build_pipeline` can default it to
    the pipeline's target genome.
    """

    def wrap(factory: ClassifierFactory) -> ClassifierFactory:
        key = name.lower()
        if key in _REGISTRY:
            raise ValueError(f"classifier {name!r} is already registered")
        _REGISTRY[key] = factory
        return factory

    return wrap


def available_classifiers() -> Tuple[str, ...]:
    """The registered classifier names, sorted."""
    return tuple(sorted(_REGISTRY))


def create_classifier(name: str, **params: Any) -> Any:
    """Instantiate a registered classifier by name."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(available_classifiers()) or "(none)"
        raise KeyError(f"unknown classifier {name!r}; registered: {known}") from None
    return factory(**params)


def _resolve_reference(
    reference: Optional[Any],
    genome: Optional[Any],
    kmer_model: Any = None,
    include_reverse_complement: bool = True,
) -> Any:
    """Resolve a classifier's alignment target.

    Accepts a prebuilt :class:`ReferenceSquiggle` or
    :class:`~repro.core.panel.TargetPanel`, one genome string, or a mapping
    of target names to genomes (built into a panel).
    """
    if reference is not None:
        return reference
    if genome is None:
        raise ValueError("either a prebuilt reference/panel or a genome is required")
    if isinstance(genome, Mapping):
        return TargetPanel.from_genomes(
            genome,
            kmer_model=kmer_model,
            include_reverse_complement=include_reverse_complement,
        )
    return ReferenceSquiggle.from_genome(
        genome,
        kmer_model=kmer_model,
        include_reverse_complement=include_reverse_complement,
    )


@register_classifier("squigglefilter")
def build_squigglefilter(
    *,
    genome: Optional[Any] = None,
    reference: Optional[Any] = None,
    kmer_model: Any = None,
    include_reverse_complement: bool = True,
    threshold: Optional[float] = None,
    prefix_samples: int = 2000,
    config: Any = None,
    normalization: Any = None,
) -> SquiggleFilter:
    """Single-stage sDTW filter (the paper's default operating point).
    ``reference``/``genome`` accept a multi-target panel (see
    :class:`~repro.core.panel.TargetPanel`) as well as one reference."""
    return SquiggleFilter(
        _resolve_reference(reference, genome, kmer_model, include_reverse_complement),
        config=config,
        normalization=normalization,
        threshold=threshold,
        prefix_samples=prefix_samples,
    )


@register_classifier("multistage")
def build_multistage(
    *,
    stages: Sequence[Any],
    genome: Optional[str] = None,
    reference: Optional[ReferenceSquiggle] = None,
    kmer_model: Any = None,
    include_reverse_complement: bool = True,
    config: Any = None,
    normalization: Any = None,
) -> MultiStageSquiggleFilter:
    """Multi-stage filter; ``stages`` are FilterStage objects, mappings or
    ``(prefix_samples, threshold)`` pairs, ordered by increasing prefix."""
    built: List[FilterStage] = []
    for stage in stages:
        if hasattr(stage, "prefix_samples") and hasattr(stage, "threshold"):
            built.append(FilterStage(int(stage.prefix_samples), float(stage.threshold)))
        elif isinstance(stage, Mapping):
            built.append(FilterStage(int(stage["prefix_samples"]), float(stage["threshold"])))
        else:
            prefix, threshold = stage
            built.append(FilterStage(int(prefix), float(threshold)))
    return MultiStageSquiggleFilter(
        _resolve_reference(reference, genome, kmer_model, include_reverse_complement),
        built,
        config=config,
        normalization=normalization,
    )


@register_classifier("batch_squigglefilter")
def build_batch_squigglefilter(
    *,
    genome: Optional[Any] = None,
    reference: Optional[Any] = None,
    kmer_model: Any = None,
    include_reverse_complement: bool = True,
    threshold: Optional[float] = None,
    prefix_samples: int = 2000,
    config: Any = None,
    normalization: Any = None,
    name: Optional[str] = None,
    decision_latency_s: Optional[float] = None,
    run_config: Any = None,
) -> Any:
    """Single-stage sDTW filter on the batched wavefront engine: every
    undecided channel of a polling round advances in one matrix op.
    ``reference``/``genome`` accept a multi-target panel, classified by
    per-target argmin in the same wavefront. ``run_config`` (a
    :class:`repro.runtime.RunConfig`) sets how the engine advances lanes
    (``backend`` and ``workers``)."""
    # Deferred: repro.batch.classifier imports this module for Action/registry.
    from repro.batch.classifier import BatchSquiggleClassifier

    return BatchSquiggleClassifier(
        _resolve_reference(reference, genome, kmer_model, include_reverse_complement),
        config=config,
        normalization=normalization,
        threshold=threshold,
        prefix_samples=prefix_samples,
        name=name,
        decision_latency_s=decision_latency_s,
        run_config=run_config,
    )


@register_classifier("basecall_align")
def build_basecall_align(
    *,
    genome: str,
    **kwargs: Any,
) -> BasecallAlignClassifier:
    """Conventional basecall-then-align baseline (Guppy-lite + MiniMap2 stand-ins)."""
    return BasecallAlignClassifier(genome, **kwargs)


# ---------------------------------------------------------------------- factory
def build_pipeline(spec: Any) -> "Any":
    """Construct a fully wired :class:`ReadUntilPipeline` from a config.

    ``spec`` may be a :class:`repro.runtime.RunConfig` — the preferred,
    declarative form: the pipeline is wired around a
    :class:`repro.runtime.ReadUntilSession` opened on it (lazy backend,
    owned lifecycle), with the config's genome/targets, channel count,
    chunk geometry, threshold and execution backend all taken from the one
    object — or the pre-``RunConfig`` plain mapping, whose recognized keys
    are below. Both construct the same runtime objects and make identical
    decisions.

    Recognized mapping keys:

    ``classifier`` (required)
        A registry name, or a mapping ``{"name": ..., **params}`` (an optional
        nested ``"params"`` mapping is merged in). The pipeline's target
        genome is passed to the factory as ``genome`` unless overridden.
    ``target_genome`` (required)
        The genome the run enriches for (also used for assembly).
    ``parameters``
        A :class:`MinIONParameters` instance or a kwargs mapping for one.
    ``assembler``
        A prebuilt assembler or a kwargs mapping for
        :class:`ReferenceGuidedAssembler` over the target genome.
    ``targets``
        A multi-target panel for the classifier: a mapping of target names
        to genome strings (built into a :class:`TargetPanel`) or a prebuilt
        panel. Becomes the classifier's ``reference``, so one session
        screens every panel member at once and the streaming summary
        reports per-target accept counts.
    ``backend`` / ``workers``
        Execution backend for a batch-capable classifier's engine
        (``"numpy"`` or ``"auto"``; ``workers: N`` splits each round's lanes
        over N kernel threads).
        These keys are folded into a :class:`repro.runtime.RunConfig` handed
        to the classifier factory as ``run_config``, so the chosen classifier
        must accept it (``"batch_squigglefilter"`` does).
    Remaining keys (``prefix_samples``, ``chunk_samples``, ``n_channels``,
    ``decision_latency_s``, ``assemble``, ``batch``, ...) are forwarded to
    :class:`ReadUntilPipeline`; ``batch: true`` requires the classifier's
    ``on_chunk_batch`` fast path (one vectorized sDTW wavefront per polling
    round, e.g. the ``"batch_squigglefilter"`` classifier).
    """
    from repro.pipeline.read_until import ReadUntilPipeline  # deferred: avoids an import cycle
    from repro.runtime.config import RunConfig  # deferred: same cycle

    if isinstance(spec, RunConfig):
        from repro.runtime.session import open_session  # deferred: same cycle

        session = open_session(spec)
        return ReadUntilPipeline(
            session,
            spec.genome,
            prefix_samples=spec.prefix_samples,
            chunk_samples=spec.chunk_samples,
            n_channels=spec.n_channels,
            batch=spec.batch if spec.batch is not None else True,
            assemble=spec.genome is not None,
        )

    config = dict(spec)
    try:
        raw_classifier = config.pop("classifier")
        target_genome = config.pop("target_genome")
    except KeyError as missing:
        raise KeyError(f"pipeline spec is missing the required key {missing}") from None

    if isinstance(raw_classifier, str):
        name, params = raw_classifier, {}
    else:
        params = dict(raw_classifier)
        name = params.pop("name")
        nested = params.pop("params", None)
        if nested:
            params.update(nested)
    targets = config.pop("targets", None)
    if targets is not None:
        if isinstance(targets, Mapping):
            # A genome mapping becomes the factory's `genome`, so
            # _resolve_reference builds the panel with the classifier's own
            # kmer_model / include_reverse_complement / normalization params
            # — exactly like the single-genome path.
            params["genome"] = dict(targets)
        else:
            params["reference"] = TargetPanel.coerce(targets)
    params.setdefault("genome", target_genome)
    backend = config.pop("backend", None)
    workers = config.pop("workers", None)
    if (backend is not None or workers is not None) and "run_config" not in params:
        # Fold the spec's execution keys into the RunConfig the classifier takes.
        params["run_config"] = RunConfig(
            backend=backend if backend is not None else "numpy", workers=workers
        )
    classifier = create_classifier(name, **params)

    parameters = config.pop("parameters", None)
    if isinstance(parameters, Mapping):
        parameters = MinIONParameters(**parameters)

    assembler = config.pop("assembler", None)
    if isinstance(assembler, Mapping):
        assembler = ReferenceGuidedAssembler(target_genome, **assembler)

    return ReadUntilPipeline(
        classifier,
        target_genome,
        parameters=parameters,
        assembler=assembler,
        **config,
    )
