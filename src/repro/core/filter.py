"""The SquiggleFilter classifier (paper Sections 4.5 and 4.6).

:class:`SquiggleFilter` is the single-stage classifier: normalize a read
prefix, align it against the precomputed reference squiggle with sDTW, and
accept (keep sequencing) or reject (eject via Read Until) by comparing the
alignment cost to a constant threshold.

:class:`MultiStageSquiggleFilter` implements the optional multi-stage scheme
of Section 4.6: an early, permissive stage examines a short prefix and ejects
only clear non-targets, and later stages re-examine longer prefixes with more
aggressive thresholds, so most non-target reads are ejected after very little
sequencing while low-confidence reads get more signal before the decision.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.batch.engine import BatchSDTWEngine
from repro.core.config import SDTWConfig
from repro.core.normalization import NormalizationConfig, SignalNormalizer
from repro.core.panel import TargetPanel
from repro.core.reference import ReferenceSquiggle
from repro.core.sdtw import SDTWResult, sdtw_cost
from repro.core.thresholds import choose_threshold
from repro.pore_model.kmer_model import KmerModel

# The paper's default operating point: one stage examining 2000 samples.
DEFAULT_PREFIX_SAMPLES = 2000


@dataclass(frozen=True)
class FilterDecision:
    """Outcome of classifying one read prefix.

    ``accept`` is True when the read is kept (classified as target).
    ``samples_used`` is how much signal was examined before the decision,
    which drives the Read Until runtime model. ``stage`` is the index of the
    multi-stage filter stage that made the decision (0 for a single-stage
    filter). With a multi-target :class:`~repro.core.panel.TargetPanel`,
    ``target`` names the best-matching panel member (the per-target argmin;
    ties go to the first member in panel order) and ``target_costs`` carries
    every member's cost in panel order; ``cost``/``end_position`` describe
    the best member, the end position local to that member's own reference.
    """

    accept: bool
    cost: float
    per_sample_cost: float
    samples_used: int
    threshold: float
    end_position: int
    stage: int = 0
    target: Optional[str] = None
    target_costs: Tuple[float, ...] = ()


@dataclass(frozen=True)
class FilterStage:
    """One stage of the multi-stage filter: a prefix length and a threshold."""

    prefix_samples: int
    threshold: float

    def __post_init__(self) -> None:
        if self.prefix_samples <= 0:
            raise ValueError(f"prefix_samples must be positive, got {self.prefix_samples}")


class SquiggleFilter:
    """Single-stage squiggle-level Read Until classifier.

    ``reference`` may be one :class:`ReferenceSquiggle` or a multi-target
    :class:`TargetPanel`; a single reference is coerced to a 1-entry panel,
    so the panel path *is* the single-target path. With N targets, one
    alignment pass scores every member and the decision carries the
    per-target argmin (:attr:`FilterDecision.target`).
    """

    def __init__(
        self,
        reference: Union[ReferenceSquiggle, TargetPanel],
        config: Optional[SDTWConfig] = None,
        normalization: Optional[NormalizationConfig] = None,
        threshold: Optional[float] = None,
        prefix_samples: int = DEFAULT_PREFIX_SAMPLES,
    ) -> None:
        if prefix_samples <= 0:
            raise ValueError(f"prefix_samples must be positive, got {prefix_samples}")
        self.panel = TargetPanel.coerce(reference)
        # Legacy accessor: the (first) reference squiggle.
        self.reference = self.panel.primary
        self.config = config if config is not None else SDTWConfig.hardware()
        self.normalization = (
            normalization if normalization is not None else self.panel.normalization
        )
        self.normalizer = SignalNormalizer(self.normalization)
        self.threshold = threshold
        self.prefix_samples = prefix_samples
        # The panel profile never changes after construction; resolving the
        # concatenated column space and the per-target views once keeps
        # classify_batch and calibration sweeps off the attribute lookup in
        # every alignment() call.
        self._reference_values = self.panel.values(quantized=self.config.quantize)
        self._target_values = [
            self.panel.reference_for(name).values(quantized=self.config.quantize)
            for name in self.panel.names
        ]

    # ------------------------------------------------------------------ costs
    def prepare_query(self, raw_signal: np.ndarray, prefix_samples: Optional[int] = None) -> np.ndarray:
        """Trim to the prefix, normalize, and quantize if the config asks for it."""
        signal = np.asarray(raw_signal, dtype=np.float64)
        if signal.size == 0:
            raise ValueError("cannot classify an empty signal")
        limit = prefix_samples if prefix_samples is not None else self.prefix_samples
        prefix = signal[:limit]
        normalized = self.normalizer.normalize(prefix)
        if self.config.quantize:
            return self.normalizer.quantize(normalized)
        return normalized

    def target_alignments(
        self, raw_signal: np.ndarray, prefix_samples: Optional[int] = None
    ) -> Dict[str, SDTWResult]:
        """Align one read prefix against every panel member independently.

        This is the scalar reference semantics of panel mode: each member is
        scored exactly as a standalone single-reference filter would score it
        (the batched engine reproduces these values bit for bit through the
        concatenated column space).
        """
        query = self.prepare_query(raw_signal, prefix_samples)
        return {
            name: sdtw_cost(query, values, self.config)
            for name, values in zip(self.panel.names, self._target_values)
        }

    def alignment(self, raw_signal: np.ndarray, prefix_samples: Optional[int] = None) -> SDTWResult:
        """Align a read prefix; with a panel, the best-matching member's result."""
        if self.panel.n_targets == 1:
            query = self.prepare_query(raw_signal, prefix_samples)
            return sdtw_cost(query, self._reference_values, self.config)
        alignments = self.target_alignments(raw_signal, prefix_samples)
        # min() keeps the first minimal entry; dict order is panel order, so
        # ties break like the engine's per-target argmin.
        return alignments[min(alignments, key=lambda name: alignments[name].cost)]

    def cost(self, raw_signal: np.ndarray, prefix_samples: Optional[int] = None) -> float:
        """Alignment cost only (convenience for sweeps and distributions)."""
        return self.alignment(raw_signal, prefix_samples).cost

    def per_sample_cost(self, raw_signal: np.ndarray, prefix_samples: Optional[int] = None) -> float:
        """Alignment cost divided by the number of samples examined."""
        return self.alignment(raw_signal, prefix_samples).per_sample_cost

    # --------------------------------------------------------------- decisions
    def classify(
        self,
        raw_signal: np.ndarray,
        threshold: Optional[float] = None,
        prefix_samples: Optional[int] = None,
    ) -> FilterDecision:
        """Accept or reject one read prefix.

        A threshold must either be passed here, set on the filter, or
        calibrated beforehand with :meth:`calibrate`.
        """
        effective_threshold = threshold if threshold is not None else self.threshold
        if effective_threshold is None:
            raise ValueError(
                "no threshold configured; call calibrate() or pass threshold explicitly"
            )
        used = prefix_samples if prefix_samples is not None else self.prefix_samples
        alignments = self.target_alignments(raw_signal, used)
        best = min(alignments, key=lambda name: alignments[name].cost)
        result = alignments[best]
        samples_used = min(int(np.asarray(raw_signal).size), used)
        return FilterDecision(
            accept=result.cost <= effective_threshold,
            cost=result.cost,
            per_sample_cost=result.per_sample_cost,
            samples_used=samples_used,
            threshold=float(effective_threshold),
            end_position=result.end_position,
            target=best,
            target_costs=tuple(alignments[name].cost for name in self.panel.names),
        )

    def _batch_states(self, raw_signals: Sequence[np.ndarray], prefix_samples: Optional[int]):
        """Align many prepared prefixes with one in-process batched wavefront.

        Returns ``(queries, snapshots)`` where snapshot ``i`` carries the same
        cost/end-position :meth:`alignment` computes for signal ``i``. Only
        the resumable (no-reference-deletion) recurrences batch; callers fall
        back to the per-read loop for the vanilla recurrence.
        """
        queries = [self.prepare_query(signal, prefix_samples) for signal in raw_signals]
        with BatchSDTWEngine(self.panel, self.config) as engine:
            snapshots = engine.step(list(enumerate(queries)))
        return queries, [snapshots[index] for index in range(len(queries))]

    def cost_batch(
        self,
        raw_signals: Sequence[np.ndarray],
        prefix_samples: Optional[int] = None,
    ) -> List[float]:
        """Alignment costs for many reads via one batched wavefront.

        Identical values to calling :meth:`cost` per read; the calibration
        and sweep helpers use this so experiments stop looping the kernel in
        Python.
        """
        if not raw_signals:
            return []
        if self.config.allow_reference_deletions:
            # The vanilla recurrence is not resumable, hence not batchable.
            return [self.cost(signal, prefix_samples) for signal in raw_signals]
        _, snapshots = self._batch_states(raw_signals, prefix_samples)
        return [float(snapshot.cost) for snapshot in snapshots]

    def classify_batch(
        self,
        raw_signals: Sequence[np.ndarray],
        threshold: Optional[float] = None,
        prefix_samples: Optional[int] = None,
    ) -> List[FilterDecision]:
        """Classify a batch of reads with one batched sDTW wavefront.

        Decisions are identical to per-read :meth:`classify` calls; the work
        runs in-process through :class:`~repro.batch.BatchSDTWEngine` (one
        set of matrix ops per wavefront step across all reads) instead of a
        Python loop. Streaming runs pick an execution backend through
        :class:`repro.runtime.RunConfig` instead.
        """
        effective_threshold = threshold if threshold is not None else self.threshold
        if effective_threshold is None:
            raise ValueError(
                "no threshold configured; call calibrate() or pass threshold explicitly"
            )
        if not raw_signals:
            return []
        if self.config.allow_reference_deletions:
            return [self.classify(signal, threshold, prefix_samples) for signal in raw_signals]
        used = prefix_samples if prefix_samples is not None else self.prefix_samples
        queries, snapshots = self._batch_states(raw_signals, prefix_samples)
        decisions: List[FilterDecision] = []
        for signal, query, snapshot in zip(raw_signals, queries, snapshots):
            samples_used = min(int(np.asarray(signal).size), used)
            decisions.append(
                FilterDecision(
                    accept=snapshot.cost <= effective_threshold,
                    cost=float(snapshot.cost),
                    per_sample_cost=float(snapshot.cost) / max(int(query.size), 1),
                    samples_used=samples_used,
                    threshold=float(effective_threshold),
                    end_position=int(snapshot.end_position),
                    target=snapshot.target,
                    target_costs=snapshot.target_costs,
                )
            )
        return decisions

    # -------------------------------------------------------------- calibration
    def calibrate(
        self,
        target_signals: Sequence[np.ndarray],
        nontarget_signals: Sequence[np.ndarray],
        objective: str = "f1",
        target_recall: float = 0.95,
        prefix_samples: Optional[int] = None,
    ) -> float:
        """Choose and store a threshold from labelled calibration reads."""
        self.threshold = choose_threshold(
            self.cost_batch(target_signals, prefix_samples),
            self.cost_batch(nontarget_signals, prefix_samples),
            objective=objective,
            target_recall=target_recall,
        )
        return self.threshold


class MultiStageSquiggleFilter:
    """Multi-stage Read Until filter (paper Section 4.6)."""

    def __init__(
        self,
        reference: Union[ReferenceSquiggle, TargetPanel],
        stages: Sequence[FilterStage],
        config: Optional[SDTWConfig] = None,
        normalization: Optional[NormalizationConfig] = None,
    ) -> None:
        if not stages:
            raise ValueError("at least one stage is required")
        ordered = sorted(stages, key=lambda stage: stage.prefix_samples)
        if [stage.prefix_samples for stage in ordered] != [stage.prefix_samples for stage in stages]:
            raise ValueError("stages must be ordered by increasing prefix_samples")
        if len({stage.prefix_samples for stage in stages}) != len(stages):
            raise ValueError("stage prefix lengths must be distinct")
        self.stages = list(stages)
        self._filter = SquiggleFilter(
            reference,
            config=config,
            normalization=normalization,
            prefix_samples=self.stages[-1].prefix_samples,
        )

    @property
    def reference(self) -> ReferenceSquiggle:
        return self._filter.reference

    @property
    def panel(self) -> TargetPanel:
        return self._filter.panel

    @property
    def config(self) -> SDTWConfig:
        return self._filter.config

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def prefix_lengths(self) -> List[int]:
        """The stage decision points, in samples, in firing order."""
        return [stage.prefix_samples for stage in self.stages]

    def classify_stage(self, raw_signal: np.ndarray, index: int) -> FilterDecision:
        """Run exactly one stage over the signal prefix it examines.

        This is the unit of work the streaming Read Until adapter schedules:
        stage ``index`` fires as soon as ``stages[index].prefix_samples`` of
        signal have arrived, without waiting for the later stages' prefixes.
        """
        stage = self.stages[index]
        decision = self._filter.classify(
            raw_signal, threshold=stage.threshold, prefix_samples=stage.prefix_samples
        )
        return replace(decision, stage=index)

    def classify(self, raw_signal: np.ndarray) -> FilterDecision:
        """Run the read through stages until one rejects it or all accept.

        A read rejected at stage *s* only consumed that stage's prefix; a read
        accepted by every stage consumed the final stage's prefix, exactly the
        accounting the Read Until runtime model needs.
        """
        signal = np.asarray(raw_signal, dtype=np.float64)
        last_decision: Optional[FilterDecision] = None
        for index in range(len(self.stages)):
            decision = self.classify_stage(signal, index)
            if not decision.accept:
                return decision
            last_decision = decision
        assert last_decision is not None
        return last_decision

    def classify_batch(self, raw_signals: Sequence[np.ndarray]) -> List[FilterDecision]:
        """Stage-by-stage batched classification.

        Each stage advances every still-undecided read with one batched
        wavefront (:meth:`SquiggleFilter.classify_batch`), so a calibration
        sweep over N reads costs ``n_stages`` kernel launches instead of up
        to ``N * n_stages``. Decisions are identical to per-read
        :meth:`classify` calls.
        """
        signals = [np.asarray(signal, dtype=np.float64) for signal in raw_signals]
        decisions: List[Optional[FilterDecision]] = [None] * len(signals)
        pending = list(range(len(signals)))
        for index, stage in enumerate(self.stages):
            if not pending:
                break
            staged = self._filter.classify_batch(
                [signals[i] for i in pending],
                threshold=stage.threshold,
                prefix_samples=stage.prefix_samples,
            )
            is_last = index == len(self.stages) - 1
            survivors: List[int] = []
            for i, decision in zip(pending, staged):
                decision = replace(decision, stage=index)
                if not decision.accept or is_last:
                    decisions[i] = decision
                else:
                    survivors.append(i)
            pending = survivors
        assert all(decision is not None for decision in decisions)
        return decisions  # type: ignore[return-value]

    @classmethod
    def calibrated(
        cls,
        reference: ReferenceSquiggle,
        target_signals: Sequence[np.ndarray],
        nontarget_signals: Sequence[np.ndarray],
        prefix_lengths: Sequence[int] = (1000, 2000, 4000),
        early_stage_recall: float = 0.995,
        config: Optional[SDTWConfig] = None,
        normalization: Optional[NormalizationConfig] = None,
    ) -> "MultiStageSquiggleFilter":
        """Build a multi-stage filter with thresholds calibrated per stage.

        Early stages use a permissive recall-targeting threshold so that
        almost no target read is lost; the final stage uses the F1-optimal
        threshold.
        """
        prefix_lengths = sorted(prefix_lengths)
        helper = SquiggleFilter(reference, config=config, normalization=normalization)
        stages: List[FilterStage] = []
        for index, prefix in enumerate(prefix_lengths):
            target_costs = helper.cost_batch(target_signals, prefix)
            nontarget_costs = helper.cost_batch(nontarget_signals, prefix)
            is_last = index == len(prefix_lengths) - 1
            threshold = choose_threshold(
                target_costs,
                nontarget_costs,
                objective="f1" if is_last else "recall",
                target_recall=early_stage_recall,
            )
            stages.append(FilterStage(prefix_samples=prefix, threshold=threshold))
        return cls(reference, stages, config=config, normalization=normalization)


def build_default_filter(
    genome: Union[str, Mapping[str, str]],
    kmer_model: Optional[KmerModel] = None,
    config: Optional[SDTWConfig] = None,
    prefix_samples: int = DEFAULT_PREFIX_SAMPLES,
    include_reverse_complement: bool = True,
) -> SquiggleFilter:
    """Convenience constructor: build reference squiggle(s) and wrap them in a filter.

    ``genome`` is either one genome string (a single-target filter) or a
    mapping of target names to genomes — a whole :class:`TargetPanel`
    classified in one pass.
    """
    normalization = NormalizationConfig()
    if isinstance(genome, Mapping):
        reference: Union[ReferenceSquiggle, TargetPanel] = TargetPanel.from_genomes(
            genome,
            kmer_model=kmer_model,
            include_reverse_complement=include_reverse_complement,
            normalization=normalization,
        )
    else:
        reference = ReferenceSquiggle.from_genome(
            genome,
            kmer_model=kmer_model,
            include_reverse_complement=include_reverse_complement,
            normalization=normalization,
        )
    return SquiggleFilter(
        reference,
        config=config,
        normalization=normalization,
        prefix_samples=prefix_samples,
    )
