"""Multi-target reference panels.

The paper's detector is programmed with a single virus, but nothing in the
design restricts it to one: the reference buffer simply holds whatever
expected-signal profile is loaded, and several small genomes fit in the same
100 KB budget that one SARS-CoV-2 genome occupies.

:class:`TargetPanel` is the first-class representation of that buffer: N
named reference squiggles, each normalized and quantized **once** at
construction, laid out in one concatenated column space with per-target
offsets. Every layer of the stack consumes it — the sDTW kernels advance the
whole panel in one wavefront (block boundaries sever the diagonal, so each
target's columns are bit-identical to an independent single-reference run;
see ``block_starts`` in :func:`repro.core.sdtw.sdtw_resume_batch`), the
execution backends reduce costs per target, and the filters/classifiers
report which target a read matched. A single reference is just a 1-entry
panel (:meth:`TargetPanel.coerce`), so single-target call sites keep working
unchanged.

:class:`ReferencePanelFilter` is the per-target-threshold classifier built on
top: it calibrates one ejection threshold per panel member and attributes
each accepted read to its best-matching member, enabling the "programmable
detector" deployment scenario the paper's introduction describes with several
candidate viruses loaded at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import SDTWConfig
from repro.core.normalization import NormalizationConfig
from repro.core.reference import ReferenceSquiggle
from repro.core.sdtw import reduce_block_minima
from repro.pore_model.kmer_model import KmerModel

if TYPE_CHECKING:  # repro.core.filter imports this module; keep the cycle type-only
    from repro.core.filter import SquiggleFilter


class TargetPanel:
    """N named reference squiggles in one concatenated column space.

    The panel is immutable after construction: normalization and quantization
    happen once per member (each member on its own, exactly as an independent
    :class:`~repro.core.filter.SquiggleFilter` would), and the concatenated
    kernel-scale arrays are cached. ``offsets`` are the per-target column
    starts — the ``block_starts`` every kernel and backend consumes.

    All members must share one :class:`NormalizationConfig`: query chunks are
    normalized once and aligned against every target, which is only
    meaningful when the targets live on the same signal scale.
    """

    def __init__(
        self,
        references: Union[Mapping[str, ReferenceSquiggle], Iterable[Tuple[str, ReferenceSquiggle]]],
    ) -> None:
        items = list(references.items()) if isinstance(references, Mapping) else list(references)
        if not items:
            raise ValueError("a panel requires at least one target reference")
        names = [name for name, _ in items]
        if len(set(names)) != len(names):
            raise ValueError(f"panel target names must be unique, got {names}")
        self._references: Dict[str, ReferenceSquiggle] = dict(items)
        self.names: Tuple[str, ...] = tuple(names)
        first = items[0][1]
        for name, reference in items:
            if reference.normalization != first.normalization:
                raise ValueError(
                    f"panel member {name!r} uses a different NormalizationConfig; "
                    "all targets must share one so queries normalize identically"
                )
        lengths = np.fromiter(
            (ref.n_positions for _, ref in items), dtype=np.int64, count=len(items)
        )
        self.lengths: np.ndarray = lengths
        self.offsets: np.ndarray = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
        self._values = {
            quantized: np.concatenate([ref.values(quantized=quantized) for _, ref in items])
            for quantized in (False, True)
        }

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_genomes(
        cls,
        genomes: Mapping[str, str],
        kmer_model: Optional[KmerModel] = None,
        include_reverse_complement: bool = True,
        normalization: NormalizationConfig = NormalizationConfig(),
    ) -> "TargetPanel":
        """Build one reference squiggle per named genome and panel them."""
        model = kmer_model if kmer_model is not None else KmerModel()
        return cls(
            (
                name,
                ReferenceSquiggle.from_genome(
                    genome,
                    kmer_model=model,
                    include_reverse_complement=include_reverse_complement,
                    normalization=normalization,
                ),
            )
            for name, genome in genomes.items()
        )

    @classmethod
    def single(cls, reference: ReferenceSquiggle, name: str = "target") -> "TargetPanel":
        """The 1-entry panel a plain single-reference filter is a special case of."""
        return cls([(name, reference)])

    @classmethod
    def coerce(cls, reference: Union["TargetPanel", ReferenceSquiggle]) -> "TargetPanel":
        """Adapter for call sites that accept either a panel or one reference."""
        if isinstance(reference, TargetPanel):
            return reference
        if isinstance(reference, ReferenceSquiggle):
            return cls.single(reference)
        raise TypeError(
            f"expected a TargetPanel or ReferenceSquiggle, got {type(reference).__name__}"
        )

    # -------------------------------------------------------------- structure
    @property
    def n_targets(self) -> int:
        return len(self.names)

    @property
    def primary(self) -> ReferenceSquiggle:
        """The first member — what legacy ``.reference`` accessors see."""
        return self._references[self.names[0]]

    @property
    def normalization(self) -> NormalizationConfig:
        return self.primary.normalization

    def __len__(self) -> int:
        """Total columns of the concatenated reference space."""
        return int(self.lengths.sum())

    @property
    def n_positions(self) -> int:
        return len(self)

    def reference_for(self, name: str) -> ReferenceSquiggle:
        return self._references[name]

    def slices(self) -> List[Tuple[str, slice]]:
        """Per-target column ranges inside the concatenated space."""
        bounds = np.append(self.offsets, len(self))
        return [
            (name, slice(int(bounds[index]), int(bounds[index + 1])))
            for index, name in enumerate(self.names)
        ]

    def values(self, quantized: bool) -> np.ndarray:
        """Concatenated kernel-scale profile (cached; built once)."""
        return self._values[bool(quantized)]

    # -------------------------------------------------------------- reductions
    def reduce_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-target ``(costs, ends)`` of stacked DP rows over this panel.

        End positions are local to each target's own reference, matching what
        N independent single-reference runs would report.
        """
        return reduce_block_minima(rows, self.offsets)

    # ------------------------------------------------------------------ budget
    def buffer_bytes(self, bytes_per_sample: int = 2) -> int:
        """On-chip reference-buffer footprint of the whole panel."""
        return sum(
            self._references[name].buffer_bytes(bytes_per_sample) for name in self.names
        )

    def fits_buffer(self, buffer_kb: float = 100.0, bytes_per_sample: int = 2) -> bool:
        return self.buffer_bytes(bytes_per_sample) <= buffer_kb * 1024

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        members = ", ".join(
            f"{name}:{int(length)}" for name, length in zip(self.names, self.lengths)
        )
        return f"TargetPanel({members})"


@dataclass
class PanelDecision:
    """Outcome of classifying one read against the whole panel."""

    accept: bool
    best_target: Optional[str]
    best_cost: float
    costs: Dict[str, float]
    samples_used: int

    def cost_margin(self) -> float:
        """Gap between the best and second-best target costs (confidence proxy)."""
        if len(self.costs) < 2:
            return float("inf")
        ordered = sorted(self.costs.values())
        return ordered[1] - ordered[0]


class ReferencePanelFilter:
    """Classify reads against several target genomes at once.

    Built on one shared :class:`TargetPanel` (references normalized and
    quantized once); classification runs per member through single-reference
    :class:`SquiggleFilter` views so every member keeps its own calibrated
    ejection threshold.
    """

    def __init__(
        self,
        genomes: Dict[str, str],
        kmer_model: Optional[KmerModel] = None,
        config: Optional[SDTWConfig] = None,
        normalization: NormalizationConfig = NormalizationConfig(),
        prefix_samples: int = 2000,
        reference_buffer_kb: float = 100.0,
    ) -> None:
        from repro.core.filter import SquiggleFilter  # deferred: filter imports this module

        if not genomes:
            raise ValueError("panel requires at least one target genome")
        self.kmer_model = kmer_model if kmer_model is not None else KmerModel()
        self.config = config if config is not None else SDTWConfig.hardware()
        self.prefix_samples = prefix_samples
        self.thresholds: Dict[str, float] = {}
        self.panel = TargetPanel.from_genomes(
            genomes,
            kmer_model=self.kmer_model,
            normalization=normalization,
        )
        self._filters: Dict[str, SquiggleFilter] = {
            name: SquiggleFilter(
                self.panel.reference_for(name),
                config=self.config,
                normalization=normalization,
                prefix_samples=prefix_samples,
            )
            for name in self.panel.names
        }
        if not self.panel.fits_buffer(reference_buffer_kb):
            raise ValueError(
                f"panel needs {self.panel.buffer_bytes() / 1024:.1f} KB of reference buffer, "
                f"more than the provisioned {reference_buffer_kb:.0f} KB"
            )

    @property
    def target_names(self) -> List[str]:
        return list(self._filters.keys())

    def filter_for(self, name: str) -> SquiggleFilter:
        return self._filters[name]

    # -------------------------------------------------------------- calibration
    def calibrate(
        self,
        target_signals: Dict[str, Sequence[np.ndarray]],
        background_signals: Sequence[np.ndarray],
        objective: str = "f1",
    ) -> Dict[str, float]:
        """Calibrate one ejection threshold per panel member.

        ``target_signals`` maps panel member names to reads known to come from
        that virus; every member is calibrated against the shared background.
        """
        for name, signals in target_signals.items():
            if name not in self._filters:
                raise KeyError(f"unknown panel member {name!r}")
            threshold = self._filters[name].calibrate(
                signals, background_signals, objective=objective
            )
            self.thresholds[name] = threshold
        return dict(self.thresholds)

    # -------------------------------------------------------------- classification
    def classify(self, raw_signal: np.ndarray, prefix_samples: Optional[int] = None) -> PanelDecision:
        """Align one read prefix against every panel member.

        The read is accepted when its best-matching member's cost is at or
        below that member's threshold (all members must be calibrated first).
        """
        if not self.thresholds or set(self.thresholds) != set(self._filters):
            raise ValueError("panel is not fully calibrated; call calibrate() first")
        used = prefix_samples if prefix_samples is not None else self.prefix_samples
        costs: Dict[str, float] = {}
        for name, squiggle_filter in self._filters.items():
            costs[name] = squiggle_filter.cost(raw_signal, used)
        best_target = min(costs, key=costs.get)
        best_cost = costs[best_target]
        accept = best_cost <= self.thresholds[best_target]
        samples_used = min(int(np.asarray(raw_signal).size), used)
        return PanelDecision(
            accept=accept,
            best_target=best_target if accept else None,
            best_cost=best_cost,
            costs=costs,
            samples_used=samples_used,
        )

    def classify_batch(
        self, signals: Sequence[np.ndarray], prefix_samples: Optional[int] = None
    ) -> List[PanelDecision]:
        return [self.classify(signal, prefix_samples) for signal in signals]

    def identification_accuracy(
        self,
        labelled_signals: Sequence[tuple],
        prefix_samples: Optional[int] = None,
    ) -> float:
        """Fraction of reads attributed to their true panel member.

        ``labelled_signals`` holds (true_member_name_or_None, signal) pairs;
        ``None`` marks background reads, which are counted correct when the
        panel rejects them.
        """
        if not labelled_signals:
            return 0.0
        correct = 0
        for truth, signal in labelled_signals:
            decision = self.classify(signal, prefix_samples)
            if truth is None:
                correct += 0 if decision.accept else 1
            else:
                correct += 1 if decision.accept and decision.best_target == truth else 0
        return correct / len(labelled_signals)
