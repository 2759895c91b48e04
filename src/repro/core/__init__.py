"""Core SquiggleFilter algorithm: normalization, reference squiggles and sDTW."""

from repro.core.config import SDTWConfig
from repro.core.dtw import dtw_cost, dtw_path
from repro.core.filter import (
    FilterDecision,
    FilterStage,
    MultiStageSquiggleFilter,
    SquiggleFilter,
    build_default_filter,
)
from repro.core.normalization import NormalizationConfig, SignalNormalizer
from repro.core.panel import PanelDecision, ReferencePanelFilter, TargetPanel
from repro.core.reference import ReferenceSquiggle
from repro.core.sdtw import (
    BatchSDTWState,
    SDTWState,
    normalize_block_starts,
    reduce_block_minima,
    sdtw_cost,
    sdtw_cost_matrix,
    sdtw_last_row,
    sdtw_resume,
    sdtw_resume_batch,
)
from repro.core.thresholds import ThresholdSweepResult, choose_threshold, sweep_thresholds
from repro.core.variants import ABLATION_VARIANTS, variant_config

__all__ = [
    "ABLATION_VARIANTS",
    "BatchSDTWState",
    "FilterDecision",
    "FilterStage",
    "MultiStageSquiggleFilter",
    "NormalizationConfig",
    "PanelDecision",
    "ReferencePanelFilter",
    "ReferenceSquiggle",
    "SDTWConfig",
    "SDTWState",
    "SignalNormalizer",
    "SquiggleFilter",
    "TargetPanel",
    "ThresholdSweepResult",
    "build_default_filter",
    "choose_threshold",
    "normalize_block_starts",
    "reduce_block_minima",
    "dtw_cost",
    "dtw_path",
    "sdtw_cost",
    "sdtw_cost_matrix",
    "sdtw_last_row",
    "sdtw_resume",
    "sdtw_resume_batch",
    "sweep_thresholds",
    "variant_config",
]
