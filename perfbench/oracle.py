"""The scalar oracle every run's decisions are checked against.

For a read, the oracle cuts the signal into the chunks the simulator
delivers, trims them to the decision prefix, normalizes and quantizes each
chunk on its own with the public :class:`SignalNormalizer` (as the
classifier does), and advances one scalar :func:`sdtw_resume` per panel
target over those chunks. The decision is the brute-force recurrence's:
accept when the best target's cost is at or below the threshold.

With pruning on, the contract is decisions identical to brute force, plus
bit-exact cost and end position whenever the brute-force cost is at or
below ``threshold + prune_margin``. Without pruning everything is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.core.normalization import SignalNormalizer
from repro.core.sdtw import sdtw_resume
from repro.pipeline.api import ACCEPT, EJECT, Action
from repro.runtime import RunConfig

__all__ = ["Oracle", "OracleDecision"]


@dataclass(frozen=True)
class OracleDecision:
    kind: str
    cost: float
    end_position: int
    samples_used: int
    target: str
    target_costs: Tuple[float, ...]


class Oracle:
    """Brute-force decisions for one config and threshold, cached per pool read."""

    def __init__(self, config: RunConfig, threshold: float) -> None:
        self.config = config
        self.threshold = float(threshold)
        panel = config.resolve_panel()
        quantized = config.hardware.quantize
        values = panel.values(quantized=quantized)
        self._blocks = [(name, values[span]) for name, span in panel.slices()]
        self._normalizer = SignalNormalizer(panel.normalization)
        self._cache: Dict[Hashable, OracleDecision] = {}

    def _prepare(self, raw: np.ndarray) -> np.ndarray:
        normalized = self._normalizer.normalize(np.asarray(raw, dtype=np.float64))
        if self.config.hardware.quantize:
            return self._normalizer.quantize(normalized)
        return normalized

    def decide(self, key: Hashable, signal: np.ndarray) -> OracleDecision:
        """The brute-force decision for one read signal, cached under ``key``."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        prefix = self.config.prefix_samples
        chunk = self.config.chunk_samples
        states = [None] * len(self._blocks)
        consumed = 0
        for start in range(0, signal.size, chunk):
            if consumed >= prefix:
                break
            piece = signal[start : start + chunk][: prefix - consumed]
            query = self._prepare(piece)
            states = [
                sdtw_resume(query, block, self.config.hardware, state)
                for (_, block), state in zip(self._blocks, states)
            ]
            consumed += piece.size
        costs = tuple(float(state.row.min()) for state in states)
        best = int(np.argmin(costs))  # ties: first target, as the engine reduces
        decision = OracleDecision(
            kind=ACCEPT if costs[best] <= self.threshold else EJECT,
            cost=costs[best],
            end_position=int(np.argmin(states[best].row)),
            samples_used=consumed,
            target=self._blocks[best][0],
            target_costs=costs,
        )
        self._cache[key] = decision
        return decision

    def mismatch(self, action: Action, expected: OracleDecision) -> Optional[str]:
        """Why ``action`` breaks the contract against ``expected`` (None if it holds)."""
        if action.kind != expected.kind:
            return f"decision {action.kind} != oracle {expected.kind}"
        if action.samples_used != expected.samples_used:
            return f"samples_used {action.samples_used} != oracle {expected.samples_used}"
        exact = (
            not self.config.prune
            or expected.cost <= self.threshold + self.config.prune_margin
        )
        if not exact:
            return None
        got = (action.cost, action.end_position, action.target)
        want = (expected.cost, expected.end_position, expected.target)
        if got != want:
            return f"(cost, end, target) {got} != oracle {want}"
        if not self.config.prune and tuple(action.target_costs) != expected.target_costs:
            return f"target_costs {action.target_costs} != oracle {expected.target_costs}"
        return None
