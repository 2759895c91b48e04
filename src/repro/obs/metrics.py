"""Prometheus-style metrics registry shared by sessions, benchmarks and serve.

A deliberately small, dependency-free registry: counters, gauges and
latency summaries with string labels, rendered in the Prometheus text
exposition format by :meth:`MetricsRegistry.render` (what serve's
``GET /metrics`` returns). Latency summaries keep a bounded reservoir of
recent observations per label set and expose nearest-rank percentiles —
enough for the per-round p50/p95/p99 the benchmarks and dashboards read,
without pulling in a client library. Local sessions, benchmarks and the
server all feed this one registry.

Thread-safe: round submissions update counters from the backend pool's
executor threads while the event loop renders ``/metrics``.
"""

from __future__ import annotations

import math
import threading
from array import array
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

__all__ = ["MetricsRegistry"]

# Label sets are stored as sorted (key, value) tuples so the same labels in
# any keyword order address the same series.
_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    # Per the Prometheus text exposition format, label values escape
    # backslash, double-quote and newline (in that order — backslash first
    # so the other escapes aren't double-escaped).
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(key: _LabelKey, extra: Iterable[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Reservoir:
    """The most recent ``size`` observations of one series, in no set order.

    Packed C doubles: about 9 bytes an observation, where a deque of Python
    floats costs about 32. A server observes a dozen series per session
    every round, so this is most of what a session's metrics hold.
    """

    __slots__ = ("_values", "_oldest", "_size")

    def __init__(self, size: int) -> None:
        self._values = array("d")
        self._oldest = 0  # once full, the slot the next observation overwrites
        self._size = size

    def append(self, value: float) -> None:
        if len(self._values) < self._size:
            self._values.append(value)
        else:
            self._values[self._oldest] = value
            self._oldest = (self._oldest + 1) % self._size

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[float]:
        return iter(self._values)


class MetricsRegistry:
    """Counters, gauges and latency summaries behind one lock.

    ``quantiles`` configures the summary percentiles rendered for every
    series observed with :meth:`observe`; ``reservoir`` bounds how many
    recent observations each series keeps (oldest evicted first), so a
    long-running server's percentiles track current behaviour rather than
    its entire history.
    """

    def __init__(
        self,
        quantiles: Tuple[float, ...] = (0.5, 0.95, 0.99),
        reservoir: int = 4096,
    ) -> None:
        if not quantiles or any(not 0.0 < q <= 1.0 for q in quantiles):
            raise ValueError(f"quantiles must lie in (0, 1], got {quantiles}")
        if reservoir <= 0:
            raise ValueError(f"reservoir must be positive, got {reservoir}")
        self.quantiles = tuple(quantiles)
        self.reservoir = int(reservoir)
        self._lock = threading.Lock()
        self._help: Dict[str, str] = {}
        self._types: Dict[str, str] = {}
        self._counters: Dict[str, Dict[_LabelKey, float]] = {}
        self._gauges: Dict[str, Dict[_LabelKey, float]] = {}
        self._summaries: Dict[str, Dict[_LabelKey, _Reservoir]] = {}

    # ------------------------------------------------------------- recording
    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` line to a metric name (optional)."""
        with self._lock:
            self._help[name] = help_text

    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        with self._lock:
            self._types.setdefault(name, "counter")
            series = self._counters.setdefault(name, {})
            key = _label_key(labels)
            series[key] = series.get(key, 0.0) + amount

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        with self._lock:
            self._types.setdefault(name, "gauge")
            self._gauges.setdefault(name, {})[_label_key(labels)] = float(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record one observation into the ``name`` summary series."""
        with self._lock:
            self._types.setdefault(name, "summary")
            series = self._summaries.setdefault(name, {})
            key = _label_key(labels)
            window = series.get(key)
            if window is None:
                window = series[key] = _Reservoir(self.reservoir)
            window.append(float(value))

    # --------------------------------------------------------------- reading
    def counter_value(self, name: str, **labels: str) -> float:
        with self._lock:
            return self._counters.get(name, {}).get(_label_key(labels), 0.0)

    def gauge_value(self, name: str, **labels: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name, {}).get(_label_key(labels))

    def percentiles(self, name: str, **labels: str) -> Dict[float, float]:
        """Nearest-rank percentiles of a summary series (empty if unseen)."""
        with self._lock:
            window = self._summaries.get(name, {}).get(_label_key(labels))
            values = sorted(window) if window else []
        if not values:
            return {}
        return {q: _nearest_rank(values, q) for q in self.quantiles}

    def summary_count(self, name: str, **labels: str) -> int:
        with self._lock:
            window = self._summaries.get(name, {}).get(_label_key(labels))
            return len(window) if window else 0

    # ------------------------------------------------------------- rendering
    def render(self) -> str:
        """The Prometheus text exposition of every recorded series."""
        with self._lock:
            lines = []
            for name in sorted(self._types):
                if name in self._help:
                    lines.append(f"# HELP {name} {self._help[name]}")
                lines.append(f"# TYPE {name} {self._types[name]}")
                for key, value in sorted(self._counters.get(name, {}).items()):
                    lines.append(f"{name}{_format_labels(key)} {_format_value(value)}")
                for key, value in sorted(self._gauges.get(name, {}).items()):
                    lines.append(f"{name}{_format_labels(key)} {_format_value(value)}")
                for key, window in sorted(self._summaries.get(name, {}).items()):
                    values = sorted(window)
                    for q in self.quantiles:
                        labels = _format_labels(key, [("quantile", _trim_quantile(q))])
                        point = _nearest_rank(values, q) if values else math.nan
                        lines.append(f"{name}{labels} {_format_value(point)}")
                    lines.append(
                        f"{name}_count{_format_labels(key)} {len(window)}"
                    )
                    lines.append(
                        f"{name}_sum{_format_labels(key)} {_format_value(sum(window))}"
                    )
        return "\n".join(lines) + "\n"


def _nearest_rank(sorted_values, quantile: float) -> float:
    rank = max(1, math.ceil(quantile * len(sorted_values)))
    return float(sorted_values[rank - 1])


def _trim_quantile(quantile: float) -> str:
    text = f"{quantile:g}"
    return text
