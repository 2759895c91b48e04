"""Streaming Read Until API simulation.

ONT's Read Until API exposes sequencing as a stream of raw-signal *chunks*
per channel: client code repeatedly fetches the newest chunk of every read
currently in a pore (accumulating prefixes itself), decides to ``unblock``
(eject), ``stop receiving`` (keep sequencing, stop streaming data) or wait
for more signal, and the pore state advances in real time whether or not the
client keeps up.

The paper's system plugs SquiggleFilter into exactly this interface, and its
latency argument (Section 7.2) is about what happens *between* chunk arrival
and the unblock call. :class:`ReadUntilSimulator` reproduces the interface
closely enough to drive any of this repository's classifiers through it and
to measure how decision latency and throughput limits translate into wasted
sequencing.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.sequencer.reads import Read
from repro.sequencer.run import MinIONParameters


@dataclass
class SignalChunk:
    """One chunk of raw signal delivered to the Read Until client.

    Chunks are incremental, as in ONT's API: ``signal_pa`` holds only the
    samples that arrived since the previous chunk of the same read, and
    ``chunk_start_sample`` is the offset of this chunk's first sample within
    the read. ``is_last`` marks the chunk that exhausts the read's signal, so
    clients can make a best-effort decision on whatever prefix exists instead
    of waiting for samples that will never arrive. Clients that classify
    whole prefixes accumulate chunks per read (see :class:`ChunkAccumulator`,
    :func:`classifier_client` and the adapters in :mod:`repro.pipeline.api`).
    """

    channel: int
    read_id: str
    read_number: int
    chunk_start_sample: int
    signal_pa: np.ndarray
    is_last: bool = False

    @property
    def chunk_length(self) -> int:
        return int(self.signal_pa.size)

    @property
    def samples_seen(self) -> int:
        """Total samples of this read available so far (prefix length)."""
        return self.chunk_start_sample + self.chunk_length


def check_round_chunks(chunks: Sequence[SignalChunk]) -> None:
    """Raise :class:`ValueError` naming the first malformed chunk of a round.

    A round is malformed when a chunk's signal is not a 1-D sample array,
    holds NaN or infinity, or belongs to a read that already has a chunk in
    the round. A non-finite raw sample would otherwise normalize into a
    confident (and meaningless) decision, and the other two fail only deep
    inside the wavefront, so classifiers reject the whole round at the
    boundary, before any of its reads touches lane state.
    """
    seen = set()
    for chunk in chunks:
        if np.ndim(chunk.signal_pa) != 1:
            raise ValueError(
                f"signal_pa: chunk of read {chunk.read_id!r} must be a 1-D "
                f"sample array, got shape {np.shape(chunk.signal_pa)}"
            )
        if not np.isfinite(chunk.signal_pa).all():
            raise ValueError(
                f"signal_pa: chunk of read {chunk.read_id!r} holds non-finite "
                "samples (NaN or infinity); raw pA samples must be finite"
            )
        if chunk.read_id in seen:
            raise ValueError(
                f"read_id: read {chunk.read_id!r} has more than one chunk in "
                "the round; send at most one chunk per read per round"
            )
        seen.add(chunk.read_id)


@dataclass
class ChannelState:
    """What one pore/channel is doing at the current simulation time."""

    channel: int
    read: Optional[Read] = None
    read_number: int = 0
    samples_delivered: int = 0
    samples_sequenced: int = 0
    decision: str = "pending"  # pending | unblocked | stop_receiving | completed
    time_busy_until_s: float = 0.0


@dataclass(slots=True)
class ReadUntilActionLog:
    """Per-read record of what the client did and what it cost."""

    read_id: str
    channel: int
    is_target: bool
    action: str
    samples_sequenced: int
    decision_sample: int
    decision_time_s: float


class ActionLog:
    """A simulator's finished reads, stored as columns.

    A long run finishes one read per channel every few polls, so the log
    keeps numbers in :class:`array.array` columns and read ids and action
    names as references, not one record object (with its boxed ints and
    float) per read. It reads like a list of :class:`ReadUntilActionLog`:
    ``len``, indexing, iteration and ``==`` against a list build the records
    on demand.
    """

    __slots__ = (
        "_read_ids", "_actions", "_channels", "_targets",
        "_samples_sequenced", "_decision_samples", "_decision_times",
    )

    def __init__(self) -> None:
        self._read_ids: List[str] = []
        self._actions: List[str] = []
        self._channels = array("i")
        self._targets = array("b")
        self._samples_sequenced = array("q")
        self._decision_samples = array("q")
        self._decision_times = array("d")

    def append(self, entry: ReadUntilActionLog) -> None:
        self._read_ids.append(entry.read_id)
        self._actions.append(entry.action)
        self._channels.append(entry.channel)
        self._targets.append(bool(entry.is_target))
        self._samples_sequenced.append(entry.samples_sequenced)
        self._decision_samples.append(entry.decision_sample)
        self._decision_times.append(entry.decision_time_s)

    def __len__(self) -> int:
        return len(self._read_ids)

    def __getitem__(self, index: int) -> ReadUntilActionLog:
        return ReadUntilActionLog(
            read_id=self._read_ids[index],
            channel=self._channels[index],
            is_target=bool(self._targets[index]),
            action=self._actions[index],
            samples_sequenced=self._samples_sequenced[index],
            decision_sample=self._decision_samples[index],
            decision_time_s=self._decision_times[index],
        )

    def __iter__(self) -> Iterator[ReadUntilActionLog]:
        return (self[index] for index in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ActionLog, list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"ActionLog({len(self)} reads)"


class ReadUntilSimulator:
    """Chunk-based Read Until session over a set of channels.

    Parameters
    ----------
    reads:
        Read supply; consumed round-robin as channels become free.
    parameters:
        Pore kinetics (sample rate, capture time, ejection time).
    chunk_samples:
        Chunk granularity delivered to the client (ONT defaults to one
        second of signal, i.e. ~4000 samples; the paper reasons about
        2000-sample chunks).
    n_channels:
        Number of concurrently sequencing channels to simulate.
    """

    def __init__(
        self,
        reads: Sequence[Read],
        parameters: Optional[MinIONParameters] = None,
        chunk_samples: int = 2000,
        n_channels: int = 8,
        max_chunks_per_read: int = 8,
    ) -> None:
        if chunk_samples <= 0:
            raise ValueError("chunk_samples must be positive")
        if n_channels <= 0:
            raise ValueError("n_channels must be positive")
        if max_chunks_per_read <= 0:
            raise ValueError("max_chunks_per_read must be positive")
        self.parameters = parameters if parameters is not None else MinIONParameters()
        self.chunk_samples = chunk_samples
        self.n_channels = n_channels
        self.max_chunks_per_read = max_chunks_per_read
        self._reads: Iterator[Read] = iter(reads)
        self._channels: List[ChannelState] = [
            ChannelState(channel=index) for index in range(n_channels)
        ]
        self._read_counter = 0
        self.action_log = ActionLog()
        self.clock_s = 0.0
        self._exhausted = False

    # ------------------------------------------------------------------ stream
    def _load_next_read(self, state: ChannelState) -> bool:
        try:
            read = next(self._reads)
        except StopIteration:
            self._exhausted = True
            state.read = None
            state.decision = "completed"
            return False
        self._read_counter += 1
        state.read = read
        state.read_number = self._read_counter
        state.samples_delivered = 0
        state.samples_sequenced = 0
        state.decision = "pending"
        state.time_busy_until_s = self.clock_s + self.parameters.capture_time_s
        return True

    def get_read_chunks(self) -> List[SignalChunk]:
        """Fetch the newest chunk for every channel with an undecided read.

        Mirrors ``read_until.ReadUntilClient.get_read_chunks()``: each call
        advances the simulation clock by one chunk duration and returns, for
        every read still awaiting a decision, the incremental chunk of signal
        that arrived since the previous poll (``chunk_start_sample`` marks
        where in the read the chunk begins).
        """
        chunk_duration_s = self.chunk_samples / self.parameters.sample_rate_hz
        self.clock_s += chunk_duration_s
        chunks: List[SignalChunk] = []
        for state in self._channels:
            if state.read is None or state.decision in ("unblocked", "completed"):
                if not self._exhausted:
                    self._load_next_read(state)
                if state.read is None:
                    continue
            if state.decision == "stop_receiving":
                # Keeps sequencing but the client no longer receives data.
                state.samples_sequenced = min(
                    state.read.n_samples, state.samples_sequenced + self.chunk_samples
                )
                if state.samples_sequenced >= state.read.n_samples:
                    self._finish_read(state, action="sequenced")
                continue
            if self.clock_s < state.time_busy_until_s:
                continue  # still in capture / ejection dead time
            start = state.samples_delivered
            end = min(start + self.chunk_samples, state.read.n_samples)
            state.samples_delivered = end
            state.samples_sequenced = end
            if end <= start:
                # Read ran out of signal without a decision: it completed.
                self._finish_read(state, action="sequenced")
                continue
            chunks.append(
                SignalChunk(
                    channel=state.channel,
                    read_id=state.read.read_id,
                    read_number=state.read_number,
                    chunk_start_sample=start,
                    signal_pa=state.read.signal_pa[start:end],
                    is_last=end >= state.read.n_samples,
                )
            )
            if state.samples_delivered >= self.max_chunks_per_read * self.chunk_samples:
                # Too long undecided: treat like stop_receiving (ONT behaviour).
                state.decision = "stop_receiving"
        return chunks

    # ----------------------------------------------------------------- actions
    def unblock(self, channel: int, read_id: str, latency_s: float = 0.0) -> None:
        """Eject the read currently in ``channel`` (if it still matches ``read_id``)."""
        state = self._state_for(channel)
        if state.read is None or state.read.read_id != read_id:
            return  # stale decision: the read already finished
        extra = int(round(latency_s * self.parameters.sample_rate_hz))
        state.samples_sequenced = min(state.read.n_samples, state.samples_sequenced + extra)
        state.time_busy_until_s = self.clock_s + latency_s + self.parameters.ejection_time_s
        self._finish_read(state, action="unblocked")

    def stop_receiving(self, channel: int, read_id: str) -> None:
        """Keep sequencing the read but stop streaming its chunks."""
        state = self._state_for(channel)
        if state.read is None or state.read.read_id != read_id:
            return
        state.decision = "stop_receiving"

    def _state_for(self, channel: int) -> ChannelState:
        if not 0 <= channel < self.n_channels:
            raise IndexError(f"channel {channel} out of range")
        return self._channels[channel]

    def _finish_read(self, state: ChannelState, action: str) -> None:
        assert state.read is not None
        self.action_log.append(
            ReadUntilActionLog(
                read_id=state.read.read_id,
                channel=state.channel,
                is_target=state.read.is_target,
                action=action,
                samples_sequenced=state.samples_sequenced,
                decision_sample=state.samples_delivered,
                decision_time_s=self.clock_s,
            )
        )
        state.read = None
        state.decision = "completed" if action == "sequenced" else "unblocked"

    # -------------------------------------------------------------------- loop
    @property
    def finished(self) -> bool:
        """True when the read supply is exhausted and all channels are idle."""
        return self._exhausted and all(state.read is None for state in self._channels)

    def run_client(
        self,
        decide: Callable[[SignalChunk], str],
        decision_latency_s: float = 0.0,
        max_iterations: int = 10_000,
    ) -> Dict[str, object]:
        """Drive the stream with a decision callback until all reads finish.

        ``decide`` receives a chunk and returns ``"unblock"``,
        ``"stop_receiving"`` or ``"wait"``. Returns summary statistics of the
        session.
        """
        iterations = 0
        while not self.finished and iterations < max_iterations:
            iterations += 1
            for chunk in self.get_read_chunks():
                action = decide(chunk)
                self._apply_action(chunk, action, decision_latency_s)
        return self.summary()

    def run_batch_client(
        self,
        decide_batch: Callable[[List[SignalChunk]], Sequence[str]],
        decision_latency_s: float = 0.0,
        max_iterations: int = 10_000,
    ) -> Dict[str, object]:
        """Drive the stream one whole polling round at a time.

        ``decide_batch`` receives every undecided channel's chunk of the round
        at once and returns one action verb per chunk, in order — the shape a
        batched classifier wants (one vectorized wavefront per round) and the
        shape ONT's real API delivers (``get_read_chunks`` returns the whole
        round). Semantically equivalent to :meth:`run_client` with the same
        per-chunk decisions.
        """
        iterations = 0
        while not self.finished and iterations < max_iterations:
            iterations += 1
            chunks = self.get_read_chunks()
            if not chunks:
                continue
            actions = list(decide_batch(chunks))
            if len(actions) != len(chunks):
                raise ValueError(
                    f"decide_batch returned {len(actions)} actions for {len(chunks)} chunks"
                )
            for chunk, action in zip(chunks, actions):
                self._apply_action(chunk, action, decision_latency_s)
        return self.summary()

    def _apply_action(self, chunk: SignalChunk, action: str, decision_latency_s: float) -> None:
        if action == "unblock":
            self.unblock(chunk.channel, chunk.read_id, latency_s=decision_latency_s)
        elif action == "stop_receiving":
            self.stop_receiving(chunk.channel, chunk.read_id)
        elif action != "wait":
            raise ValueError(f"unknown Read Until action {action!r}")

    def summary(self) -> Dict[str, object]:
        """Aggregate statistics of the actions taken so far."""
        log = self.action_log
        n_target = sum(1 for entry in log if entry.is_target)
        n_target_kept = sum(1 for entry in log if entry.is_target and entry.action == "sequenced")
        n_background = sum(1 for entry in log if not entry.is_target)
        n_background_ejected = sum(
            1 for entry in log if not entry.is_target and entry.action == "unblocked"
        )
        return {
            "reads_finished": len(log),
            "target_reads": n_target,
            "target_recall": (n_target_kept / n_target) if n_target else 0.0,
            "background_reads": n_background,
            "background_ejection_rate": (
                n_background_ejected / n_background if n_background else 0.0
            ),
            "mean_background_samples": (
                float(np.mean([e.samples_sequenced for e in log if not e.is_target]))
                if n_background
                else 0.0
            ),
            "wall_clock_s": self.clock_s,
        }


class ChunkAccumulator:
    """Reassemble incremental :class:`SignalChunk` streams into per-read prefixes.

    Shared by :func:`classifier_client` and the streaming adapters in
    :mod:`repro.pipeline.api`, so the chunk-to-prefix bookkeeping (and its
    cleanup) lives in exactly one place.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, List[np.ndarray]] = {}

    def begin_read(self, read_id: str) -> None:
        self._buffers[read_id] = []

    def add(self, chunk: SignalChunk) -> int:
        """Append a chunk to its read's buffer; return the prefix length so far."""
        if chunk.chunk_start_sample == 0:
            self._buffers[chunk.read_id] = []
        parts = self._buffers.setdefault(chunk.read_id, [])
        parts.append(np.asarray(chunk.signal_pa, dtype=np.float64))
        return sum(part.size for part in parts)

    def prefix(self, read_id: str) -> np.ndarray:
        return np.concatenate(self._buffers[read_id])

    def drop(self, read_id: str) -> None:
        self._buffers.pop(read_id, None)


def classifier_client(
    classify: Callable[[np.ndarray], bool],
    min_samples: int = 2000,
) -> Callable[[SignalChunk], str]:
    """Adapt a boolean classifier into a Read Until decision callback.

    The callback accumulates the incremental chunks of each read, waits until
    ``min_samples`` of signal are available (or the read ends first), then
    issues ``stop_receiving`` for positives and ``unblock`` for negatives —
    the standard single-stage policy. For richer incremental behaviour (typed
    actions, multi-stage decisions, cost accounting) use the
    :class:`repro.pipeline.api.ReadUntilClassifier` protocol instead.
    """
    if min_samples <= 0:
        raise ValueError("min_samples must be positive")

    accumulator = ChunkAccumulator()

    def decide(chunk: SignalChunk) -> str:
        accumulator.add(chunk)
        if chunk.samples_seen < min_samples and not chunk.is_last:
            return "wait"
        signal = accumulator.prefix(chunk.read_id)
        accumulator.drop(chunk.read_id)
        return "stop_receiving" if classify(signal[:min_samples]) else "unblock"

    return decide
