"""Batched sDTW execution: one vectorized wavefront across all channels.

The paper's accelerator keeps up with every flowcell channel because many
alignments advance in lockstep; this package is the software analogue. Where
the scalar hot path runs one :func:`~repro.core.sdtw.sdtw_resume` per read
per chunk inside a Python loop, the batch subsystem stacks the resumable
no-deletion recurrence into 2-D state (``channels × reference``) and advances
every active alignment with one :func:`~repro.core.sdtw.sdtw_resume_batch`
call per chunk round (the compiled C kernel on the hardware data path). The
subsystem is split into three layers:

* :mod:`repro.batch.backends` — the **execution backend**,
  :class:`NumpyBackend` (``backend="numpy"``): it advances the lane-stacked
  state in-process, with ``workers`` kernel threads splitting each round's
  lanes into contiguous groups. It is panel-aware: a multi-target
  :class:`~repro.core.panel.TargetPanel` advances in the same wavefront and
  reduces per target;
* :class:`BatchSDTWEngine` — the **lane manager**: admission
  and retirement over recycled lanes, capacity growth, ragged per-round chunk
  lengths, and the per-round occupancy trace the ASIC multi-tile dispatch
  model replays
  (:meth:`~repro.hardware.scheduler.TileScheduler.simulate_batch_trace`);
* :class:`BatchSquiggleClassifier` — the streaming Read Until classifier
  built on the engine, advertising the ``on_chunk_batch`` fast path
  :class:`~repro.pipeline.read_until.ReadUntilPipeline` drives whole polling
  rounds through (registered as ``"batch_squigglefilter"``).

Per-lane costs are bit-identical to the per-read scalar kernels — whatever
the thread count — so batching and threading are purely execution-engine
changes.
"""

from repro.batch.backends import NumpyBackend
from repro.batch.engine import BatchRound, BatchSDTWEngine, LaneSnapshot

__all__ = [
    "BatchRound",
    "BatchSDTWEngine",
    "BatchSquiggleClassifier",
    "LaneSnapshot",
    "NumpyBackend",
]


def __getattr__(name: str):
    # BatchSquiggleClassifier pulls in repro.pipeline.api (which itself imports
    # repro.core.filter -> repro.batch.engine), so it is loaded on demand to
    # keep the package importable from the core layer.
    if name == "BatchSquiggleClassifier":
        from repro.batch.classifier import BatchSquiggleClassifier

        return BatchSquiggleClassifier
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
