"""Workload definitions and their seeded inputs.

Every workload is a :class:`WorkloadSpec`: the ``RunConfig`` fields it sets
on top of the defaults, the flowcell geometry and the read mixture. All
inputs -- genomes, the read pool each tenant replays and the labelled
calibration reads -- come from :func:`build_inputs` and depend only on the
seed, so the timed replay never generates anything.

The pool is replayed cyclically under fresh read ids (:func:`read_stream`),
so a run of any length finds reads and the classifier sees a fixed,
seeded read population. Targets are placed one per stratum of the pool, so
every prefix of the stream carries the workload's exact target share.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.genomes.sequences import random_genome
from repro.runtime import RunConfig
from repro.sequencer.read_until_api import ReadUntilSimulator, SignalChunk
from repro.sequencer.reads import Read, ReadGenerator, SpecimenMixture
from repro.sequencer.run import MinIONParameters

__all__ = [
    "WORKLOADS",
    "Flowcell",
    "WorkloadInputs",
    "WorkloadSpec",
    "build_inputs",
    "read_stream",
]

BACKGROUND_BASES = 60_000
CALIBRATION_READS_PER_CLASS = 8
ORACLE_SAMPLE_READS = 6
# Pore capture times, evenly spread over this range (mean about the
# MinIONParameters default of 1 s). Wide enough that the first reads of all
# pores arrive spread over ~20 polls, so the replay starts near its steady
# round size instead of with a burst of full rounds. Fixed rather than
# seeded, so seeds vary the reads and not the flowcell.
CAPTURE_TIME_S = (0.1, 2.0)


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: what runs, and why it was chosen."""

    name: str
    why: str
    target_bases: Tuple[int, ...]  # one genome per panel target
    target_fraction: float
    chunk_samples: int
    channels_per_tenant: int
    tenants: int = 1  # 1: local open_session; more: served through repro.serve
    pool_reads: int = 400
    run_config: Mapping[str, Any] = field(default_factory=dict)

    @property
    def served(self) -> bool:
        return self.tenants > 1

    @property
    def total_channels(self) -> int:
        return self.tenants * self.channels_per_tenant


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="flowcell_default",
            why=(
                "default RunConfig (numpy, brute force) on a 2,400-base target: "
                "the out-of-the-box path, where the sDTW kernel dominates"
            ),
            target_bases=(2400,),
            target_fraction=0.30,
            chunk_samples=400,
            channels_per_tenant=64,
        ),
        WorkloadSpec(
            name="adaptive_offtarget",
            why=(
                "1% target reads with prune and the LB gate on: the only workload "
                "where pruning engages, with the most rounds per sample"
            ),
            target_bases=(2400,),
            target_fraction=0.01,
            chunk_samples=200,
            channels_per_tenant=64,
            run_config={"prune": True, "lb_cascade": True},
        ),
        WorkloadSpec(
            name="serve_panel",
            why=(
                "2 tenants over HTTP against a 3-target panel: wire, pool queueing, "
                "GIL contention and the multi-block reduce appear only here"
            ),
            target_bases=(150, 150, 150),
            target_fraction=0.10,
            chunk_samples=400,
            channels_per_tenant=32,
            tenants=2,
            pool_reads=300,
        ),
    )
}


@dataclass
class TenantInputs:
    """One tenant's replayed read pool and the pool indices the oracle checks."""

    label: str
    pool: List[Read]
    oracle_sample: Tuple[int, ...]


@dataclass
class WorkloadInputs:
    spec: WorkloadSpec
    config: RunConfig  # threshold unset: setup calibrates it
    tenants: List[TenantInputs]
    calibration_targets: List[np.ndarray]
    calibration_nontargets: List[np.ndarray]

    def flowcell(self, stream: Iterator[Read]) -> "Flowcell":
        """A fresh flowcell over one tenant's read stream."""
        return Flowcell(
            stream,
            capture_times_s=np.linspace(*CAPTURE_TIME_S, self.spec.channels_per_tenant),
            chunk_samples=self.spec.chunk_samples,
            prefix_samples=self.config.prefix_samples,
        )


class Flowcell:
    """One :class:`ReadUntilSimulator` per pore, polled in lockstep.

    A single simulator gives every pore the same capture time, so all pores
    load, decide and eject in the same polls and the replay only ever sees
    full or empty rounds. Here each pore has its own capture time
    (``MinIONParameters.capture_time_s``), so pores run out of phase as on
    a running flowcell. The pores share one read stream, so reads still
    arrive in stream order.

    ``max_chunks_per_read`` keeps the simulator default unless the decision
    prefix needs more chunks (200-sample chunks), so every read streams until
    the classifier decides.
    """

    def __init__(
        self,
        stream: Iterator[Read],
        capture_times_s: Sequence[float],
        chunk_samples: int,
        prefix_samples: int,
    ) -> None:
        max_chunks = max(8, math.ceil(prefix_samples / chunk_samples))
        self._pores = [
            ReadUntilSimulator(
                stream,
                parameters=MinIONParameters(capture_time_s=capture),
                chunk_samples=chunk_samples,
                n_channels=1,
                max_chunks_per_read=max_chunks,
            )
            for capture in capture_times_s
        ]

    def get_read_chunks(self) -> List[SignalChunk]:
        """One poll of every pore; ``channel`` is the pore's index."""
        return [
            dataclasses.replace(chunk, channel=index)
            for index, pore in enumerate(self._pores)
            for chunk in pore.get_read_chunks()
        ]

    def unblock(self, channel: int, read_id: str) -> None:
        self._pores[channel].unblock(0, read_id)

    def stop_receiving(self, channel: int, read_id: str) -> None:
        self._pores[channel].stop_receiving(0, read_id)


def _seeds(seed: int, count: int) -> List[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _stratified_positions(n_reads: int, n_targets: int, rng: np.random.Generator) -> set:
    """One seeded position per equal stratum of the pool."""
    edges = np.linspace(0, n_reads, n_targets + 1).astype(int)
    return {int(rng.integers(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo}


def _pool(
    generator: ReadGenerator,
    target_names: Tuple[str, ...],
    spec: WorkloadSpec,
    rng: np.random.Generator,
) -> List[Read]:
    n_targets = max(1, round(spec.target_fraction * spec.pool_reads))
    positions = _stratified_positions(spec.pool_reads, n_targets, rng)
    reads = []
    made = 0
    for index in range(spec.pool_reads):
        if index in positions:
            source = target_names[made % len(target_names)]
            made += 1
        else:
            source = "background"
        reads.append(generator.generate_one(source=source))
    return reads


def _oracle_sample(
    pool: List[Read], channels: int, rng: np.random.Generator
) -> Tuple[int, ...]:
    """Seeded pool indices the oracle checks: early reads plus the first target.

    Drawn from the first ``channels`` pool positions (loaded on the first poll,
    so decided early in every run) plus the first target read of the pool.
    """
    early = rng.choice(channels, size=ORACLE_SAMPLE_READS - 1, replace=False)
    first_target = next(index for index, read in enumerate(pool) if read.is_target)
    return tuple(sorted({int(index) for index in early} | {first_target}))


def build_inputs(spec: WorkloadSpec, seed: int) -> WorkloadInputs:
    """Everything the workload replays, generated from ``seed`` alone."""
    seeds = _seeds(seed, 8 + len(spec.target_bases) + spec.tenants)
    target_genomes = {
        (f"t{index}" if len(spec.target_bases) > 1 else "target"): random_genome(
            bases, seed=seeds[8 + index]
        )
        for index, bases in enumerate(spec.target_bases)
    }
    target_names = tuple(target_genomes)
    background = random_genome(BACKGROUND_BASES, seed=seeds[0])
    genomes = dict(target_genomes, background=background)
    share = spec.target_fraction / len(target_names)
    fractions = {name: share for name in target_names}
    fractions["background"] = 1.0 - spec.target_fraction
    mixture = SpecimenMixture(genomes=genomes, fractions=fractions, target_names=target_names)

    fields: Dict[str, Any] = dict(spec.run_config)
    if len(target_names) > 1:
        fields["targets"] = target_genomes
    else:
        fields["genome"] = target_genomes[target_names[0]]
    config = RunConfig(
        chunk_samples=spec.chunk_samples,
        n_channels=spec.channels_per_tenant,
        backend="numpy",  # pinned by name: never "auto", so no tuning cache applies
        **fields,
    )

    calibration = ReadGenerator(mixture, seed=seeds[1]).generate_balanced(
        CALIBRATION_READS_PER_CLASS
    )
    tenants = []
    for index in range(spec.tenants):
        tenant_seed = seeds[8 + len(spec.target_bases) + index]
        rng = np.random.default_rng(tenant_seed)
        pool = _pool(ReadGenerator(mixture, seed=tenant_seed), target_names, spec, rng)
        tenants.append(
            TenantInputs(
                label=f"tenant{index}",
                pool=pool,
                oracle_sample=_oracle_sample(pool, spec.channels_per_tenant, rng),
            )
        )
    return WorkloadInputs(
        spec=spec,
        config=config,
        tenants=tenants,
        calibration_targets=[read.signal_pa for read in calibration if read.is_target],
        calibration_nontargets=[read.signal_pa for read in calibration if not read.is_target],
    )


def read_stream(pool: List[Read], pool_index: Dict[str, int]) -> Iterator[Read]:
    """Endless replay of ``pool`` under fresh read ids.

    Records every issued id in ``pool_index`` (id -> pool position), which is
    how decisions are mapped back to ground truth and to the oracle.
    """
    for cycle in itertools.count():
        for index, read in enumerate(pool):
            read_id = f"c{cycle}-r{index}"
            pool_index[read_id] = index
            yield dataclasses.replace(read, read_id=read_id)
