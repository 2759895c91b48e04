#!/usr/bin/env python3
"""Observability walkthrough: trace a Read Until session end to end.

The paper's core analysis is a compute-time breakdown — where the
microseconds go between raw signal and an eject decision — and
``repro.obs`` gives the reproduction the same lens on itself. This example

1. opens a **traced** :class:`~repro.runtime.ReadUntilSession`
   (``RunConfig(trace=True, trace_path=...)``) on the numpy backend with
   two kernel threads and streams a small simulated flowcell through it,
2. reads the in-memory **flight recorder** (``session.trace()``) and the
   per-phase totals in ``session.summary()["phase_totals"]``,
3. prints the per-track **self-time** phase tables — per track, self times
   decompose the root spans' wall clock exactly, so every table sums to
   that track's traced time — including one track per kernel thread, and
4. exports Chrome trace-event JSON on close: open it at
   https://ui.perfetto.dev, or run ``repro trace trace_phases.json``.

Tracing observes, never steers: the traced run's decisions are
bit-identical to an untraced one (asserted here on the same flowcell).

Run with:  python examples/trace_phases.py
"""

from __future__ import annotations

from repro.genomes.sequences import random_genome
from repro.obs import load_trace, validate_trace
from repro.pore_model.kmer_model import KmerModel
from repro.runtime import RunConfig, open_session
from repro.sequencer.reads import ReadGenerator, ReadLengthModel, SpecimenMixture

TRACE_PATH = "trace_phases.json"


def build_world(seed: int = 11):
    kmer_model = KmerModel(seed=941)
    mixture = SpecimenMixture.two_component(
        target_name="virus",
        target_genome=random_genome(1200, seed=seed),
        background_name="host",
        background_genome=random_genome(6000, seed=seed + 1),
        target_fraction=0.05,
    )
    generator = ReadGenerator(
        mixture,
        kmer_model=kmer_model,
        length_model=ReadLengthModel(
            mean_bases=300, sigma=0.15, min_bases=220, max_bases=500
        ),
        seed=seed + 2,
    )
    return mixture, generator


def main() -> None:
    mixture, generator = build_world()
    reads = [generator.generate_one(source="virus") for _ in range(4)]
    reads += [generator.generate_one(source="host") for _ in range(12)]
    calibration = generator.generate_balanced(10)

    base = RunConfig(
        genome=mixture.genomes["virus"],
        prefix_samples=800,
        chunk_samples=400,
        n_channels=8,
        workers=2,
        label="trace-demo",
    )
    with open_session(base) as session:
        threshold = session.calibrate(
            [r.signal_pa for r in calibration if r.is_target],
            [r.signal_pa for r in calibration if not r.is_target],
        )
    print(f"== traced Read Until session (threshold {threshold:.0f}) ==")

    # 1. An untraced run: the decision baseline.
    untraced = base.with_(threshold=threshold)
    with open_session(untraced) as session:
        baseline = session.run(reads, target_genome=mixture.genomes["virus"])
        print(f"untraced: {baseline.session.n_reads} reads, "
              f"{baseline.session.n_ejected} ejected, trace() has "
              f"{len(session.trace())} records")

    # 2. The same run, traced + exported on close.
    traced = untraced.with_(trace=True, trace_path=TRACE_PATH)
    with open_session(traced) as session:
        result = session.run(reads, target_genome=mixture.genomes["virus"])
        summary = session.summary()
        tracer = session.tracer

        # Tracing observes; it never changes a decision.
        assert [o.ejected for o in result.session.outcomes] == [
            o.ejected for o in baseline.session.outcomes
        ]

        print(f"\nflight recorder: {len(session.trace())} spans/instants on "
              f"{len(tracer.tracks())} tracks {tracer.tracks()}")
        print(f"round wall clock: {summary['round_wall_s'] * 1e3:.1f} ms over "
              f"{summary['busy_rounds']} busy rounds ({summary['n_polls']} polls)")

        # 3. Per-track self-time breakdown. The session track's self times
        #    sum to its root spans' wall clock; each kernel-thread track
        #    decomposes its own thread's time the same way.
        for track in tracer.tracks():
            phases = tracer.phase_totals(track)
            total_self_ms = sum(s.self_s for s in phases.values()) * 1e3
            print(f"\n  [{track}] {total_self_ms:.1f} ms self time")
            ranked = sorted(
                phases.items(), key=lambda item: -item[1].self_s
            )
            for name, stat in ranked[:5]:
                share = stat.self_s * 1e3 / total_self_ms if total_self_ms else 0.0
                print(f"    {name:<20} x{stat.count:<4} "
                      f"{stat.self_s * 1e3:8.2f} ms  {share * 100:5.1f}%")

    # 4. The exported file is valid Chrome trace-event JSON.
    document = load_trace(TRACE_PATH)
    events = validate_trace(document)
    print(f"\nwrote {TRACE_PATH}: {len(events)} complete events, metadata "
          f"{document['metadata']} — open in ui.perfetto.dev or run "
          f"`repro trace {TRACE_PATH}`")


if __name__ == "__main__":
    main()
