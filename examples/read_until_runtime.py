#!/usr/bin/env python3
"""Read Until operating-point exploration (paper Figure 17).

Reproduces, at laptop scale, the analysis behind Figure 17: sweep the sDTW
ejection threshold for several read-prefix lengths, measure classification
accuracy at every operating point, feed each point into the analytical
sequencing-runtime model, and report the threshold/prefix combination that
minimizes time-to-coverage. Finishes with the multi-stage filter of
Section 4.6, run two ways: batch-classified for the analytical runtime model,
then *streamed* through the chunk-driven Read Until pipeline, where each
stage fires as soon as its prefix has arrived on the wire and clear
non-targets are ejected on an early chunk.

Closes with the batched execution engine: the same session run with one
vectorized sDTW wavefront across all channels per chunk round
(``repro.batch``), whose per-round occupancy trace drives the ASIC
multi-tile dispatch model.

Run with:  python examples/read_until_runtime.py
"""

from __future__ import annotations

from repro.analysis.sweeps import accuracy_sweep
from repro.hardware.scheduler import TileScheduler
from repro.pipeline.read_until import ReadUntilPipeline
from repro.core.filter import MultiStageSquiggleFilter, SquiggleFilter
from repro.core.reference import ReferenceSquiggle
from repro.genomes.sequences import random_genome
from repro.runtime import RunConfig, open_session
from repro.pipeline.runtime_model import (
    ReadUntilModelConfig,
    best_runtime,
    runtime_from_decisions,
    runtime_vs_threshold,
    sequencing_runtime_s,
)
from repro.pore_model.kmer_model import KmerModel
from repro.sequencer.reads import ReadGenerator, ReadLengthModel, SpecimenMixture

PREFIX_LENGTHS = (500, 1000, 2000)
N_READS_PER_CLASS = 25


def build_reads(seed: int = 13):
    kmer_model = KmerModel(seed=941)
    target_genome = random_genome(2400, seed=seed)       # lambda-phage-scale target
    background_genome = random_genome(16_000, seed=seed + 1)
    mixture = SpecimenMixture.two_component(
        "lambda", target_genome, "human", background_genome, target_fraction=0.01
    )
    generator = ReadGenerator(
        mixture,
        kmer_model=kmer_model,
        length_model=ReadLengthModel(mean_bases=600, sigma=0.2, min_bases=350, max_bases=1400),
        seed=seed + 2,
    )
    reads = generator.generate_balanced(N_READS_PER_CLASS)
    return kmer_model, target_genome, reads


def main() -> None:
    kmer_model, target_genome, reads = build_reads()
    target_signals = [read.signal_pa for read in reads if read.is_target]
    background_signals = [read.signal_pa for read in reads if not read.is_target]

    reference = ReferenceSquiggle.from_genome(target_genome, kmer_model=kmer_model)
    squiggle_filter = SquiggleFilter(reference, prefix_samples=max(PREFIX_LENGTHS))

    model = ReadUntilModelConfig(
        genome_length_bases=len(target_genome),
        viral_fraction=0.01,
        mean_target_read_bases=600,
        mean_background_read_bases=1800,
        decision_latency_s=4.3e-5,  # SquiggleFilter's hardware latency
    )
    control_runtime = sequencing_runtime_s(model, use_read_until=False)
    print("== Read Until operating-point exploration ==")
    print(f"time to 30x coverage WITHOUT Read Until: {control_runtime / 60:.1f} minutes\n")

    # ---- Figure 17a/b: accuracy sweep + runtime model per prefix length ----
    sweep = accuracy_sweep(
        squiggle_filter, target_signals, background_signals, PREFIX_LENGTHS, n_thresholds=61
    )
    best_single = None
    for prefix_sweep in sweep:
        prefix_model = model.with_(decision_prefix_samples=prefix_sweep.prefix_samples)
        rows = runtime_vs_threshold(prefix_sweep.sweep, prefix_model)
        best = best_runtime(rows)
        speedup = control_runtime / best["runtime_s"]
        print(
            f"prefix {prefix_sweep.prefix_samples:5d} samples | "
            f"max F1 {prefix_sweep.max_f1:.3f} | "
            f"best runtime {best['runtime_s'] / 60:6.1f} min "
            f"(recall {best['recall']:.2f}, FPR {best['false_positive_rate']:.2f}) | "
            f"{speedup:4.1f}x faster than control"
        )
        if best_single is None or best["runtime_s"] < best_single[1]["runtime_s"]:
            best_single = (prefix_sweep.prefix_samples, best)

    assert best_single is not None
    print(
        f"\nbest single-stage configuration: prefix {best_single[0]} samples, "
        f"threshold {best_single[1]['threshold']:,.0f} -> "
        f"{best_single[1]['runtime_s'] / 60:.1f} minutes"
    )

    # ---- Section 4.6: multi-stage filtering ---------------------------------
    multistage = MultiStageSquiggleFilter.calibrated(
        reference,
        target_signals,
        background_signals,
        prefix_lengths=PREFIX_LENGTHS,
    )
    decisions = multistage.classify_batch([read.signal_pa for read in reads])
    multistage_runtime = runtime_from_decisions(
        decisions,
        [read.is_target for read in reads],
        model.with_(decision_prefix_samples=max(PREFIX_LENGTHS)),
    )
    print("\n-- multi-stage filter --")
    stage_histogram = {}
    for decision in decisions:
        if not decision.accept:
            stage_histogram[decision.stage] = stage_histogram.get(decision.stage, 0) + 1
    print(f"ejections per stage (stage -> count): {dict(sorted(stage_histogram.items()))}")
    print(f"modelled runtime: {multistage_runtime / 60:.1f} minutes")
    improvement = (best_single[1]["runtime_s"] - multistage_runtime) / best_single[1]["runtime_s"]
    print(f"improvement over best single threshold: {improvement:+.1%} "
          "(the paper reports a further ~13% saving)")

    # ---- The same filter, streamed chunk by chunk --------------------------
    # Through the streaming pipeline each stage fires at its own chunk
    # boundary, so the per-stage ejections above happen *during* sequencing:
    # a read rejected by stage 0 only ever occupied the pore for the first
    # 500-sample chunk (plus the ~43 us decision latency).
    pipeline = ReadUntilPipeline(
        multistage,
        target_genome,
        chunk_samples=min(PREFIX_LENGTHS),
        assemble=False,
    )
    result = pipeline.run(reads)
    streamed_histogram = {}
    for outcome in result.session.outcomes:
        if outcome.ejected and outcome.decision is not None:
            stage = outcome.decision.stage
            streamed_histogram[stage] = streamed_histogram.get(stage, 0) + 1
    print("\n-- multi-stage filter, streamed through the chunk simulator --")
    print(f"ejections per stage (stage -> count): {dict(sorted(streamed_histogram.items()))}")
    print(f"mean background samples sequenced: "
          f"{result.session.mean_nontarget_sequenced_samples:,.0f}")
    print(f"pore-time: {result.runtime_s / 60:.1f} pore-minutes "
          f"(recall {result.recall:.2f})")

    # ---- Batched wavefront: all channels advance in lockstep ---------------
    # One declarative RunConfig describes the whole run — reference, prefix,
    # chunk geometry, channel count, execution backend — and open_session
    # turns it into the runtime object that owns calibration, lazy backend
    # spawn and teardown. The session classifies every undecided channel of
    # a polling round with one vectorized sDTW wavefront (repro.batch);
    # decisions are identical to the scalar path. The engine's per-round
    # occupancy trace then drives the ASIC multi-tile dispatch model with
    # the bursty request pattern lockstep execution really produces.
    run_config = RunConfig(
        reference=reference,
        prefix_samples=best_single[0],
        chunk_samples=min(PREFIX_LENGTHS),
        n_channels=8,
        batch=True,
    )
    with open_session(run_config) as session:
        threshold = session.calibrate(target_signals, background_signals)
        batched_result = session.run(reads, target_genome=target_genome)
    occupancy = batched_result.streaming["batch_occupancy"]
    print("\n-- batched wavefront across 8 channels --")
    print(f"recall {batched_result.recall:.2f}, {len(occupancy)} chunk rounds, "
          f"peak {batched_result.streaming['peak_batch_lanes']} concurrent lanes")
    scheduler = TileScheduler(n_tiles=2)
    stats = scheduler.simulate_batch_trace(
        occupancy, batched_result.streaming["chunk_duration_s"]
    )
    print(f"ASIC dispatch on the real batch trace: {stats.n_requests} requests, "
          f"mean tile utilization {stats.mean_utilization:.2%}, "
          f"max queueing delay {stats.max_waiting_ms:.3f} ms")

    # ---- The same session on two kernel threads ----------------------------
    # workers=2 splits each round's lanes into two contiguous groups that
    # advance on two threads (numpy releases the GIL inside its array
    # loops), so a many-channel round uses both cores. Switching is one
    # with_() on the config — decisions are bit-identical to one thread;
    # the assertion below checks exactly that on this session.
    threaded_config = run_config.with_(workers=2, threshold=threshold)
    with open_session(threaded_config) as threaded_session:
        threaded_result = threaded_session.run(reads, target_genome=target_genome)
    one_thread_decisions = {
        o.read.read_id: (o.ejected, o.decision.cost if o.decision else None)
        for o in batched_result.session.outcomes
    }
    threaded_decisions = {
        o.read.read_id: (o.ejected, o.decision.cost if o.decision else None)
        for o in threaded_result.session.outcomes
    }
    assert threaded_decisions == one_thread_decisions
    print("\n-- numpy execution backend on 2 kernel threads --")
    print(f"backend: {threaded_result.streaming['backend']}, "
          f"recall {threaded_result.recall:.2f} — decisions bit-identical "
          "to one thread")


if __name__ == "__main__":
    main()
