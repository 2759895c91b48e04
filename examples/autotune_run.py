#!/usr/bin/env python3
"""Autotuning walkthrough: backend="auto" end to end.

Backend choice, worker counts and the exactness-preserving prune/lower-bound
layers all have host- and workload-dependent payoffs.
``RunConfig(backend="auto")`` hands the choice to :mod:`repro.tune`, which
probes each candidate operating point on a synthetic workload of the run's
shape and caches the verdict per (host, shape) key. This walkthrough:

1. runs the probe sweep explicitly and prints the probe table — every
   candidate point with its measured cell rate, fastest first;
2. opens a ``backend="auto"`` session, streams a seeded flowcell through
   it, and shows ``summary()["tuned"]`` — the chosen point and whether it
   came from probes or the cache;
3. repeats the run to demonstrate the cache hit (second resolution costs
   ~nothing), and shows the decisions are bit-identical to pinning the
   chosen backend by hand.

Run with:  python examples/autotune_run.py
(The tuning cache lives at ~/.cache/repro/tune.json; this example points
it at a temporary file so it leaves your real cache alone. Clear a real
cache with `repro tune --clear-cache`.)
"""

from __future__ import annotations

import os
import tempfile
import time

with tempfile.TemporaryDirectory() as _scratch:
    os.environ["REPRO_TUNE_CACHE"] = os.path.join(_scratch, "tune.json")

    from repro.genomes.sequences import random_genome
    from repro.runtime import RunConfig, open_session
    from repro.sequencer.reads import ReadGenerator, ReadLengthModel, SpecimenMixture
    from repro.tune import tune_config

    def print_table(rows, columns, title):
        print(f"\n== {title} ==")
        header = " | ".join(f"{column:>22}" for column in columns)
        print(header)
        print("-" * len(header))
        for row in rows:
            print(" | ".join(f"{str(row.get(column, '')):>22}" for column in columns))

    def main() -> None:
        target = random_genome(2400, seed=7)
        config = RunConfig(
            genome=target,
            threshold=None,  # calibrated below
            prefix_samples=800,
            chunk_samples=400,
            n_channels=8,
            backend="auto",
        )

        # ---- 1. The probe sweep, explicitly --------------------------------
        outcome = tune_config(config)
        decision = outcome.decision
        print(
            f"probed {decision.n_probes} candidate(s) in {decision.probed_s:.3f}s "
            f"(budget {config.tune_budget_s:g}s)"
        )
        print(f"cache key: {outcome.key}")
        print_table(
            outcome.table(),
            ["candidate", "seconds", "cells_per_s", "effective_cells_per_s"],
            "probe table (fastest first)",
        )
        print(
            f"\nchosen point: backend={decision.backend} workers={decision.workers} "
            f"prune={decision.prune} lb_cascade={decision.lb_cascade}"
        )

        # ---- 2. A backend="auto" session end to end ------------------------
        background = random_genome(16000, seed=8)
        mixture = SpecimenMixture.two_component(
            "target", target, "background", background, 0.25
        )
        generator = ReadGenerator(
            mixture,
            length_model=ReadLengthModel(mean_bases=500, sigma=0.2),
            seed=9,
        )
        calibration = generator.generate_balanced(10)
        reads = generator.generate(40)

        with open_session(config) as session:
            session.calibrate(
                [r.signal_pa for r in calibration if r.is_target],
                [r.signal_pa for r in calibration if not r.is_target],
            )
            result = session.run(reads, target_genome=target)
            tuned = session.summary()["tuned"]
        print(
            f"\nfirst session: backend resolved to {tuned['backend']} "
            f"(cache_hit={tuned['cache_hit']}), recall={result.recall:.2f}, "
            f"ejected {result.session.n_ejected}/{result.session.n_reads} reads"
        )
        first_decisions = {
            o.read.read_id: (o.ejected, o.decision.cost if o.decision else None)
            for o in result.session.outcomes
        }

        # ---- 3. Repeat run: cache hit, identical decisions ------------------
        start = time.perf_counter()
        with open_session(config) as session:
            session.calibrate(
                [r.signal_pa for r in calibration if r.is_target],
                [r.signal_pa for r in calibration if not r.is_target],
            )
            result2 = session.run(reads, target_genome=target)
            tuned2 = session.summary()["tuned"]
        print(
            f"second session: cache_hit={tuned2['cache_hit']} "
            f"(resolution was ~free; run took {time.perf_counter() - start:.2f}s)"
        )
        second_decisions = {
            o.read.read_id: (o.ejected, o.decision.cost if o.decision else None)
            for o in result2.session.outcomes
        }
        assert second_decisions == first_decisions, "tuning must never change decisions"
        print("decision check: auto runs are bit-identical across resolutions ✓")

    main()
