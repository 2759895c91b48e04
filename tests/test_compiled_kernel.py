"""Tests for the compiled int32 sDTW kernel and the state it keeps.

The contract under test: on the hardware data path the compiled C kernel
runs every call whose values stay in its range, the numpy backend keeps
its lane state as int32 and widens it to int64 for good when a call leaves
that range, and with no compiler the numpy oracle makes the same decisions.
"""

import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.core.sdtw as sdtw_module
from repro.batch.backends import NumpyBackend
from repro.batch.classifier import BatchSquiggleClassifier
from repro.batch.engine import BatchSDTWEngine
from repro.core import ckernel
from repro.core.config import SDTWConfig
from repro.core.sdtw import (
    AdvanceStats,
    BatchSDTWState,
    SDTWState,
    reduce_block_minima,
    sdtw_resume,
    sdtw_resume_batch,
)
from repro.runtime import RunConfig, open_session

# The guard-crossing read of test_batch_sdtw: kernel-scale samples of about
# +-3e6 in 20-sample chunks leave the int32 kernel's range after a few chunks.
_GUARD_RNG = np.random.default_rng(0)
GUARD_REFERENCE = _GUARD_RNG.integers(-3_000_000, 3_000_001, 40)
GUARD_READ = _GUARD_RNG.integers(-3_000_000, 3_000_001, 200)


N_LANES = 8
N_CROSSING = 4


def _guard_rounds():
    """Ten rounds over eight lanes.

    Lanes 0-3 stream rotations of the guard-crossing read, 20 samples a
    round, so their lane groups leave the int32 kernel's range in the same
    round and race to widen the storage. Lanes 4-7 take one sample a round,
    which keeps them in range all run, so with 2, 3 or 8 threads the last
    group still runs the kernel and writes int32 rows in that round.
    """
    reads = [np.roll(GUARD_READ, 20 * lane) for lane in range(N_CROSSING)]
    return [
        [read[index * 20 : (index + 1) * 20] for read in reads]
        + [GUARD_READ[lane + index : lane + index + 1] for lane in range(N_CROSSING, N_LANES)]
        for index in range(10)
    ]


def _read_only(monkeypatch, directory):
    """Make ``directory`` read-only, also to a root user, who ignores mode
    bits (the loader asks ``os.access``)."""
    directory.chmod(0o555)
    real_access = os.access

    def access(path, mode, *args, **kwargs):
        if mode & os.W_OK and Path(path) == directory:
            return False
        return real_access(path, mode, *args, **kwargs)

    monkeypatch.setattr(os, "access", access)


@pytest.fixture
def kernel_copy(monkeypatch, tmp_path):
    """The kernel source copied into its own directory, with a fresh loader."""
    source = tmp_path / "package" / ckernel.SOURCE.name
    source.parent.mkdir()
    source.write_bytes(ckernel.SOURCE.read_bytes())
    monkeypatch.setattr(ckernel, "SOURCE", source)
    monkeypatch.setattr(ckernel, "_LOADER", ckernel._Loader())
    yield source
    cache = source.parent / "__pycache__"
    if cache.exists():
        cache.chmod(0o755)  # so the temporary directory can be removed


# The kernel's column tile (TILE in _sdtw_kernel.c).
TILE = 1024
BONUS_CONFIGS = {
    0: SDTWConfig(
        distance="absolute", allow_reference_deletions=False, quantize=True,
        match_bonus=0.0, match_bonus_cap=10,
    ),
    10: SDTWConfig.hardware(),
}


@st.composite
def tile_edge_rounds(draw):
    """One round whose columns, panel blocks and lanes sit on tile edges.

    Column counts one short of, at and one past a tile (and past two);
    panel block starts at a tile edge and one column either side of it;
    lanes with no sample, one sample and ragged chunks, fresh or resumed
    from stored rows. With ``near_guard`` the samples and reference are
    about 2**20 and the stored rows are as large as the int32 range guard
    lets this round take the compiled kernel.
    """
    n_columns = draw(st.sampled_from([1, TILE - 1, TILE, TILE + 1, 2 * TILE + 1]))
    edges = [c for c in (TILE - 1, TILE, TILE + 1, 2 * TILE - 1, 2 * TILE) if c < n_columns]
    inner = draw(st.lists(st.sampled_from(edges), unique=True, max_size=3)) if edges else []
    block_starts = draw(st.sampled_from([None, [0, *sorted(inner)]]))
    lengths = draw(st.lists(st.sampled_from([0, 1, 2, 5, 17, 40]), min_size=1, max_size=6))
    fresh = draw(st.lists(st.booleans(), min_size=len(lengths), max_size=len(lengths)))
    return dict(
        n_columns=n_columns,
        block_starts=block_starts,
        lengths=lengths,
        fresh=fresh,
        bonus=draw(st.sampled_from(sorted(BONUS_CONFIGS))),
        near_guard=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _tile_edge_inputs(case):
    """Reference, chunks and the stored int32 state of one tile-edge round."""
    rng = np.random.default_rng(case["seed"])
    config = BONUS_CONFIGS[case["bonus"]]
    bound = 2**20 if case["near_guard"] else 127
    reference = rng.integers(-bound, bound + 1, case["n_columns"])
    chunks = [rng.integers(-bound, bound + 1, n) for n in case["lengths"]]
    n_lanes = len(chunks)
    # The compiled kernel runs while stored rows plus this round's growth
    # stay below 2**28 (repro.core.sdtw._int32_query).
    growth = (2 * bound + case["bonus"] + 1) * max(case["lengths"])
    rows_bound = 2**28 - 1 - growth if case["near_guard"] else 5_000
    rows = rng.integers(-rows_bound, rows_bound + 1, (n_lanes, case["n_columns"]))
    rows[:, rng.integers(case["n_columns"])] = rows_bound
    runs = rng.integers(0, config.match_bonus_cap + 1, rows.shape)
    processed = np.where(case["fresh"], 0, rng.integers(1, 500, n_lanes))
    state = BatchSDTWState(rows.astype(np.int32), runs.astype(np.int32), processed)
    return config, reference, chunks, state


def _raw_call(function, rows, dwell, query, reference, config):
    """One lane (row 0, not restarted, one block) through the raw C ABI."""
    query = np.asarray(query, dtype=np.int32)
    costs = np.empty((1, 1), dtype=np.int64)
    function(
        1, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.bool_),
        reference.size, rows.shape[1], rows, dwell,
        query, np.array([0, query.size], dtype=np.int64), reference,
        1, np.zeros(1, dtype=np.int64), int(config.match_bonus), config.match_bonus_cap,
        np.empty(query.size, dtype=np.int32), costs, np.empty_like(costs),
        np.empty(1, dtype=np.int64),
    )


def _check_kernel_call(chunks, reference, rows, dwell, lanes, restart, starts, config=None):
    """Run the compiled kernel over rows ``lanes`` of ``rows``/``dwell`` in
    place and check every listed lane against sdtw_resume run per panel
    block, its reductions against reduce_block_minima, and every unlisted
    row and dwell for bytes unchanged."""
    config = config if config is not None else SDTWConfig.hardware()
    cap = config.match_bonus_cap
    lanes = np.asarray(lanes, dtype=np.int64)
    restart = np.asarray(restart, dtype=np.bool_)
    starts = np.asarray(starts, dtype=np.int64)
    edges = [*starts.tolist(), reference.size]
    expected_rows, expected_dwell = [], []
    for chunk, lane, fresh in zip(chunks, lanes, restart):
        if not chunk.size:
            expected_rows.append(rows[lane].astype(np.int64))
            expected_dwell.append(dwell[lane].astype(np.int64))
            continue
        row_parts, dwell_parts = [], []
        for lo, hi in zip(edges, edges[1:]):
            before = None if fresh else SDTWState(rows[lane, lo:hi], dwell[lane, lo:hi], 1)
            scalar = sdtw_resume(chunk, reference[lo:hi], config, state=before)
            row_parts.append(scalar.row)
            dwell_parts.append(np.minimum(scalar.run, cap))
        expected_rows.append(np.concatenate(row_parts))
        expected_dwell.append(np.concatenate(dwell_parts))
    expected_rows = np.array(expected_rows)
    unlisted = np.setdiff1d(np.arange(rows.shape[0]), lanes)
    untouched = rows[unlisted].tobytes(), dwell[unlisted].tobytes()

    lengths = np.array([chunk.size for chunk in chunks], dtype=np.int64)
    costs, ends, magnitudes = sdtw_module._advance_batch_int32(
        rows, dwell, lanes, restart, np.concatenate(chunks).astype(np.int32), lengths,
        reference.astype(np.int32), starts, int(config.match_bonus), cap,
    )
    assert np.array_equal(rows[lanes], expected_rows)
    assert np.array_equal(dwell[lanes], np.array(expected_dwell))
    expected_costs, expected_ends = reduce_block_minima(expected_rows, starts)
    assert np.array_equal(costs, expected_costs)
    assert np.array_equal(ends, expected_ends)
    assert np.array_equal(magnitudes, np.abs(expected_rows).max(axis=1))
    assert (rows[unlisted].tobytes(), dwell[unlisted].tobytes()) == untouched


def _resident(rng, n_lanes, n_columns, config=None):
    """Stored int32 rows and capped dwell of resumed lanes."""
    cap = (config if config is not None else SDTWConfig.hardware()).match_bonus_cap
    rows = rng.integers(-5_000, 5_000, (n_lanes, n_columns)).astype(np.int32)
    dwell = rng.integers(0, cap + 1, (n_lanes, n_columns)).astype(np.int32)
    return rows, dwell


class TestKernelEdges:
    """The C entry point itself: lanes by index, restarts, block segments
    and the fused per-block reduce, against sdtw_resume and
    reduce_block_minima."""

    @pytest.mark.parametrize("block_start", [TILE - 1, TILE, TILE + 1])
    def test_block_start_at_a_tile_edge(self, rng, block_start):
        reference = rng.integers(-127, 128, 2 * TILE + 5)
        rows, dwell = _resident(rng, 3, reference.size)
        chunks = [rng.integers(-127, 128, n) for n in (1, 17, 0)]
        _check_kernel_call(
            chunks, reference, rows, dwell, [0, 1, 2], [False, False, False], [0, block_start]
        )

    def test_three_hundred_blocks_inside_one_tile(self, rng):
        reference = rng.integers(-127, 128, TILE)
        inner = np.sort(rng.choice(np.arange(1, TILE), size=299, replace=False))
        rows, dwell = _resident(rng, 2, TILE)
        chunks = [rng.integers(-127, 128, n) for n in (9, 3)]
        _check_kernel_call(
            chunks, reference, rows, dwell, [0, 1], [False, True], [0, *inner.tolist()]
        )

    def test_argmin_ties_go_to_the_first_column(self, rng):
        """Constant samples over a constant reference leave every column
        past a block's first equal, across tile edges; a lane without
        samples is reduced from its stored row, whose minimum repeats in a
        later tile."""
        reference = np.full(2 * TILE + 7, 40)
        chunks = [np.full(6, 25), np.zeros(0, dtype=np.int64)]
        rows, dwell = _resident(rng, 2, reference.size)
        rows[1] = 9
        rows[1, [5, TILE + 3, 2 * TILE]] = -3
        _check_kernel_call(
            chunks, reference, rows, dwell, [0, 1], [True, False], [0, 700, TILE + 200]
        )

    def test_listed_lanes_of_a_resident_state(self, rng):
        """Lanes [7, 2, 5] of ten advance in place; the other seven rows
        keep their bytes."""
        reference = rng.integers(-127, 128, TILE + 300)
        rows, dwell = _resident(rng, 10, reference.size)
        chunks = [rng.integers(-127, 128, n) for n in (12, 0, 5)]
        _check_kernel_call(
            chunks, reference, rows, dwell, [7, 2, 5], [False, False, False], [0, 333]
        )

    def test_restarted_lane_ignores_its_stale_rows(self, rng):
        """A restarted lane starts free, whatever its stored rows and dwell
        hold, even values the range guard would refuse."""
        reference = rng.integers(-127, 128, TILE + 40)
        rows, dwell = _resident(rng, 2, reference.size)
        rows[0] = 2**30
        dwell[0] = 7
        chunks = [rng.integers(-127, 128, n) for n in (8, 8)]
        _check_kernel_call(chunks, reference, rows, dwell, [0, 1], [True, False], [0])
        assert not np.array_equal(rows[0], np.full(reference.size, 2**30))


class TestTileEdges:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=tile_edge_rounds())
    @example(case=dict(
        n_columns=2 * TILE + 1, block_starts=[0, TILE - 1, TILE, TILE + 1],
        lengths=[0, 1, 17, 40], fresh=[True, False, True, False], bonus=10,
        near_guard=True, seed=1,
    ))
    @example(case=dict(
        n_columns=2 * TILE + 1, block_starts=None, lengths=[40, 0, 5],
        fresh=[False, False, True], bonus=0, near_guard=True, seed=2,
    ))
    def test_tiles_match_the_oracles_bit_for_bit(self, case):
        """Rows and capped dwell from the tiled C kernel equal the numpy
        oracle wavefront's, each lane's equal per-block sdtw_resume, and
        the numpy backend on two threads returns the same state."""
        config, reference, chunks, state = _tile_edge_inputs(case)
        cap = config.match_bonus_cap
        starts = case["block_starts"]
        advances = any(chunk.size for chunk in chunks)

        stats = AdvanceStats()
        compiled = sdtw_resume_batch(
            chunks, reference, config, state=state, block_starts=starts, stats=stats
        )
        assert (stats.c_calls, stats.generic_calls) == (int(advances), 0)
        assert compiled.rows.dtype == np.int32

        stats = AdvanceStats()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ckernel, "load", lambda: None)
            generic = sdtw_resume_batch(
                chunks, reference, config, state=state, block_starts=starts, stats=stats
            )
        assert (stats.c_calls, stats.generic_calls) == (0, int(advances))
        assert np.array_equal(compiled.rows, generic.rows)
        assert np.array_equal(np.minimum(compiled.runs, cap), np.minimum(generic.runs, cap))

        edges = [*(starts or [0]), case["n_columns"]]
        for lane, chunk in enumerate(chunks):
            if not chunk.size:
                continue
            for lo, hi in zip(edges, edges[1:]):
                before = None
                if state.samples_processed[lane]:
                    before = SDTWState(
                        row=state.rows[lane, lo:hi].astype(np.int64),
                        run=state.runs[lane, lo:hi].astype(np.int64),
                        samples_processed=int(state.samples_processed[lane]),
                    )
                scalar = sdtw_resume(chunk, reference[lo:hi], config, state=before)
                assert np.array_equal(compiled.rows[lane, lo:hi], scalar.row)
                assert np.array_equal(
                    np.minimum(compiled.runs[lane, lo:hi], cap), np.minimum(scalar.run, cap)
                )

        lanes = np.arange(len(chunks))
        backend = NumpyBackend(
            reference, config, capacity=len(chunks), block_starts=starts, workers=2
        )
        try:
            backend.scatter(lanes, state)
            backend.advance(lanes, chunks)
            threaded = backend.gather(lanes)
        finally:
            backend.close()
        assert backend.stats.generic_calls == 0
        assert np.array_equal(threaded.samples_processed, compiled.samples_processed)
        assert np.array_equal(threaded.rows, compiled.rows)
        assert np.array_equal(np.minimum(threaded.runs, cap), np.minimum(compiled.runs, cap))


class TestCompiledKernel:
    def test_compiled_kernel_runs_the_hardware_config(self, rng):
        reference = rng.integers(-127, 128, 50)
        queries = [rng.integers(-127, 128, n) for n in (30, 12)]
        with BatchSDTWEngine(reference, SDTWConfig.hardware()) as engine:
            snapshots = engine.step(list(zip("ab", queries)))
            stats = engine.backend.stats
            assert (stats.c_calls, stats.generic_calls) == (1, 0)
            assert engine.backend.gather(np.arange(2)).rows.dtype == np.int32
            for key, query in zip("ab", queries):
                assert snapshots[key].cost == sdtw_resume(query, reference).cost
        assert ckernel.loaded()

    def test_bonus_free_config_returns_capped_dwell(self, rng):
        """Without a bonus the kernel still returns min(run, cap), restarting
        from zero dwell for a lane that has processed no samples."""
        config = SDTWConfig(
            distance="absolute", allow_reference_deletions=False, quantize=True,
            match_bonus=0.0, match_bonus_cap=4,
        )
        reference = rng.integers(-127, 128, 30)
        first = [rng.integers(-127, 128, n) for n in (9, 5)]
        second = [rng.integers(-127, 128, n) for n in (6, 7)]
        state = sdtw_resume_batch(first, reference, config)
        # Lane 1 restarts with the dwell of its previous read still stored.
        restarted = BatchSDTWState(
            state.rows, state.runs, np.array([state.samples_processed[0], 0])
        )
        stats = AdvanceStats()
        state = sdtw_resume_batch(second, reference, config, state=restarted, stats=stats)
        assert (stats.c_calls, stats.generic_calls) == (1, 0)
        expected = [
            sdtw_resume(second[0], reference, config, state=sdtw_resume(first[0], reference, config)),
            sdtw_resume(second[1], reference, config),
        ]
        for lane, scalar in enumerate(expected):
            assert np.array_equal(state.rows[lane], scalar.row)
            assert np.array_equal(np.minimum(state.runs[lane], 4), np.minimum(scalar.run, 4))

    def test_column_zero_takes_no_diagonal_without_a_penalty(self, rng):
        """The kernel severs column 0's diagonal itself, with no penalty to
        add: a resumed lane called through the raw ABI gets sdtw_resume's
        row."""
        config = SDTWConfig.hardware()
        reference = rng.integers(-127, 128, TILE + 3).astype(np.int32)
        first, second = rng.integers(-127, 128, 9), rng.integers(-127, 128, 6)
        scalar = sdtw_resume(first, reference, config)
        rows = scalar.row.astype(np.int32)[None, :]
        dwell = np.minimum(scalar.run, config.match_bonus_cap).astype(np.int32)[None, :]
        _raw_call(ckernel.load(), rows, dwell, second, reference, config)
        assert np.array_equal(rows[0], sdtw_resume(second, reference, config, state=scalar).row)

    @pytest.mark.parametrize("way", ["compiled", "fallback", "backend", "backend-2-threads"])
    def test_fresh_lane_without_samples_does_not_change(self, way, rng, monkeypatch):
        """A lane that gets no samples keeps its stored rows, fresh or not,
        on the C kernel and the oracle alike and however the lanes are split
        over threads; a fresh lane that gets samples starts free."""
        config = SDTWConfig.hardware()
        cap = config.match_bonus_cap
        reference = rng.integers(-127, 128, 30)
        chunks = [rng.integers(-127, 128, 1), np.zeros(0, dtype=np.int64)]
        lanes = np.arange(2)
        state = BatchSDTWState(
            rows=np.array([[3_000] * 30, [5_000] * 30], dtype=np.int32),
            runs=np.full((2, 30), 4, dtype=np.int32),
            samples_processed=np.zeros(2, dtype=np.int64),
        )
        if way == "fallback":
            monkeypatch.setattr(ckernel, "load", lambda: None)
        if way.startswith("backend"):
            backend = NumpyBackend(
                reference, config, capacity=2, workers=2 if way == "backend-2-threads" else None
            )
            try:
                backend.scatter(lanes, state)
                backend.advance(lanes, chunks)
                advanced, stats = backend.gather(lanes), backend.stats
            finally:
                backend.close()
        else:
            stats = AdvanceStats()
            advanced = sdtw_resume_batch(chunks, reference, config, state=state, stats=stats)
        assert (stats.c_calls, stats.generic_calls) == ((0, 1) if way == "fallback" else (1, 0))
        assert np.array_equal(advanced.samples_processed, [1, 0])
        assert np.array_equal(advanced.rows[1], np.full(30, 5_000))
        started = sdtw_resume(chunks[0], reference, config)
        assert np.array_equal(advanced.rows[0], started.row)
        assert np.array_equal(np.minimum(advanced.runs[0], cap), np.minimum(started.run, cap))

    def test_read_only_cache_loads_the_cached_library(self, monkeypatch, kernel_copy):
        assert ckernel.load() is not None  # builds into __pycache__ beside the copy
        cache = kernel_copy.parent / "__pycache__"
        built = sorted(cache.iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"
        _read_only(monkeypatch, cache)

        def no_compile(*args):
            raise AssertionError("a cached library was compiled again")

        monkeypatch.setattr(ckernel, "_compile", no_compile)
        monkeypatch.setattr(ckernel, "_LOADER", ckernel._Loader())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ckernel.load() is not None
        assert sorted(cache.iterdir()) == built

    def test_read_only_cache_builds_privately_and_removes_the_build(
        self, monkeypatch, tmp_path, kernel_copy
    ):
        cache = kernel_copy.parent / "__pycache__"
        cache.mkdir()
        _read_only(monkeypatch, cache)
        private_root = tmp_path / "tmp"
        private_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(private_root))
        function = ckernel.load()
        assert function is not None
        assert list(private_root.iterdir()) == [] and list(cache.iterdir()) == []

        # The loaded kernel outlives its file.
        config = SDTWConfig.hardware()
        reference = np.array([3, -2, 7, 0, 5], dtype=np.int32)
        query = np.array([2, 7, -1, 4], dtype=np.int32)
        rows = np.zeros((1, reference.size), dtype=np.int32)
        dwell = np.zeros_like(rows)
        _raw_call(function, rows, dwell, query, reference, config)
        assert np.array_equal(rows[0], sdtw_resume(query, reference, config).row)

    @pytest.mark.parametrize(
        "workers", [None, 2, 3, 8], ids=["1-thread", "2-workers", "3-workers", "8-workers"]
    )
    def test_guard_crossing_widens_storage_once(self, workers):
        """Rows and capped runs match sdtw_resume after every round while
        the storage widens from int32 to int64, also when several thread
        groups widen it at once and another writes int32 rows (8 groups on
        fewer cores, with a short switch interval: a lost write breaks the
        row check). Stored dwell is the capped dwell on every path, before
        and after widening."""
        config = SDTWConfig.hardware()
        cap = config.match_bonus_cap
        lanes = np.arange(N_LANES)
        backend = NumpyBackend(GUARD_REFERENCE, config, capacity=N_LANES, workers=workers)
        scalar = [None] * N_LANES
        dtypes, calls = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for chunks in _guard_rounds():
                backend.advance(lanes, chunks)
                state = backend.gather(lanes)
                dtypes.append(state.rows.dtype)
                # What summary()["kernel"]["dtype"] reports.
                assert backend.dtype == str(state.rows.dtype)
                calls.append((backend.stats.c_calls, backend.stats.generic_calls))
                assert state.runs.dtype == state.rows.dtype
                for lane, chunk in enumerate(chunks):
                    if chunk.size:
                        scalar[lane] = sdtw_resume(
                            chunk, GUARD_REFERENCE, config, state=scalar[lane]
                        )
                    if scalar[lane] is None:
                        continue
                    assert np.array_equal(state.rows[lane], scalar[lane].row)
                    assert np.array_equal(state.runs[lane], np.minimum(scalar[lane].run, cap))
                    assert state.samples_processed[lane] == scalar[lane].samples_processed
        finally:
            sys.setswitchinterval(interval)
            backend.close()
        assert dtypes[0] == np.int32 and dtypes[-1] == np.int64
        # Once wide, never narrowed again.
        first_wide = dtypes.index(np.int64)
        assert all(dtype == np.int64 for dtype in dtypes[first_wide:])
        (c_before, generic_before), (c_after, generic_after) = calls[
            first_wide - 1 : first_wide + 1
        ]
        assert generic_after > generic_before
        if workers is not None:
            # In the widening round the crossing lanes' groups ran the oracle
            # while the last group ran the kernel and wrote int32 storage.
            assert c_after > c_before

    def test_without_a_compiler_the_oracle_decides_identically(
        self, monkeypatch, reference_squiggle, target_genome, target_signals,
        nontarget_signals, balanced_reads,
    ):
        threshold = BatchSquiggleClassifier(
            reference_squiggle, prefix_samples=800
        ).calibrate(target_signals, nontarget_signals, chunk_samples=400)
        config = RunConfig(
            reference=reference_squiggle,
            threshold=threshold,
            prefix_samples=800,
            chunk_samples=400,
            n_channels=8,
        )

        def run():
            with open_session(config) as session:
                result = session.run(balanced_reads, target_genome=target_genome)
                summary = session.summary()
            decisions = {
                outcome.read.read_id: (
                    outcome.ejected,
                    outcome.decision.cost if outcome.decision else None,
                    outcome.decision.end_position if outcome.decision else None,
                )
                for outcome in result.session.outcomes
            }
            return decisions, summary["kernel"]

        compiled, compiled_kernel = run()
        assert compiled_kernel["compiled"] and compiled_kernel["c_calls"] > 0
        assert compiled_kernel["generic_calls"] == 0
        assert compiled_kernel["dtype"] == "int32"

        monkeypatch.setattr(ckernel, "COMPILER", "repro-test-no-such-compiler")
        monkeypatch.setattr(ckernel, "_LOADER", ckernel._Loader())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fallback, fallback_kernel = run()
        runtime_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime_warnings) == 1
        assert "repro-test-no-such-compiler" in str(runtime_warnings[0].message)
        assert fallback == compiled
        assert fallback_kernel["compiled"] is False
        assert fallback_kernel["c_calls"] == 0 and fallback_kernel["generic_calls"] > 0
        # The oracle's first round widened the storage for good.
        assert fallback_kernel["dtype"] == "int64"
