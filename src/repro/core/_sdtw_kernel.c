/* The int32 sDTW wavefront: the no-reference-deletion recurrence of
 * repro.core.sdtw.sdtw_resume on the all-integer hardware data path.
 *
 * Each lane advances in place over its own ragged chunk: lane k's samples
 * are query[offsets[k] .. offsets[k + 1]) and its state is row k of `rows`
 * (DP costs) and of `dwell` (the capped dwell min(run, cap) that the match
 * bonus reads), both (n_lanes, n_columns) and C-contiguous.
 *
 * One step per sample, for every column j:
 *
 *   diagonal = rows[j-1] - bonus * dwell[j-1] + penalty[j]
 *   take     = diagonal < rows[j]
 *   rows[j]  = |sample - reference[j]| + (take ? diagonal : rows[j])
 *   dwell[j] = take ? 1 : min(dwell[j] + 1, cap)
 *
 * Column 0 has no diagonal.
 *
 * Tiles. A lane's row is cut into tiles of TILE columns, and each tile runs
 * every sample of the lane's chunk before the next tile starts, so the
 * tile's state, reference and penalty stay in L1 for the whole chunk (the
 * paper's systolic tile keeps its cells on chip the same way). The tile's
 * rows and dwell are copied into two pairs of stack buffers that take turns
 * holding the step before and the step after, so every step sweeps left to
 * right from one buffer into the other.
 *
 * Halo. Column j reads column j-1 only through its diagonal source
 * rows[j-1] - bonus * dwell[j-1] before the step. Before each step a tile
 * stores that value for its last column in halo[step], and the next tile
 * reads halo[step] as the source of its first column just before
 * overwriting it with its own. So `halo` needs one int32 per sample of the
 * longest chunk; the caller allocates it, and this file allocates nothing.
 * A row's first tile reads no halo: its left column is NO_DIAGONAL.
 *
 * Range. `penalty` is 2**30 at every panel block start and 0 elsewhere: it
 * severs the diagonal between targets with an add, which gcc vectorizes
 * where a per-column mask in the comparison is not. The caller keeps rows
 * within +-2**28 and bonus * cap below 2**28, so a diagonal source (halo
 * entries included) lies in (-2**29, 2**28], and a penalised diagonal
 * stays above 2**28 (it never wins) and at most
 * 2**28 + 2**28 + 2**30 < 2**31 (it never overflows).
 *
 * The Python side (repro.core.ckernel) compiles this file on first use and
 * calls it through ctypes, which releases the GIL for the whole call.
 */
#include <stdint.h>
#include <string.h>

/* Four buffers of TILE int32 plus a tile of reference and penalty: 24 KiB,
 * inside a 32 or 48 KiB L1d. On a 48 KiB L1d, widths of 640 and 1,536 ran
 * within 10% of 1,024, and 2,048 (48 KiB in all) about a quarter slower. */
#define TILE 1024
/* A buffer holds its tile from index LEFT, one cache line in, so the
 * stores of a step are aligned; index LEFT - 1 holds the column left of the
 * tile. */
#define LEFT 16

/* The left column of a row's first tile, with zero dwell: column 0's
 * diagonal is then 2**29 + penalty[0], above every row the range allows, so
 * column 0 never takes it. */
#define NO_DIAGONAL (1 << 29)

/* One library, three instruction sets, picked when it loads (gcc ifunc). */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define SDTW_CLONES __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#else
#define SDTW_CLONES
#endif

static inline int32_t absolute(int32_t value) { return value < 0 ? -value : value; }

/* One step of one tile, from `row`/`run` (the tile before the sample) into
 * `next_row`/`next_run`. row[-1] and run[-1] hold the column left of the
 * tile. */
static inline __attribute__((always_inline)) void
step(int64_t width, int32_t sample, const int32_t *restrict row, const int32_t *restrict run,
     int32_t *restrict next_row, int32_t *restrict next_run, const int32_t *restrict reference,
     const int32_t *restrict penalty, int32_t bonus, int32_t cap)
{
    for (int64_t j = 0; j < width; ++j) {
        const int32_t diagonal = row[j - 1] - bonus * run[j - 1] + penalty[j];
        const int32_t take = diagonal < row[j];
        const int32_t grown = run[j] + 1 < cap ? run[j] + 1 : cap;
        next_row[j] = (take ? diagonal : row[j]) + absolute(sample - reference[j]);
        next_run[j] = take ? 1 : grown;
    }
}

SDTW_CLONES
void sdtw_advance_int32(int64_t n_lanes, int64_t n_columns, int32_t *rows, int32_t *dwell,
                        const int32_t *query, const int64_t *offsets,
                        const int32_t *reference, const int32_t *penalty, int32_t bonus,
                        int32_t cap, int32_t *halo)
{
    /* The ping-pong buffers: sample i steps from [i % 2] into [(i + 1) % 2]. */
    int32_t row_buffers[2][LEFT + TILE] __attribute__((aligned(64)));
    int32_t run_buffers[2][LEFT + TILE] __attribute__((aligned(64)));
    run_buffers[0][LEFT - 1] = run_buffers[1][LEFT - 1] = 0;
    for (int64_t k = 0; k < n_lanes; ++k) {
        const int32_t *samples = query + offsets[k];
        const int64_t n_samples = offsets[k + 1] - offsets[k];
        for (int64_t start = 0; start < n_columns; start += TILE) {
            const int64_t width = n_columns - start < TILE ? n_columns - start : TILE;
            int32_t *row = rows + k * n_columns + start;
            int32_t *run = dwell + k * n_columns + start;
            memcpy(row_buffers[0] + LEFT, row, width * sizeof(int32_t));
            memcpy(run_buffers[0] + LEFT, run, width * sizeof(int32_t));
            for (int64_t i = 0; i < n_samples; ++i) {
                int32_t *now_row = row_buffers[i % 2] + LEFT;
                int32_t *now_run = run_buffers[i % 2] + LEFT;
                now_row[-1] = start == 0 ? NO_DIAGONAL : halo[i];
                halo[i] = now_row[width - 1] - bonus * now_run[width - 1];
                step(width, samples[i], now_row, now_run, row_buffers[(i + 1) % 2] + LEFT,
                     run_buffers[(i + 1) % 2] + LEFT, reference + start, penalty + start, bonus,
                     cap);
            }
            memcpy(row, row_buffers[n_samples % 2] + LEFT, width * sizeof(int32_t));
            memcpy(run, run_buffers[n_samples % 2] + LEFT, width * sizeof(int32_t));
        }
    }
}
