/* The int32 sDTW wavefront: the no-reference-deletion recurrence of
 * repro.core.sdtw.sdtw_resume on the all-integer hardware data path.
 *
 * Lanes. The call advances n_lanes rows of a resident state in place. Lane
 * k is row lanes[k] of `rows` (DP costs) and of `dwell` (the capped dwell
 * min(run, cap) that the match bonus reads), both row_stride int32 apart
 * per row; its samples are query[offsets[k] .. offsets[k + 1]). A lane with
 * restart[k] set starts from the free start (zero rows and dwell) instead of
 * its stored row, which is never read. A lane with no samples is left
 * unchanged.
 *
 * One step per sample, for every column j:
 *
 *   diagonal = rows[j-1] - bonus * dwell[j-1]
 *   take     = diagonal < rows[j]
 *   rows[j]  = |sample - reference[j]| + (take ? diagonal : rows[j])
 *   dwell[j] = take ? 1 : min(dwell[j] + 1, cap)
 *
 * Panel blocks. block_starts (sorted, starting at 0) lists where each
 * target's reference begins; column 0 and every block start take no
 * diagonal. A step runs block segment by block segment: once a segment has
 * read its last input cell, that cell is overwritten with NO_DIAGONAL and
 * zero dwell, which the next segment's first column then reads as its
 * diagonal source.
 *
 * Tiles. A lane's row is cut into tiles of TILE columns, and each tile runs
 * every sample of the lane's chunk before the next tile starts, so the
 * tile's state and reference stay in L1 for the whole chunk (the paper's
 * systolic tile keeps its cells on chip the same way). The tile's rows,
 * dwell and reference are copied into stack buffers, the rows and dwell
 * into two pairs that take turns holding the step before and the step
 * after, so every step sweeps left to right from one buffer into the
 * other.
 *
 * Halo. Column j reads column j-1 only through its diagonal source
 * rows[j-1] - bonus * dwell[j-1] before the step. Before each step a tile
 * stores that value for its last column in halo[step], and the next tile
 * reads halo[step] as the source of its first column just before
 * overwriting it with its own. So `halo` needs one int32 per sample of the
 * longest chunk; the caller allocates it, and this file allocates nothing.
 *
 * Reduce. After a tile's last sample, while its final row is still in L1,
 * the kernel folds it into lane k's per-block minimum costs[k][b] and its
 * block-local first argmin ends[k][b] (ties go to the first column), and
 * into magnitudes[k] = max |row| over the whole stored row. A lane without
 * samples is reduced from its stored row.
 *
 * Range. The caller keeps stored rows within +-2**28, the growth of this
 * call's costs below 2**28 - max |row|, and bonus * cap below 2**28. A
 * diagonal source (halo entries included) then lies in (-2**29, 2**28],
 * NO_DIAGONAL = 2**29 lies above every cost (it never wins), and no sum
 * leaves int32.
 *
 * The Python side (repro.core.ckernel) compiles this file on first use and
 * calls it through ctypes, which releases the GIL for the whole call.
 */
#include <stdint.h>
#include <string.h>

/* Four buffers of TILE int32 plus a tile of reference: about 21 KiB, inside
 * a 32 or 48 KiB L1d. On a 48 KiB L1d, widths of 640 and 1,536 ran within
 * 10% of 1,024, and 2,048 about a quarter slower. */
#define TILE 1024
/* A buffer holds its tile from index LEFT, one cache line in, so the
 * stores of a step are aligned; index LEFT - 1 holds the column left of the
 * tile. */
#define LEFT 16
/* Steps run whole groups of VECTOR columns, so a segment needs no scalar
 * remainder loop: the columns a group computes past its segment's end are
 * recomputed by the next segment, or lie past the tile's last column and
 * are never stored. The VECTOR cells past that column are zeroed when the
 * tile loads, so they step like extra free-start columns of the lane,
 * inside the call's range. */
#define VECTOR 16

/* The diagonal source left of column 0 and of every block start: above
 * every cost the range allows, so the column never takes it. */
#define NO_DIAGONAL (1 << 29)

/* One library, three instruction sets, picked when it loads (gcc ifunc). */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define SDTW_CLONES __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#else
#define SDTW_CLONES
#endif

#define INLINE static inline __attribute__((always_inline))

INLINE int32_t absolute(int32_t value) { return value < 0 ? -value : value; }

/* One step of columns [0, width) of a segment, rounded up to whole groups
 * of VECTOR, from `row`/`run` (before the sample) into `next_row`/`next_run`.
 * row[-1] and run[-1] hold the column left of the segment. */
INLINE void step(int64_t width, int32_t sample, const int32_t *restrict row,
                 const int32_t *restrict run, int32_t *restrict next_row,
                 int32_t *restrict next_run, const int32_t *restrict reference, int32_t bonus,
                 int32_t cap)
{
    for (int64_t group = 0; group < width; group += VECTOR) {
        for (int64_t j = group; j < group + VECTOR; ++j) {
            const int32_t diagonal = row[j - 1] - bonus * run[j - 1];
            const int32_t take = diagonal < row[j];
            const int32_t grown = run[j] + 1 < cap ? run[j] + 1 : cap;
            next_row[j] = (take ? diagonal : row[j]) + absolute(sample - reference[j]);
            next_run[j] = take ? 1 : grown;
        }
    }
}

/* The smallest and largest of values[0 .. n), in one vectorized pass. */
INLINE void extrema(const int32_t *restrict values, int64_t n, int32_t *low, int32_t *high)
{
    int32_t smallest = INT32_MAX, largest = INT32_MIN;
    for (int64_t j = 0; j < n; ++j) {
        smallest = values[j] < smallest ? values[j] : smallest;
        largest = values[j] > largest ? values[j] : largest;
    }
    *low = smallest;
    *high = largest;
}

/* The first j with values[j] == value, which holds for some j < n <= TILE.
 * A branch-free minimum over the matching indices, so it vectorizes where
 * an early exit would not. */
INLINE int32_t first_index(const int32_t *restrict values, int32_t n, int32_t value)
{
    int32_t first = n;
    for (int32_t j = 0; j < n; ++j) {
        const int32_t candidate = values[j] == value ? j : n;
        first = candidate < first ? candidate : first;
    }
    return first;
}

SDTW_CLONES
void sdtw_advance_int32(int64_t n_lanes, const int64_t *lanes, const _Bool *restart,
                        int64_t n_columns, int64_t row_stride, int32_t *rows, int32_t *dwell,
                        const int32_t *query, const int64_t *offsets, const int32_t *reference,
                        int64_t n_blocks, const int64_t *block_starts, int32_t bonus, int32_t cap,
                        int32_t *halo, int64_t *costs, int64_t *ends, int64_t *magnitudes)
{
    /* The ping-pong buffers: sample i steps from [i % 2] into [(i + 1) % 2];
     * the tile's reference, padded like them. */
    int32_t row_buffers[2][LEFT + TILE + VECTOR] __attribute__((aligned(64)));
    int32_t run_buffers[2][LEFT + TILE + VECTOR] __attribute__((aligned(64)));
    int32_t tile_reference[TILE + VECTOR] __attribute__((aligned(64))) = {0};
    run_buffers[0][LEFT - 1] = run_buffers[1][LEFT - 1] = 0;
    for (int64_t k = 0; k < n_lanes; ++k) {
        const int32_t *samples = query + offsets[k];
        const int64_t n_samples = offsets[k + 1] - offsets[k];
        int64_t *lane_costs = costs + k * n_blocks;
        int64_t *lane_ends = ends + k * n_blocks;
        int32_t lane_low = INT32_MAX, lane_high = INT32_MIN;
        for (int64_t b = 0; b < n_blocks; ++b)
            lane_costs[b] = INT64_MAX;
        /* first: the block holding the tile's first column; the blocks
         * starting inside the tile are first + 1 .. last - 1. */
        int64_t first = 0;
        for (int64_t start = 0; start < n_columns; start += TILE) {
            const int64_t width = n_columns - start < TILE ? n_columns - start : TILE;
            while (first + 1 < n_blocks && block_starts[first + 1] <= start)
                ++first;
            int64_t last = first + 1;
            while (last < n_blocks && block_starts[last] < start + width)
                ++last;
            const int severed = block_starts[first] == start;
            int32_t *row = rows + lanes[k] * row_stride + start;
            int32_t *run = dwell + lanes[k] * row_stride + start;
            if (n_samples)
                memcpy(tile_reference, reference + start, width * sizeof(int32_t));
            if (n_samples && restart[k]) {
                memset(row_buffers[0] + LEFT, 0, width * sizeof(int32_t));
                memset(run_buffers[0] + LEFT, 0, width * sizeof(int32_t));
            } else if (n_samples) {
                memcpy(row_buffers[0] + LEFT, row, width * sizeof(int32_t));
                memcpy(run_buffers[0] + LEFT, run, width * sizeof(int32_t));
            }
            if (n_samples) {
                memset(row_buffers[0] + LEFT + width, 0, VECTOR * sizeof(int32_t));
                memset(run_buffers[0] + LEFT + width, 0, VECTOR * sizeof(int32_t));
            }
            for (int64_t i = 0; i < n_samples; ++i) {
                int32_t *now_row = row_buffers[i % 2] + LEFT;
                int32_t *now_run = run_buffers[i % 2] + LEFT;
                int32_t *next_row = row_buffers[(i + 1) % 2] + LEFT;
                int32_t *next_run = run_buffers[(i + 1) % 2] + LEFT;
                now_row[-1] = severed ? NO_DIAGONAL : halo[i];
                halo[i] = now_row[width - 1] - bonus * now_run[width - 1];
                int64_t from = 0;
                for (int64_t b = first + 1; b < last; ++b) {
                    const int64_t to = block_starts[b] - start;
                    step(to - from, samples[i], now_row + from, now_run + from,
                         next_row + from, next_run + from, tile_reference + from, bonus, cap);
                    now_row[to - 1] = NO_DIAGONAL;
                    now_run[to - 1] = 0;
                    from = to;
                }
                step(width - from, samples[i], now_row + from, now_run + from, next_row + from,
                     next_run + from, tile_reference + from, bonus, cap);
            }
            const int32_t *final = n_samples ? row_buffers[n_samples % 2] + LEFT : row;
            int64_t from = 0;
            for (int64_t b = first; b < last; ++b) {
                const int64_t to = b + 1 < last ? block_starts[b + 1] - start : width;
                int32_t low, high;
                extrema(final + from, to - from, &low, &high);
                if (low < lane_costs[b]) {
                    lane_costs[b] = low;
                    lane_ends[b] = start + from
                                   + first_index(final + from, (int32_t)(to - from), low)
                                   - block_starts[b];
                }
                lane_low = low < lane_low ? low : lane_low;
                lane_high = high > lane_high ? high : lane_high;
                from = to;
            }
            if (n_samples) {
                memcpy(row, final, width * sizeof(int32_t));
                memcpy(run, run_buffers[n_samples % 2] + LEFT, width * sizeof(int32_t));
            }
        }
        magnitudes[k] = -(int64_t)lane_low > lane_high ? -(int64_t)lane_low : lane_high;
    }
}
