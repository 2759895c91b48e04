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
 * Column 0 has no diagonal. The row is swept right to left, so rows[j-1] and
 * dwell[j-1] still hold the previous step when column j reads them.
 *
 * `penalty` is 2**30 at every panel block start and 0 elsewhere: it severs
 * the diagonal between targets with an add, which gcc vectorizes where a
 * per-column mask in the comparison is not. The caller keeps rows within
 * +-2**28 and bonus * cap below 2**28, so a penalised diagonal stays above
 * 2**28 (it never wins) and below 2**31 (it never overflows).
 *
 * The Python side (repro.core.ckernel) compiles this file on first use and
 * calls it through ctypes, which releases the GIL for the whole call.
 */
#include <stdint.h>

/* One library, three instruction sets, picked when it loads (gcc ifunc). */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define SDTW_CLONES __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#else
#define SDTW_CLONES
#endif

static inline int32_t absolute(int32_t value) { return value < 0 ? -value : value; }

SDTW_CLONES
void sdtw_advance_int32(int64_t n_lanes, int64_t n_columns, int32_t *rows, int32_t *dwell,
                        const int32_t *query, const int64_t *offsets,
                        const int32_t *reference, const int32_t *penalty, int32_t bonus,
                        int32_t cap)
{
    for (int64_t k = 0; k < n_lanes; ++k) {
        int32_t *restrict r = rows + k * n_columns;
        int32_t *restrict d = dwell + k * n_columns;
        for (int64_t i = offsets[k]; i < offsets[k + 1]; ++i) {
            const int32_t q = query[i];
            for (int64_t j = n_columns - 1; j > 0; --j) {
                const int32_t diagonal = r[j - 1] - bonus * d[j - 1] + penalty[j];
                const int32_t take = diagonal < r[j];
                const int32_t grown = d[j] + 1 < cap ? d[j] + 1 : cap;
                r[j] = (take ? diagonal : r[j]) + absolute(q - reference[j]);
                d[j] = take ? 1 : grown;
            }
            r[0] += absolute(q - reference[0]);
            d[0] = d[0] + 1 < cap ? d[0] + 1 : cap;
        }
    }
}
