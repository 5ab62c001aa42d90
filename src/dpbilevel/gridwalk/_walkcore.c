/* Compiled step kernel for the lazy Metropolis walk: mirrors
 * engine._walk_block_python step for step, so trajectories are bit-identical.
 * Returns the rows of U consumed; *fault is the NaN entry that stopped the
 * block early (its row not consumed), else -1. */
#include <math.h>
#include <stdint.h>

int64_t walk_block(const double *table, int64_t m, int64_t d,
                   const int64_t *strides, int64_t *state, int64_t *coords,
                   const double *U, int64_t rows, int64_t *fault)
{
    const int64_t two_d = 2 * d;
    int64_t s = *state;
    *fault = -1;
    for (int64_t i = 0; i < rows; i++) {
        const double *u = U + 3 * i;
        if (u[0] < 0.5) /* lazy hold */
            continue;
        int64_t j = (int64_t)(u[1] * (double)two_d);
        if (j >= two_d) /* guard the u -> index rounding edge */
            j = two_d - 1;
        int64_t axis = j >> 1, delta = (j & 1) == 0 ? 1 : -1;
        int64_t c = coords[axis] + delta;
        if (c < 0 || c >= m) /* proposal off the cube: reject */
            continue;
        int64_t nb = s + delta * strides[axis];
        double fy = table[nb], fx = table[s];
        if (isnan(fy)) {
            *fault = nb;
            rows = i;
            break;
        }
        if (fy <= fx || u[2] < exp(fx - fy)) {
            s = nb;
            coords[axis] = c;
        }
    }
    *state = s;
    return rows;
}
