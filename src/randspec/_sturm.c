/* Sturm negative-pivot counts of shifted symmetric tridiagonal matrices.

   Lane l sweeps the diagonal row drow[l] and the coupling row orow[l] at the
   shift shifts[l] and stores #{pivots < 0} in counts[l]. The pivots are

       d_0 = a_0 - s,   d_k = (a_k - s) - b_k / d_{k-1},   b_k = o_{k-1} * o_{k-1},

   each clamped to +-TINY when |d| < TINY, keeping its sign (zeros of either
   sign go to +TINY, NaN passes through). These are the IEEE operations of the
   numpy sweep in eigensolve.py, in the same order, so both give the same
   counts; build without -ffast-math and with -ffp-contract=off.

   WIDTH lanes run interleaved, so the divides of different lanes overlap; a
   last partial group repeats its final lane and stores only the real ones. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define TINY 1e-300
#define WIDTH 8

/* Returns the number of NaN shifts; when it is not 0 nothing is swept.
   drow or orow may be NULL: every lane then reads row 0. */
int64_t sturm_counts(const double *diag, const double *off, ptrdiff_t size,
                     const int64_t *drow, const int64_t *orow,
                     const double *shifts, ptrdiff_t lanes, int64_t *counts)
{
    int64_t nan_shifts = 0;
    for (ptrdiff_t l = 0; l < lanes; l++)
        nan_shifts += shifts[l] != shifts[l];
    if (nan_shifts)
        return nan_shifts;
    for (ptrdiff_t l0 = 0; l0 < lanes; l0 += WIDTH) {
        const double *a[WIDTH], *o[WIDTH];
        double s[WIDTH], d[WIDTH];
        int64_t c[WIDTH];
        for (int j = 0; j < WIDTH; j++) {
            ptrdiff_t l = l0 + j < lanes ? l0 + j : lanes - 1;
            a[j] = diag + (drow ? drow[l] : 0) * size;
            o[j] = off + (orow ? orow[l] : 0) * (size - 1);
            s[j] = shifts[l];
            d[j] = a[j][0] - s[j];
            c[j] = d[j] < 0.0;
            if (fabs(d[j]) < TINY)
                d[j] = d[j] < 0.0 ? -TINY : TINY;
        }
        for (ptrdiff_t k = 1; k < size; k++) {
#pragma GCC unroll 8
            for (int j = 0; j < WIDTH; j++) {
                double b = o[j][k - 1] * o[j][k - 1];
                d[j] = (a[j][k] - s[j]) - b / d[j];
                c[j] += d[j] < 0.0;
                if (fabs(d[j]) < TINY)
                    d[j] = d[j] < 0.0 ? -TINY : TINY;
            }
        }
        for (int j = 0; j < WIDTH && l0 + j < lanes; j++)
            counts[l0 + j] = c[j];
    }
    return 0;
}
