/* Sturm negative-pivot counts of shifted symmetric tridiagonal matrices, and
   the uniform draws of the boxes they are counted on.

   Lane l sweeps the diagonal row drow[l] and the coupling row orow[l] at the
   shift shifts[l] and stores #{pivots < 0} in counts[l]. The pivots are

       d_0 = a_0 - s,   d_k = (a_k - s) - b_k / d_{k-1},   b_k = o_{k-1} * o_{k-1},

   each clamped to +-TINY when |d| < TINY, keeping its sign (zeros of either
   sign go to +TINY, NaN passes through). These are the IEEE operations of the
   numpy sweep in eigensolve.py, in the same order, so both give the same
   counts; build without -ffast-math and with -ffp-contract=off.

   Two bodies compute the counts:

   - sturm_counts_scalar runs SCALAR_WIDTH lanes interleaved, so the divides
     of different lanes overlap. It builds for any target.
   - sturm_counts_avx2 (x86-64 only) runs VEC_GROUPS vectors of VEC_WIDTH
     doubles, 16 lanes, with one packed divide per vector and site. A packed
     divide gives 4 quotients in about twice the time of one scalar divide,
     which bounds the scalar body, so on the kernel shapes of perfbench it
     takes about half the time per pivot. It does the same operations in the
     same order; its clamp selects bits by the same comparisons instead of
     branching, so its counts are those of the scalar body, bit for bit.

   The exported sturm_counts calls the AVX2 body when the CPU reports AVX2
   (__builtin_cpu_supports) and the scalar body otherwise, as on any other
   architecture; sturm_counts_body names the one it calls. sturm_bisect
   runs the bisection of eigensolve.py through the same body: every target
   is a lane, and each level is one sweep of all lanes, so a bisection is
   one call from Python however many levels it takes. On small boxes a
   level costs less in C than one call of sturm_counts from Python, so the
   loop lives here, as LAPACK's dstebz keeps its own. The build flags
   stay portable (no -march=native): only the AVX2 body is compiled for
   AVX2, through its target attribute. There is no AVX-512 body: 2 vectors
   of 8 doubles timed 5-10% faster than AVX2 on the perfbench kernel rows
   (a 2-core Xeon VM), too little for a second path to build and test.

   A last partial lane group repeats its final lane and stores only the real
   ones; in the AVX2 body a last group of at most 4 or 8 lanes runs as 1 or
   2 vectors, so few-lane calls keep the latency of one short chain.

   A coupling above sqrt(DBL_MAX) squares to inf, which makes the counts
   wrong; a call meeting one returns -1. The scalar body scans the coupling
   rows the lanes read before it sweeps. The AVX2 body scans a shared row
   the same way, but tests row couplings as it squares them: a scan reads
   every row once more, which cost up to 2x at one shift per row, while the
   test costs 4-6% there; in the sweep of a shared row it cost 9% (A/B runs
   against the unchecked library on a 2-core Xeon VM).

   philox_uniform writes lo + (hi - lo) * u for the first n uniforms u of
   numpy's Generator(Philox(key=[key0, key1])).random: Philox4x64-10 of
   Salmon, Moraes, Dror and Shaw (Random123, SC 2011) as numpy's
   random/src/philox/philox.h computes it, with u = (x >> 11) * 2^-53 per
   64-bit output word and the counter incremented before each 4-word block,
   so the first block is counter 1. The law's affine map is the operations
   of UniformLaw.transform in its order, so the draws are numpy's bits. One
   block is a chain of 10 dependent multiplies; two counters run
   interleaved, which took about 4 ns per double against 5.7 with one
   counter and 6-8 for numpy's (8 MB blocks on a 2-core Xeon VM). It needs
   a 128-bit product, so it is built only where the compiler has __int128;
   without it the numpy draws run. */

#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TINY 1e-300
#define SCALAR_WIDTH 8

typedef int64_t (*sturm_body)(const double *, const double *, ptrdiff_t, const int64_t *,
                              const int64_t *, const double *, ptrdiff_t, int64_t *);

static int64_t nan_shifts(const double *shifts, ptrdiff_t lanes)
{
    int64_t n = 0;
    for (ptrdiff_t l = 0; l < lanes; l++)
        n += shifts[l] != shifts[l];
    return n;
}

/* Whether a coupling of rows 0 .. max(orow), or of row 0 when orow is NULL,
   squares to inf. */
static int coupling_overflow(const double *off, ptrdiff_t size, const int64_t *orow,
                             ptrdiff_t lanes)
{
    int64_t rows = orow ? 0 : 1;
    for (ptrdiff_t l = 0; orow && l < lanes; l++)
        rows = orow[l] >= rows ? orow[l] + 1 : rows;
    int over = 0;
    for (ptrdiff_t i = 0; i < rows * (size - 1); i++)
        over |= off[i] * off[i] > DBL_MAX;
    return over;
}

/* Returns the number of NaN shifts, and then sweeps nothing; else -1 when a
   coupling squares to inf, and then the counts are not to be used; else 0.
   drow or orow may be NULL: every lane then reads row 0. */
int64_t sturm_counts_scalar(const double *diag, const double *off, ptrdiff_t size,
                            const int64_t *drow, const int64_t *orow,
                            const double *shifts, ptrdiff_t lanes, int64_t *counts)
{
    int64_t nans = nan_shifts(shifts, lanes);
    if (nans)
        return nans;
    if (coupling_overflow(off, size, orow, lanes))
        return -1;
    for (ptrdiff_t l0 = 0; l0 < lanes; l0 += SCALAR_WIDTH) {
        const double *a[SCALAR_WIDTH], *o[SCALAR_WIDTH];
        double s[SCALAR_WIDTH], d[SCALAR_WIDTH];
        int64_t c[SCALAR_WIDTH];
        for (int j = 0; j < SCALAR_WIDTH; j++) {
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
            for (int j = 0; j < SCALAR_WIDTH; j++) {
                double b = o[j][k - 1] * o[j][k - 1];
                d[j] = (a[j][k] - s[j]) - b / d[j];
                c[j] += d[j] < 0.0;
                if (fabs(d[j]) < TINY)
                    d[j] = d[j] < 0.0 ? -TINY : TINY;
            }
        }
        for (int j = 0; j < SCALAR_WIDTH && l0 + j < lanes; j++)
            counts[l0 + j] = c[j];
    }
    return 0;
}

#if defined(__x86_64__)

#define VEC_WIDTH 4
#define VEC_GROUPS 4
#define VEC_LANES (VEC_WIDTH * VEC_GROUPS)

typedef double vdouble __attribute__((vector_size(8 * VEC_WIDTH)));
typedef int64_t vint __attribute__((vector_size(8 * VEC_WIDTH)));

/* d clamped as in the scalar body, counting it in *c when negative. The
   comparisons give all-ones lanes where true; |d| is d without its sign bit,
   compared as a double, and the clamp value is TINY with d's sign when d is
   negative. So -0.0 (not < 0) goes to +TINY and NaN (no compare true) passes
   through. */
__attribute__((target("avx2"))) static inline vdouble clamp_count(vdouble d, vint *c)
{
    const vint sign = (vint){0} + INT64_MIN;
    const vdouble tiny = (vdouble){0} + TINY;
    vint neg = d < 0.0;
    *c -= neg;
    vint bits = (vint)d;
    vint small = (vdouble)(bits & ~sign) < tiny;
    vint clamped = (vint)tiny | (neg & sign);
    return (vdouble)((small & clamped) | (~small & bits));
}

/* The arguments of one call. */
struct call {
    const double *diag, *off;
    ptrdiff_t size;
    const int64_t *drow, *orow;
    const double *shifts;
    ptrdiff_t lanes;
    int64_t *counts;
};

/* Counts of the lanes l0 .. l0 + groups * VEC_WIDTH - 1 of call x, lanes past
   the last repeating it; only real lanes are stored. With shared_off every
   lane reads coupling row 0, so one square per site serves them all;
   otherwise *overflow is set when a square is inf. */
__attribute__((target("avx2"), always_inline)) static inline void
sweep_groups(const struct call *x, ptrdiff_t l0, const int groups, const int shared_off,
             int *overflow)
{
    const vdouble big = (vdouble){0} + DBL_MAX;
    vint over = (vint){0};
    const double *a[VEC_LANES], *o[VEC_LANES];
    vdouble s[VEC_GROUPS], d[VEC_GROUPS];
    vint c[VEC_GROUPS];
    for (int j = 0; j < groups * VEC_WIDTH; j++) {
        ptrdiff_t l = l0 + j < x->lanes ? l0 + j : x->lanes - 1;
        a[j] = x->diag + (x->drow ? x->drow[l] : 0) * x->size;
        o[j] = x->off + (x->orow ? x->orow[l] : 0) * (x->size - 1);
        s[j / VEC_WIDTH][j % VEC_WIDTH] = x->shifts[l];
    }
    for (int g = 0; g < groups; g++) {
        vdouble a0;
        for (int i = 0; i < VEC_WIDTH; i++)
            a0[i] = a[g * VEC_WIDTH + i][0];
        c[g] = (vint){0};
        d[g] = clamp_count(a0 - s[g], &c[g]);
    }
    for (ptrdiff_t k = 1; k < x->size; k++) {
        vdouble shared_b = (vdouble){0} + o[0][k - 1] * o[0][k - 1];
#pragma GCC unroll 4
        for (int g = 0; g < groups; g++) {
            vdouble ak, ok;
#pragma GCC unroll 4
            for (int i = 0; i < VEC_WIDTH; i++) {
                ak[i] = a[g * VEC_WIDTH + i][k];
                if (!shared_off)
                    ok[i] = o[g * VEC_WIDTH + i][k - 1];
            }
            vdouble b = shared_off ? shared_b : ok * ok;
            if (!shared_off)
                over |= b > big;
            d[g] = clamp_count((ak - s[g]) - b / d[g], &c[g]);
        }
    }
    int64_t all[VEC_LANES];
    memcpy(all, c, groups * sizeof c[0]);
    for (int j = 0; j < groups * VEC_WIDTH && l0 + j < x->lanes; j++)
        x->counts[l0 + j] = all[j];
    if (!shared_off)
        *overflow |= (over[0] | over[1] | over[2] | over[3]) != 0;
}

__attribute__((target("avx2"), always_inline)) static inline void
sweep_rows(const struct call *x, ptrdiff_t l0, const int groups, int *overflow)
{
    if (x->orow == NULL)
        sweep_groups(x, l0, groups, 1, overflow);
    else
        sweep_groups(x, l0, groups, 0, overflow);
}

/* Groups of VEC_LANES lanes; a last group of at most 4 or 8 lanes runs as
   1 or 2 vectors, which cuts the latency of few-lane calls. */
__attribute__((target("avx2")))
int64_t sturm_counts_avx2(const double *diag, const double *off, ptrdiff_t size,
                          const int64_t *drow, const int64_t *orow,
                          const double *shifts, ptrdiff_t lanes, int64_t *counts)
{
    int64_t nans = nan_shifts(shifts, lanes);
    if (nans)
        return nans;
    if (orow == NULL && coupling_overflow(off, size, NULL, lanes))
        return -1;
    const struct call x = {diag, off, size, drow, orow, shifts, lanes, counts};
    int over = 0;
    for (ptrdiff_t l0 = 0; l0 < lanes; l0 += VEC_LANES) {
        if (lanes - l0 <= VEC_WIDTH)
            sweep_rows(&x, l0, 1, &over);
        else if (lanes - l0 <= 2 * VEC_WIDTH)
            sweep_rows(&x, l0, 2, &over);
        else
            sweep_rows(&x, l0, VEC_GROUPS, &over);
    }
    return over ? -1 : 0;
}

static sturm_body pick(void)
{
    return __builtin_cpu_supports("avx2") ? sturm_counts_avx2 : sturm_counts_scalar;
}

#else

static sturm_body pick(void)
{
    return sturm_counts_scalar;
}

#endif

/* The counts of sturm_counts_scalar, from the fastest body this CPU runs. */
int64_t sturm_counts(const double *diag, const double *off, ptrdiff_t size,
                     const int64_t *drow, const int64_t *orow,
                     const double *shifts, ptrdiff_t lanes, int64_t *counts)
{
    return pick()(diag, off, size, drow, orow, shifts, lanes, counts);
}

/* 0.5 * (lo + hi), or 0.5 * lo + 0.5 * hi where lo + hi overflows: the bits
   of the first wherever lo + hi is finite, and no inf from a finite
   bracket. */
static inline double midpoint(double lo, double hi)
{
    double mid = 0.5 * (lo + hi);
    return isinf(mid) ? 0.5 * lo + 0.5 * hi : mid;
}

/* Bisection for eigenvalue targets[l] (1-based) of the rows of lane l, all
   lanes from the bracket (lo, hi] and in lockstep: each level sweeps the
   midpoints of every lane (see midpoint) in one call of the body pick()
   chose, then moves hi to the midpoint where count >= target and lo
   elsewhere. It stops after iters levels, or after the first level at which
   every bracket is at most max(tol, 4 ulp(|mid|)) wide, where ulp(m) =
   nextafter(m, inf) - m: numpy's spacing, NaN at inf and NaN, which then
   never stop, as numpy's maximum propagates NaN. These are the operations
   of the numpy loop in eigensolve.py in its order, so both give the same
   bits. values[l] is the midpoint of the last bracket of lane l.

   Returns the status of the first sweep that is not 0 (see
   sturm_counts_scalar), and then the values are not to be used; -2 when
   the brackets cannot be allocated; else 0. */
int64_t sturm_bisect(const double *diag, const double *off, ptrdiff_t size,
                     const int64_t *drow, const int64_t *orow, const int64_t *targets,
                     ptrdiff_t lanes, double lo, double hi, double tol, int64_t iters,
                     double *values)
{
    if (lanes == 0)
        return 0;
    const sturm_body sweep = pick();
    double *los = malloc(lanes * (2 * sizeof(double) + sizeof(int64_t)));
    if (los == NULL)
        return -2;
    double *his = los + lanes;
    int64_t *counts = (int64_t *)(his + lanes), status = 0;
    for (ptrdiff_t l = 0; l < lanes; l++) {
        los[l] = lo;
        his[l] = hi;
    }
    for (int64_t level = 0; level < iters; level++) {
        for (ptrdiff_t l = 0; l < lanes; l++)
            values[l] = midpoint(los[l], his[l]);
        status = sweep(diag, off, size, drow, orow, values, lanes, counts);
        if (status)
            break;
        int done = 1;
        for (ptrdiff_t l = 0; l < lanes; l++) {
            double mid = values[l], m = fabs(mid);
            if (counts[l] >= targets[l])
                his[l] = mid;
            else
                los[l] = mid;
            double ulps = 4.0 * (nextafter(m, INFINITY) - m);
            done &= his[l] - los[l] <= (ulps > tol || ulps != ulps ? ulps : tol);
        }
        if (done)
            break;
    }
    for (ptrdiff_t l = 0; l < lanes; l++)
        values[l] = midpoint(los[l], his[l]);
    free(los);
    return status;
}

#ifdef __SIZEOF_INT128__

#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL /* Weyl key bumps */
#define PHILOX_W1 0xBB67AE8584CAA73BULL
#define PHILOX_ROUNDS 10

struct philox_words {
    uint64_t v[4];
};

static inline struct philox_words philox_round(struct philox_words x, uint64_t k0, uint64_t k1)
{
    unsigned __int128 p0 = (unsigned __int128)PHILOX_M0 * x.v[0];
    unsigned __int128 p1 = (unsigned __int128)PHILOX_M1 * x.v[2];
    struct philox_words y = {{(uint64_t)(p1 >> 64) ^ x.v[1] ^ k0, (uint64_t)p1,
                              (uint64_t)(p0 >> 64) ^ x.v[3] ^ k1, (uint64_t)p0}};
    return y;
}

static inline struct philox_words philox_bump(struct philox_words c)
{
    if (++c.v[0] == 0 && ++c.v[1] == 0 && ++c.v[2] == 0)
        ++c.v[3];
    return c;
}

/* lo + (hi - lo) * u for the output word x; x >> 11 < 2^53 converts exactly
   as a signed integer, which is cheaper than an unsigned conversion. */
static inline double philox_unit(uint64_t x, double lo, double scale)
{
    return lo + scale * ((double)(int64_t)(x >> 11) * 0x1.0p-53);
}

void philox_uniform(uint64_t key0, uint64_t key1, double lo, double hi, double *out,
                    ptrdiff_t n)
{
    const double scale = hi - lo;
    struct philox_words ctr = {{0, 0, 0, 0}};
    ptrdiff_t i = 0;
    for (; i + 8 <= n; i += 8) {
        struct philox_words a = ctr = philox_bump(ctr);
        struct philox_words b = ctr = philox_bump(ctr);
        uint64_t k0 = key0, k1 = key1;
#pragma GCC unroll 10
        for (int r = 0; r < PHILOX_ROUNDS; r++) {
            a = philox_round(a, k0, k1);
            b = philox_round(b, k0, k1);
            k0 += PHILOX_W0;
            k1 += PHILOX_W1;
        }
        for (int w = 0; w < 4; w++) {
            out[i + w] = philox_unit(a.v[w], lo, scale);
            out[i + 4 + w] = philox_unit(b.v[w], lo, scale);
        }
    }
    while (i < n) {
        struct philox_words a = ctr = philox_bump(ctr);
        uint64_t k0 = key0, k1 = key1;
        for (int r = 0; r < PHILOX_ROUNDS; r++) {
            a = philox_round(a, k0, k1);
            k0 += PHILOX_W0;
            k1 += PHILOX_W1;
        }
        for (int w = 0; w < 4 && i < n; w++, i++)
            out[i] = philox_unit(a.v[w], lo, scale);
    }
}

#endif

/* "avx2" or "scalar": the body sturm_counts calls on this CPU. */
const char *sturm_counts_body(void)
{
    return pick() == sturm_counts_scalar ? "scalar" : "avx2";
}
