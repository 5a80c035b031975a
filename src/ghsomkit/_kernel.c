/* Compiled inner loops of ghsomkit: a map fit's context (initial weights,
   schedule, neighbourhood exp, SOM training, BMU assignment, stop verdict
   and row/column insertion), the maps' random streams, the
   Calinski-Harabasz sums, the column variances, and the CSV line count,
   number block and number text.  The library exports the context's
   fit_open, fit_train, fit_grow, fit_store and fit_close, ch_sums,
   column_var, count_lines, parse_block and format_rows; everything else
   is static.

   Each SOM function performs the float operations of the numpy
   expressions it stands for, in the same order, so its results are the
   same bits.  That holds only when built without -ffast-math and with
   -ffp-contract=off: a fused multiply-add rounds once where numpy rounds
   twice.  exp is a port of numpy's AVX-512 exp, whose fused operations
   it spells out as fma() calls, so it gives that loop's bits on every
   CPU.  parse_block converts each number to the double float() returns,
   the correctly rounded one, and format_rows writes each double as the
   text repr() returns, the shortest that reads back as it.  On an x86-64
   CPU with SSSE3 and SSE4.1, checked at each call, parse_block reads a
   plain decimal of up to 16 bytes in one step of SSE instructions; every
   other number, and every number on any other CPU, goes to parse_number
   (Clinger's fast path, else strtod).  Both give float()'s bits. */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The training pass keeps a map's units in the lanes of GCC vector
   extensions: unit u sits in lane u % 8 of block u / 8, one vector per
   attribute, so one vector operation does one unit's operation for 8
   units.  Every lane rounds each operation as the scalar code does, so the
   layout changes no bit.  On x86-64 the training and exp functions are
   built for AVX-512F, x86-64-v3 (AVX2 with FMA) and the baseline, and the
   loader picks the widest the CPU supports; that dispatch (an ifunc)
   needs glibc.  Without FMA, as under target("avx2"), fma() is a call to
   the C library's exact but slow one.  Vectors go to and from functions
   by address: passed by value, even to an always_inline function, their
   ABI would depend on the clone's target, which GCC warns of (-Wpsabi). */
#define LANES 8
typedef double vec __attribute__((vector_size(LANES * sizeof(double))));
typedef int64_t ivec __attribute__((vector_size(LANES * sizeof(int64_t))));

#if defined(__x86_64__) && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("avx512f", "arch=x86-64-v3", "default")))
#else
#define CLONES
#endif

/* The vector v with lane l taken from its lane idx[l]: GCC's
   __builtin_shuffle, one permute instruction where the target has one;
   Clang has no shuffle by a run-time index, and takes lane by lane. */
#if defined(__clang__)
#define PERMUTE(v, idx) ({                                                    \
        __typeof__((v) + 0) permuted_;                                        \
        for (int l_ = 0; l_ < LANES; l_++)                                    \
            permuted_[l_] = (v)[(idx)[l_]];                                   \
        permuted_;                                                            \
    })
#else
#define PERMUTE(v, idx) __builtin_shuffle(v, idx)
#endif

/* numpy's pairwise summation (DOUBLE_pairwise_sum) sums up to this many
   terms with 8 accumulators, and splits longer runs in two */
#define PW_BLOCKSIZE 128

/* Index of the first minimum of d[0..n), or of the first NaN if there
   is one, as np.argmin picks it. */
static int64_t first_argmin(const double *d, int64_t n)
{
    int64_t b = 0;
    for (int64_t i = 0; i < n; i++) {
        if (isnan(d[i]))
            return i;
        if (d[i] < d[b])
            b = i;
    }
    return b;
}

/* numpy's pairwise sum of the n values a (DOUBLE_pairwise_sum): a plain
   loop from -0.0 below 8 terms, 8 accumulators up to PW_BLOCKSIZE, and
   above that the two halves, split at a multiple of 8, summed
   recursively. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < LANES) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r[LANES];
        memcpy(r, a, sizeof(r));
        int64_t i = LANES;
        for (; i < n - n % LANES; i += LANES)
            for (int j = 0; j < LANES; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % LANES;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* Assigns each of the n samples x (n, dim) to its nearest row of w
   (units, dim): dist[i] is the Euclidean distance, the sqrt of the
   index-order sum of squared differences as scipy's cdist computes it,
   and index[i] np.argmin's pick among the distances.  Then unit_mqe[u] is
   the mean of unit u's distances in sample order as np.mean gives it,
   (0.0 + pairwise sum) / count, or 0 for a unit without samples, and
   *map_mqe the mean of the occupied units' errors as SomMap.mqe takes it:
   their row-major array summed, (0.0 + pairwise sum), divided by their
   count.  Returns 0, or -1 when out of memory. */
static int assign(const double *x, int64_t n, const double *w, int64_t units,
                  int64_t dim, double *dist, int64_t *index, double *unit_mqe,
                  double *map_mqe)
{
    double *d = malloc(sizeof(double) * (size_t)(units + n));
    int64_t *end = calloc((size_t)units + 1, sizeof(int64_t));
    if (d == NULL || end == NULL) {
        free(d);
        free(end);
        return -1;
    }
    double *grouped = d + units;
    for (int64_t i = 0; i < n; i++) {
        const double *xi = x + i * dim;
        for (int64_t u = 0; u < units; u++) {
            const double *wu = w + u * dim;
            double s = 0.0;
            for (int64_t k = 0; k < dim; k++) {
                double t = xi[k] - wu[k];
                s += t * t;
            }
            d[u] = sqrt(s);
        }
        index[i] = first_argmin(d, units);
        dist[i] = d[index[i]];
        end[index[i] + 1]++;
    }
    /* a stable counting sort of the distances by unit: end[u] starts as
       the first slot of unit u and ends one past its last */
    for (int64_t u = 0; u < units; u++)
        end[u + 1] += end[u];
    for (int64_t i = 0; i < n; i++)
        grouped[end[index[i]]++] = dist[i];
    int64_t occupied = 0;
    for (int64_t u = 0, start = 0; u < units; start = end[u++]) {
        int64_t count = end[u] - start;
        unit_mqe[u] = count ? (0.0 + pairwise_sum(grouped + start, count)) / (double)count
                            : 0.0;
        if (count)
            d[occupied++] = unit_mqe[u];
    }
    *map_mqe = occupied ? (0.0 + pairwise_sum(d, occupied)) / (double)occupied : 0.0;
    free(d);
    free(end);
    return 0;
}

/* np.add.reduce(x, axis=0) of the C-contiguous (n, dim) samples x: with
   more than one column numpy adds the rows in order to a row of 0.0;
   a single column is one run, summed pairwise and added to 0.0.  Given
   the (dim) column means, it sums (x - mean) ** 2 instead, and then
   needs n doubles of scratch for a single column. */
static void column_sums(const double *x, int64_t n, int64_t dim, const double *mean,
                        double *sum, double *scratch)
{
    if (dim == 1) {
        const double *run = x;
        if (mean != NULL) {
            for (int64_t i = 0; i < n; i++) {
                double t = x[i] - mean[0];
                scratch[i] = t * t;
            }
            run = scratch;
        }
        sum[0] = 0.0 + pairwise_sum(run, n);
        return;
    }
    for (int64_t k = 0; k < dim; k++)
        sum[k] = 0.0;
    for (int64_t i = 0; i < n; i++) {
        const double *xi = x + i * dim;
        if (mean == NULL) {
            for (int64_t k = 0; k < dim; k++)
                sum[k] = sum[k] + xi[k];
        } else {
            for (int64_t k = 0; k < dim; k++) {
                double t = xi[k] - mean[k];
                sum[k] = sum[k] + t * t;
            }
        }
    }
}

/* x.mean(axis=0) and x.var(axis=0) of the C-contiguous (n, dim) samples
   x, as numpy's _var computes them: the column sums divided by n, then
   the column sums of the squares about that mean divided by n.  A single
   column needs n doubles of scratch. */
static void column_moments(const double *x, int64_t n, int64_t dim, double *mean,
                           double *var, double *scratch)
{
    column_sums(x, n, dim, NULL, mean, NULL);
    for (int64_t k = 0; k < dim; k++)
        mean[k] = mean[k] / (double)n;
    column_sums(x, n, dim, mean, var, scratch);
    for (int64_t k = 0; k < dim; k++)
        var[k] = var[k] / (double)n;
}

/* ---- random streams ----------------------------------------------------

   Each map's random streams are numpy's
   np.random.default_rng(np.random.SeedSequence([seed, stream, *path])):
   SeedSequence (numpy/random/bit_generator.pyx) hashes the entropy words
   into a pool of 4 words and expands the pool into PCG64's seed, and the
   Generator draws from PCG64's 64-bit outputs.  Everything up to the
   draws is integer arithmetic, and a double is (u >> 11) * 2^-53, so the
   port gives numpy's bits.  It needs unsigned __int128 (GCC and Clang on
   64-bit targets), where numpy's PCG64 falls back to emulating it. */

typedef unsigned __int128 u128;

typedef struct {
    u128 state, inc;
    int has32;        /* next32 holds the upper half of the last output */
    uint32_t next32;
} pcg64;

#define PCG_MULT (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

/* SeedSequence's hash constants */
#define POOL 4
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u
#define XSHIFT 16

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ (value >> XSHIFT);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ (result >> XSHIFT);
}

/* PCG64's output: one LCG step, then XSL-RR of the new state */
static uint64_t next64(pcg64 *g)
{
    g->state = g->state * PCG_MULT + g->inc;
    uint64_t v = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return (v >> rot) | (v << ((-rot) & 63));
}

/* the lower half of an output, then its upper half */
static uint32_t next32(pcg64 *g)
{
    if (g->has32) {
        g->has32 = 0;
        return g->next32;
    }
    uint64_t v = next64(g);
    g->has32 = 1;
    g->next32 = (uint32_t)(v >> 32);
    return (uint32_t)v;
}

/* A uniform draw from [0, max], by masked rejection (random_interval) */
static uint64_t interval(pcg64 *g, uint64_t max)
{
    if (max == 0)
        return 0;
    /* every bit up to max's highest set bit */
    uint64_t mask = ~0ULL >> __builtin_clzll(max), value;
    if (max <= 0xffffffffu) {
        while ((value = next32(g) & mask) > max)
            ;
    } else {
        while ((value = next64(g) & mask) > max)
            ;
    }
    return value;
}

/* Seeds g from the entropy [seed, stream, *path]: the seed's nseed bytes
   and the stream, each as little-endian 32-bit words (one word for 0, no
   leading zero word otherwise), then one word per path byte.  Returns 0,
   or -1 when out of memory. */
static int seed_stream(pcg64 *g, const uint8_t *seed, int64_t nseed, uint64_t stream,
                       const uint8_t *path, int64_t npath)
{
    int64_t nwords = 0;
    uint32_t *words = malloc(sizeof(uint32_t) * (size_t)((nseed + 3) / 4 + 2 + npath));
    if (words == NULL)
        return -1;
    for (int64_t i = 0; i < nseed; i += 4) {
        uint32_t word = 0;
        for (int64_t b = i; b < i + 4 && b < nseed; b++)
            word |= (uint32_t)seed[b] << (8 * (b - i));
        words[nwords++] = word;
    }
    words[nwords++] = (uint32_t)stream;
    if (stream >> 32)
        words[nwords++] = (uint32_t)(stream >> 32);
    for (int64_t i = 0; i < npath; i++)
        words[nwords++] = path[i];

    /* SeedSequence.mix_entropy */
    uint32_t pool[POOL], hash_const = INIT_A;
    for (int i = 0; i < POOL; i++)
        pool[i] = hashmix(i < nwords ? words[i] : 0, &hash_const);
    for (int src = 0; src < POOL; src++)
        for (int dst = 0; dst < POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const));
    for (int64_t src = POOL; src < nwords; src++)
        for (int dst = 0; dst < POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(words[src], &hash_const));
    free(words);

    /* SeedSequence.generate_state(4, np.uint64) */
    uint64_t state[4];
    hash_const = INIT_B;
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i % POOL] ^ hash_const;
        hash_const *= MULT_B;
        value *= hash_const;
        value ^= value >> XSHIFT;
        if (i % 2)
            state[i / 2] |= (uint64_t)value << 32;
        else
            state[i / 2] = value;
    }

    /* pcg64_set_seed */
    g->state = 0;
    g->inc = ((((u128)state[2] << 64) | state[3]) << 1) | 1;
    g->state = g->state * PCG_MULT + g->inc;
    g->state += ((u128)state[0] << 64) | state[1];
    g->state = g->state * PCG_MULT + g->inc;
    g->has32 = 0;
    return 0;
}

/* Fills out[0 .. count) with Generator.uniform(low, high): each draw is
   low + (high - low) * double.  Returns 0, or -1 when out of memory. */
static int uniform(double *out, int64_t count, double low, double high, const uint8_t *seed,
                   int64_t nseed, uint64_t stream, const uint8_t *path, int64_t npath)
{
    pcg64 g;
    if (seed_stream(&g, seed, nseed, stream, path, npath))
        return -1;
    double range = high - low;
    for (int64_t i = 0; i < count; i++)
        out[i] = low + range * ((double)(next64(&g) >> 11) * (1.0 / 9007199254740992.0));
    return 0;
}

/* Fills order[0 .. norder) with norder / n permutations of 0 .. n-1 as
   Generator.permuted shuffles the rows of np.tile(np.arange(n), (lam, 1)):
   each row a Fisher-Yates shuffle from its last entry down.  Returns 0,
   or -1 when out of memory. */
static int draw_permutations(int64_t *order, int64_t norder, int64_t n, const uint8_t *seed,
                             int64_t nseed, uint64_t stream, const uint8_t *path,
                             int64_t npath)
{
    pcg64 g;
    if (seed_stream(&g, seed, nseed, stream, path, npath))
        return -1;
    for (int64_t *row = order; row < order + norder; row += n) {
        for (int64_t i = 0; i < n; i++)
            row[i] = i;
        for (int64_t i = n - 1; i > 0; i--) {
            int64_t j = (int64_t)interval(&g, (uint64_t)i), t = row[i];
            row[i] = row[j];
            row[j] = t;
        }
    }
    return 0;
}

/* ---- exp ---------------------------------------------------------------

   numpy's float64 exp on AVX-512 is Intel SVML's __svml_exp8_ha, vendored
   in numpy (BSD-3-Clause).  This is a port of it as numpy 2.4.6 ships it,
   read from the disassembly of _multiarray_umath: the constants of its
   fast path are those of __svml_dexp_ha_data_internal_avx512 at +0x100
   to +0x380 and +0x400, and its two 16-entry tables at +0x000 and +0x080
   are every 4th entry of _imldExpHATab; the rare path is
   __svml_dexp_ha_cout_rare_internal, with _imldExpHATab's 64 (hi, lo)
   pairs at +0x000 and its constants at +0x400 to +0x490.  Both are Tang's
   table method (ACM TOMS 15(2), 1989): exp(x) = 2^k * 2^(j/N) * exp(r).
   The fast path rounds once per fused operation, which fma() does on
   every CPU; the rare path uses plain double operations. */

/* EXP_TABLE[2i] is 2^(i/64) rounded to the nearest double, EXP_TABLE[2i + 1]
   the rest of 2^(i/64) relative to it, rounded likewise */
static const double EXP_TABLE[128] = {
    0x1.0000000000000p+0, 0x0.0p+0, 0x1.02c9a3e778061p+0, -0x1.160139cd8dc5dp-56,
    0x1.059b0d3158574p+0, 0x1.cd2523567f613p-55, 0x1.0874518759bc8p+0, 0x1.0f74e61e6c861p-57,
    0x1.0b5586cf9890fp+0, 0x1.79aa65d837b6dp-54, 0x1.0e3ec32d3d1a2p+0, 0x1.ebe3d702f9cd1p-60,
    0x1.11301d0125b51p+0, -0x1.556522a2fbd0ep-54, 0x1.1429aaea92de0p+0, -0x1.1c923b9d5f416p-54,
    0x1.172b83c7d517bp+0, -0x1.01b15eaa59348p-55, 0x1.1a35beb6fcb75p+0, 0x1.b898c3f1353bfp-55,
    0x1.1d4873168b9aap+0, 0x1.aecf73e3a2f60p-54, 0x1.2063b88628cd6p+0, 0x1.a6f4144a6c38dp-55,
    0x1.2387a6e756238p+0, 0x1.68efde3a8a894p-54, 0x1.26b4565e27cddp+0, 0x1.0472b981fe7f2p-55,
    0x1.29e9df51fdee1p+0, 0x1.2f7e16d09ab31p-55, 0x1.2d285a6e4030bp+0, 0x1.b3782720c0ab4p-55,
    0x1.306fe0a31b715p+0, 0x1.34d754db0abb6p-55, 0x1.33c08b26416ffp+0, 0x1.fdd395dd3f84ap-55,
    0x1.371a7373aa9cbp+0, -0x1.24aedcc4b5068p-54, 0x1.3a7db34e59ff7p+0, -0x1.1d1e83e9436d2p-56,
    0x1.3dea64c123422p+0, 0x1.59f48a72a4c6dp-55, 0x1.4160a21f72e2ap+0, -0x1.8a78f4817895bp-58,
    0x1.44e086061892dp+0, 0x1.363ed60c2ac11p-59, 0x1.486a2b5c13cd0p+0, 0x1.ecce1daa10379p-57,
    0x1.4bfdad5362a27p+0, 0x1.690cebb7aafb0p-56, 0x1.4f9b2769d2ca7p+0, -0x1.f94340071a38ep-55,
    0x1.5342b569d4f82p+0, -0x1.8dec6bd0f385fp-56, 0x1.56f4736b527dap+0, 0x1.3350518fdd78ep-54,
    0x1.5ab07dd485429p+0, 0x1.063e1e21c5409p-54, 0x1.5e76f15ad2148p+0, 0x1.432e62b64c035p-54,
    0x1.6247eb03a5585p+0, -0x1.c33c53bef4da8p-55, 0x1.6623882552225p+0, -0x1.3cedd78565858p-54,
    0x1.6a09e667f3bcdp+0, -0x1.3b3efbf5e2228p-54, 0x1.6dfb23c651a2fp+0, -0x1.367efb86da9eep-57,
    0x1.71f75e8ec5f74p+0, -0x1.81f647e5a3ecfp-56, 0x1.75feb564267c9p+0, -0x1.619321e55e68ap-55,
    0x1.7a11473eb0187p+0, -0x1.b32dcb94da51dp-56, 0x1.7e2f336cf4e62p+0, 0x1.5ebe1abd66c55p-57,
    0x1.82589994cce13p+0, -0x1.369b6f13b3734p-54, 0x1.868d99b4492edp+0, -0x1.4d450d872576ep-54,
    0x1.8ace5422aa0dbp+0, 0x1.db72fc1f0eab4p-55, 0x1.8f1ae99157736p+0, 0x1.bf68359f35f44p-56,
    0x1.93737b0cdc5e5p+0, -0x1.da9b88b6c1e29p-58, 0x1.97d829fde4e50p+0, -0x1.2434322f4f9aap-54,
    0x1.9c49182a3f090p+0, 0x1.1affc2b91ce27p-56, 0x1.a0c667b5de565p+0, -0x1.7c50422622263p-55,
    0x1.a5503b23e255dp+0, -0x1.1bbd1d3bcbb15p-54, 0x1.a9e6b5579fdbfp+0, 0x1.469846e735ab3p-55,
    0x1.ae89f995ad3adp+0, 0x1.c1a7792cb3387p-55, 0x1.b33a2b84f15fbp+0, -0x1.5c3d956dcaebap-58,
    0x1.b7f76f2fb5e47p+0, -0x1.8d6f438ad9334p-57, 0x1.bcc1e904bc1d2p+0, 0x1.4ffd70a5fddcdp-56,
    0x1.c199bdd85529cp+0, 0x1.36eae30af0cb3p-56, 0x1.c67f12e57d14bp+0, 0x1.4e08fd10959acp-55,
    0x1.cb720dcef9069p+0, 0x1.76b2c6c921968p-57, 0x1.d072d4a07897cp+0, -0x1.fad5d3ffffa6fp-55,
    0x1.d5818dcfba487p+0, 0x1.4a385a63d07a7p-56, 0x1.da9e603db3285p+0, 0x1.e5a50d5c192acp-55,
    0x1.dfc97337b9b5fp+0, -0x1.2d52107b43e1fp-55, 0x1.e502ee78b3ff6p+0, 0x1.4b604603a88d3p-56,
    0x1.ea4afa2a490dap+0, -0x1.ff7128fd391f0p-55, 0x1.efa1bee615a27p+0, 0x1.ec3bc41aa2008p-55,
    0x1.f50765b6e4540p+0, 0x1.a64a931d185eep-55, 0x1.fa7c1819e90d8p+0, 0x1.7893b4d91cd9dp-56,
};

static uint64_t bits_of(double v)
{
    uint64_t b;
    memcpy(&b, &v, sizeof(b));
    return b;
}

static double of_bits(uint64_t b)
{
    double v;
    memcpy(&v, &b, sizeof(v));
    return v;
}

/* The rare path, for |x| at or above EXP_FAST, infinities and NaNs:
   x = (k + j/64) ln 2 + r, with 64k + j the nearest integer to
   x * 64 / ln 2, and exp(x) = 2^k * 2^(j/64) * exp(r), exp(r) - 1 a
   polynomial of degree 6; where the result is subnormal it is scaled by
   2^60 first and back in two parts. */
static double exp_rare(double x)
{
    uint64_t b = bits_of(x);
    if ((b >> 52 & 0x7ff) == 0x7ff)
        return b >> 63 && b << 12 == 0 ? 0.0 : x * x;
    if (x > 0x1.62e42fefa39efp+9)
        return DBL_MAX * DBL_MAX;
    if (x < -0x1.74910d52d3051p+9)
        return 0x1.0000000000001p-1022 * 0x1.0000000000001p-1022;
    double u = x * 0x1.71547652b82fep+6 + 0x1.8p52, v = u - 0x1.8p52;
    uint32_t m = (uint32_t)bits_of(u), k = m >> 6;
    const double *t = EXP_TABLE + 2 * (m & 63);
    double r = x - v * 0x1.62e42fefa0000p-7 - v * 0x1.cf79abc9e3b3ap-46;
    double q = (((0x1.6c16a1c2a3ffdp-10 * r + 0x1.111123aaf20d3p-7) * r + 0x1.5555555558fccp-5) *
                r + 0x1.55555555548f8p-3) * r + 0x1p-1;
    q = (q * r * r + r + t[1]) * t[0];
    if (x < -0x1.6232bdd7abcd2p+9) {
        uint32_t e = (k + 0x43b) & 0x7ff;
        double scale = of_bits((uint64_t)e << 52);
        double hi_part = scale * t[0], lo_part = q * scale, s = hi_part + lo_part;
        if (e <= 50)
            return s * 0x1p-60;
        double err = (hi_part - s) + lo_part, split = s * 0x1.8p32;
        double hi = (s + split) - split;
        return hi * 0x1p-60 + (err + (s - hi)) * 0x1p-60;
    }
    uint32_t e = (k + 0x3ff) & 0x7ff;
    q += t[0];
    if (e == 0x7ff)
        return q * 0x1p1023 * 2.0;
    return q * of_bits((uint64_t)e << 52);
}

/* x * log2(e) + EXP_SHIFT rounded down to a multiple of 1/16 holds k + 1023
   and j of x = (k + j/16) ln 2 + r in its low mantissa bits */
#define EXP_SHIFT 0x1.8000000003ff0p+48
#define EXP_SHIFT_BITS 0x42f8000000000000u
/* the fast path's bound on |x|, 0x1.61da04cbafe44p+9 (about 707.7) */
#define EXP_FAST 0x1.61da04cbafe44p+9

/* exp of the 8 doubles at p, in place: the fast path in every lane, with
   its one round-toward-zero fma as a round-to-nearest one less an ulp
   where that rounded up (the sign of the fused remainder says), then the
   rare path in the lanes that need it.  The lane loop compiles to vector
   code where the target has FMA. */
static inline __attribute__((always_inline)) void exp_lanes(double *p)
{
    double out[LANES];
    int64_t rare = 0;
    for (int l = 0; l < LANES; l++) {
        double x = p[l];
        double y = fma(x, 0x1.71547652b82fep+0, EXP_SHIFT);
        uint64_t yb = bits_of(y) - (fma(x, 0x1.71547652b82fep+0, EXP_SHIFT - y) < 0.0);
        double n = of_bits(yb) - EXP_SHIFT;
        uint64_t m = yb - EXP_SHIFT_BITS, e = m >> 4;
        /* 2^(j/16) is EXP_TABLE's pair 4j */
        double hi = EXP_TABLE[8 * (m & 15)], lo = EXP_TABLE[8 * (m & 15) + 1];
        double r = fma(-n, 0x1.62e42fefa39efp-1, x);
        r = fma(-0x1.abc9e3b39803fp-56, n, r);
        double r2 = r * r;
        double q = fma(r2, fma(r, 0x1.7411836940c04p-10, 0x1.1101cbbc265c0p-7),
                       fma(r, 0x1.55557242d68fep-5, 0x1.5555553939732p-3));
        q = fma(r2, q, fma(r, 0x1.000000000d008p-1, 0x1.fffffffffff70p-1));
        q = fma(hi, fma(q, r, lo), hi);
        /* q * 2^(e - 1023), e >= 0, as SVML's vscalefpd rounds it */
        out[l] = q * of_bits(e << 52 | (uint64_t)(e == 0) << 51);
        rare |= !(fabs(x) < EXP_FAST);
    }
    if (rare)
        for (int l = 0; l < LANES; l++)
            if (!(fabs(p[l]) < EXP_FAST))
                out[l] = exp_rare(p[l]);
    memcpy(p, out, sizeof(out));
}

/* a[i] = exp(a[i]) for i < n, the bits numpy's AVX-512 exp gives */
CLONES static void exp_block(double *a, int64_t n)
{
    int64_t i = 0;
    for (; i + LANES <= n; i += LANES)
        exp_lanes(a + i);
    if (i < n) {
        double tail[LANES] = {0};
        memcpy(tail, a + i, sizeof(double) * (size_t)(n - i));
        exp_lanes(tail);
        memcpy(a + i, tail, sizeof(double) * (size_t)(n - i));
    }
}

/* ---- training and growth ----------------------------------------------- */

/* A map's weights in lanes: unit u's attribute k is lane u % 8 of vector
   (u / 8) * dim + k, so block B of 8 units is the dim vectors from
   B * dim.  The pad lanes of the last block hold 0 on the way in and are
   dropped on the way out. */
static void to_lanes(vec *lw, const double *w, int64_t units, int64_t dim)
{
    int64_t blocks = (units + LANES - 1) / LANES;
    memset(lw, 0, sizeof(vec) * (size_t)(blocks * dim));
    for (int64_t u = 0; u < units; u++)
        for (int64_t k = 0; k < dim; k++)
            lw[u / LANES * dim + k][u % LANES] = w[u * dim + k];
}

static void from_lanes(double *w, const vec *lw, int64_t units, int64_t dim)
{
    for (int64_t u = 0; u < units; u++)
        for (int64_t k = 0; k < dim; k++)
            w[u * dim + k] = lw[u / LANES * dim + k][u % LANES];
}

/* One attribute of a block of 8 units: when `update`, first the step
   w = w + (xs - w) * h towards the sample xs, the operations of numpy's
   w + diff * h with diff = xs - w taken again rather than stored; then
   the square of xn - w. */
static inline __attribute__((always_inline)) void
lane_term(vec *sq, vec *w, double xs, double xn, const vec *h, int update)
{
    if (update)
        *w = *w + (xs - *w) * *h;
    vec t = xn - *w;
    *sq = t * t;
}

static const vec NEG_ZERO = {-0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0};

/* lane_term over a run of n <= PW_BLOCKSIZE attributes, the vectors
   w[0..n), summed in every lane in numpy's pairwise order: a plain loop
   from -0.0 below 8 terms, otherwise 8 accumulators combined as
   ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail; into *res. */
static inline __attribute__((always_inline)) void
lane_run(vec *res, vec *w, const double *xs, const double *xn, const vec *h, int64_t n,
         int update)
{
#define TERM(r, k) lane_term(&(r), w + (k), xs[k], xn[k], h, update)
#define ADD(r, k) (TERM(t, k), (r) = (r) + t)
    vec r0, r1, r2, r3, r4, r5, r6, r7, t, sum = NEG_ZERO;
    int64_t k = 0;
    if (n >= LANES) {
        TERM(r0, 0), TERM(r1, 1), TERM(r2, 2), TERM(r3, 3);
        TERM(r4, 4), TERM(r5, 5), TERM(r6, 6), TERM(r7, 7);
        for (k = LANES; k < n - n % LANES; k += LANES) {
            ADD(r0, k), ADD(r1, k + 1), ADD(r2, k + 2), ADD(r3, k + 3);
            ADD(r4, k + 4), ADD(r5, k + 5), ADD(r6, k + 6), ADD(r7, k + 7);
        }
        sum = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
    }
    for (; k < n; k++)
        ADD(sum, k);
    *res = sum;
#undef ADD
#undef TERM
}

/* lane_run over any n into *out: above PW_BLOCKSIZE terms the two halves,
   split at a multiple of 8, are summed recursively, as numpy does. */
CLONES static void lane_split(vec *w, const double *xs, const double *xn, const vec *h,
                              int64_t n, int update, vec *out)
{
    if (n <= PW_BLOCKSIZE) {
        if (update)
            lane_run(out, w, xs, xn, h, n, 1);
        else
            lane_run(out, w, xs, xn, h, n, 0);
        return;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % LANES;
    vec left, right;
    lane_split(w, xs, xn, h, n2, update, &left);
    lane_split(w + n2, xs + n2, xn + n2, h, n - n2, update, &right);
    *out = left + right;
}

/* Lane l of *i set to the smaller of its lanes l and perm[l]: the three
   folds of lane_min leave the minimum in every lane. */
static inline __attribute__((always_inline)) void
fold_min(ivec *i, const ivec *perm)
{
    ivec o = PERMUTE(*i, *perm);
    ivec take = o < *i;
    *i = (take & o) | (~take & *i);
}

static inline __attribute__((always_inline)) void
lane_min(ivec *i)
{
    fold_min(i, &(ivec){4, 5, 6, 7, 0, 1, 2, 3});
    fold_min(i, &(ivec){2, 3, 0, 1, 6, 7, 4, 5});
    fold_min(i, &(ivec){1, 0, 3, 2, 5, 4, 7, 6});
}

/* A map's training state in lanes: blocks * dim vectors of weights (lw),
   blocks vectors of distances (d), the grid row and then the column of
   each of the blocks * 8 lanes (rc, 0 in the pad lanes), and the slot of
   every squared grid distance.  A small map, whose width distinct grid
   distances fit one vector, also has near: lane l of near[B * units + b]
   holds the slot of the squared grid distance of unit b and unit
   B * 8 + l (0 in the pad lanes). */
typedef struct {
    vec *lw, *d;
    const ivec *near;
    const int64_t *rc, *slot;
    int64_t blocks, units, dim;
} lanes_t;

/* One pass over the lanes of the map L: when `update`, each unit u first
   steps towards the sample xs by the step's neighbourhood weight of
   units u and b, the BMU, which is h[slot[g(b, u)]] for the squared grid
   distance g (on a small map, lane slot[g(b, u)] of the vector hsmall,
   one permute); then its squared distance to the next sample xn, the
   pairwise sum, goes to d.  Returns the next BMU: the first minimum of
   d, or its first NaN, as np.argmin picks it.  It is found by compare
   and select: each lane keeps its first minimum over the blocks and
   three folds across the lanes take the least distance and then the
   first unit at it; on a small map one chain over its units is shorter.
   The pad lanes read +inf and never win. */
static inline __attribute__((always_inline)) int64_t
lane_pass(const lanes_t *L, const double *xs, const double *xn, const double *h,
          const vec *hsmall, int64_t b, int update, int small)
{
    static const ivec iota = {0, 1, 2, 3, 4, 5, 6, 7};
    int64_t blocks = L->blocks, units = L->units, dim = L->dim;
    const int64_t *rc = L->rc, *slot = L->slot;
    int64_t br = rc[b], bc = rc[blocks * LANES + b];
    ivec keep = iota + (blocks - 1) * LANES < units;
    ivec pad = ~keep & 0x7ff0000000000000;  /* +inf */
    vec best = NEG_ZERO;
    ivec at = iota, nan = {0};
    for (int64_t B = 0; B < blocks; B++) {
        vec hv = {0};
        if (update && small) {
            hv = PERMUTE(*hsmall, L->near[B * units + b]);
        } else if (update) {
            const int64_t *r = rc + B * LANES, *c = r + blocks * LANES;
#define H(l) h[slot[(r[l] - br) * (r[l] - br) + (c[l] - bc) * (c[l] - bc)]]
            hv = (vec){H(0), H(1), H(2), H(3), H(4), H(5), H(6), H(7)};
#undef H
        }
        vec dv, *w = L->lw + B * dim;
        if (dim <= PW_BLOCKSIZE)
            lane_run(&dv, w, xs, xn, &hv, dim, update);
        else
            lane_split(w, xs, xn, &hv, dim, update, &dv);
        /* numpy's reduction adds the pairwise sum to its initial 0.0,
           which changes no comparison, and a sum of squares is never
           -0.0 anyway; the small map's chain stops short of the pad
           lanes */
        if (!small && B == blocks - 1)
            dv = (vec)(((ivec)dv & keep) | pad);
        L->d[B] = dv;
        nan |= dv != dv;
        if (B == 0 || small) {
            best = dv;
        } else {
            ivec take = dv < best;
            best = (vec)((take & (ivec)dv) | (~take & (ivec)best));
            at = (take & (iota + B * LANES)) | (~take & at);
        }
    }
    const double *d = (const double *)L->d;
    int64_t any_nan = 0;
    for (int l = 0; l < LANES; l++)
        any_nan |= nan[l];
    if (any_nan)
        return first_argmin(d, units);
    if (small) {
        double least = d[0];
        b = 0;
        for (int64_t u = 1; u < units; u++) {
            int take = d[u] < least;
            b = take ? u : b;
            least = take ? d[u] : least;
        }
        return b;
    }
    /* distances of +0.0 to +inf order as their bits do */
    ivec least = (ivec)best;
    lane_min(&least);
    ivec at_least = (ivec)best == least;
    at = (at_least & at) | (~at_least & INT64_MAX);
    lane_min(&at);
    return at[0];
}

/* The steps of train_block, for a small map or any other. */
static inline __attribute__((always_inline)) void
lane_steps(const lanes_t *L, const double *x, const int64_t *order, int64_t steps,
           const double *table, int64_t width, const double *alpha, double *h, int small)
{
    int64_t dim = L->dim;
    const double *xs = x + order[0] * dim;
    vec hsmall = {0};
    int64_t b = lane_pass(L, xs, xs, h, &hsmall, 0, 0, small);
    for (int64_t s = 0; s < steps; s++) {
        for (int64_t j = 0; j < width; j++) {
            if (small)
                hsmall[j] = table[j * steps + s] * alpha[s];
            else
                h[j] = table[j * steps + s] * alpha[s];
        }
        /* the last step's d is never read: it is taken against its own
           sample rather than one past the end of order */
        const double *xn = x + order[s + 1 < steps ? s + 1 : s] * dim;
        b = lane_pass(L, xs, xn, h, &hsmall, b, 1, small);
        xs = xn;
    }
}

/* Online SOM updates of the map L in lanes (see to_lanes), in place.
   Step s (0 <= s < steps) presents sample x[order[s]] of the samples x:

       diff = x - w;  d = (diff * diff).sum(axis=1);  b = argmin(d)
       w = w + diff * (table[slot[g(b, u)], s] * alpha[s])

   for every unit u, where g(b, u) is the squared grid distance between
   units b and u, and column s of the (width, steps) table holds the
   step's neighbourhood kernel by distinct grid distance.  One pass over
   the weights per step applies the update and at once computes the next
   step's d (lane_pass).  h holds width doubles. */
CLONES static void train_block(const lanes_t *L, const double *x, const int64_t *order,
                               int64_t steps, const double *table, int64_t width,
                               const double *alpha, double *h)
{
    if (L->near != NULL)
        lane_steps(L, x, order, steps, table, width, alpha, h, 1);
    else
        lane_steps(L, x, order, steps, table, width, alpha, h, 0);
}

/* Index of the first maximum of a[0..n), or of the first NaN if there
   is one, as np.argmax picks it. */
static int64_t first_argmax(const double *a, int64_t n)
{
    int64_t b = 0;
    for (int64_t i = 0; i < n; i++) {
        if (isnan(a[i]))
            return i;
        if (a[i] > a[b])
            b = i;
    }
    return b;
}

/* The row or column insertion after a cycle of the (rows, cols, dim)
   weights w.  The error unit is the first with the largest of the
   (rows, cols) unit_mqe; of its 4-neighbours, scanned right, left,
   below, above, the first farthest from it wins, by the squared distance
   of their weights summed in numpy's pairwise order (squares: dim
   doubles of scratch).  Returns 1 for a column and 2 for a row to go
   between columns or rows *lo and *lo + 1, or -1 when no neighbour's
   distance compares (NaN weights, or a 1x1 map). */
static int pick_insertion(const double *w, int64_t rows, int64_t cols, int64_t dim,
                          const double *unit_mqe, double *squares, int64_t *lo)
{
    static const int64_t steps[4][2] = {{0, 1}, {0, -1}, {1, 0}, {-1, 0}};
    int64_t e = first_argmax(unit_mqe, rows * cols), er = e / cols, ec = e % cols;
    int64_t best = -1;
    double best_d = -1.0;
    for (int64_t k = 0; k < 4; k++) {
        int64_t r = er + steps[k][0], c = ec + steps[k][1];
        if (r < 0 || r >= rows || c < 0 || c >= cols)
            continue;
        const double *wn = w + (r * cols + c) * dim, *we = w + e * dim;
        for (int64_t k = 0; k < dim; k++) {
            double t = we[k] - wn[k];
            squares[k] = t * t;
        }
        double d = pairwise_sum(squares, dim);
        if (d > best_d) {
            best_d = d;
            best = k;
        }
    }
    if (best < 0)
        return -1;
    if (steps[best][0] == 0) {
        *lo = steps[best][1] < 0 ? ec - 1 : ec;
        return 1;
    }
    *lo = steps[best][0] < 0 ? er - 1 : er;
    return 2;
}

/* Inserts, in place, the column (axis 1) or row (axis 2) 0.5 * (a + b)
   between columns or rows lo and lo + 1 of the (rows, cols, dim) weights
   w, which must have room for the grown map.  A column goes in row by
   row from the last, each row moving up by the columns inserted before
   it: its tail first, then the new unit, then its head, so nothing is
   overwritten before it is read. */
static void insert(double *w, int64_t rows, int64_t cols, int64_t dim, int axis, int64_t lo)
{
    if (axis == 1) {
        for (int64_t r = rows - 1; r >= 0; r--) {
            const double *src = w + r * cols * dim;
            double *dst = w + r * (cols + 1) * dim;
            memmove(dst + (lo + 2) * dim, src + (lo + 1) * dim,
                    sizeof(double) * (size_t)((cols - lo - 1) * dim));
            for (int64_t k = 0; k < dim; k++)
                dst[(lo + 1) * dim + k] = 0.5 * (src[lo * dim + k] + src[(lo + 1) * dim + k]);
            memmove(dst, src, sizeof(double) * (size_t)(lo * dim + dim));
        }
        return;
    }
    int64_t row = cols * dim;
    memmove(w + (lo + 2) * row, w + (lo + 1) * row, sizeof(double) * (size_t)((rows - lo - 1) * row));
    for (int64_t k = 0; k < row; k++)
        w[(lo + 1) * row + k] = 0.5 * (w[lo * row + k] + w[(lo + 2) * row + k]);
}

/* ---- a map's fit ---------------------------------------------------------

   The constants every map of one tree's fit shares, and the state of one
   map's fit, from its initial weights to its stop: the routed samples,
   gathered once; the weights, grown in place by each insertion; the
   growth cycle's sample order; the block's table of neighbourhood
   weights; the assignment and unit errors of the last cycle, and its
   verdict.  A growth cycle is one fit_train call, an insertion one
   fit_grow call.  Every buffer is sized for the current shape and grown
   on insertion. */

enum { GROW = 0, CONVERGED = 1, CAPPED = 2 };

/* The constants of one tree's fit, which every map's fit reads: the
   C-contiguous (ndata, dim) data, the seed's bytes, the epochs per cycle,
   the learning rate alpha0, the radius sigma0 (without has_sigma0, half
   the larger side of the map) and its floor, the initial noise and the
   insertion cap.  The caller fills it and keeps it, and the data and seed
   it points to, alive while any fit that reads it is open; the Python
   wrapper's copy of this layout (_kernel.Run) must stay in step. */
typedef struct {
    const double *data;
    int64_t ndata, dim;
    const uint8_t *seed;
    int64_t nseed, lam, max_insertions, has_sigma0;
    double alpha0, sigma0, sigma_floor, noise;
} run_t;

/* a block of training steps is sized so that its table holds about this
   many doubles */
#define TABLE_FLOATS (1 << 16)

typedef struct {
    /* read by the Python wrapper: keep its copy of this layout in step */
    int64_t rows, cols;      /* the current shape */
    int64_t verdict;         /* after a cycle: GROW, CONVERGED or CAPPED */
    double mqe;              /* after a cycle: the map MQE */
    /* private */
    const run_t *run;
    int64_t dim, n, lam, width, insertions, max_units;
    int64_t w_cap, unit_mqe_cap, scratch_cap, table_cap, alpha_cap, coef_cap,
        distinct_cap, slot_cap, lanes_cap, rc_cap;
    int assigned;            /* index and unit_mqe hold for the current
                                shape: cleared by an insertion, set by the next
                                cycle */
    double threshold;
    double *x, *w, *unit_mqe, *scratch, *table, *alpha, *coef, *distinct, *dist;
    vec *lanes;              /* L's lw, d and near */
    int64_t *order, *index, *slot, *rc;
    lanes_t L;               /* the training pass's view of the current shape */
    uint8_t *path;
    int64_t npath;
} fit_t;

/* Grows the buffer *p of *cap elements of `size` bytes to `need`
   elements, keeping its contents, unless it holds them already.  Returns
   0, or -1 when out of memory (*p and *cap unchanged). */
static int reserve(void **p, int64_t *cap, int64_t need, size_t size)
{
    if (need <= *cap)
        return 0;
    void *q = realloc(*p, size * (size_t)need);
    if (q == NULL)
        return -1;
    *p = q;
    *cap = need;
    return 0;
}

/* reserve for the lanes, in vectors: they must be aligned to a vector,
   and need not keep their contents, which set_shape and to_lanes write
   afresh */
static int reserve_lanes(fit_t *f, int64_t need)
{
    if (need <= f->lanes_cap)
        return 0;
    vec *q = aligned_alloc(sizeof(vec), sizeof(vec) * (size_t)need);
    if (q == NULL)
        return -1;
    free(f->lanes);
    f->lanes = q;
    f->lanes_cap = need;
    return 0;
}

/* The steps of a full block: its table holds about TABLE_FLOATS
   doubles, max(1, TABLE_FLOATS // width). */
static int64_t block_steps(const fit_t *f)
{
    int64_t steps = TABLE_FLOATS / f->width;
    return steps > 1 ? steps : 1;
}

/* The buffers that depend on the shape: the distinct squared grid
   distances of a rows x cols map, ascending, as doubles (np.unique of
   np.add.outer(np.arange(rows) ** 2, np.arange(cols) ** 2)), the row of
   each squared distance in that list (slot), the units' grid rows and
   columns by lane (rc, 0 in the pad lanes), the lanes, the scratch and
   the table.  Returns 0, or -1 when out of memory. */
static int set_shape(fit_t *f)
{
    int64_t rows = f->rows, cols = f->cols, units = rows * cols;
    int64_t nslot = (rows - 1) * (rows - 1) + (cols - 1) * (cols - 1) + 1;
    if (reserve((void **)&f->distinct, &f->distinct_cap, nslot, sizeof(double)) ||
        reserve((void **)&f->slot, &f->slot_cap, nslot, sizeof(int64_t)))
        return -1;
    memset(f->slot, 0, sizeof(int64_t) * (size_t)nslot);
    for (int64_t r = 0; r < rows; r++)
        for (int64_t c = 0; c < cols; c++)
            f->slot[r * r + c * c] = 1;
    f->width = 0;
    for (int64_t g = 0; g < nslot; g++) {
        if (f->slot[g]) {
            f->distinct[f->width] = (double)g;
            f->slot[g] = f->width++;
        }
    }
    int64_t blocks = (units + LANES - 1) / LANES, padded = blocks * LANES;
    if (reserve((void **)&f->rc, &f->rc_cap, 2 * padded, sizeof(int64_t)))
        return -1;
    for (int64_t u = 0; u < padded; u++) {
        f->rc[u] = u < units ? u / cols : 0;
        f->rc[padded + u] = u < units ? u % cols : 0;
    }
    int small = f->width <= LANES;
    if (reserve_lanes(f, blocks * (f->dim + 1) + (small ? blocks * units : 0)))
        return -1;
    vec *d = f->lanes + blocks * f->dim;
    ivec *near = small ? (ivec *)(d + blocks) : NULL;
    f->L = (lanes_t){.lw = f->lanes, .d = d, .near = near, .rc = f->rc, .slot = f->slot,
                     .blocks = blocks, .units = units, .dim = f->dim};
    for (int64_t B = 0; small && B < blocks; B++) {
        for (int64_t b = 0; b < units; b++) {
            for (int64_t l = 0, u = B * LANES; l < LANES; l++, u++) {
                int64_t dr = f->rc[u] - f->rc[b], dc = f->rc[padded + u] - f->rc[padded + b];
                near[B * units + b][l] = u < units ? f->slot[dr * dr + dc * dc] : 0;
            }
        }
    }
    int64_t block = block_steps(f), total = f->lam * f->n;
    int64_t steps = block < total ? block : total;
    /* the scratch holds a training step's neighbourhood weights, the
       mean and std of the initial weights or the squares of the
       insertion */
    return reserve((void **)&f->scratch, &f->scratch_cap, 2 * f->dim + f->width,
                   sizeof(double)) ||
           reserve((void **)&f->table, &f->table_cap, f->width * steps, sizeof(double)) ||
           reserve((void **)&f->alpha, &f->alpha_cap, steps, sizeof(double)) ||
           reserve((void **)&f->coef, &f->coef_cap, steps, sizeof(double));
}

void fit_close(fit_t *f)
{
    if (f == NULL)
        return;
    free(f->x);
    free(f->w);
    free(f->unit_mqe);
    free(f->scratch);
    free(f->lanes);
    free(f->rc);
    free(f->alpha);
    free(f->coef);
    free(f->distinct);
    free(f->dist);
    free(f->table);
    free(f->order);
    free(f->index);
    free(f->slot);
    free(f->path);
    free(f);
}

/* Opens the fit of a rows x cols map on the n samples data[indices] of
   the run's data into *out.  The weights are a copy of the given ones,
   or, when weights is NULL, x.mean(axis=0) + u * x.std(axis=0) for the
   routed samples x and the units * dim draws u of
   Generator.uniform(-noise, noise) from stream 0 of [seed, 0, *path],
   with numpy's float operations (column_moments).  A cycle of lam epochs
   decays the learning rate from alpha0 and the radius from sigma0 down to
   sigma_floor, in blocks of steps whose table holds about TABLE_FLOATS
   doubles.  A cycle converges when the map MQE is below threshold or 0,
   and is capped when the map holds max_units units or has grown
   max_insertions times.  The fit reads the run until it is closed.
   Returns 0; -1 when out of memory and -2 for a sample index out of
   range. */
int fit_open(fit_t **out, const run_t *run, const int64_t *indices, int64_t n, int64_t rows,
             int64_t cols, const double *weights, const uint8_t *path, int64_t npath,
             double threshold, int64_t max_units)
{
    *out = NULL;
    for (int64_t i = 0; i < n; i++)
        if (indices[i] < 0 || indices[i] >= run->ndata)
            return -2;
    fit_t *f = calloc(1, sizeof(fit_t));
    if (f == NULL)
        return -1;
    int64_t units = rows * cols, dim = run->dim;
    *f = (fit_t){.rows = rows, .cols = cols, .run = run, .dim = dim, .n = n, .lam = run->lam,
                 .max_units = max_units, .assigned = 1, .threshold = threshold,
                 .npath = npath};
    if ((f->x = malloc(sizeof(double) * (size_t)(n * dim))) == NULL ||
        (f->order = malloc(sizeof(int64_t) * (size_t)(f->lam * n))) == NULL ||
        (f->dist = malloc(sizeof(double) * (size_t)n)) == NULL ||
        (f->index = malloc(sizeof(int64_t) * (size_t)n)) == NULL ||
        (f->path = malloc((size_t)npath + 1)) == NULL ||
        reserve((void **)&f->w, &f->w_cap, units * dim, sizeof(double)) ||
        reserve((void **)&f->unit_mqe, &f->unit_mqe_cap, units, sizeof(double)) ||
        set_shape(f)) {
        fit_close(f);
        return -1;
    }
    memcpy(f->path, path, (size_t)npath);
    /* before its first cycle the map stores with every sample on unit 0 */
    memset(f->index, 0, sizeof(int64_t) * (size_t)n);
    memset(f->unit_mqe, 0, sizeof(double) * (size_t)units);
    for (int64_t i = 0; i < n; i++)
        memcpy(f->x + i * dim, run->data + indices[i] * dim, sizeof(double) * (size_t)dim);
    if (weights != NULL) {
        memcpy(f->w, weights, sizeof(double) * (size_t)(units * dim));
    } else {
        /* mean and std in the scratch; the distances hold a single
           column's squares */
        double *mean = f->scratch, *std = mean + dim;
        column_moments(f->x, n, dim, mean, std, f->dist);
        for (int64_t k = 0; k < dim; k++)
            std[k] = sqrt(std[k]);
        if (uniform(f->w, units * dim, -run->noise, run->noise, run->seed, run->nseed, 0, path,
                    npath)) {
            fit_close(f);
            return -1;
        }
        for (int64_t u = 0; u < units; u++)
            for (int64_t k = 0; k < dim; k++)
                f->w[u * dim + k] = mean[k] + f->w[u * dim + k] * std[k];
    }
    *out = f;
    return 0;
}

/* Schedules the block of steps from start: returns its steps and fills
   its learning rates and its (width, steps) table of neighbourhood
   weights, as numpy computes them for a cycle of total steps:

       frac = 1.0 - np.arange(start, start + steps) / total
       alpha = alpha0 * frac
       sigma = np.maximum(sigma_floor, sigma0 * frac)
       table = exp(np.multiply(distinct[:, None], -0.5 / (sigma * sigma)))

   where exp gives numpy's AVX-512 bits (exp_block).  Row 0, at
   distance 0, is exp(-0.0) = 1.  The last steps of a cycle sit at the
   radius floor and share one coef: their columns are one exp, copied. */
static int64_t schedule(fit_t *f, int64_t start)
{
    int64_t total = f->lam * f->n, block = block_steps(f);
    int64_t steps = total - start < block ? total - start : block;
    const run_t *run = f->run;
    double sigma0 = run->has_sigma0 ? run->sigma0
                                    : (double)(f->rows > f->cols ? f->rows : f->cols) / 2;
    for (int64_t s = 0; s < steps; s++) {
        double frac = 1.0 - (double)(start + s) / (double)total;
        f->alpha[s] = run->alpha0 * frac;
        double v = sigma0 * frac;
        /* np.maximum: a NaN propagates */
        double sigma = run->sigma_floor >= v ? run->sigma_floor : v;
        f->coef[s] = -0.5 / (sigma * sigma);
        f->table[s] = 1.0;
    }
    /* steps same .. steps - 1 have the bits of the last step's coef */
    int64_t same = steps - 1;
    while (same > 0 && bits_of(f->coef[same - 1]) == bits_of(f->coef[steps - 1]))
        same--;
    for (int64_t j = 1; j < f->width; j++) {
        double *row = f->table + j * steps;
        for (int64_t s = 0; s <= same; s++)
            row[s] = f->distinct[j] * f->coef[s];
        exp_block(row, same + 1);
        for (int64_t s = same + 1; s < steps; s++)
            row[s] = row[same];
    }
    return steps;
}

/* One growth cycle: draws its lam permutations of the samples from the
   stream [seed, stream, *path] and trains them block by block; then it
   assigns the samples, scores the units and the map and gives the
   verdict.  Returns 0, or -1 when out of memory. */
int fit_train(fit_t *f, uint64_t stream)
{
    int64_t total = f->lam * f->n, units = f->rows * f->cols;
    if (draw_permutations(f->order, total, f->n, f->run->seed, f->run->nseed, stream, f->path,
                          f->npath))
        return -1;
    to_lanes(f->lanes, f->w, units, f->dim);
    for (int64_t start = 0, steps; start < total; start += steps) {
        steps = schedule(f, start);
        train_block(&f->L, f->x, f->order + start, steps, f->table, f->width, f->alpha,
                    f->scratch);
    }
    from_lanes(f->w, f->lanes, units, f->dim);
    if (assign(f->x, f->n, f->w, units, f->dim, f->dist, f->index, f->unit_mqe, &f->mqe))
        return -1;
    f->assigned = 1;
    if (f->mqe < f->threshold || f->mqe == 0.0)
        f->verdict = CONVERGED;
    else if (units >= f->max_units || f->insertions >= f->run->max_insertions)
        f->verdict = CAPPED;
    else
        f->verdict = GROW;
    return 0;
}

/* Inserts the row or column that follows a cycle (pick_insertion,
   insert), in place.  Returns 1 for a column and 2 for a row insertion;
   -1 when out of memory and -3 when no neighbour's distance compares. */
int fit_grow(fit_t *f)
{
    int64_t lo;
    int axis = pick_insertion(f->w, f->rows, f->cols, f->dim, f->unit_mqe, f->scratch, &lo);
    if (axis < 0)
        return -3;
    int64_t rows = f->rows + (axis == 2), cols = f->cols + (axis == 1), units = rows * cols;
    if (reserve((void **)&f->w, &f->w_cap, units * f->dim, sizeof(double)) ||
        reserve((void **)&f->unit_mqe, &f->unit_mqe_cap, units, sizeof(double)))
        return -1;
    insert(f->w, f->rows, f->cols, f->dim, axis, lo);
    f->rows = rows;
    f->cols = cols;
    f->insertions++;
    f->assigned = 0;
    return set_shape(f) ? -1 : axis;
}

/* Copies the fitted map out: its (rows, cols, dim) weights, (rows, cols)
   unit errors and each sample's row-major unit index, row * cols + col.
   Returns 0, or -4 after an insertion, whose map has no assignment until
   its next cycle. */
int fit_store(const fit_t *f, double *w, double *unit_mqe, int64_t *units)
{
    if (!f->assigned)
        return -4;
    int64_t size = f->rows * f->cols;
    memcpy(w, f->w, sizeof(double) * (size_t)(size * f->dim));
    memcpy(unit_mqe, f->unit_mqe, sizeof(double) * (size_t)size);
    memcpy(units, f->index, sizeof(int64_t) * (size_t)f->n);
    return 0;
}

/* ---- Calinski-Harabasz sums ----------------------------------------------

   The between- and within-cluster sums of evaluation.ch_index for the
   C-contiguous (n, dim) rows x, grouped by cluster: cluster j is the next
   sizes[j] >= 1 rows.  With the (dim) data mean center, out[0] is bgss and
   out[1] wgss as these numpy expressions give them:

       centroids = np.array([x[a:b].sum(axis=0) for a, b in spans]) / sizes[:, None]
       between = sizes * ((centroids - center) ** 2).sum(axis=1)
       within = [((x[a:b] - centroid) ** 2).sum() for each cluster]
       bgss, wgss = np.cumsum(between)[-1], np.cumsum(within)[-1]

   that is column_sums of the cluster's rows, divided by its size; the
   size times 0.0 plus the pairwise sum of the squared differences to the
   center; 0.0 plus one pairwise run over the cluster's squared
   differences to its centroid, in row-major order; each total added up
   in cluster order from the first term.  Returns 0; -1 when out of
   memory and -2 when the sizes are not positive or do not add up to n. */
int ch_sums(const double *x, int64_t n, int64_t dim, const int64_t *sizes, int64_t k,
            const double *center, double *out)
{
    int64_t total = 0, largest = 0;
    for (int64_t j = 0; j < k; j++) {
        if (sizes[j] < 1)
            return -2;
        total += sizes[j];
        largest = sizes[j] > largest ? sizes[j] : largest;
    }
    if (total != n)
        return -2;
    double *centroid = malloc(sizeof(double) * (size_t)(dim + largest * dim));
    if (centroid == NULL)
        return -1;
    double *squares = centroid + dim;
    double bgss = 0.0, wgss = 0.0;
    for (int64_t j = 0; j < k; j++) {
        int64_t size = sizes[j];
        column_sums(x, size, dim, NULL, centroid, NULL);
        for (int64_t d = 0; d < dim; d++) {
            centroid[d] = centroid[d] / (double)size;
            double t = centroid[d] - center[d];
            squares[d] = t * t;
        }
        double between = (double)size * (0.0 + pairwise_sum(squares, dim));
        for (int64_t i = 0; i < size; i++) {
            for (int64_t d = 0; d < dim; d++) {
                double t = x[i * dim + d] - centroid[d];
                squares[i * dim + d] = t * t;
            }
        }
        double within = 0.0 + pairwise_sum(squares, size * dim);
        bgss = j ? bgss + between : between;
        wgss = j ? wgss + within : within;
        x += size * dim;
    }
    free(centroid);
    out[0] = bgss;
    out[1] = wgss;
    return 0;
}

/* x.var(axis=0) of the C-contiguous (n, dim) samples x, in var: the bits
   of numpy's _var (column_moments) without its (n, dim) array of squared
   deviations.  Returns 0, or -1 when out of memory. */
int column_var(const double *x, int64_t n, int64_t dim, double *var)
{
    double *mean = malloc(sizeof(double) * (size_t)(dim + (dim == 1 ? n : 0)));
    if (mean == NULL)
        return -1;
    column_moments(x, n, dim, mean, var, mean + dim);
    free(mean);
    return 0;
}

/* Clinger's fast path (PLDI 1990): a decimal m * 10^k with m < 2^53 and
   |k| <= 22 is one correctly rounded multiplication or division of two
   exact doubles, 10^22 being the largest power of ten a double holds.  It
   needs every operation rounded to double, which FLT_EVAL_METHOD 0
   promises; elsewhere every number goes to strtod. */
#if defined(FLT_EVAL_METHOD) && FLT_EVAL_METHOD == 0
#define FAST_PATH 1
#else
#define FAST_PATH 0
#endif

/* exponent digits stop accumulating at this magnitude, so a number whose
   exponent reaches it goes to strtod: its k would be wrong */
#define EXP_CAP 1000000

static const double exact_pow10[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

static int is_digit(char c) { return c >= '0' && c <= '9'; }

/* Length in bytes of the padding character at p, or 0: the characters
   float() strips from a number (str.isspace() without the ASCII
   separators 0x1c-0x1f, which it rejects), in UTF-8, less CR and LF. */
static int space_len(const char *p)
{
    const unsigned char *u = (const unsigned char *)p;
    if (u[0] == ' ' || u[0] == '\t' || u[0] == '\v' || u[0] == '\f')
        return 1;
    if (u[0] == 0xc2)  /* U+0085, U+00A0 */
        return u[1] == 0x85 || u[1] == 0xa0 ? 2 : 0;
    if (u[0] == 0xe1)  /* U+1680 */
        return u[1] == 0x9a && u[2] == 0x80 ? 3 : 0;
    if (u[0] == 0xe2 && u[1] == 0x80)  /* U+2000..U+200A, U+2028, U+2029, U+202F */
        return (u[2] >= 0x80 && u[2] <= 0x8a) || u[2] == 0xa8 || u[2] == 0xa9 ||
               u[2] == 0xaf ? 3 : 0;
    if (u[0] == 0xe2)  /* U+205F */
        return u[1] == 0x81 && u[2] == 0x9f ? 3 : 0;
    if (u[0] == 0xe3)  /* U+3000 */
        return u[1] == 0x80 && u[2] == 0x80 ? 3 : 0;
    return 0;
}

static const char *skip_spaces(const char *p)
{
    if ((unsigned char)*p > ' ' && (unsigned char)*p < 0x80)  /* the common case */
        return p;
    for (int n; (n = space_len(p)) > 0;)
        p += n;
    return p;
}

/* A byte an id or label field may hold: csv gives none of these a
   special meaning, and float() strips none of them. */
static int is_text(unsigned char c)
{
    return c != ',' && c != '\r' && c != '\n' && c != '"' && c != 0 &&
           !(c >= 0x1c && c <= 0x1f);
}

/* Parses the number field at *pp, which must match
       ws* [+-]? (d+ (. d*)? | . d+) ([eE] [+-]? d+)? ws*
   with ws any space_len character, and stores float()'s value of it in
   *out; *pp moves past the field.  Returns 0, or -1 when the field is outside that grammar, strtod does
   not read exactly the validated text (a non-C LC_NUMERIC), or the value
   is not finite. */
static int parse_number(const char **pp, double *out)
{
    const char *p = skip_spaces(*pp);
    const char *start = p;
    int negative = *p == '-';
    if (*p == '+' || *p == '-')
        p++;
    /* m: the significant digits, from the first nonzero one (it wraps
       past 19 of them, but is read only for at most 15); nd counts them,
       frac the digits after the point */
    uint64_t m = 0;
    int64_t nd = 0, frac = 0;
    const char *first = p;
    while (*p == '0')
        p++;
    for (; is_digit(*p); p++, nd++)
        m = m * 10 + (uint64_t)(*p - '0');
    int64_t digits = p - first;
    if (*p == '.') {
        const char *point = ++p;
        if (nd == 0)
            while (*p == '0')
                p++;
        for (; is_digit(*p); p++, nd++)
            m = m * 10 + (uint64_t)(*p - '0');
        frac = p - point;
        digits += frac;
    }
    if (digits == 0)
        return -1;
    int64_t exp10 = 0;
    if (*p == 'e' || *p == 'E') {
        p++;
        int exp_negative = *p == '-';
        if (*p == '+' || *p == '-')
            p++;
        if (!is_digit(*p))
            return -1;
        for (; is_digit(*p); p++)
            if (exp10 < EXP_CAP)
                exp10 = exp10 * 10 + (*p - '0');
        if (exp_negative)
            exp10 = -exp10;
    }
    const char *end = p;
    *pp = skip_spaces(p);

    int64_t k = exp10 - frac;
    double v;
    if (nd == 0) {
        v = negative ? -0.0 : 0.0;
    } else if (FAST_PATH && nd <= 15 && exp10 < EXP_CAP && k >= -22 && k <= 22) {
        v = k < 0 ? (double)m / exact_pow10[-k] : (double)m * exact_pow10[k];
        if (negative)
            v = -v;
    } else {
        char *stop;
        v = strtod(start, &stop);
        if (stop != end)
            return -1;
    }
    if (!isfinite(v))
        return -1;
    *out = v;
    return 0;
}

/* quick_number_sse needs x86-64 and GCC's or Clang's target attribute
   and CPU check, besides FAST_PATH. */
#if FAST_PATH && defined(__x86_64__) && defined(__GNUC__)
#define SSE_STEP 1
#else
#define SSE_STEP 0
#endif

#if SSE_STEP
#include <immintrin.h>

/* Parses the number field at *pp in one step when it is [+-]digits[.digits]
   with a digit, at most 16 bytes and ending in ',', '\n' or '\r', in the
   pshufb and pmaddubsw digit conversion of Langdale & Lemire (VLDB Journal
   28(6), 2019): one 16-byte load gives the masks of the digits and the
   points, the end is the first byte that is neither a digit, nor the first
   point, nor a sign at byte 0, one pshufb right-aligns the digits without
   the point, and multiply-adds combine digits into pairs, quads and two
   8-digit halves, whose value is m.  With a point, m has at most 15
   digits, so Clinger's one division, as in parse_number, rounds it
   correctly; without one, converting m is the one rounding.  Reads 17
   bytes from *pp.  Returns 0 and moves *pp past the field, or -1 and
   leaves the field to parse_number. */
__attribute__((target("ssse3,sse4.1"))) static inline int quick_number_sse(const char **pp,
                                                                          double *out)
{
    const char *p = *pp;
    __m128i v = _mm_loadu_si128((const __m128i *)p);
    __m128i t = _mm_sub_epi8(v, _mm_set1_epi8('0'));
    __m128i is_digit = _mm_cmpeq_epi8(_mm_min_epu8(t, _mm_set1_epi8(9)), t);
    unsigned digits = (unsigned)_mm_movemask_epi8(is_digit);
    unsigned points = (unsigned)_mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_set1_epi8('.')));
    unsigned sign = (*p == '-') | (*p == '+'), dot = points & -points;
    int end = __builtin_ctz(~(digits | dot | sign)), point = __builtin_ctz(dot | 0x10000);
    int has_point = point < end;
    if (end - (int)sign - has_point < 1 || (p[end] != ',' && p[end] != '\n' && p[end] != '\r'))
        return -1;
    /* byte i takes the field's byte i + end - 16, or, up to where the
       point lands, the one before it; a negative index gives 0 */
    int frac = has_point ? end - point - 1 : 0;
    __m128i index = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    __m128i after = _mm_cmpgt_epi8(index, _mm_set1_epi8((char)(has_point ? 15 - frac : -1)));
    index = _mm_sub_epi8(_mm_add_epi8(index, _mm_set1_epi8((char)(end - 17))), after);
    __m128i d = _mm_shuffle_epi8(_mm_and_si128(t, is_digit), index);
    d = _mm_maddubs_epi16(d, _mm_setr_epi8(10, 1, 10, 1, 10, 1, 10, 1, 10, 1, 10, 1, 10, 1, 10, 1));
    d = _mm_madd_epi16(d, _mm_setr_epi16(100, 1, 100, 1, 100, 1, 100, 1));
    d = _mm_packus_epi32(d, d);
    d = _mm_madd_epi16(d, _mm_setr_epi16(10000, 1, 10000, 1, 10000, 1, 10000, 1));
    uint64_t halves = (uint64_t)_mm_cvtsi128_si64(d);
    uint64_t m = (halves & 0xffffffffu) * 100000000u + (halves >> 32);
    double value = frac ? (double)m / exact_pow10[frac] : (double)m;
    *out = of_bits(bits_of(value) | (uint64_t)(*p == '-') << 63);
    *pp = p + end;
    return 0;
}
#endif

/* The number of "\n" bytes in buf[pos .. len), found by memchr. */
int64_t count_lines(const char *buf, int64_t len, int64_t pos)
{
    int64_t count = 0;
    const char *end = buf + len;
    for (const char *p = buf + pos; (p = memchr(p, '\n', (size_t)(end - p))) != NULL; p++)
        count++;
    return count;
}

/* parse_block's record loop, with one_step the one-step number read it
   tries first, or NULL for none; each form of parse_block inlines it with
   its own. */
static inline __attribute__((always_inline)) int
parse_records(const char *buf, int64_t len, int64_t pos, int64_t rows, int64_t fields,
              int64_t label, int64_t limit, double *values, int64_t *spans,
              int (*one_step)(const char **, double *))
{
    const char *p = buf + pos, *stop = buf + len;
    for (int64_t r = 0; r < rows; r++) {
        if (p == stop)
            return -1;
        int64_t *span = spans + 4 * r;
        for (int64_t f = 0; f < fields; f++) {
            const char *start = p;
            if (f == 0 || f == label) {
                while (is_text((unsigned char)*p))
                    p++;
                int64_t *s = f == 0 ? span : span + 2;
                s[0] = start - buf;
                s[1] = p - buf;
            } else {
                if ((!one_step || stop - p < 32 || one_step(&p, values)) &&
                    parse_number(&p, values))
                    return -1;
                values++;
            }
            if (p - start > limit)
                return -1;
            if (f + 1 < fields && *p++ != ',')
                return -1;
        }
        if (*p == '\n')
            p += 1;
        else if (*p == '\r' && p[1] == '\n')
            p += 2;
        else if (p != stop)
            return -1;
    }
    return p == stop ? 0 : -1;
}

#if SSE_STEP
__attribute__((target("ssse3,sse4.1"))) static int
parse_block_sse(const char *buf, int64_t len, int64_t pos, int64_t rows, int64_t fields,
                int64_t label, int64_t limit, double *values, int64_t *spans)
{
    return parse_records(buf, len, pos, rows, fields, label, limit, values, spans,
                         quick_number_sse);
}

/* Whether this CPU runs quick_number_sse's instructions. */
static int sse_cpu(void)
{
    return __builtin_cpu_supports("ssse3") && __builtin_cpu_supports("sse4.1");
}
#endif

/* Parses the body of a CSV file, or a part of it: `rows` records from
   buf + pos to buf + len, where buf[len] is 0 or buf[len - 1] is "\n".  A
   record is `fields` comma-separated fields ending in "\n", "\r\n" or,
   for the last one, the end of the buffer; no field may be longer than
   `limit` bytes.  Field 0 is the id and field `label` (-1: none) the
   label: each may hold any byte is_text accepts, and their [start, end)
   offsets in buf go to row r of the (rows, 4) spans (label ones unset
   without a label).  Every other field is a number, stored in order in
   row r of the (rows, fields - 1 - has_label) values: on a CPU with SSSE3
   and SSE4.1, checked at each call, quick_number_sse reads it where at
   least 32 bytes remain, and parse_number reads every field it does not
   take; on any other CPU parse_number reads them all.  Returns 0, or -1
   when the body is anything else: a lone "\r", a blank line, a ragged
   row, a quote or NUL, a number float() would read otherwise or not at
   all.

   No byte at or past buf + len decides anything, so the parts of one
   body, cut after a "\n", parse at once on separate threads: a record
   starts only before buf + len; every scan of a field stops at a "\n"
   (or the 0); space_len, past a lead byte, and the line end, past a
   "\r", read the byte after one only when that one is not a "\n", so
   never past the part's last byte; and quick_number_sse reads 17 bytes
   where 32 remain. */
int parse_block(const char *buf, int64_t len, int64_t pos, int64_t rows,
                int64_t fields, int64_t label, int64_t limit,
                double *values, int64_t *spans)
{
#if SSE_STEP
    if (sse_cpu())
        return parse_block_sse(buf, len, pos, rows, fields, label, limit, values, spans);
#endif
    return parse_records(buf, len, pos, rows, fields, label, limit, values, spans, NULL);
}

/* Ryū (Adams, PLDI 2018) finds, for a double, the shortest decimal that
   reads back as it and, of those, the nearest, ties to even: the digits
   repr() takes from Gay's dtoa in mode 0.  It scales the double's bounds
   by 5^q or 2^k / 5^q held to POW5_BITS bits.  POW5_SPLIT and
   POW5_INV_SPLIT hold those for q a multiple of 26, (low, high) halves;
   one product with POW5[q % 26] scales them to any other q, and
   POW5_OFFSETS and POW5_INV_OFFSETS, two bits per q, add back what that
   product loses to truncation.  tests/oracles.py derives every table
   from Python's integers. */
#define POW5_BITS 125

static const uint64_t POW5[26] = {
    1u, 5u, 25u, 125u,
    625u, 3125u, 15625u, 78125u,
    390625u, 1953125u, 9765625u, 48828125u,
    244140625u, 1220703125u, 6103515625u, 30517578125u,
    152587890625u, 762939453125u, 3814697265625u, 19073486328125u,
    95367431640625u, 476837158203125u, 2384185791015625u, 11920928955078125u,
    59604644775390625u, 298023223876953125u,
};
static const uint64_t POW5_SPLIT[13][2] = {
    {0x0000000000000000u, 0x1000000000000000u}, {0x0000000000000000u, 0x14adf4b7320334b9u},
    {0x0e549208b31adb10u, 0x1aba4714957d300du}, {0x6dc6ad264d8f0866u, 0x1145b7e285bf98f5u},
    {0xeb1dbd923d8596cau, 0x1652efdc6018a1fcu}, {0xb4c1b80b22ae923cu, 0x1cda62055b2d9d83u},
    {0x5bb28b4e8f7e4c30u, 0x12a5568b9f52f416u}, {0xf08aed437682d4fbu, 0x1819651531f9e78fu},
    {0xb4ee134ad99bf150u, 0x1f25c186a6f04c28u}, {0x16499ecb70c25f03u, 0x1420eb449c8842e6u},
    {0x85a56ead360865b0u, 0x1a03fde214caf085u}, {0x093db1d57999890bu, 0x10cfeb353a97dad8u},
    {0xcf38bb735e3f36acu, 0x15baaf44fa52673eu},
};
static const uint64_t POW5_INV_SPLIT[13][2] = {
    {0x0000000000000001u, 0x2000000000000000u}, {0x52a6c95fc0655034u, 0x18c240c4aecb13bbu},
    {0x7ca8d50071dfc806u, 0x1327fc58da0f6ff5u}, {0x6520247d3556476eu, 0x1da48ce468e7c702u},
    {0x6139cdd76802e6e9u, 0x16ef5b40c2fc7779u}, {0xf951a7ff43de8c79u, 0x11bebdf578b2f391u},
    {0x7be8bee8d6e957e8u, 0x1b758d848fac54b0u}, {0x8bd3f9e999a423eau, 0x153eda614071a3b7u},
    {0x0848f973cb3ee3ceu, 0x10701bd527b4978cu}, {0x153285ebb9efbfa2u, 0x196fbb9bb44db44du},
    {0xadeee7f86c07b696u, 0x13ae3591f5b4d936u}, {0x4d686a4eaf182222u, 0x1e74404f3daada91u},
    {0x98c0a106e09ebd9fu, 0x17900ea4fda7c257u},
};
static const uint32_t POW5_OFFSETS[21] = {
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x40000000u,
    0x59695995u, 0x55545555u, 0x56555515u, 0x41150504u, 0x40555410u,
    0x44555145u, 0x44504540u, 0x45555550u, 0x40004000u, 0x96440440u,
    0x55565565u, 0x54454045u, 0x40154151u, 0x55559155u, 0x51405555u,
    0x00000105u,
};
static const uint32_t POW5_INV_OFFSETS[19] = {
    0x54544554u, 0x04055545u, 0x10041000u, 0x00400414u, 0x40010000u,
    0x41155555u, 0x00000454u, 0x00010044u, 0x40000000u, 0x44000041u,
    0x50454450u, 0x55550054u, 0x51655554u, 0x40004000u, 0x01000001u,
    0x00010500u, 0x51515411u, 0x05555554u, 0x00000000u,
};

/* bits(5^e) for 0 <= e <= 3528, floor(log10(2^e)) for 0 <= e <= 1650 and
   floor(log10(5^e)) for 0 <= e <= 2620 */
static int32_t pow5_bits(int32_t e) { return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1; }
static int32_t log10_pow2(int32_t e) { return (int32_t)(((uint32_t)e * 78913) >> 18); }
static int32_t log10_pow5(int32_t e) { return (int32_t)(((uint32_t)e * 732923) >> 20); }

static u128 pair(const uint64_t *halves) { return (u128)halves[1] << 64 | halves[0]; }

/* the two bits of q in a table of offsets */
static uint32_t offset_of(const uint32_t *offsets, int32_t q)
{
    return (offsets[q / 16] >> (2 * (q % 16))) & 3;
}

/* 5^q's top POW5_BITS bits, for 0 <= q < 326 */
static u128 pow5_split(int32_t q)
{
    int32_t base = q / 26, k = q % 26;
    u128 mul = pair(POW5_SPLIT[base]);
    if (k == 0)
        return mul;
    int32_t shift = pow5_bits(q) - pow5_bits(26 * base);
    u128 lo = (u128)POW5[k] * (uint64_t)mul, hi = (u128)POW5[k] * (uint64_t)(mul >> 64);
    return (lo >> shift) + (hi << (64 - shift)) + offset_of(POW5_OFFSETS, q);
}

/* 2^(bits(5^q) - 1 + POW5_BITS) / 5^q rounded down, plus 1, for
   0 <= q < 291 */
static u128 pow5_inv_split(int32_t q)
{
    int32_t base = (q + 25) / 26, k = 26 * base - q;
    u128 mul = pair(POW5_INV_SPLIT[base]);
    if (k == 0)
        return mul;
    mul -= 1;
    int32_t shift = pow5_bits(26 * base) - pow5_bits(q);
    u128 lo = (u128)POW5[k] * (uint64_t)mul, hi = (u128)POW5[k] * (uint64_t)(mul >> 64);
    return (lo >> shift) + (hi << (64 - shift)) + 1 + offset_of(POW5_INV_OFFSETS, q);
}

/* (m * mul) >> j, rounded down, for m < 2^55, mul < 2^125 and j >= 64 */
static uint64_t mul_shift(uint64_t m, u128 mul, int32_t j)
{
    u128 lo = (u128)m * (uint64_t)mul, hi = (u128)m * (uint64_t)(mul >> 64);
    return (uint64_t)(((lo >> 64) + hi) >> (j - 64));
}

/* whether 5^p divides v > 0 */
static int divides_pow5(uint64_t v, int32_t p)
{
    for (; p > 0; p--, v /= 5)
        if (v % 5)
            return 0;
    return 1;
}

/* Ryū's decimal for the positive finite double of these mantissa and
   exponent fields: *digits * 10^*exp10.  The double rounds to nearest,
   ties to even, so it is the one double in the open interval between the
   midpoints to its neighbours, closed when its mantissa is even.  vr, vp
   and vm are the double and those midpoints times 4 * 10^-e10; digits are
   dropped from all three while the interval still holds a number of
   fewer digits, and the last one dropped from vr rounds it. */
static void shortest(uint64_t mantissa, uint32_t exponent, uint64_t *digits, int32_t *exp10)
{
    int32_t e2 = (exponent ? (int32_t)exponent : 1) - 1023 - 52 - 2;
    uint64_t m2 = exponent ? (uint64_t)1 << 52 | mantissa : mantissa;
    int even = (m2 & 1) == 0;
    uint64_t mv = 4 * m2;
    /* the gap below a power of two is half the gap above */
    uint64_t below = mantissa != 0 || exponent <= 1 ? 2 : 1;
    uint64_t vr, vp, vm;
    int32_t e10;
    /* whether the digits dropped from vm, or from vr, are all 0 */
    int vm_zeros = 0, vr_zeros = 0;
    if (e2 >= 0) {
        int32_t q = log10_pow2(e2) - (e2 > 3);
        e10 = q;
        int32_t j = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        u128 mul = pow5_inv_split(q);
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - below, mul, j);
        if (q <= 21) {
            /* mv * 2^e2 / 10^q is exact when 5^q divides mv */
            if (mv % 5 == 0)
                vr_zeros = divides_pow5(mv, q);
            else if (even)
                vm_zeros = divides_pow5(mv - below, q);
            else
                vp -= divides_pow5(mv + 2, q);
        }
    } else {
        int32_t q = log10_pow5(-e2) - (-e2 > 1);
        e10 = q + e2;
        int32_t i = -e2 - q;
        int32_t j = q - (pow5_bits(i) - POW5_BITS);
        u128 mul = pow5_split(i);
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - below, mul, j);
        if (q <= 1) {
            vr_zeros = 1;
            if (even)
                vm_zeros = below == 2;
            else
                vp--;
        } else if (q < 63) {
            /* mv * 5^-e2 * 2^e2 / 10^e10 is exact when 2^q divides mv */
            vr_zeros = (mv & (((uint64_t)1 << q) - 1)) == 0;
        }
    }
    int32_t removed = 0;
    uint64_t last = 0;
    if (vm_zeros || vr_zeros) {
        for (; vp / 10 > vm / 10; removed++) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = vr % 10;
            vr /= 10, vp /= 10, vm /= 10;
        }
        if (vm_zeros)
            for (; vm % 10 == 0; removed++) {
                vr_zeros &= last == 0;
                last = vr % 10;
                vr /= 10, vp /= 10, vm /= 10;
            }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4;  /* exactly halfway: to even */
        *digits = vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
    } else {
        for (; vp / 10 > vm / 10; removed++) {
            last = vr % 10;
            vr /= 10, vp /= 10, vm /= 10;
        }
        *digits = vr + (vr == vm || last >= 5);
    }
    *exp10 = e10 + removed;
}

/* "00" .. "99" */
static const char DIGIT_PAIRS[201] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* Writes the decimal digits of v < 10^17 to end in front of end; returns
   where they start.  Two at a time, the last 8 apart in 32-bit
   arithmetic. */
static char *write_digits(uint64_t v, char *end)
{
    if (v >= 100000000) {
        uint32_t lo = (uint32_t)(v % 100000000);
        v /= 100000000;
        for (int k = 0; k < 4; k++, lo /= 100)
            memcpy(end -= 2, DIGIT_PAIRS + 2 * (lo % 100), 2);
    }
    uint32_t hi = (uint32_t)v;
    for (; hi >= 100; hi /= 100)
        memcpy(end -= 2, DIGIT_PAIRS + 2 * (hi % 100), 2);
    if (hi >= 10)
        memcpy(end -= 2, DIGIT_PAIRS + 2 * hi, 2);
    else
        *--end = (char)('0' + hi);
    return end;
}

/* Writes repr(v), at most 24 bytes, at out; returns its length.  repr
   writes the shortest digits d1 .. dn of v = 0.d1..dn * 10^point as
   d1.d2..dn e(point - 1), with at least two exponent digits, when point
   <= -4 or point > 16, else as a decimal with a digit on each side of
   the point. */
static int format_repr(double v, char *out)
{
    uint64_t bits = bits_of(v), mantissa = bits & (((uint64_t)1 << 52) - 1);
    uint32_t exponent = (uint32_t)(bits >> 52) & 0x7ff;
    char *p = out;
    if (exponent == 0x7ff && mantissa) {
        memcpy(p, "nan", 3);
        return 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (exponent == 0x7ff) {
        memcpy(p, "inf", 3);
        return (int)(p + 3 - out);
    }
    if (exponent == 0 && mantissa == 0) {
        memcpy(p, "0.0", 3);
        return (int)(p + 3 - out);
    }
    uint64_t digits;
    int32_t exp10;
    shortest(mantissa, exponent, &digits, &exp10);
    for (; digits % 100 == 0; exp10 += 2)
        digits /= 100;
    if (digits % 10 == 0)
        digits /= 10, exp10++;
    char buf[20], *d = write_digits(digits, buf + sizeof(buf));
    int n = (int)(buf + sizeof(buf) - d);
    int32_t point = exp10 + n;
    if (point <= -4 || point > 16) {
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, (size_t)(n - 1));
            p += n - 1;
        }
        int32_t e = point - 1;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (e < 0)
            e = -e;
        if (e >= 100)
            *p++ = (char)('0' + e / 100);
        *p++ = (char)('0' + e / 10 % 10);
        *p++ = (char)('0' + e % 10);
    } else if (point <= 0) {
        memcpy(p, "0.000", (size_t)(2 - point));
        memcpy(p + 2 - point, d, (size_t)n);
        p += 2 - point + n;
    } else if (point >= n) {
        memcpy(p, d, (size_t)n);
        memset(p + n, '0', (size_t)(point - n));
        memcpy(p + point, ".0", 2);
        p += point + 2;
    } else {
        memcpy(p, d, (size_t)point);
        p[point] = '.';
        memcpy(p + point + 1, d + point, (size_t)(n - point));
        p += n + 1;
    }
    return (int)(p - out);
}

/* Writes each of the `rows` rows of the row-major (rows, cols) values as
   "," and repr() of each value, then "\n"; returns the number of bytes
   written, at most rows * (25 * cols + 1). */
int64_t format_rows(const double *values, int64_t rows, int64_t cols, char *out)
{
    char *p = out;
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t c = 0; c < cols; c++) {
            *p++ = ',';
            p += format_repr(*values++, p);
        }
        *p++ = '\n';
    }
    return p - out;
}
