/* Compiled inner loops of ghsomkit: a map fit's context (initial weights,
   schedule, SOM training, BMU assignment, stop verdict and row/column
   insertion), the maps' random streams and the CSV number block.

   Each SOM function performs the float operations of the numpy
   expressions it stands for, in the same order, so its results are the
   same bits.  That holds only when built without -ffast-math and with
   -ffp-contract=off: a fused multiply-add rounds once where numpy rounds
   twice.  parse_block converts each number to the double float() returns,
   the correctly rounded one. */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The training pass works on 8 doubles at a time through GCC vector
   extensions.  Every lane rounds each operation as the scalar code does,
   so the vector width changes no bit; loads and stores go through memcpy,
   which needs no alignment.  On x86-64 the training functions are built
   for AVX-512F, AVX2 and the baseline, and the loader picks the widest
   the CPU supports; that dispatch (an ifunc) needs glibc. */
#define LANES 8
typedef double vec __attribute__((vector_size(LANES * sizeof(double))));
#define LOAD(v, p) memcpy(&(v), (p), sizeof(vec))
#define STORE(p, v) memcpy((p), &(v), sizeof(vec))

#if defined(__x86_64__) && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define CLONES
#endif

/* numpy's pairwise summation (DOUBLE_pairwise_sum) sums up to this many
   terms with 8 accumulators, and splits longer runs in two */
#define PW_BLOCKSIZE 128

/* One unit's run of n <= PW_BLOCKSIZE weights w, in one pass: when
   `update`, first w = w + diff * h; then diff = x - w, and the return
   value is the sum of diff * diff in numpy's pairwise order: a plain loop
   from -0.0 below 8 terms, otherwise 8 accumulators (the lanes of one
   vector) combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
   scalar tail. */
static inline __attribute__((always_inline)) double
fused_run(double *w, double *diff, const double *x, double h, int64_t n, int update)
{
    double res = -0.0;
    int64_t k = 0;
    if (n >= LANES) {
        vec wv, dv, xv, acc;
        for (; k < n - n % LANES; k += LANES) {
            LOAD(wv, w + k);
            LOAD(xv, x + k);
            if (update) {
                LOAD(dv, diff + k);
                wv = wv + dv * h;
                STORE(w + k, wv);
            }
            dv = xv - wv;
            STORE(diff + k, dv);
            if (k == 0)
                acc = dv * dv;
            else
                acc = acc + dv * dv;
        }
        res = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
              ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    }
    for (; k < n; k++) {
        if (update)
            w[k] = w[k] + diff[k] * h;
        double t = x[k] - w[k];
        diff[k] = t;
        res += t * t;
    }
    return res;
}

/* fused_run over any n: above PW_BLOCKSIZE terms the two halves, split at
   a multiple of 8, are summed recursively, as numpy does. */
CLONES static double fused_row(double *w, double *diff, const double *x, double h,
                               int64_t n, int update)
{
    if (n <= PW_BLOCKSIZE)
        return update ? fused_run(w, diff, x, h, n, 1) : fused_run(w, diff, x, h, n, 0);
    int64_t n2 = n / 2;
    n2 -= n2 % LANES;
    double left = fused_row(w, diff, x, h, n2, update);
    return left + fused_row(w + n2, diff + n2, x + n2, h, n - n2, update);
}

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
   (0.0 + pairwise sum) / count, or 0 for a unit without samples.  Given
   map_mqe, it also receives the mean of the occupied units' errors as
   SomMap.mqe takes it: their row-major array summed, (0.0 + pairwise
   sum), divided by their count.  Returns 0, or -1 when out of memory. */
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
    if (map_mqe != NULL)
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
    uint64_t mask = max, value;
    for (int shift = 1; shift < 64; shift *= 2)
        mask |= mask >> shift;
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
int uniform(double *out, int64_t count, double low, double high, const uint8_t *seed,
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

/* ---- training and growth ----------------------------------------------- */

/* Online SOM updates of the (rows * cols, dim) weights w, in place.  Step
   s (0 <= s < steps) presents sample x[order[s]] of the samples x:

       diff = x - w;  d = (diff * diff).sum(axis=1);  b = argmin(d)
       w = w + diff * (table[slot[g(b, u)], s] * alpha[s])

   for every unit u, where g(b, u) is the squared grid distance between
   units b and u, and column s of the (width, steps) table holds the
   step's neighbourhood kernel by distinct grid distance.  One pass over
   the weights per step applies the update and at once computes the next
   step's diff and d.  scratch holds units * dim + units + width doubles. */
CLONES static void train_block(double *w, int64_t rows, int64_t cols, int64_t dim,
                               const double *x, const int64_t *order, int64_t steps,
                               const double *table, int64_t width, const int64_t *slot,
                               const double *alpha, double *scratch)
{
    if (steps == 0)
        return;
    int64_t units = rows * cols;
    double *diff = scratch, *d = diff + units * dim, *h = d + units;
    const double *xs = x + order[0] * dim;
    for (int64_t u = 0; u < units; u++) {
        /* the reduction adds the pairwise sum to its initial 0.0 */
        d[u] = 0.0 + fused_row(w + u * dim, diff + u * dim, xs, 0.0, dim, 0);
    }
    for (int64_t s = 0; s < steps; s++) {
        int64_t b = first_argmin(d, units);
        for (int64_t j = 0; j < width; j++)
            h[j] = table[j * steps + s] * alpha[s];
        /* the last step's diff is never read: it is taken against its own
           sample rather than one past the end of order */
        xs = x + order[s + 1 < steps ? s + 1 : s] * dim;
        int64_t br = b / cols, bc = b % cols;
        for (int64_t r = 0; r < rows; r++) {
            for (int64_t c = 0; c < cols; c++) {
                int64_t u = r * cols + c;
                double hu = h[slot[(r - br) * (r - br) + (c - bc) * (c - bc)]];
                d[u] = 0.0 + fused_row(w + u * dim, diff + u * dim, xs, hu, dim, 1);
            }
        }
    }
}

/* train_block for steps start .. start + steps of order, with the
   argument checks and extras of the Python wrapper.  When seed is not
   NULL, the call first fills the norder entries of order with
   permutations of 0 .. n-1 from the stream [seed, stream, *path]
   (draw_permutations; norder must be a multiple of n).  When dist is not
   NULL, the trained map then assigns every sample and scores every unit
   (assign) into dist, index and unit_mqe.  Every entry of order[start ..
   start + steps) must be in [0, n) and each of the nslot entries of slot
   in [0, width); they are checked before w is touched.  Returns 0; -1
   when out of memory, -2 for a sample index and -3 for a table slot out
   of range. */
int train_steps(double *w, int64_t rows, int64_t cols, int64_t dim, const double *x,
                int64_t n, int64_t *order, int64_t norder, int64_t start, int64_t steps,
                const uint8_t *seed, int64_t nseed, uint64_t stream, const uint8_t *path,
                int64_t npath, const double *table, int64_t width, const int64_t *slot,
                int64_t nslot, const double *alpha, double *dist, int64_t *index,
                double *unit_mqe)
{
    if (seed != NULL && draw_permutations(order, norder, n, seed, nseed, stream, path, npath))
        return -1;
    order += start;
    for (int64_t s = 0; s < steps; s++)
        if (order[s] < 0 || order[s] >= n)
            return -2;
    for (int64_t g = 0; g < nslot; g++)
        if (slot[g] < 0 || slot[g] >= width)
            return -3;
    int64_t units = rows * cols;
    double *scratch = malloc(sizeof(double) * (size_t)(units * dim + units + width));
    if (scratch == NULL)
        return -1;
    train_block(w, rows, cols, dim, x, order, steps, table, width, slot, alpha, scratch);
    free(scratch);
    return dist == NULL ? 0 : assign(x, n, w, units, dim, dist, index, unit_mqe, NULL);
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
   of their weights summed in numpy's pairwise order (diff: dim doubles
   of scratch).  Returns 1 for a column and 2 for a row to go between
   columns or rows *lo and *lo + 1, or -1 when no neighbour's distance
   compares (NaN weights, or a 1x1 map). */
static int pick_insertion(const double *w, int64_t rows, int64_t cols, int64_t dim,
                          const double *unit_mqe, double *diff, int64_t *lo)
{
    static const int64_t steps[4][2] = {{0, 1}, {0, -1}, {1, 0}, {-1, 0}};
    int64_t e = first_argmax(unit_mqe, rows * cols), er = e / cols, ec = e % cols;
    int64_t best = -1;
    double best_d = -1.0;
    for (int64_t k = 0; k < 4; k++) {
        int64_t r = er + steps[k][0], c = ec + steps[k][1];
        if (r < 0 || r >= rows || c < 0 || c >= cols)
            continue;
        double d = fused_row((double *)w + (r * cols + c) * dim, diff, w + e * dim, 0.0, dim, 0);
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

/* One row or column insertion (pick_insertion, insert) into a copy of the
   (rows, cols, dim) weights w: out receives the (rows, cols + 1, dim)
   weights after a column insertion or the (rows + 1, cols, dim) ones
   after a row insertion, and must hold the larger of the two.  Returns 1
   for a column and 2 for a row insertion, or -1 when no neighbour's
   distance compares. */
int grow(const double *w, int64_t rows, int64_t cols, int64_t dim, const double *unit_mqe,
         double *out)
{
    int64_t units = rows * cols, lo;
    memcpy(out, w, sizeof(double) * (size_t)(units * dim));
    /* the room for the new row or column holds the differences until then */
    int axis = pick_insertion(out, rows, cols, dim, unit_mqe, out + units * dim, &lo);
    if (axis > 0)
        insert(out, rows, cols, dim, axis, lo);
    return axis;
}

/* ---- a map's fit ---------------------------------------------------------

   The state of one map's fit, from its initial weights to its stop: the
   routed samples, gathered once; the weights, grown in place by each
   insertion; the growth cycle's sample order; the table of the pending
   block's exp arguments; the assignment and unit errors of the last
   cycle, and its verdict.  A growth cycle is fit_begin, then for each
   block of steps numpy's exp of the table's first `used` entries (the
   value fit_begin or the previous fit_step returned) and fit_step, which
   returns 0 once the cycle is done.  Every buffer is sized for the
   current shape and grown on insertion. */

enum { GROW = 0, CONVERGED = 1, CAPPED = 2 };

typedef struct {
    /* read and written by the Python wrapper: keep its copy of this
       layout in step */
    int64_t rows, cols;      /* the current shape */
    int64_t verdict;         /* after a cycle: GROW, CONVERGED or CAPPED */
    double mqe;              /* after a cycle: the map MQE */
    uint64_t stream;         /* stream of the next cycle's sample order */
    double *table;           /* the pending block's exp arguments */
    int64_t table_cap;       /* doubles table holds: it grows whenever table
                                moves, which tells the wrapper to renew its view */
    /* private */
    int64_t dim, n, lam, start, steps, width, insertions;
    int64_t max_units, max_insertions, table_floats;
    int64_t w_cap, unit_mqe_cap, scratch_cap, alpha_cap, coef_cap, distinct_cap, slot_cap;
    int has_sigma0;
    double alpha0, sigma0, sigma_floor, threshold;
    double *x, *w, *unit_mqe, *scratch, *alpha, *coef, *distinct, *dist;
    int64_t *order, *index, *slot;
    uint8_t *seed, *path;
    int64_t nseed, npath;
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

/* The steps of a full block: its table holds about table_floats
   doubles, max(1, table_floats // width). */
static int64_t block_steps(const fit_t *f)
{
    int64_t steps = f->table_floats / f->width;
    return steps > 1 ? steps : 1;
}

/* The buffers that depend on the shape: the distinct squared grid
   distances of a rows x cols map, ascending, as doubles (np.unique of
   np.add.outer(np.arange(rows) ** 2, np.arange(cols) ** 2)), the row of
   each squared distance in that list (slot), the training scratch and
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
    int64_t block = block_steps(f), total = f->lam * f->n;
    int64_t steps = block < total ? block : total;
    /* the training scratch, which also holds the mean and std of the
       initial weights and the differences of the insertion */
    return reserve((void **)&f->scratch, &f->scratch_cap,
                   (units + 1) * f->dim + units + f->width, sizeof(double)) ||
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
    free(f->alpha);
    free(f->coef);
    free(f->distinct);
    free(f->dist);
    free(f->table);
    free(f->order);
    free(f->index);
    free(f->slot);
    free(f->seed);
    free(f->path);
    free(f);
}

/* Opens the fit of a rows x cols map on the n samples data[indices] of
   the (ndata, dim) data into *out.  The weights are a copy of the given
   ones, or, when weights is NULL, x.mean(axis=0) + u * x.std(axis=0) for
   the routed samples x and the units * dim draws u of
   Generator.uniform(-noise, noise) from stream 0, with numpy's float
   operations (column_sums).  A cycle of lam epochs decays the learning
   rate from alpha0 and the radius from sigma0 (without has_sigma0, half
   the larger side of the map) down to sigma_floor, in blocks of steps
   whose table holds about table_floats doubles.  A cycle converges when
   the map MQE is below threshold or 0, and is capped when the map holds
   max_units units or has grown max_insertions times.  Returns 0; -1 when
   out of memory and -2 for a sample index out of range. */
int fit_open(fit_t **out, const double *data, int64_t ndata, int64_t dim,
             const int64_t *indices, int64_t n, int64_t rows, int64_t cols,
             const double *weights, double noise, int64_t lam, double alpha0,
             int has_sigma0, double sigma0, double sigma_floor, double threshold,
             int64_t max_units, int64_t max_insertions, int64_t table_floats,
             const uint8_t *seed, int64_t nseed, const uint8_t *path, int64_t npath)
{
    *out = NULL;
    for (int64_t i = 0; i < n; i++)
        if (indices[i] < 0 || indices[i] >= ndata)
            return -2;
    fit_t *f = calloc(1, sizeof(fit_t));
    if (f == NULL)
        return -1;
    int64_t units = rows * cols;
    *f = (fit_t){.rows = rows, .cols = cols, .dim = dim, .n = n, .lam = lam,
                 .max_units = max_units, .max_insertions = max_insertions,
                 .table_floats = table_floats, .has_sigma0 = has_sigma0,
                 .alpha0 = alpha0, .sigma0 = sigma0, .sigma_floor = sigma_floor,
                 .threshold = threshold, .nseed = nseed, .npath = npath};
    if ((f->x = malloc(sizeof(double) * (size_t)(n * dim))) == NULL ||
        (f->order = malloc(sizeof(int64_t) * (size_t)(lam * n))) == NULL ||
        (f->dist = malloc(sizeof(double) * (size_t)n)) == NULL ||
        (f->index = malloc(sizeof(int64_t) * (size_t)n)) == NULL ||
        (f->seed = malloc((size_t)nseed + 1)) == NULL ||
        (f->path = malloc((size_t)npath + 1)) == NULL ||
        reserve((void **)&f->w, &f->w_cap, units * dim, sizeof(double)) ||
        reserve((void **)&f->unit_mqe, &f->unit_mqe_cap, units, sizeof(double)) ||
        set_shape(f)) {
        fit_close(f);
        return -1;
    }
    memcpy(f->seed, seed, (size_t)nseed);
    memcpy(f->path, path, (size_t)npath);
    /* before its first cycle the map stores with every sample on unit 0 */
    memset(f->index, 0, sizeof(int64_t) * (size_t)n);
    memset(f->unit_mqe, 0, sizeof(double) * (size_t)units);
    for (int64_t i = 0; i < n; i++)
        memcpy(f->x + i * dim, data + indices[i] * dim, sizeof(double) * (size_t)dim);
    if (weights != NULL) {
        memcpy(f->w, weights, sizeof(double) * (size_t)(units * dim));
    } else {
        /* mean and std in the scratch; the distances hold a single
           column's squares */
        double *mean = f->scratch, *std = mean + dim;
        column_sums(f->x, n, dim, NULL, mean, NULL);
        for (int64_t k = 0; k < dim; k++)
            mean[k] = mean[k] / (double)n;
        column_sums(f->x, n, dim, mean, std, f->dist);
        for (int64_t k = 0; k < dim; k++)
            std[k] = sqrt(std[k] / (double)n);
        if (uniform(f->w, units * dim, -noise, noise, seed, nseed, 0, path, npath)) {
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

/* Schedules the block of steps from f->start: its learning rates and,
   in the (width, steps) table, its exp arguments, as numpy computes them
   for a cycle of total steps:

       frac = 1.0 - np.arange(start, start + steps) / total
       alpha = alpha0 * frac
       sigma = np.maximum(sigma_floor, sigma0 * frac)
       table = np.multiply(distinct[:, None], -0.5 / (sigma * sigma))

   Returns the number of table entries, width * steps. */
static int64_t schedule(fit_t *f)
{
    int64_t total = f->lam * f->n, block = block_steps(f);
    f->steps = total - f->start < block ? total - f->start : block;
    double sigma0 = f->has_sigma0 ? f->sigma0 : (double)(f->rows > f->cols ? f->rows : f->cols) / 2;
    for (int64_t s = 0; s < f->steps; s++) {
        double frac = 1.0 - (double)(f->start + s) / (double)total;
        f->alpha[s] = f->alpha0 * frac;
        double v = sigma0 * frac;
        /* np.maximum: a NaN propagates */
        double sigma = f->sigma_floor >= v ? f->sigma_floor : v;
        f->coef[s] = -0.5 / (sigma * sigma);
    }
    for (int64_t j = 0; j < f->width; j++)
        for (int64_t s = 0; s < f->steps; s++)
            f->table[j * f->steps + s] = f->distinct[j] * f->coef[s];
    return f->width * f->steps;
}

/* Starts a growth cycle: draws its lam permutations of the samples from
   the stream [seed, f->stream, *path] and schedules its first block.
   Returns the table entries to exp, or -1 when out of memory. */
int64_t fit_begin(fit_t *f)
{
    if (draw_permutations(f->order, f->lam * f->n, f->n, f->seed, f->nseed, f->stream,
                          f->path, f->npath))
        return -1;
    f->start = 0;
    return schedule(f);
}

/* Trains the scheduled block, whose table now holds the exp of its
   arguments, and schedules the next one: returns its table entries.
   After the last block it assigns the samples, scores the units and the
   map and gives the verdict, and returns 0; -1 when out of memory. */
int64_t fit_step(fit_t *f)
{
    train_block(f->w, f->rows, f->cols, f->dim, f->x, f->order + f->start, f->steps,
                f->table, f->width, f->slot, f->alpha, f->scratch);
    f->start += f->steps;
    if (f->start < f->lam * f->n)
        return schedule(f);
    int64_t units = f->rows * f->cols;
    if (assign(f->x, f->n, f->w, units, f->dim, f->dist, f->index, f->unit_mqe, &f->mqe))
        return -1;
    if (f->mqe < f->threshold || f->mqe == 0.0)
        f->verdict = CONVERGED;
    else if (units >= f->max_units || f->insertions >= f->max_insertions)
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
    return set_shape(f) ? -1 : axis;
}

/* Copies the fitted map out: its (rows, cols, dim) weights, (rows, cols)
   unit errors and each sample's unit as a row and a column. */
void fit_store(const fit_t *f, double *w, double *unit_mqe, int64_t *bmu_rows,
               int64_t *bmu_cols)
{
    int64_t units = f->rows * f->cols;
    memcpy(w, f->w, sizeof(double) * (size_t)(units * f->dim));
    memcpy(unit_mqe, f->unit_mqe, sizeof(double) * (size_t)units);
    for (int64_t i = 0; i < f->n; i++) {
        bmu_rows[i] = f->index[i] / f->cols;
        bmu_cols[i] = f->index[i] % f->cols;
    }
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

/* Parses the body of a CSV file: `rows` records from buf + pos to buf +
   len, where buf[len] must be 0.  A record is `fields` comma-separated
   fields ending in "\n", "\r\n" or, for the last one, the end of the
   buffer; no field may be longer than `limit` bytes.  Field 0 is the id
   and field `label` (-1: none) the label: each may hold any byte is_text
   accepts, and their [start, end) offsets in buf go to row r of the
   (rows, 4) spans (label ones unset without a label).  Every other field is
   a number (parse_number), stored in order in row r of the (rows, fields
   - 1 - has_label) values.  Returns 0, or -1 when the body is anything
   else: a lone "\r", a blank line, a ragged row, a quote or NUL, a
   number float() would read otherwise or not at all. */
int parse_block(const char *buf, int64_t len, int64_t pos, int64_t rows,
                int64_t fields, int64_t label, int64_t limit,
                double *values, int64_t *spans)
{
    const char *p = buf + pos, *stop = buf + len;
    for (int64_t r = 0; r < rows; r++) {
        int64_t *span = spans + 4 * r;
        for (int64_t f = 0; f < fields; f++) {
            const char *start = p;
            if (f == 0 || f == label) {
                while (is_text((unsigned char)*p))
                    p++;
                int64_t *s = f == 0 ? span : span + 2;
                s[0] = start - buf;
                s[1] = p - buf;
            } else if (parse_number(&p, values++)) {
                return -1;
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
