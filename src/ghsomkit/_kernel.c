/* Compiled inner loops of ghsomkit: SOM training, BMU assignment and the
   CSV number block.

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
   (0.0 + pairwise sum) / count, or 0 for a unit without samples.
   Returns 0, or -1 when out of memory. */
static int assign(const double *x, int64_t n, const double *w, int64_t units,
                  int64_t dim, double *dist, int64_t *index, double *unit_mqe)
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
    for (int64_t u = 0, start = 0; u < units; start = end[u++]) {
        int64_t count = end[u] - start;
        unit_mqe[u] = count ? (0.0 + pairwise_sum(grouped + start, count)) / (double)count
                            : 0.0;
    }
    free(d);
    free(end);
    return 0;
}

/* Online SOM updates of the (rows * cols, dim) weights w, in place.
   Step s presents sample x[order[s]] of the (n, dim) samples x:

       diff = x - w;  d = (diff * diff).sum(axis=1);  b = argmin(d)
       w = w + diff * (table[slot[g(b, u)], s] * alpha[s])   for every unit u

   where g(b, u) is the squared grid distance between units b and u, and
   column s of the (width, steps) table holds the step's neighbourhood
   kernel by distinct grid distance.  One pass over the weights per step
   applies the update and at once computes the next step's diff and d.

   When dist is not NULL, the trained map then assigns every sample and
   scores every unit (assign) into dist, index and unit_mqe, so the last
   block of a growth cycle is one call.  Every entry of order must be in
   [0, n) and each of the nslot entries of slot in [0, width); they are
   checked before w is touched.  Returns 0; -1 when out of memory, -2 for
   a sample index and -3 for a table slot out of range. */
CLONES int train_steps(double *w, int64_t rows, int64_t cols, int64_t dim,
                       const double *x, int64_t n, const int64_t *order, int64_t steps,
                       const double *table, int64_t width, const int64_t *slot,
                       int64_t nslot, const double *alpha, double *dist,
                       int64_t *index, double *unit_mqe)
{
    for (int64_t s = 0; s < steps; s++)
        if (order[s] < 0 || order[s] >= n)
            return -2;
    for (int64_t g = 0; g < nslot; g++)
        if (slot[g] < 0 || slot[g] >= width)
            return -3;
    int64_t units = rows * cols;
    if (steps > 0) {
        double *diff = malloc(sizeof(double) * (size_t)(units * dim + units + width));
        if (diff == NULL)
            return -1;
        double *d = diff + units * dim;
        double *h = d + units;

        const double *xs = x + order[0] * dim;
        for (int64_t u = 0; u < units; u++) {
            /* the reduction adds the pairwise sum to its initial 0.0 */
            d[u] = 0.0 + fused_row(w + u * dim, diff + u * dim, xs, 0.0, dim, 0);
        }
        for (int64_t s = 0; s < steps; s++) {
            int64_t b = first_argmin(d, units);
            for (int64_t j = 0; j < width; j++)
                h[j] = table[j * steps + s] * alpha[s];
            /* the last step's diff is never read: it is taken against its
               own sample rather than one past the end of order */
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
        free(diff);
    }
    return dist == NULL ? 0 : assign(x, n, w, units, dim, dist, index, unit_mqe);
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
