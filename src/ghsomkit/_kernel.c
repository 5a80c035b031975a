/* Compiled inner loops of ghsomkit's SOM training and BMU assignment.

   Each function performs the float operations of the numpy expressions it
   stands for, in the same order, so its results are the same bits.  That
   holds only when built without -ffast-math and with -ffp-contract=off: a
   fused multiply-add rounds once where numpy rounds twice. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Sum of a[i] * a[i] for i < n, in the order of numpy's pairwise
   summation (DOUBLE_pairwise_sum): a plain loop below 8 terms, 8
   accumulators up to 128 terms, and above that the two halves, split at
   a multiple of 8, summed recursively. */
static double pairwise_sumsq(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i] * a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j] * a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j] * a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i] * a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sumsq(a, n2) + pairwise_sumsq(a + n2, n - n2);
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

/* Online SOM updates of the (rows * cols, dim) weights w, in place.
   Step s presents sample x[order[s]] of the (., dim) samples x:

       diff = x - w;  d = (diff * diff).sum(axis=1);  b = argmin(d)
       w = w + diff * table[s, slot[g(b, u)]]     for every unit u

   where g(b, u) is the squared grid distance between units b and u, and
   row s of the (steps, width) table holds the step's neighbourhood
   weights by distinct grid distance.  Returns 0, or -1 when out of
   memory. */
int train_steps(double *w, int64_t rows, int64_t cols, int64_t dim,
                const double *x, const int64_t *order, int64_t steps,
                const double *table, int64_t width, const int64_t *slot)
{
    int64_t units = rows * cols;
    double *diff = malloc(sizeof(double) * (size_t)(units * dim + units));
    if (diff == NULL)
        return -1;
    double *d = diff + units * dim;

    for (int64_t s = 0; s < steps; s++) {
        const double *xs = x + order[s] * dim;
        for (int64_t u = 0; u < units; u++) {
            const double *wu = w + u * dim;
            double *du = diff + u * dim;
            for (int64_t k = 0; k < dim; k++)
                du[k] = xs[k] - wu[k];
            /* the reduction adds the pairwise sum to its initial 0.0 */
            d[u] = 0.0 + pairwise_sumsq(du, dim);
        }
        int64_t b = first_argmin(d, units);
        const double *h = table + s * width;
        int64_t br = b / cols, bc = b % cols;
        for (int64_t r = 0; r < rows; r++) {
            for (int64_t c = 0; c < cols; c++) {
                int64_t u = r * cols + c;
                double hu = h[slot[(r - br) * (r - br) + (c - bc) * (c - bc)]];
                double *wu = w + u * dim;
                const double *du = diff + u * dim;
                for (int64_t k = 0; k < dim; k++)
                    wu[k] = wu[k] + du[k] * hu;
            }
        }
    }
    free(diff);
    return 0;
}

/* For each of the n samples x (n, dim): the Euclidean distance to its
   nearest row of w (units, dim) and that row's index.  A distance is the
   sqrt of the index-order sum of squared differences, as scipy's cdist
   computes it, and the nearest row is np.argmin's pick among them.
   Returns 0, or -1 when out of memory. */
int nearest(const double *x, int64_t n, const double *w, int64_t units,
            int64_t dim, double *dist, int64_t *index)
{
    double *d = malloc(sizeof(double) * (size_t)units);
    if (d == NULL)
        return -1;
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
    }
    free(d);
    return 0;
}
