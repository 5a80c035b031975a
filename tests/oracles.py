"""Brute-force reference implementations used to cross-check the package.

Everything here trades speed for obviousness: plain loops, exact rational
arithmetic where it matters, and no shared code with the implementations
under test.
"""

import functools
import math
import struct
from decimal import Decimal, localcontext
from fractions import Fraction


def ari_pair_counting(labels_a, labels_b, exact=True):
    """Adjusted Rand index by O(n^2) pair counting.

    Counts, over all unordered sample pairs, how many are co-clustered in
    each labeling, then applies the adjusted-for-chance formula on those
    pair totals. Exact via Fraction; independent of any contingency table.
    With ``exact`` false, the same pair totals go through the float
    operations ``evaluation.adjusted_rand_index`` documents, in its order
    (E = a * b / pairs(n), max = (a + b) / 2, 0.0 when they are equal),
    which differs from the exact value in the last bit now and then.
    """
    n = len(labels_a)
    assert n == len(labels_b)
    together_a = 0
    together_b = 0
    together_both = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = labels_a[i] == labels_a[j]
            same_b = labels_b[i] == labels_b[j]
            together_a += same_a
            together_b += same_b
            together_both += same_a and same_b
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0:
        return 0.0
    if exact:
        expected = Fraction(together_a * together_b, total_pairs)
        maximum = Fraction(together_a + together_b, 2)
    else:
        expected = together_a * together_b / total_pairs
        maximum = (together_a + together_b) / 2
    if maximum == expected:
        return 0.0
    return float((together_both - expected) / (maximum - expected))


def ari_contingency(labels_a, labels_b):
    """Adjusted Rand index from a dict-of-dicts contingency table.

    Same formula family as the package implementation but built here from
    scratch with Fractions, so a shared arithmetic slip would still have to
    happen twice independently to go unnoticed.
    """
    n = len(labels_a)
    table = {}
    for a, b in zip(labels_a, labels_b):
        table.setdefault(a, {}).setdefault(b, 0)
        table[a][b] += 1
    row_sums = {a: sum(row.values()) for a, row in table.items()}
    col_sums = {}
    for row in table.values():
        for b, count in row.items():
            col_sums[b] = col_sums.get(b, 0) + count
    index = sum(math.comb(nij, 2) for row in table.values() for nij in row.values())
    sum_rows = sum(math.comb(c, 2) for c in row_sums.values())
    sum_cols = sum(math.comb(c, 2) for c in col_sums.values())
    total_pairs = math.comb(n, 2)
    if total_pairs == 0:
        return 0.0
    expected = Fraction(sum_rows * sum_cols, total_pairs)
    maximum = Fraction(sum_rows + sum_cols, 2)
    if maximum == expected:
        return 0.0
    return float((index - expected) / (maximum - expected))


def ch_naive(rows, labels):
    """Calinski-Harabasz with two explicit loops and python floats.

    rows: list of lists (samples x attributes); labels: list of hashables.
    """
    n = len(rows)
    dim = len(rows[0])
    clusters = sorted(set(labels), key=str)
    k = len(clusters)
    assert k >= 2 and n > k

    def mean_of(points):
        return [sum(p[d] for p in points) / len(points) for d in range(dim)]

    def sq_dist(p, q):
        return sum((p[d] - q[d]) ** 2 for d in range(dim))

    overall = mean_of(rows)
    between = 0.0
    within = 0.0
    for c in clusters:
        members = [rows[i] for i in range(n) if labels[i] == c]
        centroid = mean_of(members)
        between += len(members) * sq_dist(centroid, overall)
        for p in members:
            within += sq_dist(p, centroid)
    if within == 0.0:
        return math.inf if between > 0.0 else 0.0
    return (between / (k - 1)) / (within / (n - k))


def sigma_within_naive(values):
    """Population standard deviation by direct summation."""
    n = len(values)
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / n)


def sigma_between_naive(target_mean, other_means):
    """sqrt of the mean squared gap from the target cluster's mean to each
    other cluster's mean, normalized by the number of other clusters."""
    assert other_means
    total = sum((target_mean - m) ** 2 for m in other_means)
    return math.sqrt(total / len(other_means))


def label_vectors_up_to(n, max_parts):
    """All set partitions of range(n) into at most max_parts blocks, emitted
    as canonical label vectors (restricted growth strings).

    For n=8, max_parts=3 this yields 1 + 127 + 966 = 1094 vectors.
    """
    out = []

    def extend(prefix, used):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for next_label in range(min(used + 1, max_parts)):
            prefix.append(next_label)
            extend(prefix, max(used, next_label + 1))
            prefix.pop()

    extend([0], 1)
    return out


def train_map_online(weights, x_local, seed, path, stream, lam, alpha0, sigma0=None, *, exp):
    """Reference online SOM trainer: one growth cycle, then assignment.

    The per-sample loop the package trained with before its in-place
    buffers and per-epoch schedule: ``lam`` epochs over a seeded
    permutation, ``w += alpha(t) * h(t) * (x - w)`` with a Gaussian
    neighborhood, alpha and sigma decaying linearly over the cycle and
    sigma floored at 0.5. The random stream is derived the way the
    package derives it, from (seed, stream, path). ``exp`` is the
    elementwise exp of an array: the kernel's port of numpy's AVX-512
    ``exp``, which ``exp_svml`` checks, gives the bits the package gives
    on any CPU. Returns the trained (rows, cols, dim) weights and the
    (rows, cols) per-unit mean quantization errors of the samples'
    best-matching units.
    """
    import numpy as np
    from scipy.spatial.distance import cdist

    rows, cols, dim = weights.shape
    n = len(x_local)
    w = weights.reshape(rows * cols, dim).copy()
    r, c = np.divmod(np.arange(rows * cols), cols)
    grid_d2 = (r[:, None] - r[None, :]) ** 2 + (c[:, None] - c[None, :]) ** 2
    if sigma0 is None:
        sigma0 = max(rows, cols) / 2
    entropy = [int(seed), int(stream), *path.encode("utf-8")]
    rng = np.random.default_rng(np.random.SeedSequence(entropy))

    # every step's neighbourhood weights, exp(grid_d2 * coef), in one call
    # of ``exp``: one row per step, one column per distinct squared grid
    # distance (numpy's operations on arrays round as on Python floats)
    total = lam * n
    frac = 1.0 - np.arange(total) / total
    sigma = np.maximum(0.5, sigma0 * frac)
    distinct, slot = np.unique(grid_d2, return_inverse=True)
    table = exp(np.multiply.outer(-0.5 / (sigma * sigma), distinct))
    slot = slot.reshape(grid_d2.shape)
    t = 0
    for _ in range(lam):
        order = rng.permutation(n)
        for i in order:
            alpha = alpha0 * frac[t]
            x = x_local[i]
            diff = x - w
            best = int(np.argmin((diff * diff).sum(axis=1)))
            h = table[t, slot[best]]
            w += (alpha * h)[:, None] * diff
            t += 1

    d = cdist(x_local, w)
    best = d.argmin(axis=1)
    unit_mqe = np.zeros(rows * cols)
    for u in np.unique(best):
        unit_mqe[u] = d[best == u, u].mean()
    return w.reshape(rows, cols, dim), unit_mqe.reshape(rows, cols)


@functools.cache
def _exp_table():
    """SVML's table: for i < 64, 2**(i/64) rounded to the nearest float and
    its remainder relative to that float, rounded likewise."""
    table = []
    with localcontext() as ctx:
        ctx.prec = 60
        for i in range(64):
            exact = (Decimal(2).ln() * i / 64).exp()
            hi = float(exact)
            table.append((hi, float((exact - Decimal(hi)) / Decimal(hi))))
    return table


def _bits(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _fma(a, b, c):
    return float(Fraction(a) * Fraction(b) + Fraction(c))


_H = float.fromhex


def exp_svml(x):
    """numpy's AVX-512 float64 exp of the float ``x``: Intel SVML's
    ``__svml_exp8_ha`` for |x| < 0x1.61da04cbafe44p+9, its rare path
    ``__svml_dexp_ha_cout_rare_internal`` for the rest (infinities and
    NaNs too).

    Computed from its definition rather than from the kernel's code: each
    fused multiply-add is the exact result rounded once,
    ``float(Fraction(a) * b + c)``; the fast path's one fused step that
    rounds toward zero, ``x * log2(e)`` plus a shifter whose ulp is 1/16,
    is the floor of the exact product on the 1/16 grid; the scaling by
    ``2**k`` is one rounding; the rare path's plain double operations are
    Python's float operations; and the table is ``_exp_table``'s.
    """
    table = _exp_table()
    if abs(x) < _H("0x1.61da04cbafe44p+9"):
        t = Fraction(math.floor(Fraction(x) * Fraction(_H("0x1.71547652b82fep+0")) * 16), 16)
        k = math.floor(t)
        hi, lo = table[4 * int((t - k) * 16)]
        n = float(t)
        r = _fma(-n, _H("0x1.62e42fefa39efp-1"), x)
        r = _fma(-_H("0x1.abc9e3b39803fp-56"), n, r)
        r2 = r * r
        q = _fma(r2, _fma(r, _H("0x1.7411836940c04p-10"), _H("0x1.1101cbbc265c0p-7")),
                 _fma(r, _H("0x1.55557242d68fep-5"), _H("0x1.5555553939732p-3")))
        q = _fma(r2, q, _fma(r, _H("0x1.000000000d008p-1"), _H("0x1.fffffffffff70p-1")))
        p = _fma(hi, _fma(q, r, lo), hi)
        return float(Fraction(p) * Fraction(2) ** k)
    b = _bits(x)
    if b >> 52 & 0x7FF == 0x7FF:
        return 0.0 if b >> 63 and not b & ((1 << 52) - 1) else x * x
    if x > _H("0x1.62e42fefa39efp+9"):
        return math.inf
    if x < _H("-0x1.74910d52d3051p+9"):
        return 0.0
    u = x * _H("0x1.71547652b82fep+6") + _H("0x1.8p52")
    v = u - _H("0x1.8p52")
    m = _bits(u) & 0xFFFFFFFF
    hi, lo = table[m & 63]
    r = x - v * _H("0x1.62e42fefa0000p-7") - v * _H("0x1.cf79abc9e3b3ap-46")
    q = _H("0x1.6c16a1c2a3ffdp-10")
    for c in ("0x1.111123aaf20d3p-7", "0x1.5555555558fccp-5", "0x1.55555555548f8p-3", "0x1p-1"):
        q = q * r + _H(c)
    q = (q * r * r + r + lo) * hi
    if x < _H("-0x1.6232bdd7abcd2p+9"):
        # a subnormal result: scaled by 2**60 first, then back in two parts
        e = ((m >> 6) + 0x43B) & 0x7FF
        scale = _float(e << 52)
        big, small = scale * hi, q * scale
        s = big + small
        if e <= 50:
            return s * 2.0**-60
        err = (big - s) + small
        split = s * _H("0x1.8p32")
        head = (s + split) - split
        return head * 2.0**-60 + (err + (s - head)) * 2.0**-60
    e = ((m >> 6) + 0x3FF) & 0x7FF
    q += hi
    if e == 0x7FF:
        return q * 2.0**1023 * 2.0
    return q * _float(e << 52)


@functools.cache
def ryu_tables():
    """The kernel's tables for Ryū's shortest formatting of a double, from
    Python's integers: ``POW5`` holds 5^0 .. 5^25, ``POW5_SPLIT`` 5^q to
    125 bits (its top bits) and ``POW5_INV_SPLIT`` 2^(bits(5^q) + 124) /
    5^q rounded down plus 1, for every q a multiple of 26 that a double
    needs, as ``(low, high)`` 64-bit halves. ``POW5_OFFSETS`` and
    ``POW5_INV_OFFSETS`` hold, two bits per q in 32-bit words, what the
    kernel adds to the product of a split entry and a ``POW5`` entry to
    get 5^q's entry exactly: 5^q for q < 326 and 2^k / 5^q for q < 291,
    the largest exponents a finite double takes."""
    bits, step = 125, 26

    def pow5(q):
        p = 5**q
        shift = p.bit_length() - bits
        return p >> shift if shift >= 0 else p << -shift

    def pow5_inv(q):
        p = 5**q
        return (1 << (p.bit_length() - 1 + bits)) // p + 1

    def pack(offsets):
        return [sum(d << (2 * k) for k, d in enumerate(offsets[w:w + 16]))
                for w in range(0, len(offsets), 16)]

    split = [pow5(q) for q in range(0, 326, step)]
    inv_split = [pow5_inv(q) for q in range(0, 291 + step, step)]
    offsets, inv_offsets = [], []
    for q in range(326):
        base, k = divmod(q, step)
        shift = (5**q).bit_length() - (5 ** (step * base)).bit_length()
        offsets.append(pow5(q) - (5**k * split[base] >> shift))
    for q in range(291):
        base = -(-q // step)
        k = step * base - q
        shift = (5 ** (step * base)).bit_length() - (5**q).bit_length()
        got = (5**k * (inv_split[base] - 1) >> shift) + 1 if k else inv_split[base]
        inv_offsets.append(pow5_inv(q) - got)
    assert all(0 <= d <= 3 for d in offsets + inv_offsets)

    def halves(values):
        return [h for v in values for h in (v & (2**64 - 1), v >> 64)]

    return {"POW5": [5**k for k in range(step)], "POW5_SPLIT": halves(split),
            "POW5_INV_SPLIT": halves(inv_split), "POW5_OFFSETS": pack(offsets),
            "POW5_INV_OFFSETS": pack(inv_offsets)}


def best_matching_unit(som, x):
    """Grid position (row, col) of the unit nearest ``x``.

    Ties break to the smallest (row, col) in row-major order.
    """
    import numpy as np

    flat = som.weights.reshape(-1, som.weights.shape[-1])
    d2 = ((flat - x) ** 2).sum(axis=1)
    best = int(np.argmin(d2))
    return divmod(best, som.cols)


def load_csv_cells(path, has_labels=False, label_column=None):
    """Reference CSV loader: ``csv.reader`` and one ``float()`` per cell.

    The loader the package used before it parsed plain files in one
    vectorized pass, kept verbatim, errors and their order included.
    """
    import csv

    import numpy as np

    from ghsomkit import DataMatrix

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(header) < 2:
            raise ValueError(f"{path}: need at least one attribute column")
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no data rows")

    columns = header[1:]
    if has_labels or label_column is not None:
        if label_column is None:
            label_column = columns[-1]
        if label_column not in columns:
            raise ValueError(f"{path}: no column named '{label_column}'")
        label_idx = columns.index(label_column)
    else:
        label_idx = None

    attribute_names = [c for i, c in enumerate(columns) if i != label_idx]
    sample_ids = []
    labels = [] if label_idx is not None else None
    values = np.empty((len(rows), len(attribute_names)), dtype=np.float64)

    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {r + 1} has {len(row)} fields, expected {len(header)}"
            )
        sample_ids.append(row[0])
        j = 0
        for i, cell in enumerate(row[1:]):
            if i == label_idx:
                labels.append(cell)
                continue
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: cannot parse '{cell}' as a number at "
                    f"(row {r + 1}, col {columns[i]})"
                ) from None
            if math.isnan(v) or math.isinf(v):
                raise ValueError(
                    f"{path}: non-finite value at (row {r + 1}, col {columns[i]})"
                )
            values[r, j] = v
            j += 1

    if len(set(sample_ids)) != len(sample_ids):
        seen = set()
        dup = next(s for s in sample_ids if s in seen or seen.add(s))
        raise ValueError(f"{path}: duplicate sample id '{dup}'")

    return DataMatrix(
        values=values,
        sample_ids=sample_ids,
        attribute_names=attribute_names,
        labels=labels,
        label_name=label_column if labels is not None else None,
    )


def identify_significant_alone(partition, m, cluster, k):
    """Reference ranking of one cluster that computes every cluster's
    mean again for each call, as the package did before it ranked many
    clusters from one set of means; the same float operations, so the
    same bits."""
    import numpy as np

    from ghsomkit.sai import AttributeScore

    names = partition.cluster_names()
    sigma_i = m.values[partition.members(cluster)].std(axis=0)
    means = np.vstack([m.values[partition.members(c)].mean(axis=0) for c in names])
    sq = ((means - means[names.index(cluster)]) ** 2).sum(axis=0)
    sigma_b = np.sqrt(sq / (len(names) - 1))
    diff = sigma_b - sigma_i
    order = sorted(range(m.n_attributes), key=lambda g: (-diff[g], m.attribute_names[g]))
    return [
        AttributeScore(cluster, m.attribute_names[g], float(sigma_i[g]), float(sigma_b[g]),
                       float(diff[g]), rank)
        for rank, g in enumerate(order[:k], start=1)
    ]


def ch_index_loop(partition, m):
    """Calinski-Harabasz index by a per-cluster loop of numpy calls: the
    package's computation before it grouped the rows of every cluster
    at once, kept verbatim, so the grouped one must give the same bits."""
    names = partition.cluster_names()
    k = len(names)
    n = m.n_samples
    center = m.values.mean(axis=0)
    bgss = 0.0
    wgss = 0.0
    for c in names:
        rows = m.values[partition.members(c)]
        centroid = rows.mean(axis=0)
        bgss += len(rows) * float(((centroid - center) ** 2).sum())
        wgss += float(((rows - centroid) ** 2).sum())
    if wgss == 0.0:
        return float("inf") if bgss > 0.0 else 0.0
    return (bgss / (k - 1)) / (wgss / (n - k))


def grow_numpy(weights, unit_mqe):
    """Row or column insertion as the package made it before the kernel
    did: the error unit by ``np.argmax``, its most dissimilar 4-neighbor
    by ``np.linalg.norm`` (scanned right, left, below, above; the first
    farthest wins), and ``np.insert`` of the mean row or column. Returns
    the new ``(rows, cols, dim)`` weights."""
    import numpy as np

    rows, cols = unit_mqe.shape
    e_row, e_col = divmod(int(np.argmax(unit_mqe.reshape(-1))), cols)
    best, best_d = None, -1.0
    for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        r, c = e_row + dr, e_col + dc
        if 0 <= r < rows and 0 <= c < cols:
            d = float(np.linalg.norm(weights[r, c] - weights[e_row, e_col]))
            if d > best_d:
                best_d, best = d, (r, c)
    d_row, d_col = best
    if e_row == d_row:
        lo = min(e_col, d_col)
        new_col = 0.5 * (weights[:, lo, :] + weights[:, lo + 1, :])
        return np.insert(weights, lo + 1, new_col, axis=1)
    lo = min(e_row, d_row)
    new_row = 0.5 * (weights[lo, :, :] + weights[lo + 1, :, :])
    return np.insert(weights, lo + 1, new_row, axis=0)


def leaf_units(tree):
    """``(path, members, mqe)`` of every unit without a child map, by a
    plain loop over the units of every map."""
    for som in tree.iter_maps():
        for u, members in enumerate(som.members()):
            row, col = divmod(u, som.cols)
            if (row, col) not in som.children:
                yield som.unit_path(row, col), members, float(som.unit_mqe[row, col])


def leaf_labels(tree):
    """Every sample's leaf path, written unit by unit from ``leaf_units``."""
    labels = [None] * len(tree.sample_ids)
    for path, members, _ in leaf_units(tree):
        for i in members:
            labels[i] = path
    return labels


def save_csv_rows(m, path):
    """Reference CSV writer: one ``csv.writer.writerow`` per row, each
    float written as its ``repr``. The writer the package used before it
    formatted the numbers in the kernel, kept verbatim."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["id"] + list(m.attribute_names)
        if m.labels is not None:
            header.append(m.label_name or "label")
        writer.writerow(header)
        if m.labels is None:
            for sid, row in zip(m.sample_ids, m.values):
                writer.writerow([sid, *row.tolist()])
        else:
            for sid, row, label in zip(m.sample_ids, m.values, m.labels):
                writer.writerow([sid, *row.tolist(), label])
