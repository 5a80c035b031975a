"""Loader of the compiled kernel in ``_kernel.c``: a map fit's context
(initial weights, schedule, neighbourhood ``exp``, SOM training, BMU
assignment, stop verdict and row/column insertion), random streams, the
Calinski-Harabasz sums, the column variances, and the CSV line count,
number block and number text. Python reaches it through ``Fit``,
``ch_sums``, ``column_var``, ``count_lines``, ``parse_block`` and
``format_rows`` only: the library exports the context's five ``fit_*``
functions and those five.

Each map fit runs in one kernel context, ``Fit``, which starts the map
from its data or, given weights, from those. What every map of a tree's
fit shares, the data, the seed, the training schedule, the initial noise
and the insertion cap, is one struct (``Run``) set up once per
``run_ghsom``, so opening a map passes the kernel only the map's own
indices, shape, path, threshold and unit cap. A context gathers the
routed samples once, checks each array's dtype, order and shape once,
and owns the weights, the cycle's sample order, the table of
neighbourhood weights and the assignment and error buffers, each sized
for the current map and grown in place on insertion. A growth cycle is
one call that passes the context and the cycle's stream, an insertion
one call that passes the context. The kernel computes with
numpy's float operations in numpy's order, so the results are the bits
the numpy code gives:

- the initial weights ``x.mean(axis=0) + u * x.std(axis=0)``, with
  numpy's column sums (rows added in order to 0.0, or one pairwise run
  for a single column), ``_var``'s squares and divisions and ``sqrt``;
- per block of steps, ``frac``, ``alpha``, ``sigma``, ``coef`` and the
  ``exp`` of ``distinct * coef``, from the distinct squared grid
  distances and their slots, which it computes for the current shape;
  the steps at the radius floor share one ``coef`` and so one ``exp``.
  Its ``exp`` is a port of the one numpy's AVX-512 loop calls (Intel
  SVML's ``__svml_exp8_ha``), so the table holds that loop's bits on
  every CPU, whichever ``exp`` loop numpy itself would pick there;
- one pass over the weights per training step, which applies the
  step's update to each unit and at once computes its squared distance
  to the next step's sample, summed in numpy's pairwise order. A cycle
  copies the weights into lanes, unit ``u`` in lane ``u % 8`` of block
  ``u // 8`` with one vector per attribute, so each vector operation is
  one unit's operation for 8 units, and copies them back before the
  assignment. The difference ``x - w`` is computed again for the
  update rather than stored, and the best-matching unit is
  ``np.argmin``'s pick, the first minimum or the first NaN, found by
  compare and select; the last block's pad lanes never win. A small
  map, whose distinct grid distances fit one vector, takes each unit's
  neighbourhood weight by one permute of that vector and finds the
  best-matching unit in one compare and select chain over its units;
- after the last block, each sample's nearest unit as a row-major
  index ``row * cols + col``, which the fitted ``SomMap`` keeps as its
  ``units``, each unit's mean quantization error as ``np.mean`` gives
  it, the map MQE as ``SomMap.mqe`` sums it, and the verdict:
  converged, capped or grow.

On x86-64 with glibc the training and ``exp`` functions are compiled for
AVX-512F, x86-64-v3 (AVX2 with FMA) and the baseline
(``target_clones``), and the loader picks the widest the CPU supports;
every variant rounds each operation the same way, so the weights are the
same bits on every CPU (the baseline's ``fma`` is the C library's).

The random streams are the kernel's copy of numpy's: for the entropy
``[seed, stream, *path.encode()]`` it hashes the words as
``np.random.SeedSequence`` does, seeds PCG64 from them and draws as
``Generator.permuted`` shuffles the rows of a tiled ``arange`` and as
``Generator.uniform`` fills an array. All of it is integer arithmetic
except ``low + (high - low) * ((u >> 11) * 2**-53)``, so the draws are
numpy's bits, and results no longer depend on numpy's Generator
implementation, whose streams NEP 19 does not freeze across releases.
The tests check the copy against numpy's Generator draw for draw.

An insertion (``Fit.grow``) picks the error unit as ``np.argmax`` of
the unit errors and, of its neighbours, the one at the largest squared
distance of weights summed in numpy's pairwise order (the training
pass's order), not the ``np.linalg.norm`` of the difference, whose BLAS
dot product rounds as the BLAS build does. The two choices differ only
where two neighbours' distances agree in their last bits.

``ch_sums`` computes ``evaluation.ch_index``'s between- and
within-cluster sums from the rows grouped by cluster in one call, with
the numpy operations that code documents, in their order: each
cluster's column sums (rows added in order, or one pairwise run for a
single column), the divisions by the sizes, the pairwise row sums of
the squared centroid offsets times the sizes, one flat pairwise sum of
each cluster's squared deviations, and each total added up in cluster
order.

``column_var`` is ``x.var(axis=0)`` as numpy's ``_var`` computes it: the
column sums, taken as for the initial weights, divided by n, then the
column sums of the squares about that mean divided by n. Each is one
pass over ``x``, without numpy's array of squared deviations, as large
as ``x``.

``parse_block`` reads the body of a CSV file, or a part of it that ends
after a line end, in place and both validates and parses it in one
pass; it reads no byte from the part's end on, so ``count_lines`` and
``parse_block`` run on the parts of one body at once, each call on its
own thread without the GIL. It accepts records of a fixed number of
comma-separated fields ending in ``\n`` or ``\r\n``; an id and an
optional label field holding no quote, CR, LF, NUL or ASCII separator
(0x1C-0x1F); and number fields in the spellings ``float()`` accepts
without underscores, non-ASCII digits, ``inf`` or ``nan``, padded only
with the whitespace ``float()`` strips (space, tab, vertical tab, form
feed and the Unicode spaces, but not the separators 0x1C-0x1F). Numbers
with at most 15 significant digits and a decimal exponent in [-22, 22]
take Clinger's exact fast path, the rest the C library's ``strtod``;
both give the correctly rounded double ``float()`` gives. On an x86-64
CPU with SSSE3 and SSE4.1, checked at each call, a field of the form
``[+-]digits[.digits]`` of at most 16 bytes, where 32 bytes of the part
remain, is read in one step of SSE code: byte compares give the digit
and point masks, one ``pshufb`` right-aligns the digits without the
point and ``pmaddubsw``/``pmaddwd`` combine them into one integer
(Langdale & Lemire, *VLDB Journal* 28(6), 2019), then divided by the
power of ten, as Clinger's fast path does. Every other number, and every
number on any other CPU, takes the fast path or ``strtod``; each way
gives ``float()``'s bits. Anything else, a field over the field size
limit or a non-finite value makes it return False, and the caller falls
back to the ``csv`` module.

``format_rows`` writes the rows of a float64 matrix as the text
``repr()`` gives each double: the shortest digits that read back as it,
the nearest of those and ties to even, found by Ryū (Adams, PLDI 2018)
with tables of powers of 5 that the tests derive from Python's
integers. The text is in Python's layout: ``1.0``, ``-0.0``, ``0.0001``,
``1e-05``, ``1e+16``, ``5e-324``, with an exponent for a magnitude below
1e-4 or from 1e16. ``data.save_csv`` writes its numbers with it, and
``ghsom.tree_to_json`` each map's weights, one call per map; ``json``
writes a finite float as the same ``repr()``, so a document keeps the
text ``json`` alone would write.

The library is built with ``cc`` on first use and cached under
``$XDG_CACHE_HOME/ghsomkit`` (default ``~/.cache/ghsomkit``), named by
the SHA-256 of its source and compiler flags, so an edited source or
changed flags build a new file and never load a stale one.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
# no -ffast-math, no -march=native and no fused multiply-add but the
# source's fma() calls: the kernel must round every operation as the numpy
# code it replaces does
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-lm")

_F64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_I64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_N = ctypes.c_int64
_D = ctypes.c_double
_P = ctypes.c_void_p
_B = ctypes.c_char_p
_DOUBLE, _INT = np.dtype(np.float64), np.dtype(np.int64)


def build() -> Path:
    """Path of the compiled library, compiling it if it is not cached.

    The compiler writes a temporary file that is then renamed into
    place, so processes building at the same time never load a partial
    file. Raises ImportError with the command and the compiler's output
    when the build fails.
    """
    digest = hashlib.sha256(SOURCE.read_bytes() + " ".join(FLAGS).encode()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "ghsomkit"
    target = cache / f"_kernel-{digest}.so"
    if target.is_file():
        return target
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=cache)
    os.close(fd)
    cmd = ["cc", str(SOURCE), "-o", tmp, *FLAGS]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True)
        failure = done.stderr if done.returncode else None
    except OSError as e:
        failure = str(e)
    if failure is not None:
        os.unlink(tmp)
        raise ImportError(f"building the SOM kernel failed: {' '.join(cmd)}\n{failure}")
    os.replace(tmp, target)
    return target


@functools.cache
def library() -> ctypes.CDLL:
    """The loaded kernel library, built on the first call."""
    return load(build())


def load(path) -> ctypes.CDLL:
    """The library at ``path``, compiled from ``_kernel.c``, with its
    functions' argument types declared."""
    lib = ctypes.CDLL(str(path))
    lib.parse_block.argtypes = [_B, _N, _N, _N, _N, _N, _N, _F64, _I64]
    lib.count_lines.argtypes = [_B, _N, _N]
    lib.count_lines.restype = _N
    lib.format_rows.argtypes = [_F64, _N, _N, _P]
    lib.format_rows.restype = _N
    lib.fit_open.argtypes = [_P, _P, _P, _N, _N, _N, _P, _B, _N, _D, _N]
    lib.fit_train.argtypes = [_P, ctypes.c_uint64]
    lib.fit_store.argtypes = [_P, _P, _P, _P]
    lib.fit_grow.argtypes = lib.fit_close.argtypes = [_P]
    lib.ch_sums.argtypes = [_P, _N, _N, _P, _N, _P, _P]
    lib.column_var.argtypes = [_P, _N, _N, _P]
    for f in (lib.parse_block, lib.fit_open, lib.fit_train, lib.fit_grow, lib.fit_store,
              lib.ch_sums, lib.column_var):
        f.restype = ctypes.c_int
    lib.fit_close.restype = None
    return lib


_BUFFER = ctypes.c_char * 0


def _writable_address(a: np.ndarray) -> int:
    """Address of the data of the writeable array ``a``, through the
    buffer protocol: half the cost of ``a.ctypes.data``."""
    return ctypes.addressof(_BUFFER.from_buffer(a))


def _address(name: str, a, dtype, ndim: int) -> int:
    """Address of the data of ``a``, once it is what the kernel reads: a
    C-contiguous ``ndim``-dimensional array of ``dtype``. The kernel gets
    raw addresses because converting ndpointer arguments cost most of a
    call on a small map; a writeable array's address comes through the
    buffer protocol, at half the cost of ``a.ctypes.data``."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == ndim
            and a.flags.c_contiguous):
        raise TypeError(f"{name} must be a C-contiguous {ndim}-d {dtype} array")
    return _writable_address(a) if a.flags.writeable else a.ctypes.data


class Run(ctypes.Structure):
    """The constants of one tree's fit, which every map's ``Fit`` reads
    (``run_t`` in ``_kernel.c``): the C-contiguous float64 ``data``, the
    bytes of ``seed``, ``lam`` epochs per cycle, the learning rate
    ``alpha0``, the radius ``sigma0`` (None: half the larger side of the
    map) and its floor ``sigma_floor``, the initial ``noise`` and the cap
    of ``max_insertions``. Made once per ``run_ghsom``, so opening a map
    passes only what is the map's own. It holds the arrays it points to,
    and each ``Fit`` holds its run."""

    _fields_ = [("_data", _P), ("ndata", _N), ("dim", _N), ("seed", _B), ("nseed", _N),
                ("lam", _N), ("max_insertions", _N), ("has_sigma0", _N), ("alpha0", _D),
                ("sigma0", _D), ("sigma_floor", _D), ("noise", _D)]

    def __init__(self, data, *, lam: int, alpha0: float, sigma0: float | None,
                 sigma_floor: float, noise: float, seed: int, max_insertions: int):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        # the entropy [seed, stream, *path.encode()] of the maps' streams
        # starts with the seed's little-endian bytes (one byte for 0)
        seed = int(seed)
        seed_bytes = seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "little")
        super().__init__(_address("data", self.data, _DOUBLE, 2), *self.data.shape,
                         seed_bytes, len(seed_bytes), lam, max_insertions, sigma0 is not None,
                         alpha0, 0.0 if sigma0 is None else sigma0, sigma_floor, noise)


class _Head(ctypes.Structure):
    """The fields of a fit context (``fit_t`` in ``_kernel.c``) that
    Python reads, in the kernel's order."""

    _fields_ = [("rows", _N), ("cols", _N), ("verdict", _N), ("mqe", _D)]


# a cycle's verdict, ``fit_t.verdict``
GROW, CONVERGED, CAPPED = 0, 1, 2

_FIT_ERRORS = {
    -1: (MemoryError, "fit: out of memory"),
    -2: (ValueError, "fit: sample index out of range"),
    -3: (ValueError, "grow: no neighbour's distance compares"),
    -4: (ValueError, "store: the map has grown since its last cycle, which left it "
                     "without an assignment; train it before storing"),
}


def _fit_error(code: int) -> Exception:
    error, message = _FIT_ERRORS[code]
    return error(message)


class Fit:
    """The kernel context of one map's fit, from its initial weights to
    its stop.

    It gathers the ``n`` samples ``run.data[indices]`` of a ``rows`` x
    ``cols`` map once and owns the weights, the cycle's sample order, the
    table of neighbourhood weights and the last cycle's assignment and unit
    errors, growing them with the map. ``weights``, one row per unit in
    row-major order, are copied in; without them the map starts at
    ``x.mean(axis=0) + u * x.std(axis=0)`` of the routed samples ``x``,
    with ``rows * cols * dim`` draws ``u`` of ``uniform(-noise, noise)``
    from the map's stream 0, computed as numpy computes them. The map's streams take the entropy
    ``[seed, stream, *path.encode()]``. A cycle (``train``) trains the
    run's ``lam`` epochs with the learning rate decaying from ``alpha0``
    and the radius from ``sigma0`` to ``sigma_floor``; then
    ``head.verdict`` says ``CONVERGED`` when the map MQE ``head.mqe`` is
    below ``threshold`` or 0, else ``CAPPED`` when the map holds
    ``max_units`` units or has grown ``max_insertions`` times, else
    ``GROW``. ``grow`` inserts a row or column, ``store`` copies the
    fitted map out (not between an insertion and the next cycle) and
    ``close`` frees the context. Everything the maps of a tree share
    comes from ``run`` (``Run``), set up once per tree, so opening a map
    passes the kernel only its indices, shape, path, threshold and unit
    cap.
    """

    def __init__(self, run: Run, indices, rows: int, cols: int, weights, *, path: str,
                 threshold: float, max_units: int):
        self._ctx = None
        lib = library()
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        ix = _address("indices", indices, _INT, 1)
        w = None
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if weights.shape != (rows * cols, run.dim):
                raise ValueError("fit: the weights do not match the map and the data")
            w = _address("weights", weights, _DOUBLE, 2)
        self.n, self.dim = len(indices), run.dim
        if self.n < 1 or run.lam < 1 or rows < 1 or cols < 1:
            raise ValueError("fit: needs a sample, an epoch and a unit")
        path_bytes = path.encode("utf-8")
        ctx = _P()
        code = lib.fit_open(ctypes.byref(ctx), ctypes.byref(run), ix, self.n, rows, cols, w,
                            path_bytes, len(path_bytes), threshold, max_units)
        if code:
            raise _fit_error(code)
        self._ctx = ctx.value
        self._run = run
        self._lib = lib
        self._train = lib.fit_train
        self.head = _Head.from_address(self._ctx)

    def train(self, stream: int) -> None:
        """One growth cycle, its sample order drawn from stream
        ``stream``, in one kernel call: it trains, assigns and scores."""
        code = self._train(self._ctx, stream)
        if code:
            raise _fit_error(code)

    def grow(self) -> tuple[int, int]:
        """Insert a row or column after a cycle; returns the new shape."""
        code = self._lib.fit_grow(self._ctx)
        if code < 0:
            raise _fit_error(code)
        return self.head.rows, self.head.cols

    def store(self) -> tuple:
        """The fitted map, in arrays of its own, each indexed by the unit's
        row-major number ``u = row * cols + col``: the ``(rows * cols,
        dim)`` weights, the ``(rows * cols,)`` unit errors and each routed
        sample's unit, as the assignment found it. Raises ValueError after
        an insertion, until the next cycle assigns the grown map."""
        units = self.head.rows * self.head.cols
        out = (np.empty((units, self.dim)), np.empty(units), np.empty(self.n, dtype=np.int64))
        code = self._lib.fit_store(self._ctx, *map(_writable_address, out))
        if code:
            raise _fit_error(code)
        return out

    def close(self) -> None:
        """Free the context; the object is unusable afterwards."""
        if self._ctx is not None:
            self.head = None
            self._lib.fit_close(self._ctx)
            self._ctx = None

    def __del__(self):
        self.close()


def count_lines(data: bytes, pos: int, end: int) -> int:
    """The number of ``b"\n"`` in ``data[pos:end]``, ``data.count(b"\n",
    pos, end)``, counted in place by the C library's ``memchr``."""
    if not isinstance(data, bytes):
        raise TypeError("count_lines: data must be bytes")
    if not 0 <= pos <= end <= len(data):
        raise ValueError("count_lines: pos or end out of range")
    return library().count_lines(data, end, pos)


# the longest repr() of a double, "-2.2250738585072014e-308", and its comma
_CELL_BYTES = 25


def format_rows(values) -> str:
    """The rows of the 2-d float64 ``values`` as text: for each row, ","
    and ``repr()`` of each value, then "\n", in one call."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("format_rows: values must be 2-d")
    rows, cols = values.shape
    out = bytearray(rows * (_CELL_BYTES * cols + 1))
    n = library().format_rows(values, rows, cols, _writable_address(out) if out else None)
    return str(memoryview(out)[:n], "ascii")


def parse_block(data: bytes, pos, end, fields, label, limit, values, spans) -> bool:
    """Parse the CSV records of ``data[pos:end]`` in place, without
    copying; ``end`` is ``len(data)`` or follows a ``b"\n"``, and no byte
    from ``end`` on is read but the NUL a bytes object ends in, so the
    parts of one body parse at once.

    Each record has ``fields`` fields: field 0 is the id and field
    ``label`` (-1: none) the label, whose ``[start, end)`` byte offsets
    in ``data`` go to the ``(rows, 4)`` int64 ``spans`` (label ones unset
    without a label); every other field is a number, stored in order in
    the ``(rows, number fields)`` float64 ``values``. No field may be
    longer than ``limit`` bytes. Returns False when the part is not
    exactly ``len(values)`` records of that grammar.
    """
    if not isinstance(data, bytes):  # a bytes object ends in a NUL byte
        raise TypeError("parse_block: data must be bytes")
    rows = len(values)
    if (values.shape != (rows, fields - 1 - (label >= 0)) or spans.shape != (rows, 4)
            or not 0 <= pos <= end <= len(data)
            or not (end == len(data) or data[end - 1:end] == b"\n")
            or not (label == -1 or 0 < label < fields)):
        raise ValueError("parse_block: inconsistent arguments")
    return library().parse_block(data, end, pos, rows, fields, label, limit,
                                 values, spans) == 0


def column_var(x) -> np.ndarray:
    """``x.var(axis=0)`` of the 2-d ``x`` as a C-contiguous float64
    array, the bits numpy's ``_var`` gives, in one call and without its
    array of squared deviations, as large as ``x``."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("column_var: x must be 2-d")
    out = np.empty(x.shape[1])
    if library().column_var(_address("x", x, _DOUBLE, 2), *x.shape, _writable_address(out)):
        raise MemoryError("column_var: out of memory")
    return out


def ch_sums(grouped, sizes, center) -> tuple[float, float]:
    """The between- and within-cluster sums of ``evaluation.ch_index``,
    ``(bgss, wgss)``, in one call: ``grouped`` holds the ``(n, dim)``
    rows cluster by cluster, ``sizes`` the ``k`` positive cluster sizes
    that add up to ``n`` and ``center`` the ``(dim,)`` data mean. Each is
    summed with numpy's operations in the order ``ch_index`` documents."""
    grouped = np.ascontiguousarray(grouped, dtype=np.float64)
    sizes = np.ascontiguousarray(sizes, dtype=np.int64)
    center = np.ascontiguousarray(center, dtype=np.float64)
    if grouped.ndim != 2 or sizes.ndim != 1 or center.shape != grouped.shape[1:]:
        raise ValueError("ch_sums: the sizes or the center do not match the rows")
    out = np.empty(2)
    code = library().ch_sums(_address("grouped", grouped, _DOUBLE, 2), *grouped.shape,
                             _address("sizes", sizes, _INT, 1), len(sizes),
                             _address("center", center, _DOUBLE, 1), _writable_address(out))
    if code == -1:
        raise MemoryError("ch_sums: out of memory")
    if code:
        raise ValueError("ch_sums: the cluster sizes are not positive or do not add up "
                         "to the rows")
    return float(out[0]), float(out[1])
