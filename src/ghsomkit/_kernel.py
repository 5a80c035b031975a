"""Loader of the compiled kernel in ``_kernel.c``: a map fit's context
(initial weights, schedule, SOM training, BMU assignment, stop verdict
and row/column insertion), random streams and the CSV number block.

Each map fit runs in one kernel context, ``Fit``. It gathers the routed
samples once, checks each array's dtype, order and shape once, and owns
the weights, the cycle's sample order, the table of exp arguments and
the assignment and error buffers, each sized for the current map and
grown in place on insertion. A growth cycle is two calls that pass only
the context plus numpy's ``exp`` of the table in between (one more call
and ``exp`` per further block of a large cycle): numpy keeps the
``exp`` because its SIMD ``exp`` and the C library's differ in the last
bit. The kernel computes everything else with numpy's float operations
in numpy's order, so the results are the bits the numpy code gives:

- the initial weights ``x.mean(axis=0) + u * x.std(axis=0)``, with
  numpy's column sums (rows added in order to 0.0, or one pairwise run
  for a single column), ``_var``'s squares and divisions and ``sqrt``;
- per block, ``frac``, ``alpha``, ``sigma``, ``coef`` and ``distinct *
  coef``, from the distinct squared grid distances and their slots,
  which it computes for the current shape;
- one pass over the weights per training step, which applies the
  step's update to each unit and at once computes that unit's
  difference to the next step's sample and its squared distance, 8
  doubles at a time, summed in numpy's pairwise order;
- after the last block, each sample's nearest unit, each unit's mean
  quantization error as ``np.mean`` gives it, the map MQE as
  ``SomMap.mqe`` sums it, and the verdict: converged, capped or grow.

On x86-64 with glibc the training functions are compiled for AVX-512F,
AVX2 and the baseline (``target_clones``), and the loader picks the
widest the CPU supports; every variant rounds each operation the same
way, so the weights are the same bits on every CPU.

``train_steps``, ``uniform`` and ``grow`` expose the training pass, the
noise draw and an out-of-place insertion on caller-owned arrays. Their
wrappers pass raw data addresses and check each array's dtype, C order,
writeability and shape; the kernel checks every sample and table index
before it touches the weights.

The random streams are the kernel's copy of numpy's: for the entropy
``[seed, stream, *path.encode()]`` it hashes the words as
``np.random.SeedSequence`` does, seeds PCG64 from them and draws as
``Generator.permuted`` shuffles the rows of a tiled ``arange`` and as
``Generator.uniform`` fills an array. All of it is integer arithmetic
except ``low + (high - low) * ((u >> 11) * 2**-53)``, so the draws are
numpy's bits, and results no longer depend on numpy's Generator
implementation, whose streams NEP 19 does not freeze across releases.
The tests check the copy against numpy's Generator draw for draw.

An insertion (``Fit.grow``, ``grow``) picks the error unit as
``np.argmax`` of the unit errors and, of its neighbours, the one at the
largest squared distance of weights summed in numpy's pairwise order
(the training pass's sum), not the ``np.linalg.norm`` of the
difference, whose BLAS dot product rounds as the BLAS build does. The
two choices differ only where two neighbours' distances agree in their
last bits.

``parse_block`` reads the body of a CSV file in place and both validates
and parses it in one pass. It accepts records of a fixed number of
comma-separated fields ending in ``\n`` or ``\r\n``; an id and an
optional label field holding no quote, CR, LF, NUL or ASCII separator
(0x1C-0x1F); and number fields in the spellings ``float()`` accepts
without underscores, non-ASCII digits, ``inf`` or ``nan``, padded only
with the whitespace ``float()`` strips (space, tab, vertical tab, form
feed and the Unicode spaces, but not the separators 0x1C-0x1F). Numbers
with at most 15 significant digits and a decimal exponent in [-22, 22]
take Clinger's exact fast path, the rest the C library's ``strtod``;
both give the correctly rounded double ``float()`` gives. Anything else,
a field over the field size limit or a non-finite value makes it return
False, and the caller falls back to the ``csv`` module.

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
# no -ffast-math, no -march=native and no fused multiply-add: the kernel
# must round every operation as the numpy code it replaces does
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
    stream = [_B, _N, ctypes.c_uint64, _B, _N]  # seed bytes, stream, path bytes
    lib.train_steps.argtypes = [_P, _N, _N, _N, _P, _N, _P, _N, _N, _N, *stream,
                                _P, _N, _P, _N, _P, _P, _P, _P]
    lib.uniform.argtypes = [_P, _N, ctypes.c_double, ctypes.c_double, *stream]
    lib.grow.argtypes = [_P, _N, _N, _N, _P, _P]
    lib.parse_block.argtypes = [_B, _N, _N, _N, _N, _N, _N, _F64, _I64]
    lib.fit_open.argtypes = [_P, _P, _N, _N, _P, _N, _N, _N, _P, _D, _N, _D, ctypes.c_int,
                             _D, _D, _D, _N, _N, _N, _B, _N, _B, _N]
    lib.fit_store.argtypes = [_P, _P, _P, _P, _P]
    for f in (lib.fit_begin, lib.fit_step, lib.fit_grow, lib.fit_close):
        f.argtypes = [_P]
    for f in (lib.train_steps, lib.uniform, lib.grow, lib.parse_block, lib.fit_open,
              lib.fit_grow):
        f.restype = ctypes.c_int
    lib.fit_begin.restype = lib.fit_step.restype = _N
    lib.fit_store.restype = lib.fit_close.restype = None
    return lib


_BUFFER = ctypes.c_char * 0


def _address(name: str, a, dtype, ndim: int, writeable: bool = False) -> int:
    """Address of the data of ``a``, once it is what the kernel reads: a
    C-contiguous ``ndim``-dimensional array of ``dtype``, writeable if
    asked. The kernel gets raw addresses because converting ndpointer
    arguments cost most of a call on a small map; a writeable array's
    address comes through the buffer protocol, at half the cost of
    ``a.ctypes.data``."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == ndim
            and a.flags.c_contiguous and (a.flags.writeable or not writeable)):
        mode = "writeable " if writeable else ""
        raise TypeError(f"{name} must be a {mode}C-contiguous {ndim}-d {dtype} array")
    return ctypes.addressof(_BUFFER.from_buffer(a)) if a.flags.writeable else a.ctypes.data


def _stream(seed: int, stream: int, path: str) -> tuple:
    """The kernel's stream arguments for the entropy ``[seed, stream,
    *path.encode()]``: the seed's little-endian bytes (one byte for 0),
    their count, the stream, the path's UTF-8 bytes and their count."""
    seed = int(seed)
    seed_bytes = seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "little")
    path_bytes = path.encode("utf-8")
    return seed_bytes, len(seed_bytes), int(stream), path_bytes, len(path_bytes)


_STEP_ERRORS = {
    -1: (MemoryError, "train_steps: out of memory"),
    -2: (ValueError, "train_steps: sample index out of range"),
    -3: (ValueError, "train_steps: table slot out of range"),
}


def train_steps(weights, cols, x, order, table, slot, alpha, assign=False, start=0,
                draw=None):
    """Apply one online update per step ``s`` in ``start .. start +
    len(alpha)`` to the ``(units, dim)`` weights of a map with ``cols``
    columns, in place.

    Step ``s`` presents sample ``x[order[s]]`` and scales the step of
    every unit ``u`` by ``table[slot[g], s - start] * alpha[s - start]``,
    where ``g`` is the squared grid distance from the step's
    best-matching unit to ``u``; ``table`` has one column per step.

    With ``draw = (seed, stream, path)``, the call first fills ``order``
    with ``len(order) // len(x)`` permutations of ``range(len(x))``, the
    ones ``np.random.default_rng(np.random.SeedSequence([seed, stream,
    *path.encode()])).permuted`` gives for the rows of ``np.tile(
    np.arange(len(x)), (len(order) // len(x), 1))``; ``order`` must then
    be writeable and a whole number of permutations long.

    With ``assign``, the same call then assigns every row of ``x`` to its
    nearest unit of the trained weights and returns ``(dist, index,
    unit_mqe)``: each row's Euclidean distance to that unit and the
    unit's index (the first on ties, as ``np.argmin`` picks), and each
    unit's mean distance of its rows, taken in row order as ``np.mean``
    takes it (0 for a unit without rows). Without it, returns None.

    Every array must be C-contiguous float64 (``order`` and ``slot``
    int64) and ``weights`` writeable, or TypeError is raised; ValueError
    is raised for inconsistent shapes and for entries of ``order`` or
    ``slot`` outside ``x`` or ``table``, and ``weights`` is then left as
    it was.
    """
    w = _address("weights", weights, _DOUBLE, 2, writeable=True)
    xp = _address("x", x, _DOUBLE, 2)
    op = _address("order", order, _INT, 1, writeable=draw is not None)
    tp = _address("table", table, _DOUBLE, 2)
    sp = _address("slot", slot, _INT, 1)
    ap = _address("alpha", alpha, _DOUBLE, 1)
    units, dim = weights.shape
    n, steps, width = len(x), len(alpha), len(table)
    rows = units // cols if cols > 0 else 0
    if (rows < 1 or rows * cols != units or x.shape[1] != dim or table.shape[1] != steps
            or not 0 <= start <= len(order) - steps
            or (draw is not None and (n == 0 or len(order) % n))
            or len(slot) < (rows - 1) ** 2 + (cols - 1) ** 2 + 1):
        raise ValueError("train_steps: inconsistent array shapes")
    stream = (None, 0, 0, None, 0) if draw is None else _stream(*draw)
    # the outputs share one buffer, so one address serves all three
    out = np.empty(2 * n + units) if assign else None
    if assign:
        base = _address("out", out, _DOUBLE, 1)
        targets = (base, base + 8 * n, base + 16 * n)
    else:
        targets = (None, None, None)
    code = library().train_steps(w, rows, cols, dim, xp, n, op, len(order), start, steps,
                                 *stream, tp, width, sp, len(slot), ap, *targets)
    if code:
        error, message = _STEP_ERRORS[code]
        raise error(message)
    # unit_mqe is copied out, so a map that keeps it does not keep the rest
    return (out[:n], out[n:2 * n].view(np.int64), out[2 * n:].copy()) if assign else None


class _Head(ctypes.Structure):
    """The fields of a fit context (``fit_t`` in ``_kernel.c``) that
    Python reads and writes, in the kernel's order."""

    _fields_ = [("rows", _N), ("cols", _N), ("verdict", _N), ("mqe", _D),
                ("stream", ctypes.c_uint64), ("table", _P), ("table_cap", _N)]


# a cycle's verdict, ``fit_t.verdict``
GROW, CONVERGED, CAPPED = 0, 1, 2

_FIT_ERRORS = {
    -1: (MemoryError, "fit: out of memory"),
    -2: (ValueError, "fit: sample index out of range"),
    -3: (ValueError, "grow: no neighbour's distance compares"),
}


def _fit_error(code: int) -> Exception:
    error, message = _FIT_ERRORS[code]
    return error(message)


class Fit:
    """The kernel context of one map's fit, from its initial weights to
    its stop.

    It gathers the ``n`` samples ``data[indices]`` of a ``rows`` x
    ``cols`` map once and owns the weights, the cycle's sample order, the
    table of exp arguments and the last cycle's assignment and errors,
    growing them with the map. ``weights`` are copied in; without them
    the map starts at ``x.mean(axis=0) + u * x.std(axis=0)`` of the routed
    samples ``x``, with ``rows * cols * dim`` draws ``u`` of ``uniform(
    -noise, noise)`` from the map's stream 0, computed as numpy computes
    them. A cycle (``train``) trains ``lam`` epochs with the learning rate
    decaying from ``alpha0`` and the radius from ``sigma0`` (None: half
    the larger side of the map) to ``sigma_floor``, in blocks whose table
    holds about ``table_floats`` floats; then ``head.verdict`` says
    ``CONVERGED`` when the map MQE ``head.mqe`` is below ``threshold`` or
    0, else ``CAPPED`` when the map holds ``max_units`` units or has grown
    ``max_insertions`` times, else ``GROW``. ``grow`` inserts a row or
    column, ``store`` copies the fitted map out and ``close`` frees the
    context.
    """

    def __init__(self, data, indices, rows: int, cols: int, weights, *, lam: int,
                 alpha0: float, sigma0: float | None, sigma_floor: float, noise: float,
                 seed: int, path: str, threshold: float, max_units: int,
                 max_insertions: int, table_floats: int):
        self._ctx = None
        lib = library()
        data = np.ascontiguousarray(data, dtype=np.float64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        d = _address("data", data, _DOUBLE, 2)
        ix = _address("indices", indices, _INT, 1)
        w = None
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if weights.shape != (rows, cols, data.shape[1]):
                raise ValueError("fit: the weights do not match the map and the data")
            w = _address("weights", weights, _DOUBLE, 3)
        self.n, self.dim = len(indices), data.shape[1]
        if self.n < 1 or lam < 1 or rows < 1 or cols < 1:
            raise ValueError("fit: needs a sample, an epoch and a unit")
        seed_bytes, nseed, _, path_bytes, npath = _stream(seed, 0, path)
        ctx = _P()
        code = lib.fit_open(ctypes.byref(ctx), d, len(data), self.dim, ix, self.n, rows, cols,
                            w, noise, lam, alpha0, sigma0 is not None,
                            0.0 if sigma0 is None else sigma0, sigma_floor, threshold,
                            max_units, max_insertions, table_floats,
                            seed_bytes, nseed, path_bytes, npath)
        if code:
            raise _fit_error(code)
        self._ctx = ctx.value
        self._lib = lib
        self._begin, self._step = lib.fit_begin, lib.fit_step
        self.head = _Head.from_address(self._ctx)
        self._table = self._table_cap = None

    def train(self, stream: int) -> None:
        """One growth cycle, its sample order drawn from stream
        ``stream``: per block of steps the kernel schedules the table of
        exp arguments, numpy takes their ``exp`` in place (its SIMD
        ``exp`` and the C library's differ in the last bit), and the
        kernel trains; after the last block it assigns and scores."""
        head = self.head
        head.stream = stream
        used = self._begin(self._ctx)
        if head.table_cap != self._table_cap:
            # the kernel moved the table when the map grew
            self._table_cap = head.table_cap
            self._table = np.frombuffer((_D * self._table_cap).from_address(head.table))
        while used > 0:
            block = self._table[:used]
            np.exp(block, out=block)
            used = self._step(self._ctx)
        if used:
            raise _fit_error(used)

    def grow(self) -> tuple[int, int]:
        """Insert a row or column after a cycle; returns the new shape."""
        code = self._lib.fit_grow(self._ctx)
        if code < 0:
            raise _fit_error(code)
        return self.head.rows, self.head.cols

    def store(self) -> tuple:
        """The fitted map, in arrays of its own: the ``(rows, cols, dim)``
        weights, the ``(rows, cols)`` unit errors and each routed
        sample's unit row and column."""
        rows, cols = self.head.rows, self.head.cols
        out = (np.empty((rows, cols, self.dim)), np.empty((rows, cols)),
               np.empty(self.n, dtype=np.int64), np.empty(self.n, dtype=np.int64))
        self._lib.fit_store(self._ctx, *(ctypes.addressof(_BUFFER.from_buffer(a)) for a in out))
        return out

    def close(self) -> None:
        """Free the context; the object is unusable afterwards."""
        if self._ctx is not None:
            self._table = self.head = None
            self._lib.fit_close(self._ctx)
            self._ctx = None

    def __del__(self):
        self.close()


def uniform(count: int, low: float, high: float, seed: int, stream: int, path: str):
    """``count`` draws of ``np.random.default_rng(np.random.SeedSequence(
    [seed, stream, *path.encode()])).uniform(low, high, count)``, the same
    bits, from the kernel's copy of numpy's streams."""
    out = np.empty(count)
    if library().uniform(_address("out", out, _DOUBLE, 1), count, low, high,
                         *_stream(seed, stream, path)):
        raise MemoryError("uniform: out of memory")
    return out


def grow(weights, unit_mqe):
    """The ``(rows, cols, dim)`` weights with one row or column inserted
    between the error unit and its farthest 4-neighbour.

    The error unit is the first with the largest ``unit_mqe`` (as
    ``np.argmax`` picks it). Its neighbours are scanned right, left,
    below, above, and the first at the largest squared distance of
    weights, summed in numpy's pairwise order, wins: a neighbour in the
    same row gives a column, one in the same column a row. The new
    weights are ``0.5 * (a + b)`` of the two rows or columns they go
    between. ValueError is raised when no neighbour's distance compares
    (NaN weights, or a 1x1 map).
    """
    w = _address("weights", weights, _DOUBLE, 3)
    rows, cols, dim = weights.shape
    e = _address("unit_mqe", unit_mqe, _DOUBLE, 2)
    if unit_mqe.shape != (rows, cols):
        raise ValueError("grow: unit_mqe does not match the weights")
    out = np.empty((rows * cols + max(rows, cols)) * dim)
    axis = library().grow(w, rows, cols, dim, e, _address("out", out, _DOUBLE, 1))
    if axis < 0:
        raise ValueError("grow: no neighbour's distance compares")
    rows, cols = (rows, cols + 1) if axis == 1 else (rows + 1, cols)
    return out[:rows * cols * dim].reshape(rows, cols, dim)


def parse_block(data: bytes, pos, fields, label, limit, values, spans) -> bool:
    """Parse the CSV records of ``data[pos:]`` in place, without copying.

    Each record has ``fields`` fields: field 0 is the id and field
    ``label`` (-1: none) the label, whose ``[start, end)`` byte offsets
    go to the ``(rows, 4)`` int64 ``spans`` (label ones unset without a
    label); every other field is a number, stored in order in the
    ``(rows, number fields)`` float64 ``values``. No field may be longer
    than ``limit`` bytes. Returns False when the body is not exactly
    ``len(values)`` records of that grammar.
    """
    if not isinstance(data, bytes):  # a bytes object ends in a NUL byte
        raise TypeError("parse_block: data must be bytes")
    rows = len(values)
    if (values.shape != (rows, fields - 1 - (label >= 0)) or spans.shape != (rows, 4)
            or not 0 <= pos <= len(data) or not (label == -1 or 0 < label < fields)):
        raise ValueError("parse_block: inconsistent arguments")
    return library().parse_block(data, len(data), pos, rows, fields, label, limit,
                                 values, spans) == 0
