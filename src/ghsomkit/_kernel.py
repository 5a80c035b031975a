"""Loader of the compiled SOM kernel in ``_kernel.c``.

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
    lib = ctypes.CDLL(str(build()))
    lib.train_steps.argtypes = [_F64, _N, _N, _N, _F64, _I64, _N, _F64, _N, _I64]
    lib.train_steps.restype = ctypes.c_int
    lib.nearest.argtypes = [_F64, _N, _F64, _N, _N, _F64, _I64]
    lib.nearest.restype = ctypes.c_int
    return lib


def train_steps(weights, cols, x, order, table, slot) -> None:
    """Apply one online update per entry of ``order`` to the
    ``(units, dim)`` weights of a map with ``cols`` columns, in place.

    Step ``s`` presents sample ``x[order[s]]`` and scales the step of
    every unit ``u`` by ``table[s, slot[g]]``, where ``g`` is the squared
    grid distance from the step's best-matching unit to ``u``.
    """
    units, dim = weights.shape
    rows = units // cols
    if (rows * cols != units or x.shape[1] != dim or len(table) != len(order)
            or len(slot) < (rows - 1) ** 2 + (cols - 1) ** 2 + 1):
        raise ValueError("train_steps: inconsistent array shapes")
    if len(order) and not (0 <= order.min() and order.max() < len(x)):
        raise ValueError("train_steps: sample index out of range")
    if not (0 <= slot.min() and slot.max() < table.shape[1]):
        raise ValueError("train_steps: table slot out of range")
    if library().train_steps(weights, rows, cols, dim, x, order, len(order),
                             table, table.shape[1], slot):
        raise MemoryError("train_steps: out of memory")


def nearest(x, w) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each row of ``x`` to its nearest row of ``w``, and
    that row's index (the first one on ties)."""
    if x.shape[1] != w.shape[1] or len(w) == 0:
        raise ValueError("nearest: inconsistent array shapes")
    dist = np.empty(len(x))
    index = np.empty(len(x), dtype=np.int64)
    if library().nearest(x, len(x), w, len(w), w.shape[1], dist, index):
        raise MemoryError("nearest: out of memory")
    return dist, index
