"""Sample-by-attribute matrices: CSV ingestion, validation, preprocessing.

The on-disk format is a plain UTF-8 CSV: first row is the header, first
column holds sample ids, every other column (except an optional label
column) holds real-valued attribute measurements. ``save_csv`` mirrors
``load_csv`` exactly, so a load/save round trip preserves every cell
bit-for-bit.

``load_csv`` reads an unquoted, rectangular file of finite numbers (LF
or CRLF line ends) with one compiled pass over its bytes
(``_kernel.parse_block``), which validates every record and converts
every number to the correctly rounded double ``float()`` returns. As no
field is quoted, every LF ends a record, so a body of at least twice
``_PART_BYTES`` is cut after line ends into parts, one per CPU the
process may use, which the pass reads at once on as many threads. Every
other file (quoted fields, blank lines, lone carriage returns, spellings
such as ``1_0`` or ``inf``, non-finite or malformed cells, invalid
UTF-8) goes through the per-cell ``csv`` parser. Both give the same
matrix bit for bit, on every CPU and at any part count, and only the
per-cell parser raises, so error messages do not depend on the path.

``save_csv`` writes the file ``csv.writer`` writes for the rows ``[id,
*values, label]``: the kernel formats the numbers (``_kernel.format_rows``)
as ``repr()`` does, a block of rows at a time, and the ``csv`` module
quotes the header, the ids and the labels.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import os
import re
import threading
import types
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernel


@dataclass
class DataMatrix:
    """Dense samples x attributes matrix with ids and optional labels.

    Parameters
    ----------
    values : ndarray of shape (n_samples, n_attributes)
        Expression values; must be finite.
    sample_ids : list of str
        Unique row identifiers.
    attribute_names : list of str
        Unique column identifiers.
    labels : list of str, optional
        Per-sample categorical labels (e.g. cell type), aligned with rows.
    label_name : str, optional
        Header name of the label column, kept for round-tripping.
    """

    values: np.ndarray
    sample_ids: list[str]
    attribute_names: list[str]
    labels: list[str] | None = None
    label_name: str | None = None

    def __post_init__(self):
        self._check_layout()
        if not np.all(np.isfinite(self.values)):
            bad = np.argwhere(~np.isfinite(self.values))[0]
            raise ValueError(
                "non-finite value at sample "
                f"'{self.sample_ids[bad[0]]}', attribute "
                f"'{self.attribute_names[bad[1]]}'"
            )

    @classmethod
    def _of_finite(cls, values, sample_ids, attribute_names, labels, label_name) -> DataMatrix:
        """The matrix of ``values`` that are already known to be finite
        (``_kernel.parse_block`` rejects every non-finite number), checked
        like any other but without a second scan for finiteness."""
        m = cls.__new__(cls)
        m.values, m.sample_ids, m.attribute_names = values, sample_ids, attribute_names
        m.labels, m.label_name = labels, label_name
        m._check_layout()
        return m

    def _check_layout(self) -> None:
        """Everything ``__post_init__`` checks but finiteness."""
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        n, a = self.values.shape
        if len(self.sample_ids) != n:
            raise ValueError(f"expected {n} sample ids, got {len(self.sample_ids)}")
        if len(self.attribute_names) != a:
            raise ValueError(
                f"expected {a} attribute names, got {len(self.attribute_names)}"
            )
        if len(set(self.sample_ids)) != n:
            raise ValueError("duplicate sample ids")
        if len(set(self.attribute_names)) != a:
            raise ValueError("duplicate attribute names")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError(
                f"labels has {len(self.labels)} entries for {n} samples"
            )

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.values.shape[1]

    def attribute_index(self, name: str) -> int:
        try:
            return self.attribute_names.index(name)
        except ValueError:
            raise KeyError(f"unknown attribute '{name}'") from None


@dataclass(frozen=True)
class PreprocessSpec:
    """Which preprocessing steps to apply, in the fixed pipeline order.

    Steps run in this order: transpose, log-normalize, top-k variable
    attribute selection, per-attribute z-scaling. Every step is opt-in.
    """

    transpose: bool = False
    log_normalize: bool = False
    scale_factor: float = 10_000.0
    top_k_variable: int | None = None
    zscore: bool = False

    def __post_init__(self):
        if self.scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        if self.top_k_variable is not None and self.top_k_variable < 1:
            raise ValueError("top_k_variable must be a positive integer")


def load_csv(
    path,
    has_labels: bool = False,
    label_column: str | None = None,
) -> DataMatrix:
    """Load a sample x attribute CSV.

    A plain file is parsed by one compiled pass over its bytes, in parts
    of at least ``_PART_BYTES`` on as many threads as the process has
    usable CPUs, each part a row slice of the one matrix: only the
    header is decoded in Python, and the pass both validates every record
    and converts every number to the double ``float()`` returns (exactly
    for at most 15 significant digits and a decimal exponent within
    +-22, by the C library's correctly rounded ``strtod`` otherwise), the
    same bits on every CPU. It accepts records of as many fields as the
    header, ending in LF or CRLF; ids and labels holding no quote, CR,
    LF, NUL or ASCII separator (0x1C-0x1F) and valid UTF-8; number
    fields of the form
    ``[+-]digits[.digits][e[+-]digits]`` (``1.`` and ``.5`` included),
    padded at most with the whitespace ``float()`` strips; no field
    longer than ``csv.field_size_limit()`` bytes; finite values; unique
    ids and attribute names; and an existing label column. Any other
    input (quoted fields, lone carriage returns, blank lines, ``1_0`` or
    non-ASCII digits, NaN, a malformed row, in any part) goes through the
    per-cell parser, which alone produces the errors, so messages and
    their precedence do not depend on the path or the part count.

    Parameters
    ----------
    path : str or Path
        CSV file; first row header, first column sample ids.
    has_labels : bool
        If true, one column holds categorical labels instead of numbers.
    label_column : str, optional
        Name of the label column. Defaults to the last column when
        ``has_labels`` is set.

    Returns
    -------
    DataMatrix
        Rows in file order, label column split out of ``values``.
    """
    m = _load_numeric_block(path, has_labels, label_column)
    if m is None:
        m = _load_cells(path, has_labels, label_column)
    return m


def _split_label(path, columns, has_labels, label_column):
    """The label column's index in ``columns`` (``None`` without one),
    its name and the attribute names: the columns without the label."""
    label_idx = None
    if has_labels or label_column is not None:
        if label_column is None:
            label_column = columns[-1]
        if label_column not in columns:
            raise ValueError(f"{path}: no column named '{label_column}'")
        label_idx = columns.index(label_column)
    return label_idx, label_column, [c for i, c in enumerate(columns) if i != label_idx]


# a header field holding one of these is the per-cell parser's: csv
# quotes, a CR outside a CRLF line end, NUL and the ASCII separators
_HEADER_SPECIAL = re.compile('["\r\0\x1c-\x1f]')


def _load_numeric_block(path, has_labels, label_column) -> DataMatrix | None:
    """``load_csv`` by one compiled pass over the file's bytes, or None
    outside the inputs where that pass is exactly the per-cell parser."""
    with open(path, "rb") as fh:
        raw = fh.read()
    body = raw.find(b"\n") + 1
    if not body:
        return None
    try:
        text = raw[:body].decode("utf-8").removesuffix("\n").removesuffix("\r")
    except UnicodeDecodeError:
        return None
    limit = csv.field_size_limit()
    header = text.split(",")
    columns = header[1:]
    if (not columns or _HEADER_SPECIAL.search(text)
            or any(len(name) > limit for name in header)):
        return None

    try:
        label_idx, label_column, names = _split_label(path, columns, has_labels, label_column)
    except ValueError:
        return None
    if not names:
        return None
    parts = _parts(raw, body)
    # one record per line end, and one more if the last line has none
    counts = _in_threads([functools.partial(_kernel.count_lines, raw, *part)
                          for part in parts])
    counts[-1] += not raw.endswith(b"\n")
    rows = sum(counts)
    if not rows:
        return None
    values = np.empty((rows, len(names)))
    spans = np.empty((rows, 4), dtype=np.int64)
    label = -1 if label_idx is None else label_idx + 1
    starts = itertools.accumulate(counts, initial=0)
    if not all(_in_threads([
            functools.partial(_kernel.parse_block, raw, a, b, len(header), label, limit,
                              values[r:r + count], spans[r:r + count])
            for (a, b), r, count in zip(parts, starts, counts)])):
        return None
    # DataMatrix rejects duplicate ids and names: either sends the file,
    # like ids or labels that are not UTF-8, to the per-cell parser,
    # which words the error; parse_block has rejected every non-finite
    # value, so the values are not scanned again
    try:
        return DataMatrix._of_finite(
            values=values,
            sample_ids=[raw[a:b].decode("utf-8") for a, b in spans[:, :2].tolist()],
            attribute_names=names,
            labels=(None if label_idx is None else
                    [raw[a:b].decode("utf-8") for a, b in spans[:, 2:].tolist()]),
            label_name=label_column,
        )
    except ValueError:  # UnicodeDecodeError included
        return None


# the least body bytes a part of the compiled pass takes, so a small file
# is one part and a thread's start is a small share of its part's work
_PART_BYTES = 1 << 20


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _parts(raw: bytes, body: int) -> list[tuple[int, int]]:
    """``raw[body:]`` cut into ``[start, end)`` parts, one per usable CPU
    but none below ``_PART_BYTES``: each cut follows the first ``b"\n"``
    at or after an equal share, so each part holds whole records, and the
    last part ends the file."""
    size = len(raw) - body
    k = max(1, min(_usable_cpus(), size // _PART_BYTES))
    ends = sorted({len(raw), *(raw.find(b"\n", body + size * i // k) + 1 or len(raw)
                               for i in range(1, k))})
    return list(zip([body, *ends], ends))


def _in_threads(tasks: list) -> list:
    """The result of each of ``tasks``, called at once: the first on this
    thread and each other on a thread of its own. The kernel's calls
    release the GIL, so the parts of a file parse on as many CPUs. The
    first exception raised is raised here, after every task is done."""
    results, errors = [None] * len(tasks), []

    def run(i):
        try:
            results[i] = tasks[i]()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(tasks))]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def _load_cells(path, has_labels, label_column) -> DataMatrix:
    """``load_csv`` by ``csv.reader`` and one ``float()`` per cell: the
    exact fallback, and the only source of ``load_csv``'s errors."""
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
    label_idx, label_column, attribute_names = _split_label(
        path, columns, has_labels, label_column)
    sample_ids: list[str] = []
    labels: list[str] | None = [] if label_idx is not None else None
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
                labels.append(cell)  # type: ignore[union-attr]
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
        label_name=label_column,
    )


def save_csv(m: DataMatrix, path) -> None:
    """Write a DataMatrix as CSV, mirroring the ``load_csv`` layout.

    Floats are printed as ``repr()`` prints them, the shortest text that
    round-trips, so ``load_csv(save_csv(m))`` reproduces ``m.values``
    exactly. Raises ValueError, before the file is opened, when the label
    column's name is also an attribute's name, which ``load_csv`` could
    not tell apart.
    """
    label_name = m.label_name or "label"
    if m.labels is not None and label_name in m.attribute_names:
        raise ValueError(f"label column name '{label_name}' is also an attribute name")
    ids = _csv_fields(m.sample_ids, alone=m.n_attributes == 0 and m.labels is None)
    if m.labels is None:
        ends = [_LINE_END] * m.n_samples
    else:
        distinct = list(set(m.labels))
        quoted = {label: f",{text}{_LINE_END}"
                  for label, text in zip(distinct, _csv_fields(distinct))}
        ends = [quoted[label] for label in m.labels]
    step = max(1, _BLOCK_CELLS // max(1, m.n_attributes))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        header = ["id", *m.attribute_names]
        if m.labels is not None:
            header.append(label_name)
        csv.writer(fh).writerow(header)
        for start in range(0, m.n_samples, step):
            stop = start + step
            rows = _kernel.format_rows(m.values[start:stop]).split("\n")
            fh.write("".join([a + b + c for a, b, c in zip(ids[start:stop], rows,
                                                           ends[start:stop])]))


# the cells save_csv formats at a time, at most 1.6 MB of text; a wider
# row goes alone
_BLOCK_CELLS = 1 << 16
_LINE_END = csv.get_dialect("excel").lineterminator


def _csv_fields(fields: list, alone: bool = False) -> list[str]:
    """The text ``csv.writer`` writes for each of ``fields`` as one field
    of a longer row, or ``alone`` in its row (where it quotes an empty
    one): its own quoting, and its own text for a field that is not a
    str, whatever the Python version. The writer hands each row to
    ``write`` in one call, so each call is one field's text."""
    texts: list[str] = []
    writer = csv.writer(types.SimpleNamespace(write=texts.append))
    writer.writerows(zip(fields) if alone else zip(fields, itertools.repeat("")))
    end = len(_LINE_END) + (0 if alone else 1)
    return [text[:-end] for text in texts]


def transpose(m: DataMatrix) -> DataMatrix:
    """Swap the sample and attribute axes.

    Labels describe the old row axis and are dropped.
    """
    return DataMatrix(
        values=m.values.T.copy(),
        sample_ids=list(m.attribute_names),
        attribute_names=list(m.sample_ids),
        labels=None,
    )


def preprocess(m: DataMatrix, spec: PreprocessSpec) -> DataMatrix:
    """Apply the preprocessing pipeline in its fixed order.

    transpose -> log-normalize (per-row: divide by row sum, multiply by
    ``scale_factor``, then ln(1 + v)) -> keep the ``top_k_variable``
    attributes with the highest variance (``values.var(axis=0)``'s bits,
    in one kernel call, ``_kernel.column_var``, without numpy's array of
    squared deviations) -> per-attribute z-scaling (population
    statistics; zero-variance attributes map to all zeros).
    """
    source = m.values
    if spec.transpose:
        m = transpose(m)

    values = m.values
    names = list(m.attribute_names)

    if spec.log_normalize:
        row_sums = values.sum(axis=1)
        zero = np.flatnonzero(row_sums == 0)
        if zero.size:
            raise ValueError(
                f"log-normalize: sample '{m.sample_ids[zero[0]]}' has a zero row sum"
            )
        values = np.log1p(values / row_sums[:, None] * spec.scale_factor)

    if spec.top_k_variable is not None:
        k = spec.top_k_variable
        if k > values.shape[1]:
            raise ValueError(
                f"top_k_variable={k} exceeds the {values.shape[1]} available attributes"
            )
        variances = _kernel.column_var(values)
        # stable sort keeps original column order among ties
        top = np.sort(np.argsort(-variances, kind="stable")[:k])
        values = values[:, top]
        names = [names[i] for i in top]

    if spec.zscore:
        mean = values.mean(axis=0)
        std = values.std(axis=0)
        # exactly-constant attributes collapse to zero; float rounding can
        # report std > 0 for them, so test the spread, not the statistic
        live = (values.max(axis=0) > values.min(axis=0)) & (std > 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            values = np.where(live, (values - mean) / np.where(live, std, 1.0), 0.0)
            # one compensation pass: near-constant attributes can keep
            # O(eps * |x| / std) residual moments after a single pass
            mean = values.mean(axis=0)
            std = values.std(axis=0)
            live &= std > 0
            values = np.where(live, (values - mean) / np.where(live, std, 1.0), values)

    # every step makes a new array; without one, the result gets a copy
    return DataMatrix(
        values=values.copy() if values is source else values,
        sample_ids=list(m.sample_ids),
        attribute_names=names,
        labels=list(m.labels) if m.labels is not None else None,
        label_name=m.label_name,
    )
