"""Sample-by-attribute matrices: CSV ingestion, validation, preprocessing.

The on-disk format is a plain UTF-8 CSV: first row is the header, first
column holds sample ids, every other column (except an optional label
column) holds real-valued attribute measurements. ``save_csv`` mirrors
``load_csv`` exactly, so a load/save round trip preserves every cell
bit-for-bit.

``load_csv`` parses an unquoted, rectangular file of finite numbers (LF
or CRLF line ends) in one ``np.loadtxt`` pass over the attribute columns.
Every other file (quoted fields, blank lines, spellings only ``float()``
accepts, non-finite or malformed cells) goes through the per-cell
``csv`` parser. Both give the same matrix bit for bit, and only the
per-cell parser raises, so error messages do not depend on the path.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np


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
        if not np.all(np.isfinite(self.values)):
            bad = np.argwhere(~np.isfinite(self.values))[0]
            raise ValueError(
                "non-finite value at sample "
                f"'{self.sample_ids[bad[0]]}', attribute "
                f"'{self.attribute_names[bad[1]]}'"
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

    A plain file is parsed in one vectorized pass: ids and labels are cut
    from each line, and ``np.loadtxt`` parses the attribute columns with
    the same correctly rounded conversion ``float()`` uses. That pass is
    taken only when its result is exactly what the per-cell ``csv`` parser
    returns: valid UTF-8 with no quote, NUL or ASCII separator
    (0x1C-0x1F) character, no carriage return outside a CRLF line end, no
    field longer than ``csv.field_size_limit()``, every row as wide as the
    header, unique ids and attribute names, an existing label column, and
    every cell a finite number that ``np.loadtxt`` accepts. Any other
    input (quoted fields, lone carriage returns, blank lines, ``1_0`` or
    non-ASCII digits, NaN, a malformed row) goes through the per-cell
    parser, which alone produces the errors, so messages and their
    precedence do not depend on the path.

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


# characters the csv module treats specially (quotes, NUL), and the ASCII
# separators np.loadtxt strips as whitespace where float() fails
_CELLWISE_CHARS = ('"', "\0", "\x1c", "\x1d", "\x1e", "\x1f")


def _load_numeric_block(path, has_labels, label_column) -> DataMatrix | None:
    """``load_csv`` in one ``np.loadtxt`` pass, or None outside the inputs
    where that pass is exactly the per-cell parser."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if any(c in text for c in _CELLWISE_CHARS):
        return None
    # csv ends a record at "\r\n" as at "\n" (save_csv writes "\r\n"); a
    # lone "\r" is left to the per-cell parser
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    # without quotes, a csv record is one line split at its commas
    lines = text.split("\n")
    del text
    if lines[-1] == "":
        lines.pop()
    limit = csv.field_size_limit()
    if len(lines) < 2 or any(
        len(line) > limit and max(map(len, line.split(","))) > limit for line in lines
    ):
        return None
    header = lines[0].split(",")
    columns = header[1:]
    body = lines[1:]
    if not columns or any(line.count(",") != len(columns) for line in body):
        return None

    label_idx = None
    if has_labels or label_column is not None:
        if label_column is None:
            label_column = columns[-1]
        if label_column not in columns:
            return None
        label_idx = columns.index(label_column)
    usecols = [i + 1 for i in range(len(columns)) if i != label_idx]
    if not usecols:
        return None
    labels = None
    if label_idx == len(columns) - 1:
        labels = [line.rpartition(",")[2] for line in body]
    elif label_idx is not None:
        labels = [line.split(",")[label_idx + 1] for line in body]
    # DataMatrix rejects duplicate ids and names, a shape that does not
    # match them and non-finite values: each sends the file to the
    # per-cell parser, which words the error
    try:
        return DataMatrix(
            values=np.loadtxt(body, delimiter=",", usecols=usecols, comments=None,
                              dtype=np.float64, ndmin=2),
            sample_ids=[line.partition(",")[0] for line in body],
            attribute_names=[header[i] for i in usecols],
            labels=labels,
            label_name=label_column,
        )
    except ValueError:
        return None


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
    if has_labels or label_column is not None:
        if label_column is None:
            label_column = columns[-1]
        if label_column not in columns:
            raise ValueError(f"{path}: no column named '{label_column}'")
        label_idx = columns.index(label_column)
    else:
        label_idx = None

    attribute_names = [c for i, c in enumerate(columns) if i != label_idx]
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
        label_name=label_column if labels is not None else None,
    )


def save_csv(m: DataMatrix, path) -> None:
    """Write a DataMatrix as CSV, mirroring the ``load_csv`` layout.

    Floats are printed with the shortest representation that round-trips,
    so ``load_csv(save_csv(m))`` reproduces ``m.values`` exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["id"] + list(m.attribute_names)
        if m.labels is not None:
            header.append(m.label_name or "label")
        writer.writerow(header)
        # csv writes a float as its repr, the shortest round-tripping text
        if m.labels is None:
            for sid, row in zip(m.sample_ids, m.values):
                writer.writerow([sid, *row.tolist()])
        else:
            for sid, row, label in zip(m.sample_ids, m.values, m.labels):
                writer.writerow([sid, *row.tolist(), label])


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
    attributes with the highest variance -> per-attribute z-scaling
    (population statistics; zero-variance attributes map to all zeros).
    """
    if spec.transpose:
        m = transpose(m)

    values = m.values.copy()
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
        variances = values.var(axis=0)
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

    return DataMatrix(
        values=values,
        sample_ids=list(m.sample_ids),
        attribute_names=names,
        labels=list(m.labels) if m.labels is not None else None,
        label_name=m.label_name,
    )
