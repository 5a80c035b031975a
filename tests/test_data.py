import contextlib
import csv
import itertools
import math
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ghsomkit import DataMatrix, PreprocessSpec, load_csv, preprocess, save_csv, transpose
from ghsomkit import _kernel, data
from helpers import cpu_flags
from oracles import load_csv_cells, ryu_tables, save_csv_rows


def _matrix(values, labels=None):
    values = np.asarray(values, dtype=float)
    n, a = values.shape
    return DataMatrix(
        values=values,
        sample_ids=[f"s{i}" for i in range(n)],
        attribute_names=[f"f{j}" for j in range(a)],
        labels=labels,
        label_name="label" if labels is not None else None,
    )


def test_roundtrip_exact_awkward_floats(tmp_path):
    vals = np.array(
        [
            [0.1, 1e-17, -0.0],
            [1234567.890123456789, 2**-1074, -1e300],
            [np.pi, 1 / 3, 6.02e23],
        ]
    )
    m = _matrix(vals, labels=["a", "b", "a"])
    p = tmp_path / "m.csv"
    save_csv(m, p)
    back = load_csv(p, label_column="label")
    assert back.values.tobytes() == m.values.tobytes()
    assert back.sample_ids == m.sample_ids
    assert back.attribute_names == m.attribute_names
    assert back.labels == m.labels
    assert back.label_name == "label"


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 8), st.integers(1, 6)),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
)
def test_roundtrip_property(vals):
    m = _matrix(vals)
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.csv"
        save_csv(m, p)
        back = load_csv(p)
    # bitwise equality, including signed zeros and subnormals
    assert back.values.tobytes() == m.values.tobytes()


def test_load_default_label_column_is_last(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("id,f0,f1,kind\na,1,2,x\nb,3,4,y\n")
    m = load_csv(p, has_labels=True)
    assert m.attribute_names == ["f0", "f1"]
    assert m.labels == ["x", "y"]
    assert m.label_name == "kind"


def test_load_label_column_by_name_mid_table(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("id,f0,kind,f1\na,1,x,2\nb,3,y,4\n")
    m = load_csv(p, label_column="kind")
    assert m.attribute_names == ["f0", "f1"]
    np.testing.assert_array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])
    assert m.labels == ["x", "y"]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty file"),
        ("id\n", "at least one attribute"),
        ("id,f0\n", "no data rows"),
        ("id,f0\na,1\na,2\n", "duplicate sample id 'a'"),
        ("id,f0\na,nan\n", "non-finite"),
        ("id,f0\na,inf\n", "non-finite"),
        ("id,f0\na,zebra\n", "cannot parse 'zebra'"),
        ("id,f0\na,1,9\n", "expected 2"),
    ],
)
def test_load_rejects_malformed(tmp_path, text, fragment):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=fragment):
        load_csv(p)


@pytest.mark.parametrize("text, cell", [
    ("id,f0,f1\na,1,nan\n", "(row 1, col f1)"),
    ("id,f0,f1\na,1,2\nb,-inf,3\n", "(row 2, col f0)"),
    ("id,f0,f1\r\na,1e400,2\r\n", "(row 1, col f0)"),
])
def test_load_non_finite_fails_with_its_cell(tmp_path, text, cell):
    # the compiled pass rejects every non-finite number, which is why the
    # matrix it builds is not scanned for one again: such a file goes to
    # the per-cell parser, whose message names the cell
    p = tmp_path / "m.csv"
    p.write_bytes(text.encode())
    assert data._load_numeric_block(p, False, None) is None
    with pytest.raises(ValueError) as got:
        load_csv(p)
    assert str(got.value) == f"{p}: non-finite value at {cell}"


def test_load_missing_label_column(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("id,f0\na,1\n")
    with pytest.raises(ValueError, match="no column named 'kind'"):
        load_csv(p, label_column="kind")


def test_matrix_validation():
    with pytest.raises(ValueError, match="duplicate sample ids"):
        DataMatrix(np.ones((2, 1)), ["a", "a"], ["f0"])
    with pytest.raises(ValueError, match="duplicate attribute names"):
        DataMatrix(np.ones((1, 2)), ["a"], ["f", "f"])
    with pytest.raises(ValueError, match="non-finite value at sample 's1'"):
        _matrix([[1.0, 2.0], [np.nan, 4.0]])
    with pytest.raises(ValueError, match="2-D"):
        DataMatrix(np.ones(3), ["a", "b", "c"], ["f"])


def test_transpose_swaps_axes_and_drops_labels():
    m = _matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], labels=["x", "y"])
    t = transpose(m)
    assert t.sample_ids == ["f0", "f1", "f2"]
    assert t.attribute_names == ["s0", "s1"]
    assert t.labels is None
    np.testing.assert_array_equal(t.values, m.values.T)
    back = transpose(t)
    np.testing.assert_array_equal(back.values, m.values)


def test_log_normalize_matches_formula():
    m = _matrix([[1.0, 3.0], [5.0, 5.0]])
    out = preprocess(m, PreprocessSpec(log_normalize=True, scale_factor=100.0))
    expected = np.log1p(np.array([[25.0, 75.0], [50.0, 50.0]]))
    np.testing.assert_allclose(out.values, expected, rtol=0, atol=0)


def test_log_normalize_rejects_zero_row():
    m = _matrix([[0.0, 0.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match="zero row sum"):
        preprocess(m, PreprocessSpec(log_normalize=True))


def test_top_k_variable_keeps_highest_variance_in_order():
    rng = np.random.default_rng(0)
    vals = np.column_stack(
        [
            rng.normal(scale=0.1, size=40),  # f0, low
            rng.normal(scale=5.0, size=40),  # f1, high
            rng.normal(scale=1.0, size=40),  # f2, mid
        ]
    )
    out = preprocess(_matrix(vals), PreprocessSpec(top_k_variable=2))
    assert out.attribute_names == ["f1", "f2"]
    np.testing.assert_array_equal(out.values, vals[:, [1, 2]])


def _variance_inputs():
    rng = np.random.default_rng(0)
    magnitudes = 10.0 ** rng.integers(-300, 301, size=(40, 6))
    overflow = [[1e300, 1.7e308, -1e-300], [-1e300, 1.7e308, 2e-300], [3e299, 1.0, 0.0]]
    return {
        "one-row": rng.normal(size=(1, 9)),
        "one-by-one": np.array([[2.5]]),
        "one-column": rng.normal(size=(37, 1)),  # numpy's pairwise sum
        "one-long-column": rng.normal(size=(1000, 1)) + 1e3,  # pairwise halves
        "rows-not-a-multiple-of-8": rng.normal(size=(37, 5)),
        "many-rows": rng.normal(size=(5000, 30)) * 7.0 + 2.0,
        "constant-columns": np.tile([3.0, -0.1, 0.0, 1e-300], (19, 1)),
        "negative-zero": np.array([[-0.0, 0.0, -0.0], [-0.0, -0.0, 1.0], [-0.0, 0.0, -1.0]]),
        "magnitudes": rng.normal(size=(40, 6)) * magnitudes,
        "squares-overflow": np.array(overflow),
    }


@pytest.mark.parametrize("name", list(_variance_inputs()))
def test_column_var_is_numpys_var(name):
    # the kernel's column variance, which ranks top_k_variable, is
    # numpy's to the bit, with numpy's own temporaries, for the rows in C
    # order whatever the layout they come in
    x = _variance_inputs()[name]
    with np.errstate(over="ignore"):
        want = x.var(axis=0)
    assert _kernel.column_var(x).tobytes() == want.tobytes()
    assert _kernel.column_var(np.asfortranarray(x)).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=20),
                  elements=st.floats(allow_nan=False, allow_infinity=False, width=64)))
def test_column_var_is_numpys_var_property(x):
    with np.errstate(over="ignore"):
        want = x.var(axis=0)
    assert _kernel.column_var(x).tobytes() == want.tobytes()


def test_top_k_variable_exceeding_width_rejected():
    m = _matrix([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError, match="exceeds the 2 available"):
        preprocess(m, PreprocessSpec(top_k_variable=3))


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(2, 20), st.integers(1, 6)),
        elements=st.floats(-1e6, 1e6),
    )
)
def test_zscore_moments(vals):
    out = preprocess(_matrix(vals), PreprocessSpec(zscore=True))
    mean = out.values.mean(axis=0)
    var = out.values.var(axis=0)
    for j in range(vals.shape[1]):
        if np.all(out.values[:, j] == 0.0):
            # only attributes with (float-)zero variance may collapse
            assert np.ptp(vals[:, j]) == 0 or np.var(vals[:, j]) == 0
        else:
            assert abs(mean[j]) < 1e-9
            assert abs(var[j] - 1.0) < 1e-9


def test_preprocess_deterministic():
    rng = np.random.default_rng(5)
    m = _matrix(rng.uniform(0.1, 9.0, size=(15, 7)))
    spec = PreprocessSpec(log_normalize=True, top_k_variable=4, zscore=True)
    a = preprocess(m, spec)
    b = preprocess(m, spec)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.attribute_names == b.attribute_names


@pytest.mark.parametrize("flags", list(itertools.product([False, True], repeat=4)))
def test_preprocess_result_owns_its_values(flags):
    # each step makes a new array and the result is copied only when no
    # step ran: either way it shares no memory with the input, whose bits
    # stay as they were
    transpose_, log_normalize, top_k, zscore = flags
    spec = PreprocessSpec(transpose=transpose_, log_normalize=log_normalize,
                          top_k_variable=2 if top_k else None, zscore=zscore)
    vals = np.random.default_rng(3).uniform(0.1, 9.0, size=(6, 4))
    m = _matrix(vals.copy(), labels=list("xyxyxy"))
    out = preprocess(m, spec)
    assert not np.shares_memory(out.values, m.values)
    assert m.values.tobytes() == vals.tobytes()


def test_preprocess_pipeline_order():
    # transpose happens first: top_k then selects among original rows
    m = _matrix([[1.0, 2.0], [3.0, 400.0], [5.0, 6.0]], labels=["x", "y", "z"])
    out = preprocess(m, PreprocessSpec(transpose=True, top_k_variable=1))
    assert out.sample_ids == ["f0", "f1"]
    assert out.attribute_names == ["s1"]  # row s1 had the wild value
    assert out.labels is None


def test_preprocess_spec_validation():
    with pytest.raises(ValueError, match="scale_factor"):
        PreprocessSpec(scale_factor=0.0)
    with pytest.raises(ValueError, match="top_k_variable"):
        PreprocessSpec(top_k_variable=0)


# ------------------------------------------------------- loader parity
# load_csv parses the file in one compiled pass when that is exact and
# falls back to the per-cell parser otherwise; either way it must return
# what the per-cell reference returns, or raise its error verbatim.

PLAIN = "id,f0,f1,kind\n a,1.5,-2, x y \nb ,0.1,3e-5,y\n"
_LIMIT = csv.field_size_limit()

# (case id, file contents as text or bytes, load_csv keywords, vectorized
# pass expected)
PARITY_CASES = [
    ("plain", PLAIN, {"has_labels": True}, True),
    ("no-trailing-newline", PLAIN.rstrip("\n"), {"has_labels": True}, True),
    ("unlabelled", "id,f0,f1\na,1,2\nb,3,4\n", {}, True),
    ("blank-line-mid-file", "id,f0,f1\na,1,2\n\nb,3,4\n", {}, False),
    ("blank-line-at-end", "id,f0\na,1\n\n", {}, False),
    ("extra-field", "id,f0,kind\na,1,x\nb,2,y,z\n", {"has_labels": True}, False),
    ("missing-field", "id,f0,f1\na,1,2\nb,3\n", {}, False),
    ("quoted-id-with-comma", 'id,f0\n"a,b",1\nc,2\n', {}, False),
    ("quoted-label", 'id,f0,kind\na,1,"x ""y"""\nb,2,z\n', {"has_labels": True}, False),
    ("crlf", "id,f0,kind\r\na,1,x\r\nb,2,y\r\n", {"has_labels": True}, True),
    ("crlf-and-lf", "id,f0,kind\r\na,1,x\nb,2,y\r\n", {"has_labels": True}, True),
    ("crlf-blank-line", "id,f0\r\na,1\r\n\r\nb,2\r\n", {}, False),
    ("lone-cr", "id,f0\ra,1\rb,2\r", {}, False),
    ("cr-mid-line", "id,f0\na,1\r2\n", {}, False),
    ("cr-at-end", "id,f0\r\na,1\r", {}, False),
    ("hash-id", "id,f0\n#a,1\nb,2\n", {}, True),
    ("hash-cell", "id,f0\na,1\nb,#2\n", {}, False),
    ("one-row", "id,f0,f1,f2\na,1,2,3\n", {}, True),
    ("one-column", "id,f0\na,1\nb,2\nc,3\n", {}, True),
    ("one-row-one-column", "id,f0,kind\na,7,x\n", {"has_labels": True}, True),
    ("no-attribute-column", "id,kind\na,x\nb,y\n", {"has_labels": True}, False),
    ("underscore-digits", "id,f0\na,1_0\nb,2\n", {}, False),
    ("non-ascii-digits", "id,f0\na,１２\nb,٣\n", {}, False),
    ("ascii-separator-padding", "id,f0\na,1\x1c\nb,2\n", {}, False),
    ("padded", "id,f0,f1\na, 1 ,\t2\nb, 3,4 \n", {}, True),
    ("nan", "id,f0\na,1\nb,nan\n", {}, False),
    ("inf", "id,f0\na,-inf\n", {}, False),
    ("overflow", "id,f0\na,1e400\n", {}, False),
    ("underflow-to-negative-zero", "id,f0,f1\na,-1e-400,1e-400\n", {}, True),
    ("subnormal-and-long-mantissa",
     "id,f0,f1\na,4.9e-324,0." + "0" * 400 + "1234567890123456789012345\n", {}, True),
    ("label-mid-table", "id,f0,kind,f1\na,1,x,2\nb,3,y,4\n", {"label_column": "kind"}, True),
    ("label-first", "id,kind,f0\na,x,1\nb,y,2\n", {"label_column": "kind"}, True),
    ("bom", "\ufeffid,f0,kind\na,1,x\nb,2,y\n", {"has_labels": True}, True),
    ("duplicate-id", "id,f0\na,1\nb,2\na,3\n", {}, False),
    ("duplicate-attribute-name", "id,f0,f0\na,1,2\n", {}, False),
    ("missing-label-column", "id,f0\na,1\n", {"label_column": "kind"}, False),
    ("empty-cell", "id,f0,f1\na,,1\n", {}, False),
    ("empty-file", "", {}, False),
    ("header-only", "id,f0\n", {}, False),
    ("header-only-crlf", "id,f0\r\n", {}, False),
    ("header-only-no-newline", "id,f0", {}, False),
    ("crlf-no-trailing-newline", "id,f0,kind\r\na,1,x\r\nb,2,y", {"has_labels": True}, True),
    ("no-attribute-header", "id\na\n", {}, False),
    # several faults: the per-cell parser's order decides the message
    ("ragged-row-before-bad-cell", "id,f0\na,1,2\nb,zebra\n", {}, False),
    ("bad-cell-before-ragged-row", "id,f0\na,zebra\nb,1,2\n", {}, False),
    ("non-finite-before-duplicate-id", "id,f0\na,1\na,inf\n", {}, False),
    ("bad-cell-before-non-finite", "id,f0,f1\na,nan,zebra\n", {}, False),
    ("vt-ff-padding", "id,f0,f1\na,\v1\f,\f 2\v\nb,\v\v3,4\f\f\n", {}, True),
    ("utf8-id-and-label", "id,f0,kind\nü€,1,ñandú 日本\nb,2,y\n", {"has_labels": True}, True),
    ("invalid-utf8-label", b"id,f0,kind\na,1,x\xff\xfey\nb,2,z\n", {"has_labels": True}, False),
    ("invalid-utf8-after-number", b"id,f0\na,1\xe2\x80\x31\n", {}, False),
    ("zero-width-space-padding", "id,f0\na,1\u200b\n", {}, False),
    ("crlf-label-mid-table", "id,f0,kind,f1\r\na,1,x,2\r\nb,3,y,4\r\n",
     {"label_column": "kind"}, True),
    ("ascii-separator-in-label", "id,f0,kind\na,1,x\x1dy\nb,2,z\n", {"has_labels": True}, False),
    ("quoted-header", 'id,"f,0",f1\na,1,2,3\n', {}, False),
    ("cr-in-header", "id,f\r0\na,1\n", {}, False),
    ("number-at-field-size-limit",
     "id,f0\na,0." + "0" * (_LIMIT - 3) + "1\nb,2\n", {}, True),
    ("number-over-field-size-limit",
     "id,f0\na,0." + "0" * (_LIMIT - 2) + "1\nb,2\n", {}, False),
]


@contextlib.contextmanager
def _running(lib):
    """load_csv with the kernel library ``lib``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "library", lambda: lib)
        yield


def _vectorized(path, has_labels=False, label_column=None):
    return data._load_numeric_block(path, has_labels, label_column) is not None


def _assert_same_as_cells(path, **kwargs):
    try:
        want = load_csv_cells(path, **kwargs)
    except Exception as exc:  # the reference's error, whatever its type
        with pytest.raises(type(exc)) as got:
            load_csv(path, **kwargs)
        assert str(got.value) == str(exc)
        return
    got = load_csv(path, **kwargs)
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    assert got.values.flags.c_contiguous
    assert got.sample_ids == want.sample_ids
    assert got.attribute_names == want.attribute_names
    assert got.labels == want.labels
    assert got.label_name == want.label_name


@pytest.mark.parametrize(
    "text,kwargs,vectorized",
    [case[1:] for case in PARITY_CASES],
    ids=[case[0] for case in PARITY_CASES],
)
def test_load_matches_per_cell_reference(tmp_path, text, kwargs, vectorized):
    p = tmp_path / "m.csv"
    p.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    _assert_same_as_cells(p, **kwargs)
    assert _vectorized(p, **kwargs) == vectorized


def test_load_invalid_utf8_matches_per_cell_reference(tmp_path):
    p = tmp_path / "m.csv"
    p.write_bytes(b"id,f0\na,1\n\xff\xfe,2\n")
    _assert_same_as_cells(p)
    assert not _vectorized(p)


def test_load_field_size_limit_matches_per_cell_reference(tmp_path):
    # csv refuses a field longer than field_size_limit(); a long line of
    # short fields is fine and stays on the vectorized pass
    p_long_id = tmp_path / "long_id.csv"
    p_long_id.write_text("id,f0\n" + "a" * 60 + ",1\nb,2\n")
    p_long_name = tmp_path / "long_name.csv"
    p_long_name.write_text("id,f" + "0" * 60 + "\na,1\n")
    p_long_line = tmp_path / "long_line.csv"
    p_long_line.write_text("id," + ",".join(f"f{j}" for j in range(40)) + "\n"
                           + "a," + ",".join(["1.25"] * 40) + "\n")
    old = csv.field_size_limit(50)
    try:
        _assert_same_as_cells(p_long_id)
        _assert_same_as_cells(p_long_line)
        _assert_same_as_cells(p_long_name)
        assert not _vectorized(p_long_id)
        assert not _vectorized(p_long_name)
        assert _vectorized(p_long_line)
    finally:
        csv.field_size_limit(old)


_AWKWARD_TEXT = st.text(alphabet=st.sampled_from('ab1 ,"#\n\r\té'), max_size=6)


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 6))
    a = draw(st.integers(1, 5))
    values = draw(hnp.arrays(
        np.float64, (n, a),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
    ))
    spell = draw(st.sampled_from([repr, "{:.17g}".format, "{:.3e}".format, "{:.6g}".format]))
    ids = st.from_regex(r"s[0-9]{1,3}", fullmatch=True)
    labels = st.sampled_from(["x", "y"])
    terminator = "\n"
    if draw(st.booleans()):  # quoted fields or CRLF: the per-cell path
        ids = st.one_of(ids, _AWKWARD_TEXT)
        labels = st.one_of(labels, _AWKWARD_TEXT)
        terminator = draw(st.sampled_from(["\n", "\r\n"]))
    ids = draw(st.lists(ids, min_size=n, max_size=n, unique=True))
    labels = draw(st.lists(labels, min_size=n, max_size=n))
    label_at = draw(st.integers(0, a))
    return values, spell, ids, labels, label_at, terminator


def _write_table(path, table):
    """Write a ``_tables`` table with csv.writer, its label column
    "kind"."""
    values, spell, ids, labels, label_at, terminator = table
    header = [f"f{j}" for j in range(values.shape[1])]
    header.insert(label_at, "kind")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=terminator)
        writer.writerow(["id", *header])
        for sid, row, label in zip(ids, values.tolist(), labels):
            cells = [spell(v) for v in row]
            cells.insert(label_at, label)
            writer.writerow([sid, *cells])


@settings(max_examples=150, deadline=None)
@given(_tables())
def test_load_matches_per_cell_reference_property(kernels, table):
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.csv"
        _write_table(p, table)
        for lib in kernels:
            with _running(lib):
                _assert_same_as_cells(p, label_column="kind")


# ------------------------------------------------------- parts of a body
# load_csv parses a body of at least twice _PART_BYTES in parts, one per
# usable CPU, each cut after a line end: at any part count it must give
# the one-part load's matrix, or send the file to the per-cell parser all
# the same

# (_PART_BYTES, usable CPUs)
_SPLITS = [(part_bytes, cpus) for part_bytes in (1, 7, 64) for cpus in (2, 3, 8)]


@contextlib.contextmanager
def _split(part_bytes, cpus):
    """load_csv with parts of at least ``part_bytes`` on ``cpus`` CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_PART_BYTES", part_bytes)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        yield


def _outcome(path, **kwargs):
    """What load_csv makes of ``path``: its error, or the matrix's bytes,
    ids, names and labels and whether the compiled pass read it."""
    try:
        m = load_csv(path, **kwargs)
    except ValueError as exc:
        return str(exc)
    return (m.values.shape, m.values.tobytes(), m.sample_ids, m.attribute_names, m.labels,
            m.label_name, _vectorized(path, **kwargs))


@settings(max_examples=100, deadline=None)
@given(_tables())
def test_load_in_parts_equals_one_part_property(table):
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.csv"
        _write_table(p, table)
        with _split(1 << 20, 1):
            want = _outcome(p, label_column="kind")
        for part_bytes, cpus in _SPLITS:
            with _split(part_bytes, cpus):
                assert _outcome(p, label_column="kind") == want, (part_bytes, cpus)


def test_parts_follow_the_usable_cpus(tmp_path, monkeypatch):
    # the CPUs this process may use, unpatched: one part on one CPU (as
    # under ``taskset -c 0``), more on more, and the same matrix
    if hasattr(os, "sched_getaffinity"):
        assert data._usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(data, "_PART_BYTES", 1)
    p = tmp_path / "m.csv"
    p.write_text("id,f0,f1\n" + "".join(f"s{i},{i}.5,{-i}\n" for i in range(40)))
    raw = p.read_bytes()
    parts = data._parts(raw, 9)
    assert [a for a, _ in parts[1:]] == [b for _, b in parts[:-1]]
    assert parts[0][0] == 9 and parts[-1][1] == len(raw)
    assert (len(parts) > 1) == (data._usable_cpus() > 1)
    assert all(raw[b - 1:b] == b"\n" for _, b in parts)
    _assert_same_as_cells(p)
    assert _vectorized(p)


def test_in_threads_returns_in_order_and_raises_after_all_ran():
    ran = []
    assert data._in_threads([lambda i=i: ran.append(i) or i * i for i in range(5)]) == [
        0, 1, 4, 9, 16]
    ran.clear()
    with pytest.raises(ZeroDivisionError):
        data._in_threads([lambda: ran.append(0), lambda: 1 / 0, lambda: ran.append(2)])
    assert sorted(ran) == [0, 2]


_PART_ROWS = [f"s{i},{i}.25,-{i}e-3,k{i % 2}\n" for i in range(12)]


def _defective(defect, i):
    """The table of _PART_ROWS with ``defect`` at row ``i``, and the
    defect's byte offset."""
    rows = list(_PART_ROWS)
    if defect == "blank-line":
        rows.insert(i, "\n")
    elif defect == "ragged-row":
        rows[i] = rows[i].replace(",", ",1,", 1)
    elif defect == "nan":
        rows[i] = rows[i].replace(f",{i}.25,", ",nan,")
    else:  # the last line without a line end: no defect at all
        rows = rows[:i + 1]
        rows[-1] = rows[-1].removesuffix("\n")
    header = "id,f0,f1,kind\n"
    return header + "".join(rows), len(header) + sum(map(len, rows[:i]))


@pytest.mark.parametrize("defect", ["blank-line", "ragged-row", "nan", "no-last-line-end"])
def test_load_in_parts_matches_per_cell_reference(tmp_path, defect):
    # the defect at every row, so at a cut, in the last part and in a
    # later part at some part count; the file must load as the per-cell
    # parser loads it, or fail with its error, with up to 8 threads
    # switching as often as the interpreter lets them
    p = tmp_path / "m.csv"
    at_cut = in_last = in_later = False
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(len(_PART_ROWS)):
            text, at = _defective(defect, i)
            p.write_text(text)
            raw = text.encode()
            for part_bytes, cpus in _SPLITS:
                with _split(part_bytes, cpus):
                    parts = data._parts(raw, raw.index(b"\n") + 1)
                    assert len(parts) <= cpus
                    _assert_same_as_cells(p, has_labels=True)
                    assert _vectorized(p, has_labels=True) == (defect == "no-last-line-end")
                at_cut |= any(a == at for a, _ in parts[1:])
                in_last |= parts[-1][0] <= at
                in_later |= parts[0][1] <= at
    finally:
        sys.setswitchinterval(interval)
    assert at_cut and in_last and in_later


@settings(max_examples=150, deadline=None)
@given(_tables(), st.data())
def test_parse_block_part_equals_its_copy_property(kernels, table, draw):
    # a part that ends after a line end, whatever bytes follow it, parses
    # as a copy of it alone, which ends in a NUL byte
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.csv"
        _write_table(p, table)
        text = p.read_bytes()
    body = text.index(b"\n") + 1
    cuts = [body] + [i + 1 for i in range(body, len(text)) if text[i] == 10]
    pos, end = sorted(draw.draw(st.lists(st.sampled_from(cuts), min_size=2, max_size=2)))
    tail = draw.draw(st.one_of(st.just(text[end:]), st.binary(max_size=40)))
    fields, label = table[0].shape[1] + 2, table[4] + 1
    rows = text.count(b"\n", pos, end)

    def parse(buf, start, stop):
        values = np.zeros((rows, fields - 2))
        spans = np.zeros((rows, 4), dtype=np.int64)
        if not _kernel.parse_block(buf, start, stop, fields, label, _LIMIT, values, spans):
            return None
        return values.tobytes(), (spans - start).tolist()

    for lib in kernels:
        with _running(lib):
            assert parse(text[:end] + tail, pos, end) == parse(text[pos:end], 0, end - pos)


# ------------------------------------------------ numbers against float()
# the compiled pass converts each number itself (Clinger's fast path for
# at most 15 significant digits and |exponent| <= 22, strtod otherwise):
# every spelling it accepts must give the bits float() gives, with the
# SSE one-step read and without it (``kernels``)

# the padding float() strips, ASCII and Unicode, less CR and LF
_PADDING = " \t\v\f\x85\xa0\u1680\u2000\u200a\u2028\u2029\u202f\u205f\u3000"


@st.composite
def _number_spellings(draw):
    x = draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
    spell = draw(st.sampled_from(
        [repr, "{:e}".format] + [f"{{:.{p}g}}".format for p in range(1, 18)]))
    text = spell(x)
    sign, digits = ("-", text[1:]) if text.startswith("-") else ("", text)
    if not sign:
        sign = draw(st.sampled_from(["", "+"]))
    mantissa, e, exponent = digits.partition("e")
    if mantissa.startswith("0.") and draw(st.booleans()):
        mantissa = mantissa[1:]  # .5
    elif "." not in mantissa and draw(st.booleans()):
        mantissa += "."  # 1.
    zeros = "0" * draw(st.integers(0, 3))
    pad = st.text(alphabet=_PADDING, max_size=2)
    return draw(pad) + sign + zeros + mantissa + e + exponent + draw(pad)


@settings(max_examples=200, deadline=None)
@given(st.lists(_number_spellings(), min_size=1, max_size=8))
def test_load_numbers_match_float_property(kernels, cells):
    want = [float(c) for c in cells]
    assume(all(math.isfinite(v) for v in want))  # %.1g of a huge float can round to inf
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.csv"
        header = ",".join(f"f{j}" for j in range(len(cells)))
        p.write_bytes(f"id,{header}\na,{','.join(cells)}\n".encode("utf-8"))
        for lib in kernels:
            with _running(lib):
                assert load_csv(p).values.tobytes() == np.array([want]).tobytes()
                assert _vectorized(p)


@pytest.mark.parametrize("cell,vectorized", [
    ("123456789012345e7", True),  # 15 digits: Clinger's fast path
    ("1234567890123456e7", True),  # 16 digits: strtod
    ("123456789012345e-22", True),
    ("123456789012345e-23", True),
    ("1e22", True),
    ("1e23", True),
    ("9007199254740993", True),  # 2^53 + 1 rounds to even
    ("9007199254740993e1", True),  # 16 digits above 2^53: (double)m would round twice
    ("2.2250738585072011e-308", True),  # just below the smallest normal
    ("4.9e-324", True),
    ("2.4703282292062328e-324", True),  # just above half the smallest subnormal
    ("-0", True),
    ("-0.0e-999999999999", True),
    ("0e999999999999", True),
    ("1." + "0" * 30, True),
    ("0." + "0" * 30 + "1", True),
    ("1e309", False),  # overflows: the per-cell parser reports it
    ("1e-999999999999", True),
    ("1e", False),
    ("e5", False),
    (".", False),
    ("-", False),
    ("1.2.3", False),
    ("0x10", False),
    ("1 2", False),
    ("+-1", False),
])
def test_load_number_edges_match_float(tmp_path, kernels, cell, vectorized):
    p = tmp_path / "m.csv"
    p.write_text(f"id,f0,f1\na,{cell},1\n")
    for lib in kernels:
        with _running(lib):
            _assert_same_as_cells(p)
            assert _vectorized(p) == vectorized
            if vectorized:
                assert load_csv(p).values[0, 0].tobytes() == np.float64(float(cell)).tobytes()


@pytest.mark.parametrize("exponent,vectorized", [
    ("1000010", True),  # 1e5
    ("10000010", False),  # past the exponent digits the pass keeps: inf
])
def test_load_long_fraction_with_long_exponent(tmp_path, exponent, vectorized):
    # a million fraction digits against a long exponent, read only with
    # the field size limit raised
    cell = "0." + "0" * 1_000_004 + "1e" + exponent
    p = tmp_path / "m.csv"
    p.write_text(f"id,f0\na,{cell}\n")
    old = csv.field_size_limit(10 ** 7)
    try:
        _assert_same_as_cells(p)
        assert _vectorized(p) == vectorized
    finally:
        csv.field_size_limit(old)


def test_load_padding_is_what_float_strips(tmp_path):
    # every character str.isspace() calls a space, near those float()
    # strips, takes the compiled pass exactly when float() strips it
    probe = [*range(0x09, 0x21), *range(0x7f, 0xa2), *range(0x167f, 0x1682),
             0x180e, *range(0x1fff, 0x2031), *range(0x205e, 0x2061),
             *range(0x2fff, 0x3002), 0xfeff]
    p = tmp_path / "m.csv"
    for code in probe:
        c = chr(code)
        if c in "\r\n,":
            continue
        p.write_text(f"id,f0\na,{c}1.5{c}\n", encoding="utf-8", newline="")
        _assert_same_as_cells(p)
        try:
            float(f"{c}1.5{c}")
        except ValueError:
            assert not _vectorized(p), hex(code)
        else:
            assert _vectorized(p), hex(code)


@pytest.mark.parametrize("text", [b"", b"\n", b"id,f0", b"id,f0\n", b"id,f0\r\n",
                                  b"id,f0\r\na,1\r\nb,2", b"id,f0\na,1\n\n\nb,2\n",
                                  b"\n" * 70 + b"x" * 1000 + b"\r\n"])
def test_count_lines_is_bytes_count(text):
    # the records of a CSV body, or of a part of it, are counted by its
    # line ends: CRLF ends, a last line without one and a header-only
    # file included
    for pos in {0, len(text) // 2, len(text)}:
        for end in {pos, (pos + len(text)) // 2, len(text)}:
            assert _kernel.count_lines(text, pos, end) == text.count(b"\n", pos, end)
    with pytest.raises(TypeError):
        _kernel.count_lines(bytearray(text), 0, len(text))
    with pytest.raises(ValueError):
        _kernel.count_lines(text, len(text) + 1, len(text) + 1)
    with pytest.raises(ValueError):
        _kernel.count_lines(text, 0, len(text) + 1)
    if text:
        with pytest.raises(ValueError):
            _kernel.count_lines(text, 1, 0)


def test_parse_block_arguments_and_record_count():
    values, spans = np.empty((1, 1)), np.empty((1, 4), dtype=np.int64)
    with pytest.raises(TypeError):
        _kernel.parse_block(bytearray(b"a,1\n"), 0, 4, 2, -1, 100, values, spans)
    with pytest.raises(ValueError):
        _kernel.parse_block(b"a,1\n", 0, 4, 3, -1, 100, values, spans)
    with pytest.raises(ValueError):
        _kernel.parse_block(b"a,1\n", 5, 5, 2, -1, 100, values, spans)
    # the end: within the data, not before pos, and the data's end or
    # just after a line end
    two = b"a,1\nb,2\n"
    for pos, end in [(0, 9), (0, 3), (0, 5), (4, 3), (1, 0)]:
        with pytest.raises(ValueError):
            _kernel.parse_block(two, pos, end, 2, -1, 100, values, spans)
    assert _kernel.parse_block(b"a,1\n", 0, 4, 2, -1, 100, values, spans)
    assert values.tolist() == [[1.0]] and spans[0, :2].tolist() == [0, 1]
    # either record of two, as a part that ends at a line end
    assert _kernel.parse_block(two, 0, 4, 2, -1, 100, values, spans)
    assert values.tolist() == [[1.0]] and spans[0, :2].tolist() == [0, 1]
    assert _kernel.parse_block(two, 4, 8, 2, -1, 100, values, spans)
    assert values.tolist() == [[2.0]] and spans[0, :2].tolist() == [4, 5]
    # a non-finite value, records left over after len(values) rows, and
    # more rows than the part holds records, with records after the part
    assert not _kernel.parse_block(b"a,1e309\n", 0, 8, 2, -1, 100, values, spans)
    assert not _kernel.parse_block(two, 0, 8, 2, -1, 100, values, spans)
    values, spans = np.empty((2, 1)), np.empty((2, 4), dtype=np.int64)
    assert not _kernel.parse_block(two, 0, 4, 2, -1, 100, values, spans)
    assert _kernel.parse_block(two, 0, 8, 2, -1, 100, values, spans)
    assert values.tolist() == [[1.0], [2.0]]
    # a record starts only before the end: one record of a lone id is not
    # two, the second empty, whether the data or a part ends there
    ids = np.empty((2, 0)), np.empty((2, 4), dtype=np.int64)
    assert not _kernel.parse_block(b"a\n", 0, 2, 1, -1, 100, *ids)
    assert not _kernel.parse_block(b"a\nb\n", 0, 2, 1, -1, 100, *ids)
    assert _kernel.parse_block(b"a\nb\n", 0, 4, 1, -1, 100, *ids)
    # no records, at the end of the data or of a part
    empty, none = np.empty((0, 1)), np.empty((0, 4), dtype=np.int64)
    assert _kernel.parse_block(two, 8, 8, 2, -1, 100, empty, none)
    assert _kernel.parse_block(two, 4, 4, 2, -1, 100, empty, none)


# ------------------------------------------------- one-step number fields
# parse_block reads a field [+-]digits[.digits] of at most 16 bytes in one
# step where 32 bytes remain before the end of the file and the CPU has
# the SSE step, and every other field, or one near the end, number by
# number: either way it must give the bits float() gives, and the per-cell
# parser's verdict

ONE_STEP_CELLS = [
    "12345678901.234",  # 15 bytes
    "123456789012.345",  # 16 bytes
    "1234567890123.456",  # 17 bytes: number by number
    "-12345678901.234",  # 16 bytes with the sign
    "+123456789012.345",  # 17 bytes with the sign
    "1234567890123456",  # 16 bytes, no point
    "123456789012345",  # 15 significant digits
    "1.23456789012345",
    "9007199254740992",  # 16 significant digits, 2^53
    "9007199254740993",  # 16 significant digits over 2^53: strtod
    "9.007199254740993",
    "0.0000000000001",  # long runs of leading zeros
    "-000000000000012",
    "000000000000000.",
    "0000000000000000000000000.5",
    "-0", "-0.0", "+.5", "1.", ".5", "0", "7", "-.0",
    ".", "-", "+", "-.", "1.2.3", "1e5", "1.5e-3", "--1", "1-", " 1", "1 ",
    # the bytes next to '0'-'9' and '.', and bytes from 0x80, after digits
    "12/3", "/12", "12:", "1:5", "1.5/", "12345678901.23/", "1\u00e9", "1\u00a0",
    "1234567.5\u3000", "\u00b5",
    ".123456789012345",  # the point at byte 0 of 16
    "123456789012345.",  # the point at byte 15 of 16
    "12..5", "1.5.", "..5",  # two points
    "1+2", "12-5", "0.5-", ".-5",  # a sign after byte 0
    "12345678901234567",  # the 17th byte a digit: number by number
    "-1234567890123456",
    "123456789012.3456",
]


@pytest.mark.parametrize("cell", ONE_STEP_CELLS)
@pytest.mark.parametrize("layout", ["far-lf", "far-crlf", "near-end-lf", "near-end-no-newline",
                                    "near-end-crlf", "far-last-lf", "far-last-crlf"])
def test_load_one_step_numbers_match_float(tmp_path, kernels, cell, layout):
    end = "\r\n" if layout.endswith("crlf") else "\n"
    if layout.startswith("far-last"):  # the cell ends its record
        text = f"id,f0,f1{end}a,1,{cell}{end}b,2,{'3' * 40}{end}"
    elif layout.startswith("far"):  # more than 32 bytes follow the cell
        text = f"id,f0,f1{end}a,{cell},1{end}b,2,{'3' * 40}{end}"
    else:
        text = f"id,f0{end}a,{cell}" + ("" if layout.endswith("no-newline") else end)
    p = tmp_path / "m.csv"
    p.write_bytes(text.encode("utf-8"))
    try:
        want = np.float64(float(cell)).tobytes()
    except ValueError:
        want = None
    at = (0, 1) if layout.startswith("far-last") else (0, 0)
    for lib in kernels:
        with _running(lib):
            _assert_same_as_cells(p)
            assert _vectorized(p) == (want is not None)
            if want is not None:
                assert load_csv(p).values[at].tobytes() == want


# the bytes of the windows below: the one-step grammar's and its ends', the
# neighbours of '0'-'9' and '.', an exponent, and two bytes from 0x80, one
# of them a digit's byte with its top bit set
_WINDOW_BYTES = list(b"0123456789.+-,\n\r/:e\x80\xb5")
_ONE_STEP_FIELD = re.compile(rb"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)")
_SSE_CPU = (platform.machine() in ("x86_64", "AMD64")
            and {"ssse3", "sse4_1"} <= cpu_flags())


@st.composite
def _windows(draw):
    """17 bytes of _WINDOW_BYTES, most of them starting with a run of
    digits, points and signs."""
    head = draw(st.lists(st.sampled_from(list(b"0123456789.+-")), max_size=17))
    tail = draw(st.lists(st.sampled_from(_WINDOW_BYTES), min_size=17, max_size=17))
    return bytes(head + tail)[:17]


def test_sse_step_is_taken_exactly_on_sse_cpus(kernel_build):
    # a dispatch that never took the step would pass every other test
    assert kernel_build.test_sse_cpu() == _SSE_CPU


@pytest.mark.skipif(not _SSE_CPU, reason="this CPU has no SSSE3 and SSE4.1")
@settings(max_examples=500, deadline=None)
@given(_windows())
def test_one_step_forms_read_the_grammar(kernel_build, window):
    # the SSE one-step read, in the kernel's test build, takes a field
    # exactly when it is [+-]digits[.digits] with a digit and ends in ',',
    # LF or CR by the 17th byte, and then gives float()'s bits
    ends = re.search(rb"[,\r\n]", window)
    want = ends.start() if ends and _ONE_STEP_FIELD.fullmatch(window[:ends.start()]) else -1
    buf = window + bytes(15)  # the 32 bytes the read needs
    out = np.zeros(1)
    assert kernel_build.test_one_step(buf, out.ctypes.data) == want
    if want >= 0:
        assert out.tobytes() == np.float64(float(window[:want])).tobytes()


# ------------------------------------------------- numbers written as repr()
# format_rows writes each double as repr() does: Ryū's shortest digits in
# Python's layout


def _formats_as_repr(values):
    values = np.asarray(values, dtype=np.float64)
    got = _kernel.format_rows(values.reshape(-1, 1)).split("\n")[:-1]
    want = [f",{v!r}" for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:10]


def _of_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_format_rows_is_repr_property(bits):
    values = _of_bits(bits)
    _formats_as_repr(values[np.isfinite(values)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10**17), st.integers(-45, 45)), min_size=1,
                max_size=64))
def test_format_rows_is_repr_of_short_decimals_property(decimals):
    # Ryū drops many digits from a double that a short decimal reads as,
    # and rounds on the last one dropped
    values = [float(f"{m}e{e}") for m, e in decimals]
    _formats_as_repr([v for v in values if math.isfinite(v)] + [-1.0 / 1024 * m for m, _ in
                                                               decimals])


def test_format_rows_is_repr_at_edges():
    powers = [2.0**e for e in range(-1074, 1024)]
    subnormal = [1, 2, 3, 5, 10, 99, 2**20 + 1, 2**51, 2**52 - 1] + list(
        np.random.default_rng(0).integers(1, 2**52, size=2000))
    near_2_53 = [float(2**53 + k) for k in range(-64, 65)]
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    tens += [np.nextafter(t, np.inf) for t in tens] + [np.nextafter(t, 0) for t in tens]
    switch = [1e16, 1e-4, 9999999999999998.0, 1.0000000000000002e16, 12345678901234567.0,
              1234567890123456.7, 0.00012345, 9.999999999999999e-05, 0.0001000000000000001]
    switch += [np.nextafter(x, d) for x in (1e16, 1e-4, 1e-5, 1e17) for d in (0, np.inf)]
    extremes = [0.0, 1.0, 0.1, 1 / 3, 2.2250738585072014e-308, 2.225073858507201e-308,
                1.7976931348623157e308, 5e-324, 123.0, 1e22, 1e23, 9.5, 0.3]
    # short decimals of 14, 15 and 16 digits, and binary fractions
    short = [12345678901234.0, 123456789012345.0, 1234567890123456.0, 0.123456789012345,
             99999999999999.9, 999999999999999.0, 1.00000000000001, 0.048828125, 3.1416015625]
    short += [float(f"{d}e{k}") for d in ("1", "7.25", "123456789012345") for k in range(-12, 40)]
    short += [2.0**e * f for e in (-31, -30, -29, -28, 118, 119, 120, 121) for f in (1.0, 1.5)]
    edges = np.array(powers + near_2_53 + tens + switch + extremes + short)
    edges = np.concatenate([edges, _of_bits(subnormal)])
    _formats_as_repr(np.concatenate([edges, -edges]))


def test_format_rows_layout():
    assert _kernel.format_rows(np.array([[1.0, -0.0], [np.inf, np.nan]])) == \
        ",1.0,-0.0\n,inf,nan\n"
    assert _kernel.format_rows(np.empty((3, 0))) == "\n\n\n"
    assert _kernel.format_rows(np.empty((0, 4))) == ""
    assert _kernel.format_rows(np.asfortranarray([[1.5, 2.0], [3.0, 4.25]])) == \
        ",1.5,2.0\n,3.0,4.25\n"
    with pytest.raises(ValueError):
        _kernel.format_rows(np.ones(3))


def test_formatter_tables_are_derived():
    # every table of the kernel's Ryū is the one the oracle derives from
    # Python's integers
    source = _kernel.SOURCE.read_text()
    for name, want in ryu_tables().items():
        body = re.search(rf"static const uint\d+_t {name}\[[^=]*= \{{(.*?)\}};", source, re.S)
        got = [int(x, 0) for x in re.findall(r"0x[0-9a-f]+|\d+", body.group(1))]
        assert got == want, name


_CSV_TEXT = st.text(alphabet=st.sampled_from('ab1 ,"\r\n\t\'é日#'), max_size=5)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_save_matches_reference_writer(data):
    n = data.draw(st.integers(0, 6))
    a = data.draw(st.integers(0, 4))
    values = data.draw(hnp.arrays(np.float64, (n, a), elements=st.floats(
        allow_nan=False, allow_infinity=False, width=64)))
    ids = data.draw(st.lists(_CSV_TEXT, min_size=n, max_size=n, unique=True))
    names = data.draw(st.lists(_CSV_TEXT, min_size=a, max_size=a, unique=True))
    labels = data.draw(st.one_of(st.none(), st.lists(_CSV_TEXT, min_size=n, max_size=n)))
    label_name = data.draw(st.one_of(st.none(), _CSV_TEXT))
    assume(labels is None or (label_name or "label") not in names)
    m = DataMatrix(values, ids, names, labels, label_name)
    with tempfile.TemporaryDirectory() as d:
        save_csv(m, Path(d) / "a.csv")
        save_csv_rows(m, Path(d) / "b.csv")
        assert (Path(d) / "a.csv").read_bytes() == (Path(d) / "b.csv").read_bytes()


def test_save_in_blocks_matches_reference_writer(tmp_path, monkeypatch):
    # rows go out a bounded block at a time: blocks of 1, 2 and 3 rows,
    # and a row wider than a block
    rng = np.random.default_rng(4)
    m = _matrix(rng.normal(size=(7, 3)) * 10.0 ** rng.integers(-30, 30, size=(7, 3)),
                labels=["a,b", "", 'q"', "x\r\ny", "é", "a", "b"])
    save_csv_rows(m, tmp_path / "want.csv")
    for cells in (1, 3, 6, 9):
        monkeypatch.setattr(data, "_BLOCK_CELLS", cells)
        save_csv(m, tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_save_non_str_ids_and_labels_match_reference_writer(tmp_path):
    # csv.writer writes a field that is not a str as its own text: an int
    # as str(), a float as repr(), None as empty
    m = DataMatrix(np.array([[1.5], [2.0], [-0.0]]), [7, "b", 2.5], ["x"], [3, None, 0.1], "k")
    save_csv(m, tmp_path / "got.csv")
    save_csv_rows(m, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    m = DataMatrix(np.empty((2, 0)), [1, None], [])
    save_csv(m, tmp_path / "got.csv")
    save_csv_rows(m, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("names,label_name,taken", [
    (["x", "label"], None, "label"),
    (["x", "label"], "", "label"),
    (["x", "y"], "x", "x"),
])
def test_save_rejects_label_column_named_like_an_attribute(tmp_path, names, label_name, taken):
    # load_csv could not read the file back: the label name would pick
    # the attribute's column
    m = DataMatrix(np.ones((2, 2)), ["A", "B"], names, ["p", "q"], label_name)
    p = tmp_path / "m.csv"
    with pytest.raises(ValueError, match=f"'{taken}' is also an attribute name"):
        save_csv(m, p)
    assert not p.exists()
    # without labels, the same names are fine
    save_csv(DataMatrix(np.ones((2, 2)), ["A", "B"], names), p)
    assert load_csv(p).attribute_names == names
