import ctypes
import gc
import hashlib
import json
import logging
import os
import platform
import re
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from ghsomkit import (
    DataMatrix,
    GhsomParams,
    compute_layer0,
    find_cluster,
    gaussian_blobs,
    leaf_partition,
    nested_blobs,
    prune,
    run_ghsom,
    tree_from_json,
    tree_to_json,
)
from ghsomkit import _kernel
from ghsomkit import ghsom as ghsom_module
from ghsomkit.evaluation import sweep
from ghsomkit.ghsom import (
    INIT_NOISE,
    MAX_INSERTIONS,
    MAX_UNITS_PER_SAMPLE,
    TABLE_FLOATS,
    GhsomTree,
    LeafPartition,
    SomMap,
    _init_map,
    _split,
    expand_hierarchy,
    grow_horizontal,
    train_map,
)
from oracles import best_matching_unit, grow_numpy, leaf_labels, leaf_units, train_map_online


def _random_matrix(n, dim, seed):
    rng = np.random.default_rng(seed)
    return DataMatrix(
        values=rng.normal(size=(n, dim)),
        sample_ids=[f"s{i}" for i in range(n)],
        attribute_names=[f"f{j}" for j in range(dim)],
    )


def _nearest(x, w):
    """The kernel's assignment of the rows of ``x`` to the rows of ``w``
    (distances and indices), from a call that trains no step."""
    no_steps = np.empty(0, dtype=np.int64)
    slot = np.zeros((len(w) - 1) ** 2 + 1, dtype=np.int64)
    dist, index, _ = _kernel.train_steps(np.array(w, dtype=float), len(w), x, no_steps,
                                         np.empty((1, 0)), slot, np.empty(0), assign=True)
    return dist, index


def _fresh_map(weights, sample_indices=()):
    weights = np.asarray(weights, dtype=float)
    rows, cols = weights.shape[:2]
    return SomMap(rows, cols, weights.copy(), 1.0, 1, "", np.asarray(sample_indices, dtype=np.intp))


# ---------------------------------------------------------------- params


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(tau1=0.0),
        dict(tau1=1.5),
        dict(tau2=-0.1),
        dict(tau2=2.0),
        dict(lam=0),
        dict(max_depth=0),
        dict(alpha0=0.0),
        dict(alpha0=1.5),
        dict(sigma0=0.0),
        dict(depth_reference="bogus"),
        dict(rng_seed=-1),
        dict(lam=2.5),
        dict(max_depth=1.5),
        dict(rng_seed=1.7),
        dict(rng_seed=1.0),
        dict(lam=True),
        dict(max_depth="3"),
        dict(rng_seed=np.float64(2.0)),
        dict(tau1=True),
        dict(tau2=True),
        dict(alpha0=True),
        dict(sigma0=True),
        dict(tau1="0.5"),
        dict(sigma0=float("nan")),
        dict(sigma0=float("inf")),
        dict(sigma0=-1.0),
    ],
)
def test_params_rejected(kwargs):
    (field,) = kwargs
    with pytest.raises(ValueError, match=field):
        GhsomParams(**kwargs).validate()


def test_params_accept_numpy_integers():
    GhsomParams(lam=np.int64(3), max_depth=np.int32(2), rng_seed=np.uint8(7)).validate()


def test_params_accept_integer_and_numpy_floats():
    GhsomParams(tau1=1, tau2=np.float32(0.5), alpha0=np.float64(0.25), sigma0=2).validate()


def test_params_defaults_valid():
    GhsomParams().validate()


# ---------------------------------------------------------------- layer 0


def test_layer0_mean_and_error():
    m = _random_matrix(25, 3, seed=1)
    w0, mqe0 = compute_layer0(m)
    np.testing.assert_array_equal(w0, m.values.mean(axis=0))
    manual = np.mean([np.linalg.norm(w0 - x) for x in m.values])
    assert mqe0 == pytest.approx(manual, rel=1e-12)


def test_layer0_rejects_empty():
    m = DataMatrix(np.empty((0, 2)), [], ["f0", "f1"])
    with pytest.raises(ValueError):
        compute_layer0(m)


# ---------------------------------------------------------------- BMU


def test_bmu_tie_breaks_row_major():
    som = _fresh_map(np.zeros((2, 2, 3)))
    assert best_matching_unit(som, np.ones(3)) == (0, 0)


def test_bmu_picks_nearest():
    w = np.zeros((2, 2, 1))
    w[1, 1, 0] = 5.0
    som = _fresh_map(w)
    assert best_matching_unit(som, np.array([4.9])) == (1, 1)
    assert best_matching_unit(som, np.array([0.1])) == (0, 0)


# ---------------------------------------------------------------- training


def test_train_alpha_zero_is_identity():
    m = _random_matrix(10, 2, seed=2)
    som = _fresh_map(np.arange(8, dtype=float).reshape(2, 2, 2), np.arange(10))
    before = som.weights.copy()
    params = GhsomParams(lam=3, alpha0=0.0)  # validate() would reject; train_map must not
    train_map(som, m.values, params)
    assert som.weights.tobytes() == before.tobytes()


def test_train_single_unit_single_sample_snaps_to_it():
    m = _random_matrix(1, 4, seed=3)
    som = _fresh_map(np.zeros((1, 1, 4)), [0])
    train_map(som, m.values, GhsomParams(lam=5, alpha0=1.0))
    # the very first update has alpha=1, h=1: w jumps exactly onto x
    assert som.weights[0, 0].tobytes() == m.values[0].tobytes()
    assert som.unit_mqe[0, 0] == 0.0


def test_train_recomputes_assignment_and_errors():
    m = _random_matrix(30, 3, seed=4)
    som = _fresh_map(np.random.default_rng(0).normal(size=(2, 3, 3)), np.arange(30))
    train_map(som, m.values, GhsomParams(lam=10, rng_seed=7))
    for u, members in enumerate(som.members()):
        row, col = divmod(u, som.cols)
        mqe = float(som.unit_mqe[row, col])
        if len(members):
            d = np.linalg.norm(m.values[members] - som.weights[row, col], axis=1)
            assert mqe == pytest.approx(d.mean(), rel=1e-12)
        else:
            assert mqe == 0.0
    for k, g in enumerate(som.sample_indices):
        assert (som.bmu_rows[k], som.bmu_cols[k]) == best_matching_unit(som, m.values[g])
    # to the bit: the mean of the kernel's distances of a unit's members,
    # summed in routed order
    d, best = _nearest(m.values[som.sample_indices], som.weights.reshape(6, 3))
    for u, mqe in enumerate(som.unit_mqe.reshape(-1).tolist()):
        mine = d[best == u]
        assert mqe == (np.mean(mine) if len(mine) else 0.0)


def test_train_deterministic():
    m = _random_matrix(20, 2, seed=5)
    runs = []
    for _ in range(2):
        som = _fresh_map(np.zeros((2, 2, 2)), np.arange(20))
        train_map(som, m.values, GhsomParams(lam=8, rng_seed=9))
        runs.append(som.weights.tobytes())
    assert runs[0] == runs[1]


def _capped_noise_map():
    """Root map of pure noise grown to the unit cap (>= 4 units/sample)."""
    m = _random_matrix(8, 2, seed=6)
    tree = run_ghsom(m, GhsomParams(tau1=1e-9, tau2=0.99, lam=2, rng_seed=0))
    assert tree.root.rows * tree.root.cols >= 4 * 8
    return tree.root, m


@pytest.mark.parametrize(
    "case",
    ["square", "wide", "capped_noise", "alpha_zero", "sigma0_epoch_base", "subset"],
)
def test_train_matches_online_oracle_bitwise(case):
    rng = np.random.default_rng(12)
    m = _random_matrix(40, 3, seed=8)
    weights = rng.normal(size=(2, 2, 3))
    indices = np.arange(40)
    params = GhsomParams(lam=6, rng_seed=4)
    epoch_base = 0
    path = ""
    if case == "wide":
        weights = rng.normal(size=(3, 5, 3))
    elif case == "capped_noise":
        root, m = _capped_noise_map()
        weights, indices = root.weights.copy(), root.sample_indices
    elif case == "alpha_zero":
        params = GhsomParams(lam=3, alpha0=0.0, rng_seed=4)
    elif case == "sigma0_epoch_base":
        params = GhsomParams(lam=5, alpha0=0.9, sigma0=1.3, rng_seed=4)
        epoch_base, path = 10, "1x0"
    elif case == "subset":
        indices = np.arange(3, 40, 3)
        path = "0x1-2x0"
    want_w, want_mqe = train_map_online(
        weights, m.values[indices], params.rng_seed, path, 1 + epoch_base,
        params.lam, params.alpha0, params.sigma0,
    )
    rows, cols = weights.shape[:2]
    som = SomMap(rows, cols, weights.copy(), 1.0, 1, path, indices)
    train_map(som, m.values, params, epoch_base)
    assert som.weights.tobytes() == want_w.tobytes()
    assert som.unit_mqe.tobytes() == want_mqe.tobytes()


def _train_matches_online_oracle(dim, rows, cols, n, lam):
    rng = np.random.default_rng(dim)
    m = _random_matrix(n, dim, seed=dim)
    weights = rng.normal(size=(rows, cols, dim))
    params = GhsomParams(lam=lam, rng_seed=2)
    want_w, want_mqe = train_map_online(
        weights, m.values, params.rng_seed, "", 1, params.lam, params.alpha0,
    )
    som = SomMap(rows, cols, weights.copy(), 1.0, 1, "", np.arange(n))
    train_map(som, m.values, params)
    assert som.weights.tobytes() == want_w.tobytes()
    assert som.unit_mqe.tobytes() == want_mqe.tobytes()


ACROSS_DIMS = [
    # 58 distinct grid distances: the cycle spans three kernel calls
    (3, 9, 11, 60, 40),
    # the dims the benchmark trains: one full vector, two and a tail,
    # and 300 floats split twice by the pairwise sum
    (8, 2, 3, 30, 6),
    (20, 3, 3, 24, 5),
    (300, 2, 3, 20, 3),
    # 14 distinct grid distances on a map of full vectors
    (16, 4, 5, 40, 4),
    # rows of 130 floats take the recursive branch of the pairwise sum
    (130, 3, 4, 30, 4),
]


@pytest.mark.parametrize("dim, rows, cols, n, lam", ACROSS_DIMS)
def test_train_matches_online_oracle_bitwise_across_dims(dim, rows, cols, n, lam):
    if dim == 3:
        distinct = np.unique(np.add.outer(np.arange(rows) ** 2, np.arange(cols) ** 2))
        assert lam * n > 2 * (TABLE_FLOATS // len(distinct))
    _train_matches_online_oracle(dim, rows, cols, n, lam)


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


CLONES = 'target_clones("avx512f", "avx2", "default")'


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the training functions are cloned on x86-64 only")
@pytest.mark.parametrize("target", ["default", "avx2", "avx512f"])
def test_every_clone_matches_online_oracle_bitwise(target, tmp_path, monkeypatch):
    # the loaded library runs only the clone this CPU picks, so build
    # copies of the source that hold one target each
    if target != "default" and target not in _cpu_flags():
        pytest.skip(f"this CPU lacks {target}")
    source = _kernel.SOURCE.read_text()
    assert source.count(CLONES) == 1
    copy = tmp_path / "k.c"
    copy.write_text(source.replace(CLONES, f'target("{target}")'))
    lib_path = tmp_path / "k.so"
    cmd = ["cc", str(copy), "-o", str(lib_path), *_kernel.FLAGS]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lib = _kernel.load(lib_path)
    monkeypatch.setattr(_kernel, "library", lambda: lib)
    for dim, rows, cols, n, lam in [(3, 3, 4, 20, 4), *ACROSS_DIMS[1:]]:
        _train_matches_online_oracle(dim, rows, cols, n, lam)
    _unit_mqe_matches_np_mean()


def _unit_mqe_matches_np_mean():
    # a 2x2 map on 600 samples in four clusters, one far from every unit
    # but (0, 0): its units hold 0, 5, 60 and 535 samples, which reach
    # every branch of numpy's pairwise sum (none, under 8, up to 128, and
    # the recursive split above)
    rng = np.random.default_rng(21)
    centres = np.array([[0.0, 0.0], [0.0, 10.0], [10.0, 0.0], [10.0, 10.0]])
    sizes = [5, 0, 60, 535]
    x = np.concatenate([c + rng.normal(scale=0.5, size=(k, 2)) for c, k in zip(centres, sizes)])
    x = x[rng.permutation(len(x))]
    weights = centres.copy()
    weights[1] = [-40.0, 50.0]
    weights = weights.reshape(2, 2, 2)
    m = DataMatrix(x, [f"s{i}" for i in range(len(x))], ["f0", "f1"])
    params = GhsomParams(lam=2, alpha0=0.001, sigma0=0.5, rng_seed=3)
    som = SomMap(2, 2, weights.copy(), 1.0, 1, "", np.arange(len(x)))
    train_map(som, m.values, params)

    want_w, want_mqe = train_map_online(weights, x, params.rng_seed, "", 1, params.lam,
                                        params.alpha0, params.sigma0)
    assert som.weights.tobytes() == want_w.tobytes()
    assert som.unit_mqe.tobytes() == want_mqe.tobytes()
    d = cdist(x, som.weights.reshape(4, 2))
    best = d.argmin(axis=1)
    groups = _split(d[np.arange(len(x)), best], best, 4)
    assert [len(g) for g in groups] == sizes
    want = [np.mean(g) if len(g) else 0.0 for g in groups]
    assert som.unit_mqe.reshape(4).tolist() == want
    assert som.unit_mqe.tobytes() == np.array(want).tobytes()


def test_train_unit_mqe_matches_np_mean_in_every_summation_branch():
    _unit_mqe_matches_np_mean()


def _step_args():
    rng = np.random.default_rng(0)
    return dict(
        weights=rng.normal(size=(4, 3)),  # a 2x2 map: squared grid distances 0, 1, 2
        cols=2,
        x=rng.normal(size=(5, 3)),
        order=np.array([0, 4, 2], dtype=np.int64),
        table=np.full((3, 3), 0.5),
        slot=np.array([0, 1, 2], dtype=np.int64),
        alpha=np.full(3, 0.5),
    )


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


def _strided(a):
    return np.repeat(a, 2, axis=-1)[..., ::2]


@pytest.mark.parametrize(
    "name, bad, error",
    [
        ("weights", lambda a: a.astype(np.float32), TypeError),
        ("weights", np.asfortranarray, TypeError),
        ("weights", _read_only, TypeError),
        ("weights", lambda a: a.tolist(), TypeError),
        ("weights", lambda a: a.reshape(2, 2, 3), TypeError),
        ("x", lambda a: a.astype(np.float32), TypeError),
        ("x", np.asfortranarray, TypeError),
        ("x", _strided, TypeError),
        ("order", lambda a: a.astype(np.int32), TypeError),
        ("order", _strided, TypeError),
        ("table", np.asfortranarray, TypeError),
        ("table", _strided, TypeError),
        ("slot", lambda a: a.astype(np.uint64), TypeError),
        ("alpha", lambda a: a.astype(np.float32), TypeError),
        ("alpha", _strided, TypeError),
        ("order", lambda a: a - 1, ValueError),
        ("order", lambda a: a + 1, ValueError),
        ("slot", lambda a: a + 1, ValueError),
        ("slot", lambda a: a - 1, ValueError),
        ("slot", lambda a: a[:2], ValueError),
        ("x", lambda a: a[:, :2].copy(), ValueError),
        ("table", lambda a: a[:, :2].copy(), ValueError),
        ("alpha", lambda a: a[:2].copy(), ValueError),
        ("cols", lambda c: 3, ValueError),
        ("cols", lambda c: 0, ValueError),
    ],
)
def test_train_steps_rejects_bad_arrays(name, bad, error):
    args = _step_args()
    before = args["weights"].copy()
    args[name] = bad(args[name])
    with pytest.raises(error, match=name if error is TypeError else "train_steps"):
        _kernel.train_steps(**args, assign=True)
    if name != "weights":
        assert args["weights"].tobytes() == before.tobytes()


def test_train_steps_trains_then_assigns():
    args = _step_args()
    trained = _step_args()
    assert _kernel.train_steps(**trained) is None
    dist, index, unit_mqe = _kernel.train_steps(**args, assign=True)
    assert args["weights"].tobytes() == trained["weights"].tobytes()
    d = cdist(args["x"], args["weights"])
    assert index.tolist() == d.argmin(axis=1).tolist()
    assert dist.tobytes() == d[np.arange(5), index].tobytes()
    want = [np.mean(g) if len(g) else 0.0 for g in _split(dist, index, 4)]
    assert unit_mqe.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("dim", [*range(1, 18), 127, 128, 129, 130, 255, 256, 257, 1000])
def test_kernel_bmu_follows_numpy_pairwise_sum(dim):
    # every unit holds the same coordinates in another order, so the
    # squared distances to x = 0 are equal up to summation rounding, and
    # only numpy's summation order picks numpy's best-matching unit
    rng = np.random.default_rng(dim)
    units = 16
    x = np.zeros((1, dim))
    table = np.zeros((units, 1))  # h = 1 at the BMU, 0 elsewhere
    table[0, 0] = 1.0
    alpha = np.array([1.0])
    slot = np.zeros((units - 1) ** 2 + 1, dtype=np.int64)
    slot[np.arange(units) ** 2] = np.arange(units)
    picks = set()
    for _ in range(20):
        a = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3, size=dim)
        w = np.stack([rng.permutation(a) for _ in range(units)])
        diff = x - w
        want = int(np.add.reduce(diff * diff, axis=1).argmin())
        _kernel.train_steps(w, units, x, np.zeros(1, dtype=np.int64), table, slot, alpha)
        moved = np.flatnonzero((w == 0.0).all(axis=1))
        assert moved.tolist() == [want]
        picks.add(want)
    if dim >= 3:
        assert len(picks) > 1  # the sums did differ in their rounding


@pytest.mark.parametrize("dim", [*range(1, 18), 127, 128, 129, 2000])
def test_kernel_nearest_matches_cdist_bitwise(dim):
    rng = np.random.default_rng(dim)
    w = rng.normal(size=(7, dim))
    w[4] = w[1]  # a duplicated unit: samples near it must pick index 1
    x = np.concatenate([rng.normal(size=(25, dim)), w[[1, 4, 0]], w[[1, 2]] + 1e-3])
    d = cdist(x, w)
    dist, index = _nearest(x, w)
    assert index.tolist() == d.argmin(axis=1).tolist()
    assert dist.tobytes() == d[np.arange(len(x)), index].tobytes()
    assert 4 not in index.tolist()


def test_kernel_nearest_nan_and_ties_follow_argmin():
    w = np.array([[0.0], [np.nan], [0.0], [np.nan]])
    x = np.array([[0.0], [1.0]])
    d = cdist(x, w)
    dist, index = _nearest(x, w)
    assert index.tolist() == d.argmin(axis=1).tolist() == [1, 1]
    assert np.isnan(dist).all()


def test_import_leaves_scipy_unloaded():
    # the package's only scipy use was cdist; importing scipy.spatial
    # cost every import of ghsomkit about half a second
    path = [str(Path(_kernel.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = "import sys, ghsomkit; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120, env=env)
    assert done.stdout.strip() == "False"


def test_import_neither_builds_nor_loads_the_kernel(tmp_path):
    # the library is built and loaded on first use, not on import
    path = [str(Path(_kernel.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "XDG_CACHE_HOME": str(tmp_path)}
    code = "import ghsomkit; print(ghsomkit._kernel.library.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120, env=env)
    assert done.stdout.strip() == "0"
    assert list(tmp_path.iterdir()) == []


def test_kernel_source_compiles_warning_clean(tmp_path):
    cmd = ["cc", str(_kernel.SOURCE), "-o", str(tmp_path / "k.so"), *_kernel.FLAGS,
           "-Wall", "-Wextra", "-Werror"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_kernel_builds_into_fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    path = _kernel.build()
    assert path.parent == tmp_path / "ghsomkit"
    assert re.fullmatch(r"_kernel-[0-9a-f]{64}\.so", path.name)
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    lib = ctypes.CDLL(str(path))
    assert lib.train_steps and lib.parse_block
    assert not hasattr(lib, "nearest")  # train_steps assigns the samples itself
    built = path.stat().st_mtime_ns
    assert _kernel.build() == path
    assert path.stat().st_mtime_ns == built


def test_kernel_build_failure_raises_import_error(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernel, "FLAGS", (*_kernel.FLAGS, "-fno-such-flag"))
    with pytest.raises(ImportError, match="-fno-such-flag"):
        _kernel.build()
    assert list((tmp_path / "ghsomkit").iterdir()) == []


# ---------------------------------------------------------------- random streams


def _numpy_stream(seed, stream, path):
    return np.random.default_rng(np.random.SeedSequence([seed, stream, *path.encode()]))


# 2**32 and above take two and three entropy words
STREAM_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5]
STREAM_PATHS = ["", "0x1-2x0"]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("path", STREAM_PATHS)
@pytest.mark.parametrize("stream", [0, 1, 41, 2**32 + 3])
def test_kernel_uniform_is_numpys_uniform(seed, path, stream):
    want = _numpy_stream(seed, stream, path).uniform(-0.01, 0.01, size=37)
    got = _kernel.uniform(37, -0.01, 0.01, seed, stream, path)
    assert got.tobytes() == want.tobytes()


def _kernel_permutations(n, lam, draw):
    """The order a training call with no steps draws for ``lam`` epochs
    of ``n`` samples."""
    order = np.empty(lam * n, dtype=np.int64)
    _kernel.train_steps(np.zeros((1, 1)), 1, np.zeros((n, 1)), order, np.empty((1, 0)),
                        np.zeros(1, dtype=np.int64), np.empty(0), draw=draw)
    return order


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("path", STREAM_PATHS)
@pytest.mark.parametrize("n, lam", [(1, 3), (2, 5), (7, 4), (300, 2), (70_000, 1)])
def test_kernel_permutations_are_numpys_permuted(seed, path, n, lam):
    want = _numpy_stream(seed, 11, path).permuted(np.tile(np.arange(n), (lam, 1)), axis=1)
    assert _kernel_permutations(n, lam, (seed, 11, path)).tolist() == want.ravel().tolist()


def test_train_streams_match_numpy_across_blocks():
    # 58 distinct grid distances: the first of three kernel calls draws
    # the whole cycle's order, on the stream of a big seed and a nested path
    rng = np.random.default_rng(5)
    m = _random_matrix(60, 3, seed=5)
    weights = rng.normal(size=(9, 11, 3))
    params = GhsomParams(lam=40, rng_seed=2**64 + 5)
    assert params.lam * 60 > 2 * (TABLE_FLOATS // 58)
    path, epoch_base = "1x0-0x2", 80
    want_w, want_mqe = train_map_online(weights, m.values, params.rng_seed, path,
                                        1 + epoch_base, params.lam, params.alpha0)
    som = SomMap(9, 11, weights.copy(), 1.0, 2, path, np.arange(60))
    train_map(som, m.values, params, epoch_base)
    assert som.weights.tobytes() == want_w.tobytes()
    assert som.unit_mqe.tobytes() == want_mqe.tobytes()


def test_train_steps_draw_checks_the_order_buffer():
    args = _step_args()
    with pytest.raises(TypeError, match="order"):
        _kernel.train_steps(**{**args, "order": _read_only(np.zeros(5, dtype=np.int64))},
                            draw=(0, 1, ""))
    with pytest.raises(ValueError, match="train_steps"):  # not whole permutations of 5
        _kernel.train_steps(**{**args, "order": np.zeros(7, dtype=np.int64)}, draw=(0, 1, ""))
    before = args["weights"].copy()
    order = np.zeros(10, dtype=np.int64)
    _kernel.train_steps(**{**args, "order": order}, draw=(0, 1, ""), start=7)
    assert sorted(order[:5]) == sorted(order[5:]) == list(range(5))
    # steps 7, 8, 9 of the drawn order, as a call that reads them gives
    _kernel.train_steps(**{**args, "weights": before, "order": order[7:].copy()})
    assert args["weights"].tobytes() == before.tobytes()


# ---------------------------------------------------------------- growth


def test_grow_inserts_column_between_error_and_neighbor():
    w = np.zeros((2, 2, 1))
    w[0, 0, 0] = 0.0
    w[0, 1, 0] = 10.0  # most dissimilar from (0,0)
    w[1, 0, 0] = 1.0
    w[1, 1, 0] = 9.0
    som = _fresh_map(w)
    som.unit_mqe = np.array([[5.0, 0.0], [0.0, 0.0]])  # error unit (0,0)
    grow_horizontal(som)
    assert (som.rows, som.cols) == (2, 3)
    assert som.weights[0, 1, 0] == 5.0  # mean of 0 and 10
    assert som.weights[1, 1, 0] == 5.0  # mean of 1 and 9
    # flanking columns untouched
    assert som.weights[0, 0, 0] == 0.0 and som.weights[0, 2, 0] == 10.0


def test_grow_inserts_row_when_vertical_neighbor_wins():
    w = np.zeros((2, 2, 1))
    w[0, 0, 0] = 0.0
    w[0, 1, 0] = 1.0
    w[1, 0, 0] = 20.0  # below (0,0), much farther than right
    w[1, 1, 0] = 2.0
    som = _fresh_map(w)
    som.unit_mqe = np.array([[5.0, 0.0], [0.0, 0.0]])
    grow_horizontal(som)
    assert (som.rows, som.cols) == (3, 2)
    assert som.weights[1, 0, 0] == 10.0


def test_grow_tie_prefers_column():
    w = np.zeros((2, 2, 2))
    w[0, 1] = [3.0, 0.0]  # right of (0,0), distance 3
    w[1, 0] = [0.0, 3.0]  # below (0,0), distance 3
    som = _fresh_map(w)
    som.unit_mqe = np.array([[5.0, 0.0], [0.0, 0.0]])
    grow_horizontal(som)
    assert (som.rows, som.cols) == (2, 3)


def test_grow_error_unit_tie_row_major():
    w = np.random.default_rng(3).normal(size=(2, 2, 2))
    som = _fresh_map(w)
    som.unit_mqe = np.full((2, 2), 1.0)  # all tied: argmax picks (0,0)
    grow_horizontal(som)
    assert som.rows * som.cols == 6


@pytest.mark.parametrize("seed", range(10))
def test_grow_matches_numpy_insertion_bitwise(seed):
    # every unit of a random map in turn as the error unit: corners,
    # edges and the interior, with a column or a row insertion; the last
    # unit ties with it, and the first of the two is the error unit
    rng = np.random.default_rng(seed)
    rows, cols = (int(v) for v in rng.integers(2, 6, size=2))
    dim = int(rng.choice([1, 2, 3, 8, 9, 130]))
    weights = rng.normal(size=(rows, cols, dim))
    axes = set()
    for e in range(rows * cols):
        unit_mqe = rng.uniform(size=(rows, cols))
        unit_mqe.flat[e] = unit_mqe.flat[-1] = 2.0
        want = grow_numpy(weights, unit_mqe)
        som = _fresh_map(weights)
        som.unit_mqe = unit_mqe
        grow_horizontal(som)
        assert som.weights.tobytes() == want.tobytes()
        assert (som.rows, som.cols) == want.shape[:2]
        assert som.unit_mqe.tolist() == np.zeros(want.shape[:2]).tolist()
        axes.add(som.rows - rows)
    assert axes == {0, 1}


@pytest.mark.parametrize("dim", [3, 9, 17, 130])
def test_grow_neighbor_distance_is_numpy_pairwise_sum(dim):
    # the right and the lower neighbour of (0, 0) hold the same values in
    # another order, so their squared distances agree up to rounding, and
    # only numpy's pairwise order of summing picks the neighbour
    rng = np.random.default_rng(dim)
    picks = set()
    for _ in range(40):
        a = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3, size=dim)
        w = np.zeros((2, 2, dim))
        w[0, 1], w[1, 0] = a, rng.permutation(a)
        right, below = (np.add.reduce(v * v) for v in (w[0, 1], w[1, 0]))
        som = _fresh_map(w)
        som.unit_mqe = np.array([[1.0, 0.0], [0.0, 0.0]])
        grow_horizontal(som)
        want = (3, 2) if below > right else (2, 3)  # a tie keeps the column
        assert (som.rows, som.cols) == want
        picks.add(want)
    assert len(picks) == 2


def test_grow_rejects_nan_weights():
    som = _fresh_map(np.full((2, 2, 2), np.nan))
    som.unit_mqe = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="grow"):
        grow_horizontal(som)


def test_expand_refines_units_at_threshold_with_four_samples_in_row_major_order():
    m = _random_matrix(16, 2, seed=3)
    routed = np.array([9, 2, 14, 5, 0, 11, 7, 3, 12, 1, 8, 6, 15, 4])
    som = SomMap(2, 3, np.zeros((2, 3, 2)), 1.0, 1, "", routed)
    # units in row-major order hold 4, 3, 0, 1, 5 and 1 samples
    flat = np.array([0, 1, 4, 0, 1, 3, 4, 0, 4, 1, 4, 0, 4, 5])
    som.bmu_rows, som.bmu_cols = np.divmod(flat, 3)
    # at or above tau2 * mqe0 = 0.25: units 0, 1, 3, 4 (unit 1 too few
    # samples, unit 3 one sample); unit 5 has samples but error 0.0
    som.unit_mqe = np.array([[0.25, 0.9, 0.0], [0.5, 0.3, 0.0]])
    params = GhsomParams(tau2=0.25, lam=2, max_depth=2)
    tree = GhsomTree(np.zeros(2), 1.0, som, params, [f"s{i}" for i in range(16)], ["f0", "f1"])
    expand_hierarchy(tree, som, m.values, params)
    assert list(som.children) == [(0, 0), (1, 1)]
    first, second = som.children[(0, 0)], som.children[(1, 1)]
    assert first.sample_indices.tolist() == [9, 5, 3, 6]  # in routed order
    assert second.sample_indices.tolist() == [14, 7, 12, 8, 15]
    assert (first.path, first.depth, first.parent_mqe) == ("0x0", 2, 0.25)
    assert (second.path, second.parent_mqe) == ("1x1", 0.3)
    assert type(first.parent_mqe) is float


# ---------------------------------------------------------------- fit context


@pytest.mark.parametrize("n, dim", [(1, 1), (7, 1), (300, 1), (1, 5), (9, 2), (40, 8),
                                    (200, 20), (5, 130)])
def test_initial_weights_are_numpys_mean_plus_scaled_noise(n, dim):
    # one column takes numpy's pairwise sum, several its row-by-row sum;
    # a column of -0.0 and one of equal values have a std of 0
    rng = np.random.default_rng(n * dim)
    data = rng.normal(size=(2 * n + 3, dim)) * 10.0 ** rng.uniform(-3, 3, size=dim)
    data[:, 0] = -0.0
    if dim > 1:
        data[:, 1] = 2.5
    routed = rng.permutation(len(data))[:n]
    x = data[routed]
    path = "1x0-0x1"
    noise = _numpy_stream(2**32 + 9, 0, path).uniform(-INIT_NOISE, INIT_NOISE, size=4 * dim)
    want = x.mean(axis=0) + noise.reshape(2, 2, -1) * x.std(axis=0)
    som = _init_map(path, 1.0, 3, routed, data, GhsomParams(rng_seed=2**32 + 9))
    weights, unit_mqe, bmu_rows, bmu_cols = som.fit.store()
    som.fit.close()
    assert weights.tobytes() == want.tobytes()
    assert unit_mqe.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert bmu_rows.tolist() == bmu_cols.tolist() == [0] * n


def _fit_cycles(data, params, parent_mqe, cycles):
    """Train, check and grow one map's context ``cycles`` times; returns
    each cycle's map MQE and verdict."""
    n = len(data)
    som = _init_map("0x1", parent_mqe, 2, np.arange(n), data, params)
    fit = som.fit
    weights = fit.store()[0]
    seen = []
    for cycle in range(cycles):
        stream = 1 + cycle * params.lam
        fit.train(stream)
        want_w, want_mqe = train_map_online(weights, data, params.rng_seed, "0x1", stream,
                                            params.lam, params.alpha0)
        weights, unit_mqe, bmu_rows, bmu_cols = fit.store()
        assert weights.tobytes() == want_w.tobytes()
        assert unit_mqe.tobytes() == want_mqe.tobytes()
        rows, cols = weights.shape[:2]
        stored = SomMap(rows, cols, weights, parent_mqe, 2, "0x1", np.arange(n))
        stored.unit_mqe, stored.bmu_rows, stored.bmu_cols = unit_mqe, bmu_rows, bmu_cols
        assert fit.head.mqe == stored.mqe
        if stored.mqe < params.tau1 * parent_mqe or stored.mqe == 0.0:
            want = _kernel.CONVERGED
        elif rows * cols >= MAX_UNITS_PER_SAMPLE * n or cycle >= MAX_INSERTIONS:
            want = _kernel.CAPPED
        else:
            want = _kernel.GROW
        assert fit.head.verdict == want
        seen.append((stored.mqe, want))
        assert fit.grow() == (fit.head.rows, fit.head.cols)
        grown = grow_numpy(weights, unit_mqe)
        weights = fit.store()[0]
        assert weights.tobytes() == grown.tobytes()
    fit.close()
    return seen


@pytest.mark.parametrize("dim", [1, 3, 9, 130])
def test_fit_cycles_match_oracle_map_mqe_verdict_and_numpy_insertion(dim):
    # a context trains, scores and grows one map cycle after cycle, its
    # buffers growing in place: each cycle's weights and errors against
    # the online oracle, the kernel's map MQE against SomMap.mqe, its
    # verdict against the stopping rule, and each insertion against
    # numpy; the second pass sets tau1 * parent error to the first
    # pass's median MQE, so that some cycles converge
    data = np.random.default_rng(dim).normal(size=(30, dim))
    params = GhsomParams(lam=2, rng_seed=dim)
    first = _fit_cycles(data, params, 1e-6, 10)
    assert {verdict for _, verdict in first} == {_kernel.GROW}
    median = float(np.median([mqe for mqe, _ in first]))
    second = _fit_cycles(data, params, median / params.tau1, 10)
    assert [mqe for mqe, _ in second] == [mqe for mqe, _ in first]
    assert {verdict for _, verdict in second} == {_kernel.GROW, _kernel.CONVERGED}


def test_fit_context_rejects_bad_samples_and_nan_growth():
    data = np.zeros((5, 2))
    params = GhsomParams(lam=2)
    with pytest.raises(ValueError, match="sample index out of range"):
        _init_map("", 1.0, 1, np.array([0, 5]), data, params)
    with pytest.raises(ValueError, match="sample index out of range"):
        _init_map("", 1.0, 1, np.array([-1, 0]), data, params)
    with pytest.raises(ValueError, match="fit: needs"):
        _init_map("", 1.0, 1, np.array([], dtype=np.intp), data, params)
    data[:] = np.nan
    som = _init_map("", 1.0, 1, np.arange(5), data, params)
    som.fit.train(1)
    assert som.fit.head.verdict == _kernel.GROW  # a NaN MQE neither converges nor caps
    with pytest.raises(ValueError, match="grow: no neighbour's distance compares"):
        som.fit.grow()
    som.fit.close()


def _counted_fit(monkeypatch, fit):
    """The tree ``fit()`` gives and, per map path, its ``train_map`` and
    ``grow_horizontal`` calls, counted through the module globals."""
    trains, grows = Counter(), Counter()
    train, grow = ghsom_module.train_map, ghsom_module.grow_horizontal

    def counting_train(som, data, params, epoch_base=0):
        assert epoch_base == trains[som.path] * params.lam
        trains[som.path] += 1
        return train(som, data, params, epoch_base)

    def counting_grow(som):
        grows[som.path] += 1
        return grow(som)

    monkeypatch.setattr(ghsom_module, "train_map", counting_train)
    monkeypatch.setattr(ghsom_module, "grow_horizontal", counting_grow)
    return fit(), trains, grows


@pytest.mark.parametrize("case", ["nested", "capped_noise"])
def test_fit_map_trains_each_cycle_and_grows_each_insertion(case, nested_matrix, monkeypatch):
    if case == "nested":
        m, params = nested_matrix, GhsomParams(tau1=0.2, tau2=0.1, lam=10, rng_seed=0)
    else:
        m, params = _capped_noise_map()[1], GhsomParams(tau1=1e-9, tau2=0.99, lam=2, rng_seed=0)
    tree, trains, grows = _counted_fit(monkeypatch, lambda: run_ghsom(m, params))
    maps = list(tree.iter_maps())
    assert set(trains) == {som.path for som in maps}
    assert sum(grows.values()) > 0
    for som in maps:
        assert trains[som.path] == som.rows + som.cols - 3
        assert grows[som.path] == som.rows + som.cols - 4


def test_fitted_tree_holds_no_fit_context_and_no_views(nested_matrix):
    tree = run_ghsom(nested_matrix, GhsomParams(tau1=0.2, tau2=0.1, lam=10, rng_seed=0))
    capped, _ = _capped_noise_map()
    for som in [*tree.iter_maps(), capped]:
        assert som.fit is None
        for a in (som.weights, som.unit_mqe, som.bmu_rows, som.bmu_cols):
            assert a.base is None and a.flags.owndata
        assert som.weights.shape == (som.rows, som.cols, nested_matrix.n_attributes
                                     if som is not capped else 2)
        assert som.unit_mqe.shape == (som.rows, som.cols)


def test_failed_fit_closes_its_context(monkeypatch):
    # a map whose growth raises still leaves no context behind
    m = _random_matrix(8, 2, seed=6)
    closed = []
    close = _kernel.Fit.close
    monkeypatch.setattr(_kernel.Fit, "close", lambda self: (closed.append(self), close(self)))
    monkeypatch.setattr(_kernel.Fit, "grow", lambda self: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        run_ghsom(m, GhsomParams(tau1=1e-9, tau2=0.99, lam=2, rng_seed=0))
    assert len(closed) >= 1 and all(fit._ctx is None for fit in closed)


# the fits the kernel built with AddressSanitizer and UBSan must give as
# the normal build gives them: a growth-capped noise map, a 9x11 map
# whose cycle spans several kernel blocks, and a sweep
SANITIZER_FITS = """
import hashlib, json, logging, sys
import numpy as np
from ghsomkit import DataMatrix, GhsomParams, GhsomTree, _kernel, nested_blobs, run_ghsom
from ghsomkit import tree_to_json
from ghsomkit.evaluation import sweep
from ghsomkit.ghsom import SomMap, train_map
if len(sys.argv) > 1:
    lib = _kernel.load(sys.argv[1])
    _kernel.library = lambda: lib
logging.disable(logging.WARNING)

def matrix(n, dim, seed):
    values = np.random.default_rng(seed).normal(size=(n, dim))
    return DataMatrix(values, [f"s{i}" for i in range(n)], [f"f{j}" for j in range(dim)])

out = {}
out["capped"] = tree_to_json(run_ghsom(matrix(8, 2, 6), GhsomParams(tau1=1e-9, tau2=0.99,
                                                                     lam=2, rng_seed=0)))
m = matrix(60, 3, 5)
som = SomMap(9, 11, np.random.default_rng(5).normal(size=(9, 11, 3)), 1.0, 2, "1x0-0x2",
             np.arange(60))
params = GhsomParams(lam=40, rng_seed=2**64 + 5)
train_map(som, m.values, params, 80)
out["blocks"] = tree_to_json(GhsomTree(np.zeros(3), 1.0, som, params, m.sample_ids,
                                       m.attribute_names))
m = nested_blobs(n_coarse=4, n_sub=3, per_sub=5, dim=4, spread=0.25, seed=1)
grid = sweep(m, GhsomParams(lam=10, rng_seed=5), (0.6, 0.45, 0.3), (0.2, 0.1, 0.05),
             labels=m.labels)
out["sweep"] = repr([(c.tau1, c.tau2, repr(c.ch), repr(c.ari), c.leaf_count, c.depth,
                      c.total_units, c.error) for _, c in sorted(grid.cells.items())])
print(json.dumps({k: hashlib.sha256(v.encode()).hexdigest() for k, v in out.items()}))
"""


def _runtime(name: str) -> str | None:
    """The path of the compiler's sanitizer runtime ``name``, if it has one."""
    try:
        done = subprocess.run(["cc", f"-print-file-name={name}"], capture_output=True,
                              text=True, timeout=60)
    except OSError:
        return None
    path = done.stdout.strip()
    return path if done.returncode == 0 and os.path.isfile(path) else None


def test_kernel_under_sanitizers_gives_the_same_fits(tmp_path):
    runtimes = [_runtime("libasan.so"), _runtime("libubsan.so")]
    if None in runtimes:
        pytest.skip("the C compiler has no AddressSanitizer or UBSan runtime")
    lib_path = tmp_path / "k.so"
    cmd = ["cc", str(_kernel.SOURCE), "-o", str(lib_path), *_kernel.FLAGS,
           "-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-g"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    path = [str(Path(_kernel.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    runs = []
    for argv, extra in [([], {}), ([str(lib_path)], {"LD_PRELOAD": " ".join(runtimes),
                                                    "ASAN_OPTIONS": "detect_leaks=0"})]:
        done = subprocess.run([sys.executable, "-c", SANITIZER_FITS, *argv], capture_output=True,
                              text=True, timeout=600, env={**env, **extra})
        assert done.returncode == 0, done.stderr[-4000:]
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1]
    assert sorted(runs[0]) == ["blocks", "capped", "sweep"]


# ---------------------------------------------------------------- full runs


def test_run_needs_four_samples():
    with pytest.raises(ValueError, match="at least 4"):
        run_ghsom(_random_matrix(3, 2, seed=0), GhsomParams())


def test_stopping_and_expansion_soundness(blob_matrix, blob_tree):
    params = blob_tree.params
    for som in blob_tree.iter_maps():
        assert som.mqe < params.tau1 * som.parent_mqe
    for path, members, mqe in leaf_units(blob_tree):
        ok = (
            mqe < params.tau2 * blob_tree.mqe0
            or len(members) < 4
            or som_depth(blob_tree, path) >= params.max_depth
        )
        assert ok, f"leaf {path} violates the expansion disjunction"


def som_depth(tree, path):
    return path.count("-") + 1


def test_assignment_oracle_recheck(blob_matrix, blob_tree):
    for som in blob_tree.iter_maps():
        for k, g in enumerate(som.sample_indices):
            assert (som.bmu_rows[k], som.bmu_cols[k]) == best_matching_unit(
                som, blob_matrix.values[g]
            )


def test_every_sample_at_exactly_one_leaf(blob_matrix, blob_tree):
    seen = []
    for _, members, _ in leaf_units(blob_tree):
        seen.extend(members.tolist())
    assert sorted(seen) == list(range(blob_matrix.n_samples))


def test_partition_matches_leaves(blob_matrix, blob_tree):
    part = leaf_partition(blob_tree)
    assert part.sample_ids == blob_matrix.sample_ids
    assert sum(part.sizes().values()) == blob_matrix.n_samples
    for cluster in part.cluster_names():
        members = part.members(cluster)
        np.testing.assert_array_equal(np.sort(members), np.sort(find_cluster(blob_tree, cluster)))


def test_partition_labels_each_sample_with_its_leaf_unit(nested_tree):
    want = leaf_labels(nested_tree)
    assert any(som.children for som in nested_tree.iter_maps())
    assert leaf_partition(nested_tree).clusters == want


def test_partition_names_samples_no_leaf_reaches(nested_tree):
    tree = tree_from_json(tree_to_json(nested_tree))
    child = next(c for som in tree.iter_maps() for c in som.children.values())
    lost = tree.sample_ids[child.sample_indices[0]]
    child.sample_indices = child.sample_indices[1:]
    child.bmu_rows, child.bmu_cols = child.bmu_rows[1:], child.bmu_cols[1:]
    with pytest.raises(RuntimeError, match=f"not reachable at any leaf: \\['{lost}'\\]"):
        leaf_partition(tree)


@pytest.mark.parametrize("n, k, seed", [(0, 3, 0), (1, 1, 1), (40, 1, 2), (300, 7, 3),
                                        (1000, 90, 4)])
def test_partition_groups_like_dict_of_lists(n, k, seed):
    rng = np.random.default_rng(seed)
    names = [f"{rng.integers(4)}x{rng.integers(4)}-{j}x0" for j in range(k)]
    clusters = [names[i] for i in rng.integers(0, k, n)]
    part = LeafPartition([f"s{i}" for i in range(n)], clusters)
    want: dict[str, list[int]] = {}
    for i, c in enumerate(clusters):
        want.setdefault(c, []).append(i)
    assert part.cluster_names() == sorted(want)
    assert list(part.sizes().items()) == [(c, len(ix)) for c, ix in want.items()]
    for c, ix in want.items():
        assert part.members(c).dtype == np.intp
        assert part.members(c).tolist() == ix
    with pytest.raises(KeyError, match="unknown cluster"):
        part.members("no such cluster")


def test_find_cluster_internal_unit_unions_leaves(nested_tree):
    internal = [nested_tree.root.unit_path(*cell) for cell in sorted(nested_tree.root.children)]
    assert internal, "nested data must grow a second level"
    part = leaf_partition(nested_tree)
    for path in internal:
        got = np.sort(find_cluster(nested_tree, path))
        descendants = [c for c in part.cluster_names() if c.startswith(path + "-")]
        expect = np.sort(np.concatenate([part.members(c) for c in descendants]))
        np.testing.assert_array_equal(got, expect)


def test_members_match_mask_scan(blob_tree):
    capped, _ = _capped_noise_map()
    trees = [blob_tree, tree_from_json(tree_to_json(blob_tree))]
    maps = [som for tree in trees for som in tree.iter_maps()] + [capped]
    empty = 0
    for som in maps:
        members = som.members()
        assert len(members) == som.rows * som.cols
        for u, got in enumerate(members):
            row, col = divmod(u, som.cols)
            mask = (som.bmu_rows == row) & (som.bmu_cols == col)
            want = som.sample_indices[mask]
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            empty += len(want) == 0
    assert empty > 0, "the capped map must have empty units"


@pytest.mark.parametrize("name", ["01x0", "0x00", "0x0-", "-0x0", "0X0", ""])
def test_find_cluster_rejects_non_canonical_names(blob_tree, name):
    with pytest.raises(KeyError, match="unknown cluster"):
        find_cluster(blob_tree, name)


def test_find_cluster_unknown_lists_valid(blob_tree):
    with pytest.raises(KeyError, match="valid clusters"):
        find_cluster(blob_tree, "9x9-bogus")


def test_run_deterministic_bitwise(blob_matrix):
    params = GhsomParams(tau1=0.15, tau2=0.15, lam=20, rng_seed=3)
    a = tree_to_json(run_ghsom(blob_matrix, params))
    b = tree_to_json(run_ghsom(blob_matrix, params))
    assert a == b


def test_run_thread_count_does_not_change_result(blob_matrix):
    params = GhsomParams(tau1=0.15, tau2=0.15, lam=20, rng_seed=3)
    a = tree_to_json(run_ghsom(blob_matrix, params, threads=1))
    b = tree_to_json(run_ghsom(blob_matrix, params, threads=4))
    assert a == b


def test_run_seed_changes_weights(blob_matrix):
    t1 = run_ghsom(blob_matrix, GhsomParams(tau1=0.15, tau2=0.15, lam=20, rng_seed=3))
    t2 = run_ghsom(blob_matrix, GhsomParams(tau1=0.15, tau2=0.15, lam=20, rng_seed=4))
    assert t1.root.weights.tobytes() != t2.root.weights.tobytes()


def test_max_depth_caps_hierarchy():
    m = nested_blobs(seed=0)
    params = GhsomParams(tau1=0.2, tau2=0.1, lam=10, max_depth=1, rng_seed=0)
    tree = run_ghsom(m, params)
    assert tree.depth() == 1
    deep = run_ghsom(m, GhsomParams(tau1=0.2, tau2=0.1, lam=10, max_depth=10, rng_seed=0))
    assert deep.depth() >= 2


def test_growth_cap_warns_and_terminates(caplog):
    # tau1 this small is unreachable on noise; the cap must kick in
    m = _random_matrix(8, 2, seed=6)
    params = GhsomParams(tau1=1e-9, tau2=0.99, lam=2, rng_seed=0)
    with caplog.at_level(logging.WARNING, logger="ghsomkit.ghsom"):
        tree = run_ghsom(m, params)
    assert any("growth capped" in r.message for r in caplog.records)
    assert tree.root.rows * tree.root.cols >= 4 * 8


def test_empty_units_do_not_enter_map_mqe():
    som = _fresh_map(np.zeros((2, 2, 1)), [0, 1])
    som.bmu_rows = np.array([0, 0])
    som.bmu_cols = np.array([0, 1])
    som.unit_mqe = np.array([[2.0, 4.0], [99.0, 99.0]])  # bottom units unoccupied
    assert som.mqe == 3.0


# SHA-256 of ``tree_to_json`` of three fits, recorded before the random
# streams and the row/column insertion moved into the kernel: a root-only
# fit that grows (on a seed of two entropy words), a nested fit, and the
# growth-capped noise map. Then, recorded before each map fit got one
# kernel context: the ``repr`` of a 3x3 sweep's rows over small noisy
# blobs whose tau2 = 0.05 cells grow a capped map, and a fit with a fixed
# sigma0 and the parent's error as the depth reference
GOLDEN_TREES = {
    "root_only": "723a6be1fbfc38150182b4714b01bc7d0732c8cdbaa9b336929d1f29d7d9aec6",
    "nested": "504145cc22a07ccd1d84050ae7acdd035cc848da6609cb5f1397c176e78b1336",
    "capped_noise": "55e00125907745397e36011cbec53387c313cea307916fe4cefe53ec308d8ae5",
    "sweep_noisy": "f8483ac6d7919d5c8cf07ace1d4aca24328f6399c955ac4a0ef1e711ac3b8295",
    "sigma0_parent": "317544a648c67461c027301051495f97ef850824a7c75f89ff1f80d19c0c55c8",
}


def _sweep_rows(grid):
    return [(c.tau1, c.tau2, repr(c.ch), repr(c.ari), c.leaf_count, c.depth, c.total_units,
             c.error)
            for _, c in sorted(grid.cells.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))]


@pytest.mark.parametrize("case", sorted(GOLDEN_TREES))
def test_fitted_trees_match_golden_digests(case, blob_matrix, nested_matrix):
    if case == "root_only":
        tree = run_ghsom(blob_matrix, GhsomParams(tau1=0.06, tau2=0.15, lam=10, max_depth=1,
                                                  rng_seed=2**32 + 1))
        assert (tree.root.rows, tree.root.cols, tree.depth()) == (2, 3, 1)
    elif case == "nested":
        tree = run_ghsom(nested_matrix, GhsomParams(tau1=0.2, tau2=0.1, lam=10, rng_seed=0))
        assert tree.depth() == 2
    elif case == "sigma0_parent":
        tree = run_ghsom(nested_matrix, GhsomParams(tau1=0.2, tau2=0.1, lam=10, sigma0=1.3,
                                                    depth_reference="parent", rng_seed=0))
    elif case == "sweep_noisy":
        m = nested_blobs(n_coarse=4, n_sub=3, per_sub=5, dim=4, spread=0.25, seed=1)
        grid = sweep(m, GhsomParams(lam=10, rng_seed=5), (0.6, 0.45, 0.3), (0.2, 0.1, 0.05),
                     labels=m.labels)
        text = repr(_sweep_rows(grid))
    else:
        tree = run_ghsom(_capped_noise_map()[1],
                         GhsomParams(tau1=1e-9, tau2=0.99, lam=2, rng_seed=0))
    if case != "sweep_noisy":
        text = tree_to_json(tree)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_TREES[case]


# ---------------------------------------------------------------- pruning


@pytest.mark.parametrize("depth_reference", ["global", "parent"])
@pytest.mark.parametrize("max_depth", [10, 2])
@pytest.mark.parametrize("tau1", [0.6, 0.3])
def test_prune_equals_direct_fit_bytewise(nested_matrix, depth_reference, max_depth, tau1):
    base = GhsomParams(tau1=tau1, lam=5, rng_seed=2, max_depth=max_depth,
                       depth_reference=depth_reference)
    deep = run_ghsom(nested_matrix, replace(base, tau2=0.05))
    deep_text = tree_to_json(deep)
    removed = 0
    for tau2 in (0.05, 0.1, 0.2, 0.5):
        direct = run_ghsom(nested_matrix, replace(base, tau2=tau2))
        pruned = prune(deep, tau2)
        assert tree_to_json(pruned) == tree_to_json(direct)
        assert pruned.params == direct.params
        removed = max(removed, len(list(deep.iter_maps())) - len(list(pruned.iter_maps())))
    assert tree_to_json(deep) == deep_text, "prune must not change its input"
    assert removed > 0, "some tau2 must remove child maps"


@pytest.mark.parametrize("tau2", [0.0, -0.1, 1.5])
def test_prune_rejects_tau2_out_of_range(blob_tree, tau2):
    with pytest.raises(ValueError, match=r"tau2 must be in \(0, 1\]"):
        prune(blob_tree, tau2)


def test_prune_leaves_no_reference_cycle(blob_tree):
    # a sweep prunes one deep tree per tau1 row; a cycle through the
    # result would keep every row's deep tree alive until a collection
    gc.disable()
    try:
        tree = tree_from_json(tree_to_json(blob_tree))
        ref = weakref.ref(tree)
        pruned = prune(tree, 0.5)
        del tree, pruned
        assert ref() is None
    finally:
        gc.enable()


def test_prune_rejects_tau2_below_fitted(blob_tree):
    with pytest.raises(ValueError, match="can only raise tau2"):
        prune(blob_tree, blob_tree.params.tau2 / 2)


# ---------------------------------------------------------------- serialization


def test_tree_json_roundtrip_bitwise(blob_tree):
    text = tree_to_json(blob_tree)
    back = tree_from_json(text)
    assert tree_to_json(back) == text
    assert back.root.weights.tobytes() == blob_tree.root.weights.tobytes()
    assert back.sample_ids == blob_tree.sample_ids
    assert back.mqe0 == blob_tree.mqe0


def test_tree_json_is_plain_json(blob_tree):
    text = tree_to_json(blob_tree)
    doc = json.loads(text)
    assert doc["format"] == "ghsom-tree/1"
    assert set(doc) >= {"format", "params", "sample_ids", "attribute_names", "w0", "mqe0", "root"}
    assert doc["root"]["rows"] >= 2 and doc["root"]["cols"] >= 2
    assert doc["mqe0"] == blob_tree.mqe0
    assert text == json.dumps(doc, separators=(",", ":"))


def test_tree_json_roundtrip_non_square_maps(nested_tree):
    # rows != cols, so a transposed reshape of weights or errors would show
    assert nested_tree.root.rows != nested_tree.root.cols
    text = tree_to_json(nested_tree)
    back = tree_from_json(text)
    assert tree_to_json(back) == text
    for a, b in zip(nested_tree.iter_maps(), back.iter_maps(), strict=True):
        assert (b.path, b.rows, b.cols, sorted(b.children)) == (
            a.path, a.rows, a.cols, sorted(a.children)
        )
        assert b.weights.shape == a.weights.shape
        assert b.weights.tobytes() == a.weights.tobytes()
        assert b.unit_mqe.tobytes() == a.unit_mqe.tobytes()
        for ua, ub in zip(a.members(), b.members(), strict=True):
            assert ub.tolist() == ua.tolist()


@pytest.mark.parametrize("where", ["root", "child"])
@pytest.mark.parametrize("fault", ["missing", "duplicated", "row -1", "col past the edge"])
def test_tree_json_rejects_units_that_do_not_tile_the_grid(nested_tree, fault, where):
    doc = json.loads(tree_to_json(nested_tree))
    som, name = doc["root"], "<root>"
    if where == "child":
        unit = next(u for u in som["units"] if u["child"] is not None)
        som, name = unit["child"], f"{unit['col']}x{unit['row']}"
    units = som["units"]
    if fault == "missing":
        del units[-1]
    elif fault == "duplicated":
        units.append(json.loads(json.dumps(units[0])))
    elif fault == "row -1":
        units[0]["row"] = -1
    else:
        units[-1]["col"] = som["cols"]
    with pytest.raises(ValueError, match=f"map {re.escape(name)}: units do not tile"):
        tree_from_json(json.dumps(doc))


@pytest.mark.parametrize("field,value,message", [
    ("tau1", 5.0, "tau1 must be in (0, 1]"),
    ("lam", -3, "lam must be >= 1"),
])
def test_tree_json_rejects_invalid_params(blob_tree, field, value, message):
    doc = json.loads(tree_to_json(blob_tree))
    doc["params"][field] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        tree_from_json(json.dumps(doc))


@pytest.mark.parametrize("where", ["root", "child"])
def test_tree_json_rejects_unknown_sample_ids(nested_tree, where):
    doc = json.loads(tree_to_json(nested_tree))
    som, name = doc["root"], "<root>"
    if where == "child":
        unit = next(u for u in som["units"] if u["child"] is not None)
        som, name = unit["child"], f"{unit['col']}x{unit['row']}"
    next(u for u in som["units"] if u["assigned"])["assigned"][0] = "nope"
    with pytest.raises(ValueError, match=f"map {re.escape(name)}: unknown sample id 'nope'"):
        tree_from_json(json.dumps(doc))


@pytest.mark.parametrize("fault", ["duplicate", "wrong child", "missing"])
def test_tree_json_rejects_inconsistent_routing(nested_tree, fault):
    doc = json.loads(tree_to_json(nested_tree))
    units = doc["root"]["units"]
    leaves = [u for u in units if u["child"] is None and u["assigned"]]
    parent = next(u for u in units if u["child"] is not None)
    name = "<root>"
    if fault == "duplicate":
        leaves[1]["assigned"].append(leaves[0]["assigned"][0])
    elif fault == "wrong child":
        # the sample stays at its root unit and is listed in another's child
        child_leaf = next(u for u in parent["child"]["units"] if u["child"] is None)
        child_leaf["assigned"].append(leaves[0]["assigned"][0])
        name = f"{parent['col']}x{parent['row']}"
    else:
        del leaves[0]["assigned"][0]
    with pytest.raises(ValueError, match=f"map {re.escape(name)}: "):
        tree_from_json(json.dumps(doc))


def _dumps_17g(obj) -> str:
    """JSON with every float as a 17-significant-digit literal, the
    spelling of tree documents written by earlier releases."""
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, list):
        return "[" + ",".join(_dumps_17g(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_dumps_17g(v)}" for k, v in obj.items()) + "}"
    return json.dumps(obj)


def test_tree_json_with_17_digit_floats_loads_bitwise(blob_tree):
    text = tree_to_json(blob_tree)
    old_text = _dumps_17g(json.loads(text))
    assert old_text != text
    back = tree_from_json(old_text)
    for a, b in zip(blob_tree.iter_maps(), back.iter_maps(), strict=True):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.unit_mqe.tobytes() == b.unit_mqe.tobytes()
    assert back.w0.tobytes() == blob_tree.w0.tobytes()
    assert back.mqe0 == blob_tree.mqe0
    assert tree_to_json(back) == text


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(6, 24), st.integers(2, 4))
def test_property_partition_is_total(seed, n, dim):
    """Any run on any small random matrix yields a partition covering every
    sample exactly once, with sound stopping."""
    m = _random_matrix(n, dim, seed)
    params = GhsomParams(tau1=0.5, tau2=0.5, lam=3, rng_seed=seed)
    tree = run_ghsom(m, params)
    part = leaf_partition(tree)
    assert part.n_samples == n
    assert sum(part.sizes().values()) == n
    counts = {}
    for _, members, _ in leaf_units(tree):
        for g in members:
            counts[int(g)] = counts.get(int(g), 0) + 1
    assert counts == {i: 1 for i in range(n)}
