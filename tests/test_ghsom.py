import contextlib
import ctypes
import gc
import hashlib
import json
import logging
import math
import os
import platform
import re
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import asdict, fields, replace
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
    FlatTree,
    GhsomTree,
    LeafPartition,
    SomMap,
    _fit_map,
    _init_map,
    _run,
    _split,
    expand_hierarchy,
)
from helpers import STRICT_FLAGS, build_kernel, cpu_flags, kernel_exp
from oracles import (
    best_matching_unit,
    exp_svml,
    grow_numpy,
    leaf_labels,
    leaf_units,
    train_map_online,
    tree_to_json_reference,
)

# a block of training steps holds about this many table entries
TABLE_FLOATS = 1 << int(re.search(r"#define TABLE_FLOATS \(1 << (\d+)\)",
                                   _kernel.SOURCE.read_text())[1])


def _random_matrix(n, dim, seed):
    rng = np.random.default_rng(seed)
    return DataMatrix(
        values=rng.normal(size=(n, dim)),
        sample_ids=[f"s{i}" for i in range(n)],
        attribute_names=[f"f{j}" for j in range(dim)],
    )


@contextlib.contextmanager
def _fit(weights, data, params, epoch_base=0, path="", indices=None):
    """The kernel context of a map that starts at the ``(rows, cols,
    dim)`` grid ``weights`` on the samples ``data[indices]`` (all by
    default), after one growth cycle of ``params`` on the map's stream
    ``1 + epoch_base``, as ``train_map`` runs it; closed on exit."""
    rows, cols, dim = np.shape(weights)
    weights = np.asarray(weights, dtype=float).reshape(rows * cols, dim)
    indices = np.arange(len(data)) if indices is None else np.asarray(indices)
    fit = _kernel.Fit(_run(data, params), indices, rows, cols, weights, path=path,
                      threshold=math.nan, max_units=MAX_UNITS_PER_SAMPLE * len(indices))
    try:
        fit.train(1 + epoch_base)
        yield fit
    finally:
        fit.close()


def _nearest(x, w):
    """The kernel's assignment of the rows of ``x`` to the rows of ``w``:
    each row's distance to its nearest unit and that unit's index. A
    1 x len(w) map trains a cycle at alpha0 = 0, which leaves its
    weights as they are, finite or NaN, and then assigns the rows; a
    map of one row gives that row's distance as its unit's error."""
    w = np.asarray(w, dtype=float)[None]
    params = GhsomParams(lam=1, alpha0=0.0)
    with _fit(w, x, params) as fit:
        weights, _, index = fit.store()
    assert weights.tobytes() == w.tobytes()
    dist = []
    for i, u in enumerate(index.tolist()):
        with _fit(w, x, params, indices=[i]) as fit:
            dist.append(fit.store()[1][u])
    return np.array(dist), index


def _fresh_map(weights, sample_indices=()):
    """A map at the ``(rows, cols, dim)`` grid ``weights``."""
    rows, cols, dim = np.shape(weights)
    weights = np.array(weights, dtype=float).reshape(rows * cols, dim)
    return SomMap(rows, cols, weights, 1.0, 1, "", np.asarray(sample_indices, dtype=np.intp))


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
        dict(tau2=float("nan")),
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


def _scaled(scale):
    m = _random_matrix(100, 5, seed=0)
    return replace(m, values=m.values * scale)


@pytest.mark.parametrize("scale, fault", [(1e200, "overflow"), (3e153, "overflow"),
                                          (1e-170, "underflow")])
def test_run_rejects_scales_whose_squared_distances_overflow_or_underflow(scale, fault):
    # at 1e200 and 3e153 no insertion found a neighbour whose distance
    # compares, though at 3e153 the layer-0 error is still finite; at
    # 1e-170 every square underflowed and 100 distinct samples made one leaf
    m = _scaled(scale)
    if scale == 3e153:
        assert math.isfinite(compute_layer0(m)[1])
    with pytest.raises(ValueError, match=f"squared distances {fault}"):
        run_ghsom(m, GhsomParams(lam=5))


@pytest.mark.parametrize("scale", [1e150, 1e-160])
def test_run_fits_extreme_scales_whose_squared_distances_hold(scale):
    m = _scaled(scale)
    tree = run_ghsom(m, GhsomParams(lam=5))
    assert tree.mqe0 > 0 and math.isfinite(tree.mqe0)
    assert len(set(leaf_partition(tree).clusters)) > 1


def test_run_fits_a_constant_matrix_as_one_leaf():
    m = DataMatrix(np.full((10, 3), 2.5), [f"s{i}" for i in range(10)], ["a", "b", "c"])
    tree = run_ghsom(m, GhsomParams(lam=5))
    assert tree.mqe0 == 0.0
    assert set(leaf_partition(tree).clusters) == {"0x0"}


# ---------------------------------------------------------------- BMU


def test_bmu_tie_breaks_row_major():
    som = _fresh_map(np.zeros((2, 2, 3)))
    assert best_matching_unit(som, np.ones(3)) == 0


def test_bmu_picks_nearest():
    w = np.zeros((2, 2, 1))
    w[1, 1, 0] = 5.0
    som = _fresh_map(w)
    assert best_matching_unit(som, np.array([4.9])) == 3
    assert best_matching_unit(som, np.array([0.1])) == 0


# ---------------------------------------------------------------- training


def test_train_alpha_zero_is_identity():
    m = _random_matrix(10, 2, seed=2)
    before = np.arange(8, dtype=float).reshape(2, 2, 2)
    params = GhsomParams(lam=3, alpha0=0.0)  # validate() would reject; the kernel must not
    with _fit(before, m.values, params) as fit:
        assert fit.store()[0].tobytes() == before.tobytes()


def test_train_single_unit_single_sample_snaps_to_it():
    m = _random_matrix(1, 4, seed=3)
    with _fit(np.zeros((1, 1, 4)), m.values, GhsomParams(lam=5, alpha0=1.0)) as fit:
        weights, unit_mqe = fit.store()[:2]
    # the very first update has alpha=1, h=1: w jumps exactly onto x
    assert weights[0].tobytes() == m.values[0].tobytes()
    assert unit_mqe[0] == 0.0


def test_train_recomputes_assignment_and_errors():
    m = _random_matrix(30, 3, seed=4)
    start = np.random.default_rng(0).normal(size=(2, 3, 3))
    som = _fresh_map(start, np.arange(30))
    with _fit(start, m.values, GhsomParams(lam=10, rng_seed=7)) as fit:
        som.weights, som.unit_mqe, som.units = fit.store()
    # each unit's sample count, from the routed samples' units
    assert np.bincount(som.units, minlength=6).tolist() == [
        len(members) for members in som.members()]
    for u, members in enumerate(som.members()):
        mqe = float(som.unit_mqe[u])
        if len(members):
            d = np.linalg.norm(m.values[members] - som.weights[u], axis=1)
            assert mqe == pytest.approx(d.mean(), rel=1e-12)
        else:
            assert mqe == 0.0
    for k, g in enumerate(som.sample_indices):
        assert som.units[k] == best_matching_unit(som, m.values[g])
    # to the bit: the mean of the kernel's distances of a unit's members,
    # summed in routed order
    d, best = _nearest(m.values[som.sample_indices], som.weights)
    for u, mqe in enumerate(som.unit_mqe.tolist()):
        mine = d[best == u]
        assert mqe == (np.mean(mine) if len(mine) else 0.0)


def test_train_deterministic():
    m = _random_matrix(20, 2, seed=5)
    runs = []
    for _ in range(2):
        with _fit(np.zeros((2, 2, 2)), m.values, GhsomParams(lam=8, rng_seed=9)) as fit:
            runs.append(fit.store()[0].tobytes())
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
def test_train_matches_online_oracle_bitwise(case, exp):
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
        weights = root.weights.reshape(root.rows, root.cols, -1)
        indices = root.sample_indices
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
        params.lam, params.alpha0, params.sigma0, exp=exp,
    )
    with _fit(weights, m.values, params, epoch_base, path, indices) as fit:
        got_w, got_mqe = fit.store()[:2]
    assert got_w.tobytes() == want_w.tobytes()
    assert got_mqe.tobytes() == want_mqe.tobytes()


def _train_matches_online_oracle(dim, rows, cols, n, lam, exp):
    rng = np.random.default_rng(dim)
    m = _random_matrix(n, dim, seed=dim)
    weights = rng.normal(size=(rows, cols, dim))
    params = GhsomParams(lam=lam, rng_seed=2)
    want_w, want_mqe = train_map_online(
        weights, m.values, params.rng_seed, "", 1, params.lam, params.alpha0, exp=exp,
    )
    with _fit(weights, m.values, params) as fit:
        got_w, got_mqe = fit.store()[:2]
    assert got_w.tobytes() == want_w.tobytes()
    assert got_mqe.tobytes() == want_mqe.tobytes()


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
def test_train_matches_online_oracle_bitwise_across_dims(dim, rows, cols, n, lam, exp):
    if dim == 3:
        distinct = np.unique(np.add.outer(np.arange(rows) ** 2, np.arange(cols) ** 2))
        assert lam * n > 2 * (TABLE_FLOATS // len(distinct))
    _train_matches_online_oracle(dim, rows, cols, n, lam, exp)


# the CPU flags each clone's target needs
CLONE_TARGETS = {
    "default": set(),
    "arch=x86-64-v3": {"avx2", "fma", "bmi1", "bmi2", "f16c", "movbe"},
    "avx512f": {"avx512f"},
}


@pytest.fixture(scope="session")
def clone(tmp_path_factory):
    """``clone(target)``: ``build_kernel``'s library with the clones of
    ``target`` alone, built once a session, where the loaded library runs
    only the clone this CPU picks."""
    built = {}

    def clone(target):
        if not CLONE_TARGETS[target] <= cpu_flags():
            pytest.skip(f"this CPU lacks {target}")
        if target not in built:
            built[target] = build_kernel(tmp_path_factory.mktemp("clone"), target)
        return built[target]
    return clone


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the training functions are cloned on x86-64 only")
@pytest.mark.parametrize("target", list(CLONE_TARGETS))
def test_every_clone_matches_online_oracle_bitwise(target, clone, monkeypatch, exp):
    lib = clone(target)
    monkeypatch.setattr(_kernel, "library", lambda: lib)
    for dim, rows, cols, n, lam in [(3, 3, 4, 20, 4), *ACROSS_DIMS[1:]]:
        _train_matches_online_oracle(dim, rows, cols, n, lam, exp)
    _unit_mqe_matches_np_mean(exp)


# the bounds of exp's paths: |x| below FAST takes the fast path, results
# below SUBNORMAL are subnormal, and below UNDERFLOW they are 0
EXP_FAST = float.fromhex("0x1.61da04cbafe44p+9")
EXP_SUBNORMAL = float.fromhex("-0x1.6232bdd7abcd2p+9")
EXP_UNDERFLOW = float.fromhex("-0x1.74910d52d3051p+9")


def _exp_arguments(rng, per_binade):
    """Arguments in [-746, 0]: ``per_binade`` random ones in every binade
    of the negative floats (the subnormals' too), 4 on each side of each
    bound of exp's paths, and -0.0."""
    parts = [np.array([-0.0])]
    for e in range(-1074, 10):
        x = -np.ldexp(1.0 + rng.random(per_binade), e)
        parts.append(x[x >= -746.0])
    for bound in (-EXP_FAST, EXP_SUBNORMAL, EXP_UNDERFLOW):
        for toward in (0.0, -np.inf):
            x = bound
            for _ in range(4):
                parts.append(np.array([x]))
                x = np.nextafter(x, toward)
    return np.concatenate(parts)


@pytest.mark.parametrize("target", list(CLONE_TARGETS))
def test_kernel_exp_matches_exact_reference(target, clone):
    # the exact-arithmetic reference of numpy's AVX-512 exp, against the
    # kernel's port in every clone (elsewhere than x86-64, "default" is
    # the one build there is)
    lib = clone(target)
    rng = np.random.default_rng(17)
    x = np.concatenate([_exp_arguments(rng, 3), rng.uniform(-746.0, -EXP_FAST, 500)])
    got = kernel_exp(lib)(x)
    want = np.array([exp_svml(v) for v in x.tolist()])
    assert np.flatnonzero(got.view(np.int64) != want.view(np.int64)).tolist() == []
    assert got[0] == 1.0 and (got[x < EXP_UNDERFLOW] == 0.0).all()
    assert (got[(x >= EXP_UNDERFLOW) & (x < EXP_SUBNORMAL)] > 0.0).all()


def test_kernel_exp_is_numpys_avx512_exp(exp):
    # numpy's own exp on this CPU, where it runs its AVX-512 loop
    if np.lib.NumpyVersion(np.__version__) < "2.0.0":
        pytest.skip(f"numpy {np.__version__} does not run Intel SVML's exp")
    from numpy._core._multiarray_umath import __cpu_features__

    if not __cpu_features__.get("AVX512_SKX"):
        pytest.skip("numpy does not run its AVX-512 exp here (AVX512_SKX is off)")
    rng = np.random.default_rng(18)
    x = np.concatenate([_exp_arguments(rng, 500), rng.uniform(-746.0, 0.0, 300_000),
                        rng.uniform(-746.0, -EXP_FAST, 200_000)])
    assert len(x) >= 10**6
    assert exp(x).tobytes() == np.exp(x).tobytes()


def _unit_mqe_matches_np_mean(exp):
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
    params = GhsomParams(lam=2, alpha0=0.001, sigma0=0.5, rng_seed=3)
    with _fit(weights, x, params) as fit:
        got_w, got_mqe = fit.store()[:2]

    want_w, want_mqe = train_map_online(weights, x, params.rng_seed, "", 1, params.lam,
                                        params.alpha0, params.sigma0, exp=exp)
    assert got_w.tobytes() == want_w.tobytes()
    assert got_mqe.tobytes() == want_mqe.tobytes()
    d = cdist(x, got_w)
    best = d.argmin(axis=1)
    groups = _split(d[np.arange(len(x)), best], best, 4)
    assert [len(g) for g in groups] == sizes
    want = [np.mean(g) if len(g) else 0.0 for g in groups]
    assert got_mqe.tolist() == want
    assert got_mqe.tobytes() == np.array(want).tobytes()


def test_train_unit_mqe_matches_np_mean_in_every_summation_branch(exp):
    _unit_mqe_matches_np_mean(exp)


@pytest.mark.parametrize("dim", [*range(1, 18), 127, 128, 129, 130, 255, 256, 257, 1000])
def test_kernel_bmu_follows_numpy_pairwise_sum(dim):
    # every unit holds the same coordinates in another order, so the
    # squared distances to x = 0 are equal up to summation rounding, and
    # only numpy's summation order picks numpy's best-matching unit; one
    # step of a 1x16 map at alpha 1 moves that unit exactly onto x, and
    # every other unit at most exp(-2) of its way there
    rng = np.random.default_rng(dim)
    units = 16
    x = np.zeros((1, dim))
    params = GhsomParams(lam=1, alpha0=1.0, sigma0=1e-3)
    picks = set()
    for _ in range(20):
        a = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3, size=dim)
        w = np.stack([rng.permutation(a) for _ in range(units)])
        diff = x - w
        want = int(np.add.reduce(diff * diff, axis=1).argmin())
        with _fit(w[None], x, params) as fit:
            trained = fit.store()[0]
        moved = np.flatnonzero((trained == 0.0).all(axis=1))
        assert moved.tolist() == [want]
        picks.add(want)
    if dim >= 3:
        assert len(picks) > 1  # the sums did differ in their rounding


@pytest.mark.parametrize("rows, cols, ties", [(2, 3, [4, 1]), (3, 3, [8, 2]), (1, 16, [12, 3]),
                                              (3, 4, [9, 2, 10])])
def test_train_bmu_ties_go_to_the_first_unit(rows, cols, ties):
    # the units `ties` hold the same weights, nearest to x = 0: one step
    # at alpha 1 moves the first of them exactly onto x, as np.argmin
    # picks it, and no other unit; in 3x4, unit 2 sits in lane 2 and
    # unit 9 in lane 1 of the next block of 8 units
    rng = np.random.default_rng(rows * cols)
    w = 3.0 + rng.uniform(size=(rows * cols, 5))
    w[ties] = 0.5
    params = GhsomParams(lam=1, alpha0=1.0, sigma0=1e-3)
    with _fit(w.reshape(rows, cols, 5), np.zeros((1, 5)), params) as fit:
        trained = fit.store()[0]
    assert np.flatnonzero((trained == 0.0).all(axis=1)).tolist() == [min(ties)]


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


@pytest.fixture(scope="module")
def strict_build(tmp_path_factory):
    """``(cache home, path)``: the unmodified source built once into a
    fresh cache with ``STRICT_FLAGS``, so a warning fails the build; the
    path is the ImportError, with the compiler's output, when it fails.
    The warning check and the fresh-cache check share this one build."""
    home = tmp_path_factory.mktemp("cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(home))
        mp.setattr(_kernel, "FLAGS", STRICT_FLAGS)
        try:
            return home, _kernel.build()
        except ImportError as e:
            return home, e


def test_kernel_source_compiles_warning_clean(strict_build):
    _, path = strict_build
    assert isinstance(path, Path), str(path)


def test_kernel_builds_into_fresh_cache(strict_build, monkeypatch):
    tmp_path, path = strict_build
    assert isinstance(path, Path), str(path)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernel, "FLAGS", STRICT_FLAGS)
    assert path.parent == tmp_path / "ghsomkit"
    assert re.fullmatch(r"_kernel-[0-9a-f]{64}\.so", path.name)
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    lib = ctypes.CDLL(str(path))
    # Python reaches the kernel through the fit context, the CSV parser,
    # line count and number formatter, the Calinski-Harabasz sums and the
    # column variances only: a growth cycle is one call, and neither exp,
    # the sums they share nor the entries that trained, drew or grew
    # outside a context are exported
    for name in ("fit_open", "fit_train", "fit_grow", "fit_store", "fit_close", "parse_block",
                 "count_lines", "ch_sums", "column_var", "format_rows"):
        assert hasattr(lib, name), name
    for name in ("fit_begin", "fit_step", "exp_block", "exp_rare", "train_steps", "uniform",
                 "grow", "nearest", "pairwise_sum", "column_sums", "column_moments",
                 "quick_number_sse", "parse_block_sse", "sse_cpu", "parse_number", "shortest",
                 "format_repr"):
        assert not hasattr(lib, name), name
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
def test_kernel_uniform_is_numpys_uniform(seed, path, stream, exp):
    # every column of six rows of +1 and -1 has mean 0 and std 1, so a
    # map's initial weights are its stream 0's draws themselves; a cycle
    # on ``stream`` then trains as the oracle does with numpy's stream
    x = np.random.default_rng(1).permuted(np.repeat([[1.0], [-1.0]], 3, axis=0)
                                          * np.ones((1, 10)), axis=0)
    want = _numpy_stream(seed, 0, path).uniform(-INIT_NOISE, INIT_NOISE, size=40)
    params = GhsomParams(lam=4, rng_seed=seed)
    som = _init_map(path, 1.0, 1, np.arange(6), _run(x, params), params)
    try:
        weights = som.fit.store()[0]
        assert weights.tobytes() == want.tobytes()
        som.fit.train(stream)
        got_w, got_mqe = som.fit.store()[:2]
    finally:
        som.fit.close()
    want_w, want_mqe = train_map_online(weights.reshape(2, 2, 10), x, seed, path, stream,
                                        params.lam, params.alpha0, exp=exp)
    assert got_w.tobytes() == want_w.tobytes()
    assert got_mqe.tobytes() == want_mqe.tobytes()


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("path", STREAM_PATHS)
@pytest.mark.parametrize("n, lam", [(1, 3), (2, 5), (7, 4), (300, 2), (70_000, 1)])
def test_kernel_permutations_are_numpys_permuted(seed, path, n, lam, exp):
    # a 1x1 map moves towards each sample in turn, so its weight after a
    # cycle depends on every epoch's order, which the oracle draws as
    # numpy's Generator.permutation on the same stream
    x = np.random.default_rng(n).normal(size=(n, 1))
    params = GhsomParams(lam=lam, rng_seed=seed)
    with _fit(np.zeros((1, 1, 1)), x, params, epoch_base=10, path=path) as fit:
        got_w, got_mqe = fit.store()[:2]
    want_w, want_mqe = train_map_online(np.zeros((1, 1, 1)), x, seed, path, 11, lam,
                                        params.alpha0, exp=exp)
    assert got_w.tobytes() == want_w.tobytes()
    assert got_mqe.tobytes() == want_mqe.tobytes()


def test_train_streams_match_numpy_across_blocks(exp):
    # 58 distinct grid distances: the first of three kernel calls draws
    # the whole cycle's order, on the stream of a big seed and a nested path
    rng = np.random.default_rng(5)
    m = _random_matrix(60, 3, seed=5)
    weights = rng.normal(size=(9, 11, 3))
    params = GhsomParams(lam=40, rng_seed=2**64 + 5)
    assert params.lam * 60 > 2 * (TABLE_FLOATS // 58)
    path, epoch_base = "1x0-0x2", 80
    want_w, want_mqe = train_map_online(weights, m.values, params.rng_seed, path,
                                        1 + epoch_base, params.lam, params.alpha0, exp=exp)
    with _fit(weights, m.values, params, epoch_base, path) as fit:
        got_w, got_mqe = fit.store()[:2]
    assert got_w.tobytes() == want_w.tobytes()
    assert got_mqe.tobytes() == want_mqe.tobytes()


# ---------------------------------------------------------------- growth


def _grown(weights, samples):
    """A map at the ``(rows, cols, dim)`` grid ``weights`` after an
    alpha0 = 0 cycle on ``samples``, which leaves the weights as they are,
    then one insertion and another such cycle, which assigns the grown
    map: the first cycle's unit errors and the grown weights, as a grid."""
    with _fit(weights, np.asarray(samples, dtype=float), GhsomParams(lam=1, alpha0=0.0)) as fit:
        unit_mqe = fit.store()[1]
        rows, cols = fit.grow()
        fit.train(2)
        grown = fit.store()[0]
    return unit_mqe, grown.reshape(rows, cols, -1)


def test_grow_inserts_column_between_error_and_neighbor():
    w = np.zeros((2, 2, 1))
    w[0, 0, 0] = 0.0
    w[0, 1, 0] = 10.0  # most dissimilar from (0,0)
    w[1, 0, 0] = 1.0
    w[1, 1, 0] = 9.0
    unit_mqe, grown = _grown(w, [[-5.0]])
    assert unit_mqe.tolist() == [5.0, 0.0, 0.0, 0.0]  # error unit (0,0)
    assert grown.shape[:2] == (2, 3)
    assert grown[0, 1, 0] == 5.0  # mean of 0 and 10
    assert grown[1, 1, 0] == 5.0  # mean of 1 and 9
    # flanking columns untouched
    assert grown[0, 0, 0] == 0.0 and grown[0, 2, 0] == 10.0


def test_grow_inserts_row_when_vertical_neighbor_wins():
    w = np.zeros((2, 2, 1))
    w[0, 0, 0] = 0.0
    w[0, 1, 0] = 1.0
    w[1, 0, 0] = 20.0  # below (0,0), much farther than right
    w[1, 1, 0] = 2.0
    unit_mqe, grown = _grown(w, [[-5.0]])
    assert unit_mqe.tolist() == [5.0, 0.0, 0.0, 0.0]
    assert grown.shape[:2] == (3, 2)
    assert grown[1, 0, 0] == 10.0


def test_grow_tie_prefers_column():
    w = np.zeros((2, 2, 2))
    w[0, 1] = [3.0, 0.0]  # right of (0,0), distance 3
    w[1, 0] = [0.0, 3.0]  # below (0,0), distance 3
    # the sample is as near (1,1) as (0,0), and goes to the first
    unit_mqe, grown = _grown(w, [[-1.0, -1.0]])
    assert unit_mqe.tolist() == [math.sqrt(2.0), 0.0, 0.0, 0.0]
    assert grown.shape[:2] == (2, 3)


def test_grow_error_unit_tie_row_major():
    w = np.random.default_rng(3).normal(size=(2, 2, 2))
    # a sample on every unit: all errors tie at 0, and argmax picks (0,0)
    unit_mqe, grown = _grown(w, w.reshape(4, 2))
    assert unit_mqe.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert grown.shape[0] * grown.shape[1] == 6
    assert grown.tobytes() == grow_numpy(w, unit_mqe).tobytes()


@pytest.mark.parametrize("seed", range(10))
def test_grow_matches_numpy_insertion_bitwise(seed):
    # every unit of a random map in turn as the error unit: corners,
    # edges and the interior, with a column or a row insertion. Every
    # unit holds a sample on it, and the error unit and the last unit
    # one more at the same offset, so the two tie and the first of them
    # is the error unit: weights and offset are multiples of 2**-30, so
    # each offset sample's difference to its unit is the offset itself
    rng = np.random.default_rng(seed)
    rows, cols = (int(v) for v in rng.integers(2, 6, size=2))
    dim = int(rng.choice([1, 2, 3, 8, 9, 130]))
    weights = np.round(rng.normal(size=(rows, cols, dim)) * 2**30) / 2**30
    flat = weights.reshape(-1, dim)
    gap = cdist(flat, flat)[~np.eye(len(flat), dtype=bool)].min()
    offset = 2.0 ** np.floor(np.log2(gap / (4 * math.sqrt(dim))))
    axes = set()
    for e in range(rows * cols):
        extra = flat[sorted({e, rows * cols - 1})] + offset
        unit_mqe, grown = _grown(weights, np.concatenate([flat, extra]))
        assert int(np.argmax(unit_mqe)) == e
        assert unit_mqe[e] == unit_mqe[-1] > 0.0
        want = grow_numpy(weights, unit_mqe)
        assert grown.tobytes() == want.tobytes()
        axes.add(grown.shape[0] - rows)
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
        # a sample next to (0,0) (and (1,1), which it loses to) makes
        # (0,0) the error unit
        unit_mqe, grown = _grown(w, np.full((1, dim), -1e-100))
        assert int(np.argmax(unit_mqe)) == 0 and unit_mqe[0] > 0.0
        want = (3, 2) if below > right else (2, 3)  # a tie keeps the column
        assert grown.shape[:2] == want
        picks.add(want)
    assert len(picks) == 2


def test_grow_rejects_nan_weights():
    with pytest.raises(ValueError, match="grow"):
        _grown(np.full((2, 2, 2), np.nan), [[0.0, 0.0]])


def test_expand_refines_units_at_threshold_with_four_samples_in_row_major_order():
    m = _random_matrix(16, 2, seed=3)
    routed = np.array([9, 2, 14, 5, 0, 11, 7, 3, 12, 1, 8, 6, 15, 4])
    som = SomMap(2, 3, np.zeros((6, 2)), 1.0, 1, "", routed)
    # units in row-major order hold 4, 3, 0, 1, 5 and 1 samples
    flat = np.array([0, 1, 4, 0, 1, 3, 4, 0, 4, 1, 4, 0, 4, 5])
    som.units = flat
    # at or above tau2 * mqe0 = 0.25: units 0, 1, 3, 4 (unit 1 too few
    # samples, unit 3 one sample); unit 5 has samples but error 0.0
    som.unit_mqe = np.array([0.25, 0.9, 0.0, 0.5, 0.3, 0.0])
    params = GhsomParams(tau2=0.25, lam=2, max_depth=2)
    tree = GhsomTree(np.zeros(2), 1.0, som, params, [f"s{i}" for i in range(16)], ["f0", "f1"])
    expand_hierarchy(tree, som, _run(m.values, params), params)
    assert list(som.children) == [0, 4]
    first, second = som.children[0], som.children[4]
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
    want = x.mean(axis=0) + noise.reshape(4, -1) * x.std(axis=0)
    params = GhsomParams(rng_seed=2**32 + 9)
    som = _init_map(path, 1.0, 3, routed, _run(data, params), params)
    weights, unit_mqe, units = som.fit.store()
    som.fit.close()
    assert weights.tobytes() == want.tobytes()
    assert unit_mqe.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert units.tolist() == [0] * n
    assert np.bincount(units, minlength=4).tolist() == [n, 0, 0, 0]


def _fit_cycles(data, params, parent_mqe, cycles, exp):
    """Train and check one map's context ``cycles`` times, growing it
    between cycles; returns each cycle's map MQE, verdict and number of
    units. Each cycle after the first starts the oracle from numpy's
    insertion, so its bitwise match checks the kernel's insertion too."""
    n = len(data)
    som = _init_map("0x1", parent_mqe, 2, np.arange(n), _run(data, params), params)
    fit = som.fit
    grid = fit.store()[0].reshape(2, 2, -1)
    seen = []
    for cycle in range(cycles):
        if cycle:
            assert fit.grow() == (fit.head.rows, fit.head.cols)
            grid = grow_numpy(grid, unit_mqe)
        stream = 1 + cycle * params.lam
        fit.train(stream)
        want_w, want_mqe = train_map_online(grid, data, params.rng_seed, "0x1", stream,
                                            params.lam, params.alpha0, exp=exp)
        weights, unit_mqe, units = fit.store()
        assert weights.tobytes() == want_w.tobytes()
        assert unit_mqe.tobytes() == want_mqe.tobytes()
        rows, cols = fit.head.rows, fit.head.cols
        grid = weights.reshape(rows, cols, -1)
        stored = SomMap(rows, cols, weights, parent_mqe, 2, "0x1", np.arange(n))
        stored.unit_mqe, stored.units = unit_mqe, units
        assert fit.head.mqe == stored.mqe
        assert np.bincount(units, minlength=rows * cols).tolist() == [
            len(members) for members in stored.members()]
        if stored.mqe < params.tau1 * parent_mqe or stored.mqe == 0.0:
            want = _kernel.CONVERGED
        elif rows * cols >= MAX_UNITS_PER_SAMPLE * n or cycle >= MAX_INSERTIONS:
            want = _kernel.CAPPED
        else:
            want = _kernel.GROW
        assert fit.head.verdict == want
        seen.append((stored.mqe, want, rows * cols))
    fit.close()
    return seen


@pytest.mark.parametrize("dim", [1, 3, 9, 130])
def test_fit_cycles_match_oracle_map_mqe_verdict_and_numpy_insertion(dim, exp):
    # a context trains, scores and grows one map cycle after cycle, its
    # buffers growing in place: each cycle's weights and errors against
    # the online oracle, the kernel's map MQE against SomMap.mqe, its
    # verdict against the stopping rule, and each insertion against
    # numpy; the second pass sets tau1 * parent error to the first
    # pass's median MQE, so that some cycles converge
    data = np.random.default_rng(dim).normal(size=(30, dim))
    params = GhsomParams(lam=2, rng_seed=dim)
    first = _fit_cycles(data, params, 1e-6, 10, exp)
    assert {verdict for _, verdict, _ in first} == {_kernel.GROW}
    median = float(np.median([mqe for mqe, _, _ in first]))
    second = _fit_cycles(data, params, median / params.tau1, 10, exp)
    assert [mqe for mqe, _, _ in second] == [mqe for mqe, _, _ in first]
    assert {verdict for _, verdict, _ in second} == {_kernel.GROW, _kernel.CONVERGED}


def test_fit_cycles_across_a_lane_block_boundary_match_oracle(exp):
    # the kernel trains a map in blocks of 8 units: this map grows from
    # 2x4, one full block, to 2x5, a second block of 2 units and 6 pad
    # lanes, and on to 12 units; every cycle against the oracle
    data = np.random.default_rng(0).normal(size=(30, 8))
    seen = _fit_cycles(data, GhsomParams(lam=2, rng_seed=0), 1e-6, 5, exp)
    assert [units for _, _, units in seen] == [4, 6, 8, 10, 12]


@pytest.mark.parametrize("rows, cols, scale, nan_units", [
    (2, 3, 50.0, []), (2, 3, 50.0, [4, 1]), (3, 3, 50.0, [8]), (3, 4, 50.0, []),
    (3, 4, 50.0, [9, 5]), (5, 5, 50.0, [24]), (3, 4, 1e200, []), (1, 9, 50.0, [])])
def test_train_bmu_is_argmins_with_nan_units_and_pad_lanes(rows, cols, scale, nan_units, exp):
    # maps whose unit counts are not multiples of 8 leave pad lanes in
    # their last block of 8 units: the samples lie near 0 and the units
    # far away, so a pad lane at 0 would be nearest, but none may win;
    # a NaN unit is every step's BMU as np.argmin picks it, the first;
    # at 1e200 every squared distance is inf and the first unit wins
    rng = np.random.default_rng(rows * cols)
    x = rng.normal(scale=0.1, size=(20, 3))
    weights = scale * (1.0 + rng.uniform(size=(rows, cols, 3)))
    weights.reshape(-1, 3)[nan_units] = np.nan
    params = GhsomParams(lam=2, rng_seed=5)
    with np.errstate(over="ignore"):
        want_w, want_mqe = train_map_online(weights, x, params.rng_seed, "", 1, params.lam,
                                            params.alpha0, exp=exp)
    with _fit(weights, x, params) as fit:
        got_w, got_mqe = fit.store()[:2]
    assert got_w.tobytes() == want_w.tobytes()
    assert got_mqe.tobytes() == want_mqe.tobytes()


def test_fit_context_rejects_bad_samples_and_nan_growth():
    data = np.zeros((5, 2))
    params = GhsomParams(lam=2)
    with pytest.raises(ValueError, match="sample index out of range"):
        _init_map("", 1.0, 1, np.array([0, 5]), _run(data, params), params)
    with pytest.raises(ValueError, match="sample index out of range"):
        _init_map("", 1.0, 1, np.array([-1, 0]), _run(data, params), params)
    with pytest.raises(ValueError, match="fit: needs"):
        _init_map("", 1.0, 1, np.array([], dtype=np.intp), _run(data, params), params)
    data[:] = np.nan
    som = _init_map("", 1.0, 1, np.arange(5), _run(data, params), params)
    som.fit.train(1)
    assert som.fit.head.verdict == _kernel.GROW  # a NaN MQE neither converges nor caps
    with pytest.raises(ValueError, match="grow: no neighbour's distance compares"):
        som.fit.grow()
    som.fit.close()


def test_store_after_an_insertion_waits_for_the_next_cycle():
    # an insertion leaves the grown map without an assignment until the
    # next cycle: a store in between would lay the old grid's units and
    # errors out on the grown one
    data = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 4.0]])
    fit = _kernel.Fit(_run(data, GhsomParams(lam=2, alpha0=0.5)), np.arange(3), 2, 2, None,
                      path="", threshold=0.0, max_units=12)
    try:
        fit.train(1)
        fit.grow()
        with pytest.raises(ValueError, match="store: the map has grown since its last cycle"):
            fit.store()
        fit.train(3)
        weights, unit_mqe, units = fit.store()
    finally:
        fit.close()
    assert weights.shape == (6, 2) and unit_mqe.shape == (6,)
    d = cdist(data, weights)
    assert units.tolist() == d.argmin(axis=1).tolist()
    assert np.bincount(units, minlength=6).tolist() == np.bincount(
        d.argmin(axis=1), minlength=6).tolist()
    assert np.isfinite(unit_mqe).all()


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
        for a in (som.weights, som.unit_mqe, som.units):
            assert a.base is None and a.flags.owndata
        assert som.weights.shape == (som.rows * som.cols, nested_matrix.n_attributes
                                     if som is not capped else 2)
        assert som.unit_mqe.shape == (som.rows * som.cols,)


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
# whose cycle spans several kernel blocks, a sweep, fits at dimension 20
# (full vectors and a tail) and 130 (the pairwise sum's split) whose maps
# range from 2x2 to over 100 units, and Calinski-Harabasz
# indices of partitions with singletons, one attribute, equal rows
# (within-cluster sum 0) and clusters of more than 128 values, in C and
# Fortran order, and CSV files written from random doubles, from plain
# decimals and from 14-16-byte decimals and read back, with and without
# the last line end, so the last number field ends the buffer the
# one-step parse must not read past, in one part and in parts on up to 8
# threads, and each part alone in a buffer that ends where it ends; on a
# CPU with SSSE3 and SSE4.1 the one-step parse is its SSE form
SANITIZER_FITS = """
import csv, ctypes, hashlib, json, logging, os, sys, tempfile
import numpy as np
from ghsomkit import DataMatrix, GhsomParams, GhsomTree, LeafPartition, _kernel, data, nested_blobs
from ghsomkit import load_csv, run_ghsom, save_csv, tree_to_json
from ghsomkit.evaluation import ch_index, sweep
from ghsomkit.ghsom import SomMap, _run
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
params = GhsomParams(lam=40, rng_seed=2**64 + 5)
fit = _kernel.Fit(_run(m.values, params), np.arange(60), 9, 11,
                  np.random.default_rng(5).normal(size=(99, 3)), path="1x0-0x2",
                  threshold=0.0, max_units=240)
fit.train(81)
som = SomMap(9, 11, None, 1.0, 2, "1x0-0x2", np.arange(60))
som.weights, som.unit_mqe, som.units = fit.store()
fit.close()
out["blocks"] = tree_to_json(GhsomTree(np.zeros(3), 1.0, som, params, m.sample_ids,
                                       m.attribute_names))
out["dims"] = repr([tree_to_json(run_ghsom(matrix(n, dim, dim), GhsomParams(
    tau1=0.5, tau2=0.3, lam=4, rng_seed=dim))) for dim, n in ((20, 40), (130, 30))])
m = nested_blobs(n_coarse=4, n_sub=3, per_sub=5, dim=4, spread=0.25, seed=1)
grid = sweep(m, GhsomParams(lam=10, rng_seed=5), (0.6, 0.45, 0.3), (0.2, 0.1, 0.05),
             labels=m.labels)
out["sweep"] = repr([(c.tau1, c.tau2, repr(c.ch), repr(c.ari), c.leaf_count, c.depth,
                      c.total_units, c.error) for _, c in sorted(grid.cells.items())])
rng = np.random.default_rng(7)
ch = []
for values, clusters in [(rng.normal(size=(9, 3)), "AABBCDEFF"),
                         (rng.normal(size=(12, 1)), "AAABBBBCCCCC"),
                         (np.full((6, 2), 3.0), "AABBCC"),
                         (rng.normal(size=(300, 1)), "A" * 200 + "B" * 99 + "C"),
                         (rng.normal(size=(300, 3)), "AB" * 75 + "C" * 150)]:
    for order in "CF":
        m = DataMatrix(np.asarray(values, order=order), [f"s{i}" for i in range(len(values))],
                       [f"f{j}" for j in range(values.shape[1])])
        ch.append(repr(ch_index(LeafPartition(m.sample_ids, list(clusters)), m)))
out["ch"] = repr(ch)
bits = rng.integers(0, 2**64, size=(40, 5), dtype=np.uint64).view(np.float64)
plain = np.round(rng.normal(size=(40, 4)) * 10.0 ** rng.integers(-3, 9, size=(40, 4)), 4)
# 14-16-byte decimals; in the last row, with its line end, the third field
# starts 32 bytes before the end: the last the one-step read takes
long = rng.integers(10**13, 10**15, size=(40, 4))
long = np.where(rng.random(size=(40, 4)) < 0.5, long, -(long // 10)) / 10**5
long[-1] = [1234567890.12345, -123456789.12345, 1234567890.12345, 123456789.125]
csv_text = []
with tempfile.TemporaryDirectory() as d:
    path = os.path.join(d, "m.csv")
    labelled = [f"k{i % 3}" for i in range(40)]
    for values, labels in [(np.where(np.isfinite(bits), bits, 0.0), labelled), (plain, None),
                           (long, None)]:
        names = [f"f{j}" for j in range(values.shape[1])]
        m = DataMatrix(values, [f"s{i}" for i in range(40)], names, labels, "kind")
        save_csv(m, path)
        with open(path, "rb") as fh:
            raw = fh.read()
        # without its last line end, the unlabelled file ends in a number
        for text in (raw, raw.removesuffix(b"\\r\\n")):
            with open(path, "wb") as fh:
                fh.write(text)
            # in one part, then in parts of at least 1, 7 and 64 bytes on
            # 2, 3 and 8 threads
            for part_bytes, cpus in [(1 << 20, 1), (1, 2), (7, 3), (64, 8)]:
                data._PART_BYTES = part_bytes
                os.sched_getaffinity = lambda pid, cpus=cpus: set(range(cpus))
                back = load_csv(path, has_labels=labels is not None)
                assert back.values.tobytes() == m.values.tobytes() and back.labels == labels
                # each part alone in a buffer that ends where the part
                # ends (or at a NUL after the last one), so a read past
                # the part's end is out of bounds
                fields = len(names) + 1 + (labels is not None)
                label = fields - 1 if labels is not None else -1
                start = 0
                for a, b in data._parts(text, text.index(b"\\n") + 1):
                    part = text[a:b]
                    ends = part.endswith(b"\\n")
                    rows = part.count(b"\\n") + (not ends)
                    buf = np.frombuffer(part + b"\\0" * (not ends), np.uint8).copy()
                    got = np.empty((rows, len(names)))
                    assert _kernel.library().parse_block(
                        buf.ctypes.data_as(ctypes.c_char_p), len(part), 0, rows, fields, label,
                        csv.field_size_limit(), got, np.empty((rows, 4), dtype=np.int64)) == 0
                    assert got.tobytes() == m.values[start:start + rows].tobytes()
                    start += rows
            csv_text.append(text.decode())
out["csv"] = repr(csv_text)
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
    assert sorted(runs[0]) == ["blocks", "capped", "ch", "csv", "dims", "sweep"]


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
            assert som.units[k] == best_matching_unit(som, blob_matrix.values[g])


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
    child.units = child.units[1:]
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
    # sizes in name order, as cluster_names() lists the clusters
    assert list(part.sizes().items()) == [(c, len(want[c])) for c in sorted(want)]
    for c, ix in want.items():
        assert part.members(c).dtype == np.intp
        assert part.members(c).tolist() == ix
    with pytest.raises(KeyError, match="unknown cluster"):
        part.members("no such cluster")


def test_find_cluster_internal_unit_unions_leaves(nested_tree):
    internal = [nested_tree.root.unit_path(u) for u in sorted(nested_tree.root.children)]
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


@pytest.mark.parametrize("depth, parent_mqe, warns", [(2, 1e-6, True), (2, 1e6, False),
                                                      (1, 1e-6, False)])
def test_child_map_above_its_units_error_warns(caplog, depth, parent_mqe, warns):
    # a child map (depth 2) whose MQE exceeds the error of the unit it
    # refines, its parent_mqe, is logged with both; a root map never is,
    # and a child map below its unit's error is not
    m = _random_matrix(30, 3, seed=4)
    params = GhsomParams(tau1=0.5, lam=2, rng_seed=1)
    som = _init_map("1x0" if depth > 1 else "", parent_mqe, depth, np.arange(30),
                    _run(m.values, params), params)
    with caplog.at_level(logging.WARNING, logger="ghsomkit.ghsom"):
        _fit_map(som, m.values, params)
    above = [r.getMessage() for r in caplog.records if "above its unit's mqe" in r.getMessage()]
    want = f"child map 1x0 has MQE {som.mqe:.6g} above its unit's mqe {parent_mqe:.6g}"
    assert above == ([want] if warns else [])
    assert som.mqe > 1e-3 and (som.mqe < params.tau1 * parent_mqe) == (parent_mqe > 1)


def test_empty_units_do_not_enter_map_mqe():
    som = _fresh_map(np.zeros((2, 2, 1)), [0, 1])
    som.units = np.array([0, 1])
    som.unit_mqe = np.array([2.0, 4.0, 99.0, 99.0])  # bottom units unoccupied
    assert som.mqe == 3.0


# SHA-256 of ``tree_to_json`` of three fits, recorded before the random
# streams and the row/column insertion moved into the kernel: a root-only
# fit that grows (on a seed of two entropy words), a nested fit, and the
# growth-capped noise map. Then, recorded before each map fit got one
# kernel context: the ``repr`` of a 3x3 sweep's rows over small noisy
# blobs whose tau2 = 0.05 cells grow a capped map. Then, recorded while a
# map still held its weights and errors as (rows, cols) grids: a nested
# fit with a fixed sigma0
GOLDEN_TREES = {
    "root_only": "723a6be1fbfc38150182b4714b01bc7d0732c8cdbaa9b336929d1f29d7d9aec6",
    "nested": "504145cc22a07ccd1d84050ae7acdd035cc848da6609cb5f1397c176e78b1336",
    "capped_noise": "55e00125907745397e36011cbec53387c313cea307916fe4cefe53ec308d8ae5",
    "sweep_noisy": "f8483ac6d7919d5c8cf07ace1d4aca24328f6399c955ac4a0ef1e711ac3b8295",
    "sigma0": "a7c9f86f855af91885d0b8624f6bb8f4141462522a8495f7653e4ff6c806991c",
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
    elif case == "sigma0":
        tree = run_ghsom(nested_matrix, GhsomParams(tau1=0.2, tau2=0.1, lam=10, sigma0=1.3,
                                                    rng_seed=0))
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


@pytest.mark.parametrize("disabled", ["X86_V4 AVX512_ICL AVX512_SPR",
                                      "X86_V4 AVX512_ICL AVX512_SPR X86_V3"])
def test_golden_digests_hold_under_numpys_other_exp_loops(disabled):
    # numpy without its AVX-512 loops, and without its AVX2 ones too, as it
    # runs on CPUs that lack them: the fits do not use numpy's exp, so the
    # digests hold
    if np.lib.NumpyVersion(np.__version__) < "2.0.0":
        pytest.skip(f"numpy {np.__version__} does not know the CPU feature names {disabled}")
    path = [str(Path(_kernel.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "NPY_DISABLE_CPU_FEATURES": disabled}
    code = ("from numpy._core._multiarray_umath import __cpu_features__ as f; "
            "print(f['AVX512_SKX'], f['X86_V3'])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120, env=env)
    assert done.stdout.split()[0] == "False"
    if "X86_V3" in disabled:
        assert done.stdout.split()[1] == "False"
    test = f"{__file__}::test_fitted_trees_match_golden_digests"
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                          capture_output=True, text=True, timeout=600, env=env)
    assert done.returncode == 0, done.stdout[-4000:]
    assert f"{len(GOLDEN_TREES)} passed" in done.stdout


# ---------------------------------------------------------------- pruning


@pytest.mark.parametrize("max_depth", [10, 2])
@pytest.mark.parametrize("tau1", [0.6, 0.3])
def test_prune_equals_direct_fit_bytewise(nested_matrix, max_depth, tau1):
    base = GhsomParams(tau1=tau1, lam=5, rng_seed=2, max_depth=max_depth)
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


def _doc_map(depth, parent_mqe, units):
    """A 2x2 map of a tree document whose units, in row-major order, are
    given as ``(mqe, assigned sample ids, child map or None)``."""
    return {"rows": 2, "cols": 2, "depth": depth, "parent_mqe": parent_mqe,
            "units": [{"row": u // 2, "col": u % 2, "weight": [float(u)], "mqe": mqe,
                       "assigned": assigned, "child": child}
                      for u, (mqe, assigned, child) in enumerate(units)]}


def test_survivors_drop_every_map_under_a_dropped_map():
    # root unit A (0x0) has a child map, whose unit B (0x0-0x0) has its
    # own; at tau2 = 0.4, A's error is below tau2 * mqe0 and B's at or
    # above it, so the cut drops A's child map and B's with it, although
    # B alone still reaches the threshold
    ids = [f"s{i}" for i in range(8)]
    b_map = _doc_map(3, 0.5, [(0.0, [sid], None) for sid in ids[:4]])
    a_map = _doc_map(2, 0.3, [(0.5, ids[:4], b_map), (0.0, ids[4:5], None),
                              (0.0, ids[5:6], None), (0.0, [], None)])
    root = _doc_map(1, 1.0, [(0.3, ids[:6], a_map), (0.0, ids[6:7], None),
                             (0.0, ids[7:8], None), (0.0, [], None)])
    params = {**asdict(GhsomParams(tau2=0.1, lam=1)), "depth_reference": "global"}
    tree = tree_from_json(json.dumps({
        "format": "ghsom-tree/1", "params": params, "sample_ids": ids,
        "attribute_names": ["f0"], "w0": [0.0], "mqe0": 1.0, "root": root}))
    tau2 = 0.4
    assert 0.3 < tau2 * tree.mqe0 <= 0.5
    flat = FlatTree(tree)
    assert [som.path for som in flat.maps] == ["", "0x0", "0x0-0x0"]
    assert flat.survivors(0.3) == [True, True, True]
    assert flat.survivors(tau2) == [True, False, False]
    pruned = prune(tree, tau2)
    assert [som.path for som in pruned.iter_maps()] == [""]
    leaves = ["0x0"] * 6 + ["1x0", "0x1"]
    assert flat.partition(flat.survivors(tau2)).clusters == leaves
    assert leaf_partition(pruned).clusters == leaves


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


def test_tree_json_writes_the_global_depth_reference_last(blob_tree):
    # tau2 multiplies the layer-0 error, and the document says so for
    # readers of the format
    doc = json.loads(tree_to_json(blob_tree))
    assert list(doc["params"]) == [f.name for f in fields(GhsomParams)] + ["depth_reference"]
    assert doc["params"]["depth_reference"] == "global"


@pytest.mark.parametrize("fault, message", [
    ("missing", "params: missing key 'tau1'"),
    ("unknown", "params: unknown key 'depth'"),
    ("renamed", "params: missing key 'tau1', unknown key 'tau_1'"),
    ("list", "params must be an object, got list"),
    ("parent", "params: depth_reference must be 'global', got 'parent'"),
], ids=["missing", "unknown", "renamed", "list", "parent"])
def test_tree_json_rejects_params_other_than_written(blob_tree, fault, message):
    doc = json.loads(tree_to_json(blob_tree))
    params = doc["params"]
    if fault == "missing":
        del params["tau1"]
    elif fault == "unknown":
        params["depth"] = 3
    elif fault == "renamed":
        params["tau_1"] = params.pop("tau1")
    elif fault == "list":
        doc["params"] = list(params.values())
    else:
        params["depth_reference"] = "parent"
    with pytest.raises(ValueError, match=re.escape(message)):
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


def _weights_doc(weights, sample_ids=("s0", "s1", "s2", "s3"), attribute_names=None):
    """A tree document over four samples: a 2x2 root whose unit (0, 1)
    has a 2x2 child map. ``weights`` gives the 8 units' weight rows, the
    root's first, in row-major order."""
    dim = len(weights[0])
    a, b, c, d = sample_ids
    child = _doc_map(2, 0.5, [(0.0, [b], None), (0.0, [], None), (0.0, [], None),
                              (0.0, [c], None)])
    root = _doc_map(1, 1.0, [(0.0, [a], None), (0.5, [b, c], child), (0.0, [], None),
                             (0.0, [d], None)])
    for unit, row in zip(root["units"] + child["units"], weights, strict=True):
        unit["weight"] = list(row)
    params = {**asdict(GhsomParams(tau2=0.1, lam=1)), "depth_reference": "global"}
    names = [f"f{j}" for j in range(dim)] if attribute_names is None else attribute_names
    return {"format": "ghsom-tree/1", "params": params, "sample_ids": list(sample_ids),
            "attribute_names": names, "w0": [0.5] * dim, "mqe0": 1.0, "root": root}


def _weights_text(*args, **kwargs):
    return json.dumps(_weights_doc(*args, **kwargs), separators=(",", ":"))


@pytest.mark.parametrize("fault", ["every root weight short", "one child weight short",
                                   "one weight long", "string", "bool", "not a list"])
def test_tree_json_rejects_weights_that_are_not_one_number_per_attribute(fault):
    doc = _weights_doc([[1.0, 2.0, 3.0]] * 8)
    root, child = doc["root"], doc["root"]["units"][1]["child"]
    name, unit = "<root>", root["units"][0]
    if fault == "every root weight short":
        for u in root["units"]:
            u["weight"].pop()
    elif fault == "one child weight short":
        name, unit = "1x0", child["units"][3]
        unit["weight"].pop()
    elif fault == "one weight long":
        unit = root["units"][2]
        unit["weight"].append(4.0)
    elif fault == "string":
        unit["weight"][1] = "2.0"
    elif fault == "bool":
        unit["weight"][1] = True
    else:
        unit["weight"] = 1.0
    message = f"map {name}: unit ({unit['row']}, {unit['col']}) weight is not a list of 3 numbers"
    with pytest.raises(ValueError, match=re.escape(message)):
        tree_from_json(json.dumps(doc))


def _of_bits(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


# doubles whose text is easiest to get wrong: the zeros, subnormals, the
# largest magnitude, repr's switches to an exponent below 1e-4 and from
# 1e16, and values that need 17 significant digits
_AWKWARD_DOUBLES = [
    0.0, 5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, 1e-4, 0.0001000000000000001, 9.999999999999999e-05, 1e-5,
    1e16, 9999999999999998.0, 1.0000000000000002e16, 1234567890123456.7, 12345678901234567.0,
    0.30000000000000004, 1 / 3, 2 / 3, 0.1, 1.0, 123.0,
]
_AWKWARD_DOUBLES += [math.nextafter(x, y) for x in (1e-4, 1e16) for y in (0.0, math.inf)]
_AWKWARD_DOUBLES += [-x for x in _AWKWARD_DOUBLES]

_FINITE_DOUBLES = st.one_of(
    st.integers(0, 2**64 - 1).map(_of_bits).filter(math.isfinite),
    st.sampled_from(_AWKWARD_DOUBLES),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda dim: st.lists(st.lists(_FINITE_DOUBLES, min_size=dim, max_size=dim),
                         min_size=8, max_size=8)))
def test_tree_json_writes_any_finite_weight_as_the_reference_property(weights):
    # the kernel writes these weights; each map of the text is the
    # reference's, and reads back bit for bit
    text = _weights_text(weights)
    tree = tree_from_json(text)
    assert tree_to_json(tree) == tree_to_json_reference(tree) == text
    back = tree_from_json(tree_to_json(tree))
    got = np.concatenate([som.weights for som in back.iter_maps()])
    assert got.tobytes() == np.array(weights, dtype=np.float64).tobytes()


def test_tree_json_writes_awkward_weights_as_the_reference():
    weights = np.resize(_AWKWARD_DOUBLES, (8, -(-len(_AWKWARD_DOUBLES) // 8)))
    text = _weights_text(weights.tolist())
    tree = tree_from_json(text)
    assert tree_to_json(tree) == tree_to_json_reference(tree) == text
    assert np.concatenate([som.weights for som in tree.iter_maps()]).tobytes() == \
        weights.tobytes()


# sample ids and attribute names that json must escape, or that spell the
# weight key the writer splices at
_AWKWARD_NAMES = ['"', "\\", "x\\", '"weight":"', '"weight":""', '\\"weight":""',
                  '","weight":"",', "\x00\x01\x1f\n\t\x7f", "é ü 名前 😀", ""]


def test_tree_json_splices_weights_whatever_the_names():
    ids = [f"{name}{i}" for i, name in enumerate(_AWKWARD_NAMES[:4])]
    text = _weights_text([[0.5 * u, -1.0 / 3] for u in range(8)], ids, _AWKWARD_NAMES[4:6])
    tree = tree_from_json(text)
    assert tree_to_json(tree) == tree_to_json_reference(tree) == text
    # and a fitted tree, whose maps hold every id
    m = gaussian_blobs(n_clusters=2, per_cluster=5, dim=len(_AWKWARD_NAMES), seed=3)
    m = DataMatrix(m.values, [f"{_AWKWARD_NAMES[i]}{i}" for i in range(10)], _AWKWARD_NAMES)
    fitted = run_ghsom(m, GhsomParams(tau1=0.3, tau2=0.1, lam=5, rng_seed=0))
    text = tree_to_json(fitted)
    assert text == tree_to_json_reference(fitted)
    back = tree_from_json(text)
    assert (back.sample_ids, back.attribute_names) == (m.sample_ids, _AWKWARD_NAMES)
    for a, b in zip(fitted.iter_maps(), back.iter_maps(), strict=True):
        assert b.weights.tobytes() == a.weights.tobytes()


def test_tree_json_keeps_json_spelling_for_non_finite_weights():
    # a loaded map with NaN and infinite weights takes json's path, whose
    # spelling reads back; the finite child map takes the kernel's
    weights = [[math.nan, 1.0], [math.inf, -math.inf], [0.1, -0.0], [1e16, 5e-324]]
    weights += [[0.5, 2.0]] * 4
    text = _weights_text(weights)
    assert '"weight":[NaN,1.0]' in text and '"weight":[Infinity,-Infinity]' in text
    tree = tree_from_json(text)
    assert tree_to_json(tree) == tree_to_json_reference(tree) == text


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_tree_json_writes_weights_of_other_dtypes_as_the_reference(dtype):
    tree = tree_from_json(_weights_text([[0.1 * u, 3.0 * u] for u in range(8)]))
    tree.root.weights = tree.root.weights.astype(dtype)
    assert tree_to_json(tree) == tree_to_json_reference(tree)


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
