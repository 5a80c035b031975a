"""Hand-built fixtures shared across test modules.

The central one is ``worked_example_tree``: a two-level hierarchy whose
grid shape (root 3 rows x 2 cols, one 2x2 child under root unit (0, 0))
makes leaf coordinates computable by hand, and whose per-leaf sample
counts and labels are fixed so rendering checks have exact expectations.
"""

import ctypes
import subprocess
from pathlib import Path

import numpy as np

from ghsomkit import DataMatrix, GhsomParams, GhsomTree, _kernel
from ghsomkit.ghsom import SomMap

# the kernel's cloned functions, ``CLONES`` in _kernel.c
CLONES = 'target_clones("avx512f", "arch=x86-64-v3", "default")'
# the line that compiles in the SSE one-step number read
SSE_STEP = "#define SSE_STEP 1\n"
# the kernel's flags with every warning an error
STRICT_FLAGS = (*_kernel.FLAGS, "-Wall", "-Wextra", "-Werror")

# the entries a test build adds: the kernel's static exp_block, whether
# parse_block takes the SSE step on this CPU, and that step, which
# returns the field's length or -1
TEST_ENTRIES = """
void test_exp(double *a, int64_t n) { exp_block(a, n); }
int test_sse_cpu(void)
{
#if SSE_STEP
    return sse_cpu();
#else
    return 0;
#endif
}
int test_one_step(const char *p, double *out)
{
#if SSE_STEP
    const char *q = p;
    return quick_number_sse(&q, out) ? -1 : (int)(q - p);
#else
    (void)p;
    (void)out;
    return -1;
#endif
}
"""

# leaf path -> labels of the samples assigned there (count = len of list).
# Mixtures are deliberate: "0x0-1x1" has a 2-2-1 majority tie, "0x0-0x0"
# is 75% pure, and the root leaves "1x0"/"0x1" carry the 75:25 pair used
# for the area-ratio check.
WORKED_LEAF_LABELS = {
    "0x0-0x0": ["alpha"] * 15 + ["beta"] * 5,
    "0x0-1x0": ["alpha"] * 10,
    "0x0-0x1": ["beta"] * 9 + ["gamma"] * 6,
    "0x0-1x1": ["alpha", "alpha", "beta", "beta", "gamma"],
    "1x0": ["beta"] * 75,
    "0x1": ["gamma"] * 25,
    "1x1": ["alpha"] * 24 + ["beta"] * 6,
    "0x2": ["gamma"] * 11,
    "1x2": ["alpha"] * 9,
}

# (row, col) per leaf, in the global sample order used below
_CHILD_LEAVES = [("0x0-0x0", 0, 0), ("0x0-1x0", 0, 1), ("0x0-0x1", 1, 0), ("0x0-1x1", 1, 1)]
_ROOT_LEAVES = [("1x0", 0, 1), ("0x1", 1, 0), ("1x1", 1, 1), ("0x2", 2, 0), ("1x2", 2, 1)]


def worked_example_tree(dim=3, seed=11):
    """Build the fixed two-level tree plus an aligned labeled matrix.

    Returns (tree, matrix). Matrix values are seeded noise around a
    distinct center per leaf, so per-cluster attribute means differ.
    """
    rng = np.random.default_rng(seed)

    sample_labels = []
    values_rows = []
    root_assign = []  # (global index, root row, root col)
    child_assign = []  # (global index, child row, child col)
    gidx = 0
    for k, (path, row, col) in enumerate(_CHILD_LEAVES + _ROOT_LEAVES):
        labels = WORKED_LEAF_LABELS[path]
        center = np.full(dim, float(k))
        for lab in labels:
            sample_labels.append(lab)
            values_rows.append(center + 0.1 * rng.normal(size=dim))
            if path.startswith("0x0-"):
                root_assign.append((gidx, 0, 0))
                child_assign.append((gidx, row, col))
            else:
                root_assign.append((gidx, row, col))
            gidx += 1

    n = gidx
    values = np.array(values_rows)
    matrix = DataMatrix(
        values=values,
        sample_ids=[f"s{i:04d}" for i in range(n)],
        attribute_names=[f"f{j}" for j in range(dim)],
        labels=sample_labels,
        label_name="cell_type",
    )

    def build(rows, cols, depth, path, assign):
        som = SomMap(
            rows=rows,
            cols=cols,
            weights=rng.normal(size=(rows * cols, dim)),
            parent_mqe=1.0,
            depth=depth,
            path=path,
            sample_indices=np.array([g for g, _, _ in assign], dtype=np.intp),
        )
        som.units = np.array([r * cols + c for _, r, c in assign], dtype=np.intp)
        som.unit_mqe = np.abs(rng.normal(size=rows * cols))
        return som

    root = build(3, 2, 1, "", root_assign)
    child = build(2, 2, 2, "0x0", child_assign)
    root.children[0] = child

    w0 = values.mean(axis=0)
    mqe0 = float(np.linalg.norm(values - w0, axis=1).mean())
    tree = GhsomTree(
        w0=w0,
        mqe0=mqe0,
        root=root,
        params=GhsomParams(rng_seed=seed),
        sample_ids=list(matrix.sample_ids),
        attribute_names=list(matrix.attribute_names),
    )
    return tree, matrix


def majority_and_purity(labels):
    """Reference majority rule: most common label, ties to the smallest."""
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    best = max(counts.values())
    label = min(lab for lab, c in counts.items() if c == best)
    return label, best / len(labels)


def cpu_flags() -> set[str]:
    """The CPU's feature flags from /proc/cpuinfo, or none where it has no
    such file."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


def build_kernel(directory, target=None, sse=True, flags=_kernel.FLAGS):
    """A copy of ``_kernel.c`` built into ``directory`` and loaded as
    ``_kernel.load`` loads the library, with three entries the library does
    not export: ``test_exp(a, n)``, the kernel's static ``exp_block``;
    ``test_sse_cpu()``, 1 when ``parse_block`` takes the SSE one-step read
    on this CPU; and ``test_one_step(p, out)``, that read of the number
    field at ``p`` (-1 where the build has none). With a ``target``, the
    cloned functions are built for that target alone, as the loader would
    pick them on a CPU that has no wider one. With ``sse`` false, the SSE
    step is compiled out, as on a target that has none, so ``parse_block``
    sends every number field to ``parse_number`` on every CPU. The build
    takes the compiler ``flags`` (the kernel's own by default), and fails
    the calling test with the compiler's output if it fails."""
    source = _kernel.SOURCE.read_text()
    assert source.count(CLONES) == 1 and source.count(SSE_STEP) == 1
    if target is not None:
        source = source.replace(CLONES, f'target("{target}")')
    if not sse:
        source = source.replace(SSE_STEP, "#define SSE_STEP 0\n")
    copy = Path(directory) / "k.c"
    copy.write_text(source + TEST_ENTRIES)
    lib_path = Path(directory) / "k.so"
    done = subprocess.run(["cc", str(copy), "-o", str(lib_path), *flags],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lib = _kernel.load(lib_path)
    lib.test_exp.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    lib.test_exp.restype = None
    lib.test_sse_cpu.argtypes = []
    lib.test_sse_cpu.restype = ctypes.c_int
    lib.test_one_step.argtypes = [ctypes.c_char_p, ctypes.c_void_p]
    lib.test_one_step.restype = ctypes.c_int
    return lib


def kernel_exp(lib):
    """The elementwise exp of ``build_kernel``'s library ``lib``, on a copy
    of its argument as a C-contiguous float64 array."""
    def exp(x):
        out = np.array(x, dtype=np.float64, order="C")
        lib.test_exp(out.ctypes.data, out.size)
        return out
    return exp
