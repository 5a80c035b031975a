import pytest

from ghsomkit import GhsomParams, _kernel, gaussian_blobs, run_ghsom
from helpers import STRICT_FLAGS, build_kernel, kernel_exp

# One line per acceptance criterion, echoed after the test summary so the
# pass/fail verdicts are visible even without -s.
ACCEPTANCE_LINES = []


def record_criterion(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def kernel_build(tmp_path_factory):
    """A test build of the kernel's source, with the entries
    ``helpers.build_kernel`` adds."""
    return build_kernel(tmp_path_factory.mktemp("kernel"))


@pytest.fixture(scope="session")
def exp(kernel_build):
    """The kernel's exp, which the online oracle's neighbourhood takes."""
    return kernel_exp(kernel_build)


@pytest.fixture(scope="session")
def kernels(tmp_path_factory):
    """The loaded kernel library and a build of its source with the SSE
    one-step number read compiled out: on an x86-64 CPU with SSSE3 and
    SSE4.1 the first takes that step, and the second sends every number
    field to ``parse_number``, as every other CPU does. The second is
    built with ``STRICT_FLAGS``, so a warning in the portable form of the
    source fails every test that reads it, as ``strict_build`` does for
    the form the library is built in."""
    return [_kernel.library(),
            build_kernel(tmp_path_factory.mktemp("no-step"), sse=False, flags=STRICT_FLAGS)]


@pytest.fixture(scope="session")
def blob_matrix():
    return gaussian_blobs(
        n_clusters=3, per_cluster=30, dim=4, spread=0.1, separation=6.0, seed=3
    )


@pytest.fixture(scope="session")
def blob_tree(blob_matrix):
    params = GhsomParams(tau1=0.15, tau2=0.15, lam=20, rng_seed=3)
    return run_ghsom(blob_matrix, params)


@pytest.fixture(scope="session")
def nested_matrix():
    from ghsomkit import nested_blobs

    return nested_blobs(seed=0)


@pytest.fixture(scope="session")
def nested_tree(nested_matrix):
    params = GhsomParams(tau1=0.2, tau2=0.1, lam=10, rng_seed=0)
    return run_ghsom(nested_matrix, params)
