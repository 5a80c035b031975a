import pytest

from ghsomkit import GhsomParams, gaussian_blobs, run_ghsom
from helpers import build_kernel, kernel_exp

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
def exp(tmp_path_factory):
    """The kernel's exp, which the online oracle's neighbourhood takes, from
    a test build of the kernel's source (``helpers.build_kernel``)."""
    return kernel_exp(build_kernel(tmp_path_factory.mktemp("kernel")))


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
