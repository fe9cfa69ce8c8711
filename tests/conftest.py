"""Shared fixtures: small, well-conditioned batched systems and devices.

Setting ``SANITIZE=1`` in the environment runs every test under an
installed kernel sanitizer (see :mod:`repro.sanitize`), so any simulated
kernel launch the suite performs is checked for races, barrier divergence,
uninitialized/out-of-bounds SLM and collective misuse. Tests that
deliberately execute buggy kernels opt out with ``@pytest.mark.no_sanitize``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.matrix import BatchCsr
from repro.sycl.device import cpu_device, pvc_stack_device
from repro.workloads.general import random_diag_dominant_batch, random_spd_batch
from repro.workloads.stencil import stencil_rhs, three_point_stencil


#: Test directories whose suites form the serving-stack tier-1 gate; the
#: coverage floor (scripts/coverage_gate.py) runs exactly `-m tier1`.
TIER1_DIRS = (
    "tests/serve",
    "tests/fleet",
    "tests/chaos",
    "tests/telemetry",
    "tests/recorder",
)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "no_sanitize: never install the SANITIZE=1 suite-wide sanitizer "
        "for this test (it runs deliberately invalid kernels)",
    )
    config.addinivalue_line(
        "markers",
        "tier1: serving-stack gate tests (auto-applied to tests/serve, "
        "tests/fleet, tests/chaos, tests/telemetry, tests/recorder); the "
        "CI coverage floor runs `pytest -m tier1`",
    )


def pytest_collection_modifyitems(config, items):
    rootdir = str(config.rootpath)
    for item in items:
        rel = os.path.relpath(str(item.fspath), rootdir).replace(os.sep, "/")
        if any(rel.startswith(prefix + "/") for prefix in TIER1_DIRS):
            item.add_marker(pytest.mark.tier1)


@pytest.fixture(autouse=True)
def _suite_sanitizer(request):
    """Opt-in suite-wide sanitizer, controlled by the SANITIZE env toggle."""
    if os.environ.get("SANITIZE") != "1" or request.node.get_closest_marker(
        "no_sanitize"
    ):
        yield None
        return
    from repro.instruments import use
    from repro.sanitize import Sanitizer

    sanitizer = Sanitizer()
    with use(sanitizer=sanitizer):
        yield sanitizer


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def spd_batch() -> BatchCsr:
    """8 SPD systems of size 12 sharing one pattern."""
    return random_spd_batch(num_batch=8, num_rows=12, density=0.3, seed=7)


@pytest.fixture
def dd_batch() -> BatchCsr:
    """8 diagonally dominant nonsymmetric systems of size 12."""
    return random_diag_dominant_batch(num_batch=8, num_rows=12, density=0.3, seed=11)


@pytest.fixture
def stencil16() -> BatchCsr:
    """4 SPD 3-point-stencil systems of size 16."""
    return three_point_stencil(16, 4)


@pytest.fixture
def stencil16_rhs() -> np.ndarray:
    return stencil_rhs(16, 4)


@pytest.fixture
def host_device():
    return cpu_device()


@pytest.fixture
def pvc1_device():
    return pvc_stack_device(1)


def reference_solutions(matrix: BatchCsr, b: np.ndarray) -> np.ndarray:
    """Dense LAPACK reference x for every batch item."""
    return np.linalg.solve(matrix.to_batch_dense(), b[..., None])[..., 0]


def relative_residuals(matrix, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-system ||b - A x|| / ||b||."""
    r = b - matrix.apply(x)
    return np.linalg.norm(r, axis=1) / np.linalg.norm(b, axis=1)
