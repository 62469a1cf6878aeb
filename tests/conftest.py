"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.toeplitz.workloads import (
    ar_block_toeplitz,
    kms_toeplitz,
    paper_example_matrix,
)


@pytest.fixture(scope="session", autouse=True)
def no_processes_left_running():
    """Fail the session if a test left a child process running."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running: {left}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_spd_block():
    """8-block, block size 3 SPD block Toeplitz (order 24)."""
    return ar_block_toeplitz(8, 3, seed=42)


@pytest.fixture
def small_spd_scalar():
    """Order-32 KMS scalar Toeplitz."""
    return kms_toeplitz(32, 0.55)


@pytest.fixture
def paper_matrix():
    return paper_example_matrix()


def assert_upper_triangular(a, atol=1e-11):
    below = np.tril(a, k=-1)
    assert np.max(np.abs(below)) <= atol, \
        f"not upper triangular; max below-diag {np.max(np.abs(below)):.2e}"
