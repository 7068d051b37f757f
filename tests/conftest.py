from __future__ import annotations

import numpy as np
import pytest

from tlssvm import MtlDataset, TaskGrid
from tlssvm.taskgrid import ModeFactors, SharedFactor


def block_constraint_matrix(block_sizes) -> np.ndarray:
    """m x T block-diagonal matrix of ones columns (one column per task)."""
    m = int(sum(block_sizes))
    A = np.zeros((m, len(block_sizes)))
    start = 0
    for j, size in enumerate(block_sizes):
        A[start : start + size, j] = 1.0
        start += size
    return A


def saddle_oracle(block_sizes, Q, y, C, jitter=0.0):
    """(biases, duals) of the assembled saddle system, solved by np.linalg.solve."""
    A = block_constraint_matrix(block_sizes)
    m, T = A.shape
    full = np.block([[np.zeros((T, T)), A.T], [A, Q + (1.0 / C + jitter) * np.eye(m)]])
    sol = np.linalg.solve(full, np.concatenate([np.zeros(T), y]))
    return sol[:T], sol[T:]


def with_updated_row(factors: ModeFactors, mode: int, row: int, values) -> ModeFactors:
    """Copy of the factors with row `row` of mode `mode` replaced (1-based)."""
    mode = factors.grid._check_mode(mode)
    mats = [f.copy() for f in factors.factors]
    mats[mode - 1][row - 1, :] = values
    return ModeFactors(tuple(mats))


def task_vector_excluding(factors: ModeFactors, idx, skip_mode: int) -> np.ndarray:
    """Task vector of one multi-index with one mode left out of the product.

    With a single mode the product is empty and the all-ones vector is returned.
    """
    grid = factors.grid
    idx = grid._check_multi_index(idx)
    skip_mode = grid._check_mode(skip_mode)
    out = np.ones(factors.rank)
    for n, (f, i) in enumerate(zip(factors.factors, idx), start=1):
        if n != skip_mode:
            out = out * f[i - 1, :]
    return out


def without_explicit(shared: SharedFactor) -> SharedFactor:
    """Copy of a shared factor restricted to its dual representation."""
    return SharedFactor(shared.duals, shared.task_vector_snapshot, shared.train_data, None)


def random_dataset(seed: int, mode_sizes=(2, 2), d: int = 3, m_t: int = 5) -> MtlDataset:
    """Random standard-normal dataset, same sample count per task."""
    grid = TaskGrid(tuple(mode_sizes))
    rng = np.random.default_rng(seed)
    inputs = tuple(rng.normal(size=(m_t, d)) for _ in range(grid.n_tasks))
    targets = tuple(rng.normal(size=m_t) for _ in range(grid.n_tasks))
    return MtlDataset(grid, inputs, targets)


@pytest.fixture
def tiny_dataset() -> MtlDataset:
    return random_dataset(0)
