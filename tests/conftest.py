from __future__ import annotations

import numpy as np
import pytest

from tlssvm import MtlDataset, TaskGrid


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
