from __future__ import annotations

import itertools

import numpy as np
import pytest

from tlssvm.taskgrid import (
    ModeFactors,
    SharedFactor,
    TaskGrid,
    coslice_tasks,
    delinearize,
    exclusion_table,
    linearize,
    task_vector,
    task_vector_table,
)
from conftest import task_vector_excluding, with_updated_row, without_explicit


def enumerate_multi_indices(sizes):
    """All multi-indices in linear order: first index fastest."""
    ranges = [range(1, s + 1) for s in sizes]
    # itertools.product varies the *last* axis fastest, so reverse twice
    return [tuple(reversed(idx)) for idx in itertools.product(*reversed(ranges))]


class TestTaskGrid:
    def test_basic_properties(self):
        grid = TaskGrid((3, 4, 5))
        assert grid.n_modes == 3
        assert grid.n_tasks == 60

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            TaskGrid(())
        with pytest.raises(ValueError):
            TaskGrid((3, 0, 5))

    def test_single_mode_allowed(self):
        assert TaskGrid((1,)).n_tasks == 1


class TestLinearize:
    def test_identity_case(self):
        assert linearize(TaskGrid((3, 4, 5)), (1, 1, 1)) == 1

    def test_first_index_fastest(self):
        assert linearize(TaskGrid((3, 4, 5)), (2, 1, 1)) == 2

    def test_second_index_stride(self):
        assert linearize(TaskGrid((3, 4, 5)), (1, 2, 1)) == 4

    def test_out_of_range_names_mode(self):
        with pytest.raises(IndexError, match="mode 2"):
            linearize(TaskGrid((3, 4, 5)), (1, 5, 1))

    def test_wrong_arity(self):
        with pytest.raises(IndexError):
            linearize(TaskGrid((3, 4)), (1, 1, 1))


class TestDelinearize:
    def test_first_and_last(self):
        grid = TaskGrid((3, 4, 5))
        assert delinearize(grid, 1) == (1, 1, 1)
        assert delinearize(grid, 60) == (3, 4, 5)

    def test_against_enumeration(self):
        # derived by enumerating all 6 multi-indices of grid (2,3) in order
        grid = TaskGrid((2, 3))
        expected = enumerate_multi_indices((2, 3))
        assert expected[3] == (2, 2)
        assert delinearize(grid, 4) == (2, 2)
        for t, idx in enumerate(expected, start=1):
            assert delinearize(grid, t) == idx
            assert linearize(grid, idx) == t

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            delinearize(TaskGrid((2, 3)), 7)
        with pytest.raises(IndexError):
            delinearize(TaskGrid((2, 3)), 0)

    @pytest.mark.parametrize("sizes", [(1,), (7,), (2, 3), (3, 4, 5), (20, 25), (10, 10, 10), (2, 2, 2, 2)])
    def test_roundtrip_exhaustive(self, sizes):
        grid = TaskGrid(sizes)
        seen = set()
        for idx in enumerate_multi_indices(sizes):
            t = linearize(grid, idx)
            assert 1 <= t <= grid.n_tasks
            assert delinearize(grid, t) == idx
            seen.add(t)
        assert seen == set(range(1, grid.n_tasks + 1))


class TestModeFactors:
    def test_mixed_rank_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            ModeFactors((np.ones((2, 2)), np.ones((3, 1))))

    def test_nonfinite_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ModeFactors((bad, np.ones((3, 2))))

    def test_rank_and_grid(self):
        f = ModeFactors((np.ones((2, 3)), np.ones((4, 3))))
        assert f.rank == 3
        assert f.grid == TaskGrid((2, 4))

    def test_factors_frozen_but_caller_array_untouched(self):
        mat = np.ones((2, 2))
        f = ModeFactors((mat, np.ones((3, 2))))
        assert not f.factors[0].flags.writeable
        assert mat.flags.writeable  # construction must not freeze the original
        mat[0, 0] = 9.0
        assert f.factors[0][0, 0] == 1.0

    def test_with_updated_row(self):
        f = ModeFactors((np.zeros((2, 2)), np.zeros((3, 2))))
        g = with_updated_row(f, 2, 3, np.array([1.0, 2.0]))
        assert np.array_equal(g.factors[1][2], [1.0, 2.0])
        assert np.array_equal(f.factors[1][2], [0.0, 0.0])


class TestTaskVector:
    def test_two_modes_scalar(self):
        f = ModeFactors((np.array([[2.0]]), np.array([[3.0]])))
        assert np.array_equal(task_vector(f, (1, 1)), [6.0])

    def test_single_mode_is_the_row(self):
        f = ModeFactors((np.array([[1.5, -2.0], [0.0, 4.0]]),))
        assert np.array_equal(task_vector(f, (2,)), [0.0, 4.0])

    def test_three_modes_direct_arithmetic(self):
        f = ModeFactors(
            (np.array([[1.0, 0.0]]), np.array([[2.0, 5.0]]), np.array([[3.0, 1.0]]))
        )
        assert np.array_equal(task_vector(f, (1, 1, 1)), [6.0, 0.0])

    def test_excluding_single_mode_gives_ones(self):
        f = ModeFactors((np.array([[7.0, -3.0]]),))
        assert np.array_equal(task_vector_excluding(f, (1,), 1), [1.0, 1.0])

    def test_excluding_second_of_two(self):
        f = ModeFactors((np.array([[4.0, -1.0]]), np.array([[9.0, 9.0]])))
        assert np.array_equal(task_vector_excluding(f, (1, 1), 2), [4.0, -1.0])

    def test_excluding_middle_of_three(self):
        f = ModeFactors((np.array([[2.0]]), np.array([[3.0]]), np.array([[5.0]])))
        assert np.array_equal(task_vector_excluding(f, (1, 1, 1), 2), [10.0])

    def test_exclusion_identity_all_modes(self):
        rng = np.random.default_rng(11)
        sizes = (2, 3, 2)
        f = ModeFactors(tuple(rng.normal(size=(s, 3)) for s in sizes))
        grid = f.grid
        for idx in enumerate_multi_indices(sizes):
            u = task_vector(f, idx)
            for n in range(1, grid.n_modes + 1):
                row = f.factors[n - 1][idx[n - 1] - 1]
                np.testing.assert_allclose(
                    task_vector_excluding(f, idx, n) * row, u, rtol=0, atol=1e-15
                )

    def test_multilinear_in_rows(self):
        rng = np.random.default_rng(4)
        sizes = (2, 3)
        f = ModeFactors(tuple(rng.normal(size=(s, 2)) for s in sizes))
        grid = f.grid
        c = 3.5
        scaled = with_updated_row(f, 2, 1, c * f.factors[1][0])
        affected = set(coslice_tasks(grid, 2, 1).tolist())
        for t in range(1, grid.n_tasks + 1):
            idx = delinearize(grid, t)
            before = task_vector(f, idx)
            after = task_vector(scaled, idx)
            if t in affected:
                # rounding order differs between (c*row)*rest and c*(row*rest)
                np.testing.assert_allclose(after, c * before, rtol=1e-15, atol=0)
            else:
                np.testing.assert_array_equal(after, before)


class TestTables:
    def test_task_vector_table_matches_per_task(self):
        rng = np.random.default_rng(2)
        f = ModeFactors((rng.normal(size=(2, 3)), rng.normal(size=(4, 3))))
        table = task_vector_table(f)
        assert table.shape == (8, 3)
        for t in range(1, 9):
            np.testing.assert_array_equal(table[t - 1], task_vector(f, delinearize(f.grid, t)))

    def test_exclusion_table_matches_per_task(self):
        rng = np.random.default_rng(3)
        f = ModeFactors((rng.normal(size=(2, 2)), rng.normal(size=(3, 2))))
        for n in (1, 2):
            table = exclusion_table(f, n)
            for t in range(1, 7):
                np.testing.assert_array_equal(
                    table[t - 1], task_vector_excluding(f, delinearize(f.grid, t), n)
                )


class TestModeIndexTable:
    def test_one_read_only_table_per_grid(self):
        grid = TaskGrid((2, 3))
        table = grid.mode_indices
        assert table.shape == (6, 2)
        for t in range(1, 7):
            assert tuple(table[t - 1] + 1) == delinearize(grid, t)
        assert grid.mode_indices is table
        factors = ModeFactors((np.ones((2, 1)), np.ones((3, 1))))
        assert factors.grid is factors.grid
        np.testing.assert_array_equal(factors.grid.mode_indices, table)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1


class TestCoslice:
    def test_large_grid_first_mode(self):
        grid = TaskGrid((3, 4, 5))
        tasks = coslice_tasks(grid, 1, 1)
        assert len(tasks) == 20
        assert all(delinearize(grid, t)[0] == 1 for t in tasks)

    def test_singleton(self):
        assert coslice_tasks(TaskGrid((2,)), 1, 2).tolist() == [2]

    def test_enumerated_small_grid(self):
        # under first-index-fastest order, tasks with second index 1 are 1 and 2
        assert coslice_tasks(TaskGrid((2, 3)), 2, 1).tolist() == [1, 2]

    @pytest.mark.parametrize("sizes", [(2, 3), (3, 4, 5), (4,)])
    def test_partition_over_rows(self, sizes):
        grid = TaskGrid(sizes)
        for mode in range(1, grid.n_modes + 1):
            union = []
            for row in range(1, sizes[mode - 1] + 1):
                part = coslice_tasks(grid, mode, row)
                assert len(part) == grid.n_tasks // sizes[mode - 1]
                assert np.all(np.diff(part) > 0)
                union.extend(part.tolist())
            assert sorted(union) == list(range(1, grid.n_tasks + 1))

    def test_bounds(self):
        with pytest.raises(IndexError):
            coslice_tasks(TaskGrid((2, 3)), 3, 1)
        with pytest.raises(IndexError):
            coslice_tasks(TaskGrid((2, 3)), 2, 4)


class TestSharedFactor:
    def test_dual_count_must_match_training_data(self, tiny_dataset):
        with pytest.raises(ValueError, match="dual"):
            SharedFactor(np.zeros(3), np.zeros((4, 2)), tiny_dataset)

    def test_snapshot_rows_must_match_tasks(self, tiny_dataset):
        with pytest.raises(ValueError, match="snapshot"):
            SharedFactor(np.zeros(tiny_dataset.n_samples), np.zeros((5, 2)), tiny_dataset)

    def test_without_explicit(self, tiny_dataset):
        sf = SharedFactor(
            np.zeros(tiny_dataset.n_samples),
            np.ones((4, 2)),
            tiny_dataset,
            explicit=np.ones((3, 2)),
        )
        assert sf.rank == 2
        assert without_explicit(sf).explicit is None
