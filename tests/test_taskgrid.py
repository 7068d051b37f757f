from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlssvm.taskgrid import (
    ModeFactors,
    TaskGrid,
    delinearize,
    linearize,
    task_vector_table,
)
from conftest import (
    coslice_tasks,
    exclusion_table,
    task_vector,
    task_vector_excluding,
    with_updated_row,
)


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
        # NumPy integers, and floats without a fraction, are whole numbers
        numpy_sizes = TaskGrid((np.int64(3), 4, np.float64(5.0)))
        assert numpy_sizes == grid and all(type(s) is int for s in numpy_sizes.mode_sizes)

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


class TestTaskRow:
    """`TaskGrid.task_row` is the one check of a multi-index; linearize and the predict functions go through it."""

    def test_is_linearize_minus_one(self):
        grid = TaskGrid((3, 4, 5))
        for idx in enumerate_multi_indices((3, 4, 5)):
            assert grid.task_row(idx) == linearize(grid, idx) - 1

    def test_strides_are_the_column_major_steps(self):
        assert TaskGrid((3, 4, 5)).strides == (1, 3, 12)
        assert TaskGrid((7,)).strides == (1,)

    @pytest.mark.parametrize(
        "idx",
        [(1.9, 1), (2.5, 3.99), (2.0, 3), (True, 2), (2, False), (np.True_, 2),
         ("2", "3"), (None, 1), (np.float64(2.0), 1), (2, [3])],
        ids=["float", "floats", "whole-float", "bool", "false", "numpy-bool", "str", "none", "numpy-float", "list"],
    )
    def test_non_integer_entries_raise(self, idx):
        grid = TaskGrid((3, 4))
        with pytest.raises(IndexError, match="is not an integer"):
            grid.task_row(idx)
        with pytest.raises(IndexError, match="is not an integer"):
            linearize(grid, idx)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, np.intp])
    def test_numpy_integers_are_accepted(self, kind):
        grid = TaskGrid((3, 4))
        assert linearize(grid, (kind(2), kind(3))) == linearize(grid, (2, 3)) == 8
        assert grid.task_row(np.array([2, 3], dtype=kind)) == 7
        assert type(grid.task_row((kind(2), kind(3)))) is int

    def test_any_iterable_of_integers(self):
        grid = TaskGrid((3, 4))
        assert grid.task_row([2, 3]) == grid.task_row(i for i in (2, 3)) == 7

    @pytest.mark.parametrize("idx, match", [((1, 1, 1), "3 entries"), ((1,), "1 entries"), ((0, 1), "mode 1"), ((1, 5), "mode 2")])
    def test_wrong_length_and_range_raise(self, idx, match):
        with pytest.raises(IndexError, match=match):
            TaskGrid((3, 4)).task_row(idx)


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

    @pytest.mark.parametrize("t", [2.7, "5", True], ids=["float", "str", "bool"])
    def test_non_integer_task_id_raises(self, t):
        # int() would read these as 2, 5 and 1
        with pytest.raises(IndexError, match="is not an integer"):
            delinearize(TaskGrid((3, 4)), t)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_task_id_is_accepted(self, kind):
        assert delinearize(TaskGrid((3, 4)), kind(5)) == delinearize(TaskGrid((3, 4)), 5) == (2, 2)

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


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.data())
def test_linearize_and_delinearize_are_inverse_bijections(sizes, data):
    grid = TaskGrid(tuple(sizes))
    T = grid.n_tasks
    indices = [delinearize(grid, t) for t in range(1, T + 1)]
    assert len(set(indices)) == T  # one multi-index per task id
    assert all(1 <= i <= n for idx in indices for i, n in zip(idx, sizes))
    assert [linearize(grid, idx) for idx in indices] == list(range(1, T + 1))
    idx = tuple(data.draw(st.integers(1, n)) for n in sizes)
    assert delinearize(grid, linearize(grid, idx)) == idx


class TestCheckMode:
    def test_modes_in_range(self):
        grid = TaskGrid((3, 4))
        assert grid._check_mode(1) == 1 and grid._check_mode(np.int64(2)) == 2
        with pytest.raises(IndexError, match="out of range"):
            grid._check_mode(3)

    @pytest.mark.parametrize("mode", [1.9, "1", True], ids=["float", "str", "bool"])
    def test_non_integer_mode_raises(self, mode):
        # int() would read each of these as mode 1
        with pytest.raises(IndexError, match="is not an integer"):
            TaskGrid((3, 4))._check_mode(mode)


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
