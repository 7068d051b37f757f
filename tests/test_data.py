from __future__ import annotations

import numpy as np
import pytest

from tlssvm.data import (
    MtlDataset,
    SyntheticSpec,
    generate_synthetic,
    kfold_split,
    load_csv,
    save_csv,
)
from tlssvm.errors import ConfigError, DataError
from tlssvm.taskgrid import TaskGrid, coslice_tasks, delinearize, task_vector


class TestMtlDataset:
    def test_block_count_and_homogeneity(self):
        grid = TaskGrid((2,))
        with pytest.raises(ValueError):
            MtlDataset(grid, (np.ones((2, 3)),), (np.ones(2),))
        with pytest.raises(ValueError, match="feature dimension"):
            MtlDataset(grid, (np.ones((2, 3)), np.ones((2, 4))), (np.ones(2), np.ones(2)))

    def test_nonfinite_rejected(self):
        grid = TaskGrid((1,))
        X = np.ones((2, 2))
        y = np.array([1.0, np.inf])
        with pytest.raises(ValueError, match="finite"):
            MtlDataset(grid, (X,), (y,))

    def test_global_ordering(self):
        grid = TaskGrid((2,))
        data = MtlDataset(
            grid,
            (np.arange(6.0).reshape(3, 2), np.arange(10.0, 14.0).reshape(2, 2)),
            (np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0])),
        )
        assert data.task_sizes == (3, 2)
        assert data.n_samples == 5
        np.testing.assert_array_equal(data.sample_task_ids(), [0, 0, 0, 1, 1])
        np.testing.assert_array_equal(data.stacked_targets(), [1, 2, 3, 4, 5])
        np.testing.assert_array_equal(data.stacked_inputs()[3], [10.0, 11.0])

    def test_stacked_arrays_are_cached_and_read_only(self):
        X = np.arange(6.0).reshape(3, 2)
        y = np.array([1.0, 2.0, 3.0])
        data = MtlDataset(TaskGrid((2,)), (X, np.ones((0, 2))), (y, np.ones(0)))
        for getter in (data.stacked_inputs, data.stacked_targets, data.sample_task_ids):
            arr = getter()
            assert getter() is arr
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        for block in (*data.inputs, *data.targets):
            assert not block.flags.writeable
        # the caller's arrays are copied, never frozen
        assert X.flags.writeable and y.flags.writeable
        X[0, 0] = 99.0
        assert data.stacked_inputs()[0, 0] == 0.0

    def test_task_bookkeeping_is_cached_and_read_only(self):
        X = np.arange(12.0).reshape(6, 2)
        data = MtlDataset(
            TaskGrid((3,)), (X[:1], np.ones((0, 2)), X[1:]), (np.ones(1), np.ones(0), np.ones(5))
        )
        assert data.task_sizes == (1, 0, 5)
        assert data.task_sizes is data.task_sizes
        offsets = data.task_offsets()
        np.testing.assert_array_equal(offsets, [0, 1, 1])
        assert data.task_offsets() is offsets
        with pytest.raises(ValueError, match="read-only"):
            offsets[0] = 1
        assert data.n_samples == 6

    def test_mode_layouts_are_built_once_and_read_only(self):
        rng = np.random.default_rng(3)
        grid = TaskGrid((2, 3))
        sizes = [2, 1, 3, 1, 2, 4]
        data = MtlDataset(
            grid, tuple(rng.normal(size=(n, 2)) for n in sizes), tuple(np.ones(n) for n in sizes)
        )
        offsets = data.task_offsets()
        for mode in (1, 2):
            layout = data.mode_layout(mode)
            assert data.mode_layout(mode) is layout
            assert layout.n_rows == grid.mode_sizes[mode - 1]
            assert layout.per_row == 6 // layout.n_rows
            for r in range(1, layout.n_rows + 1):
                tasks = coslice_tasks(grid, mode, r)
                own = slice((r - 1) * layout.per_row, r * layout.per_row)
                np.testing.assert_array_equal(layout.tasks[own], tasks)
                np.testing.assert_array_equal(layout.block_sizes[own], [sizes[t - 1] for t in tasks])
                samples = np.concatenate(
                    [np.arange(offsets[t - 1], offsets[t - 1] + sizes[t - 1]) for t in tasks]
                )
                np.testing.assert_array_equal(
                    layout.samples[layout.row_starts[r - 1] : layout.row_starts[r]], samples
                )
            for arr in (layout.tasks, layout.samples, layout.block_sizes, layout.row_starts):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0
        with pytest.raises(IndexError):
            data.mode_layout(3)

    def test_empty_task_flagged(self):
        grid = TaskGrid((2,))
        data = MtlDataset(grid, (np.ones((0, 2)), np.ones((2, 2))), (np.ones(0), np.ones(2)))
        with pytest.raises(DataError, match="task"):
            data.require_nonempty_tasks()


class TestSyntheticSpec:
    def test_snr_must_be_positive(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(d=2, mode_sizes=(2,), k_true=1, train_per_task=4, test_per_task=2, snr=0.0, seed=0)

    def test_infinite_snr_allowed(self):
        spec = SyntheticSpec(d=2, mode_sizes=(2,), k_true=1, train_per_task=4, test_per_task=2, snr=float("inf"), seed=0)
        assert np.isinf(spec.snr)

    def test_config_roundtrip(self):
        spec = SyntheticSpec(d=3, mode_sizes=(2, 3), k_true=2, train_per_task=5, test_per_task=2, snr=10.0, seed=4)
        assert SyntheticSpec.from_config(spec.to_config()) == spec

    def test_config_missing_and_unknown_keys(self):
        spec = SyntheticSpec(d=3, mode_sizes=(2,), k_true=1, train_per_task=5, test_per_task=2, snr=1.0, seed=0)
        cfg = spec.to_config()
        cfg.pop("d")
        with pytest.raises(ConfigError, match="missing"):
            SyntheticSpec.from_config(cfg)
        cfg = spec.to_config()
        cfg["sigma"] = 1.0
        with pytest.raises(ConfigError, match="unknown"):
            SyntheticSpec.from_config(cfg)


class TestGenerateSynthetic:
    def test_paper_default_shapes(self):
        spec = SyntheticSpec(
            d=100, mode_sizes=(3, 4, 5), k_true=3, train_per_task=60, test_per_task=20,
            snr=5.0, seed=0,
        )
        train, test, truth = generate_synthetic(spec)
        assert train.grid.n_tasks == 60
        assert train.n_samples == 3600
        assert test.n_samples == 1200
        assert train.n_features == 100
        assert truth.shared.shape == (100, 3)
        assert truth.biases.shape == (60,)

    def test_noiseless_responses_exact(self):
        spec = SyntheticSpec(
            d=4, mode_sizes=(2, 2), k_true=2, train_per_task=6, test_per_task=3,
            snr=float("inf"), seed=1,
        )
        train, test, truth = generate_synthetic(spec)
        for data in (train, test):
            for t in range(1, 5):
                idx = delinearize(data.grid, t)
                w_t = truth.shared @ task_vector(truth.factors, idx)
                clean = data.inputs[t - 1] @ w_t + truth.biases[t - 1]
                np.testing.assert_allclose(data.targets[t - 1], clean, rtol=0, atol=1e-12)

    def test_snr_exact_per_task_and_split(self):
        spec = SyntheticSpec(
            d=4, mode_sizes=(2, 3), k_true=2, train_per_task=8, test_per_task=5,
            snr=7.0, seed=2,
        )
        train, test, truth = generate_synthetic(spec)
        for data in (train, test):
            for t in range(1, 7):
                idx = delinearize(data.grid, t)
                w_t = truth.shared @ task_vector(truth.factors, idx)
                clean = data.inputs[t - 1] @ w_t + truth.biases[t - 1]
                noise = data.targets[t - 1] - clean
                measured = np.sum(clean**2) / np.sum(noise**2)
                assert abs(measured - 7.0) < 7.0 * 1e-9

    def test_seed_determinism(self):
        spec = SyntheticSpec(d=3, mode_sizes=(2,), k_true=1, train_per_task=5, test_per_task=2, snr=3.0, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for x, y in zip(a[0].inputs + a[1].inputs, b[0].inputs + b[1].inputs):
            np.testing.assert_array_equal(x, y)
        for x, y in zip(a[0].targets + a[1].targets, b[0].targets + b[1].targets):
            np.testing.assert_array_equal(x, y)

    def test_seed_sensitivity(self):
        base = dict(d=3, mode_sizes=(2,), k_true=1, train_per_task=5, test_per_task=2, snr=3.0)
        a, _, _ = generate_synthetic(SyntheticSpec(seed=0, **base))
        b, _, _ = generate_synthetic(SyntheticSpec(seed=1, **base))
        assert not np.array_equal(a.inputs[0], b.inputs[0])


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        spec = SyntheticSpec(d=3, mode_sizes=(2, 2), k_true=2, train_per_task=4, test_per_task=2, snr=2.0, seed=5)
        train, _, _ = generate_synthetic(spec)
        path = tmp_path / "train.csv"
        save_csv(train, path)
        loaded = load_csv(path, train.grid)
        for a, b in zip(train.inputs, loaded.inputs):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(train.targets, loaded.targets):
            np.testing.assert_array_equal(a, b)

    def test_two_task_file(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = ["t_1,x_1,x_2,y"]
        for t in (1, 2):
            for i in range(3):
                rows.append(f"{t},{i}.0,{i + 1}.0,{t + i}.0")
        path.write_text("\n".join(rows) + "\n")
        data = load_csv(path, TaskGrid((2,)))
        assert data.task_sizes == (3, 3)
        assert data.n_samples == 6

    def test_interleaved_rows_regroup_but_keep_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "t_1,x_1,y\n2,1.0,10.0\n1,2.0,20.0\n2,3.0,30.0\n1,4.0,40.0\n"
        )
        data = load_csv(path, TaskGrid((2,)))
        np.testing.assert_array_equal(data.targets[0], [20.0, 40.0])
        np.testing.assert_array_equal(data.targets[1], [10.0, 30.0])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t_1,f_1,y\n1,0.0,0.0\n")
        with pytest.raises(DataError, match="header"):
            load_csv(path, TaskGrid((2,)))

    def test_task_index_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t_1,x_1,y\n1,0.0,0.0\n4,0.0,0.0\n")
        with pytest.raises(DataError, match=r"d\.csv:3"):
            load_csv(path, TaskGrid((3,)))

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t_1,x_1,y\n1,zero,0.0\n")
        with pytest.raises(DataError, match=":2"):
            load_csv(path, TaskGrid((2,)))

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t_1,x_1,y\n1,0.0\n")
        with pytest.raises(DataError, match=":2"):
            load_csv(path, TaskGrid((2,)))

    def test_empty_task_policy(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t_1,x_1,y\n1,0.0,0.0\n")
        with pytest.raises(DataError):
            load_csv(path, TaskGrid((2,)))
        data = load_csv(path, TaskGrid((2,)), allow_empty_tasks=True)
        assert data.task_sizes == (1, 0)


class TestKfold:
    def test_one_fold_rejected(self, tiny_dataset):
        with pytest.raises(ConfigError):
            kfold_split(tiny_dataset, 1, 0)

    def test_even_split_sizes(self):
        grid = TaskGrid((2,))
        rng = np.random.default_rng(0)
        data = MtlDataset(
            grid,
            (rng.normal(size=(10, 2)), rng.normal(size=(10, 2))),
            (rng.normal(size=10), rng.normal(size=10)),
        )
        folds = kfold_split(data, 5, 0)
        assert len(folds) == 5
        for train, val in folds:
            assert val.task_sizes == (2, 2)
            assert train.task_sizes == (8, 8)

    def test_disjoint_and_covering(self):
        grid = TaskGrid((2, 2))
        rng = np.random.default_rng(1)
        # unique targets let us track which samples landed where
        targets = tuple(np.arange(100.0 * t, 100.0 * t + 7) for t in range(4))
        data = MtlDataset(grid, tuple(rng.normal(size=(7, 3)) for _ in range(4)), targets)
        folds = kfold_split(data, 3, 0)
        all_val = [y for _, val in folds for y in val.stacked_targets()]
        assert len(all_val) == len(set(all_val)) == data.n_samples
        assert set(all_val) == set(data.stacked_targets())
        for train, val in folds:
            assert set(train.stacked_targets()).isdisjoint(val.stacked_targets())
            for mt, mv in zip(train.task_sizes, val.task_sizes):
                assert mt + mv == 7
        # per-task validation fold sizes differ by at most one
        for t in range(4):
            sizes = sorted(val.task_sizes[t] for _, val in folds)
            assert sizes[-1] - sizes[0] <= 1

    def test_small_task_rejected_with_name(self):
        grid = TaskGrid((2,))
        data = MtlDataset(
            grid,
            (np.ones((2, 2)), np.ones((5, 2))),
            (np.array([1.0, 2.0]), np.arange(5.0)),
        )
        with pytest.raises(DataError, match="task 1"):
            kfold_split(data, 3, 0)

    def test_deterministic_per_seed(self, tiny_dataset):
        a = kfold_split(tiny_dataset, 5, 3)
        b = kfold_split(tiny_dataset, 5, 3)
        for (ta, va), (tb, vb) in zip(a, b):
            np.testing.assert_array_equal(va.stacked_targets(), vb.stacked_targets())
            np.testing.assert_array_equal(ta.stacked_targets(), tb.stacked_targets())
