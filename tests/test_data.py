from __future__ import annotations

import csv
import re
import warnings

import numpy as np
import pytest

from tlssvm import data as data_module
from tlssvm.data import (
    MtlDataset,
    SyntheticSpec,
    generate_synthetic,
    kfold_split,
    load_csv,
    save_csv,
)
from tlssvm.errors import ConfigError, DataError
from tlssvm.solver import solve_mode_row_step
from tlssvm.taskgrid import TaskGrid, delinearize, task_vector
from conftest import coslice_tasks, load_csv_by_rows, task_offsets


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

    def test_task_bookkeeping_with_an_empty_task(self):
        X = np.arange(12.0).reshape(6, 2)
        data = MtlDataset(
            TaskGrid((3,)), (X[:1], np.ones((0, 2)), X[1:]), (np.ones(1), np.ones(0), np.ones(5))
        )
        assert data.task_sizes == (1, 0, 5)
        assert data.task_sizes is data.task_sizes
        np.testing.assert_array_equal(data.sample_task_ids(), [0, 2, 2, 2, 2, 2])
        np.testing.assert_array_equal(task_offsets(data), [0, 1, 1])
        assert data.n_samples == 6

    def test_mode_layouts_are_built_once_and_read_only(self):
        rng = np.random.default_rng(3)
        grid = TaskGrid((2, 3))
        sizes = [2, 1, 3, 1, 2, 4]
        y = rng.normal(size=sum(sizes))
        ends = np.cumsum(sizes)
        data = MtlDataset(
            grid, tuple(rng.normal(size=(n, 2)) for n in sizes), tuple(np.split(y, ends[:-1]))
        )
        offsets = task_offsets(data)
        layouts = data.fit_plan.layouts
        assert len(layouts) == grid.n_modes
        for mode in (1, 2):
            layout = layouts[mode - 1]
            assert data.fit_plan.layouts[mode - 1] is layout
            n_rows = grid.mode_sizes[mode - 1]
            per_row = 6 // n_rows
            np.testing.assert_array_equal(layout.blocks.groups, [per_row] * n_rows)
            assert len(layout.blocks.group_slices) == n_rows
            for r in range(1, n_rows + 1):
                rows, own = layout.blocks.group_slices[r - 1]
                assert own == slice((r - 1) * per_row, r * per_row)
                tasks = coslice_tasks(grid, mode, r)
                np.testing.assert_array_equal(layout.tasks[own], tasks)
                assert layout.blocks[own] == tuple(sizes[t - 1] for t in tasks)
                samples = np.concatenate(
                    [np.arange(offsets[t - 1], offsets[t - 1] + sizes[t - 1]) for t in tasks]
                )
                np.testing.assert_array_equal(layout.samples[rows], samples)
                np.testing.assert_array_equal(layout.targets[rows], y[samples])
            blocks = layout.blocks
            for arr in (layout.tasks, layout.samples, layout.targets, blocks.sizes, blocks.starts,
                        blocks.of, blocks.groups, blocks.group_blocks, blocks.group_starts,
                        blocks.group_sizes):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0
        for mode in (0, 3):
            with pytest.raises(IndexError):
                solve_mode_row_step(data, np.ones((data.n_samples, 1)), mode, 1.0)

    def test_zero_features_rejected(self):
        grid = TaskGrid((2,))
        with pytest.raises(ValueError, match="at least one feature"):
            MtlDataset(grid, (np.ones((3, 0)), np.ones((2, 0))), (np.ones(3), np.ones(2)))

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


def assert_same_bits(a, b) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_same_data(a: MtlDataset, b: MtlDataset) -> None:
    assert a.grid == b.grid and a.task_sizes == b.task_sizes
    for x, y in zip(a.inputs + a.targets, b.inputs + b.targets):
        assert_same_bits(x, y)


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        spec = SyntheticSpec(d=3, mode_sizes=(2, 2), k_true=2, train_per_task=4, test_per_task=2, snr=2.0, seed=5)
        train, _, _ = generate_synthetic(spec)
        # subnormals, the extreme normal doubles, 17 significant digits, a signed zero
        extreme = MtlDataset(
            TaskGrid((2,)),
            (
                np.array([[5e-324, -2.225073858507201e-308], [1e308, -1.7976931348623157e308]]),
                np.array([[0.30000000000000004, 1 / 3], [-0.0, 2.2250738585072014e-308]]),
            ),
            (np.array([1.2345678901234567e-300, 9007199254740991.0]), np.array([-0.0, 0.1])),
        )
        for data in (train, extreme):
            path = tmp_path / "train.csv"
            save_csv(data, path)
            assert_same_data(load_csv(path, data.grid), data)

    def test_accepted_cell_syntax(self, tmp_path):
        # cells read as Python's float() and int() read them
        cells = {" 1.5": 1.5, "1_0": 10.0, "+1": 1.0, ".5": 0.5, "1.": 1.0, "-0": -0.0,
                 "\u0661\u0662": 12.0, "1e-320": 1e-320}
        path = tmp_path / "d.csv"
        lines = ["t_1,x_1,y"] + [f" 1,{c},{c}" for c in cells] + ["+2,0,0", "\u0662,1_0,-0"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        data = load_csv(path, TaskGrid((2,)))
        expected = np.array(list(cells.values()))
        assert_same_bits(data.inputs[0], expected.reshape(-1, 1))
        assert_same_bits(data.targets[0], expected)
        assert_same_bits(data.inputs[1], [[0.0], [10.0]])
        assert_same_bits(data.targets[1], [0.0, -0.0])

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

    # Lines on which numpy's C parser and csv with int() and float() can
    # disagree, each after a valid first data line and under the header
    # t_1,t_2,x_1,x_2,y of a (2, 3) grid.
    EDGE_LINES = {
        "blank line mid-file": "\n2,3,1.0,2.0,3.0\n",
        "two newlines at the end": "\n",
        "whitespace-only line": "   \n",
        "line starting with #": "#1,1,0.0,0.0,0.0\n",
        "quoted numeric cell": '1,"2",0.5,"1.5",2\n',
        "quoted cell with a comma": '1,2,"1,5",2\n',
        "underscore in a number": "1_0,1,1_0,2.5_0,3\n",
        "underscore in an index": "1,0_2,0,0,0\n",
        "non-ASCII digits": "\u0661,\u0662,\u0661\u0662,\u0663.5,\u0660\n",
        "non-ASCII whitespace": "\u30001\xa0,\u20032 ,\xa01.5\u3000, 2\t,\u20283\n",
        "20-digit task index": "00000000000000000001,00000000000000000003,1,2,3\n",
        "20-digit task index out of range": "99999999999999999999,1,1,2,3\n",
        "separator around an index": "1\x1c,1,0,0,0\n",
        "separator around a value": "1,1,0,\x1f0,0\n",
        "NUL in a cell": "1,1,0,0\x00,0\n",
        "no newline at the end": "2,2,1e-320,-0,+.5",
        "oversized valid cell": "1,1,0." + "0" * 140_000 + "1,0,0\n",
    }

    def test_matches_line_by_line_reference(self, tmp_path):
        grid = TaskGrid((2, 3))
        header = "t_1,t_2,x_1,x_2,y"
        bad_cells = ["zero", "", "nan", "-inf", "1e400", "0x1"]
        bad_indices = ["0", "3", "4", "1.0", "-1", "99999999999999999999"]
        files = []
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(0, 40))
            idx = np.stack([rng.integers(1, 3, n), rng.integers(1, 4, n)], axis=1)
            values = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
            lines = [[str(i) for i in row] + [repr(float(v)) for v in vals] for row, vals in zip(idx, values)]
            # seeds 0-3 write valid files, the others break up to three random lines
            for _ in range(int(rng.integers(0, 4)) if seed > 3 and n else 0):
                line = lines[int(rng.integers(n))]
                kind = int(rng.integers(3))
                if kind == 0:
                    line[int(rng.integers(2, 5))] = str(rng.choice(bad_cells))
                elif kind == 1:
                    line[int(rng.integers(2))] = str(rng.choice(bad_indices))
                else:
                    line.pop()
            files.append("\n".join([header] + [",".join(l) for l in lines]) + "\n")
        first = "1,1,0.5,-1.25,3e-7\n"
        files += [f"{header}\n{first}{line}" for line in self.EDGE_LINES.values()]
        files += [
            f"{header}\r{first}".replace("\n", "\r") + "2,3,1.0,2.0,3.0\r",  # CR-only line endings
            f"{header}\r\n{first}\r\r\n",  # a CR that csv reads as a line of its own
            f"{header}\n",  # header only
            header,  # header only, without a newline
        ]
        path = tmp_path / "d.csv"
        for text in files:
            path.write_bytes(text.encode("utf-8"))
            for allow_empty in (False, True):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # loadtxt warns on a file without data lines
                    try:
                        expected = load_csv_by_rows(path, grid, allow_empty)
                    except DataError as exc:
                        with pytest.raises(DataError) as got:
                            load_csv(path, grid, allow_empty)
                        assert str(got.value) == str(exc), text[:80]
                    else:
                        assert_same_data(load_csv(path, grid, allow_empty), expected)

    def test_files_numpy_reads_take_the_c_pass(self, tmp_path, monkeypatch):
        spec = SyntheticSpec(d=3, mode_sizes=(2, 2), k_true=2, train_per_task=4, test_per_task=2, snr=2.0, seed=5)
        train, _, _ = generate_synthetic(spec)
        path = tmp_path / "d.csv"
        save_csv(train, path)
        read_lines, calls = data_module._read_lines, []
        monkeypatch.setattr(data_module, "_read_lines", lambda *args: calls.append(args) or read_lines(*args))
        text = path.read_text()
        for newline in ("\r\n", "\n", "\r"):  # save_csv writes "\r\n"
            path.write_bytes(text.replace("\n", newline).encode())
            assert_same_data(load_csv(path, train.grid), train)
        assert calls == []  # files that hold only what numpy reads take the C pass
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("1,1,1_0,0,0,0\r")
        assert load_csv(path, train.grid).inputs[0][-1, 0] == 10.0
        assert len(calls) == 1

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t_1,f_1,y\n1,0.0,0.0\n")
        with pytest.raises(DataError, match="header"):
            load_csv(path, TaskGrid((2,)))

    def test_task_index_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        for index in ("4", "0"):
            path.write_text(f"t_1,x_1,y\n1,0.0,0.0\n{index},0.0,0.0\n")
            message = f"d.csv:3: index {index} out of range [1, 3] in mode 1 of grid (3,)"
            with pytest.raises(DataError, match=re.escape(message)):
                load_csv(path, TaskGrid((3,)))

    def test_non_integer_task_index_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t_1,x_1,y\n1.0,0.0,0.0\n")
        with pytest.raises(DataError, match=re.escape("d.csv:2: non-integer task index ['1.0']")):
            load_csv(path, TaskGrid((2,)))

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        for line in ("1,zero,0.0", "1,,0.0", "1,0.0,"):
            path.write_text(f"t_1,x_1,y\n{line}\n")
            with pytest.raises(DataError, match=re.escape("d.csv:2: non-numeric cell")):
                load_csv(path, TaskGrid((2,)))

    def test_non_finite_cell_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        for line in ("1,nan,0.0", "1,inf,0.0", "1,0.0,-inf", "1,1e400,0.0"):
            path.write_text(f"t_1,x_1,y\n1,0.0,0.0\n{line}\n")
            with pytest.raises(DataError, match=re.escape("d.csv:3: non-finite value")):
                load_csv(path, TaskGrid((2,)))

    def test_lowest_failing_line_wins(self, tmp_path):
        path = tmp_path / "d.csv"
        # one bad line per check, each with the message it raises when first
        bad = [
            ("1,0.0", "expected 3 columns, got 2"),
            ("1.0,0.0,0.0", "non-integer task index ['1.0']"),
            ("3,0.0,0.0", "index 3 out of range [1, 2] in mode 1 of grid (2,)"),
            ("1,zero,0.0", "non-numeric cell"),
            ("1,nan,0.0", "non-finite value"),
            ("1.0,zero,nan", "non-integer task index ['1.0']"),
        ]
        for shift in range(len(bad)):
            order = bad[shift:] + bad[:shift]
            path.write_text("\n".join(["t_1,x_1,y", "2,0.0,0.0"] + [line for line, _ in order]) + "\n")
            with pytest.raises(DataError, match=re.escape(f"d.csv:3: {order[0][1]}")):
                load_csv(path, TaskGrid((2,)))

    def test_oversized_cell_names_line(self, tmp_path):
        # csv's field limit holds for the header and for every data line
        path = tmp_path / "d.csv"
        big = "0." + "0" * csv.field_size_limit() + "1"
        for text, line in ((f"t_1,x_1,{big}\n", 1), (f"t_1,x_1,y\n1,0.0,0.0\n1,{big},0.0\n", 3)):
            path.write_text(text)
            message = f"d.csv:{line}: field larger than field limit ({csv.field_size_limit()})"
            with pytest.raises(DataError, match=re.escape(message)):
                load_csv(path, TaskGrid((2,)), allow_empty_tasks=True)

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
        path.write_text("t_1,x_1,x_2,y\n")
        with pytest.raises(DataError, match=re.escape("tasks without samples: [1, 2]")):
            load_csv(path, TaskGrid((2,)))
        data = load_csv(path, TaskGrid((2,)), allow_empty_tasks=True)
        assert data.task_sizes == (0, 0) and data.n_features == 2


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

    @pytest.mark.parametrize("folds", [2, 3, 5])
    def test_folds_equal_the_per_task_construction(self, folds):
        # the folds are gathered from the stacked arrays: they equal, byte
        # for byte, the datasets built task by task from the same parts
        rng = np.random.default_rng(folds)
        sizes = (5, 9, 7, 6, 11, 8)
        data = MtlDataset(
            TaskGrid((2, 3)),
            tuple(rng.normal(size=(n, 4)) for n in sizes),
            tuple(rng.normal(size=n) for n in sizes),
        )
        parts = np.random.default_rng(17)
        parts = [np.array_split(parts.permutation(n), folds) for n in sizes]
        for j, (train, val) in enumerate(kfold_split(data, folds, 17)):
            kept = [np.setdiff1d(np.arange(n), own[j]) for n, own in zip(sizes, parts)]
            held = [np.sort(own[j]) for own in parts]
            for got, rows in ((train, kept), (val, held)):
                expected = MtlDataset(
                    data.grid,
                    tuple(X[r] for X, r in zip(data.inputs, rows)),
                    tuple(y[r] for y, r in zip(data.targets, rows)),
                )
                assert got.task_sizes == expected.task_sizes
                assert got.stacked_inputs().tobytes() == expected.stacked_inputs().tobytes()
                assert got.stacked_targets().tobytes() == expected.stacked_targets().tobytes()
                assert got.stacked_inputs().flags.c_contiguous and not got.stacked_inputs().flags.writeable
                for a, b in zip(got.inputs + got.targets, expected.inputs + expected.targets):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_deterministic_per_seed(self, tiny_dataset):
        a = kfold_split(tiny_dataset, 5, 3)
        b = kfold_split(tiny_dataset, 5, 3)
        for (ta, va), (tb, vb) in zip(a, b):
            np.testing.assert_array_equal(va.stacked_targets(), vb.stacked_targets())
            np.testing.assert_array_equal(ta.stacked_targets(), tb.stacked_targets())
