import builtins
import csv
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import topospinor
from topospinor.io import (
    EdgeListParseError,
    ResultTable,
    load_dataset,
    load_edge_list,
    load_results,
    format_float,
    load_time_series,
    read_matrix_csv,
    save_dataset,
    save_edge_list,
    save_results,
    write_matrix_csv,
)
from topospinor.synth import random_graph
from topospinor.topology import OrientedGraph


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test leaves no child process behind, the half of a matrix CSV that a forked child writes included."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestEdgeList:
    def test_parse_path_graph(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("3\n0 1\n1 2\n")
        g = load_edge_list(f)
        assert g.num_nodes == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_self_loop_reports_line(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("3\n0 0\n")
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(f)
        assert err.value.line_number == 2
        assert "self-loop" in str(err.value)

    def test_duplicate_edge_reports_line(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("3\n0 1\n1 0\n")
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(f)
        assert err.value.line_number == 3

    def test_garbage_line(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("3\n0 1\nfoo bar\n")
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(f)
        assert err.value.line_number == 3

    def test_missing_field(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("3\n0\n")
        with pytest.raises(EdgeListParseError):
            load_edge_list(f)

    def test_round_trip(self, tmp_path):
        g = random_graph(9, 16, 2)
        save_edge_list(tmp_path / "g.txt", g)
        assert load_edge_list(tmp_path / "g.txt").edges == g.edges

    def test_wdn_sized_file(self, tmp_path):
        # A network of the water-distribution benchmark size: 22 nodes, 41 edges.
        g = random_graph(22, 41, 7)
        save_edge_list(tmp_path / "wdn.txt", g)
        loaded = load_edge_list(tmp_path / "wdn.txt")
        assert loaded.num_nodes == 22
        assert loaded.num_edges == 41


class TestTimeSeries:
    def make_files(self, tmp_path, graph, steps=240, header=False):
        """Write node and edge CSVs and return the spinor matrix they hold.

        With ``header``, the files are written as the csv module writes them under a label row.
        """
        rng = np.random.default_rng(0)
        node = rng.normal(size=(steps, graph.num_nodes))
        edge = rng.normal(size=(steps, graph.num_edges))
        if header:
            oracle_write(tmp_path / "node.csv", node, tuple(f"n{i}" for i in range(graph.num_nodes)))
            oracle_write(tmp_path / "edge.csv", edge, tuple(f"e{i}" for i in range(graph.num_edges)))
        else:
            write_matrix_csv(tmp_path / "node.csv", node)
            write_matrix_csv(tmp_path / "edge.csv", edge)
        return np.vstack([node.T, edge.T])

    def test_load_wdn_shape(self, tmp_path):
        g = random_graph(22, 41, 7)
        S = self.make_files(tmp_path, g, steps=240)
        loaded = load_time_series(g, tmp_path / "node.csv", tmp_path / "edge.csv")
        assert loaded.shape == (22 + 41, 240)
        assert_allclose(loaded, S)

    def test_header_detected(self, tmp_path):
        g = random_graph(5, 7, 1)
        S = self.make_files(tmp_path, g, steps=12, header=True)
        loaded = load_time_series(g, tmp_path / "node.csv", tmp_path / "edge.csv")
        assert np.array_equal(loaded, S)

    def test_column_mismatch(self, tmp_path):
        g = random_graph(5, 7, 1)
        self.make_files(tmp_path, g, steps=4)
        other = random_graph(6, 8, 1)
        with pytest.raises(ValueError, match="columns"):
            load_time_series(other, tmp_path / "node.csv", tmp_path / "edge.csv")

    def test_ragged_rows(self, tmp_path):
        g = OrientedGraph(3, ((0, 1), (1, 2)))
        (tmp_path / "node.csv").write_text("1,2,3\n4,5\n")
        (tmp_path / "edge.csv").write_text("1,2\n3,4\n")
        with pytest.raises(ValueError, match="row 2"):
            load_time_series(g, tmp_path / "node.csv", tmp_path / "edge.csv")

    def test_non_numeric_cell(self, tmp_path):
        g = OrientedGraph(3, ((0, 1), (1, 2)))
        (tmp_path / "node.csv").write_text("1,2,3\n4,x,6\n")
        (tmp_path / "edge.csv").write_text("1,2\n3,4\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_time_series(g, tmp_path / "node.csv", tmp_path / "edge.csv")

    def test_step_count_mismatch(self, tmp_path):
        g = OrientedGraph(3, ((0, 1), (1, 2)))
        (tmp_path / "node.csv").write_text("1,2,3\n")
        (tmp_path / "edge.csv").write_text("1,2\n3,4\n")
        with pytest.raises(ValueError, match="node series has 1 steps but edge series has 2"):
            load_time_series(g, tmp_path / "node.csv", tmp_path / "edge.csv")

    def test_wrong_width_header_rejected_on_save_and_load(self, tmp_path):
        # The writer takes no header at all; on reading, a header one cell wide
        # over three node columns is refused, not skipped.
        g = OrientedGraph(3, ((0, 1), (1, 2)))
        with pytest.raises(TypeError):
            write_matrix_csv(tmp_path / "node.csv", np.arange(6.0).reshape(2, 3), ("only_one",))
        assert not (tmp_path / "node.csv").exists()
        oracle_write(tmp_path / "node.csv", np.arange(6.0).reshape(2, 3), ("only_one",))
        oracle_write(tmp_path / "edge.csv", np.ones((2, 2)), ("e0", "e1"))
        with pytest.raises(ValueError, match="header row has 1 cells, expected 3 \\(node series\\)"):
            load_time_series(g, tmp_path / "node.csv", tmp_path / "edge.csv")

    def test_right_width_header_round_trips(self, tmp_path):
        g = OrientedGraph(3, ((0, 1), (1, 2)))
        node, edge = np.arange(6.0).reshape(2, 3), np.ones((2, 2))
        oracle_write(tmp_path / "node.csv", node, ("a", "b", "c"))
        oracle_write(tmp_path / "edge.csv", edge, ("e0", "e1"))
        loaded = load_time_series(g, tmp_path / "node.csv", tmp_path / "edge.csv")
        assert np.array_equal(loaded, np.vstack([node.T, edge.T]))

    def test_spinor_matrix_stacking(self, tmp_path):
        g = OrientedGraph(3, ((0, 1), (1, 2)))
        write_matrix_csv(tmp_path / "node.csv", np.arange(6).reshape(2, 3))
        write_matrix_csv(tmp_path / "edge.csv", np.arange(4).reshape(2, 2))
        S = load_time_series(g, tmp_path / "node.csv", tmp_path / "edge.csv")
        assert S.shape == (5, 2)
        assert_allclose(S[:3, 0], [0, 1, 2])  # node block first
        assert_allclose(S[3:, 0], [0, 1])

    def test_dataset_directory_round_trip(self, tmp_path):
        g = random_graph(6, 9, 3)
        S = np.random.default_rng(3).normal(size=(6 + 9, 11))
        out = save_dataset(tmp_path / "data", g, S)
        assert sorted(f.name for f in out.iterdir()) == ["edge_series.csv", "graph.txt", "node_series.csv"]
        graph, loaded = load_dataset(out)
        assert graph.num_nodes == 6 and graph.edges == g.edges
        assert np.array_equal(loaded, S)

    def test_byte_order_marks_change_nothing(self, tmp_path):
        # Excel's "CSV UTF-8" starts a file with a UTF-8 byte-order mark; in every file of a dataset directory it
        # is ignored, so the node count still parses and the first step is kept.
        g = random_graph(6, 9, 3)
        S = np.random.default_rng(3).normal(size=(6 + 9, 11))
        plain, marked = save_dataset(tmp_path / "plain", g, S), save_dataset(tmp_path / "marked", g, S)
        for name in ("graph.txt", "node_series.csv", "edge_series.csv"):
            (marked / name).write_bytes(b"\xef\xbb\xbf" + (plain / name).read_bytes())
        (graph, loaded), (plain_graph, plain_loaded) = load_dataset(marked), load_dataset(plain)
        assert graph == plain_graph and np.array_equal(loaded, plain_loaded)
        assert np.array_equal(loaded, S)


class TestResults:
    def test_round_trip_precision(self, tmp_path):
        rows = tuple(
            ("dirac", lvl, real, float(np.random.default_rng(lvl + real).random()) * 1e-7)
            for lvl in (5, 10)
            for real in range(3)
        )
        table = ResultTable("results", ("method", "sparsity", "realization", "nmse"), rows)
        save_results(tmp_path / "run", table, {"command": "test", "seed": 1})
        meta, tables = load_results(tmp_path / "run")
        assert meta["seed"] == 1
        loaded = tables["results"]
        for original, parsed in zip(rows, loaded.rows):
            assert parsed[0] == original[0]
            assert parsed[3] == original[3]  # exact float round trip

    def test_sparsity_sweep_schema(self, tmp_path):
        table = ResultTable("results", ("method", "sparsity", "realization", "nmse"),
                            (("dirac", 35, 0, 0.5),))
        out = save_results(tmp_path / "run", table, {})
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == "method,sparsity,realization,nmse"

    def test_denoise_schema_with_empty_cell(self, tmp_path):
        table = ResultTable(
            "results",
            ("method", "snr_db", "bandwidth", "realization", "nmse"),
            (("noisy_input", 0.0, None, 0, 1.001),),
        )
        out = save_results(tmp_path / "run", table, {})
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "method,snr_db,bandwidth,realization,nmse"
        assert lines[1].split(",")[2] == ""
        _, tables = load_results(tmp_path / "run")
        assert tables["results"].rows[0][2] is None

    def test_row_shape_validated(self):
        with pytest.raises(ValueError):
            ResultTable("bad", ("a", "b"), ((1,),))

    def test_run_json_is_strict_json_with_non_finite_values(self, tmp_path):
        # Every non-finite float, at any depth, is spelled as results.csv spells it; finite values keep their bytes.
        meta = {"grid": (0.0, float("inf")), "nested": {"worst": float("-inf"), "rows": [[1.5, float("nan")]]}}
        out = save_results(tmp_path / "run", ResultTable("t", ("x",), ((float("nan"),),)), meta)

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        loaded = json.loads((out / "run.json").read_text(), parse_constant=refuse)
        assert loaded["grid"] == [0.0, "inf"]
        assert loaded["nested"] == {"worst": "-inf", "rows": [[1.5, "nan"]]}
        assert (out / "t.csv").read_text().splitlines()[1] == "nan"
        finite = {"grid": (0.0, 0.1), "nested": {"worst": 1e-300}}
        text = (save_results(tmp_path / "finite", [], finite) / "run.json").read_text()
        assert text == json.dumps({**finite, "tables": []}, indent=2, sort_keys=True) + "\n"

    def test_load_results_reads_non_finite_numbers_back_as_floats(self, tmp_path):
        # In a list of numbers the spellings are floats again, at any depth; a string anywhere else stays a string.
        meta = {"config": {"snr_grid": (0.0, float("inf")), "dataset_dir": "inf"}, "worst": float("-inf"),
                "curves": [[1.5, float("-inf")], [float("nan")]], "names": ["a", "inf"]}
        loaded, _ = load_results(save_results(tmp_path / "run", [], meta))
        assert loaded["config"] == {"snr_grid": [0.0, float("inf")], "dataset_dir": "inf"}
        assert loaded["curves"][0] == [1.5, float("-inf")] and np.isnan(loaded["curves"][1][0])
        assert loaded["worst"] == "-inf" and loaded["names"] == ["a", "inf"]

    def test_matrix_csv_full_precision(self, tmp_path):
        M = np.random.default_rng(3).normal(size=(4, 5)) * 1e-13
        write_matrix_csv(tmp_path / "m.csv", M)
        assert np.array_equal(read_matrix_csv(tmp_path / "m.csv", 5), M)

    def test_matrix_csv_empty_file_raises(self, tmp_path):
        (tmp_path / "m.csv").write_text("")
        with pytest.raises(ValueError, match="empty matrix file"):
            read_matrix_csv(tmp_path / "m.csv", 5)


# ---------------------------------------------------------------------------
# Matrix CSVs against per-cell oracles: the csv-module writer and reader that
# write_matrix_csv and read_matrix_csv must reproduce byte for byte and value
# for value.


def oracle_write(path, matrix, header=None):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in np.asarray(matrix, dtype=float):
            writer.writerow([format_float(x) for x in row])


def oracle_read(path, expected_cols, what="matrix"):
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:  # a leading byte-order mark is no part of a cell
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError(f"{path}: empty {what} file")
    start = 0
    try:
        float(rows[0][0])
    except ValueError:
        start = 1
        if len(rows[0]) != expected_cols:
            raise ValueError(f"{path}: header row has {len(rows[0])} cells, expected {expected_cols} ({what})")
    data = []
    for idx, row in enumerate(rows[start:], start=start + 1):
        if len(row) != expected_cols:
            raise ValueError(f"{path}: row {idx} has {len(row)} columns, expected {expected_cols} ({what})")
        try:
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ValueError(f"{path}: row {idx} has a non-numeric cell: {exc}") from None
    if not data:
        raise ValueError(f"{path}: no data rows in {what} file")
    return np.asarray(data)


SPECIAL_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
                  1.0, -3.0, 12345678.0, 2.0**53, 0.1, 1 / 3]


def _special_values_in_second_half():
    # Five rows: the child formats and parses rows 4 and 5, which hold every special value.
    M = np.random.default_rng(11).normal(size=(5, len(SPECIAL_VALUES)))
    M[3:] = [SPECIAL_VALUES, [-x for x in SPECIAL_VALUES]]
    return M


# Matrices whose rows are split between this process and a forked child (none below two rows).
SPLIT_MATRICES = {
    "rows_1": np.random.default_rng(1).normal(size=(1, 4)),
    "rows_2": np.random.default_rng(2).normal(size=(2, 4)),
    "rows_3": np.random.default_rng(3).normal(size=(3, 4)) * 1e-200,
    "rows_7": np.random.default_rng(7).normal(size=(7, 1)),
    "special_values_in_second_half": _special_values_in_second_half(),
}


class TestMatrixCsvWriter:
    def assert_matches_oracle(self, tmp_path, matrix):
        write_matrix_csv(tmp_path / "new.csv", matrix)
        oracle_write(tmp_path / "old.csv", matrix)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("name", SPLIT_MATRICES)
    def test_split_rows_match_oracle(self, tmp_path, monkeypatch, name):
        # Python 3.12+ warns on a fork in a process with more than one OS thread, and clears the error that
        # "-W error" would make of it, so only a recorded warning shows it: there must be none.
        M = SPLIT_MATRICES[name]
        forks, real_fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.assert_matches_oracle(tmp_path, M)
            got = read_matrix_csv(tmp_path / "new.csv", M.shape[1])
        assert len(forks) == (1 if len(M) >= 2 else 0)  # the write's; a read never forks
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)], [str(w.message) for w in caught]
        expected = oracle_read(tmp_path / "old.csv", M.shape[1])
        assert got.shape == expected.shape == M.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", [0, 1])
    def test_no_fork_below_two_rows(self, tmp_path, monkeypatch, rows):
        def no_fork():
            raise AssertionError("forked for fewer than two rows")

        monkeypatch.setattr(os, "fork", no_fork)
        M = np.arange(3.0 * rows).reshape(rows, 3)
        self.assert_matches_oracle(tmp_path, M)
        if rows:
            assert read_matrix_csv(tmp_path / "new.csv", 3).tobytes() == M.tobytes()

    def test_failed_fork_leaves_every_row_here(self, tmp_path, monkeypatch):
        def no_process_ids():
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process_ids)
        M = SPLIT_MATRICES["special_values_in_second_half"]
        self.assert_matches_oracle(tmp_path, M)
        got, expected = read_matrix_csv(tmp_path / "new.csv", M.shape[1]), oracle_read(tmp_path / "old.csv", M.shape[1])
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_round_trips_while_a_thread_runs_svds(self, tmp_path, monkeypatch):
        # A fork while another thread is inside a multithreaded OpenBLAS call leaves that thread hung for good
        # (OpenBLAS's fork handler stops the BLAS threads under it), so a process running another thread
        # formats every row itself.  Warnings are errors: Python 3.12+ warns on a threaded fork.
        M = np.random.default_rng(21).normal(size=(480, 600))
        oracle_write(tmp_path / "oracle.csv", M)
        expected = (tmp_path / "oracle.csv").read_bytes()
        forks, real_fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        stop, svds_done = threading.Event(), []

        def svds():
            A = np.random.default_rng(22).normal(size=(80, 80))
            while not stop.is_set():
                np.linalg.svd(A)
                svds_done.append(1)

        thread = threading.Thread(target=svds, daemon=True)
        thread.start()
        try:
            for _ in range(5):
                before = len(svds_done)
                write_matrix_csv(tmp_path / "m.csv", M)
                assert (tmp_path / "m.csv").read_bytes() == expected
                assert read_matrix_csv(tmp_path / "m.csv", M.shape[1]).tobytes() == M.tobytes()
                deadline = time.monotonic() + 10
                while len(svds_done) == before and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert len(svds_done) > before, "the thread is stuck"
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert not forks
        write_matrix_csv(tmp_path / "m.csv", M)  # this thread alone: the rows split again
        assert forks and (tmp_path / "m.csv").read_bytes() == expected

    def test_buffered_stdout_appears_once(self, tmp_path):
        # Text waiting in this process's stdout buffer when the child is forked must not be flushed by the child too.
        script = (
            "import sys, numpy as np\n"
            "from topospinor.io import read_matrix_csv, write_matrix_csv\n"
            "sys.stdout.write('before the write;')\n"
            f"write_matrix_csv({str(tmp_path / 'm.csv')!r}, np.ones((6, 3)))\n"
            f"read_matrix_csv({str(tmp_path / 'm.csv')!r}, 3)\n"
        )
        src = str(Path(topospinor.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is then block-buffered
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        assert done.stdout == "before the write;"

    @pytest.mark.parametrize("how", ["raises", "killed"])
    def test_failed_child_fails_the_write(self, tmp_path, monkeypatch, how):
        # The child formats its half through ``open``; make that fail in any process but this one.
        parent, real_open = os.getpid(), builtins.open

        def open_here_only(*args, **kwargs):
            if os.getpid() != parent:
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise OSError("no open in the child")
            return real_open(*args, **kwargs)

        monkeypatch.setattr(builtins, "open", open_here_only)
        with pytest.raises(OSError, match=re.escape(f"{tmp_path / 'm.csv'}: the child process formatting rows 4 to 6")):
            write_matrix_csv(tmp_path / "m.csv", np.ones((6, 3)))

    def test_random_normals(self, tmp_path):
        rng = np.random.default_rng(5)
        self.assert_matches_oracle(tmp_path, rng.normal(size=(30, 17)) * 10.0 ** rng.integers(-300, 300, (30, 17)))

    def test_special_values(self, tmp_path):
        M = np.array(SPECIAL_VALUES * 2).reshape(2, -1)
        self.assert_matches_oracle(tmp_path, M)
        text = (tmp_path / "new.csv").read_text()
        assert text.startswith("0,-0,nan,inf,-inf,4.9406564584124654e-324,")

    def test_integer_valued_floats(self, tmp_path):
        self.assert_matches_oracle(tmp_path, np.arange(-6, 6).reshape(3, 4))

    def test_single_column(self, tmp_path):
        self.assert_matches_oracle(tmp_path, np.linspace(-1, 1, 7).reshape(7, 1))

    def test_zero_rows(self, tmp_path):
        self.assert_matches_oracle(tmp_path, np.empty((0, 4)))
        assert (tmp_path / "new.csv").read_bytes() == b""

    def test_header_needing_quotes(self, tmp_path):
        # The writer writes no header; one quoted by csv rules is skipped on reading.
        header = ("plain", "with,comma", 'with "quote"', " padded ")
        oracle_write(tmp_path / "new.csv", np.ones((2, 4)), header)
        first = (tmp_path / "new.csv").read_bytes().split(b"\r\n")[0]
        assert first == b'plain,"with,comma","with ""quote""", padded '
        assert np.array_equal(read_matrix_csv(tmp_path / "new.csv", 4), np.ones((2, 4)))

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4)])
    def test_non_2d_input_rejected(self, tmp_path, shape):
        with pytest.raises(ValueError, match=rf"shape {re.escape(str(shape))}"):
            write_matrix_csv(tmp_path / "m.csv", np.zeros(shape))
        assert not (tmp_path / "m.csv").exists()

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6))))
    def test_exact_round_trip(self, tmp_path_factory, M):
        path = tmp_path_factory.mktemp("rt") / "m.csv"
        write_matrix_csv(path, M)
        oracle_write(path.with_name("old.csv"), M)
        assert path.read_bytes() == path.with_name("old.csv").read_bytes()
        loaded = read_matrix_csv(path, M.shape[1])
        assert loaded.shape == M.shape
        assert np.array_equal(loaded, M, equal_nan=True)
        # -0.0 keeps its sign; a nan is written as plain "nan", whatever its sign.
        not_nan = ~np.isnan(M)
        assert np.array_equal(np.signbit(loaded[not_nan]), np.signbit(M[not_nan]))


# Files the reader must read exactly as the oracle does: (text, expected columns).
READER_CASES = {
    "lf": ("1,2,3\n4,5,6\n", 3),
    "crlf": ("1,2,3\r\n4,5,6\r\n", 3),
    "cr": ("1,2,3\r4,5,6\r", 3),
    "blank_rows": ("\n1,2,3\n\n   \n4,5,6\n\n", 3),
    "all_comma_rows": (",,\n1,2,3\n , ,\t\n4,5,6\n,,\n", 3),
    "header": ("a,b,c\n1,2,3\n", 3),
    "header_after_blank_rows": ("\n,,\nx, y ,z\r\n1,2,3\r\n", 3),
    "quoted_header": ('"a,1",b,"c ""q"""\n1,2,3\n', 3),
    "quoted_numeric_cells": ('"1.5",2,"-3e-7"\n"4",\"5\",6\n', 3),
    "whitespace_padded": (" 1 ,\t2,3  \n4,  5e3,6\t\n", 3),
    "no_final_newline": ("1,2,3\n4,5,6", 3),
    "single_column": ("1\n2\n\n3\n", 1),
    "single_row": ("1,2,3\n", 3),
    "non_finite": ("nan,inf,-inf\nNaN,Infinity,-0\n", 3),
    "extremes": ("5e-324,1e308,-1.7976931348623157e308\n0.1,1e-400,1e400\n", 3),
    "bom_before_data_row": ("\ufeff1.5,2.5\r\n3.5,4.5\r\n", 2),
    "bom_before_header": ("\ufeffa,b,c\n1,2,3\n", 3),
}

# Files both must reject with the same message: (text, expected columns, row named).
REJECTED_CASES = {
    "empty": ("", 3, None),
    "only_blank_rows": ("\n ,, \n\r\n", 3, None),
    "header_only": ("a,b,c\n\n", 3, None),
    "ragged_short": ("1,2,3\n4,5\n", 3, 2),
    "ragged_long_after_header": ("a,b,c\n1,2,3\n\n4,5,6,7\n", 3, 3),
    "trailing_comma": ("1,2,3,\n", 3, 1),
    "non_numeric": ("1,2,3\n4,x,6\n", 3, 2),
    "non_numeric_after_header": ("a,b,c\n\n1,2,3\n4,5,six\n", 3, 3),
    "blank_cell": ("1,,3\n", 3, 1),
    "space_cell": ("1, ,3\n", 3, 1),
    "quoted_comma_cell": ('1,"2,5",3\n', 3, 1),
    "non_numeric_before_ragged": ("1,2,3\n4,x,6\n7,8\n", 3, 2),
    "ragged_before_non_numeric": ("1,2,3\n4,5\n7,x,9\n", 3, 2),
    "non_numeric_last_row": ("1,2,3\n" * 5 + "4,5,?\n", 3, 6),
    "non_numeric_in_second_half": ("1,2,3\n" * 3 + "4,x,6\n7,8,9\n7,y,9\n", 3, 4),
    "non_numeric_in_second_half_before_ragged": ("1,2,3\n" * 3 + "4,5,x\n7,8\n", 3, 4),
    "wrong_width_file": ("1,2,3\n4,5,6\n", 2, 1),
    "header_too_narrow": ("a,b\n1,2,3\n", 3, None),
    "header_too_wide_after_blank_rows": ("\n,,\na,b,c,d\n1,2,3\n", 3, None),
}


class TestMatrixCsvReader:
    @pytest.mark.parametrize("name", READER_CASES)
    def test_same_result_as_oracle(self, tmp_path, name):
        text, cols = READER_CASES[name]
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        expected = oracle_read(path, cols)
        got = read_matrix_csv(path, cols)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize("name", ["header", "quoted_header", "header_after_blank_rows", "bom_before_header"])
    def test_header_row_is_skipped(self, tmp_path, name):
        text, cols = READER_CASES[name]
        (tmp_path / "m.csv").write_bytes(text.encode())
        assert np.array_equal(read_matrix_csv(tmp_path / "m.csv", cols), [[1.0, 2.0, 3.0]])

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        # Read as a cell, "\ufeff1.5" is no number, and the row would pass for a header of the right width.
        text, cols = READER_CASES["bom_before_data_row"]
        (tmp_path / "m.csv").write_bytes(text.encode())
        assert np.array_equal(read_matrix_csv(tmp_path / "m.csv", cols), [[1.5, 2.5], [3.5, 4.5]])

    @pytest.mark.parametrize("name", REJECTED_CASES)
    def test_same_error_as_oracle(self, tmp_path, name):
        text, cols, row = REJECTED_CASES[name]
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as expected:
            oracle_read(path, cols, "edge series")
        with pytest.raises(ValueError) as got:
            read_matrix_csv(path, cols, "edge series")
        assert str(got.value) == str(expected.value)
        if row is not None:
            assert f"row {row} " in str(got.value)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("1,2\n1_000,2\n", id="two_rows"),
            pytest.param("a,b\n" + "1,2\n" * 4 + "3,1_000\n4,5\n", id="second_half_after_header"),
        ],
    )
    def test_python_only_number_spelling_rejected(self, tmp_path, text):
        # float("1_000") is 1000.0, but numpy's parser, which reads the body, rejects it; the
        # message is the one a parse of all data rows gives, even past the first half of them.
        (tmp_path / "m.csv").write_text(text)
        data_rows = [line for line in text.splitlines(keepends=True) if not line.startswith("a")]
        with pytest.raises(ValueError) as one_parse:
            np.loadtxt(data_rows, delimiter=",", quotechar='"', comments=None, ndmin=2)
        with pytest.raises(ValueError, match="1_000") as got:
            read_matrix_csv(tmp_path / "m.csv", 2)
        assert str(got.value) == f"{tmp_path / 'm.csv'}: {one_parse.value}"

    @pytest.mark.parametrize("name", [*READER_CASES, *REJECTED_CASES, "quoted_blank_rows", "wide_with_header_cr_ends"])
    def test_reads_in_this_process_alone(self, tmp_path, monkeypatch, name):
        def no_fork():
            raise AssertionError("a read forked")

        if name == "wide_with_header_cr_ends":  # 600 x 320, a ",," row ahead of every 50th
            lines = [",".join(f"e{j}" for j in range(320))]
            for i, row in enumerate(np.random.default_rng(600).normal(size=(600, 320))):
                lines.extend([",,"] * (i % 50 == 0) + [",".join(format_float(x) for x in row)])
            text, cols = "\r".join(lines) + "\r", 320
        else:
            text, cols = {
                **READER_CASES,
                **{key: case[:2] for key, case in REJECTED_CASES.items()},
                "quoted_blank_rows": ('1,2,3\n"",""," "\n"",\n4,5,6\n', 3),  # blank only as csv cells
            }[name]
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        monkeypatch.setattr(os, "fork", no_fork)

        def outcome(read):
            try:
                return read(path, cols, "edge series")
            except ValueError as exc:
                return str(exc)

        expected, got = outcome(oracle_read), outcome(read_matrix_csv)
        if isinstance(expected, str) or isinstance(got, str):
            assert got == expected
        else:
            assert got.dtype == np.float64 and got.shape == expected.shape
            assert np.array_equal(got, expected, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_round_trip_with_header(self, tmp_path):
        M = np.random.default_rng(8).normal(size=(9, 4))
        oracle_write(tmp_path / "m.csv", M, ("n0", "n1", "n2", "n3"))
        got = read_matrix_csv(tmp_path / "m.csv", 4)
        assert np.array_equal(got, M) and np.array_equal(oracle_read(tmp_path / "m.csv", 4), M)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.text(alphabet='0123456789.,"e- \tx+', max_size=12), st.sampled_from(["\n", "\r\n", "\r"])),
                 max_size=5),
        st.integers(1, 3),
        st.booleans(),
    )
    def test_random_files_match_oracle(self, tmp_path_factory, rows, cols, final_newline):
        text = "".join(row + end for row, end in rows)
        if rows and not final_newline:
            text = text[: -len(rows[-1][1])]
        lines = text.splitlines(keepends=True)
        # A quoted cell spanning rows is outside the dialect.
        assume(list(csv.reader(lines)) == [next(csv.reader([line]), []) for line in lines])
        path = tmp_path_factory.mktemp("random") / "m.csv"
        path.write_bytes(text.encode())

        def outcome(read):
            try:
                M = read(path, cols)
            except ValueError as exc:
                return str(exc)
            return M.shape, M.tobytes()

        expected, got = outcome(oracle_read), outcome(read_matrix_csv)
        if isinstance(expected, str) or isinstance(got, str):
            assert got == expected
        else:
            assert got[0] == expected[0]
            assert np.array_equal(np.frombuffer(got[1]), np.frombuffer(expected[1]), equal_nan=True)
