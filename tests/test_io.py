import numpy as np
import pytest
from numpy.testing import assert_allclose

from topospinor.io import (
    EdgeListParseError,
    ResultTable,
    TimeSeriesDataset,
    load_edge_list,
    load_results,
    load_time_series,
    save_edge_list,
    save_results,
    save_time_series,
    write_matrix_csv,
)
from topospinor.synth import random_graph
from topospinor.topology import OrientedGraph


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
        rng = np.random.default_rng(0)
        node = rng.normal(size=(steps, graph.num_nodes))
        edge = rng.normal(size=(steps, graph.num_edges))
        labels_n = tuple(f"n{i}" for i in range(graph.num_nodes)) if header else None
        labels_e = tuple(f"e{i}" for i in range(graph.num_edges)) if header else None
        ds = TimeSeriesDataset(graph, node, edge, labels_n, labels_e)
        save_time_series(ds, tmp_path / "node.csv", tmp_path / "edge.csv")
        return ds

    def test_load_wdn_shape(self, tmp_path):
        g = random_graph(22, 41, 7)
        ds = self.make_files(tmp_path, g, steps=240)
        loaded = load_time_series(g, tmp_path / "node.csv", tmp_path / "edge.csv")
        assert loaded.num_steps == 240
        assert_allclose(loaded.node_series, ds.node_series)
        assert_allclose(loaded.edge_series, ds.edge_series)

    def test_header_detected(self, tmp_path):
        g = random_graph(5, 7, 1)
        self.make_files(tmp_path, g, steps=12, header=True)
        loaded = load_time_series(g, tmp_path / "node.csv", tmp_path / "edge.csv")
        assert loaded.num_steps == 12
        assert loaded.node_labels == tuple(f"n{i}" for i in range(5))

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
        with pytest.raises(ValueError, match="steps"):
            load_time_series(g, tmp_path / "node.csv", tmp_path / "edge.csv")

    def test_spinor_matrix_stacking(self, tmp_path):
        g = OrientedGraph(3, ((0, 1), (1, 2)))
        ds = TimeSeriesDataset(g, np.arange(6).reshape(2, 3), np.arange(4).reshape(2, 2))
        S = ds.spinor_matrix()
        assert S.shape == (5, 2)
        assert_allclose(S[:3, 0], [0, 1, 2])  # node block first
        assert_allclose(S[3:, 0], [0, 1])


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

    def test_matrix_csv_full_precision(self, tmp_path):
        from topospinor.io import read_matrix_csv

        M = np.random.default_rng(3).normal(size=(4, 5)) * 1e-13
        write_matrix_csv(tmp_path / "m.csv", M)
        assert np.array_equal(read_matrix_csv(tmp_path / "m.csv", 5)[0], M)

    def test_matrix_csv_empty_file_raises(self, tmp_path):
        from topospinor.io import read_matrix_csv

        (tmp_path / "m.csv").write_text("")
        with pytest.raises(ValueError, match="empty matrix file"):
            read_matrix_csv(tmp_path / "m.csv", 5)
