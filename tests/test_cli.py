import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import topospinor
from topospinor import experiments
from topospinor.cli import COMMANDS, _build_config, build_parser, main
from topospinor.experiments import sub_seed
from topospinor.io import load_dataset, load_edge_list, load_results, read_matrix_csv, save_dataset
from topospinor.sparse import nmse
from topospinor.synth import SIGNAL_CLASSES
from topospinor.topology import OrientedGraph, build_incidence, spectral_decompose
from topospinor.transform import build_mass_basis, unnormalized_basis_matrix

SQRT3 = np.sqrt(3.0)

# Learner options deleted from every pipeline: former config field -> (CLI flag, a value).
REMOVED_LEARNER_OPTIONS = {
    "omega_update_mode": ("--omega-update-mode", "diagonal"),
    "c1": ("--c1", 0.5),
    "c2": ("--c2", 0.5),
    "rho1": ("--rho1", 1.0),
    "rho2": ("--rho2", 1.0),
    "primal_tol": ("--primal-tol", 1e-6),
    "init_mode": ("--init-mode", "laplacian"),
    # The ADMM budget of the two studies, which learn in closed form; ddtl-fit's budget is --max-iter.
    "ddtl_max_iter": ("--ddtl-max-iter", 150),
}
# omega_update_mode, removed first, keeps the bare command as its id.
REMOVED_LEARNER_CASES = [
    pytest.param(command, key, id=command if key == "omega_update_mode" else f"{command}-{key}")
    for key in REMOVED_LEARNER_OPTIONS
    for command in ("ddtl-fit", "sparsity-sweep", "denoise")
]
# Signal-generator options deleted from every pipeline that generates data.
REMOVED_DATA_OPTIONS = {
    "coeff_std": ("--coeff-std", 2.0),
    "coupled_fraction": ("--coupled-fraction", 0.25),
    "cauchy_scale": ("--cauchy-scale", 1.0),
    "noise_std": ("--noise-std", 0.1),
}
REMOVED_DATA_CASES = [
    pytest.param(command, key, id=f"{command}-{key}")
    for key in REMOVED_DATA_OPTIONS
    for command in ("synth", "sparsity-sweep", "denoise")
]
# The three-path data input, deleted in favour of one dataset directory (--dataset).
REMOVED_INPUT_OPTIONS = {
    "graph_path": ("--graph", "graph.txt"),
    "node_csv": ("--node-csv", "node_series.csv"),
    "edge_csv": ("--edge-csv", "edge_series.csv"),
}
REMOVED_INPUT_CASES = [
    pytest.param(command, key, id=f"{command}-{key}")
    for key in REMOVED_INPUT_OPTIONS
    for command in ("ddtl-fit", "denoise")
]
REMOVED_OPTIONS = {**REMOVED_LEARNER_OPTIONS, **REMOVED_DATA_OPTIONS, **REMOVED_INPUT_OPTIONS}
REMOVED_CASES = REMOVED_LEARNER_CASES + REMOVED_DATA_CASES + REMOVED_INPUT_CASES
FIELD_CASES = [
    pytest.param(command, f.name, id=f"{command}-{f.name}")
    for command, (cls, _, _) in COMMANDS.items()
    for f in dataclasses.fields(cls)
]
# A flag value that does not parse, by the field's annotation; a field with choices takes a name outside them.
BAD_FLAG_VALUES = {"int": "1.5", "tuple[int, ...]": "5,1.5", "tuple[float, ...]": "0,ten", "choices": "dirac"}
BAD_VALUE_CASES = [
    pytest.param(command, f.name, BAD_FLAG_VALUES["choices" if "choices" in f.metadata else f.type],
                 id=f"{command}-{f.name}")
    for command, (cls, _, _) in COMMANDS.items()
    for f in dataclasses.fields(cls)
    if "choices" in f.metadata or f.type in BAD_FLAG_VALUES
]


def _subparser(command):
    """The parser and the subcommand's parser, whose actions map each field (dest) to its flag."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return parser, commands.choices[command]


def write_p3(tmp_path):
    f = tmp_path / "p3.txt"
    f.write_text("3\n0 1\n1 2\n")
    return f


def _files(root):
    """Every file under ``root``: relative path -> bytes."""
    return {f.relative_to(root).as_posix(): f.read_bytes() for f in root.rglob("*") if f.is_file()}


def write_triangle(tmp_path):
    f = tmp_path / "tri.txt"
    f.write_text("3\n0 1\n1 2\n2 0\n")
    return f


class TestSubSeed:
    def test_deterministic(self):
        assert sub_seed(7, 3, "graph") == sub_seed(7, 3, "graph")

    def test_distinguishes_stages_and_realizations(self):
        seeds = {sub_seed(7, r, tag) for r in range(3) for tag in ("graph", "signals")}
        assert len(seeds) == 6


class TestSpectraCommand:
    def test_path_graph_output(self, tmp_path):
        graph = write_p3(tmp_path)
        out = tmp_path / "out"
        assert main(["spectra", "--graph", str(graph), "--out", str(out)]) == 0
        meta, tables = load_results(out)
        assert meta["sigma"] == pytest.approx([SQRT3, 1.0], abs=1e-12)
        assert meta["xi0"] == 1 and meta["xi1"] == 0
        assert all(v < 1e-10 for v in meta["residuals"].values())
        sigmas = [row[1] for row in tables["spectrum"].rows]
        assert sigmas == pytest.approx([SQRT3, 1.0], abs=1e-12)

    def test_triangle_cycle_count(self, tmp_path):
        graph = write_triangle(tmp_path)
        out = tmp_path / "out"
        assert main(["spectra", "--graph", str(graph), "--out", str(out)]) == 0
        meta, _ = load_results(out)
        assert meta["xi1"] == 1

    def test_graph_without_edges(self, tmp_path):
        # Three isolated nodes: B is 3 x 0 and U_H the identity, so every residual is of an empty array or exactly 0.
        graph = tmp_path / "nodes.txt"
        graph.write_text("3\n")
        out = tmp_path / "out"
        assert main(["spectra", "--graph", str(graph), "--out", str(out)]) == 0
        meta, tables = load_results(out)
        assert meta["rank"] == 0 and meta["xi0"] == 3 and meta["xi1"] == 0
        assert meta["sigma"] == [] and tables["spectrum"].rows == ()
        assert len(meta["residuals"]) == 5
        assert all(v == 0.0 for v in meta["residuals"].values())

    def test_random_graph_spectra(self, tmp_path):
        out = tmp_path / "out"
        code = main(["spectra", "--num-nodes", "8", "--num-edges", "12", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        meta, _ = load_results(out)
        assert meta["graph"] == {"num_nodes": 8, "num_edges": 12}


class TestSynthCommand:
    @pytest.mark.parametrize("signal_class", SIGNAL_CLASSES)
    def test_run_json_support_columns_synthesize_the_batch(self, tmp_path, signal_class):
        # run.json places the drawn support among the coupling basis's columns, [minus | harmonic | plus]: those
        # columns at the recorded couplings times coefficients.csv give the batch back.
        out = tmp_path / "data"
        assert main(["synth", "--num-nodes", "8", "--num-edges", "12", "--signal-class", signal_class, "--eta0", "6",
                     "--num-signals", "5", "--seed", "4", "--out", str(out)]) == 0
        graph, S = load_dataset(out)
        truth = json.loads((out / "run.json").read_text())["truth"]
        d = spectral_decompose(build_incidence(graph))
        support, columns = np.array(truth["support"]), np.array(truth["support_columns"])
        assert truth["signal_class"] == signal_class
        assert np.array_equal(columns[support < d.rank], support[support < d.rank])
        assert np.array_equal(columns[support >= d.rank], support[support >= d.rank] + d.dim - 2 * d.rank)
        basis = build_mass_basis(d, np.array(truth["k_modes"]), np.array(truth["k_modes"]))
        assert_allclose(S, basis[:, columns] @ read_matrix_csv(out / "coefficients.csv", 5), rtol=0, atol=1e-12)

    def test_dataset_files(self, tmp_path):
        out = tmp_path / "data"
        code = main([
            "synth", "--num-nodes", "8", "--num-edges", "12", "--signal-class", "mixture_of_dirac",
            "--eta0", "5", "--num-signals", "20", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        graph, S = load_dataset(out)
        assert S.shape == (graph.num_nodes + graph.num_edges, 20)
        truth = json.loads((out / "run.json").read_text())["truth"]
        assert len(truth["support"]) == 5

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["synth", "--num-nodes", "6", "--num-edges", "9", "--eta0", "4",
                "--num-signals", "8", "--seed", "9"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("graph.txt", "node_series.csv", "edge_series.csv", "coefficients.csv", "run.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_every_output_of_synth_and_fit_byte_identical(self, tmp_path, monkeypatch):
        # Relative paths, so the dataset path that ddtl-fit records in run.json is the same in both runs.
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            assert main(["synth", "--num-nodes", "7", "--num-edges", "10", "--eta0", "4", "--num-signals", "9",
                         "--seed", "9", "--out", "data"]) == 0
            assert main(["ddtl-fit", "--dataset", "data", "--eta0", "4", "--max-iter", "12", "--seed", "9",
                         "--out", "fit"]) == 0
        written = {run: _files(tmp_path / run) for run in ("a", "b")}
        assert set(written["a"]) == {
            "data/graph.txt", "data/node_series.csv", "data/edge_series.csv", "data/coefficients.csv",
            "data/run.json",
            "fit/graph.txt", "fit/omega_star.csv", "fit/history.csv", "fit/run.json",
        }
        assert written["a"] == written["b"]


class TestFitCommand:
    def test_fit_and_recompute_round_trip(self, tmp_path):
        data = tmp_path / "data"
        main(["synth", "--num-nodes", "8", "--num-edges", "12", "--eta0", "5",
              "--num-signals", "15", "--signal-class", "mixture_of_dirac",
              "--seed", "2", "--out", str(data)])
        out = tmp_path / "fit"
        code = main(["ddtl-fit", "--dataset", str(data), "--eta0", "5",
                     "--max-iter", "20", "--out", str(out)])
        assert code == 0

        meta = json.loads((out / "run.json").read_text())
        graph = load_edge_list(out / "graph.txt")
        d = spectral_decompose(build_incidence(graph))
        k_star = np.asarray(meta["k_star"])
        assert k_star.shape == (2 * d.rank,)

        # Recompute the reconstruction from the saved pieces: the recorded NMSE is the fit's objective over ||S||^2.
        _, S = load_dataset(data)
        omega = read_matrix_csv(out / "omega_star.csv", S.shape[1])
        psi = unnormalized_basis_matrix(d, k_star[: d.rank], k_star[d.rank:])
        assert meta["reconstruction_nmse"] == pytest.approx(nmse(S, psi @ omega), rel=1e-12, abs=0)

    def test_written_codes_have_at_most_eta0_nonzero_rows_and_plain_zeros_elsewhere(self, tmp_path):
        # At the round trip's size: omega_star.csv holds the row-sparse codes, and a dropped row is all "0", never
        # "-0"; run.json's kept_rows counts the rest.
        data, out = tmp_path / "data", tmp_path / "fit"
        main(["synth", "--num-nodes", "8", "--num-edges", "12", "--eta0", "5", "--num-signals", "15",
              "--signal-class", "mixture_of_dirac", "--seed", "2", "--out", str(data)])
        assert main(["ddtl-fit", "--dataset", str(data), "--eta0", "5", "--max-iter", "20", "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "omega_star.csv").read_text().splitlines()]
        assert len(rows) == 20 and {len(row) for row in rows} == {15}
        nonzero = [row for row in rows if row != ["0"] * 15]
        assert 0 < len(nonzero) <= 5
        assert json.loads((out / "run.json").read_text())["kept_rows"] == len(nonzero)

    def test_requires_input(self, tmp_path, capsys):
        code = main(["ddtl-fit", "--eta0", "4", "--out", str(tmp_path / "fit")])
        assert code != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"


class TestSweepCommand:
    def test_small_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sparsity-sweep", "--num-nodes", "8", "--num-edges", "12", "--eta0", "5",
            "--num-signals", "12", "--realizations", "2", "--sparsity-grid", "2,5",
            "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        _, tables = load_results(out)
        rows = tables["results"].rows
        methods = {row[0] for row in rows}
        assert methods == {"laplacian", "dirac", "frame", "ddtl"}
        assert len(rows) == 4 * 2 * 2  # methods x levels x realizations
        per_pair = [row for row in rows if row[0] == "dirac" and row[1] == 5]
        assert len(per_pair) == 2

    @pytest.mark.parametrize("grid", ["0,3", "3,30"])
    def test_grid_outside_one_to_v_plus_e_is_refused_before_any_fit(self, tmp_path, capsys, monkeypatch, grid):
        def no_fit(*args, **kwargs):
            raise AssertionError("the learner ran before the grid was checked")

        monkeypatch.setattr(experiments, "fit_coupling", no_fit)
        out = tmp_path / "sweep"
        code = main(["sparsity-sweep", "--num-nodes", "8", "--num-edges", "12", "--sparsity-grid", grid,
                     "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and "[1, V + E = 20]" in err["message"]
        assert not out.exists()


class TestDenoiseCommand:
    def test_small_denoise_run(self, tmp_path):
        out = tmp_path / "denoise"
        code = main([
            "denoise", "--num-nodes", "8", "--num-edges", "12", "--num-signals", "20",
            "--gen-eta0", "6", "--snr-grid", "0,10", "--bandwidth-grid", "4,8",
            "--realizations", "2", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        _, tables = load_results(out)
        rows = tables["results"].rows
        assert tables["results"].columns == ("method", "snr_db", "bandwidth", "realization", "nmse")
        noisy = [r for r in rows if r[0] == "noisy_input"]
        ddtl = [r for r in rows if r[0] == "ddtl"]
        assert len(noisy) == 2 * 2  # snr x realizations
        assert len(ddtl) == 2 * 2 * 2  # snr x bandwidths x realizations
        assert {r[0] for r in rows} == {"noisy_input", "ddtl", "dirac_truncation", "laplacian_truncation"}

    def test_errors_are_machine_readable(self, tmp_path, capsys):
        code = main(["denoise", "--snr-grid", "", "--out", str(tmp_path / "x")])
        assert code != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert set(err) == {"error", "message"}

    def test_snr_levels_that_share_a_noise_seed_are_rejected(self, tmp_path, capsys):
        # The noise sub-seed is tagged with the SNR printed by %g, so 10 and
        # 10.0000001 would draw the same noise.
        assert sub_seed(0, 0, "awgn@10") == sub_seed(0, 0, f"awgn@{10.0000001:g}")
        code = main(["denoise", "--snr-grid", "0,10,10.0000001", "--out", str(tmp_path / "x")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and "noise" in err["message"]
        assert not (tmp_path / "x").exists()

    def test_snr_levels_equal_as_floats_are_refused(self, tmp_path, capsys):
        # 0 and -0 print apart, so they would not share a noise tag, yet they are one SNR.
        out = tmp_path / "x"
        assert main(["denoise", "--snr-grid=0,-0", "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError" and "snr_grid" in err["message"]
        assert not out.exists()

    def test_run_json_with_the_noiseless_level_is_strict_json(self, tmp_path):
        # inf, the noiseless level, is written as the string "inf", as results.csv spells it; no bare Infinity.
        # Run through the module entry point in its own process, as a user runs it.
        out = tmp_path / "denoise"
        src = str(Path(topospinor.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "topospinor.cli", "denoise", "--num-nodes", "6", "--num-edges", "9",
             "--num-signals", "12", "--gen-eta0", "4", "--snr-grid", "0,inf", "--bandwidth-grid", "2,5",
             "--realizations", "1", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, f"{out}\n", "")

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        meta = json.loads((out / "run.json").read_text(), parse_constant=refuse)
        assert meta["config"]["snr_grid"] == [0.0, "inf"]
        # load_results reads the level back as a float, in run.json as in results.csv.
        loaded, tables = load_results(out)
        assert loaded["config"]["snr_grid"] == [0.0, float("inf")]
        assert {row[1] for row in tables["results"].rows} == {0.0, float("inf")}
        # The stored config, written as flags ("inf" and all: --snr-grid 0.0,inf), writes the same run.
        argv = ["denoise", "--out", str(tmp_path / "again")]
        for name, value in meta["config"].items():
            if value is not None:
                text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
                argv += ["--" + name.replace("_", "-"), text]
        assert "0.0,inf" in argv
        assert main(argv) == 0
        assert _files(tmp_path / "again") == _files(out)

    @pytest.mark.parametrize("grid", ["nan", "0,nan", "-inf", "10,-inf"])
    def test_nan_and_minus_inf_snr_levels_are_refused(self, tmp_path, capsys, grid):
        # nan would make every NMSE nan, and -inf would divide by zero in add_awgn; +inf (noiseless) runs.
        out = tmp_path / "x"
        assert main(["denoise", f"--snr-grid={grid}", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and "snr_grid" in err["message"] and "nan or -inf" in err["message"]
        assert not out.exists()

    def test_inf_snr_level_is_the_noiseless_case(self, tmp_path):
        out = tmp_path / "x"
        assert main(["denoise", "--num-nodes", "6", "--num-edges", "8", "--num-signals", "8", "--gen-eta0", "4",
                     "--snr-grid", "inf", "--bandwidth-grid", "4", "--realizations", "1", "--out", str(out)]) == 0
        _, tables = load_results(out)
        assert [row[-1] for row in tables["results"].rows if row[0] == "noisy_input"] == [0.0]

    @pytest.mark.parametrize("source, grid", [("surrogate", "0,3"), ("surrogate", "3,15"), ("dataset", "3,15")])
    def test_bandwidths_outside_one_to_v_plus_e_are_refused_before_any_draw(
        self, tmp_path, capsys, monkeypatch, source, grid
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("signals were drawn or fitted before the bandwidths were checked")

        clean = ["--num-nodes", "6", "--num-edges", "8"]
        if source == "dataset":
            data = tmp_path / "data"
            assert main(["synth", *clean, "--eta0", "4", "--num-signals", "8", "--out", str(data)]) == 0
            clean = ["--dataset", str(data)]
        capsys.readouterr()
        for name in ("fit_coupling", "gen_signals", "add_awgn"):
            monkeypatch.setattr(experiments, name, no_draw)
        out = tmp_path / "denoise"
        assert main(["denoise", *clean, "--bandwidth-grid", grid, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert "bandwidth_grid" in err["message"] and "[1, V + E = 14]" in err["message"]
        assert not out.exists()

    def test_measured_data_run(self, tmp_path):
        data = tmp_path / "data"
        main(["synth", "--num-nodes", "8", "--num-edges", "12", "--eta0", "5",
              "--num-signals", "20", "--seed", "3", "--out", str(data)])
        out = tmp_path / "denoise"
        code = main([
            "denoise", "--dataset", str(data), "--snr-grid", "10", "--bandwidth-grid", "4",
            "--realizations", "1", "--out", str(out),
        ])
        assert code == 0
        meta, tables = load_results(out)
        assert meta["graph"] == {"num_nodes": 8, "num_edges": 12}
        assert len(tables["results"].rows) == 4  # noisy input + three methods at one bandwidth


class TestFailureModes:
    def test_missing_out(self, capsys):
        assert main(["spectra"]) != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert "output directory" in err["message"]

    @pytest.mark.parametrize("where", [["--out", ""], ["--out="]], ids=["separate", "joined"])
    def test_empty_out_is_refused_before_anything_is_written(self, tmp_path, monkeypatch, capsys, where):
        # "" would name the working directory: run.json, spectrum.csv and graph.txt would land there.
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["spectra", "--num-nodes", "5", "--num-edges", "6", *where]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        assert json.loads(lines[0]) == {"error": "ValueError", "message": "an output directory is required (--out)"}
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_config_file_is_a_usage_error(self, tmp_path, capsys, command):
        # A run is set by its flags alone: --config is an unknown flag, refused before anything is read or written.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: topospinor ") and "error: unrecognized arguments: --config" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectra", "synth", "denoise", "sparsity-sweep"])
    @pytest.mark.parametrize("num_nodes, num_edges", [(-3, 5), (-1, 0), (0, 1)])
    def test_node_count_below_one_is_refused_by_name(self, tmp_path, capsys, command, num_nodes, num_edges):
        # (-3, 5) and (-1, 0) pass the edge bounds V - 1 <= E <= V(V - 1)/2 and would reach numpy as a negative
        # dimension; (0, 1) fails them, with bounds -1 and 0 that name no graph.  The sweep's levels fit in V + E.
        out = tmp_path / "out"
        levels = ["--eta0", "1", "--sparsity-grid", "1"] if command == "sparsity-sweep" else []
        assert main([command, f"--num-nodes={num_nodes}", "--num-edges", str(num_edges), *levels,
                     "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError", "message": f"num_nodes must be positive, got {num_nodes}"}
        assert not out.exists()

    @pytest.mark.parametrize("num_edges", [3, 11])
    @pytest.mark.parametrize("signal_class", SIGNAL_CLASSES)
    def test_infeasible_edge_count_is_refused_on_every_sweep_class(self, tmp_path, capsys, signal_class, num_edges):
        # Three classes never draw the graph, so the sweep's config refuses a size that random_graph would.
        out = tmp_path / "out"
        assert main(["sparsity-sweep", "--signal-class", signal_class, "--num-nodes", "5", "--num-edges",
                     str(num_edges), "--eta0", "1", "--sparsity-grid", "1", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        message = f"edge count {num_edges} infeasible for a connected simple graph on 5 nodes (needs 4 <= E <= 10)"
        assert err == {"error": "ValueError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("command, args", [
        ("spectra", []),
        ("synth", ["--eta0", "2", "--num-signals", "3"]),
        ("synth-graph", ["--eta0", "2", "--num-signals", "3"]),  # the "signals" sub-seed alone
        ("sparsity-sweep", ["--signal-class", "fully_coupled", "--eta0", "2", "--sparsity-grid", "2"]),
        ("sparsity-sweep", ["--signal-class", "mixture_of_dirac", "--eta0", "2", "--sparsity-grid", "2"]),
        ("denoise", ["--num-signals", "3", "--gen-eta0", "2", "--bandwidth-grid", "2"]),
        ("denoise-dataset", ["--bandwidth-grid", "2"]),
    ], ids=["spectra", "synth", "synth-graph", "sweep-fully_coupled", "sweep-mixture_of_dirac", "denoise",
            "denoise-dataset"])
    def test_negative_seed_is_refused_by_name_before_anything_is_written(self, tmp_path, capsys, command, args):
        # A master seed becomes RNG state in sub_seed, which refuses a negative one by name; numpy's own refusal,
        # "expected non-negative integer", names no flag.
        size = ["--num-nodes", "5", "--num-edges", "6"]
        if command == "synth-graph":
            command, size = "synth", ["--graph", str(write_triangle(tmp_path))]
        elif command == "denoise-dataset":
            data = save_dataset(tmp_path / "data", OrientedGraph(3, ((0, 1), (1, 2))), np.ones((5, 4)))
            command, size = "denoise", ["--dataset", str(data)]
        out = tmp_path / "out"
        assert main([command, *size, *args, "--seed=-1", "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError", "message": "seed must be a non-negative integer, got -1"}
        assert not out.exists()

    def test_negative_seed_is_recorded_by_the_commands_that_draw_nothing(self, tmp_path):
        # spectra on a graph file and ddtl-fit draw no random numbers, so they derive no sub-seed: --seed is recorded.
        data = save_dataset(tmp_path / "data", OrientedGraph(3, ((0, 1), (1, 2))), np.ones((5, 4)))
        for command, args in (("spectra", ["--graph", str(write_p3(tmp_path))]),
                              ("ddtl-fit", ["--dataset", str(data), "--eta0", "2", "--max-iter", "3"])):
            out = tmp_path / command
            assert main([command, *args, "--seed=-1", "--out", str(out)]) == 0
            assert load_results(out)[0]["config"]["seed"] == -1

    @pytest.mark.parametrize("num_nodes", [3, 1])
    def test_edgeless_graph_file(self, tmp_path, capsys, num_nodes):
        # r = 0: spectra writes an empty spectrum with every node harmonic, and synth has no column to draw.
        graph = tmp_path / "graph.txt"
        graph.write_text(f"{num_nodes}\n")
        out = tmp_path / "spectra"
        assert main(["spectra", "--graph", str(graph), "--out", str(out)]) == 0
        meta, tables = load_results(out)
        assert (meta["rank"], meta["xi0"], meta["xi1"], meta["sigma"]) == (0, num_nodes, 0, [])
        assert tables["spectrum"].rows == ()
        capsys.readouterr()
        out = tmp_path / "synth"
        assert main(["synth", "--graph", str(graph), "--eta0", "1", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": "eta0=1 exceeds the 0 available columns"}
        assert not out.exists()

    def test_bad_graph_file(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("3\n0 0\n")
        code = main(["spectra", "--graph", str(f), "--out", str(tmp_path / "o")])
        assert code != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "EdgeListParseError"

    def test_bad_dataset_is_rejected(self, tmp_path, capsys):
        # Both commands read only a dataset directory; a broken or missing one fails before any output.
        data = tmp_path / "data"
        main(["synth", "--num-nodes", "6", "--num-edges", "9", "--eta0", "4", "--num-signals", "8",
              "--seed", "2", "--out", str(data)])
        edge_rows = (data / "edge_series.csv").read_text().splitlines(keepends=True)
        (data / "edge_series.csv").write_text("".join(edge_rows[:-1]))
        capsys.readouterr()
        cases = (("denoise", data, "ValueError", "8 steps but edge series has 7"),
                 ("ddtl-fit", tmp_path / "missing", "FileNotFoundError", "graph.txt"))
        for command, dataset, error, message in cases:
            out = tmp_path / command
            assert main([command, "--dataset", str(dataset), "--out", str(out)]) == 1
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == error and message in err["message"]
            assert not out.exists()

    @pytest.mark.parametrize(
        "command, args",
        [("ddtl-fit", ["--eta0", "1"]), ("denoise", ["--bandwidth-grid", "1,2"])],
        ids=["ddtl-fit", "denoise"],
    )
    def test_edgeless_dataset_runs(self, tmp_path, capsys, command, args):
        # Three isolated nodes, as save_dataset writes them: edge_series.csv holds T blank rows, read as a 0 x T block.
        # r = 0, so every row is harmonic and every basis is the identity.
        data = save_dataset(tmp_path / "data", OrientedGraph(3, ()), np.random.default_rng(0).standard_normal((3, 6)))
        assert (data / "edge_series.csv").read_bytes() == b"\r\n" * 6
        out = tmp_path / "out"
        assert main([command, "--dataset", str(data), *args, "--out", str(out)]) == 0
        assert capsys.readouterr() == (f"{out}\n", "")
        meta, tables = load_results(out)
        assert meta["graph"] == {"num_nodes": 3, "num_edges": 0}
        if command == "ddtl-fit":
            assert meta["k_star"] == [] and 0 < meta["reconstruction_nmse"] < 1
        else:
            curves = {}
            for method, snr, bandwidth, real, value in tables["results"].rows:
                if method != "noisy_input":
                    curves.setdefault((snr, bandwidth, real), set()).add(value)
            assert len(curves) == 5 * 2 * 10 and all(len(values) == 1 for values in curves.values())

    @pytest.mark.parametrize(
        "command, args, cell, refusal",
        [
            pytest.param(command, args, cell, refusal, id=f"{command}-{name}")
            for command, args in (("denoise", ["--bandwidth-grid", "1,2"]), ("ddtl-fit", ["--eta0", "2"]))
            for name, cell, refusal in (
                ("zero", "0", "has zero energy"),
                ("nan", "nan", "has a non-finite cell"),  # its energy is nan, which is not 0
                ("inf", "inf", "has a non-finite cell"),  # its energy is inf, which is not 0
                ("overflow", "1e200", "has an energy that overflows"),  # every cell is finite, its energy is not
                ("underflow", "1e-170", "has an energy that underflows"),  # a cell is nonzero, its square is not
                ("subnormal", "1e-160", "has an energy that underflows"),  # its energy, 1e-320, is subnormal
            )
        ],
    )
    def test_zero_energy_dataset_is_refused_before_any_fit(self, tmp_path, capsys, monkeypatch, command, args, cell,
                                                          refusal):
        # Every NMSE would divide by the batch's energy, or be nan: both commands refuse it once read, before a fit
        # or a write.
        data = tmp_path / "data"
        data.mkdir()
        (data / "graph.txt").write_text("3\n0 1\n1 2\n")
        (data / "node_series.csv").write_text(f"0,0,0\n0,{cell},0\n0,0,0\n0,0,0\n")
        (data / "edge_series.csv").write_text("0,0\n" * 4)

        def no_fit(*args, **kwargs):
            raise AssertionError("a batch with no defined NMSE was fitted")

        for name in ("ddtl_fit", "fit_coupling", "coupling_from_grams", "add_awgn"):
            monkeypatch.setattr(experiments, name, no_fit)
        out = tmp_path / "out"
        assert main([command, "--dataset", str(data), *args, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": f"dataset {data} {refusal}, so no NMSE against it is defined"}
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, args, grid",
        [("sparsity-sweep", ["--sparsity-grid", "5,5,10"], "sparsity_grid"),
         ("denoise", ["--bandwidth-grid", "10,10"], "bandwidth_grid")],
        ids=["sparsity-sweep", "denoise"],
    )
    def test_repeated_level_is_refused(self, tmp_path, capsys, command, args, grid):
        # A repeated sparsity level would collapse into one curve point and a repeated bandwidth would write its
        # rows twice, while run.json recorded the grid as given: both are refused before any output.
        out = tmp_path / "out"
        assert main([command, *args, "--realizations", "1", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and grid in err["message"] and "repeat" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "snr, args",
        [("-3080", ["--bandwidth-grid", "10"]), ("-100", None), ("3090", []), ("-4000", [])],
        ids=["ratio-underflows", "noise-energy-overflows", "ratio-overflows", "ratio-is-zero"],
    )
    def test_snr_level_out_of_the_float_range_is_refused(self, tmp_path, capsys, monkeypatch, snr, args):
        # Each level once wrote inf or nan rows, or failed with an unnamed arithmetic error: 10^(snr/10) leaves the
        # normal doubles, or the expected noise energy ||S||^2 10^(-snr/10) of the batch at hand is not finite
        # (None: a dataset of energy 3.1e302 at -100 dB).  Refused by name, before any noise is drawn.
        if args is None:
            data = tmp_path / "data"
            data.mkdir()
            (data / "graph.txt").write_text("3\n0 1\n1 2\n")
            (data / "node_series.csv").write_text("0,0,0\n0,1.76e151,0\n0,1,0\n1,0,0\n")
            (data / "edge_series.csv").write_text("1,0\n0,1\n1,1\n0,2\n")
            args = ["--dataset", str(data), "--bandwidth-grid", "1,2"]

        def no_draw(*args, **kwargs):
            raise AssertionError("noise was drawn at a level outside the float range")

        monkeypatch.setattr(experiments, "add_awgn", no_draw)
        out = tmp_path / "out"
        assert main(["denoise", f"--snr-grid={snr}", "--realizations", "1", *args, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError", err
        assert err["message"].startswith(f"snr_grid level {snr} dB leaves the float range for this batch")
        assert not out.exists()

    @pytest.mark.parametrize("command, key", REMOVED_CASES)
    def test_removed_omega_update_mode_flag(self, tmp_path, command, key):
        flag, value = REMOVED_OPTIONS[key]
        with pytest.raises(SystemExit) as exc:
            main([command, flag, str(value), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, key", REMOVED_CASES)
    def test_removed_omega_update_mode_key(self, command, key):
        # The field went with its flag: the config class, as a library caller builds it, refuses the key.
        cls = COMMANDS[command][0]
        assert key not in {f.name for f in dataclasses.fields(cls)}
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
            cls(out="o", **{key: REMOVED_OPTIONS[key][1]})

    @pytest.mark.parametrize("command, name, text", BAD_VALUE_CASES)
    def test_flag_value_that_does_not_parse_is_refused_by_name(self, tmp_path, capsys, command, name, text):
        # Each value is parsed by its field's annotation (or checked against its choices) before anything is written.
        _, sub = _subparser(command)
        (flag,) = [action.option_strings[0] for action in sub._actions if action.dest == name]
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, flag, text, "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"usage: topospinor {command} ")
        assert f"error: argument {flag}: invalid " in captured.err and repr(text) in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, args",
        [
            ("spectra", ["--num-nodes", "7", "--num-edges", "10", "--seed", "2"]),
            ("synth", ["--num-nodes", "6", "--num-edges", "9", "--eta0", "4", "--num-signals", "8",
                       "--signal-class", "mixture_of_dirac", "--seed", "3"]),
            ("ddtl-fit", ["--dataset", "data", "--eta0", "4", "--max-iter", "12", "--seed", "9"]),
            ("sparsity-sweep", ["--sparsity-grid", "2,5", "--num-nodes", "6", "--num-edges", "9", "--eta0", "4",
                                "--num-signals", "8", "--realizations", "2", "--signal-class", "mixture_of_dirac"]),
            ("denoise", ["--snr-grid", "0,inf", "--bandwidth-grid", "2,9", "--num-nodes", "6", "--num-edges", "9",
                         "--num-signals", "8", "--gen-eta0", "4", "--realizations", "2", "--seed", "3"]),
        ],
        ids=["spectra", "synth", "ddtl-fit", "sparsity-sweep", "denoise"],
    )
    def test_run_json_config_written_as_flags_repeats_the_run(self, tmp_path, monkeypatch, command, args):
        # run.json's config records every field: written as each field's flag (grids as comma lists), it writes
        # the same files. Relative paths, so a recorded dataset path names the same directory in both runs.
        monkeypatch.chdir(tmp_path)
        if command == "ddtl-fit":
            assert main(["synth", "--num-nodes", "7", "--num-edges", "10", "--eta0", "4", "--num-signals", "9",
                         "--seed", "9", "--out", "data"]) == 0
        assert main([command, *args, "--out", "first"]) == 0
        config = json.loads((tmp_path / "first" / "run.json").read_text())["config"]
        _, sub = _subparser(command)
        flags = {action.dest: action.option_strings[0] for action in sub._actions}
        argv = [command, "--out", "again"]
        for name, value in config.items():
            if name != "out" and value is not None:
                argv += [flags[name], ",".join(map(str, value)) if isinstance(value, list) else str(value)]
        assert main(argv) == 0
        first = _files(tmp_path / "first")
        assert "run.json" in first and _files(tmp_path / "again") == first

    def test_unparsable_value_is_a_usage_error(self, tmp_path, capsys):
        # The other failure channel: argparse's usage text and exit 2, not a JSON line.
        with pytest.raises(SystemExit) as exc:
            main(["denoise", "--snr-grid", "abc", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "usage: topospinor denoise" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_every_flag_sets_a_config_field(self):
        # Flags are copied onto the config by field name, so a flag without a
        # field would be accepted and silently ignored; a field without a flag
        # is a setting that no run can change.
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(commands.choices) == {"spectra", "synth", "ddtl-fit", "sparsity-sweep", "denoise"}
        for name, sub in commands.choices.items():
            fields = {f.name for f in dataclasses.fields(sub.get_default("config_cls"))}
            dests = {action.dest for action in sub._actions} - {"help"}
            assert dests <= fields, f"{name}: flags without a config field: {sorted(dests - fields)}"
            assert fields <= dests, f"{name}: config fields without a flag: {sorted(fields - dests)}"

    @pytest.mark.parametrize("command, name", FIELD_CASES)
    def test_every_field_round_trips_through_its_flag(self, command, name):
        # The field's default, written as flag text (grids as comma lists),
        # builds the default config with tuple grids; a field defaulting to
        # None takes a path instead.
        parser, sub = _subparser(command)
        values = {"out": "o", "dataset_dir": "data"} if command == "ddtl-fit" else {"out": "o"}
        default = sub.get_default("config_cls")(**values)
        values[name] = getattr(default, name) if getattr(default, name) is not None else "some/path"
        expected = dataclasses.replace(default, **{name: values[name]})

        flags = {action.dest: action.option_strings[0] for action in sub._actions}
        argv = [command]
        for key, value in values.items():
            argv += [flags[key], ",".join(map(str, value)) if isinstance(value, tuple) else str(value)]
        from_flags = _build_config(parser.parse_args(argv))
        assert from_flags == expected and type(getattr(from_flags, name)) is type(values[name])
