import json

import numpy as np
import pytest

from topospinor.cli import main
from topospinor.experiments import sub_seed
from topospinor.io import load_edge_list, load_results, load_time_series, read_matrix_csv
from topospinor.sparse import nmse
from topospinor.topology import build_incidence, spectral_decompose
from topospinor.transform import unnormalized_basis_matrix

SQRT3 = np.sqrt(3.0)


def write_p3(tmp_path):
    f = tmp_path / "p3.txt"
    f.write_text("3\n0 1\n1 2\n")
    return f


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

    def test_random_graph_spectra(self, tmp_path):
        out = tmp_path / "out"
        code = main(["spectra", "--num-nodes", "8", "--num-edges", "12", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        meta, _ = load_results(out)
        assert meta["graph"] == {"num_nodes": 8, "num_edges": 12}


class TestSynthCommand:
    def test_dataset_files(self, tmp_path):
        out = tmp_path / "data"
        code = main([
            "synth", "--num-nodes", "8", "--num-edges", "12", "--signal-class", "mixture_of_dirac",
            "--eta0", "5", "--num-signals", "20", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        graph = load_edge_list(out / "graph.txt")
        ds = load_time_series(graph, out / "node_series.csv", out / "edge_series.csv")
        assert ds.num_steps == 20
        truth = json.loads((out / "run.json").read_text())["truth"]
        assert len(truth["support"]) == 5

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["synth", "--num-nodes", "6", "--num-edges", "9", "--eta0", "4",
                "--num-signals", "8", "--seed", "9"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("graph.txt", "node_series.csv", "edge_series.csv", "run.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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

        # Recompute the reconstruction from the saved pieces.
        ds = load_time_series(graph, data / "node_series.csv", data / "edge_series.csv")
        S = ds.spinor_matrix()
        omega, _ = read_matrix_csv(out / "omega_star.csv", S.shape[1])
        psi = unnormalized_basis_matrix(d, k_star[: d.rank], k_star[d.rank:])
        assert abs(nmse(S, psi @ omega) - meta["reconstruction_nmse"]) < 1e-12

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
            "--ddtl-max-iter", "10", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        _, tables = load_results(out)
        rows = tables["results"].rows
        methods = {row[0] for row in rows}
        assert methods == {"laplacian", "dirac", "frame", "ddtl"}
        assert len(rows) == 4 * 2 * 2  # methods x levels x realizations
        per_pair = [row for row in rows if row[0] == "dirac" and row[1] == 5]
        assert len(per_pair) == 2

    def test_config_file_round_trip(self, tmp_path):
        cfg = {
            "num_nodes": 8, "num_edges": 12, "eta0": 5, "num_signals": 12,
            "realizations": 1, "sparsity_grid": [2, 5], "ddtl_max_iter": 8, "seed": 4,
        }
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        main(["sparsity-sweep", "--config", str(cfg_file), "--out", str(tmp_path / "a")])
        # Re-running from the stored config reproduces the results byte for byte.
        stored = json.loads((tmp_path / "a" / "run.json").read_text())["config"]
        cfg_file2 = tmp_path / "cfg2.json"
        stored.pop("out", None)
        cfg_file2.write_text(json.dumps(stored))
        main(["sparsity-sweep", "--config", str(cfg_file2), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "results.csv").read_bytes() == (tmp_path / "b" / "results.csv").read_bytes()
        assert (tmp_path / "a" / "run.json").read_bytes() == (tmp_path / "b" / "run.json").read_bytes()


class TestDenoiseCommand:
    def test_small_denoise_run(self, tmp_path):
        out = tmp_path / "denoise"
        code = main([
            "denoise", "--num-nodes", "8", "--num-edges", "12", "--num-signals", "20",
            "--gen-eta0", "6", "--snr-grid", "0,10", "--bandwidth-grid", "4,8",
            "--realizations", "2", "--ddtl-max-iter", "15", "--seed", "5", "--out", str(out),
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


class TestFailureModes:
    def test_missing_out(self, capsys):
        assert main(["spectra"]) != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert "output directory" in err["message"]

    def test_bad_graph_file(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("3\n0 0\n")
        code = main(["spectra", "--graph", str(f), "--out", str(tmp_path / "o")])
        assert code != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "EdgeListParseError"

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(["spectra", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert "bogus" in err["message"]

    @pytest.mark.parametrize("command", ["ddtl-fit", "sparsity-sweep", "denoise"])
    def test_removed_omega_update_mode_key(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega_update_mode": "diagonal"}))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert "unknown config keys" in err["message"] and "omega_update_mode" in err["message"]

    @pytest.mark.parametrize("command", ["ddtl-fit", "sparsity-sweep", "denoise"])
    def test_removed_omega_update_mode_flag(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--omega-update-mode", "diagonal", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
