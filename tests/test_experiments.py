import numpy as np
import pytest

from topospinor import experiments, frames, sparse, topology
from topospinor.ddtl import DdtlConfig, ddtl_fit
from topospinor.experiments import (
    DenoiseConfig,
    SweepConfig,
    _learner_tally,
    run_denoise,
    run_sparsity_sweep,
    sub_seed,
    sweep_dictionaries,
)
from topospinor.io import load_results
from topospinor.sparse import omp
from topospinor.synth import SIGNAL_CLASSES, SignalClassSpec, add_awgn, gen_signals, random_graph
from topospinor.topology import build_incidence, spectral_decompose


class TestStudyDefaults:
    def test_sweep_defaults(self):
        cfg = SweepConfig(out="unused")
        assert (cfg.num_nodes, cfg.num_edges) == (40, 80)
        assert cfg.eta0 == 35
        assert cfg.num_signals == 600
        assert cfg.realizations == 10
        assert 35 in cfg.sparsity_grid and 70 in cfg.sparsity_grid

    def test_denoise_defaults(self):
        cfg = DenoiseConfig(out="unused")
        assert (cfg.num_nodes, cfg.num_edges) == (22, 41)
        assert cfg.num_signals == 240
        assert cfg.snr_grid == (0.0, 5.0, 10.0, 15.0, 20.0)
        assert cfg.realizations == 10

    def test_denoise_bandwidths_straddle_rank(self):
        # The surrogate network has rank V - 1 = 21; the default grid must
        # exercise bandwidths below and above it.
        cfg = DenoiseConfig(out="unused")
        g = random_graph(cfg.num_nodes, cfg.num_edges, 0)
        d = spectral_decompose(build_incidence(g))
        assert min(cfg.bandwidth_grid) < d.rank
        assert max(cfg.bandwidth_grid) > d.rank


class TestSweepPipeline:
    def test_rows_per_method_and_level(self, tmp_path):
        cfg = SweepConfig(
            out=str(tmp_path / "run"),
            num_nodes=8,
            num_edges=12,
            eta0=4,
            num_signals=10,
            realizations=3,
            sparsity_grid=(2, 4),
            ddtl_max_iter=6,
            seed=1,
        )
        out = run_sparsity_sweep(cfg)
        _, tables = load_results(out)
        rows = tables["results"].rows
        for method in ("laplacian", "dirac", "frame", "ddtl"):
            for level in (2, 4):
                hits = [r for r in rows if r[0] == method and r[1] == level]
                assert len(hits) == 3  # one row per realization

    def test_seed_changes_results(self, tmp_path):
        base = dict(num_nodes=8, num_edges=12, eta0=4, num_signals=10,
                    realizations=1, sparsity_grid=(3,), ddtl_max_iter=5)
        a = run_sparsity_sweep(SweepConfig(out=str(tmp_path / "a"), seed=1, **base))
        b = run_sparsity_sweep(SweepConfig(out=str(tmp_path / "b"), seed=2, **base))
        _, ta = load_results(a)
        _, tb = load_results(b)
        assert ta["results"].rows != tb["results"].rows


def all_omp_sweep(cfg: SweepConfig):
    """Oracle: the sweep with the learner and one joint OMP per dictionary, all on S itself.

    Returns the NMSE per (method, sparsity, realization) and the learner tally.
    """
    nmse, reports = {}, []
    for real in range(cfg.realizations):
        graph = random_graph(cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, real, "graph"))
        d = spectral_decompose(build_incidence(graph))
        spec = SignalClassSpec(cfg.signal_class, cfg.eta0, cfg.num_signals, sub_seed(cfg.seed, real, "signals"))
        S, _ = gen_signals(d, spec)
        energy = np.linalg.norm(S) ** 2
        solution = ddtl_fit(S, d, DdtlConfig(eta0=cfg.eta0, max_iter=cfg.ddtl_max_iter))
        reports.append(solution.report)
        for method, dictionary in sweep_dictionaries(d, solution).items():
            history = omp(dictionary, S, max(cfg.sparsity_grid)).residual_history
            for level in cfg.sparsity_grid:
                nmse[method, level, real] = history[level - 1] ** 2 / energy
    return nmse, _learner_tally(reports)


@pytest.mark.parametrize("signal_class", SIGNAL_CLASSES)
def test_sweep_matches_all_omp_oracle(tmp_path, signal_class):
    # T = 40 > V + E = 28, so the sweep codes the rank factor of the batch.
    cfg = SweepConfig(out=str(tmp_path / "run"), signal_class=signal_class, num_nodes=10, num_edges=18,
                      eta0=6, num_signals=40, realizations=2, sparsity_grid=(2, 4, 6, 8, 12, 20, 28),
                      ddtl_max_iter=20, seed=5)
    meta, tables = load_results(run_sparsity_sweep(cfg))
    expected, tally = all_omp_sweep(cfg)
    assert meta["learner"] == tally
    got = {(m, int(lv), int(real)): float(v) for m, lv, real, v in tables["results"].rows}
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        if value > 1e-20:
            assert abs(got[key] - value) <= 1e-10 * value, key
        else:
            assert got[key] <= 1e-20, key


def test_sweep_needs_no_dense_dictionary_and_no_pursuit(tmp_path, monkeypatch):
    # Every curve comes from the projected batch, one mode plane at a time.
    def dense(*args, **kwargs):
        raise AssertionError("the sweep built a dense dictionary or ran the dense pursuit")

    for module, name in ((sparse, "omp"), (experiments, "omp"), (experiments, "sweep_dictionaries"),
                         (frames, "build_frame"), (experiments, "build_frame"),
                         (topology, "dirac_eigenbasis"), (experiments, "dirac_eigenbasis"),
                         (topology, "super_laplacian_eigenbasis"), (experiments, "super_laplacian_eigenbasis")):
        monkeypatch.setattr(module, name, dense)
    cfg = SweepConfig(out=str(tmp_path / "run"), num_nodes=8, num_edges=12, eta0=4, num_signals=30,
                      realizations=2, sparsity_grid=(2, 4, 20), ddtl_max_iter=5, seed=3)
    _, tables = load_results(run_sparsity_sweep(cfg))
    assert len(tables["results"].rows) == 4 * 3 * 2


def test_sweep_codes_the_batch_at_its_rank(tmp_path, monkeypatch):
    # Each mode plane of the T = 600 signal batch is reduced to its 2 x 2 triangle, so the learner
    # and every per-plane curve get 2 columns, not T.
    widths = []

    def spy(fn):
        def wrapper(signals, *args, **kwargs):
            widths.append((fn.__name__, signals.shape[1]))
            return fn(signals, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(experiments, "ddtl_fit", spy(experiments.ddtl_fit))
    monkeypatch.setattr(experiments, "plane_pursuit_curve", spy(experiments.plane_pursuit_curve))
    for signal_class in SIGNAL_CLASSES:
        widths.clear()
        run_sparsity_sweep(SweepConfig(out=str(tmp_path / signal_class), signal_class=signal_class, realizations=1))
        assert widths == [("ddtl_fit", 2)] + [("plane_pursuit_curve", 2)] * 4, signal_class


class TestDominance:
    @staticmethod
    def recount(tables, eta0):
        curves = {}
        for method, level, real, value in tables["results"].rows:
            curves.setdefault(int(real), {}).setdefault(method, {})[int(level)] = float(value)
        bases = sum(
            all(c["ddtl"][lv] <= min(c["dirac"][lv], c["laplacian"][lv]) + 1e-12 for lv in c["ddtl"])
            for c in curves.values()
        )
        at_eta0 = all(eta0 in c["ddtl"] for c in curves.values())
        frame = sum(c["ddtl"][eta0] <= c["frame"][eta0] + 1e-12 for c in curves.values()) if at_eta0 else None
        return {"realizations": len(curves), "ddtl_le_bases_every_level": bases,
                "ddtl_le_frame_at_eta0": frame}

    @pytest.mark.parametrize(
        "signal_class, grid", [("partially_coupled", (2, 4, 6, 8, 20)), ("mixture_of_dirac", (2, 5, 8, 20))]
    )
    def test_run_json_counts_match_results(self, tmp_path, signal_class, grid):
        # eta0 = 4 is a level of the first grid only, so the second run's frame count is null.
        # Level 20 = V + E, where the Dirac and Laplacian NMSE is exactly 0 and the learned
        # basis's is round-off, needs the slack.  At this seed the first run has one realization
        # below min(dirac, laplacian) and one only below max(dirac, laplacian).
        cfg = SweepConfig(out=str(tmp_path / "run"), signal_class=signal_class, num_nodes=8, num_edges=12,
                          eta0=4, num_signals=30, realizations=2, sparsity_grid=grid, ddtl_max_iter=10, seed=0)
        meta, tables = load_results(run_sparsity_sweep(cfg))
        assert meta["dominance"] == self.recount(tables, cfg.eta0)
        assert (meta["dominance"]["ddtl_le_frame_at_eta0"] is None) == (cfg.eta0 not in grid)


class TestLearnerTally:
    @staticmethod
    def check(meta, fits, max_iter):
        tally = meta["learner"]
        assert tally["fits"] == fits
        assert sum(tally["stop_reasons"].values()) == fits
        assert set(tally["stop_reasons"]) <= {"tolerance", "max_iter"}
        budget_stops = tally["stop_reasons"].get("max_iter", 0)
        assert budget_stops * max_iter + (fits - budget_stops) <= tally["iterations"] <= fits * max_iter

    def test_sweep_counts_every_fit(self, tmp_path):
        cfg = SweepConfig(out=str(tmp_path / "run"), num_nodes=8, num_edges=12, eta0=4, num_signals=10,
                          realizations=3, sparsity_grid=(2,), ddtl_max_iter=6, seed=1)
        meta, _ = load_results(run_sparsity_sweep(cfg))
        self.check(meta, fits=3, max_iter=6)

    def test_denoise_counts_every_fit(self, tmp_path):
        cfg = DenoiseConfig(out=str(tmp_path / "run"), num_nodes=6, num_edges=9, num_signals=12, gen_eta0=5,
                            snr_grid=(0.0, 10.0), bandwidth_grid=(3, 5), realizations=2, ddtl_max_iter=4, seed=3)
        meta, _ = load_results(run_denoise(cfg))
        self.check(meta, fits=2 * 2 * 2, max_iter=4)


def test_denoise_factors_each_noisy_batch_once(tmp_path, monkeypatch):
    # One plane reduction per SNR and realization, and one ddtl_fit_many call per realization that fits
    # every SNR and bandwidth on 2 columns; each ddtl row is the NMSE of a lone fit on the noisy batch
    # itself, since the fits are lifted back to T = 40.
    cfg = DenoiseConfig(out=str(tmp_path / "run"), num_nodes=6, num_edges=9, num_signals=40, gen_eta0=5,
                        snr_grid=(0.0, 10.0), bandwidth_grid=(3, 8), realizations=2, ddtl_max_iter=20, seed=4)
    reduced, calls = [], []
    reduce_planes, fit_many = experiments.reduce_planes, experiments.ddtl_fit_many

    def spied_fit_many(batches, d, configs):
        calls.append(([S.shape[1] for S in batches], [c.eta0 for c in configs]))
        return fit_many(batches, d, configs)

    monkeypatch.setattr(experiments, "reduce_planes", lambda S, d: reduced.append(S) or reduce_planes(S, d))
    monkeypatch.setattr(experiments, "ddtl_fit_many", spied_fit_many)
    _, tables = load_results(run_denoise(cfg))
    assert [S.shape[1] for S in reduced] == [40] * (2 * 2)
    assert calls == [([2] * (2 * 2), [3, 8, 3, 8])] * 2

    d = spectral_decompose(build_incidence(random_graph(6, 9, sub_seed(cfg.seed, 0, "graph"))))
    spec = SignalClassSpec(cfg.signal_class, cfg.gen_eta0, cfg.num_signals, sub_seed(cfg.seed, 0, "signals"))
    clean, _ = gen_signals(d, spec)
    ddtl_rows = [row for row in tables["results"].rows if row[0] == "ddtl"]
    assert len(ddtl_rows) == 2 * 2 * 2
    for _, snr, bandwidth, real, value in ddtl_rows:
        noisy = add_awgn(clean, snr, sub_seed(cfg.seed, real, f"awgn@{snr:g}"))
        fit = ddtl_fit(noisy, d, DdtlConfig(eta0=int(bandwidth), max_iter=cfg.ddtl_max_iter))
        assert abs(value - sparse.nmse(clean, fit.s_hat)) <= 1e-12 * value


def test_sub_seed_matches_documented_rule():
    import zlib

    master, realization, tag = 9, 4, "signals"
    expected = int(
        np.random.SeedSequence([master, realization, zlib.crc32(tag.encode())]).generate_state(1)[0]
    )
    assert sub_seed(master, realization, tag) == expected
