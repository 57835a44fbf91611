import numpy as np

from topospinor.experiments import (
    DenoiseConfig,
    SweepConfig,
    run_denoise,
    run_sparsity_sweep,
    sub_seed,
)
from topospinor.io import load_results
from topospinor.synth import random_graph
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


def test_sub_seed_matches_documented_rule():
    import zlib

    master, realization, tag = 9, 4, "signals"
    expected = int(
        np.random.SeedSequence([master, realization, zlib.crc32(tag.encode())]).generate_state(1)[0]
    )
    assert sub_seed(master, realization, tag) == expected
