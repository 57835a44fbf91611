import dataclasses
import itertools
import sys

import numpy as np
import pytest

from topospinor import ddtl, experiments, frames, planes, sparse, synth, topology, transform
from topospinor.cli import main
from topospinor.experiments import (
    DOMINANCE_SLACK,
    DenoiseConfig,
    SweepConfig,
    run_denoise,
    run_sparsity_sweep,
    sub_seed,
    sweep_dictionaries,
)
from topospinor.io import load_dataset, load_results, save_edge_list
from topospinor.planes import fit_coupling
from topospinor.sparse import nmse, omp, row_hard_threshold
from topospinor.synth import SIGNAL_CLASSES, SignalClassSpec, add_awgn, gen_signals, random_graph
from topospinor.topology import OrientedGraph, build_incidence, project, spectral_decompose

from conftest import PATH_CYCLE_GRID, SIGMA_FREE_CLASSES, STRUCTURED_GRAPHS


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
                    realizations=1, sparsity_grid=(3,))
        a = run_sparsity_sweep(SweepConfig(out=str(tmp_path / "a"), seed=1, **base))
        b = run_sparsity_sweep(SweepConfig(out=str(tmp_path / "b"), seed=2, **base))
        _, ta = load_results(a)
        _, tb = load_results(b)
        assert ta["results"].rows != tb["results"].rows


def exact_learner(fits: int) -> dict:
    """The run.json learner record of a study that makes ``fits`` closed-form fits."""
    return {"fits": fits, "stop_reasons": {"exact": fits}, "iterations": 0}


def all_omp_sweep(cfg: SweepConfig):
    """Oracle: the sweep with the closed-form learner and one dense joint OMP per dictionary, all on S itself.

    Returns the NMSE per (method, sparsity, realization); the learned dictionary is ``build_mass_basis``.
    """
    nmse = {}
    for real in range(cfg.realizations):
        graph = random_graph(cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, real, "graph"))
        d = spectral_decompose(build_incidence(graph))
        spec = SignalClassSpec(cfg.signal_class, cfg.eta0, cfg.num_signals, sub_seed(cfg.seed, real, "signals"))
        S, _ = gen_signals(d, spec)
        energy = np.linalg.norm(S) ** 2
        k = fit_coupling(project(S, d), d.rank)
        for method, dictionary in sweep_dictionaries(d, k).items():
            history = omp(dictionary, S, max(cfg.sparsity_grid)).residual_history
            for level in cfg.sparsity_grid:
                nmse[method, level, real] = history[level - 1] ** 2 / energy
    return nmse


# Sweep settings the oracle checks: T = 40 > V + E = 28, so the sweep codes the plane factor of the batch;
# T = 1, where z2 has one column; a tree (E = V - 1, no harmonic edge row); eta0 = 2r, every plane of rank 2;
# eta0 = 1, one supported column in all; and T = 2 with eta0 = 12, where the two-column planes' QR is square.
ORACLE_SWEEPS = {
    "wide": dict(num_nodes=10, num_edges=18, eta0=6, num_signals=40, sparsity_grid=(2, 4, 6, 8, 12, 20, 28)),
    "one_signal": dict(num_nodes=10, num_edges=18, eta0=6, num_signals=1, sparsity_grid=(1, 2, 4, 6, 8, 28)),
    "tree": dict(num_nodes=10, num_edges=9, eta0=6, num_signals=40, sparsity_grid=(2, 4, 6, 8, 12, 19)),
    "eta0_2r": dict(num_nodes=10, num_edges=18, eta0=18, num_signals=40, sparsity_grid=(2, 6, 9, 12, 18, 20, 28)),
    "one_column": dict(num_nodes=10, num_edges=18, eta0=1, num_signals=40, sparsity_grid=(1, 2, 4, 10, 28)),
    "two_signals": dict(num_nodes=10, num_edges=18, eta0=12, num_signals=2, sparsity_grid=(1, 2, 6, 12, 18, 28)),
}


@pytest.mark.parametrize("signal_class", SIGNAL_CLASSES)
@pytest.mark.parametrize("case", ORACLE_SWEEPS)
def test_sweep_matches_all_omp_oracle(tmp_path, case, signal_class):
    # The oracle synthesizes S and projects it with the singular vectors, so it checks the sweep's draw straight
    # into the mode planes too.
    cfg = SweepConfig(out=str(tmp_path / "run"), signal_class=signal_class, realizations=2, seed=5,
                      **ORACLE_SWEEPS[case])
    meta, tables = load_results(run_sparsity_sweep(cfg))
    expected = all_omp_sweep(cfg)
    assert meta["learner"] == exact_learner(2)
    got = {(m, int(lv), int(real)): float(v) for m, lv, real, v in tables["results"].rows}
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        if value > 1e-20:
            assert abs(got[key] - value) <= 1e-10 * value, key
        else:
            assert got[key] <= 1e-20, key


# The dense paths a study must not take: pursuit, dense dictionaries and bases, the ADMM, its six phases and its
# retraction.
DENSE_PATHS = (
    (sparse, "omp"), (experiments, "sweep_dictionaries"), (frames, "build_frame"), (topology, "dirac_eigenbasis"),
    (topology, "super_laplacian_eigenbasis"), (ddtl, "ddtl_fit"), (transform, "build_mass_basis"),
    (transform, "unnormalized_basis_matrix"), (sparse, "row_hard_threshold"),
    *((ddtl, phase)
      for phase in ("initialize_state", "update_k", "update_omega", "update_p", "update_x", "update_duals")),
)


def make_raise(monkeypatch, paths) -> set[tuple[str, str]]:
    """Make each (module, name) of ``paths`` raise wherever a module of the package binds it; returns those bindings."""
    def dense(*args, **kwargs):
        raise AssertionError("the command took a dense path")

    originals = {id(getattr(module, name)) for module, name in paths}
    bindings = [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module_name == "topospinor" or module_name.startswith("topospinor.")
        for name, value in vars(module).items()
        if id(value) in originals
    ]
    for module, name in bindings:
        monkeypatch.setattr(module, name, dense)
    return {(m.__name__, n) for m, n in bindings}


@pytest.mark.parametrize("command", ["sparsity-sweep", "denoise", "synth", "spectra"])
def test_sweep_needs_no_dense_dictionary_and_no_pursuit(tmp_path, monkeypatch, command):
    # Every curve and truncation comes from the projected batch, one mode plane at a time, the coupling
    # from fit_coupling, every batch from its support's columns alone, and spectra's residuals from the SVD
    # relations.  Each dense path is made to raise wherever a module of the package binds it.
    bindings = make_raise(monkeypatch, DENSE_PATHS)
    assert bindings >= {("topospinor.experiments", "ddtl_fit"), ("topospinor.experiments", "build_mass_basis")}
    out = tmp_path / "run"
    small = ["--num-nodes", "8", "--num-edges", "12", "--seed", "3", "--out", str(out)]
    if command == "synth":
        assert main([command, *small, "--eta0", "6", "--num-signals", "30"]) == 0
        _, S = load_dataset(out)
        assert S.shape == (20, 30)
        return
    if command == "spectra":
        assert main([command, *small]) == 0
        meta, _ = load_results(out)
        assert len(meta["residuals"]) == 5 and max(meta["residuals"].values()) <= 1e-12
        return
    small += ["--realizations", "2"]
    if command == "sparsity-sweep":
        args, rows = ["--eta0", "4", "--num-signals", "30", "--sparsity-grid", "2,4,20"], 4 * 3 * 2
    else:
        args = ["--num-signals", "30", "--gen-eta0", "6", "--snr-grid", "0,10", "--bandwidth-grid", "3,20"]
        rows = 2 * 2 * (1 + 3 * 2)
    assert main([command, *small, *args]) == 0
    _, tables = load_results(out)
    assert len(tables["results"].rows) == rows


@pytest.mark.parametrize("signal_class", SIGNAL_CLASSES)
def test_sweep_needs_no_singular_vectors_no_synthesis_and_no_projection(tmp_path, monkeypatch, signal_class):
    # The sweep's curves depend on the graph only through r = V - 1 and, on mixture_of_dirac, sigma: each batch is
    # kept as its coefficient rows and factored plane by plane, so no n x T batch, no SVD, no U or V^T, no
    # projection of the batch and no QR of T-wide plane blocks is formed, and the three sigma-free classes draw no
    # graph at all.
    paths = [(topology, "spectral_decompose"), (synth, "gen_signals"), (planes, "reduce_planes"), (topology, "project")]
    names = ["spectral_decompose", "gen_signals", "project"]
    if signal_class in SIGMA_FREE_CLASSES:
        paths += [(synth, "random_graph"), (topology, "build_incidence")]
        names += ["random_graph", "build_incidence"]
    bindings = make_raise(monkeypatch, paths)
    assert bindings >= {("topospinor.experiments", name) for name in names} | {("topospinor.planes", "reduce_planes")}

    def no_svd(*args, **kwargs):
        raise AssertionError("the sweep took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    out = tmp_path / "run"
    argv = ["sparsity-sweep", "--signal-class", signal_class, "--num-nodes", "8", "--num-edges", "12", "--eta0", "4",
            "--num-signals", "30", "--sparsity-grid", "2,4,20", "--realizations", "2", "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    meta, tables = load_results(out)
    assert len(tables["results"].rows) == 4 * 3 * 2
    assert meta["graph"] == {"num_nodes": 8, "num_edges": 12}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("signal_class", SIGNAL_CLASSES)
def test_sweep_curves_of_the_sigma_free_classes_do_not_depend_on_sigma(tmp_path, monkeypatch, signal_class, seed):
    # ROADMAP item 17: on the three sigma-free classes the curves from each realization's true sigma (the SVD of its
    # random graph's incidence) and from an arbitrary positive sigma of the same length are byte-identical to the
    # sweep's own, which reads no sigma.  On mixture_of_dirac, which reads it, the arbitrary sigma moves them.
    cfg = SweepConfig(out="", signal_class=signal_class, num_nodes=12, num_edges=20, eta0=10, num_signals=40,
                      realizations=2, sparsity_grid=(2, 5, 10, 20, 30), seed=seed)

    def with_sigma(choose):
        realization = iter(range(cfg.realizations))

        def draw(rank, spec, sigma=None):
            graph = random_graph(cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, next(realization), "graph"))
            true_sigma = spectral_decompose(build_incidence(graph)).sigma
            assert len(true_sigma) == rank
            return synth.draw_signals(rank, spec, choose(true_sigma))

        return draw

    arbitrary = np.random.default_rng(seed).uniform(0.5, 6.0, size=cfg.num_nodes - 1)
    results = {}
    for name, draw in (("sweep", synth.draw_signals), ("true", with_sigma(lambda sigma: sigma)),
                       ("arbitrary", with_sigma(lambda sigma: arbitrary))):
        monkeypatch.setattr(experiments, "draw_signals", draw)
        out = run_sparsity_sweep(dataclasses.replace(cfg, out=str(tmp_path / name)))
        results[name] = (out / "results.csv").read_bytes()
    if signal_class in SIGMA_FREE_CLASSES:
        assert results["sweep"] == results["true"] == results["arbitrary"]
    else:
        assert results["true"] != results["arbitrary"]


def test_sweep_codes_the_batch_at_its_rank(tmp_path, monkeypatch):
    # Each mode plane of the T = 600 signal batch is replaced by its 2 x 2 factor, so the learner and the one
    # pursuit call, which reads all four curves, get 2 columns, not T; the pursuit ranks the four dictionaries'
    # gains in one truncation_curves call per realization.
    shapes = []

    def spy(fn):
        def wrapper(signals, *args, **kwargs):
            shapes.append((fn.__name__, np.shape(signals)))
            return fn(signals, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(planes, "fit_coupling", spy(planes.fit_coupling))
    monkeypatch.setattr(planes, "plane_pursuit_curves", spy(planes.plane_pursuit_curves))
    monkeypatch.setattr(planes, "truncation_curves", spy(planes.truncation_curves))
    for signal_class in SIGNAL_CLASSES:
        shapes.clear()
        cfg = SweepConfig(out=str(tmp_path / signal_class), signal_class=signal_class, realizations=2)
        run_sparsity_sweep(cfg)
        n = cfg.num_nodes + cfg.num_edges
        per_realization = [("fit_coupling", (n, 2)), ("plane_pursuit_curves", (n, 2)), ("truncation_curves", (4, n))]
        assert shapes == per_realization * 2, signal_class


@pytest.mark.parametrize("num_signals", [1, 2, 40])
@pytest.mark.parametrize("layout", ["single-column", "two-column", "mixed"])
def test_plane_factor_keeps_every_plane_gram(num_signals, layout):
    # Hand-built supports over r = 6 planes (n = 15): the factor's plane Grams equal those of the T-wide blocks
    # A_i^T c_i, to 1e-12 of each plane's energy, and its harmonic rows are zero.
    r, n = 6, 15
    support = {"single-column": [0, 2, 7, 9], "two-column": [1, 4, 7, 10], "mixed": [0, 1, 3, 5, 7, 9, 11]}[layout]
    support = np.array(support)
    rng = np.random.default_rng(len(support) + num_signals)
    coefficients = rng.normal(size=(len(support), num_signals)) * rng.uniform(0.1, 10.0, size=(len(support), 1))
    k = rng.uniform(0.0, 1.0, size=r)
    codes = np.zeros((r, 2, num_signals))
    codes[support % r, (support >= r).astype(int)] = coefficients
    blocks = planes._plane_bases(k)["ddtl"][0].swapaxes(1, 2) @ codes
    z = np.zeros((n, num_signals))
    z[:r], z[n - r :] = blocks[:, 0], blocks[:, 1]
    z2 = planes._plane_factor(support, coefficients, k, n)
    assert z2.shape == (n, min(num_signals, 2))
    assert not np.any(z2[r : n - r])
    expected, got = planes.plane_grams(z, r), planes.plane_grams(z2, r)
    energy = expected[0] + expected[2]
    assert np.all(np.abs(got - expected) <= 1e-12 * energy)
    assert np.array_equal(energy == 0.0, ~np.isin(np.arange(r), support % r))


def sweep_curves(tables):
    """Per realization, per method, the NMSE at each sparsity level, from results.csv."""
    curves = {}
    for method, level, real, value in tables["results"].rows:
        curves.setdefault(int(real), {}).setdefault(method, {})[int(level)] = float(value)
    return curves


class TestDominance:
    @staticmethod
    def recount(tables):
        curves = sweep_curves(tables).values()

        def count(method, rivals):
            return sum(all(c[method][lv] <= min(c[m][lv] for m in rivals) + 1e-12 for lv in c[method]) for c in curves)

        return {
            "realizations": len(curves),
            "ddtl_le_fixed_every_level": count("ddtl", ("dirac", "laplacian", "frame")),
            "frame_le_bases_every_level": count("frame", ("dirac", "laplacian")),
        }

    @pytest.mark.parametrize(
        "signal_class, grid", [("partially_coupled", (2, 4, 6, 8, 20)), ("mixture_of_dirac", (2, 5, 8, 20))]
    )
    def test_run_json_counts_match_results(self, tmp_path, signal_class, grid):
        # Level 20 = V + E, where every NMSE is round-off, needs the slack.
        cfg = SweepConfig(out=str(tmp_path / "run"), signal_class=signal_class, num_nodes=8, num_edges=12,
                          eta0=4, num_signals=30, realizations=2, sparsity_grid=grid, seed=0)
        meta, tables = load_results(run_sparsity_sweep(cfg))
        assert meta["dominance"] == self.recount(tables)

    @pytest.mark.parametrize("signal_class", SIGNAL_CLASSES)
    def test_learned_curve_dominates_in_every_realization(self, tmp_path, signal_class):
        # The learned basis captures at every sparsity what any fixed dictionary's support does (ROADMAP item 4).
        cfg = SweepConfig(out=str(tmp_path / "run"), signal_class=signal_class, num_nodes=10, num_edges=18,
                          eta0=8, num_signals=40, realizations=4, sparsity_grid=tuple(range(1, 29)), seed=6)
        meta, tables = load_results(run_sparsity_sweep(cfg))
        assert meta["dominance"] == {"realizations": 4, "ddtl_le_fixed_every_level": 4, "frame_le_bases_every_level": 4}
        assert self.recount(tables) == meta["dominance"]

    @pytest.mark.parametrize("signal_class", SIGNAL_CLASSES)
    def test_both_claims_hold_in_every_realization_at_the_defaults(self, tmp_path, signal_class):
        # Claim (a), the frame at most either basis, and claim (b), the learned basis at most every fixed
        # dictionary, recounted from results.csv of a default sweep (ROADMAP item 4).
        cfg = SweepConfig(out=str(tmp_path / "run"), signal_class=signal_class)
        meta, tables = load_results(run_sparsity_sweep(cfg))
        n = cfg.realizations
        expected = {"realizations": n, "ddtl_le_fixed_every_level": n, "frame_le_bases_every_level": n}
        assert self.recount(tables) == meta["dominance"] == expected


# Noiseless (inf) and the three noise levels at which the claim chain is asserted, in dB.
CHAIN_SNRS = (np.inf, 20.0, 10.0, 0.0)
CHAIN_GRAPHS = {
    **{name: g for name, (g, *_) in STRUCTURED_GRAPHS.items()},
    **PATH_CYCLE_GRID,
    "random_6_9": random_graph(6, 9, 61),
    "random_tree_9": random_graph(9, 8, 62),
    "random_10_18": random_graph(10, 18, 63),
    "random_12_30": random_graph(12, 30, 64),
    "random_20_40": random_graph(20, 40, 65),
}


def chain_breaks(S, d):
    """The levels 1..V+E at which learned <= frame <= min(Dirac, Laplacian) + DOMINANCE_SLACK fails on S.

    The chain is ROADMAP item 4's theorem for joint sparsity in sample: per mode plane the learned pair's first gain
    is at least the frame's, and the frame's the larger of Dirac's and Laplacian's, at every level.
    """
    z, r = project(S, d), d.rank
    bases = planes._plane_bases(fit_coupling(z, r))
    levels = range(1, d.dim + 1)
    laplacian, dirac, frame, learned = planes.plane_pursuit_curves(z, r, list(bases.values()), levels) / np.sum(S**2)
    holds = (learned <= frame + DOMINANCE_SLACK) & (frame <= np.minimum(dirac, laplacian) + DOMINANCE_SLACK)
    return [lv for lv, ok in zip(levels, holds) if not ok]


def chain_batches(d):
    """Per class, batch width and noise level: (case, S), each S synthesized in ``d``'s singular vectors."""
    eta0 = max(1, 2 * d.rank // 3)
    for signal_class in SIGNAL_CLASSES:
        for num_signals in (1, 12):
            S, _ = gen_signals(d, SignalClassSpec(signal_class, eta0, num_signals, seed=7 + num_signals))
            for snr in CHAIN_SNRS:
                noisy = S if snr == np.inf else add_awgn(S, snr, seed=int(snr) + 100)
                yield (signal_class, num_signals, snr), noisy


class TestClaimChain:
    @pytest.mark.parametrize("name", CHAIN_GRAPHS)
    def test_learned_then_frame_then_each_basis_at_every_level(self, name):
        # All four classes, one and twelve signals, noiseless and at 20, 10 and 0 dB: 32 batches per graph.
        d = spectral_decompose(build_incidence(CHAIN_GRAPHS[name]))
        breaks = {case: chain_breaks(S, d) for case, S in chain_batches(d)}
        assert len(breaks) == 32
        assert not {case: levels for case, levels in breaks.items() if levels}

    @pytest.mark.parametrize("name", ["star_k14", "complete_k5"])
    @pytest.mark.parametrize("rotation", range(3))
    def test_chain_holds_in_any_basis_of_a_repeated_singular_value(self, name, rotation):
        # Each cluster of equal sigma has no preferred singular vectors: rotating its columns of u and v by one
        # orthogonal matrix is an equally valid SVD.  The data keep LAPACK's basis; the dictionaries take the other.
        g = STRUCTURED_GRAPHS[name][0]
        B = build_incidence(g)
        d = spectral_decompose(B)
        rng = np.random.default_rng(900 + rotation)
        u, v = d.u.copy(), d.v.copy()
        _, first, sizes = np.unique(np.round(d.sigma, 10), return_index=True, return_counts=True)
        assert sizes.max() >= 3  # star_k14 repeats sigma = 1 three times, complete_k5 sqrt(5) four times
        for start, size in zip(first, sizes):
            cluster = slice(start, start + size)
            q, upper = np.linalg.qr(rng.normal(size=(size, size)))
            q *= np.sign(np.diag(upper))
            u[:, cluster], v[:, cluster] = d.u[:, cluster] @ q, d.v[:, cluster] @ q
        rotated = dataclasses.replace(d, u=u, v=v)
        assert np.allclose(B @ rotated.v, rotated.u * d.sigma, atol=1e-12)
        assert not np.allclose(u, d.u)
        breaks = {case: chain_breaks(S, rotated) for case, S in chain_batches(d)}
        assert len(breaks) == 32
        assert not {case: levels for case, levels in breaks.items() if levels}


@pytest.mark.parametrize("name", PATH_CYCLE_GRID)
def test_learned_basis_recovers_a_noiseless_batch_at_its_support_size(name):
    # A batch drawn on eta0 coupled atoms is exactly eta0 rows of the basis learned from it.
    d = spectral_decompose(build_incidence(PATH_CYCLE_GRID[name]))
    assert (len(np.unique(np.round(d.sigma, 10))) < d.rank) == (name != "path_p6")  # the cycle and grid repeat sigma
    eta0 = min(5, 2 * d.rank)
    for signal_class in SIGNAL_CLASSES:
        for num_signals in (1, 12):
            S, _ = gen_signals(d, SignalClassSpec(signal_class, eta0, num_signals, seed=20 + num_signals))
            z = project(S, d)
            learned = planes._plane_bases(fit_coupling(z, d.rank))["ddtl"]
            residual = planes.plane_pursuit_curves(z, d.rank, [learned], [eta0])[0, 0]
            assert residual <= 1e-12 * np.sum(S**2), (signal_class, num_signals)


@pytest.mark.parametrize("name", PATH_CYCLE_GRID)
def test_every_command_writes_the_same_bytes_twice_on_the_path_cycle_and_grid(tmp_path, monkeypatch, name):
    # Two runs in one process with one seed: spectra and synth on the graph, ddtl-fit and denoise on that dataset.
    # Relative paths, so the paths each run.json records are the same too.
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        save_edge_list("graph.txt", PATH_CYCLE_GRID[name])
        for argv in (
            ["spectra", "--graph", "graph.txt", "--out", "spectra"],
            ["synth", "--graph", "graph.txt", "--signal-class", "partially_coupled", "--eta0", "5",
             "--num-signals", "12", "--out", "data"],
            ["ddtl-fit", "--dataset", "data", "--eta0", "5", "--max-iter", "5", "--out", "fit"],
            ["denoise", "--dataset", "data", "--snr-grid", "0,20,inf", "--bandwidth-grid", "2,5",
             "--realizations", "2", "--out", "denoise"],
        ):
            assert main([*argv, "--seed", "7"]) == 0, argv
    written = {run: {f.relative_to(tmp_path / run).as_posix(): f.read_bytes()
                     for f in (tmp_path / run).rglob("*") if f.is_file()} for run in ("a", "b")}
    assert {path.split("/")[0] for path in written["a"]} == {"graph.txt", "spectra", "data", "fit", "denoise"}
    assert written["a"] == written["b"]


def exhaustive_best(D, signals):
    """Per level L in 1..n, per batch: the least squared residual of a least-squares fit on any L columns of D.

    The projector of each support is read off one batched SVD of all supports of a level, taken once for
    every batch; columns beyond the support's rank (a frame's repeated harmonic atoms) capture nothing.
    """
    n, atoms = D.shape
    energies = np.array([np.sum(S**2) for S in signals])
    best = np.empty((len(signals), n))
    for level in range(1, n + 1):
        supports = np.array(list(itertools.combinations(range(atoms), level)))
        u, sv, _ = np.linalg.svd(D[:, supports].transpose(1, 0, 2), full_matrices=False)
        spans = u * (sv > 1e-10)[:, None, :]
        for b, S in enumerate(signals):
            captured = np.sum(np.matmul(spans.transpose(0, 2, 1), S) ** 2, axis=(1, 2))
            best[b, level - 1] = energies[b] - captured.max()
    return best


@pytest.mark.parametrize("name", ["p3", "triangle", "p4", "star_k13"])
def test_pursuit_curves_against_an_exhaustive_support_search(name):
    # ROADMAP item 4 on graphs with V + E <= 7: for an orthonormal basis joint OMP finds the best support at every
    # level, the frame's pursuit can only do worse than its best support, and the learned basis beats even that.
    g = {"p3": OrientedGraph(3, ((0, 1), (1, 2))), "triangle": OrientedGraph(3, ((0, 1), (1, 2), (2, 0))),
         "p4": OrientedGraph(4, ((0, 1), (1, 2), (2, 3))), "star_k13": OrientedGraph(4, ((0, 1), (0, 2), (0, 3)))}[name]
    d = spectral_decompose(build_incidence(g))
    eta0 = max(1, 2 * d.rank // 3)
    signals = [
        add_awgn(gen_signals(d, SignalClassSpec(signal_class, eta0, num_signals, seed=30 + num_signals))[0], 10.0,
                 seed=40 + num_signals)
        for signal_class in SIGNAL_CLASSES for num_signals in (1, 3)
    ]
    # The three fixed dense dictionaries do not depend on k; the learned one is fitted to each batch.
    fixed = sweep_dictionaries(d, np.ones(d.rank))
    best = {method: exhaustive_best(fixed[method], signals) for method in ("laplacian", "dirac", "frame")}
    levels = range(1, d.dim + 1)
    for b, S in enumerate(signals):
        z, tol = project(S, d), 1e-12 * np.sum(S**2)
        k = fit_coupling(z, d.rank)
        learned_best = exhaustive_best(sweep_dictionaries(d, k)["ddtl"], [S])[0]
        bases = planes._plane_bases(k)
        laplacian, dirac, frame, learned = planes.plane_pursuit_curves(z, d.rank, list(bases.values()), levels)
        assert np.all(np.abs(laplacian - best["laplacian"][b]) <= tol), b
        assert np.all(np.abs(dirac - best["dirac"][b]) <= tol), b
        assert np.all(np.abs(learned - learned_best) <= tol), b
        assert np.all(frame >= best["frame"][b] - tol), b
        assert np.all(learned <= best["frame"][b] + tol), b


class TestLearnerTally:
    def test_sweep_counts_every_fit(self, tmp_path):
        cfg = SweepConfig(out=str(tmp_path / "run"), num_nodes=8, num_edges=12, eta0=4, num_signals=10,
                          realizations=3, sparsity_grid=(2,), seed=1)
        meta, _ = load_results(run_sparsity_sweep(cfg))
        assert meta["learner"] == exact_learner(3)

    def test_denoise_counts_every_fit(self, tmp_path):
        # One fit per realization and SNR: the basis does not depend on the bandwidth.
        cfg = DenoiseConfig(out=str(tmp_path / "run"), num_nodes=6, num_edges=9, num_signals=12, gen_eta0=5,
                            snr_grid=(0.0, 10.0), bandwidth_grid=(3, 5), realizations=2, seed=3)
        meta, _ = load_results(run_denoise(cfg))
        assert meta["learner"] == exact_learner(2 * 2)


NUMPY_INT_CASES = {
    "sweep-sparsity_grid": (SweepConfig, {"sparsity_grid": (np.int64(2), np.int64(5))}),
    "sweep-realizations": (SweepConfig, {"realizations": np.int64(2)}),
    "sweep-seed": (SweepConfig, {"seed": np.int64(1)}),
    "sweep-num_nodes": (SweepConfig, {"num_nodes": np.int64(8)}),
    "sweep-num_edges": (SweepConfig, {"num_edges": np.int64(12)}),
    "denoise-bandwidth_grid": (DenoiseConfig, {"bandwidth_grid": (np.int64(3), np.int64(5))}),
}
SMALL_STUDIES = {
    SweepConfig: (run_sparsity_sweep, dict(num_nodes=8, num_edges=12, eta0=4, num_signals=10, realizations=2,
                                           sparsity_grid=(2, 5), seed=1)),
    DenoiseConfig: (run_denoise, dict(num_nodes=6, num_edges=9, num_signals=12, gen_eta0=5, snr_grid=(0.0, 10.0),
                                      bandwidth_grid=(3, 5), realizations=2, seed=3)),
}


@pytest.mark.parametrize("case", NUMPY_INT_CASES)
def test_numpy_integers_in_a_study_config_write_the_python_int_run(tmp_path, case):
    # Each numpy value equals the small study's Python int, so both runs must write the same bytes.
    config_class, numpy_fields = NUMPY_INT_CASES[case]
    run, fields = SMALL_STUDIES[config_class]
    assert all(np.array_equal(v, fields[key]) for key, v in numpy_fields.items())
    python_run = run(config_class(out=str(tmp_path / "python"), **fields))
    numpy_run = run(config_class(out=str(tmp_path / "numpy"), **{**fields, **numpy_fields}))
    for name in ("run.json", "results.csv"):
        assert (python_run / name).read_bytes() == (numpy_run / name).read_bytes(), name


def dense_truncation_nmse(clean, noisy, basis, bandwidths):
    """Oracle: NMSE of hard truncation in a dense orthonormal basis, the coefficients thresholded per bandwidth."""
    coeffs = basis.T @ noisy
    return {bw: nmse(clean, basis @ row_hard_threshold(coeffs, int(bw))) for bw in bandwidths}


def denoise_oracle(cfg: DenoiseConfig):
    """Per (method, snr, bandwidth, realization), the NMSE of dense truncation in the Dirac, Laplacian and learned bases."""
    d = spectral_decompose(build_incidence(random_graph(cfg.num_nodes, cfg.num_edges, sub_seed(cfg.seed, 0, "graph"))))
    spec = SignalClassSpec(cfg.signal_class, cfg.gen_eta0, cfg.num_signals, sub_seed(cfg.seed, 0, "signals"))
    clean, _ = gen_signals(d, spec)
    expected = {}
    for real in range(cfg.realizations):
        for snr in cfg.snr_grid:
            noisy = add_awgn(clean, snr, sub_seed(cfg.seed, real, f"awgn@{snr:g}"))
            k = fit_coupling(project(noisy, d), d.rank)
            dense = sweep_dictionaries(d, k)
            bases = {"ddtl": dense["ddtl"], "dirac_truncation": dense["dirac"],
                     "laplacian_truncation": dense["laplacian"]}
            for method, basis in bases.items():
                for bw, value in dense_truncation_nmse(clean, noisy, basis, cfg.bandwidth_grid).items():
                    expected[method, float(snr), int(bw), real] = value
    return expected


# Denoise settings the oracle checks, each with bandwidths 1 and V + E: the study's size; T = 5 < V + E = 15;
# T = 1, where every plane's Gram has rank 1; a tree (E = V - 1, no harmonic edge row); and the noiseless case,
# where a clean row outside the support has round-off energy, which a quadratic form could make negative.
ORACLE_DENOISES = {
    "study-size": dict(num_nodes=22, num_edges=41, num_signals=240, gen_eta0=30, bandwidth_grid=(1, 10, 30, 50, 63)),
    "fewer-signals-than-rows": dict(num_nodes=6, num_edges=9, num_signals=5, gen_eta0=4, bandwidth_grid=(1, 4, 8, 15)),
    "one-signal": dict(num_nodes=6, num_edges=9, num_signals=1, gen_eta0=4, bandwidth_grid=(1, 2, 8, 15)),
    "tree": dict(num_nodes=10, num_edges=9, num_signals=30, gen_eta0=6, bandwidth_grid=(1, 5, 12, 19)),
    "noiseless": dict(num_nodes=22, num_edges=41, num_signals=240, gen_eta0=30, bandwidth_grid=(1, 10, 30, 50, 63),
                      snr_grid=(np.inf,)),
}


@pytest.mark.parametrize("case", ORACLE_DENOISES)
def test_denoise_truncations_match_the_dense_oracle(tmp_path, case):
    cfg = DenoiseConfig(out=str(tmp_path / "run"), realizations=2, seed=7, **ORACLE_DENOISES[case])
    _, tables = load_results(run_denoise(cfg))
    expected = denoise_oracle(cfg)
    got = {(m, float(snr), int(bw), int(real)): v for m, snr, bw, real, v in tables["results"].rows if m != "noisy_input"}
    assert got.keys() == expected.keys()
    assert min(got.values()) >= 0.0
    for key, value in expected.items():
        if value > 1e-20:
            assert abs(got[key] - value) <= 1e-12 * value, key
        else:
            assert got[key] <= 1e-20, key


def test_denoise_factors_each_noisy_batch_once(tmp_path, monkeypatch):
    # The clean batch and each noisy batch are projected once, T wide, and the coupling is learned once per
    # realization and SNR, from the noisy projection's plane Grams: the learned basis serves every bandwidth.
    cfg = DenoiseConfig(out=str(tmp_path / "run"), num_nodes=6, num_edges=9, num_signals=40, gen_eta0=5,
                        snr_grid=(0.0, 10.0), bandwidth_grid=(3, 8), realizations=2, seed=4)
    projected, fitted = [], []
    project_, rule = experiments.project, planes.coupling_from_grams

    def spied_project(S, d):
        projected.append((S.shape, project_(S, d)))
        return projected[-1][1]

    def spied_rule(grams):
        fitted.append((grams, rule(grams)))
        return fitted[-1][1]

    monkeypatch.setattr(experiments, "project", spied_project)
    monkeypatch.setattr(planes, "coupling_from_grams", spied_rule)
    run_denoise(cfg)
    assert [shape for shape, _ in projected] == [(15, 40)] * (1 + 2 * 2)
    ((grams, k),) = fitted
    rank = k.shape[1]
    assert k.shape == (2 * 2, rank)
    assert np.array_equal(grams, np.stack([planes.plane_grams(noisy_z, rank) for _, noisy_z in projected[1:]]))
    assert all(np.array_equal(k_fit, fit_coupling(noisy_z, rank)) for k_fit, (_, noisy_z) in zip(k, projected[1:]))


def test_denoise_rotates_the_clean_batch_into_the_fixed_bases_once_per_run(tmp_path, monkeypatch):
    # No T-wide batch is rotated: the clean batch is reduced once per run to its 2 x 2 triangles, whose energies in
    # the learned, the Dirac and the Laplacian pairs of every realization and SNR come from one plane_energies call.
    cfg = DenoiseConfig(out=str(tmp_path / "run"), num_nodes=6, num_edges=9, num_signals=40, gen_eta0=5,
                        snr_grid=(0.0, 10.0, 20.0), bandwidth_grid=(3, 8), realizations=2, seed=4)
    projected, rotated, reduced, truncated = [], [], [], []
    project_, energies = experiments.project, planes.plane_energies
    reduce, truncate = planes.reduce_planes, planes.truncation_curves
    monkeypatch.setattr(experiments, "project", lambda S, d: projected.append(project_(S, d)) or projected[-1])
    monkeypatch.setattr(planes, "plane_energies",
                        lambda z, r, pairs: rotated.append((z.shape, pairs.shape)) or energies(z, r, pairs))
    monkeypatch.setattr(planes, "reduce_planes", lambda z, r: reduced.append((z, r)) or reduce(z, r))
    monkeypatch.setattr(planes, "truncation_curves", lambda noisy, error, clean, levels: truncated.append(
        (noisy.shape, error.shape, clean.shape, list(levels))) or truncate(noisy, error, clean, levels))
    run_denoise(cfg)
    ((z, rank),) = reduced
    assert z is projected[0] and z.shape == (15, 40)  # the clean batch's projection, projected first
    assert rotated == [((15, 2), (3 * 2 * 3, rank, 2, 2))]
    # Every fit's learned, Dirac and Laplacian curves come from one ranking of the noisy row energies.
    assert truncated == [((2 * 3, 3, 15),) * 3 + ([3, 8],)]


@pytest.mark.parametrize("n, rank, num_signals", [(15, 5, 40), (15, 5, 1), (19, 9, 2), (6, 0, 3), (8, 4, 30)])
def test_gram_row_energies_match_the_rotated_rows(n, rank, num_signals):
    # The noisy and error energies are quadratic forms of the plane Grams: to 1e-12 of their plane's energy, the
    # sums of squares of plane_energies, in the rows' order, for each basis, learned ones of several fits.
    rng = np.random.default_rng(n + rank + num_signals)
    z = rng.normal(size=(n, num_signals)) * rng.uniform(0.0, 3.0, size=(n, 1))
    if rank:
        z[n - rank] = 2.0 * z[0]  # a plane of rank 1
        z[[1, n - rank + 1]] = 0.0  # a zero plane
    k = rng.uniform(0.0, 1.0, size=(3, rank))
    grams, harmonic = planes._grams(z, rank)
    plane_energy = np.concatenate([grams[0] + grams[2]] * 2 + [harmonic])
    for name, pairs in planes._plane_bases(k).items():
        got = planes._row_energies(grams, harmonic, pairs)
        energies, harmonic_energies = planes.plane_energies(z, rank, pairs)
        energies = energies.reshape(len(pairs), 2 * rank)
        expected = np.concatenate([energies, np.tile(harmonic_energies, (len(pairs), 1))], axis=1)
        assert got.shape == (len(pairs), n), name
        assert np.all(np.abs(got - expected) <= 1e-12 * plane_energy), name


def test_denoise_records_how_often_the_learned_basis_beats_both_truncations(tmp_path):
    snr_grid = (0.0, 5.0, 20.0)
    cfg = DenoiseConfig(out=str(tmp_path / "run"), num_nodes=8, num_edges=12, num_signals=30, gen_eta0=6,
                        snr_grid=snr_grid, bandwidth_grid=(2, 6, 12, 20), realizations=3, seed=2)
    meta, tables = load_results(run_denoise(cfg))
    # Keyed by the %g spelling, as by_snr is.
    values = {(m, f"{snr:g}", bw, int(real)): v for m, snr, bw, real, v in tables["results"].rows}
    by_snr = {}
    for (method, snr, bw, real), value in values.items():
        if method == "ddtl":
            fixed = min(values["dirac_truncation", snr, bw, real], values["laplacian_truncation", snr, bw, real])
            by_snr[snr] = by_snr.get(snr, 0) + (value <= fixed + DOMINANCE_SLACK)
    assert meta["ddtl_le_truncations"] == {"pairs_per_snr": 3 * 4, "by_snr": by_snr}
    assert list(by_snr) == [f"{snr:g}" for snr in snr_grid]


@pytest.mark.parametrize("level", [2.7, 10.5, True])
@pytest.mark.parametrize("config, grid", [(SweepConfig, "sparsity_grid"), (DenoiseConfig, "bandwidth_grid")])
def test_configs_refuse_a_level_that_is_not_an_integer_by_name(config, grid, level):
    # 2.7 would run as level 2 and True as level 1 while run.json recorded the grid as given; each is refused when
    # the config is made, before anything is drawn.
    with pytest.raises(ValueError, match=rf"^{grid} levels must be integers, not {level!r}$"):
        config(out="unused", **{grid: (level, 30)})


@pytest.mark.parametrize("snr_grid", [(0.0, -0.0), (5.0, 10.0, 5.0)])
def test_denoise_refuses_snr_levels_equal_as_floats(snr_grid):
    # 0 and -0 dB are one SNR, though they print apart ("0", "-0") and would draw two noises and count twice.
    with pytest.raises(ValueError, match="snr_grid repeats a level"):
        DenoiseConfig(out="unused", snr_grid=snr_grid)


def test_sub_seed_matches_documented_rule():
    import zlib

    master, realization, tag = 9, 4, "signals"
    expected = int(
        np.random.SeedSequence([master, realization, zlib.crc32(tag.encode())]).generate_state(1)[0]
    )
    assert sub_seed(master, realization, tag) == expected
