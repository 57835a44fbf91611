import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from topospinor.sparse import nmse, omp
from topospinor.synth import SIGNAL_CLASSES, SignalClassSpec, add_awgn, draw_signals, gen_signals, random_graph
from topospinor.topology import (
    build_incidence,
    dirac_eigenbasis,
    spectral_decompose,
    super_laplacian_eigenbasis,
)
from topospinor.transform import build_mass_basis

import oracles


class TestRandomGraph:
    def test_default_scale_graph(self):
        g = random_graph(40, 80, 0)
        d = spectral_decompose(build_incidence(g))
        assert d.xi0 == 1  # connected
        assert d.xi1 == 41  # E - V + 1

    def test_tree(self):
        g = random_graph(3, 2, 5)
        d = spectral_decompose(build_incidence(g))
        assert d.xi1 == 0

    def test_determinism(self):
        assert random_graph(12, 20, 42).edges == random_graph(12, 20, 42).edges

    def test_different_seeds_differ(self):
        assert random_graph(12, 20, 1).edges != random_graph(12, 20, 2).edges

    def test_infeasible_counts(self):
        with pytest.raises(ValueError, match="infeasible"):
            random_graph(4, 2, 0)
        with pytest.raises(ValueError, match="infeasible"):
            random_graph(4, 7, 0)

    @pytest.mark.parametrize("num_nodes, num_edges", [(-3, 5), (-1, 0), (0, 1), (0, 0)])
    def test_node_count_below_one_is_refused_by_name(self, num_nodes, num_edges):
        # (-3, 5) satisfies V - 1 <= E <= V(V - 1)/2, so the edge bounds alone would let it through to numpy.
        with pytest.raises(ValueError, match=f"^num_nodes must be positive, got {num_nodes}$"):
            random_graph(num_nodes, num_edges, 0)

    def test_both_orientations_occur(self):
        flips = set()
        for seed in range(20):
            for tail, head in random_graph(5, 4, seed).edges:
                flips.add(tail < head)
        assert flips == {True, False}

    @given(st.integers(2, 20), st.integers(0, 10), st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_always_connected_with_exact_edge_count(self, v, extra, seed):
        e = min(v - 1 + extra, v * (v - 1) // 2)
        g = random_graph(v, e, seed)
        assert g.num_edges == e
        d = spectral_decompose(build_incidence(g))
        assert d.xi0 == 1

    # Single nodes, V = 2 and 3, trees, complete graphs and the studies' sizes (22/41, 40/80, 160/320).
    @pytest.mark.parametrize(
        "v, e", [(1, 0), (2, 1), (3, 2), (3, 3), (7, 6), (30, 29), (5, 10), (12, 66), (22, 41), (40, 80), (160, 320)]
    )
    @pytest.mark.parametrize(
        "seed", [0, 3_141_592_653, np.random.SeedSequence([2, 0, 7])], ids=["int-0", "int-large", "seed-sequence"]
    )
    def test_same_graph_as_the_loop_oracle(self, v, e, seed):
        assert random_graph(v, e, seed) == oracles.random_graph(v, e, seed)

    def test_same_graph_as_the_pair_list_oracle_on_every_small_size(self):
        # The extra edges are picked by rank among the non-tree pairs, which the oracle lists and random_graph
        # computes: every V up to 13 at E = V - 1, V, 2V and V(V - 1)/2, 20 seeds each, then one larger graph.
        for v in range(1, 14):
            max_edges = v * (v - 1) // 2
            for e in {v - 1, min(v, max_edges), min(2 * v, max_edges), max_edges}:
                for seed in range(20):
                    assert random_graph(v, e, seed) == oracles.random_graph(v, e, seed), (v, e, seed)
        assert random_graph(800, 3_200, 0) == oracles.random_graph(800, 3_200, 0)

    def test_no_array_of_all_node_pairs(self):
        # V(V - 1)/2 is about 2e6 pairs at V = 2,000: a list of them, or a V x V mask, would take tens of MB.
        tracemalloc.start()
        try:
            random_graph(2_000, 8_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6

    def test_a_generator_seed_is_used_as_it_is(self):
        # default_rng returns a Generator unchanged, so it draws as the seed it was made from.
        assert random_graph(12, 20, np.random.default_rng(5)) == random_graph(12, 20, 5)
        S = np.ones((4, 3))
        assert add_awgn(S, 10.0, np.random.default_rng(5)).tobytes() == add_awgn(S, 10.0, 5).tobytes()


def small_batch_setup(signal_class, seed=0, **kwargs):
    g = random_graph(12, 22, 3)
    d = spectral_decompose(build_incidence(g))
    defaults = dict(eta0=8, num_signals=50, seed=seed)
    defaults.update(kwargs)
    spec = SignalClassSpec(signal_class, **defaults)
    S, truth = gen_signals(d, spec)
    return d, S, truth


def support_columns(d, truth):
    """The support as full-basis columns, [minus block | harmonic columns | plus block], as synth's run.json holds it."""
    return truth.support + np.where(truth.support < d.rank, 0, d.dim - 2 * d.rank)


class TestGenSignals:
    def test_fully_coupled_lies_in_dirac_span(self):
        d, S, truth = small_batch_setup("fully_coupled")
        phi, _ = dirac_eigenbasis(d)
        # Supported non-harmonic columns sit at identical indices in the
        # Dirac layout, so the generating atoms are Dirac eigenvectors.
        atoms = phi[:, support_columns(d, truth)]
        q, _ = np.linalg.qr(atoms)
        residual = S - q @ (q.T @ S)
        assert np.max(np.abs(residual)) < 1e-10

    def test_fully_decoupled_k_is_zero(self):
        d, S, truth = small_batch_setup("fully_decoupled")
        assert_allclose(truth.k_modes, 0.0)

    def test_partially_coupled_partition(self):
        d, S, truth = small_batch_setup("partially_coupled")
        assert set(np.unique(truth.k_modes)) <= {0.0, 1.0}
        touched = np.unique(truth.support % d.rank)
        coupled = int(truth.k_modes[touched].sum())
        assert coupled == round(0.5 * touched.size)

    def test_mixture_profile_decays_with_frequency(self):
        d, S, truth = small_batch_setup("mixture_of_dirac")
        # sigma is stored descending, so the coupling must be non-decreasing
        # along the stored order (coupling degrades with frequency).
        assert np.all(np.diff(truth.k_modes) >= -1e-15)
        assert np.all((truth.k_modes > 0) & (truth.k_modes <= 1))

    def test_mixture_scale_is_median_sigma(self):
        d, S, truth = small_batch_setup("mixture_of_dirac")
        assert_allclose(truth.k_modes, 1.0 / (1.0 + (d.sigma / np.median(d.sigma)) ** 2), rtol=1e-15)

    def test_coupled_expansion_occupies_double_bandwidth(self):
        # Each coupled atom splits into one node mode and one edge mode, so a
        # support touching eta0 distinct mode pairs occupies 2*eta0 Laplacian
        # columns (seed 1 gives a collision-free support here).
        d, S, truth = small_batch_setup("fully_coupled", seed=1)
        assert np.unique(truth.support % d.rank).size == truth.support.size
        theta, _ = super_laplacian_eigenbasis(d)
        coeffs = theta.T @ S
        occupied = np.count_nonzero(np.linalg.norm(coeffs, axis=1) > 1e-8)
        assert occupied == 2 * truth.support.size

    def test_joint_omp_over_generating_dictionary_is_exact(self):
        d, S, truth = small_batch_setup("mixture_of_dirac", seed=4)
        basis = build_mass_basis(d, truth.k_modes, truth.k_modes)
        code = omp(basis, S, sparsity=truth.support.size)
        assert nmse(S, code.reconstruct(basis)) < 1e-10

    def test_coefficients_have_unit_variance(self):
        _, _, truth = small_batch_setup("fully_coupled", num_signals=2000)
        assert abs(truth.coefficients.std() - 1.0) < 0.05
        assert abs(truth.coefficients.mean()) < 0.05

    def test_reproducible(self):
        _, s1, t1 = small_batch_setup("mixture_of_dirac", seed=7)
        _, s2, t2 = small_batch_setup("mixture_of_dirac", seed=7)
        assert np.array_equal(s1, s2)
        assert np.array_equal(t1.support, t2.support)

    def test_batch_is_noiseless(self):
        # The generator adds no noise: the batch is the synthesis of the coefficients on the support.
        d, S, truth = small_batch_setup("partially_coupled", seed=2)
        basis = build_mass_basis(d, truth.k_modes, truth.k_modes)
        assert np.array_equal(S, basis[:, support_columns(d, truth)] @ truth.coefficients)

    @pytest.mark.parametrize("signal_class", SIGNAL_CLASSES)
    def test_truth_is_the_draw_from_sigma_alone(self, signal_class):
        # The batch is drawn from the rank and the singular values alone, then synthesized; the truth holds the draw.
        d, S, truth = small_batch_setup(signal_class, seed=3)
        drawn = draw_signals(d.rank, SignalClassSpec(signal_class, eta0=8, num_signals=50, seed=3), d.sigma)
        assert [f.name for f in dataclasses.fields(drawn)] == ["support", "coefficients", "k_modes"]
        for name in ("support", "coefficients", "k_modes"):
            assert np.array_equal(getattr(drawn, name), getattr(truth, name)), name

    def test_mixture_needs_sigma(self):
        spec = SignalClassSpec("mixture_of_dirac", eta0=4, num_signals=3, seed=0)
        with pytest.raises(ValueError, match="sigma"):
            draw_signals(5, spec)

    def test_eta0_too_large(self):
        g = random_graph(5, 6, 0)
        d = spectral_decompose(build_incidence(g))
        spec = SignalClassSpec("fully_coupled", eta0=2 * d.rank + 1, num_signals=3, seed=0)
        with pytest.raises(ValueError, match="eta0"):
            gen_signals(d, spec)
        with pytest.raises(ValueError, match="eta0"):
            draw_signals(d.rank, spec)

    def test_invalid_class_rejected(self):
        with pytest.raises(ValueError, match="signal_class"):
            SignalClassSpec("smooth", eta0=4, num_signals=2, seed=0)


class TestAddAwgn:
    def test_zero_db_means_unit_nmse(self, rng):
        S = rng.normal(size=(40, 50))
        ratios = []
        for seed in range(10):
            noisy = add_awgn(S, 0.0, seed)
            ratios.append(nmse(S, noisy))
        assert abs(np.mean(ratios) - 1.0) < 0.1

    def test_high_snr_vanishing_noise(self, rng):
        S = rng.normal(size=(10, 10))
        noisy = add_awgn(S, 200.0, 0)
        assert np.max(np.abs(noisy - S)) < 1e-8

    def test_empirical_snr_close_to_target(self, rng):
        # Monte Carlo check at (rows * cols) >= 1e4.
        S = rng.normal(size=(100, 120))
        for target in (3.0, 10.0):
            noisy = add_awgn(S, target, 1)
            measured = 10.0 * np.log10(np.linalg.norm(S) ** 2 / np.linalg.norm(noisy - S) ** 2)
            assert abs(measured - target) < 0.5

    def test_deterministic(self, rng):
        S = rng.normal(size=(6, 6))
        assert np.array_equal(add_awgn(S, 5.0, 9), add_awgn(S, 5.0, 9))
