"""Joint node-edge signal processing on graphs: topological spinors (stacked node and edge signals).

Modules: ``topology`` (oriented graphs, the incidence matrix, its SVD, the
Dirac and Laplacian eigenbases, the projection into spectral coordinates);
``planes`` (the plane model, one 2-D plane per non-harmonic mode: the
closed-form coupling the studies learn, atom energies, the per-plane pursuit,
the truncation kernel and the mass map); ``synth`` (random graphs, signal
classes, noise); ``experiments`` and ``cli`` (the five commands); ``io``
(their files); ``ddtl`` (the ADMM of ``ddtl-fit``); ``sparse`` (dense joint
OMP, NMSE and the ADMM's retractions); ``transform`` (the dense
coupling-parameterized basis); ``frames`` (the Dirac-Laplacian tight frame).
Of the commands, only ``ddtl-fit`` builds a dense (V+E) x (V+E) basis.
"""

from .ddtl import (
    ConvergenceReport,
    DdtlConfig,
    DdtlSolution,
    DdtlState,
    NumericalDivergenceError,
    ddtl_fit,
)
from .frames import DiracLaplacianFrame, build_frame
from .io import (
    EdgeListParseError,
    ResultTable,
    load_dataset,
    load_edge_list,
    load_results,
    load_time_series,
    save_dataset,
    save_edge_list,
    save_results,
)
from .planes import coupling_to_mass, fit_coupling, mass_to_coupling
from .sparse import SparseCode, column_normalize, nmse, omp, row_hard_threshold
from .synth import GroundTruth, SignalClassSpec, add_awgn, gen_signals, random_graph
from .topology import (
    GraphError,
    OrientedGraph,
    SpectralDecomposition,
    build_incidence,
    dirac_eigenbasis,
    spectral_decompose,
    super_laplacian_eigenbasis,
)
from .transform import build_mass_basis

__version__ = "0.1.0"
