"""Joint node-edge signal processing on graphs.

Spectral bases for topological spinors (stacked node+edge signals), all read
off one SVD of the incidence matrix, the Dirac-Laplacian tight frame, a
coupling-parameterized transform bridging the two, sparse coding utilities,
the closed-form per-mode coupling that the studies learn, and an ADMM solver
(DDTL) that learns couplings and row-sparse codes from data.  The dense
(V+E) x (V+E) bases stay library functions; of the commands, only
``ddtl-fit`` builds one.
"""

from .ddtl import (
    ConvergenceReport,
    DdtlConfig,
    DdtlSolution,
    DdtlState,
    NumericalDivergenceError,
    ddtl_fit,
    fit_coupling,
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
from .transform import (
    build_mass_basis,
    coupling_to_mass,
    mass_to_coupling,
)

__version__ = "0.1.0"
