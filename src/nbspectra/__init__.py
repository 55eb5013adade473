"""Non-backtracking graph operators, spectra, perturbation bounds, clustering."""

from .graph import (
    OrientedEdgeIndex,
    SimpleGraph,
    connected_components,
    from_edge_list,
    is_bipartite,
    is_cycle_graph,
    oriented_edges,
    two_core,
)
from .nbmat import (
    apply_V,
    build_B,
    build_D_col,
    build_D_row,
    build_End,
    build_L,
    build_Start,
    build_T,
    frobenius_norm,
    spectral_norm,
    transpose,
)
from .spectra import (
    RealEigenBasis,
    Spectrum,
    classify_spectrum,
    closed_form_singular_values_B,
    dense_eigendecomposition,
    leading_real_eigenpairs,
    node_sums,
    real_eigenbasis_T,
)
from .sbm import SbmParams, SbmSample, expected_adjacency, expected_quantities, sample
from .perturb import (
    BoundReport,
    bauer_fike_radius,
    bound_report,
    match_and_verify,
    paper_R_bound,
    spectral_condition_number,
)
from .cluster import (
    ClusterAssignment,
    Embedding,
    deflate_to_nodes,
    edge_embedding,
    node_labels_from_edge_labels,
    overlap,
    pipeline,
    weighted_kmeans,
)

__version__ = "0.1.0"
