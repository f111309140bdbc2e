"""Exact enumeration of consecutive pattern occurrences in permutations.

Builds the labeled overlap graph of a reduced pattern collection, counts
q-clusters by recurrence (with exhaustive oracles for validation), assembles
exact bivariate generating functions, decides strong c-Wilf equivalence, and
emits and verifies linear ODE systems for monotone collections.
"""

from .clusters import (
    Cluster,
    ClusterTable,
    cluster_counts,
    cluster_counts_single_pattern,
    count_clusters_oracle,
    enumerate_clusters_oracle,
)
from .equivalence import (
    PatternBijection,
    SearchBudgetError,
    any_monotone_corollary_bijection,
    any_theorem13_bijection,
    check_monotone_corollary,
    check_theorem13,
    classify_s5,
    graphs_isomorphic,
    verify_strong_equivalence,
)
from .graph import (
    EdgeLabel,
    LeafBudgetError,
    NotReducedError,
    OverlapGraph,
    PatternCollection,
    build_graph,
    graph_to_dot,
    is_monotone,
)
from .monotone import (
    OdeSystem,
    OdeTerm,
    emit_ode_system,
    emit_single_pattern_ode,
    monotone_cluster_counts,
    monotone_vertex_series,
    verify_ode,
)
from .perms import (
    DomainError,
    divides,
    occurrences,
    parse_perm,
    standardize,
    symmetry_orbit,
)
from .series import (
    BiSeries,
    alpha_counts,
    avoidance_gf,
    cluster_gf,
    count_distribution_oracle,
)

__version__ = "0.1.0"
