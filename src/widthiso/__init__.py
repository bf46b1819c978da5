"""Isomorphism testing and canonization for graphs of bounded tree distance
width and bounded treewidth, built on interned traces of decomposition
subtrees and validated at small scale against a brute-force oracle."""

from .errors import (
    DisconnectedGraphError,
    EmptySetError,
    FormatError,
    GraphError,
    InternalError,
    InvalidDecompositionError,
    InvalidParamsError,
    InvalidVertexError,
    NoAdmissibleMappingError,
    SizeMismatchError,
    WidthExceededError,
)
from .graph import (
    Graph,
    connected_components,
    distance,
    induced_subgraph,
    is_connected,
    set_distance,
    vertex_set,
)
from .tdd import (
    TreeDistanceDecomposition,
    build_minimal_tdd,
    tree_distance_width,
    validate_tdd,
)
from .augtree import (
    AugmentedTree,
    SubtreeHandle,
    build_augmented_tree,
)
from .isoorder import (
    CanonicalForm,
    OrderResult,
    ThetaSet,
    canon_tdw,
    canonical_map,
    compare_augmented,
    full_theta,
    iso_tdw,
)
from .treewidth import (
    TreeDecomposition,
    compute_tree_decomposition,
    iso_one_decomp,
    iso_respecting_both,
    iso_tw,
    lex_subtree_order,
    validate_tree_decomposition,
)
from .oracle import (
    apply_permutation,
    brute_force_iso,
    compose_permutations,
    enumerate_connected_graphs,
    identity_permutation,
    inverse_permutation,
    is_isomorphism,
    is_permutation,
)
from .generate import InstanceBundle, generate_partial_ktree, random_relabel

__version__ = "0.1.0"

__all__ = [
    "AugmentedTree",
    "CanonicalForm",
    "DisconnectedGraphError",
    "EmptySetError",
    "FormatError",
    "Graph",
    "GraphError",
    "InstanceBundle",
    "InternalError",
    "InvalidDecompositionError",
    "InvalidParamsError",
    "InvalidVertexError",
    "NoAdmissibleMappingError",
    "OrderResult",
    "SizeMismatchError",
    "SubtreeHandle",
    "ThetaSet",
    "TreeDecomposition",
    "TreeDistanceDecomposition",
    "WidthExceededError",
    "apply_permutation",
    "brute_force_iso",
    "build_augmented_tree",
    "build_minimal_tdd",
    "canon_tdw",
    "canonical_map",
    "compare_augmented",
    "compose_permutations",
    "compute_tree_decomposition",
    "connected_components",
    "distance",
    "enumerate_connected_graphs",
    "full_theta",
    "generate_partial_ktree",
    "identity_permutation",
    "induced_subgraph",
    "inverse_permutation",
    "is_connected",
    "is_isomorphism",
    "is_permutation",
    "iso_one_decomp",
    "iso_respecting_both",
    "iso_tdw",
    "iso_tw",
    "lex_subtree_order",
    "random_relabel",
    "set_distance",
    "tree_distance_width",
    "validate_tdd",
    "validate_tree_decomposition",
    "vertex_set",
]
