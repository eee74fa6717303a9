"""Graph substrate: CSR structure, permutations, I/O, generators."""

from repro.graph.fingerprint import fingerprint_key, graph_fingerprint
from repro.graph.npz import load_npz, save_npz
from repro.graph.ops import as_undirected, in_degrees, out_degrees, reorder_directed
from repro.graph.csr import CSRGraph, coalesce_edges
from repro.graph.perm import (
    apply_permutation_to_values,
    compose_permutations,
    identity_permutation,
    invert_permutation,
    permutation_from_order,
    random_permutation,
    validate_permutation,
)
from repro.graph.validate import (
    check_csr_invariants,
    is_sorted_within_rows,
    require_symmetric,
)

__all__ = [
    "CSRGraph",
    "graph_fingerprint",
    "fingerprint_key",
    "save_npz",
    "load_npz",
    "as_undirected",
    "reorder_directed",
    "in_degrees",
    "out_degrees",
    "coalesce_edges",
    "validate_permutation",
    "invert_permutation",
    "compose_permutations",
    "identity_permutation",
    "random_permutation",
    "permutation_from_order",
    "apply_permutation_to_values",
    "check_csr_invariants",
    "is_sorted_within_rows",
    "require_symmetric",
]
