"""Analysis algorithms: the workloads whose locality reordering improves."""

from repro.analysis.components import (
    ComponentsResult,
    connected_components,
    largest_component,
)
from repro.analysis.diameter import (
    PseudoDiameterResult,
    pseudo_diameter,
    pseudo_peripheral_vertex,
)
from repro.analysis.kcore import core_numbers, kcore_subgraph
from repro.analysis.pagerank import (
    DEFAULT_TELEPORT,
    DEFAULT_TOLERANCE,
    PageRankResult,
    pagerank,
)
from repro.analysis.rwr import RWRResult, random_walk_with_restart
from repro.analysis.scc import SCCResult, strongly_connected_components
from repro.analysis.spmv import spmv, spmv_naive
from repro.analysis.traversal import (
    BFSResult,
    DFSResult,
    bfs,
    bfs_forest,
    dfs,
    dfs_forest,
)

__all__ = [
    "spmv",
    "spmv_naive",
    "pagerank",
    "PageRankResult",
    "DEFAULT_TELEPORT",
    "DEFAULT_TOLERANCE",
    "bfs",
    "bfs_forest",
    "dfs",
    "dfs_forest",
    "BFSResult",
    "DFSResult",
    "strongly_connected_components",
    "SCCResult",
    "random_walk_with_restart",
    "RWRResult",
    "pseudo_diameter",
    "pseudo_peripheral_vertex",
    "PseudoDiameterResult",
    "core_numbers",
    "kcore_subgraph",
    "connected_components",
    "largest_component",
    "ComponentsResult",
]
