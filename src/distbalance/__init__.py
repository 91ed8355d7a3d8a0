"""Distance-balanced graph analysis and minimal balancing closures."""

__version__ = "0.2.0"

from .errors import (
    DisconnectedGraphError,
    EdgeListFormatError,
    EmptySpecError,
    GraphError,
    GraphTooLargeError,
    NotATreeError,
    ParameterTooSmallError,
    PruneModeUnjustifiedError,
    SearchBudgetError,
    SelfLoopError,
    SizeMismatchError,
    UnsupportedFamilyError,
    VertexOutOfRangeError,
)
from .graph import (
    Graph,
    add_edges,
    complement_edges,
    complete_graph,
    cycle_graph,
    diameter,
    from_edge_list,
    is_connected,
    is_spanning_subgraph,
    path_graph,
    regular_degree,
    relabel,
)
from .edgelist import (
    format_edge_list,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)
from .analysis import (
    EdgeBalance,
    ImbalanceReport,
    imbalance_report,
    is_distance_balanced,
    szeged_index,
)
from .trees import (
    FamilyTag,
    StarlikeSpec,
    TreeFamily,
    broom,
    canonical_family_tree,
    classify_tree,
    is_tree,
    starlike,
)
from .closure import (
    Certificate,
    ClosureResult,
    construct_closure,
    minimum_additions_formula,
    verify_closure,
)
from .search import (
    MAX_SEARCH_VERTICES,
    LevelStats,
    SearchConfig,
    SearchResult,
    search_minimum_additions,
)

__all__ = [
    "__version__",
    "DisconnectedGraphError", "EdgeListFormatError", "EmptySpecError",
    "GraphError", "GraphTooLargeError", "NotATreeError",
    "ParameterTooSmallError", "PruneModeUnjustifiedError",
    "SearchBudgetError", "SelfLoopError", "SizeMismatchError",
    "UnsupportedFamilyError", "VertexOutOfRangeError",
    "Graph", "add_edges", "complement_edges", "complete_graph", "cycle_graph",
    "diameter", "from_edge_list", "is_connected", "is_spanning_subgraph",
    "path_graph", "regular_degree", "relabel",
    "format_edge_list", "parse_edge_list", "read_edge_list", "write_edge_list",
    "EdgeBalance", "ImbalanceReport", "imbalance_report",
    "is_distance_balanced", "szeged_index",
    "FamilyTag", "StarlikeSpec", "TreeFamily", "broom",
    "canonical_family_tree", "classify_tree", "is_tree", "starlike",
    "Certificate", "ClosureResult", "construct_closure",
    "minimum_additions_formula", "verify_closure",
    "MAX_SEARCH_VERTICES", "LevelStats", "SearchConfig", "SearchResult",
    "search_minimum_additions",
]
