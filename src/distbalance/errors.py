"""Exception types shared across the package."""


class GraphError(Exception):
    """Base class for every error raised by this package."""


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class VertexOutOfRangeError(GraphError):
    """A vertex index lies outside 0..n-1."""


class DisconnectedGraphError(GraphError):
    """The operation requires a connected graph."""


class SizeMismatchError(GraphError):
    """Two graphs were expected to share the same vertex count."""


class EdgeListFormatError(GraphError):
    """Malformed edge-list text."""


class EmptySpecError(GraphError):
    """A branch specification with no branches."""


class ParameterTooSmallError(GraphError):
    """A family parameter below the smallest supported value."""


class NotATreeError(GraphError):
    """The input graph is not a tree."""


class UnsupportedFamilyError(GraphError):
    """No closed-form closure is available for this input."""


class PruneModeUnjustifiedError(GraphError):
    """Regular-mode pruning requested outside its domain of validity."""


class GraphTooLargeError(GraphError):
    """Vertex count exceeds a documented bound (graph.MAX_VERTICES, or
    search.MAX_SEARCH_VERTICES for the exhaustive search)."""


class SearchBudgetError(GraphError):
    """Search stopped before finding a witness.

    All levels k <= ``exhausted_k`` were fully enumerated without success,
    so the answer is certified to be at least ``exhausted_k + 1``.
    """

    def __init__(self, message: str, exhausted_k: int, explored: int):
        super().__init__(message)
        self.exhausted_k = exhausted_k
        self.explored = explored

    @property
    def lower_bound(self) -> int:
        return self.exhausted_k + 1
