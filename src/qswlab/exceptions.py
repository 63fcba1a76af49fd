"""Error types shared across the package."""


class QswlabError(Exception):
    """Base class for all package errors."""


class DimensionError(QswlabError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class NumericalError(QswlabError, RuntimeError):
    """A numerical check failed: a routine did not converge, or a result
    is not finite or misses its stated tolerance."""


class IsolatedVertexError(QswlabError, ValueError):
    """Normalized Laplacian requested for a graph with a degree-0 vertex."""


class DisconnectedGraphError(QswlabError, ValueError):
    """Operation requires a connected graph."""


class ProbabilityOverflowError(QswlabError, ValueError):
    """A pair probability in the Chung-Lu model exceeds 1."""


class NonOrthogonalColumnsError(QswlabError, ValueError):
    """A per-vertex Lindblad family matrix has non-orthogonal columns."""


class WrongTopologyError(QswlabError, ValueError):
    """The graph does not have the topology required by the operation."""


class DegenerateTopError(QswlabError, ValueError):
    """Top eigenvalue is degenerate; shift-and-rescale and the search
    spectral sums are undefined."""


class ZeroOverlapError(QswlabError, ValueError):
    """The marked vertex has no overlap with the principal eigenvector, so
    the search started there can never find it."""


class TimeGridError(QswlabError, ValueError):
    """Times are negative or non-finite, or a grid is empty, not 1-D or not
    strictly ascending."""


class NonPositiveDataError(QswlabError, ValueError):
    """Log-log slopes were asked of times or values that are not all
    positive, such as a second moment that is still exactly 0."""


class ParameterRangeError(QswlabError, ValueError):
    """A parameter, such as the interpolation weight omega, an edge
    probability, a vertex label or a graph matrix kind, lies outside its
    domain or is not finite."""


class MalformedGraphError(QswlabError, ValueError):
    """A vertex pair of a graph has a vertex out of range or is a
    self-loop, or a graph document is not the JSON object `from_json`
    reads."""


class DensityInvariantViolated(QswlabError, RuntimeError):
    """Evolved state drifted beyond density-matrix tolerances."""
