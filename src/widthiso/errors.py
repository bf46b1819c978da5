class GraphError(Exception):
    """Base class for every error raised by this package."""


class InvalidVertexError(GraphError):
    pass


class EmptySetError(GraphError):
    pass


class DisconnectedGraphError(GraphError):
    pass


class InvalidDecompositionError(GraphError):
    pass


class NoAdmissibleMappingError(GraphError):
    pass


class WidthExceededError(GraphError):
    pass


class SizeMismatchError(GraphError):
    pass


class InvalidParamsError(GraphError):
    pass


class FormatError(GraphError):
    pass


class InternalError(Exception):
    """A broken internal invariant: a bug in this package, not bad input.

    Deliberately not a GraphError, so callers that handle input errors do
    not mistake it for one.
    """
