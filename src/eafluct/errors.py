"""Exception hierarchy shared across the package."""


class EafluctError(Exception):
    """Base class for all errors raised by this package."""


class ContainmentError(EafluctError):
    """A site, edge, or region is not contained where it must be."""


class OutOfBoundsError(EafluctError):
    """A translation left an open region."""


class PartitionError(EafluctError):
    """A block partition request does not tile the region."""


class UndeclaredEdgeError(EafluctError):
    """Lookup of an edge that carries no coupling."""


class IncompleteAssignmentError(EafluctError):
    """A value map does not cover every edge it must cover."""


class UnsupportedOperationError(EafluctError):
    """The requested operation is not defined for these inputs."""


class SizeCapError(EafluctError):
    """A solver size cap was exceeded."""


class PairError(EafluctError):
    """A state pair violates its construction invariants."""


class BoundViolationError(EafluctError):
    """A deterministic inequality was violated; carries the instance dump."""


class ConfigError(EafluctError, ValueError):
    """An experiment configuration, or a library call that sets one up, is malformed."""


class IncompleteRunError(EafluctError):
    """A report was requested from an incomplete or empty record set."""


class OracleMismatchError(EafluctError):
    """Cross-validation between independent solvers failed."""


class TaskError(EafluctError):
    """An experiment task failed; the original exception is its ``__cause__``."""
