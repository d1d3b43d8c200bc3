"""Exception hierarchy for the simulator."""


class BlockEncError(Exception):
    """Base class for all library errors."""


class CapacityError(BlockEncError):
    """A requested register exceeds the simulated-qubit budget."""


class NormError(BlockEncError):
    """A matrix violates a required norm bound (e.g. ||B|| > 1 for a dilation)."""


class DimensionError(BlockEncError):
    """Operands have incompatible dimensions."""


class PreconditionError(BlockEncError):
    """A contract precondition failed (noisy input, parameter out of range, ...)."""


class SpectrumError(BlockEncError):
    """Eigenvalues or singular values lie outside the required interval."""


class IndexRangeError(BlockEncError, IndexError):
    """Tree or oracle index out of range."""


class ZeroVectorError(BlockEncError):
    """A queried row or vector has zero norm and cannot be normalized."""


class SparsityError(BlockEncError):
    """The declared sparsity bound is violated by the actual oracle data."""


class OverlapError(BlockEncError):
    """Measured overlap with the relevant column space is below the stated bound."""


class GraphError(BlockEncError):
    """A network input is malformed (disconnected graph, weight out of range, ...)."""


class ConfigError(BlockEncError):
    """An experiment configuration is invalid."""
