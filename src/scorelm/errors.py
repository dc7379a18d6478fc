"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Raised when data passed to an operation violates its contract
    (non-finite logits, out-of-range index, dimension mismatch, ...)."""


class ParameterDomainError(ValueError):
    """Raised when a method parameter lies outside its mathematical domain
    (alpha <= 1, eps outside [0, 1], a search space beyond the stated bound)."""


class ConfigurationError(ValueError):
    """Raised when a configuration combination is inconsistent
    (mask enhancement with eps = 0, mismatched fine-tune configs, ...)."""


class ConvergenceError(ValueError):
    """Raised when an iterative solver stops short of its tolerance
    (entmax bisection after its iteration budget)."""


class CheckpointError(ValueError):
    """Base class for checkpoint persistence failures."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint declares an unsupported format version."""


class CheckpointShapeError(CheckpointError):
    """Checkpoint tensors do not match the declared model config."""


class CheckpointFormatError(CheckpointError):
    """Checkpoint document is malformed or truncated."""
