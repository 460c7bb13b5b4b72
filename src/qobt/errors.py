"""Exception hierarchy shared across the package."""


class QobtError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(QobtError):
    """Matrix shapes are inconsistent with each other or with declared sizes."""


class SingularPencil(QobtError):
    """The pencil s*E - A is numerically singular at every probe shift."""


class AsymmetricQuadraticForm(QobtError):
    """A quadratic-form matrix is too far from symmetric to repair."""


class ManifestError(QobtError):
    """A system manifest file is missing, malformed, or inconsistent."""


class SignalParseError(QobtError):
    """An input-signal expression is outside the differentiable grammar."""


class UnstableProperPart(QobtError):
    """The finite spectrum has an eigenvalue with nonnegative real part."""


class IndefiniteMatrix(QobtError):
    """A matrix that must be positive semidefinite has a significant negative eigenvalue."""


class NothingObservable(QobtError):
    """All Hankel values vanish; there is nothing to keep in a reduced model."""


class InconsistentInitialState(QobtError):
    """Supplied initial state does not match the consistent initial value."""


class GridMismatch(QobtError):
    """Two trajectories do not share the same time grid."""


class InvalidGrid(QobtError):
    """Benchmark grid parameter out of range."""


class InvalidParams(QobtError):
    """Benchmark parameters are inconsistent or out of range."""
