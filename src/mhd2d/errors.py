"""Exception types raised across the package.

Parameter/config problems derive from ValidationError; runtime solver
failures and malformed files get their own classes so callers can map
them to exit codes.
"""


class Mhd2dError(Exception):
    """Base class for all package errors."""


class ValidationError(Mhd2dError):
    """A parameter or configuration violates an admissibility condition."""


class ViscosityInadmissible(ValidationError):
    pass


class GammaTooSmall(ValidationError):
    pass


class AdiabaticExponentInadmissible(ValidationError):
    pass


class BoundViolation(ValidationError):
    """Initial data escapes its declared positive bounds."""


class ParseError(Mhd2dError):
    """Config text could not be parsed; message carries line/key context."""


class NonpositiveField(Mhd2dError):
    pass


class DegenerateState(Mhd2dError):
    pass


class PositivityLoss(Mhd2dError):
    """A field that must stay positive did not; aborts the run."""


class LinearSolveDivergence(Mhd2dError):
    """Iterative linear solve hit its iteration cap before converging."""


class SupportNotCovered(Mhd2dError):
    """A test function's support leaves the snapshots' time span or the domain."""


class GridMismatch(Mhd2dError):
    """Two trajectories do not share grid and snapshot times."""


class FormatError(Mhd2dError):
    """Snapshot file has bad magic, version, or dimensions."""


class DegenerateInput(Mhd2dError):
    pass
