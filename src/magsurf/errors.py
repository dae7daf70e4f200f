"""Exception hierarchy for the magsurf package."""


class MagsurfError(Exception):
    """Base class for all package errors."""


class DomainError(MagsurfError):
    """A chart point lies outside the valid domain of its chart."""


class DegenerateInputError(MagsurfError):
    """An input is degenerate (zero vector, empty polygon, ...)."""


class UnsupportedError(MagsurfError):
    """The requested quantity is not defined for this surface or system."""


class NoGlobalPrimitiveError(MagsurfError):
    """The 2-form has nonzero total flux, so no global primitive exists."""


class NoReturnError(MagsurfError):
    """A trajectory failed to return to the section within the time budget."""


class NoConvergenceError(MagsurfError):
    """An iterative solver exhausted its budget without converging."""


class InvalidCandidateError(MagsurfError):
    """A contact-form candidate fails its consistency requirements."""


class NoBracketError(MagsurfError):
    """The functional is still negative at the upper energy of a search."""


class ConfigError(MagsurfError):
    """A run configuration file is malformed or inconsistent."""
