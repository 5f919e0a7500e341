"""Exception hierarchy. Exit codes: 2 configuration, 3 numerical, 4 I/O."""


class FlagoptError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(FlagoptError):
    """Invalid configuration, dimensions, or violated preconditions."""

    exit_code = 2


class NotNiceError(ConfigError):
    """A map's certificate condition failed (named condition in the message)."""


class NumericalError(FlagoptError):
    """A numerical computation failed or fell outside its guaranteed accuracy."""

    exit_code = 3


class DegenerateSubproblemError(NumericalError):
    """A proximal subproblem is (near-)singular and has no unique minimizer."""


class UnreliableReferenceError(NumericalError):
    """The reference could not be trusted: face polish found no verified KKT
    point within its rounds, or the two independent reference routes
    disagree beyond tolerance."""


class DataError(FlagoptError):
    """Malformed or unreadable input/output artifact."""

    exit_code = 4
