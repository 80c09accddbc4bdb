"""Exception hierarchy shared by all holesim modules. Each type carries the
exit code of the command line as ``exit_code``."""


class HolesimError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class GridMismatch(HolesimError):
    """Two fields that must share a grid do not."""

    exit_code = 3


class ResolutionError(HolesimError):
    """Requested field cannot be represented on the grid (too narrow, or
    tails above threshold at the domain boundary)."""

    exit_code = 4


class ZeroNormError(HolesimError):
    """Normalization of a zero field requested."""

    exit_code = 4


class NumericalBlowup(HolesimError):
    """Non-finite amplitudes appeared in a computation."""

    exit_code = 5


class NormViolation(HolesimError):
    """A state or observable violates its norm bound."""

    exit_code = 5


class DomainError(HolesimError):
    """Argument outside the mathematical domain of an operation."""

    exit_code = 6


class NonInvertibleDiffeo(HolesimError):
    """Requested coordinate map is not invertible (Jacobian bound failed)."""

    exit_code = 7


class UnderdeterminedFit(HolesimError):
    """Fringe data too sparse to recover the observable."""

    exit_code = 11


class SupportViolation(HolesimError):
    """Wavefunction mass leaked out of the declared support region."""

    exit_code = 8


class InsufficientDisplacement(HolesimError):
    """Displaced support region still overlaps the original one."""

    exit_code = 8


class DegenerateForm(HolesimError):
    """Sampled sesquilinear form is too ill-conditioned to invert."""

    exit_code = 9


class InvalidMeasure(HolesimError):
    """Supplied projector family is not a projector-valued measure."""

    exit_code = 9


class SignatureError(HolesimError):
    """Metric is not Lorentzian at some grid point."""

    exit_code = 10


class ConfigError(HolesimError):
    """One or more configuration entries failed validation.

    Carries the full list of messages so callers can report every
    problem at once instead of the first."""

    exit_code = 2

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class StabilityWarning(UserWarning):
    """Time step large enough that the potential phase per step exceeds
    the recommended bound."""
