"""Exception types shared across the toolkit.

Validation errors carry the numeric margin by which the check failed so
callers can report it; numerical errors mark inputs that are structurally
fine but outside the generic regime the algorithms require.
"""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(ToolkitError):
    """Operands are defined over incompatible system shapes."""


class UnsupportedShape(ToolkitError):
    """The operation is only defined for certain shapes (e.g. 1-3 qubits)."""


class ParseError(ToolkitError):
    """A file could not be parsed; the message names the offending field."""


class ValidationError(ToolkitError):
    """An input failed a structural invariant.

    ``margin`` is the signed amount by which the check failed (e.g. the
    smallest eigenvalue for a positivity failure).
    """

    def __init__(self, message: str, margin: float | None = None):
        super().__init__(message)
        self.margin = margin


class NotHermitian(ValidationError):
    pass


class TraceNotOne(ValidationError):
    pass


class NotPositive(ValidationError):
    pass


class BadRank(ValidationError):
    pass


class NotSpecialUnitary(ValidationError):
    pass


class NotSpecialOrthogonal(ValidationError):
    pass


class NumericalError(ToolkitError):
    """Base class for failures of genericity or consistency thresholds."""


class InconsistentTraces(NumericalError):
    """Power sums do not correspond to a real nonnegative 3x3 spectrum."""


class DegenerateSpectrum(NumericalError):
    """A Gram spectrum has (near-)coincident eigenvalues."""


class ZeroSignInvariant(NumericalError):
    """A sign-fixing invariant is too close to zero to orient components."""


class NegativeSquare(NumericalError):
    """A squared component came out significantly negative."""


class SingularSystem(NumericalError):
    """A linear system needed for inversion is (near-)singular."""


class ConstraintViolation(NumericalError):
    """Recovered data violates a consistency constraint it must satisfy."""


def _raise_first(errors) -> None:
    """Raise the first error of a batch's per-member errors (None where a member passed),
    so member 1's error comes before member 2's."""
    for error in errors:
        if error is not None:
            raise error
