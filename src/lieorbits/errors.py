"""Exception hierarchy shared by the lieorbits modules."""


class LieOrbitsError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(LieOrbitsError):
    """A square linear system has no unique solution."""


class InvalidType(LieOrbitsError):
    """A simple-type letter/rank pair outside the classification bounds."""


class RankTooSmall(LieOrbitsError):
    """The operation needs rank >= 2 (the extended A1 diagram is a double edge)."""


class NonIntegralWeights(LieOrbitsError):
    """A weighted diagram with non-integer weights where integers are required."""


class OutOfRangeParams(LieOrbitsError):
    """Real-form parameters outside the catalog bounds."""


class FormNameError(LieOrbitsError):
    """A real-form name that does not parse under the name grammar."""


class InconsistentDiagram(LieOrbitsError):
    """A Satake diagram violating an involution invariant (mis-transcribed data).

    `failures` holds the (check, message) pairs of the violated invariants:
    the structural ones, when the diagram's black nodes or arrows are
    malformed, or those of the built involution.  It is empty for any other
    error raised while building the involution.
    """

    def __init__(self, message: str, failures: tuple[tuple[str, str], ...] = ()):
        super().__init__(message)
        self.failures = failures


class UnrecognizedSystem(LieOrbitsError):
    """A restricted root system that matches no classified Cartan type."""


class TypeMismatch(LieOrbitsError):
    """Two diagram-like values built over different simple types."""


class InvalidReport(LieOrbitsError):
    """A serialized orbit report with a missing or unknown field, a value of
    the wrong type, or values no report holds together."""
