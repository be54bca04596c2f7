"""Errors that mean "the mathematics said no", not "the input is broken".

Every class derives from ``CertifiedFailure``; the command line reports
these with exit status 1 and the class name in the report's ``error``
field. Each also keeps its ``ValueError`` or ``RuntimeError`` base, so
callers that catch those still catch it.
"""


class CertifiedFailure(Exception):
    """A certified check or a theorem's hypothesis failed on the data."""


class NotAFrame(CertifiedFailure, ValueError):
    """Vector family does not span, so the lower frame bound is zero."""


class HypothesisViolated(CertifiedFailure, ValueError):
    """A theorem's hypothesis fails, so no certificate can be issued."""


class NotADual(CertifiedFailure, ValueError):
    """Candidate operators fail to produce a dual pair."""


class NotInvertible(CertifiedFailure, ValueError):
    """Matrix is singular to working precision."""


class ConvergenceError(CertifiedFailure, RuntimeError):
    """Fixed-point iteration ran out of iterations."""

    def __init__(self, iterations: int, contraction: float, last_delta: float):
        self.iterations = iterations
        self.contraction = contraction
        self.last_delta = last_delta
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(contraction estimate {contraction:.3g}, last delta {last_delta:.3g})"
        )
