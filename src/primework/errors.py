"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class InvalidArgument(WorkbenchError, ValueError):
    """An argument outside the range an operation accepts (a modulus
    below 2, an empty range, a composite where a prime is required).
    Also a ValueError, for callers that catch that."""


class ExpressionSyntaxError(WorkbenchError):
    """Raised when function text cannot be parsed.

    Carries the character position of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityError(WorkbenchError):
    """A variable index exceeds the declared arity."""


class DomainError(WorkbenchError):
    """Evaluation point outside the allowed domain."""


class EvaluationError(WorkbenchError):
    """Evaluation failed (negative exponent, non-positive base under a
    variable exponent, and similar structural problems)."""


class EvaluationBudgetExceeded(WorkbenchError):
    """An intermediate value would exceed the configured bit budget."""


class FactoringBudgetExceeded(WorkbenchError):
    """Pollard-rho effort exhausted.  The partial result so far is
    attached as .partial (a Factorization with complete=False)."""

    def __init__(self, partial):
        super().__init__(f"factoring budget exhausted on cofactor of {partial.n}")
        self.partial = partial


class MemoryBudgetExceeded(WorkbenchError):
    """A sieve request would exceed the configured memory cap."""


class ModuliNotCoprime(WorkbenchError):
    """CRT input moduli share a common factor."""


class NotCoprime(WorkbenchError):
    """An argument pair that must be coprime is not."""


class GRequiresPrime(WorkbenchError):
    """Mode G of the value-witness scan needs a prime modulus."""


class NotPolynomial(WorkbenchError):
    """Operation defined only for polynomial functions."""


class NotUnivariatePolynomial(WorkbenchError):
    """Operation defined only for univariate polynomials."""


class BoundFunctionMismatch(WorkbenchError):
    """A bound kind was paired with a function it does not apply to."""


class CapExceeded(WorkbenchError):
    """Distinct-value count exceeds the exact-solver cap."""
