"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class BranchViolationError(DomainError):
    """A matrix action would leave the cut plane or cross the branch cut."""


class RDomainError(DomainError):
    """The two-cut condition for the R-kernel fails.

    ``which`` names the offending difference: ``"zeta-z"`` or ``"zeta-zbar"``.
    """

    def __init__(self, which: str, value: complex):
        self.which = which
        self.value = value
        super().__init__(f"{which} = {value} lies on the cut (-inf, 0]")


class InvalidElementError(ValueError):
    """An integer matrix does not have determinant one."""


class InvalidWeightError(ValueError):
    """A weight is not half-integral (2k must be an integer)."""


class InvalidMultiplierError(ValueError):
    """Generator values fail the weight-k consistency relation."""


class UnsupportedParameterError(ValueError):
    """Special-function parameters outside the supported region."""


class UnsupportedSpectralParameterError(DomainError):
    """A transform requires |Re nu| < 1/2 and the form violates it."""


class DegenerateBijectionError(ValueError):
    """The bijection constants c*+- vanish for this (weight, nu) pair."""


class DivergentIntegralError(DomainError):
    """An endpoint singularity has exponent <= -1."""


class NonconvergenceError(RuntimeError):
    """Quadrature ran out of budget or levels, or could not truncate an end.

    Carries the partial value and its error estimate (inf when there is none).
    """

    def __init__(self, partial: complex, error: float, evaluations: int):
        self.partial = partial
        self.error = error
        self.evaluations = evaluations
        super().__init__(
            f"quadrature did not converge: partial={partial}, "
            f"error={error:.3e} after {evaluations} evaluations"
        )
