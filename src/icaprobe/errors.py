"""Exception types shared across the package."""


class AccuracyError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether the partial result is usable.
    """

    def __init__(self, message, best_estimate, error_bound):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


class DegenerateDataError(ValueError):
    """Input data has no usable variation (constant rows, zero variance)."""


class DegenerateSampleError(ValueError):
    """Sample is unusable for a continuous-density estimator (mass ties)."""


class DegenerateGError(ValueError):
    """G is absorbed exactly by the quadratic correction; K would be 0/0."""


class InvalidDensityError(ValueError):
    """A claimed density takes negative values beyond tolerance."""


class ConvergenceError(RuntimeError):
    """Iterative solver did not converge; carries the last residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InfeasibleConstraintError(ConvergenceError):
    """The constraint value lies outside the proven range of E[K].

    Carries the value ``c``, the violated ``bound`` and its ``side``
    (``"lower"`` or ``"upper"``); no surrogate density exists there.
    """

    def __init__(self, c, bound, side, margin):
        super().__init__(
            f"constraint value {c:.6g} lies past the {side} bound {bound:.6g} of the "
            f"feasible moment range (margin {margin:g}); no surrogate exists there"
        )
        self.c = c
        self.bound = bound
        self.side = side


class StepDegenerateError(RuntimeError):
    """Fixed-point update collapsed to the zero vector."""


class GenerationError(RuntimeError):
    """Data generator exhausted its round budget; carries achieved count."""

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


class OptimizationError(RuntimeError):
    """All optimizer restarts failed to produce a finite objective."""
