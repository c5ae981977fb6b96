"""Exception types shared across the package."""


class MaxprodError(Exception):
    """Base class for library-specific failures."""


class InvalidInputError(MaxprodError, ValueError):
    """An argument a library entry point rejects: a scale, a domain,
    evaluation points or a mean table it cannot take."""


class UnknownNameError(MaxprodError):
    """A catalog lookup (kernel, phi-function or signal name) failed."""


class InadmissibleKernelError(MaxprodError):
    """The kernel fails the admissibility gate for the requested domain."""


class EmptyIndexSetError(MaxprodError):
    """The lattice index set is empty for the requested scale."""


class TruncationError(MaxprodError):
    """No certificate is available to truncate an infinite lattice sum or
    supremum (missing decay order / compact support), or the truncated
    series fails to converge."""


class QuadratureError(MaxprodError):
    """Adaptive quadrature did not converge.  Distinct from a divergent
    integral, which is reported as ``math.inf``."""
