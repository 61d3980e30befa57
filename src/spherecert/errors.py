"""Exception types shared across the package, and the integer check that
raises one."""


class ParameterError(ValueError):
    """An argument is outside the range an operation accepts."""


class DomainError(ValueError):
    """An evaluation point lies outside the function's domain."""


class CapabilityError(ValueError):
    """The request is valid but beyond what this implementation supports."""


class AmbiguityError(ValueError):
    """Clustering could not separate nearby values at the given tolerance."""


class PreconditionError(ValueError):
    """A documented precondition of the operation does not hold."""


def integer(what: str, x) -> int:
    """x as an int, refusing what is not integral: 4 and 4.0 pass, 4.7 does not."""
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParameterError(f"{what} must be an integer, got {x!r}")
