"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the operation's domain (bad index, bad range, ...)."""


class ResourceCapError(RuntimeError):
    """An exhaustive enumeration would exceed its configured cap."""


class ValidationError(ValueError):
    """A structural axiom failed: directedness, the forest axioms, or a psi
    instance that matches no delta1 literal."""


class ModelFormatError(ValueError):
    """A model file could not be parsed into a valid model."""
