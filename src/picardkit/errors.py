"""Exception types shared across the library."""


class DomainError(ValueError):
    """A value left the domain an operation is defined on (non-finite,
    negative where nonnegativity is required, or outside the carrier)."""


class DimensionError(ValueError):
    """Two grid functions do not share a grid."""

