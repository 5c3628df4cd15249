"""Exception types shared across the package."""


class LatcoverError(Exception):
    """Base class for all package-specific errors."""


class SpecInvalid(LatcoverError):
    """A group construction expression violates its family constraints."""


class OrderCapExceeded(LatcoverError):
    """A requested group would exceed the configured order cap."""


class SubgroupCapExceeded(LatcoverError):
    """Subgroup enumeration grew past the configured cap."""


class PrimeNotInOrder(LatcoverError):
    """A prime argument does not divide the group order."""
