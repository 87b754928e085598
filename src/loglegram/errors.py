"""Exception types shared across the package."""


class OrderLimitError(ValueError):
    """A polynomial order exceeds the configured ceiling."""
