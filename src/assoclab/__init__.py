"""Truncated free Lie algebra, associator, graph complex and weight-integral toolkit."""

__version__ = "0.1.1"


class CheckError(ValueError):
    """A requested check or tolerance was not met; the CLI exits 2 on it."""
