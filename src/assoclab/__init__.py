"""Truncated free Lie algebra, associator, graph complex and weight-integral toolkit."""

__version__ = "0.1.1"
