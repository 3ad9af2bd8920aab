"""Shared experiment-harness utilities used by ``benchmarks/``."""

from .harness import Series, Table

__all__ = ["Table", "Series"]
