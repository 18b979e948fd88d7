"""Exception hierarchy.

Every error raised by the library derives from CoupclustError so callers can
catch one type at the boundary. The CLI maps subtrees to exit codes: config
errors -> 2, data errors -> 3, solver errors -> 4.
"""

import os
import sys
import warnings

__all__ = [
    "CoupclustError",
    "ConfigError",
    "DataError",
    "SolverError",
    "InvalidDistribution",
    "ZeroMarginal",
    "DimensionMismatch",
    "MarginalMismatch",
    "InvalidParams",
    "NonFinite",
    "DegenerateCluster",
    "RankDeficient",
    "LabelMismatch",
    "InvalidRating",
    "EmptyAfterPruning",
    "ParseError",
]


class CoupclustError(Exception):
    """Base class for all library errors."""


class ConfigError(CoupclustError):
    """Invalid configuration or parameters."""


class DataError(CoupclustError):
    """Malformed or degenerate input data."""


class SolverError(CoupclustError):
    """Numerical failure inside an iterative solver."""


class InvalidDistribution(DataError):
    """Vector is not a probability distribution (sum or sign violation)."""


class ZeroMarginal(DataError):
    """A marginal entry required to be strictly positive is zero."""


class DimensionMismatch(DataError):
    """Operand shapes are incompatible."""


class MarginalMismatch(DataError):
    """A matrix and its marginals fail a DTM identity."""


class InvalidParams(ConfigError):
    """Solver configuration violates its documented constraints."""


class NonFinite(SolverError):
    """An iterate picked up a NaN or infinity."""


class DegenerateCluster(SolverError):
    """A cluster emptied and could not be rescued."""


class RankDeficient(ConfigError):
    """Requested embedding dimension exceeds the numerical rank."""


class LabelMismatch(DataError):
    """Prediction and truth labelings cover different items."""


class InvalidRating(DataError):
    """Rating outside the 1..5 scale."""


class EmptyAfterPruning(DataError):
    """No rows or no columns survive zero-pruning."""


class ParseError(DataError):
    """Unparseable input file; carries 1-based line and byte offset."""

    def __init__(self, message: str, line: int, offset: int):
        super().__init__(f"line {line}, byte {offset}: {message}")
        self.line = line
        self.offset = offset


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def warn_caller(message: str) -> None:
    """A RuntimeWarning attributed to the first frame outside this package."""
    frame, level = sys._getframe(1), 2  # level 2 is the frame that called this
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)
