"""Exception hierarchy.

Every error raised by the library derives from CoupclustError so callers can
catch one type at the boundary. There is one family per CLI exit code:
ConfigError -> 2, DataError -> 3, SolverError -> 4 (a solver that fails,
or a DTM spectrum that breaks its invariants). ParseError is the one
subclass, a DataError that carries the line and byte offset of a bad input
line.
"""

import os
import sys
import warnings

__all__ = [
    "CoupclustError",
    "ConfigError",
    "DataError",
    "SolverError",
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
