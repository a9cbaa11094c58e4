"""Names shared by the numeric modules and the CLI, importable with the
standard library alone, so commands that need no numerics never load numpy."""

from __future__ import annotations

import enum
import math
import operator


class LossKind(enum.Enum):
    SIGMOID_SQUARED = "sigmoid-squared"
    QUADRATIC = "quadratic"


class ParseError(ValueError):
    """Malformed LIBSVM input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def whole(value, requirement: str) -> int:
    """``value`` as an int, if it is a whole number (an integer of any size,
    or a finite float with no fractional part); otherwise a ValueError that
    reads ``requirement``, then the value."""
    try:
        return operator.index(value)
    except TypeError:
        pass
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not x.is_integer():
        raise ValueError(f"{requirement}, got {value}")
    return int(x)
