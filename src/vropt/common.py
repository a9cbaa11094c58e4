"""Names shared by the numeric modules and the CLI, importable with the
standard library alone, so commands that need no numerics never load numpy."""

from __future__ import annotations

import enum


class LossKind(enum.Enum):
    SIGMOID_SQUARED = "sigmoid-squared"
    QUADRATIC = "quadratic"


class ParseError(ValueError):
    """Malformed LIBSVM input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
