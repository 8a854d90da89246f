"""Exception types shared across the package."""


class DuadicError(Exception):
    """Base class for errors raised by this package."""


class NoSplittingError(DuadicError):
    """No splitting exists for the requested (group, field, antiautomorphism)."""


class VerificationError(DuadicError):
    """An internal invariant that should hold by theorem failed; indicates a bug."""


class EnumerationCapError(DuadicError):
    """An exhaustive enumeration would exceed the configured cap."""


class CayleyFormatError(DuadicError):
    """Malformed Cayley-table or permutation file; carries line/column info."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.column = column
