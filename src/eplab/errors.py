"""Exception types shared across the toolkit."""

import numbers


class EplabError(Exception):
    """Base class for all toolkit errors."""


class InputError(EplabError, ValueError):
    """Invalid input: non-finite entries, bad shapes, invalid parameters."""


class DimensionMismatchError(InputError):
    """Operands whose dimensions are required to agree do not."""


class TrivialSubspaceError(InputError):
    """An angle was requested between subspaces where one is the zero space."""


class InapplicableError(EplabError):
    """A decision procedure was invoked outside its stated hypotheses."""


class CmatParseError(InputError):
    """Malformed matrix file; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def require_known(name, names, what):
    """Raise InputError, listing the known ``names``, unless ``name`` is one."""
    if name not in names:
        raise InputError(f"unknown {what} {name!r}; known: {', '.join(sorted(names))}")


def require_count(value, what, least):
    """``value`` as an int; raises InputError unless it is a non-bool integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        kind = "positive" if least else "nonnegative"
        raise InputError(f"{what} must be a {kind} integer, got {value!r}")
    return int(value)
