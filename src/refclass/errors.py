"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` used by the CLI to
render single-line ``error:<code>:<message>`` diagnostics.
"""

from __future__ import annotations


class RefclassError(Exception):
    """Base class for all errors raised by this package."""

    code = "internal"


class InputError(RefclassError):
    """An input fault, optionally located by line number and offending token."""

    def __init__(self, message: str, line_no: int | None = None, token: str | None = None):
        self.line_no = line_no
        self.token = token
        parts = [message]
        if line_no is not None:
            parts.append(f"line {line_no}")
        if token is not None:
            parts.append(f"token {token!r}")
        super().__init__(", ".join(parts))


class ParseError(InputError):
    """Malformed input line (wrong columns, bad tokens, bad numbers)."""

    code = "parse"


class ValidationError(InputError):
    """Structurally well-formed input that violates an invariant."""

    code = "validation"


class UnknownNameError(RefclassError):
    """Lookup of a category, journal, or article id that does not exist."""

    code = "lookup"


class ConfigError(RefclassError):
    """Invalid configuration value or combination."""

    code = "config"


class UndefinedValueError(RefclassError):
    """An indicator is undefined in this scope (e.g. zero denominator)."""

    code = "value"


class EmptyScopeError(RefclassError):
    """A share computation found no classified articles in scope."""

    code = "scope"


class DomainError(RefclassError):
    """Arithmetic argument outside the operation's domain."""

    code = "domain"


class UsageError(RefclassError):
    """Command-line usage error (unknown flag, missing argument)."""

    code = "usage"
