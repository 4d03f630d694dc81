"""Shared exception types, and the check of count arguments."""


class SgpoidkitError(Exception):
    """Base class for errors raised by this package."""


class DomainError(SgpoidkitError, ValueError):
    """A value is outside its declared range: bad arrow index, mismatched
    dimensions, malformed input data."""


class ConfigurationError(SgpoidkitError):
    """A search problem is malformed, e.g. a constraint watches an unknown
    variable."""


class ResourceLimitError(SgpoidkitError):
    """A computation was refused because it exceeds a built-in cost guard."""


class StaleDatabaseError(SgpoidkitError):
    """A class database does not cover the requested range."""


def check_count(value, what: str, least: int = 1) -> None:
    """Refuse, with :class:`DomainError`, a count that is not an int (a bool
    is not one) or is below ``least``."""
    if type(value) is not int or value < least:
        raise DomainError(f"{what} {value!r} is not an int of at least {least}")
