"""Exception types shared across the package.

The CLI maps these, and the builtin errors it reports, onto exit codes
through the table cli.EXIT_CODES.
"""


class ArraycovError(Exception):
    """Base class for package-specific errors."""


class ConfigError(ArraycovError):
    """Invalid or incomplete run configuration (missing files, bad levels)."""


class ParseError(ArraycovError):
    """Malformed input file. Carries the offending location when known."""

    def __init__(self, message, path=None, row=None):
        loc = ""
        if path is not None:
            loc += f"{path}"
        if row is not None:
            loc += f", row {row}"
        super().__init__(f"{message} ({loc})" if loc else message)
        self.path = path
        self.row = row


class CapacityError(ArraycovError):
    """Enumeration request exceeds the hard realization cap."""


class EstimationError(ArraycovError):
    """Loss estimation failed (e.g. empty beam window after floor exclusion)."""


class MaterialRangeError(ArraycovError):
    """Frequency outside a material record's tabulated range without extrapolation."""
