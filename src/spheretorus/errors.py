"""Shared exception types, rooted at SpheretorusError, which carries the
CLI's exit code and an optional record of fields that follow "error" in
the CLI's JSON error record."""


class SpheretorusError(Exception):
    """Root of the package's own error types; catch this one class."""

    exit_code = 1

    def __init__(self, message: str, record: dict | None = None):
        super().__init__(message)
        self.record = record


class UsageError(SpheretorusError):
    """The command line is malformed; always reported as JSON."""

    exit_code = 2


class DomainError(SpheretorusError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidSpec(SpheretorusError, ValueError):
    """A representation spec violates the existence conditions of its family."""


class ChartDomainError(DomainError):
    """A chart point lies outside the coordinate patch."""
