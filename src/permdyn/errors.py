"""Exception hierarchy, mirrored by the CLI exit codes."""


class PermdynError(Exception):
    """Base class for library errors."""


class MalformedInput(PermdynError):
    """Unparseable text input (CLI exit code 1)."""

    exit_code = 1


class PreconditionError(PermdynError):
    """Operation precondition violated (CLI exit code 2)."""

    exit_code = 2


class GuardExceeded(PermdynError):
    """Desk-scale guard would be exceeded (CLI exit code 3)."""

    exit_code = 3


class InternalCheckError(PermdynError):
    """Two independent computations of the same value disagreed (CLI exit code 4)."""

    exit_code = 4
