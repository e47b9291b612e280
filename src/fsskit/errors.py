"""Exception hierarchy shared by all fsskit modules.

Two branches matter for the CLI exit-code contract: InputError maps to
exit code 2 (bad files, bad arguments, mismatched unit sets) and
ComputationError maps to exit code 1 (a well-formed run that cannot
produce a number). Errors differ only by message, except that LoadError
also carries the file, line and column.
"""


class FsskitError(Exception):
    """Base class for all errors raised by fsskit."""


class InputError(FsskitError):
    """Invalid input data or arguments (CLI exit code 2)."""


class ComputationError(FsskitError):
    """A computation could not be carried out on valid input (CLI exit code 1)."""


class LoadError(InputError):
    """A CSV row could not be ingested; carries file/line/column context."""

    def __init__(self, message, file=None, line=None, column=None):
        self.file = file
        self.line = line
        self.column = column
        where = []
        if file is not None:
            where.append(str(file))
        if line is not None:
            where.append(f"line {line}")
        if column is not None:
            where.append(f"column '{column}'")
        prefix = ", ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)
