"""Exception hierarchy shared by all modules: one class per CLI exit code.

InputError means the caller handed us something malformed or unsupported
(CLI exit code 2); its message says what.  InternalConsistencyError means a
proven identity failed, i.e. the toolkit itself has a bug (CLI exit code 4).
"""


class QuadlocError(Exception):
    pass


class InputError(QuadlocError):
    """Malformed, inconsistent or unsupported input."""


class InternalConsistencyError(QuadlocError):
    """A mathematically guaranteed identity failed; indicates a bug."""
