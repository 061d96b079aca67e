"""Exception hierarchy shared by all modules.

InputError and its subclasses mean the caller handed us something malformed
or unsupported (CLI exit code 2).  InternalConsistencyError means a proven
identity failed, i.e. the toolkit itself has a bug (CLI exit code 4).
"""


class QuadlocError(Exception):
    pass


class InputError(QuadlocError):
    """Malformed, inconsistent or unsupported input."""


class FormatError(InputError):
    """Problems while parsing the text formats."""


class StructureError(InputError):
    """An embedded-graph invariant is violated."""


class AssemblyError(InputError):
    """A face list does not assemble into a surface."""

    def __init__(self, message, vertex=None):
        super().__init__(message)
        self.vertex = vertex


class NotQuadrangulationError(InputError):
    pass


class LoopError(InputError):
    pass


class ColoringError(InputError):
    pass


class OrientationError(InputError):
    """An edge orientation is missing or invalid."""


class CertificateMismatchError(InputError):
    """A certificate does not match the object it claims to describe."""


class SurgeryRejectedError(InputError):
    """A surgery precondition does not hold."""


class UnsupportedInputError(InputError):
    pass


class AlreadyOrientableError(UnsupportedInputError):
    """Raised by the orientation double cover on orientable input."""


class InternalConsistencyError(QuadlocError):
    """A mathematically guaranteed identity failed; indicates a bug."""
