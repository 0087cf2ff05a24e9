"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A component was configured with inconsistent or out-of-range values.

    Raised, for example, when a CIC decimation factor is not a positive
    integer, when a GC4016 channel is asked for a decimation outside the
    datasheet range 32..16384, or when a DDC spec's rates do not divide.
    """


class FixedPointError(ReproError):
    """Invalid fixed-point format or operation (e.g. negative word length)."""


class SimulationError(ReproError):
    """The cycle-driven simulator reached an inconsistent state.

    Examples: two drivers on one wire, a component reading a port that was
    never connected, or a schedule that violates a resource constraint.
    """


class AssemblyError(ReproError):
    """The GPP assembler rejected a program (unknown mnemonic, bad label...)."""


class ExecutionError(ReproError):
    """The GPP CPU simulator trapped (bad memory access, undefined register...)."""


class MappingError(ReproError):
    """A kernel could not be mapped onto an architecture's resources.

    Used by the Montium mapping when a program needs more ALUs, memories or
    cycles than the tile provides, and by the FPGA fitter when a design does
    not fit the selected device.
    """


class PartialResultError(ReproError):
    """An execution-layer run degraded so far that no result survived.

    Raised when an ``on_error="skip"``/``"retry"`` sweep or exploration
    records a failure for *every* cell — a partial report with nothing in
    it is an error, not an empty success.
    """
