"""Exception hierarchy shared by every repro subsystem.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  Subsystems raise the most specific subclass available; invalid
arguments raise :class:`ValidationError` (a ``ValueError`` as well, so plain
``except ValueError`` also works).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument or configuration value failed validation."""


class ShapeError(ValidationError):
    """Matrix shapes are incompatible for the requested operation."""


class StorageError(ReproError):
    """A storage-layer (HDFS / tile store) operation failed."""


class FileNotFoundInHDFSError(StorageError, KeyError):
    """The requested HDFS path does not exist."""


class FileExistsInHDFSError(StorageError):
    """Attempted to create an HDFS path that already exists."""


class ReplicationError(StorageError):
    """A block could not be replicated as requested."""


class SchedulingError(ReproError):
    """The Hadoop scheduler/simulator reached an inconsistent state."""


class QuorumLostError(SchedulingError):
    """Node failures left fewer live nodes than the configured quorum."""


class CompilationError(ReproError):
    """A logical plan could not be compiled into physical jobs."""


class ExecutionError(ReproError):
    """A compiled job failed while executing."""


class OptimizationError(ReproError):
    """The deployment optimizer could not produce a feasible plan."""


class ServiceError(ReproError):
    """The multi-tenant job service refused or lost a job."""


class AdmissionRejectedError(ServiceError):
    """Admission control turned a submission away (budget or deadline)."""


class JobCancelledError(ServiceError):
    """The job was cancelled before it produced a result."""


class UnknownJobError(ServiceError, ValidationError):
    """A job id the service has never seen (stable across replays).

    Subclasses :class:`ValidationError` for backwards compatibility —
    callers that caught ``ValidationError`` for unknown ids keep working —
    while giving journal replay and API clients one precise type to match.
    """


class ProtocolError(ServiceError):
    """A wire-protocol frame was malformed or invalid (stable ``code``).

    Carries a machine-readable ``code`` (one of the
    :mod:`repro.service.protocol` ``ERR_*`` constants) so servers can
    answer bad input with a structured error frame instead of dying.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class JournalError(ServiceError):
    """A durability-journal operation failed (I/O, schema, epoch)."""


class JournalCorruptionError(JournalError):
    """A journal record failed its checksum or framing mid-file."""


class RecoveryError(JournalError):
    """Journal/snapshot replay could not reconstruct the service state."""


class InfeasibleConstraintError(OptimizationError):
    """No deployment plan satisfies the given time/budget constraint."""
