"""Exception hierarchy shared by every simulated storage system.

The hierarchy deliberately mirrors how the real systems report errors
(DAOS returns ``-DER_*`` codes, POSIX sets ``errno``): each simulated
store raises a subclass of :class:`ReproError` so callers can handle
storage failures uniformly or per-system.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigError(ReproError):
    """An experiment, cluster, or store was configured inconsistently."""


class SimulationError(ReproError):
    """The discrete-event kernel detected an internal inconsistency."""


class StorageError(ReproError):
    """Base class for errors raised by a simulated storage system."""


class NoSpaceError(StorageError):
    """A device or pool ran out of capacity (ENOSPC / -DER_NOSPACE)."""


class NotFoundError(StorageError):
    """An object, key, file, or path does not exist (ENOENT / -DER_NONEXIST)."""


class ExistsError(StorageError):
    """Creation attempted for something that already exists (EEXIST / -DER_EXIST)."""


class InvalidArgumentError(StorageError):
    """An API call was made with invalid parameters (EINVAL / -DER_INVAL)."""


class UnavailableError(StorageError):
    """The targeted service or device is down and no replica can serve the
    request (EIO / -DER_UNREACH)."""


class DegradedError(StorageError):
    """The targeted service or device is degraded/offline and refuses to
    serve requests until an administrator intervenes (Lustre-style EIO)."""


class DataLossError(StorageError):
    """Data could not be reconstructed: more failures than the redundancy
    scheme tolerates."""


class IntegrityError(StorageError):
    """Stored data failed checksum verification."""
