"""Exception types shared across the package."""


class TKHistError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(TKHistError):
    """Schema document is malformed or inconsistent."""


class IngestError(TKHistError):
    """Table data could not be ingested against its declared definition."""


class DomainBoundsError(TKHistError):
    """A join-key value falls outside its domain's bin range."""


class DomainMismatchError(TKHistError):
    """Two histograms over different key domains were combined."""


class StateError(TKHistError):
    """State file is missing, corrupt, or has an unsupported version."""


class ParseError(TKHistError):
    """SQL or workload text could not be parsed; may carry a byte offset."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class UnsupportedQueryError(TKHistError):
    """Query uses a feature outside the supported subset."""


class CyclicJoinError(TKHistError):
    """Join graph of a query contains a cycle."""


class PlanError(TKHistError):
    """Query cannot be decomposed into a valid sub-query plan."""


class EstimationError(TKHistError):
    """Estimation or metric computation is undefined for the given inputs."""
