"""Exception hierarchy for the MobiGATE reproduction.

Every package raises subclasses of :class:`MobiGateError` so callers can
catch middleware failures without masking programming errors.  The hierarchy
mirrors the system inventory: MIME typing, MCL compilation, semantic
analysis, runtime coordination, and the client side each get a branch.
"""

from __future__ import annotations


class MobiGateError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# MIME type system
# ---------------------------------------------------------------------------


class MimeError(MobiGateError):
    """Base class for MIME type-system errors."""


class MediaTypeParseError(MimeError):
    """A media-type string could not be parsed (bad syntax)."""


class HeaderError(MimeError):
    """A MIME header field is malformed or violates RFC-style constraints."""


class UnknownMediaTypeError(MimeError):
    """A media type is not present in the type registry."""


class TypeHierarchyError(MimeError):
    """Registering a subtype relation would corrupt the hierarchy."""


# ---------------------------------------------------------------------------
# MCL — lexing / parsing / compilation
# ---------------------------------------------------------------------------


class MclError(MobiGateError):
    """Base class for MCL language errors."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}" + (f", col {column})" if column is not None else ")")
        super().__init__(message)


class MclLexError(MclError):
    """Unrecognised character or malformed token in MCL source."""


class MclParseError(MclError):
    """MCL source violates the grammar (Figs 4-2..4-5 of the thesis)."""


class MclTypeError(MclError):
    """A connection violates port-type compatibility (section 4.4.1)."""


class MclCompileError(MclError):
    """Semantic errors found while deriving a configuration table."""


class MclNameError(MclCompileError):
    """Reference to an undefined streamlet/channel/stream, or a redefinition."""


# ---------------------------------------------------------------------------
# Semantic model (chapter 5 analyses)
# ---------------------------------------------------------------------------


class SemanticError(MobiGateError):
    """Base class for architecture-consistency violations."""


class FeedbackLoopError(SemanticError):
    """The composition graph contains a cycle (section 5.2.1)."""


class OpenCircuitError(SemanticError):
    """An intermediate output port is left unconnected (section 5.2.2)."""


class MutualExclusionError(SemanticError):
    """Two mutually exclusive streamlets share a path (section 5.2.3)."""


class DependencyError(SemanticError):
    """A mutually dependent streamlet is missing (section 5.2.4)."""


class PreorderError(SemanticError):
    """Streamlets appear in the wrong deployment order (section 5.2.5)."""


# ---------------------------------------------------------------------------
# Runtime (chapters 3 and 6)
# ---------------------------------------------------------------------------


class RuntimeFault(MobiGateError):
    """Base class for server-side runtime errors."""


class MessagePoolError(RuntimeFault):
    """Unknown message identifier, or a double-release of a pooled message."""


class QueueClosedError(RuntimeFault):
    """Post/fetch attempted on a channel queue that has been closed."""


class ChannelError(RuntimeFault):
    """Illegal channel operation (category/connection violations)."""


class LifecycleError(RuntimeFault):
    """A streamlet lifecycle transition is illegal from its current state."""


class CompositionError(RuntimeFault):
    """A runtime composition primitive (connect/insert/remove) failed."""


class DirectoryError(RuntimeFault):
    """Lookup or registration failure in the streamlet directory."""


class ReconfigurationError(RuntimeFault):
    """A reconfiguration could not be carried out safely."""


class ReconfigValidationError(ReconfigurationError):
    """A staged action batch failed its dry run on the topology value."""


class ReconfigAbortedError(ReconfigurationError):
    """A transaction could not be applied; the prior topology was kept.

    ``cause`` carries the exception that refused the batch and
    ``failed_action`` the 0-based index of the action that raised (None
    when a new streamlet could not be instantiated).
    """

    def __init__(self, message: str, *, cause: Exception | None = None,
                 failed_action: int | None = None):
        super().__init__(message)
        self.cause = cause
        self.failed_action = failed_action


class EventError(RuntimeFault):
    """Bad event category or malformed context event."""


# ---------------------------------------------------------------------------
# Client side (section 3.4)
# ---------------------------------------------------------------------------


class ClientError(MobiGateError):
    """Base class for MobiGATE-client errors."""


class PeerNotFoundError(ClientError):
    """No client streamlet matches the peer id carried by a message."""


class DistributorError(ClientError):
    """The message distributor could not parse or route a message."""


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


class TelemetryError(MobiGateError):
    """Invalid metric registration or use of the telemetry subsystem."""


# ---------------------------------------------------------------------------
# Fault injection / recovery (repro.faults)
# ---------------------------------------------------------------------------


class FaultPlanError(MobiGateError):
    """A fault plan is malformed or names an unknown injection target."""


class ConservationError(MobiGateError):
    """The message-conservation invariant does not hold for a stream."""


# ---------------------------------------------------------------------------
# Codecs / network emulation
# ---------------------------------------------------------------------------


class CodecError(MobiGateError):
    """Encoding or decoding failed in one of the codec substrates."""


class NetSimError(MobiGateError):
    """Invalid configuration or use of the network emulator."""


class WorkloadError(MobiGateError):
    """Invalid workload specification."""


# ---------------------------------------------------------------------------
# Durable state plane (repro.store)
# ---------------------------------------------------------------------------


class StoreError(MobiGateError):
    """A durable state store refused an operation or is misconfigured."""
