"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at API boundaries.  Sub-hierarchies mirror
the subsystems: XML parsing, DTD handling, validation, XPath, XQuery and
static analysis.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class XMLError(ReproError):
    """Base class for XML data-model and parsing errors."""


class XMLSyntaxError(XMLError):
    """Raised when the XML parser encounters malformed input.

    Attributes
    ----------
    line, column:
        1-based position of the offending character in the input.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class DTDError(ReproError):
    """Base class for DTD errors."""


class DTDSyntaxError(DTDError):
    """Raised when a DTD document cannot be parsed."""


class GrammarError(DTDError):
    """Raised when a set of productions is not a valid local tree grammar.

    For example: duplicate definitions for a name, two names defining the
    same element tag, or a production referencing an undefined name.
    """


class ValidationError(ReproError):
    """Raised when a document does not validate against a DTD."""

    def __init__(self, message: str, node_id: int | None = None) -> None:
        self.node_id = node_id
        super().__init__(message)


class UnsupportedSchemaError(DTDError):
    """Raised when an XSD uses a construct outside the supported subset
    (:mod:`repro.schema.xsd`).  Structured so callers can report exactly
    what to rewrite: ``construct`` is the offending XSD feature
    (``"xs:import"``, ``"substitutionGroup"``, ...), ``detail`` the
    context (element or type name, attribute value)."""

    def __init__(self, construct: str, detail: str = "") -> None:
        self.construct = construct
        self.detail = detail
        message = f"unsupported XSD construct {construct}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class StrayDocumentError(ValidationError):
    """Structured refusal from the inferred-grammar escape hatch: the
    document strayed from the dataguide grammar it is being pruned
    against, and the grammar's ``on_stray`` policy is ``"error"``.

    Theorem 4.5 soundness only covers documents the grammar accepts, so
    a stray document is never pruned — it is either copied verbatim
    (``on_stray="copy"``) or refused with this error.  ``reason`` is the
    underlying validation failure's message."""

    def __init__(self, reason: str, node_id: int | None = None) -> None:
        self.reason = reason
        super().__init__(
            f"document strays from the inferred grammar ({reason}); "
            "re-infer with this document in the sample, or use "
            'on_stray="copy" to pass strays through verbatim',
            node_id,
        )


class XPathError(ReproError):
    """Base class for XPath errors."""


class XPathSyntaxError(XPathError):
    """Raised when an XPath expression cannot be parsed."""


class XPathTypeError(XPathError):
    """Raised when an XPath expression is applied to a value of the wrong
    kind (e.g. a location step applied to a number)."""


class XQueryError(ReproError):
    """Base class for XQuery errors."""


class XQuerySyntaxError(XQueryError):
    """Raised when an XQuery expression cannot be parsed."""


class XQueryEvaluationError(XQueryError):
    """Raised when evaluation of a (syntactically valid) query fails, e.g.
    an unbound variable."""


class AnalysisError(ReproError):
    """Raised when static analysis is asked something it cannot answer,
    e.g. inferring a projector for a query over an unknown DTD name."""


class ProjectorError(ReproError):
    """Raised when a set of names is used as a projector but is not one
    (not chain-closed from the root, see Definition 2.6)."""


class EncodingError(XMLError):
    """Raised when a source cannot be decoded (or an output cannot be
    encoded) as text — undecodable byte sequences, lone surrogates and
    similar encoding oddities surface as this structured error instead of
    a bare :class:`UnicodeError`."""


class ResourceError(ReproError):
    """Base class for resource-governance errors (:mod:`repro.limits`).

    A resource error is a *refusal*, not a parse failure: the input may
    be perfectly well formed, but processing it would exceed a configured
    bound (depth, token size, input/output size, wall clock).
    """


class LimitExceeded(ResourceError):
    """Raised when a :class:`~repro.limits.Limits` bound is exceeded.

    Attributes
    ----------
    limit:
        Which bound tripped: ``"depth"``, ``"token_bytes"``,
        ``"input_bytes"`` or ``"output_bytes"``.
    value, maximum:
        The observed quantity and the configured bound.
    """

    def __init__(self, limit: str, value: int, maximum: int) -> None:
        self.limit = limit
        self.value = value
        self.maximum = maximum
        super().__init__(f"{limit} limit exceeded: {value} > {maximum}")


class DeadlineExceeded(ResourceError):
    """Raised when a pass runs past its configured wall-clock deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        super().__init__(f"wall-clock deadline of {deadline:g}s exceeded")


class ServiceError(ReproError):
    """Base class for projection-service errors (:mod:`repro.service`)."""


class ProtocolError(ServiceError):
    """Raised when a service frame violates the wire protocol: not JSON,
    not an object, oversized, missing the request id or the operation."""

    code = 400


class ServiceOverloaded(ServiceError):
    """Structured admission refusal: the server's bounded request queue
    (or this connection's in-flight cap) is full.  The request was never
    started — retry later.  ``scope`` says which bound tripped
    (``"server"`` or ``"connection"``)."""

    code = 429

    def __init__(self, message: str, scope: str = "server") -> None:
        self.scope = scope
        super().__init__(message)


class ServiceUnavailable(ServiceError):
    """The server is draining (or gone): it refuses new work but finishes
    what it already admitted."""

    code = 503


class RemoteError(ServiceError):
    """An error that happened on the server while processing a request,
    reported back as data.  ``remote_type`` is the server-side exception
    class name (``XMLSyntaxError``, ``LimitExceeded``, ...), ``code`` the
    HTTP-style status the server attached."""

    def __init__(self, remote_type: str, message: str, code: int = 500) -> None:
        self.remote_type = remote_type
        self.code = code
        super().__init__(f"{remote_type}: {message}")


class LedgerError(ReproError):
    """Base class for attestation-ledger errors (:mod:`repro.ledger`)."""


class LedgerCorrupt(LedgerError):
    """Raised when an attestation ledger fails verification on open: a
    line that is not canonical JSON, an entry whose self-hash does not
    match its body, or a broken prev-hash chain.  A *torn final line*
    (a writer died mid-append) is not corruption — it is truncated away
    on open — so this error always means the ledger's history was
    altered after it was written."""


class BudgetExceededError(ReproError):
    """Raised by the metered query engine when a configured memory budget
    is exhausted (used to reproduce the paper's 512 MB-limit experiments)."""

    def __init__(self, message: str, used: int = 0, budget: int = 0) -> None:
        self.used = used
        self.budget = budget
        super().__init__(message)
