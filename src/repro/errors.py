"""Exception hierarchy for the chase & backchase reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type.  Subclasses are grouped by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class SchemaError(ReproError):
    """Malformed schema definitions (duplicate names, unknown types, ...)."""


class TypeMismatchError(ReproError):
    """A runtime value does not conform to its declared type."""


class InstanceError(ReproError):
    """Malformed database instance (unknown names, bad class registry, ...)."""


class QuerySyntaxError(ReproError):
    """Raised by the parser on malformed concrete syntax.

    Carries the raw character ``position`` (offset into the source, -1 if
    unknown).  Once the parser attaches the source text via
    :meth:`with_source`, the rendered message upgrades the offset to
    ``line:column`` plus a caret snippet — multi-line ``.oql`` files
    (``optimize --query``) get usable positions instead of a flat offset.
    """

    def __init__(
        self, message: str, position: int = -1, source: "str | None" = None
    ) -> None:
        super().__init__(message)
        self.raw_message = message
        self.position = position
        self.source = None
        self.line = -1
        self.column = -1
        if source is not None:
            self.with_source(source)

    def with_source(self, source: str) -> "QuerySyntaxError":
        """Attach the source text, computing line/column from the offset."""

        self.source = source
        if self.position >= 0:
            # Clamp EOF positions onto the last character so the caret
            # still lands inside the snippet.
            offset = min(self.position, len(source))
            before = source[:offset]
            self.line = before.count("\n") + 1
            self.column = offset - (before.rfind("\n") + 1) + 1
        return self

    def __str__(self) -> str:
        if self.source is None or self.position < 0:
            return self.raw_message
        lines = self.source.split("\n")
        line_text = lines[self.line - 1] if 0 < self.line <= len(lines) else ""
        caret = " " * (self.column - 1) + "^"
        return (
            f"{self.line}:{self.column}: {self.raw_message}\n"
            f"  {line_text}\n"
            f"  {caret}"
        )


class ParameterBindingError(ReproError):
    """A template was bound with missing or unknown ``$`` parameters."""


class QueryValidationError(ReproError):
    """A query violates well-formedness or the path-conjunctive restrictions."""


class QueryExecutionError(ReproError):
    """Runtime failure while evaluating a query (e.g. a failing lookup)."""


class ConstraintError(ReproError):
    """Malformed constraint (unbound variables, bad shapes, ...)."""


class ChaseError(ReproError):
    """Chase engine failure."""


class ChaseNonTermination(ChaseError):
    """The chase exceeded its step bound.

    The paper notes the chase terminates for full dependencies; for
    arbitrary constraint sets a bound is required (footnote to section 3).
    """

    def __init__(self, message: str, steps: int) -> None:
        super().__init__(message)
        self.steps = steps


class BackchaseError(ReproError):
    """Backchase engine failure."""


class OptimizationError(ReproError):
    """Optimizer-level failure (e.g. no physical plan exists)."""


class CodegenVerificationError(ReproError):
    """The static verifier (:mod:`repro.analysis.codegen`) rejected a
    generated plan function.

    Deliberately *not* a ``PlanCompilationError``: that error triggers the
    engine's transparent fall-back to interpretation, which would hide
    exactly the codegen bug the debug-verify mode exists to surface.
    """
