"""Resource governance: bounds on what one parse/prune pass may consume.

The paper's pruning pass is "bufferless" on well-behaved inputs, but a
service pruning documents from untrusted sources must also survive hostile
ones — pathological nesting, multi-megabyte attribute values, unbalanced
tags, truncated or endless streams — without unbounded memory or hangs.
This module is the configuration surface for that hardening:

* :class:`Limits` — an immutable bundle of bounds (max element depth, max
  token size, max input/output size, wall-clock deadline).  Three named
  profiles ship with the library: :meth:`Limits.default` (generous bounds
  that only pathological inputs trip — what :class:`repro.api.PruneOptions`
  uses when no limits are given), :meth:`Limits.strict` (service-grade
  bounds for untrusted input) and :meth:`Limits.off` (no bounds — the
  pre-limits behaviour, bit for bit).
* :class:`LimitGuard` — the per-pass runtime enforcing a :class:`Limits`:
  the scanner, parser and both pruners call into it at token and element
  boundaries; violations raise the structured
  :class:`~repro.errors.LimitExceeded` / :class:`~repro.errors.DeadlineExceeded`
  errors, never a crash or a hang.

Sizes are measured in *characters* of decoded text, matching the
scanner's ``chars_consumed`` accounting (exact UTF-8 byte counts would
require re-encoding every token; character counts bound the same quantity
and are free).  A guard is created per pass — the deadline clock starts
when the pass starts — and is ``None`` when every bound is off, so the
unlimited path costs nothing.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from repro.errors import DeadlineExceeded, LimitExceeded

__all__ = ["DEFAULT_LIMITS", "OFF_LIMITS", "STRICT_LIMITS", "LimitGuard", "Limits"]


@dataclass(slots=True, frozen=True)
class Limits:
    """Bounds for one parse/prune pass; ``None`` disables a bound.

    * ``max_depth`` — maximum element nesting depth (kept *or* pruned:
      bulk-skipped subtrees count too, so a hostile document cannot hide
      pathological nesting inside a discarded region);
    * ``max_token_bytes`` — maximum size of one lexical token: a name,
      an attribute value (quotes excluded), one text run, a comment, a
      CDATA section (whitespace inside a tag is never a token);
    * ``max_input_bytes`` / ``max_output_bytes`` — total input consumed /
      output produced by the pass;
    * ``deadline`` — wall-clock seconds the pass may run for.
    """

    max_depth: int | None = None
    max_token_bytes: int | None = None
    max_input_bytes: int | None = None
    max_output_bytes: int | None = None
    deadline: float | None = None

    @property
    def unbounded(self) -> bool:
        """True when every bound is off (no guard needs to run)."""
        return (
            self.max_depth is None
            and self.max_token_bytes is None
            and self.max_input_bytes is None
            and self.max_output_bytes is None
            and self.deadline is None
        )

    def replace(self, **overrides) -> "Limits":
        """A copy with the given bounds replaced."""
        return dataclasses.replace(self, **overrides)

    def guard(self) -> "LimitGuard | None":
        """A fresh runtime guard for one pass (``None`` when unbounded —
        callers skip every check with a single ``is None`` test)."""
        return None if self.unbounded else LimitGuard(self)

    def intersect(self, other: "Limits") -> "Limits":
        """The tighter of each bound — how the projection service clamps
        a client-requested :class:`Limits` to its own profile (a client
        may tighten the server's bounds, never relax them)."""
        def tighter(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return min(a, b)

        return Limits(
            max_depth=tighter(self.max_depth, other.max_depth),
            max_token_bytes=tighter(self.max_token_bytes, other.max_token_bytes),
            max_input_bytes=tighter(self.max_input_bytes, other.max_input_bytes),
            max_output_bytes=tighter(self.max_output_bytes, other.max_output_bytes),
            deadline=tighter(self.deadline, other.deadline),
        )

    # -- wire form (the service protocol ships limits as JSON) ------------

    def as_dict(self) -> dict:
        """JSON-safe form: only the bounds that are set."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if getattr(self, field.name) is not None
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Limits":
        """Rebuild from :meth:`as_dict` output (unknown keys rejected)."""
        names = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown limits field(s): {sorted(unknown)}")
        return cls(**data)

    # -- named profiles ---------------------------------------------------

    @classmethod
    def off(cls) -> "Limits":
        return OFF_LIMITS

    @classmethod
    def default(cls) -> "Limits":
        return DEFAULT_LIMITS

    @classmethod
    def strict(cls) -> "Limits":
        return STRICT_LIMITS

    @classmethod
    def profile(cls, name: str) -> "Limits":
        """Look up a named profile (``"strict"``, ``"default"``, ``"off"``)."""
        try:
            return _PROFILES[name]
        except KeyError:
            raise ValueError(
                f"unknown limits profile {name!r} "
                f"(expected one of {sorted(_PROFILES)})"
            ) from None


#: No bounds at all: byte-identical to the pre-limits pipeline.
OFF_LIMITS = Limits()

#: What :class:`repro.api.PruneOptions` applies when no limits are given.
#: Generous enough that only pathological documents trip it: real-world
#: XML rarely nests past a few hundred levels (the pipeline is iterative,
#: so depth costs linear memory, not stack), and a 16M-character token is
#: far beyond any sane tag, attribute or comment.
DEFAULT_LIMITS = Limits(max_depth=10_000, max_token_bytes=16 << 20)

#: Service-grade bounds for documents from untrusted sources.
STRICT_LIMITS = Limits(
    max_depth=128,
    max_token_bytes=1 << 20,
    max_input_bytes=256 << 20,
    max_output_bytes=256 << 20,
    deadline=30.0,
)

_PROFILES = {"off": OFF_LIMITS, "default": DEFAULT_LIMITS, "strict": STRICT_LIMITS}


def resolve_limits(limits: "Limits | str | None") -> Limits:
    """Normalise a limits spec: ``None`` means the default profile, a
    string names a profile, a :class:`Limits` passes through."""
    if limits is None:
        return DEFAULT_LIMITS
    if isinstance(limits, str):
        return Limits.profile(limits)
    return limits


class LimitGuard:
    """Runtime enforcement of one :class:`Limits` for one pass.

    Hot-loop discipline: every check is a couple of attribute loads and an
    integer compare; the deadline is only consulted on buffer refills and
    every :data:`TICK_EVERY` structural tokens.
    """

    TICK_EVERY = 512

    __slots__ = (
        "limits",
        "max_depth",
        "max_token",
        "max_input",
        "max_output",
        "deadline_at",
        "_input",
        "_output",
        "_ticks",
    )

    def __init__(self, limits: Limits) -> None:
        self.limits = limits
        self.max_depth = limits.max_depth
        self.max_token = limits.max_token_bytes
        self.max_input = limits.max_input_bytes
        self.max_output = limits.max_output_bytes
        self.deadline_at = (
            time.monotonic() + limits.deadline if limits.deadline is not None else None
        )
        self._input = 0
        self._output = 0
        self._ticks = 0

    # -- wall clock -------------------------------------------------------

    def check_deadline(self) -> None:
        if self.deadline_at is not None and time.monotonic() > self.deadline_at:
            raise DeadlineExceeded(self.limits.deadline)

    def tick(self) -> None:
        """Cheap periodic deadline check for token-granularity loops."""
        if self.deadline_at is None:
            return
        self._ticks += 1
        if self._ticks >= self.TICK_EVERY:
            self._ticks = 0
            self.check_deadline()

    # -- sizes ------------------------------------------------------------

    def add_input(self, chars: int) -> None:
        """Account for ``chars`` characters read from the source (called
        per chunk refill)."""
        self._input += chars
        self.check_input(self._input)
        self.check_deadline()

    def check_input(self, chars: int) -> None:
        """Refuse an input of ``chars`` characters up front (a string
        source's size is known before the first refill)."""
        if self.max_input is not None and chars > self.max_input:
            raise LimitExceeded("input_bytes", chars, self.max_input)

    def add_output(self, chars: int) -> None:
        """Account for ``chars`` characters written to the sink."""
        self._output += chars
        if self.max_output is not None and self._output > self.max_output:
            raise LimitExceeded("output_bytes", self._output, self.max_output)

    def check_token(self, chars: int) -> None:
        if self.max_token is not None and chars > self.max_token:
            raise LimitExceeded("token_bytes", chars, self.max_token)

    def check_depth(self, depth: int) -> None:
        if self.max_depth is not None and depth > self.max_depth:
            raise LimitExceeded("depth", depth, self.max_depth)
