"""Buffered character scanner used by the streaming XML parser.

The scanner reads from a string or any text-mode file object in fixed-size
chunks — a string is sliced chunk by chunk exactly like a stream — so the
parser built on top of it is genuinely streaming: memory consumption is
bounded by the chunk size plus the longest single token (tag, comment,
text run), never by document size.  This property is what lets the
pruner process arbitrarily large documents (Section 6 of the paper: "on
our 512MB machine we were able to efficiently prune arbitrary large
documents").
"""

from __future__ import annotations

import re
from typing import IO, TYPE_CHECKING, Union

from repro.errors import XMLSyntaxError

if TYPE_CHECKING:  # pragma: no cover
    from repro.limits import LimitGuard

Source = Union[str, IO[str]]

DEFAULT_CHUNK_SIZE = 1 << 16

# Characters allowed to start / continue an XML name.  We implement the
# pragmatic ASCII-centric subset plus full non-ASCII passthrough, which
# covers every document the benchmarks generate and real-world DTDs.
_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:.-")
# All ASCII name characters, for the scanner's bulk fast path.
_NAME_CHARS_FAST = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:.-"
)


# What separates the names of an unquoted tag run (element and attribute
# names): XML whitespace, ``=`` and ``/``.
_TAG_RUN_SEPARATORS = re.compile(r"[ \t\r\n=/]+")
_TAG_WHITESPACE = re.compile(r"[ \t\r\n]+")


def is_name_start(char: str) -> bool:
    return char.isalpha() or char in _NAME_START_EXTRA or ord(char) > 127


def is_name_char(char: str) -> bool:
    return char.isalnum() or char in _NAME_EXTRA or ord(char) > 127


class _StringSource:
    """A ``str`` read in chunks like a stream (each read is one slice, so
    no second copy of the whole text is ever made)."""

    __slots__ = ("_text", "_offset")

    def __init__(self, text: str) -> None:
        self._text = text
        self._offset = 0

    def read(self, size: int) -> str:
        start = self._offset
        self._offset = start + size
        return self._text[start : start + size]


class Scanner:
    """Incremental look-ahead scanner with on-demand line/column.

    Positions cost nothing while scanning: a refill counts the newlines
    of the prefix it drops (one ``count``/``rfind`` per refill), and
    :attr:`line`/:attr:`column` add those of the buffer up to the
    current position only when asked — that is, when an error is raised.

    The public protocol used by the parser:

    * :meth:`peek` / :meth:`advance` — single-character look-ahead;
    * :meth:`startswith` / :meth:`expect` — multi-character look-ahead;
    * :meth:`read_until` — consume up to (not including) a delimiter,
      loading more input as needed;
    * :meth:`read_name`, :meth:`skip_whitespace` — token helpers.
    """

    __slots__ = (
        "_source", "_buffer", "_position", "_eof", "_chunk_size",
        "_dropped_lines", "_line_start_offset", "_consumed", "_guard",
    )

    def __init__(
        self,
        source: Source,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        guard: "LimitGuard | None" = None,
    ) -> None:
        self._guard = guard
        if isinstance(source, str):
            # The whole size is known up front: let max_input_bytes trip
            # before any scanning begins.
            if guard is not None:
                guard.check_input(len(source))
            source = _StringSource(source)
        self._source = source
        self._buffer = ""
        self._eof = False
        self._position = 0
        self._chunk_size = chunk_size
        self._consumed = 0  # characters dropped from the buffer on refill
        self._dropped_lines = 0  # newlines among them
        # Offset (in consumed characters) just past the last dropped
        # newline: the column base while the buffer holds no newline
        # before the current position.
        self._line_start_offset = 0

    @property
    def guard(self) -> "LimitGuard | None":
        """The resource guard this scanner reports to (see
        :mod:`repro.limits`); consumers built on the scanner share it."""
        return self._guard

    # -- diagnostics -----------------------------------------------------

    @property
    def line(self) -> int:
        return self._dropped_lines + self._buffer.count("\n", 0, self._position) + 1

    @property
    def column(self) -> int:
        last = self._buffer.rfind("\n", 0, self._position)
        if last != -1:
            return self._position - last
        return self._consumed + self._position - self._line_start_offset + 1

    @property
    def chars_consumed(self) -> int:
        """Characters consumed so far — the ``bytes``-ish quantity the
        observability layer reports for parse/prune spans (exact UTF-8
        byte counts would require re-encoding; character counts track the
        same curve and are free)."""
        return self._consumed + self._position

    def error(self, message: str) -> XMLSyntaxError:
        return XMLSyntaxError(message, self.line, self.column)

    # -- buffer management ----------------------------------------------

    def _fill(self, needed: int) -> None:
        """Ensure at least ``needed`` characters are available after the
        current position, unless EOF intervenes.  A refill first drops the
        consumed prefix, so the buffer never holds more than the unread
        tail plus the chunks just read."""
        if self._eof or len(self._buffer) - self._position >= needed:
            return
        position = self._position
        if position:
            # Diagnostics only depend on ``consumed + position``, which
            # is preserved: the dropped prefix's newlines move into
            # ``_dropped_lines`` and ``_line_start_offset``.
            buffer = self._buffer
            newlines = buffer.count("\n", 0, position)
            if newlines:
                self._dropped_lines += newlines
                self._line_start_offset = self._consumed + buffer.rfind("\n", 0, position) + 1
            self._consumed += position
            self._buffer = buffer[position:]
            self._position = 0
        while len(self._buffer) < needed:
            chunk = self._source.read(self._chunk_size)
            if not chunk:
                self._eof = True
                return
            if self._guard is not None:
                # Per-refill: input-size accounting plus the deadline
                # check (streams can be endless; every chunk is a chance
                # to stop).
                self._guard.add_input(len(chunk))
            self._buffer += chunk

    # -- single character protocol ----------------------------------------

    def at_eof(self) -> bool:
        self._fill(1)
        return self._position >= len(self._buffer)

    def peek(self) -> str:
        """The next character, or '' at end of input."""
        self._fill(1)
        if self._position >= len(self._buffer):
            return ""
        return self._buffer[self._position]

    def peek_at(self, offset: int) -> str:
        self._fill(offset + 1)
        index = self._position + offset
        if index >= len(self._buffer):
            return ""
        return self._buffer[index]

    def advance(self) -> str:
        """Consume and return the next character ('' at end of input)."""
        self._fill(1)
        if self._position >= len(self._buffer):
            return ""
        char = self._buffer[self._position]
        self._position += 1
        return char

    # -- multi character protocol ------------------------------------------

    def startswith(self, prefix: str) -> bool:
        self._fill(len(prefix))
        return self._buffer.startswith(prefix, self._position)

    def try_consume(self, prefix: str) -> bool:
        """Consume ``prefix`` if present, returning whether it was."""
        if self.startswith(prefix):
            self._position += len(prefix)
            return True
        return False

    def expect(self, prefix: str, context: str = "") -> None:
        if not self.try_consume(prefix):
            where = f" in {context}" if context else ""
            found = self._buffer[self._position : self._position + 12]
            raise self.error(f"expected {prefix!r}{where}, found {found!r}")

    def read_until(self, delimiter: str, context: str = "") -> str:
        """Consume and return everything up to ``delimiter``; the delimiter
        itself is consumed but not returned."""
        pieces: list[str] = []
        total = 0
        guard = self._guard
        while True:
            index = self._buffer.find(delimiter, self._position)
            if index != -1:
                text = self._buffer[self._position : index]
                if guard is not None:
                    guard.check_token(total + len(text))
                self._position = index + len(delimiter)
                pieces.append(text)
                return "".join(pieces)
            if self._eof:
                where = f" in {context}" if context else ""
                raise self.error(f"unexpected end of input looking for {delimiter!r}{where}")
            # Keep a delimiter-sized tail in case it straddles a chunk edge.
            keep = len(delimiter) - 1
            cut = max(self._position, len(self._buffer) - keep)
            text = self._buffer[self._position : cut]
            if text:
                pieces.append(text)
                self._position = cut
                if guard is not None:
                    # In-loop check: bound the accumulation itself, not
                    # just the joined result — a stream source must not
                    # buffer an over-limit token before refusing it.
                    total += len(text)
                    guard.check_token(total)
            # A refill that finds no more input sets EOF, which the loop
            # head turns into the error.
            self._fill(len(self._buffer) - self._position + self._chunk_size)

    def read_until_any(self, delimiters: str) -> str:
        """Consume and return everything up to (not including) the nearest
        of ``delimiters``; stops at end of input.  Bulk operation — this is
        the hot path for character data."""
        pieces: list[str] = []
        total = 0
        guard = self._guard
        while True:
            best = -1
            for delimiter in delimiters:
                index = self._buffer.find(delimiter, self._position)
                if index != -1 and (best == -1 or index < best):
                    best = index
            if best != -1:
                text = self._buffer[self._position : best]
                if guard is not None:
                    guard.check_token(total + len(text))
                self._position = best
                pieces.append(text)
                return "".join(pieces)
            text = self._buffer[self._position :]
            if text:
                pieces.append(text)
                self._position = len(self._buffer)
                if guard is not None:
                    total += len(text)
                    guard.check_token(total)
            if self._eof:
                return "".join(pieces)
            self._fill(self._chunk_size)

    def skip_until(self, delimiter: str, context: str = "") -> None:
        """:meth:`read_until` without materialising the skipped text — the
        bulk path used when pruning discards a region wholesale."""
        while True:
            index = self._buffer.find(delimiter, self._position)
            if index != -1:
                self._position = index + len(delimiter)
                return
            if self._eof:
                where = f" in {context}" if context else ""
                raise self.error(f"unexpected end of input looking for {delimiter!r}{where}")
            # Keep a delimiter-sized tail in case it straddles a chunk edge.
            keep = len(delimiter) - 1
            self._position = max(self._position, len(self._buffer) - keep)
            self._fill(len(self._buffer) - self._position + self._chunk_size)

    def skip_until_any(self, delimiters: str) -> bool:
        """:meth:`read_until_any` without materialising the skipped text;
        returns whether any characters were consumed.  Stops at end of
        input."""
        skipped = False
        while True:
            best = -1
            for delimiter in delimiters:
                index = self._buffer.find(delimiter, self._position)
                if index != -1 and (best == -1 or index < best):
                    best = index
            if best != -1:
                if best > self._position:
                    self._position = best
                    skipped = True
                return skipped
            if len(self._buffer) > self._position:
                self._position = len(self._buffer)
                skipped = True
            if self._eof:
                return skipped
            self._fill(self._chunk_size)

    def skip_text_open(self) -> tuple[bool, bool, str]:
        """Bulk helper for the fused pruner's skip loop: consume one
        character-data stretch up to the next ``<`` or ``&``.  Returns
        ``(saw_text, opened, char)`` — *opened* means a ``<`` was
        consumed and *char* is the (unconsumed) character after it;
        otherwise *char* is ``'&'`` (stopped at an entity reference, not
        consumed) or ``''`` (end of input)."""
        skipped = False
        while True:
            buffer = self._buffer
            position = self._position
            lt = buffer.find("<", position)
            amp = buffer.find("&", position)
            if amp != -1 and (lt == -1 or amp < lt):
                if amp > position:
                    self._position = amp
                    skipped = True
                return skipped, False, "&"
            if lt != -1:
                if lt > position:
                    skipped = True
                self._position = lt + 1
                self._fill(1)
                buffer = self._buffer
                if self._position < len(buffer):
                    return skipped, True, buffer[self._position]
                return skipped, True, ""
            if len(buffer) > position:
                self._position = len(buffer)
                skipped = True
            if self._eof:
                return skipped, False, ""
            self._fill(self._chunk_size)

    def read_tag_content(self, context: str = "tag") -> str:
        """Consume up to and including the next *unquoted* ``>``,
        returning the text before it.  ``>`` inside a quoted attribute
        value does not terminate the tag.  Bulk operation — the fused
        pruner reads whole tags this way instead of char-by-char.

        The tag is charged by the event parser's token rule, so both
        pipelines refuse exactly the same tags: a quoted attribute value
        is one token, quotes excluded; each name is one token; whitespace,
        ``=`` and ``/`` are never tokens.  A run (a value, or the unquoted
        stretch between values) is looked at only once it is longer than
        ``max_token_bytes``, so the hot path pays one comparison per run.
        Past that point an unquoted run is charged name by name on every
        refill and its whitespace is collapsed (see :meth:`_collapse_run`),
        so the tag never holds more than ``chunk_size`` plus a few limits.
        """
        pieces: list[str] = []
        quote = ""
        run = 0  # ``carry`` plus the characters in ``pieces[start:]``
        start = 0  # index in ``pieces`` of the run's unchecked characters
        carry = 0  # length of the checked name they continue
        kept = 0  # characters kept of the collapsed part of an unquoted run
        guard = self._guard
        limit = guard.max_token if guard is not None else None
        while True:
            buffer = self._buffer
            position = self._position
            if quote:
                index = buffer.find(quote, position)
                if index != -1:
                    run += index - position
                    if limit is not None and run > limit:
                        guard.check_token(run)
                    self._position = index + 1
                    pieces.append(buffer[position : index + 1])
                    quote = ""
                    run = carry = kept = 0
                    start = len(pieces)
                    continue
            else:
                gt = buffer.find(">", position)
                if gt != -1:
                    # Quote searches are bounded by the tag end.
                    dq = buffer.find('"', position, gt)
                    sq = buffer.find("'", position, gt)
                else:
                    dq = buffer.find('"', position)
                    sq = buffer.find("'", position)
                stop = dq if sq == -1 else sq if dq == -1 else min(dq, sq)
                if stop == -1:
                    stop = gt
                if stop != -1:
                    run += stop - position
                    if limit is not None and run > limit:
                        self._charge_names("".join(pieces[start:]) + buffer[position:stop], carry)
                    if stop == gt:
                        self._position = gt + 1
                        pieces.append(buffer[position:gt])
                        return "".join(pieces)
                    self._position = stop + 1
                    pieces.append(buffer[position : stop + 1])
                    quote = buffer[stop]
                    run = carry = kept = 0
                    start = len(pieces)
                    continue
            text = buffer[position:]
            if text:
                pieces.append(text)
                self._position = len(buffer)
                run += len(text)
                if limit is not None and run > limit:
                    if quote:
                        # Bound the accumulation of a value itself: a stream
                        # must not buffer an over-limit value before refusing.
                        guard.check_token(run)
                    else:
                        carry, kept = self._collapse_run(pieces, start, carry, kept, context)
                        start = len(pieces)
                        run = carry
            if self._eof:
                where = f" in {context}" if context else ""
                raise self.error(f"unexpected end of input looking for '>'{where}")
            self._fill(self._chunk_size)

    def _charge_names(self, text: str, carry: int) -> int:
        """Charge every name in an unquoted tag run, the first one
        continuing a name of ``carry`` characters already read; return
        the length of the name still open at the end of ``text``."""
        lengths = [len(name) for name in _TAG_RUN_SEPARATORS.split(text)]
        lengths[0] += carry
        self._guard.check_token(max(lengths))
        return lengths[-1]

    def _collapse_run(
        self, pieces: list[str], start: int, carry: int, kept: int, context: str
    ) -> tuple[int, int]:
        """Charge the names in ``pieces[start:]``, an over-long stretch of
        an unquoted tag run, then replace those pieces with one in which
        each whitespace run is a single space (the tag's consumers treat
        any whitespace alike).  Returns the open name's length and the
        characters kept of the run so far: the event parser skips
        whitespace in constant memory, and so does this."""
        text = _TAG_WHITESPACE.sub(" ", "".join(pieces[start:]))
        carry = self._charge_names(text, carry)
        if text[:1] == " " and start and pieces[start - 1][-1:] == " ":
            text = text[1:]  # the space ending the previous stretch covers it
        kept += len(text)
        if kept > 2 * self._guard.max_token + 8:
            # Two names, ``=`` and single spaces fill a well-formed run.
            raise self.error(f"malformed {context}")
        pieces[start:] = [text] if text else []
        return carry, kept

    # -- XML token helpers ---------------------------------------------------

    def skip_whitespace(self) -> None:
        while True:
            self._fill(1)
            buffer = self._buffer
            position = self._position
            end = len(buffer)
            while position < end and buffer[position] in " \t\r\n":
                position += 1
            self._position = position
            if position < end or self._eof:
                return

    def read_name(self, context: str = "name") -> str:
        """Bulk name scan (names never straddle chunk edges unnoticed: the
        buffer is refilled until a non-name character or EOF is in view)."""
        self._fill(1)
        buffer = self._buffer
        position = self._position
        if position >= len(buffer) or not is_name_start(buffer[position]):
            found = buffer[position] if position < len(buffer) else ""
            raise self.error(f"expected {context}, found {found!r}")
        end = position + 1
        while True:
            length = len(buffer)
            while end < length:
                char = buffer[end]
                if char in _NAME_CHARS_FAST or (ord(char) > 127 and is_name_char(char)):
                    end += 1
                else:
                    break
            if end < length or self._eof:
                break
            # The refill drops the consumed prefix: rebase on the new buffer.
            offset = end - position
            self._fill(offset + 1)
            buffer = self._buffer
            position = self._position
            end = position + offset
        if self._guard is not None:
            self._guard.check_token(end - position)
        name = buffer[position:end]
        self._position = end
        return name
