"""Fused parse → prune → serialize fast path.

The event pipeline (``parse_events → prune_events → write_events``) builds
an :class:`~repro.xmltree.events.Event` object for every node of the
*input* document — including every node of subtrees the projector is
about to discard.  Profiling shows parsing dominates the pipeline, so the
fast path fuses all three stages onto the scanner:

* tags are read **in bulk**: the scanner jumps straight to the closing
  ``>`` (quote-aware, so ``>`` inside attribute values is handled) and a
  compiled regex splits name and attributes at C speed — no
  char-by-char name scanning and no event objects;
* pruned subtrees are **bulk-skipped** by one compiled token regex
  matched straight on the scanner buffer — each match is a text run
  plus the whole tag after it — with the per-token scanner calls kept
  only for entity references, comments, CDATA, PIs, tokens cut by the
  buffer end, tags longer than ``max_token_bytes`` and errors.  Only a
  tag stack is maintained for well-formedness (tag nesting, attribute
  syntax, entity references, comment/CDATA termination are still
  checked) — no attribute dicts and no text strings are materialised;
* kept content is serialized straight back out with buffered writes;
* all keep/skip/filter decisions come from the same compiled
  :class:`~repro.projection.prunetable.PruneTable` as the event pruner,
  so both paths produce byte-identical output and identical
  :class:`~repro.projection.stats.PruneStats` (the property tests in
  ``tests/test_fastpath.py`` enforce this).

:meth:`FastPruner.write` is the markup-to-markup hot path;
:meth:`FastPruner.events` exposes the same fused traversal as an event
stream (pruned regions still bulk-skipped) for consumers like the
prune-while-loading tree builder.
"""

from __future__ import annotations

import re
from typing import IO, TYPE_CHECKING, Iterator

from repro.dtd.grammar import Grammar
from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.limits import LimitGuard
from repro.obs import get_tracer
from repro.projection.prunetable import PruneTable, TagPlan, compile_prune_table
from repro.projection.stats import PruneStats
from repro.xmltree.events import (
    Characters,
    Comment,
    EndDocument,
    EndElement,
    Event,
    ProcessingInstruction,
    StartElement,
)
from repro.xmltree.lexer import DEFAULT_CHUNK_SIZE, Scanner, Source
from repro.xmltree.parser import EventParser, expand_entities, expand_entity
from repro.xmltree.serializer import WRITE_BUFFER_SIZE, escape_attribute, escape_text

# The scanner's name alphabet (ASCII subset + full non-ASCII passthrough)
# as a regex, so a whole tag read in bulk can be split in one match
# instead of per-character ``read_name`` calls.
_NAME = r"(?:[A-Za-z_:]|[^\x00-\x7f])(?:[A-Za-z0-9_.:\-]|[^\x00-\x7f])*"
# XML whitespace, as the event parser skips it.  Not ``\s``: that also
# matches non-ASCII spaces, which are name characters here, and the
# overlap would both split names the event parser keeps whole and let a
# failing match backtrack exponentially in the number of attributes.
_S = r"[ \t\r\n]"
_ATTRS = r"(?:" + _S + r"+" + _NAME + _S + r"*=" + _S + r"*(?:\"[^\"]*\"|'[^']*'))*"
_START_TAG_RE = re.compile(r"(" + _NAME + r")(" + _ATTRS + r")" + _S + r"*\Z")
_ATTR_RE = re.compile(
    _S + r"+(" + _NAME + r")" + _S + r"*=" + _S + r"*(?:\"([^\"]*)\"|'([^']*)')"
)
_END_TAG_RE = re.compile(r"(" + _NAME + r")" + _S + r"*\Z")
# Closing tag with its leading '/', for the skip loop's per-token path.
_CLOSE_TAG_RE = re.compile(r"/(" + _NAME + r")" + _S + r"*\Z")
# One token of a dropped subtree, matched straight on the scanner buffer:
# a text run without references, then a complete end tag (group 1) or
# start tag (name, attributes, ``/`` if empty).  Built from the fragments
# above, so it accepts exactly the tags the per-token path accepts, with
# the same groups.
_SKIP_TOKEN_RE = re.compile(
    r"[^<&]*<(?:/(" + _NAME + r")" + _S + r"*>|(" + _NAME + r")(" + _ATTRS + r")"
    + _S + r"*(/?)>)"
)


def _read_text_run(scanner: Scanner) -> str:
    """One character-data run (entity references expanded), mirroring
    ``EventParser._parse_text``."""
    pieces: list[str] = []
    while True:
        pieces.append(scanner.read_until_any("<&"))
        char = scanner.peek()
        if char == "" or char == "<":
            return "".join(pieces)
        scanner.advance()  # '&'
        name = scanner.read_until(";", "entity reference")
        pieces.append(expand_entity(name, scanner))


def _skip_text_run(scanner: Scanner) -> bool:
    """Consume one character-data run without materialising it; entity
    references are still validated.  Returns whether the run was
    non-empty (every reference expands to at least one character)."""
    saw = False
    while True:
        if scanner.skip_until_any("<&"):
            saw = True
        if scanner.peek() != "&":
            return saw
        scanner.advance()
        name = scanner.read_until(";", "entity reference")
        expand_entity(name, scanner)
        saw = True


def _toplevel_text(scanner: Scanner) -> None:
    """Text outside the root element: only whitespace (possibly spelled
    as character references) is allowed."""
    text = _read_text_run(scanner)
    if text.strip():
        raise scanner.error("character data outside the root element")


def _check_duplicates(scanner: Scanner, tag: str, names: list[str]) -> None:
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise scanner.error(f"duplicate attribute {name!r} on <{tag}>")
        seen.add(name)


class FastPruner:
    """Scanner-level pruning pipeline compiled from a prune table."""

    def __init__(
        self,
        grammar: Grammar,
        projector: frozenset[str] | set[str],
        prune_attributes: bool = True,
        stats: PruneStats | None = None,
        guard: "LimitGuard | None" = None,
    ) -> None:
        self.grammar = grammar
        self.table: PruneTable = compile_prune_table(
            grammar, frozenset(projector), prune_attributes
        )
        self.projector = self.table.projector
        self.stats = stats
        #: Per-pass resource guard (:mod:`repro.limits`): bounds depth —
        #: including inside bulk-skipped subtrees — plus token size, input
        #: size and wall clock via the scanner.  Not pickled: guards are
        #: per call, never per configuration.
        self.guard = guard

    def __reduce__(self):
        # Pickling ships only (grammar, projector, flag) — the compiled
        # table is rebuilt (and memoised per process) on the receiving
        # side, and per-document stats stay process-local.  This is what
        # lets repro.parallel validate the configuration once in the
        # parent and hand the same pruner to every worker.
        return (
            FastPruner,
            (self.grammar, self.projector, self.table.prune_attributes),
        )

    # -- markup to markup (the hot path) ---------------------------------

    def write(
        self,
        source: Source,
        sink: IO[str],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        buffer_size: int = WRITE_BUFFER_SIZE,
    ) -> int:
        """Prune ``source`` straight into ``sink``; returns characters
        written.  Output is byte-identical to the event pipeline's
        (``write_events(..., declaration=False)``)."""
        guard = self.guard
        scanner = Scanner(source, chunk_size, guard=guard)
        helper = EventParser(scanner)
        stats = self.stats
        table = self.table
        local = table.local
        by_tag = table.by_tag
        by_parent = table.by_parent

        out: list[str] = []
        out_length = 0
        written = 0
        #: Rendered ``"<tag attrs"`` of the last kept start tag, held back
        #: one step so content-free elements collapse to ``<tag/>`` exactly
        #: as the event serializer's one-event lookahead does.
        pending: str | None = None
        open_kept: list[tuple[str, TagPlan]] = []
        seen_root = False

        helper._parse_prolog()  # consumes an XML declaration if present

        while True:
            if guard is not None:
                guard.tick()
            if not open_kept:
                scanner.skip_whitespace()
                if scanner.at_eof():
                    break
                if scanner.peek() != "<":
                    _toplevel_text(scanner)
                    continue
            else:
                plan = open_kept[-1][1]
                if plan.text_kept:
                    text = _read_text_run(scanner)
                    if text:
                        if stats is not None:
                            stats.texts_in += 1
                            stats.texts_out += 1
                        if pending is not None:
                            out.append(pending)
                            out.append(">")
                            out_length += len(pending) + 1
                            pending = None
                        piece = escape_text(text)
                        if len(piece) >= buffer_size:
                            # A run already larger than the buffer goes to
                            # the sink directly — joining it into ``out``
                            # first would only copy it once more.
                            if out:
                                written += out_length
                                sink.write("".join(out))
                                out.clear()
                                out_length = 0
                            written += len(piece)
                            sink.write(piece)
                        else:
                            out.append(piece)
                            out_length += len(piece)
                elif _skip_text_run(scanner):
                    if stats is not None:
                        stats.texts_in += 1
                if scanner.at_eof():
                    raise scanner.error(f"unclosed element <{open_kept[-1][0]}>")
            scanner.advance()  # '<' — text runs stop only at '<' or EOF
            char = scanner.peek()
            if char == "!":
                scanner.advance()
                if scanner.try_consume("--"):
                    text = scanner.read_until("-->", "comment")
                    if "--" in text:
                        raise scanner.error("'--' not allowed inside a comment")
                    if pending is not None:
                        out.append(pending)
                        out.append(">")
                        out_length += len(pending) + 1
                        pending = None
                    piece = f"<!--{text}-->"
                    out.append(piece)
                    out_length += len(piece)
                elif scanner.try_consume("[CDATA["):
                    if not open_kept:
                        raise scanner.error("CDATA section outside the root element")
                    text = scanner.read_until("]]>", "CDATA section")
                    if stats is not None:
                        stats.texts_in += 1
                    if open_kept[-1][1].text_kept:
                        if stats is not None:
                            stats.texts_out += 1
                        if pending is not None:
                            out.append(pending)
                            out.append(">")
                            out_length += len(pending) + 1
                            pending = None
                        piece = escape_text(text)
                        if len(piece) >= buffer_size:
                            if out:
                                written += out_length
                                sink.write("".join(out))
                                out.clear()
                                out_length = 0
                            written += len(piece)
                            sink.write(piece)
                        else:
                            out.append(piece)
                            out_length += len(piece)
                elif scanner.startswith("DOCTYPE"):
                    if seen_root:
                        raise scanner.error("DOCTYPE after the root element")
                    helper._parse_doctype()  # validated, no output
                else:
                    raise scanner.error("unrecognised markup declaration")
            elif char == "?":
                scanner.advance()
                target = scanner.read_name("processing-instruction target")
                data = scanner.read_until("?>", "processing instruction").lstrip()
                if pending is not None:
                    out.append(pending)
                    out.append(">")
                    out_length += len(pending) + 1
                    pending = None
                piece = f"<?{target} {data}?>" if data else f"<?{target}?>"
                out.append(piece)
                out_length += len(piece)
            elif char == "/":
                scanner.advance()
                raw = scanner.read_tag_content("closing tag")
                match = _END_TAG_RE.match(raw)
                if match is None:
                    raise scanner.error(f"malformed closing tag </{raw[:20]}>")
                tag = match.group(1)
                if not open_kept:
                    raise scanner.error(f"closing tag </{tag}> with no open element")
                expected = open_kept.pop()[0]
                if expected != tag:
                    raise scanner.error(
                        f"mismatched closing tag </{tag}>, expected </{expected}>"
                    )
                if pending is not None:
                    out.append(pending)
                    out.append("/>")
                    out_length += len(pending) + 2
                    pending = None
                else:
                    piece = f"</{tag}>"
                    out.append(piece)
                    out_length += len(piece)
            else:
                if seen_root and not open_kept:
                    raise scanner.error("multiple root elements")
                raw = scanner.read_tag_content("start tag")
                empty = raw.endswith("/")
                content = raw[:-1] if empty else raw
                match = _START_TAG_RE.match(content)
                if match is None:
                    raise scanner.error(f"malformed start tag <{content[:20]}>")
                tag = match.group(1)
                attrs_text = match.group(2)
                if local:
                    plan = by_tag.get(tag)
                else:
                    parent = open_kept[-1][1].name if open_kept else None
                    plan = by_parent.get((parent, tag))
                if plan is None:
                    # Attribute syntax/entity errors still win over the
                    # undeclared-element error, exactly as the event
                    # pipeline's parser runs ahead of its pruner.
                    if attrs_text:
                        self._validate_skipped_attributes(scanner, tag, attrs_text)
                    raise ValidationError(f"undeclared element <{tag}>")
                seen_root = True
                if plan.keep:
                    if attrs_text:
                        rendered, count_in, count_out = self._render_attributes(
                            scanner, tag, attrs_text, plan.prunable
                        )
                    else:
                        rendered, count_in, count_out = "", 0, 0
                    if stats is not None:
                        stats.elements_in += 1
                        stats.attributes_in += count_in
                        stats.distinct_tags_in.add(tag)
                        stats.elements_out += 1
                        stats.attributes_out += count_out
                        stats.distinct_tags_out.add(tag)
                    if pending is not None:
                        out.append(pending)
                        out.append(">")
                        out_length += len(pending) + 1
                    markup = f"<{tag}{rendered}"
                    if empty:
                        out.append(markup)
                        out.append("/>")
                        out_length += len(markup) + 2
                        pending = None
                    else:
                        pending = markup
                        open_kept.append((tag, plan))
                        if guard is not None:
                            guard.check_depth(len(open_kept))
                else:
                    count = (
                        self._validate_skipped_attributes(scanner, tag, attrs_text)
                        if attrs_text
                        else 0
                    )
                    if stats is not None:
                        stats.elements_in += 1
                        stats.attributes_in += count
                        stats.distinct_tags_in.add(tag)
                    if not empty:
                        self._skip_subtree(scanner, tag, stats, len(open_kept))
            if out_length >= buffer_size:
                written += out_length
                sink.write("".join(out))
                out.clear()
                out_length = 0
            if not open_kept and seen_root:
                scanner.skip_whitespace()
                if scanner.at_eof():
                    break
        if open_kept:
            raise scanner.error(f"unclosed element <{open_kept[-1][0]}>")
        if not seen_root:
            raise scanner.error("document has no root element")
        if out:
            written += out_length
            sink.write("".join(out))
        tracer = get_tracer()
        if tracer.enabled:
            # Process-wide fused-scan counters (per-document quantities
            # travel on the caller's "prune" span via PruneStats).
            tracer.count("fastpath.documents")
            tracer.count("fastpath.chars_out", written)
            if stats is not None:
                tracer.count("fastpath.tags_scanned", stats.elements_in)
        return written

    # -- markup to events -------------------------------------------------

    def events(
        self, source: Source, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[Event]:
        """The same fused traversal as an event stream: identical to
        ``prune_events(parse_events(source), ...)`` but pruned subtrees
        are bulk-skipped instead of parsed into events."""
        guard = self.guard
        scanner = Scanner(source, chunk_size, guard=guard)
        helper = EventParser(scanner)
        stats = self.stats
        table = self.table
        local = table.local
        open_kept: list[tuple[str, TagPlan]] = []
        seen_root = False

        yield helper._parse_prolog()

        while True:
            if guard is not None:
                guard.tick()
            if not open_kept:
                scanner.skip_whitespace()
                if scanner.at_eof():
                    break
                if scanner.peek() != "<":
                    _toplevel_text(scanner)
                    continue
            else:
                plan = open_kept[-1][1]
                if plan.text_kept:
                    text = _read_text_run(scanner)
                    if text:
                        if stats is not None:
                            stats.texts_in += 1
                            stats.texts_out += 1
                        yield Characters(text)
                elif _skip_text_run(scanner):
                    if stats is not None:
                        stats.texts_in += 1
                if scanner.at_eof():
                    raise scanner.error(f"unclosed element <{open_kept[-1][0]}>")
            scanner.advance()  # '<' — text runs stop only at '<' or EOF
            char = scanner.peek()
            if char == "!":
                scanner.advance()
                if scanner.try_consume("--"):
                    text = scanner.read_until("-->", "comment")
                    if "--" in text:
                        raise scanner.error("'--' not allowed inside a comment")
                    yield Comment(text)
                elif scanner.try_consume("[CDATA["):
                    if not open_kept:
                        raise scanner.error("CDATA section outside the root element")
                    text = scanner.read_until("]]>", "CDATA section")
                    if stats is not None:
                        stats.texts_in += 1
                    if open_kept[-1][1].text_kept:
                        if stats is not None:
                            stats.texts_out += 1
                        yield Characters(text)
                elif scanner.startswith("DOCTYPE"):
                    if seen_root:
                        raise scanner.error("DOCTYPE after the root element")
                    yield helper._parse_doctype()
                else:
                    raise scanner.error("unrecognised markup declaration")
            elif char == "?":
                scanner.advance()
                target = scanner.read_name("processing-instruction target")
                data = scanner.read_until("?>", "processing instruction").lstrip()
                yield ProcessingInstruction(target, data)
            elif char == "/":
                scanner.advance()
                raw = scanner.read_tag_content("closing tag")
                match = _END_TAG_RE.match(raw)
                if match is None:
                    raise scanner.error(f"malformed closing tag </{raw[:20]}>")
                tag = match.group(1)
                if not open_kept:
                    raise scanner.error(f"closing tag </{tag}> with no open element")
                expected = open_kept.pop()[0]
                if expected != tag:
                    raise scanner.error(
                        f"mismatched closing tag </{tag}>, expected </{expected}>"
                    )
                yield EndElement(tag)
            else:
                if seen_root and not open_kept:
                    raise scanner.error("multiple root elements")
                raw = scanner.read_tag_content("start tag")
                empty = raw.endswith("/")
                content = raw[:-1] if empty else raw
                match = _START_TAG_RE.match(content)
                if match is None:
                    raise scanner.error(f"malformed start tag <{content[:20]}>")
                tag = match.group(1)
                attrs_text = match.group(2)
                if local:
                    plan = table.by_tag.get(tag)
                else:
                    parent = open_kept[-1][1].name if open_kept else None
                    plan = table.by_parent.get((parent, tag))
                if plan is None:
                    if attrs_text:
                        self._validate_skipped_attributes(scanner, tag, attrs_text)
                    raise ValidationError(f"undeclared element <{tag}>")
                seen_root = True
                if plan.keep:
                    if attrs_text:
                        attributes, count_in = self._collect_attributes(
                            scanner, tag, attrs_text, plan.prunable
                        )
                    else:
                        attributes, count_in = {}, 0
                    if stats is not None:
                        stats.elements_in += 1
                        stats.attributes_in += count_in
                        stats.distinct_tags_in.add(tag)
                        stats.elements_out += 1
                        stats.attributes_out += len(attributes)
                        stats.distinct_tags_out.add(tag)
                    yield StartElement(tag, attributes)
                    if empty:
                        yield EndElement(tag)
                    else:
                        open_kept.append((tag, plan))
                        if guard is not None:
                            guard.check_depth(len(open_kept))
                else:
                    count = (
                        self._validate_skipped_attributes(scanner, tag, attrs_text)
                        if attrs_text
                        else 0
                    )
                    if stats is not None:
                        stats.elements_in += 1
                        stats.attributes_in += count
                        stats.distinct_tags_in.add(tag)
                    if not empty:
                        self._skip_subtree(scanner, tag, stats, len(open_kept))
            if not open_kept and seen_root:
                scanner.skip_whitespace()
                if scanner.at_eof():
                    break
        if open_kept:
            raise scanner.error(f"unclosed element <{open_kept[-1][0]}>")
        if not seen_root:
            raise scanner.error("document has no root element")
        yield EndDocument()

    # -- attribute helpers -------------------------------------------------

    def _render_attributes(
        self, scanner: Scanner, tag: str, attrs_text: str, prunable: frozenset[str]
    ) -> tuple[str, int, int]:
        """Serialize a kept element's attributes (filtered and
        re-escaped); returns ``(markup, attributes seen, attributes
        kept)``."""
        pieces: list[str] = []
        names: list[str] = []
        count_out = 0
        for match in _ATTR_RE.finditer(attrs_text):
            name = match.group(1)
            value = match.group(2)
            if value is None:
                value = match.group(3)
            names.append(name)
            if "&" in value:
                value = expand_entities(value, scanner)
            if name not in prunable:
                count_out += 1
                pieces.append(f' {name}="{escape_attribute(value)}"')
        if len(names) > 1:
            _check_duplicates(scanner, tag, names)
        return "".join(pieces), len(names), count_out

    def _collect_attributes(
        self, scanner: Scanner, tag: str, attrs_text: str, prunable: frozenset[str]
    ) -> tuple[dict[str, str], int]:
        """Like :meth:`_render_attributes` but producing the (filtered)
        attribute dict for the event stream."""
        attributes: dict[str, str] = {}
        names: list[str] = []
        for match in _ATTR_RE.finditer(attrs_text):
            name = match.group(1)
            value = match.group(2)
            if value is None:
                value = match.group(3)
            names.append(name)
            if "&" in value:
                value = expand_entities(value, scanner)
            if name not in prunable:
                attributes[name] = value
        if len(names) > 1:
            _check_duplicates(scanner, tag, names)
        return attributes, len(names)

    def _validate_skipped_attributes(
        self, scanner: Scanner, tag: str, attrs_text: str
    ) -> int:
        """Well-formedness checks (entity validity, uniqueness) for a
        discarded element's attributes; returns how many there were."""
        names: list[str] = []
        for match in _ATTR_RE.finditer(attrs_text):
            names.append(match.group(1))
            value = match.group(2)
            if value is None:
                value = match.group(3)
            if "&" in value:
                expand_entities(value, scanner)  # validate references
        if len(names) > 1:
            _check_duplicates(scanner, tag, names)
        return len(names)

    # -- bulk skipping -----------------------------------------------------

    def _skip_subtree(
        self,
        scanner: Scanner,
        first_tag: str,
        stats: PruneStats | None,
        base_depth: int = 0,
    ) -> None:
        """Bulk-skip the content of a discarded element up to and
        including its end tag, maintaining only a tag stack for
        well-formedness and the stats counters the event path would have
        gathered.  ``base_depth`` is the kept-element nesting above this
        subtree, so the depth limit sees the document's true depth even
        inside discarded regions.

        Each step first matches :data:`_SKIP_TOKEN_RE` on the scanner
        buffer, taking a text run and the tag after it in one C-level
        match.  The per-token path below takes what the regex cannot: an
        entity reference, a comment, CDATA or PI, a token cut by the
        buffer end, a tag longer than ``max_token_bytes`` (so the token
        rule charges it), and every error — a mismatched end tag is left
        unconsumed for it to report."""
        guard = self.guard
        open_tags = [first_tag]
        tick = limit = None
        if guard is not None:
            guard.check_depth(base_depth + 1)
            if guard.deadline_at is not None:
                tick = guard.tick
            limit = guard.max_token
        token = _SKIP_TOKEN_RE.match
        # No refill happens between regex matches, so the buffer and the
        # position live in locals until the per-token path needs them.
        buffer = scanner._buffer
        position = scanner._position
        while open_tags:
            if tick is not None:
                tick()
            match = token(buffer, position)
            if match is not None:
                closing, tag, attrs_text, slash = match.groups()
                end = match.end()
                if (
                    limit is not None
                    and end - position > limit
                    and end - match.start(2 if closing is None else 1) + 2 > limit
                ):
                    pass  # a tag the token rule may charge: per-token path
                elif closing is not None:
                    if closing == open_tags[-1]:
                        if stats is not None and buffer[position] != "<":
                            stats.texts_in += 1
                        position = end
                        open_tags.pop()
                        continue
                else:
                    if stats is not None and buffer[position] != "<":
                        stats.texts_in += 1
                    position = end
                    count = 0
                    if attrs_text:
                        scanner._position = end  # where an attribute error points
                        count = self._validate_skipped_attributes(scanner, tag, attrs_text)
                    if stats is not None:
                        stats.elements_in += 1
                        stats.attributes_in += count
                        stats.distinct_tags_in.add(tag)
                    if not slash:
                        open_tags.append(tag)
                        if guard is not None:
                            guard.check_depth(base_depth + len(open_tags))
                    continue
            scanner._position = position
            saw, opened, char = scanner.skip_text_open()
            while not opened:
                if char == "":
                    raise scanner.error(f"unclosed element <{open_tags[-1]}>")
                scanner.advance()  # '&'
                name = scanner.read_until(";", "entity reference")
                expand_entity(name, scanner)
                saw = True
                more, opened, char = scanner.skip_text_open()
                saw = saw or more
            if saw and stats is not None:
                stats.texts_in += 1
            if char == "!":
                scanner.advance()
                if scanner.try_consume("--"):
                    text = scanner.read_until("-->", "comment")
                    if "--" in text:
                        raise scanner.error("'--' not allowed inside a comment")
                elif scanner.try_consume("[CDATA["):
                    scanner.skip_until("]]>", "CDATA section")
                    if stats is not None:
                        stats.texts_in += 1
                elif scanner.startswith("DOCTYPE"):
                    raise scanner.error("DOCTYPE after the root element")
                else:
                    raise scanner.error("unrecognised markup declaration")
            elif char == "?":
                scanner.advance()
                scanner.read_name("processing-instruction target")
                scanner.skip_until("?>", "processing instruction")
            elif char == "/":
                raw = scanner.read_tag_content("closing tag")  # includes '/'
                match = _CLOSE_TAG_RE.match(raw)
                if match is None:
                    raise scanner.error(f"malformed closing tag <{raw[:20]}>")
                closing = match.group(1)
                expected = open_tags.pop()
                if expected != closing:
                    raise scanner.error(
                        f"mismatched closing tag </{closing}>, expected </{expected}>"
                    )
            else:
                raw = scanner.read_tag_content("start tag")
                empty = raw.endswith("/")
                content = raw[:-1] if empty else raw
                match = _START_TAG_RE.match(content)
                if match is None:
                    raise scanner.error(f"malformed start tag <{content[:20]}>")
                tag = match.group(1)
                attrs_text = match.group(2)
                count = (
                    self._validate_skipped_attributes(scanner, tag, attrs_text)
                    if attrs_text
                    else 0
                )
                if stats is not None:
                    stats.elements_in += 1
                    stats.attributes_in += count
                    stats.distinct_tags_in.add(tag)
                if not empty:
                    open_tags.append(tag)
                    if guard is not None:
                        guard.check_depth(base_depth + len(open_tags))
            buffer = scanner._buffer
            position = scanner._position
        scanner._position = position
