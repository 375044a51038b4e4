"""TreeBuilder and scanner behaviour tests."""

import io
import re

import pytest

from repro.errors import XMLSyntaxError
from repro.xmltree.builder import (
    TreeBuilder,
    build_tree,
    parse_document,
    parse_document_with_doctype,
)
from repro.xmltree.events import Characters, EndElement, StartElement
from repro.xmltree.lexer import Scanner
from repro.xmltree.nodes import Text


class TestTreeBuilder:
    def test_adjacent_text_merges(self):
        events = [
            StartElement("a", {}),
            Characters("one"),
            Characters(" two"),
            EndElement("a"),
        ]
        document = build_tree(events)
        assert len(document.root.children) == 1
        assert document.root.text_value() == "one two"

    def test_strip_whitespace_drops_inter_element_runs(self):
        document = parse_document("<a>\n  <b>x</b>\n  <c/>\n</a>", strip_whitespace=True)
        kinds = [type(child).__name__ for child in document.root.children]
        assert kinds == ["Element", "Element"]

    def test_strip_whitespace_keeps_meaningful_text(self):
        document = parse_document("<a> x </a>", strip_whitespace=True)
        assert document.root.text_value() == " x "

    def test_doctype_is_captured(self):
        _, doctype = parse_document_with_doctype(
            '<!DOCTYPE a SYSTEM "a.dtd"><a/>'
        )
        assert doctype is not None and doctype.system_id == "a.dtd"

    def test_unbalanced_events_rejected(self):
        builder = TreeBuilder()
        builder.feed(StartElement("a", {}))
        with pytest.raises(XMLSyntaxError):
            builder.document()

    def test_no_events_rejected(self):
        with pytest.raises(XMLSyntaxError):
            build_tree([])

    def test_two_roots_rejected(self):
        builder = TreeBuilder()
        for event in (StartElement("a", {}), EndElement("a"), StartElement("b", {})):
            with pytest.raises(XMLSyntaxError) if event.tag == "b" else _noraise():
                builder.feed(event)

    def test_text_outside_root_is_dropped(self):
        builder = TreeBuilder()
        builder.feed(Characters("ignored"))
        builder.feed(StartElement("a", {}))
        builder.feed(EndElement("a"))
        assert builder.document().root.children == []


class _noraise:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestScanner:
    def test_peek_does_not_consume(self):
        scanner = Scanner("ab")
        assert scanner.peek() == "a" and scanner.peek() == "a"
        assert scanner.advance() == "a"

    def test_peek_at(self):
        scanner = Scanner("abc")
        assert scanner.peek_at(2) == "c"
        assert scanner.peek_at(9) == ""

    def test_line_and_column_tracking(self):
        scanner = Scanner("ab\ncd")
        for _ in range(4):
            scanner.advance()
        assert scanner.line == 2
        assert scanner.column == 2

    def test_read_until_across_chunks(self):
        scanner = Scanner(io.StringIO("aaa|bbb"), chunk_size=2)
        assert scanner.read_until("|") == "aaa"
        assert scanner.read_until_any("") == "bbb"

    def test_read_until_missing_delimiter_raises(self):
        scanner = Scanner("abc")
        with pytest.raises(XMLSyntaxError):
            scanner.read_until("|", "test")

    def test_read_until_any_stops_at_nearest(self):
        scanner = Scanner("abc&def<ghi")
        assert scanner.read_until_any("<&") == "abc"
        scanner.advance()
        assert scanner.read_until_any("<&") == "def"

    def test_read_name_across_chunks(self):
        scanner = Scanner(io.StringIO("verylongname>"), chunk_size=3)
        assert scanner.read_name() == "verylongname"
        assert scanner.peek() == ">"

    def test_read_name_rejects_bad_start(self):
        scanner = Scanner("1abc")
        with pytest.raises(XMLSyntaxError):
            scanner.read_name()

    def test_try_consume(self):
        scanner = Scanner("<?xml")
        assert scanner.try_consume("<?")
        assert not scanner.try_consume("zzz")
        assert scanner.try_consume("xml")

    def test_skip_whitespace_bulk(self):
        scanner = Scanner("   \n\t x")
        scanner.skip_whitespace()
        assert scanner.peek() == "x"
        assert scanner.line == 2

    def test_compaction_keeps_consuming(self):
        scanner = Scanner(io.StringIO("x" * 100_000 + "|end"), chunk_size=64)
        text = scanner.read_until("|")
        assert len(text) == 100_000
        assert scanner.read_until_any("") == "end"

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "events"])
    def test_string_source_buffer_stays_chunk_bounded(self, monkeypatch, fast):
        """A ``str`` source is read in chunks like a stream: the buffer
        never holds more than one chunk plus the longest token, however
        long the document."""
        from repro import prune
        from repro.dtd.grammar import grammar_from_text

        grammar = grammar_from_text(
            "<!ELEMENT bib (book*)><!ELEMENT book (title)>"
            "<!ATTLIST book note CDATA #IMPLIED><!ELEMENT title (#PCDATA)>",
            "bib",
        )
        doc = (
            "<bib>"
            + "".join(
                f'<book note="{"n" * (i % 7 * 150)}"><title>{"t" * (i % 11 * 40)}'
                "</title></book>\n"
                for i in range(400)
            )
            + "</bib>"
        )
        chunk_size = 512
        longest = max(map(len, re.findall(r"<[^>]*>|[^<]+", doc)))
        peak = 0
        fill = Scanner._fill

        def spy(scanner, needed):
            nonlocal peak
            fill(scanner, needed)
            peak = max(peak, len(scanner._buffer))

        monkeypatch.setattr(Scanner, "_fill", spy)
        for projector in ({"bib"}, {"bib", "book", "title"}):
            prune(doc, grammar, projector, fast=fast, chunk_size=chunk_size)
        assert len(doc) > 100 * chunk_size
        assert 0 < peak <= chunk_size + longest

    def test_read_until_after_buffer_drop_at_eof(self):
        # Regression: when _fill drops a fully-consumed buffer whose length
        # equals the characters left in the stream, the refilled buffer is
        # the same length as before — the no-progress EOF check must use
        # the absolute stream offset, not the buffer length, or it raises
        # a spurious "unexpected end of input" on valid input.
        scanner = Scanner(io.StringIO("abcdefghij>"), chunk_size=4)
        scanner.expect("abcde")
        assert scanner.read_until(">") == "fghij"

    def test_skip_until_after_buffer_drop_at_eof(self):
        scanner = Scanner(io.StringIO("abcdefghij>"), chunk_size=4)
        scanner.expect("abcde")
        scanner.skip_until(">")
        assert scanner.at_eof()

    def test_read_tag_content_after_buffer_drop_at_eof(self):
        scanner = Scanner(io.StringIO("abcdefghij>"), chunk_size=4)
        scanner.expect("abcde")
        assert scanner.read_tag_content() == "fghij"

    def test_missing_delimiter_still_raises_from_stream(self):
        scanner = Scanner(io.StringIO("abcdefghij"), chunk_size=4)
        scanner.expect("abcde")
        with pytest.raises(XMLSyntaxError):
            scanner.read_until(">", "test")
