"""Streaming XML parser tests: events, entities, errors, chunking."""

import io

import pytest

from repro.errors import XMLSyntaxError
from repro.xmltree.builder import parse_document, parse_document_with_doctype
from repro.xmltree.events import (
    Characters,
    Comment,
    Doctype,
    EndDocument,
    EndElement,
    ProcessingInstruction,
    StartDocument,
    StartElement,
)
from repro.xmltree.parser import expand_entities, parse_events


def events_of(text, **kwargs):
    return list(parse_events(text, **kwargs))


class TestBasicEvents:
    def test_simple_element_stream(self):
        events = events_of("<a>hi</a>")
        assert events == [
            StartDocument(),
            StartElement("a", {}),
            Characters("hi"),
            EndElement("a"),
            EndDocument(),
        ]

    def test_empty_element_yields_start_end_pair(self):
        events = events_of("<a><b/></a>")
        kinds = [type(event).__name__ for event in events]
        assert kinds == ["StartDocument", "StartElement", "StartElement",
                         "EndElement", "EndElement", "EndDocument"]

    def test_attributes_preserve_order(self):
        events = events_of('<a zeta="1" alpha="2"/>')
        start = events[1]
        assert isinstance(start, StartElement)
        assert list(start.attributes) == ["zeta", "alpha"]

    def test_xml_declaration_is_parsed(self):
        events = events_of("<?xml version='1.1' encoding='UTF-8' standalone='yes'?><a/>")
        assert events[0] == StartDocument(version="1.1", encoding="UTF-8", standalone=True)

    def test_comment_and_pi(self):
        events = events_of("<a><!--note--><?target data?></a>")
        assert Comment("note") in events
        assert ProcessingInstruction("target", "data") in events

    def test_cdata_becomes_characters(self):
        events = events_of("<a><![CDATA[<raw> & stuff]]></a>")
        assert Characters("<raw> & stuff") in events

    def test_whitespace_outside_root_is_ignored(self):
        events = events_of("  <a/>  \n")
        assert isinstance(events[1], StartElement)


class TestEntities:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("&amp;", "&"),
            ("&lt;&gt;", "<>"),
            ("&apos;&quot;", "'\""),
            ("&#65;", "A"),
            ("&#x41;", "A"),
            ("a&amp;b", "a&b"),
        ],
    )
    def test_expand(self, raw, expected):
        assert expand_entities(raw) == expected

    def test_entities_in_text(self):
        events = events_of("<a>x &amp; y</a>")
        assert Characters("x & y") in events

    def test_entities_in_attributes(self):
        events = events_of('<a v="1&lt;2"/>')
        assert events[1].attributes == {"v": "1<2"}

    def test_unknown_entity_raises(self):
        with pytest.raises(XMLSyntaxError):
            events_of("<a>&nosuch;</a>")

    def test_bad_char_reference_raises(self):
        with pytest.raises(XMLSyntaxError):
            events_of("<a>&#xZZ;</a>")


class TestDoctype:
    def test_doctype_with_internal_subset(self):
        document, doctype = parse_document_with_doctype(
            "<!DOCTYPE bib [<!ELEMENT bib (#PCDATA)>]><bib>x</bib>"
        )
        assert doctype is not None
        assert doctype.name == "bib"
        assert "<!ELEMENT bib" in doctype.internal_subset

    def test_doctype_with_system_id(self):
        events = events_of('<!DOCTYPE a SYSTEM "a.dtd"><a/>')
        doctype = next(event for event in events if isinstance(event, Doctype))
        assert doctype.system_id == "a.dtd"

    def test_doctype_with_public_id(self):
        events = events_of('<!DOCTYPE a PUBLIC "pub" "sys"><a/>')
        doctype = next(event for event in events if isinstance(event, Doctype))
        assert (doctype.public_id, doctype.system_id) == ("pub", "sys")


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "<a>",  # unclosed
            "<a></b>",  # mismatched
            "<a></a></a>",  # extra close
            "<a/><b/>",  # two roots
            "text only",  # no root
            "",  # empty
            "<a a='1' a='2'/>",  # duplicate attribute
            "<a><!-- -- --></a>",  # '--' in comment
            "<a>&unterminated",  # bad entity
            "<a x=1/>",  # unquoted attribute
            "<a x='1'y='2'/>",  # no whitespace between attributes
            "<a x='1'\u3000y='2'/>",  # a non-XML space is a name character
        ],
    )
    def test_malformed_raises(self, bad):
        with pytest.raises(XMLSyntaxError):
            events_of(bad)

    def test_error_carries_position(self):
        try:
            events_of("<a>\n  <b></c></a>")
        except XMLSyntaxError as error:
            assert error.line == 2
        else:  # pragma: no cover
            pytest.fail("expected a syntax error")


class TestStreaming:
    def test_tiny_chunks_produce_identical_events(self):
        text = '<?xml version="1.0"?><a x="1&amp;2"><b>hello &lt;world&gt;</b><c/>tail</a>'
        whole = events_of(text)
        chunked = list(parse_events(io.StringIO(text), chunk_size=3))
        assert whole == chunked

    def test_delimiter_straddles_chunk_boundary(self):
        text = "<a><!--" + "x" * 10 + "--><b/></a>"
        assert events_of(text) == list(parse_events(io.StringIO(text), chunk_size=4))

    def test_large_text_run(self):
        payload = "word " * 10_000
        document = parse_document(io.StringIO(f"<a>{payload}</a>"), strip_whitespace=False)
        assert document.root.text_value() == payload
