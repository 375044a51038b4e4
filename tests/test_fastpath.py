"""Fused fast path vs event pipeline: byte-identical output, identical
stats, identical event streams, identical errors — across chunk
boundaries, misc nodes, CDATA, entities, deep nesting, and single-type
grammars."""

import io
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtd.grammar import text_name
from repro.dtd.regex import Atom, Seq, Star
from repro.dtd.singletype import single_type_grammar
from repro.errors import LimitExceeded, ValidationError, XMLSyntaxError
from repro.limits import Limits
from repro.projection.fastpath import FastPruner
from repro.projection.stats import PruneStats
from repro.api import prune
from repro.workloads.randomgen import random_grammar, random_valid_document
from repro.xmltree.parser import parse_events
from repro.xmltree.serializer import serialize
from tests.conftest import BOOK_XML

_COUNTERS = (
    "elements_in", "elements_out", "attributes_in", "attributes_out",
    "texts_in", "texts_out", "distinct_tags_in", "distinct_tags_out",
)


def _statdict(stats: PruneStats) -> dict:
    return {name: getattr(stats, name) for name in _COUNTERS}


def _both(grammar, xml, projector, chunk_size=1 << 16):
    fast_sink, slow_sink = io.StringIO(), io.StringIO()
    fast_stats = prune(
        io.StringIO(xml), grammar, projector, out=fast_sink,
        fast=True, chunk_size=chunk_size,
    ).stats
    slow_stats = prune(
        io.StringIO(xml), grammar, projector, out=slow_sink,
        fast=False, chunk_size=chunk_size,
    ).stats
    return fast_sink.getvalue(), fast_stats, slow_sink.getvalue(), slow_stats


def assert_paths_agree(grammar, xml, projector, chunk_size=1 << 16):
    fast, fast_stats, slow, slow_stats = _both(grammar, xml, projector, chunk_size)
    assert fast == slow
    assert _statdict(fast_stats) == _statdict(slow_stats)
    assert fast_stats.bytes_out == slow_stats.bytes_out == len(fast)
    return fast


MISC_XML = (
    '<?xml version="1.0"?>\n'
    "<!-- preamble -->\n"
    "<bib><!-- kept region -->"
    '<book isbn="a&amp;b"><title>T&#65;!</title><author>A &lt; B</author>'
    "<!-- inside kept book --><?render fast?></book>"
    '<book isbn="x"><title><![CDATA[]]></title><author>plain</author>'
    "<year>2001</year><price>9</price></book>"
    "</bib>\n<?trailer pi?><!-- done -->"
)


class TestByteParity:
    def test_selective_projector(self, book_grammar):
        projector = book_grammar.projector_closure(["title", text_name("title")])
        pruned = assert_paths_agree(book_grammar, BOOK_XML, projector)
        assert "<title>Divina Commedia</title>" in pruned
        assert "author" not in pruned

    def test_identity_projector(self, book_grammar):
        projector = frozenset(book_grammar.productions)
        assert_paths_agree(book_grammar, BOOK_XML, projector)

    def test_root_only_projector(self, book_grammar):
        assert_paths_agree(book_grammar, BOOK_XML, frozenset({"bib"}))

    def test_misc_cdata_entities(self, book_grammar):
        for names in (["title", text_name("title")],
                      ["title", text_name("title"), "author", text_name("author")],
                      ["bib"]):
            projector = book_grammar.projector_closure(names)
            assert_paths_agree(book_grammar, MISC_XML, projector)

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 64])
    def test_chunk_boundaries(self, book_grammar, chunk_size):
        """Markup, comments, CDATA and entity references straddling every
        possible chunk edge must not change the output."""
        projector = book_grammar.projector_closure(["title", text_name("title")])
        assert_paths_agree(book_grammar, MISC_XML, projector, chunk_size=chunk_size)

    def test_empty_cdata_blocks_empty_element_collapse(self, book_grammar):
        # Characters("") still separates <title> from </title> in the
        # event serializer; the fast path must reproduce that.
        xml = "<bib><book><title><![CDATA[]]></title><author>a</author></book></bib>"
        projector = book_grammar.projector_closure(["title", text_name("title")])
        pruned = assert_paths_agree(book_grammar, xml, projector)
        assert "<title></title>" in pruned

    def test_deep_nesting(self):
        grammar = single_type_grammar("Doc", {
            "Doc": ("a", Star(Atom("Inner"))),
            "Inner": ("a", Star(Atom("Inner"))),
        })
        depth = 2000
        xml = "<a>" * depth + "</a>" * depth
        assert_paths_agree(grammar, xml, frozenset({"Doc", "Inner"}))

    def test_xmark_document(self, xmark):
        from repro.core.pipeline import analyze

        grammar, document, _ = xmark
        xml = serialize(document)
        projector = analyze(grammar, ["//person/name"]).projector
        assert_paths_agree(grammar, xml, projector)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000),
        st.sampled_from([3, 17, 1 << 16]),
    )
    def test_random_documents(self, grammar_seed, document_seed, selection_seed, chunk_size):
        import random

        grammar = random_grammar(grammar_seed)
        document = random_valid_document(grammar, document_seed)
        rng = random.Random(selection_seed)
        projector = grammar.projector_closure(
            [name for name in sorted(grammar.reachable_names()) if rng.random() < 0.4]
            or [grammar.root]
        ) | {grammar.root}
        assert_paths_agree(grammar, serialize(document), projector, chunk_size=chunk_size)


class TestEventParity:
    def _streams(self, grammar, xml, projector, chunk_size=1 << 16):
        fast = list(FastPruner(grammar, projector).events(io.StringIO(xml), chunk_size))
        slow = list(prune(parse_events(xml), grammar, projector).events)
        return fast, slow

    def test_event_streams_identical(self, book_grammar):
        projector = book_grammar.projector_closure(["title", text_name("title")])
        fast, slow = self._streams(book_grammar, MISC_XML, projector)
        assert fast == slow

    @pytest.mark.parametrize("chunk_size", [1, 5, 1 << 16])
    def test_event_streams_identical_across_chunks(self, book_grammar, chunk_size):
        projector = frozenset(book_grammar.productions)
        fast, slow = self._streams(book_grammar, MISC_XML, projector, chunk_size)
        assert fast == slow

    def test_events_feed_tree_loader(self, book_grammar):
        from repro.engine.loader import load_pruned

        projector = book_grammar.projector_closure(["author", text_name("author")])
        fast = load_pruned(io.StringIO(BOOK_XML), book_grammar, projector, fast=True)
        slow = load_pruned(io.StringIO(BOOK_XML), book_grammar, projector, fast=False)
        assert serialize(fast.document) == serialize(slow.document)
        assert fast.nodes_built == slow.nodes_built
        assert _statdict(fast.prune_stats) == _statdict(slow.prune_stats)


class TestErrorParity:
    BAD_DOCS = [
        "<bib><book><title>t</title></book>",                        # unclosed root
        "<bib><book><title>t</author></book></bib>",                 # mismatched close
        "<bib><book><title>&nope;</title></book></bib>",             # unknown entity
        "<bib><book><title>t<!-- -- --></title></book></bib>",       # -- in comment
        '<bib><book isbn="a" isbn="b"><title>t</title></book></bib>',  # dup attribute
        "<bib></bib><bib></bib>",                                    # two roots
        "<bib></bib>stray",                                          # text after root
        "<bib><book><title><![CDATA[x</title></book></bib>",         # unterminated CDATA
    ]

    @pytest.mark.parametrize("xml", BAD_DOCS)
    def test_syntax_errors_on_both_paths(self, book_grammar, xml):
        # Keep only the root so every error above sits in a *pruned*
        # region for the fast path — it must still be detected.
        projector = frozenset({"bib"})
        with pytest.raises(XMLSyntaxError):
            prune(xml, book_grammar, projector, fast=True)
        with pytest.raises(XMLSyntaxError):
            prune(xml, book_grammar, projector, fast=False)

    def test_undeclared_element(self, book_grammar):
        xml = "<bib><mystery/></bib>"
        for fast in (True, False):
            with pytest.raises(ValidationError, match="mystery"):
                prune(xml, book_grammar, frozenset({"bib"}), fast=fast)


class TestSingleTypeGrammars:
    def _grammar(self):
        # Both shelves hold <item> elements, but under different names —
        # a local-element setup a DTD cannot express.
        return single_type_grammar("Root", {
            "Root": ("library", Seq([Atom("Books"), Atom("Films")])),
            "Books": ("books", Star(Atom("Book"))),
            "Films": ("films", Star(Atom("Film"))),
            "Book": ("item", Seq([Atom("BTitle")])),
            "Film": ("item", Seq([Atom("FTitle")])),
            "BTitle": ("title", Atom("BText")),
            "FTitle": ("title", Atom("FText")),
            "BText": None,
            "FText": None,
        })

    XML = ("<library><books><item><title>b</title></item></books>"
           "<films><item><title>f</title></item></films></library>")

    def test_local_elements_resolved_by_parent(self):
        grammar = self._grammar()
        # Impossible to express with tags alone: keep <item> under the
        # Book interpretation only — resolution must use the parent's
        # name, not the tag.
        projector = frozenset({"Root", "Books", "Films", "Book", "BTitle", "BText"})
        pruned = assert_paths_agree(grammar, self.XML, projector)
        assert pruned == ("<library><books><item><title>b</title></item></books>"
                          "<films/></library>")

    @pytest.mark.parametrize("chunk_size", [1, 4, 1 << 16])
    def test_parity_across_chunks(self, chunk_size):
        grammar = self._grammar()
        xml = ("<library><books><item><title>a&amp;b</title></item></books>"
               "<films><item><title><![CDATA[f]]></title></item></films></library>")
        projector = frozenset({"Root", "Books", "Films", "Film", "FTitle", "FText"})
        assert_paths_agree(grammar, xml, projector, chunk_size=chunk_size)


class TestErrorPositionsInDroppedSubtrees:
    """Errors met while bulk-skipping a dropped subtree report the exact
    message, line and column of the per-token skip, whatever the chunk
    size.  Each bad line sits several lines deep in a dropped <book>,
    after multi-line attribute values and text."""

    HEAD = (
        '<bib>\n<book isbn="kept\nacross lines">\n  <title>first\n  title</title>\n'
        '  <author>\n    <note\tkind="a&amp;b"\n          rank=\'2\'>deep\n'
        "    text</note>\n"
    )
    TAIL = "  </author>\n</book>\n</bib>\n"
    CASES = {
        "duplicate-attribute": (
            '    <e a="1" b="2" a="3"/>\n', "duplicate attribute 'a' on <e>", 10, 27,
        ),
        "attribute-entity": ('    <e a="x&nope;y"/>\n', "unknown entity &nope;", 10, 22),
        "text-entity": ("    <e>x &nope; y</e>\n", "unknown entity &nope;", 10, 16),
        "mismatched-end-tag": (
            "    <e><f>t</e>\n", "mismatched closing tag </e>, expected </f>", 10, 16,
        ),
        "malformed-start-tag": ("    <e a=1>t</e>\n", "malformed start tag <e a=1>", 10, 12),
        "comment-dashes": ("    <!-- a -- b -->\n", "'--' not allowed inside a comment", 10, 20),
        "unclosed-element": (None, "unclosed element <e>", 10, 12),
    }

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 1 << 16])
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("via", ["prune", "events"])
    def test_error_position(self, book_grammar, case, chunk_size, via):
        bad, message, line, column = self.CASES[case]
        xml = self.HEAD + (bad + self.TAIL if bad is not None else "    <e>tail")
        projector = frozenset({"bib"})
        with pytest.raises(XMLSyntaxError) as caught:
            if via == "prune":
                prune(xml, book_grammar, projector, fast=True, chunk_size=chunk_size)
            else:
                list(FastPruner(book_grammar, projector).events(io.StringIO(xml), chunk_size))
        error = caught.value
        assert (str(error), error.line, error.column) == (
            f"{message} (line {line}, column {column})", line, column,
        )


_SPACE = st.lists(
    st.sampled_from([" ", "\t", "\r", "\n", "\r\n", "\x85", "\u3000"]), max_size=2,
).map("".join)
_TAG_NAME = st.sampled_from(["title", "author", "x", "a.b-c", "_:z", "ñame", "名前"])


def _faulty(faults, usual, unusual):
    """``usual``, or when ``faults`` is set ``unusual`` one time in ten."""
    return st.sampled_from([usual] * 9 + [unusual] if faults else [usual])


@st.composite
def _attribute(draw, faults):
    name = draw(_faulty(faults, draw(st.sampled_from(["a", "b", "ü", "k:v"])), ""))
    quote = draw(st.sampled_from(['"', "'"]))
    pieces = ["v", ">", "<", "&amp;", "&#65;", " ", "\n"]
    value = "".join(draw(st.lists(
        st.sampled_from(pieces + ["'", '"'] if faults else pieces), max_size=4,
    )))
    return (
        draw(_SPACE.filter(bool) | st.just(" ")) + name + draw(_SPACE)
        + draw(_faulty(faults, "=", "")) + draw(_SPACE)
        + quote + value + draw(_faulty(faults, quote, ""))
    )


@st.composite
def _element(draw, faults):
    name = draw(_faulty(faults, draw(_TAG_NAME), ""))
    start = "<" + name + "".join(draw(st.lists(_attribute(faults), max_size=3)))
    start += draw(_SPACE)
    ending = draw(st.sampled_from([">", "/>"]))
    ending = draw(_faulty(faults, ending, "/ >"))
    if ending != ">":
        return start + ending
    text = draw(st.sampled_from(["", "t", "a &amp; b", "\n  ", "x<!--c-->y"]))
    end_name = draw(_faulty(faults, name, "x"))
    return start + ending + text + "</" + end_name + draw(_SPACE) + ">"


_ELEMENTS = st.booleans().flatmap(
    lambda faults: st.lists(_element(faults), min_size=1, max_size=4)
)


class TestTagSpellingParity:
    """Dropped subtrees full of generated tag spellings: the default
    chunk (one token regex over the buffer) and ``chunk_size=1`` (the
    per-token skip) agree on verdict, message, position, output and
    stats; where the event pipeline accepts, the fast path equals it."""

    @staticmethod
    def _outcome(xml, grammar, projector, **options):
        try:
            result = prune(xml, grammar, projector, **options)
        except (XMLSyntaxError, ValidationError) as error:
            return ("error", type(error).__name__, str(error), getattr(error, "line", None),
                    getattr(error, "column", None))
        return ("ok", result.text, _statdict(result.stats))

    @settings(max_examples=300, deadline=None)
    @given(_ELEMENTS, _SPACE)
    def test_skip_paths_agree(self, book_grammar, elements, gap):
        xml = ('<bib><book isbn="1"><title>kept</title><author>\n' + gap.join(elements)
               + '</author></book>\n</bib>')
        projector = frozenset({"bib", "book", "title", text_name("title")})
        regex = self._outcome(xml, book_grammar, projector, fast=True)
        per_token = self._outcome(xml, book_grammar, projector, fast=True, chunk_size=1)
        assert regex == per_token
        events = self._outcome(xml, book_grammar, projector, fast=False)
        if events[0] == "ok":
            assert regex == events

    def test_non_ascii_spaces_do_not_backtrack(self, book_grammar):
        # Non-ASCII spaces are name characters, never tag whitespace, so a
        # malformed tag full of them fails in linear time.
        tag = "<e" + ' a\u3000\u3000="1"' * 40 + " b=1>"
        xml = f"<bib><book><title>t</title><author>{tag}</e></author></book></bib>"
        started = time.perf_counter()
        for fast in (True, False):
            with pytest.raises(XMLSyntaxError):
                prune(xml, book_grammar, frozenset({"bib"}), fast=fast)
        assert time.perf_counter() - started < 5


class TestTokenRuleInsideDroppedSubtrees:
    """A tag deep in a dropped subtree that the token rule may charge
    (its span exceeds ``max_token_bytes``) takes the per-token path even
    when the buffer holds all of it: every chunk size gives the event
    pipeline's verdict."""

    LIMITS = Limits(max_token_bytes=500)

    @pytest.mark.parametrize(
        "tag, verdict",
        [
            (f'<e a="{"v" * 500}">', "ok"),
            (f'<e a="{"v" * 501}">', "token_bytes"),
            (f"<e a='{'v' * 501}'>", "token_bytes"),
            (f'<e {"n" * 501}="v">', "token_bytes"),
            (f'<e {"n" * 500}="v">', "ok"),
            (f'<e{" " * 2000}a="v"{" " * 2000}>', "ok"),
            (f'<{"n" * 501}>', "token_bytes"),
        ],
        ids=["value-at-max", "value-over", "single-quoted-over", "name-over",
             "name-at-max", "spaces-between", "element-name-over"],
    )
    @pytest.mark.parametrize("chunk_size", [1, 64, 1 << 16])
    def test_verdicts_agree(self, book_grammar, tag, verdict, chunk_size):
        name = tag[1:].split(" ")[0].split(">")[0]
        xml = (f"<bib><book><title>t</title><author>x{tag}y</{name}{' ' * 600}>"
               "</author></book></bib>")
        projector = frozenset({"bib"})

        def outcome(**options):
            try:
                return "ok", prune(xml, book_grammar, projector, limits=self.LIMITS,
                                   **options).text
            except LimitExceeded as error:
                return error.limit, None

        fast = outcome(chunk_size=chunk_size)
        assert fast == outcome(fast=False)
        assert fast[0] == verdict
