"""Unit tests for :mod:`repro.limits` and the governed pipeline.

The fuzz battery (``test_fuzz_robustness.py``) establishes that hostile
input never escapes the structured-error contract; these tests pin down
the *specific* semantics: profile contents, which limit trips where, the
one token rule both scanners share, and encoding errors.
"""

from __future__ import annotations

import io
import itertools
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExtractSpec, Limits, extract, prune
from repro.dtd.grammar import grammar_from_text
from repro.errors import (
    DeadlineExceeded,
    EncodingError,
    LimitExceeded,
    ReproError,
    ResourceError,
    XMLSyntaxError,
)
from repro.limits import (
    DEFAULT_LIMITS,
    OFF_LIMITS,
    STRICT_LIMITS,
    LimitGuard,
    resolve_limits,
)
from repro.xmltree.lexer import Scanner

DTD = """
<!ELEMENT bib (book*)>
<!ELEMENT book (title)>
<!ATTLIST book year CDATA #IMPLIED>
<!ELEMENT title (#PCDATA)>
"""


@pytest.fixture(scope="module")
def bib():
    grammar = grammar_from_text(DTD, "bib")
    return grammar, frozenset({"bib", "book", "title"})


def _nested(depth: int) -> str:
    return "<bib>" + "<book>" * depth + "</book>" * depth + "</bib>"


# -- Limits configuration ------------------------------------------------------


class TestLimitsConfig:
    def test_profiles_resolve_by_name(self):
        assert Limits.profile("off") is OFF_LIMITS
        assert Limits.profile("default") is DEFAULT_LIMITS
        assert Limits.profile("strict") is STRICT_LIMITS

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown limits profile"):
            Limits.profile("paranoid")

    def test_off_is_unbounded_and_guardless(self):
        assert Limits.off().unbounded
        assert Limits.off().guard() is None

    def test_bounded_limits_produce_a_guard(self):
        assert isinstance(Limits(max_depth=4).guard(), LimitGuard)

    def test_replace_overrides_one_bound(self):
        limits = Limits.strict().replace(max_depth=3)
        assert limits.max_depth == 3
        assert limits.max_token_bytes == STRICT_LIMITS.max_token_bytes

    def test_resolve_limits(self):
        assert resolve_limits(None) is DEFAULT_LIMITS
        assert resolve_limits("strict") is STRICT_LIMITS
        custom = Limits(max_depth=7)
        assert resolve_limits(custom) is custom

    def test_error_hierarchy(self):
        assert issubclass(LimitExceeded, ResourceError)
        assert issubclass(DeadlineExceeded, ResourceError)
        assert issubclass(ResourceError, ReproError)
        error = LimitExceeded("depth", 11, 10)
        assert (error.limit, error.value, error.maximum) == ("depth", 11, 10)


# -- which limit trips where ---------------------------------------------------


class TestEnforcement:
    @pytest.mark.parametrize("fast", [True, False])
    def test_depth_limit_trips_both_paths(self, bib, fast):
        grammar, projector = bib
        with pytest.raises(LimitExceeded) as info:
            prune(_nested(60), grammar, projector, fast=fast,
                  limits=Limits(max_depth=50))
        assert info.value.limit == "depth"

    def test_depth_limit_sees_pruned_subtrees(self, bib):
        grammar, projector = bib
        # Nesting hidden inside a region the fast path bulk-skips must
        # still count toward the depth limit.
        hostile = (
            "<bib><book><title>"
            + "x" * 4
            + "</title></book>"
            + _nested(60)[5:-6]  # the deep book chain, inside the same bib
            + "</bib>"
        )
        with pytest.raises(LimitExceeded):
            prune(hostile, grammar, frozenset({"bib", "title", "book"}),
                  limits=Limits(max_depth=50))

    def test_input_limit_trips(self, bib):
        grammar, projector = bib
        doc = "<bib>" + "<book><title>t</title></book>" * 100 + "</bib>"
        with pytest.raises(LimitExceeded) as info:
            prune(doc, grammar, projector, limits=Limits(max_input_bytes=200))
        assert info.value.limit == "input_bytes"

    def test_input_limit_trips_before_scanning_a_string(self):
        from repro.xmltree.lexer import Scanner

        guard = Limits(max_input_bytes=200).guard()
        with pytest.raises(LimitExceeded) as info:
            Scanner("<bib>" + " " * 300 + "</bib>", guard=guard)
        assert info.value.limit == "input_bytes"
        assert info.value.value == 311

    @pytest.mark.parametrize("fast", [True, False])
    def test_output_limit_trips_both_paths(self, bib, fast):
        grammar, projector = bib
        doc = "<bib>" + "<book><title>t</title></book>" * 1000 + "</bib>"
        with pytest.raises(LimitExceeded) as info:
            prune(doc, grammar, projector, fast=fast,
                  limits=Limits(max_output_bytes=100))
        assert info.value.limit == "output_bytes"

    def test_token_limit_trips_on_giant_text(self, bib):
        grammar, projector = bib
        doc = f"<bib><book><title>{'x' * 5000}</title></book></bib>"
        with pytest.raises(LimitExceeded) as info:
            prune(doc, grammar, projector, fast=False,
                  limits=Limits(max_token_bytes=1000))
        assert info.value.limit == "token_bytes"

    @pytest.mark.parametrize("fast", [True, False])
    def test_deadline_trips_both_paths(self, bib, fast):
        grammar, projector = bib
        doc = "<bib>" + "<book><title>t</title></book>" * 30000 + "</bib>"
        with pytest.raises(DeadlineExceeded):
            prune(doc, grammar, projector, fast=fast,
                  limits=Limits(deadline=1e-9))

    def test_deadline_trips_on_parse_document(self, bib):
        from repro.xmltree.builder import parse_document

        doc = "<bib>" + "<book><title>t</title></book>" * 30000 + "</bib>"
        with pytest.raises(DeadlineExceeded):
            parse_document(doc, limits=Limits(deadline=1e-9))

    def test_parse_document_depth_limit(self):
        from repro.xmltree.builder import parse_document

        with pytest.raises(LimitExceeded):
            parse_document(_nested(60), limits=Limits(max_depth=50))

    def test_event_source_is_governed(self, bib):
        grammar, projector = bib
        from repro.xmltree.parser import parse_events

        events = parse_events(_nested(60))
        result = prune(events, grammar, projector, limits=Limits(max_depth=50))
        with pytest.raises(LimitExceeded):
            for _ in result:
                pass

    def test_limits_off_never_trips(self, bib):
        grammar, projector = bib
        assert prune(_nested(500), grammar, projector, limits="off").text


# -- one token rule for both scanners ------------------------------------------


class _ReadOnly:
    """A source stream that can only be read: no ``seek``, no ``tell``."""

    def __init__(self, text: str) -> None:
        self._inner = io.StringIO(text)

    def read(self, size: int = -1) -> str:
        return self._inner.read(size)


class _WriteOnly:
    """A sink that can only be written to: what it got stays written."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)


class _Generated:
    """A read-only stream that makes its text as it is read (``head``,
    then ``filler`` ``count`` times, then ``tail``), so the document is
    never held whole and tracemalloc sees only what the reader keeps."""

    def __init__(self, head: str, filler: str, count: int, tail: str) -> None:
        self._parts = itertools.chain([head], itertools.repeat(filler, count), [tail])
        self._pending = ""

    def read(self, size: int = -1) -> str:
        while len(self._pending) < size:
            part = next(self._parts, None)
            if part is None:
                break
            self._pending += part
        text, self._pending = self._pending[:size], self._pending[size:]
        return text


def _wide_tag(attrs: int = 100) -> str:
    # Each attribute is small, but the whole tag is far over 500.
    rendered = " ".join(f'a{i}="{"x" * 20}"' for i in range(attrs))
    return f"<book {rendered}><title>t</title></book>"


def _verdict(run) -> tuple[str, object]:
    """``("ok", output)`` or ``("refused", limit name)``."""
    try:
        return "ok", run()
    except LimitExceeded as error:
        return "refused", error.limit


BOOKS = ExtractSpec(rows="/bib/book", fields={"title": "title/text()"})


class TestTokenRule:
    """The fused scanner charges a tag as the event parser does — each
    name and each attribute value, never whitespace — so ``fast`` never
    changes a verdict on a tag, and no input needs a second pass."""

    LIMITS = Limits(max_token_bytes=500)

    @pytest.mark.parametrize("source_kind", ["stream", "markup"])
    def test_wide_tag_prunes_in_one_pass(self, bib, source_kind):
        grammar, projector = bib
        # Enough kept output before the wide tag that the fast path has
        # flushed some of it to the sink by then.
        doc = (
            "<bib>" + "<book><title>t</title></book>" * 4000
            + _wide_tag() + "</bib>"
        )
        source = _ReadOnly(doc) if source_kind == "stream" else doc
        sink = _WriteOnly()
        result = prune(source, grammar, projector, out=sink, limits=self.LIMITS)
        slow = prune(doc, grammar, projector, fast=False, limits=self.LIMITS)
        assert "".join(sink.parts) == slow.text
        assert result.stats.elements_in == slow.stats.elements_in
        assert result.stats.attributes_in == slow.stats.attributes_in == 100
        assert result.stats.bytes_out == slow.stats.bytes_out

    @pytest.mark.parametrize(
        "tag, verdict",
        [
            (f'<book a="{"v" * 500}">', "ok"),
            (f'<book a="{"v" * 501}">', "refused"),
            (f"<book a='{'v' * 501}'>", "refused"),
            (f'<book {"n" * 501}="v">', "refused"),
            (f'<book {"n" * 500}="v">', "ok"),
            (f'<book{" " * 2000}a="v"{" " * 2000}>', "ok"),
            (f'<book a{" " * 2000}={" " * 2000}"v">', "ok"),
        ],
        ids=["value-at-max", "value-over", "single-quoted-over", "name-over",
             "name-at-max", "spaces-between", "spaces-around-equals"],
    )
    @pytest.mark.parametrize("keep", [True, False], ids=["kept", "dropped"])
    def test_boundaries_agree(self, bib, tag, verdict, keep):
        grammar, projector = bib
        projector = projector if keep else frozenset({"bib"})
        doc = f"<bib>{tag}<title>t</title></book{' ' * 2000}></bib>"
        fast = _verdict(lambda: prune(doc, grammar, projector, limits=self.LIMITS).text)
        slow = _verdict(
            lambda: prune(doc, grammar, projector, fast=False, limits=self.LIMITS).text
        )
        assert fast == slow
        assert fast[0] == verdict

    @settings(max_examples=80, deadline=None)
    @given(
        attributes=st.lists(
            st.tuples(
                st.integers(1, 60),  # name length
                st.integers(0, 90),  # value length
                st.one_of(st.integers(1, 3), st.integers(60, 200)),  # spacing
            ),
            max_size=12,
        ),
        limit=st.integers(5, 100),
        keep=st.booleans(),
        nested=st.booleans(),
    )
    def test_fast_refuses_iff_event_refuses(self, bib, attributes, limit, keep, nested):
        grammar, projector = bib
        projector = projector if keep else frozenset({"bib"})
        rendered = "".join(
            f"{' ' * space}{'n' * name}{index}={' ' * (space % 3)}\"{'v' * value}\""
            for index, (name, value, space) in enumerate(attributes)
        )
        # ``nested`` puts the attributes one level down, where a dropped
        # book is bulk-skipped rather than read by the main loop.
        book, title = ("", rendered) if nested else (rendered, "")
        doc = f"<bib><book{book}><title{title}>t</title></book></bib>"
        limits = Limits(max_token_bytes=limit)
        fast = _verdict(lambda: prune(doc, grammar, projector, limits=limits).text)
        slow = _verdict(
            lambda: prune(doc, grammar, projector, fast=False, limits=limits).text
        )
        assert fast == slow
        fast = _verdict(lambda: extract(doc, grammar, BOOKS, limits=limits).text)
        slow = _verdict(
            lambda: extract(doc, grammar, BOOKS, fast=False, limits=limits).text
        )
        assert fast == slow

    CHUNK = 4096

    @pytest.mark.parametrize(
        "filler, outcome",
        [(" \t\r\n" * 1024, "ok"), ("n" * 4096, LimitExceeded), ("b " * 2048, XMLSyntaxError)],
        ids=["whitespace", "long-name", "many-names"],
    )
    def test_long_unquoted_run_stays_bounded(self, filler, outcome):
        # 200 chunks (800 KB) of one unquoted run inside a start tag, from
        # a stream that cannot seek: the scanner keeps about one chunk
        # plus the limit, never the run.  tracemalloc's peak also counts
        # the chunk being read, the stream's pending text and the list of
        # names charged in one chunk, hence a fixed multiple that is still
        # a tenth of the run.
        guard = LimitGuard(self.LIMITS)
        source = _Generated("<book", filler, 200, ' a="v"/>')
        scanner = Scanner(source, chunk_size=self.CHUNK, guard=guard)
        scanner.expect("<")
        tracemalloc.start()
        try:
            if outcome == "ok":
                content = scanner.read_tag_content("start tag")
            else:
                with pytest.raises(outcome):
                    scanner.read_tag_content("start tag")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if outcome == "ok":
            assert re.fullmatch(r'book\s+a="v"/', content)
            assert len(content) <= self.CHUNK + self.LIMITS.max_token_bytes
            assert scanner.line == 1 + 200 * 1024  # newlines still counted
        assert peak < 16 * (self.CHUNK + self.LIMITS.max_token_bytes)

    def test_long_whitespace_run_prunes_like_the_event_path(self, bib):
        grammar, projector = bib

        def source():
            return _Generated("<bib><book", " " * 4096, 200, ' year="1"><title>t</title></book></bib>')

        fast = prune(source(), grammar, projector, limits=self.LIMITS, chunk_size=self.CHUNK)
        slow = prune(
            source(), grammar, projector, fast=False, limits=self.LIMITS, chunk_size=self.CHUNK
        )
        assert fast.text == slow.text == "<bib><book><title/></book></bib>"

    @pytest.mark.parametrize(
        "content",
        ["x" * 2000, f"<![CDATA[{'x' * 2000}]]>", f"<?pi {'x' * 2000}?>"],
        ids=["text", "cdata", "pi"],
    )
    def test_skipped_content_is_never_charged_by_the_fast_path(self, bib, content):
        # The one deliberate asymmetry: the fast path never materialises
        # text, CDATA or PIs inside a dropped element, so it accepts an
        # over-limit one that the event parser (which reads it) refuses.
        grammar, _ = bib
        doc = f"<bib><book><title>{content}</title></book></bib>"
        fast = prune(doc, grammar, frozenset({"bib"}), limits=self.LIMITS)
        assert fast.text == "<bib/>"
        with pytest.raises(LimitExceeded) as info:
            prune(doc, grammar, frozenset({"bib"}), fast=False, limits=self.LIMITS)
        assert info.value.limit == "token_bytes"


# -- encoding hostility --------------------------------------------------------


class TestEncoding:
    def test_undecodable_file_raises_encoding_error(self, bib, tmp_path):
        grammar, projector = bib
        path = tmp_path / "bad.xml"
        path.write_bytes(b"<bib><book><title>\xff\xfe\x9c</title></book></bib>")
        with pytest.raises(EncodingError):
            prune(str(path), grammar, projector)

    def test_encoding_error_is_a_repro_error(self):
        assert issubclass(EncodingError, ReproError)

    def test_partial_output_removed_on_limit_refusal(self, bib, tmp_path):
        grammar, projector = bib
        doc = "<bib>" + "<book><title>t</title></book>" * 2000 + "</bib>"
        out = tmp_path / "out.xml"
        with pytest.raises(LimitExceeded):
            prune(doc, grammar, projector, out=str(out),
                  limits=Limits(max_output_bytes=100))
        assert not out.exists()
