"""The unified prune() facade (repro.api): source/out dispatch,
PruneOptions, and the run plan it shares with extract() — every source
form, ``out`` form and run (fresh, ledger hit, static short-circuit)
agreeing byte for byte."""

import contextlib
import io
import itertools
import os
import pathlib
from functools import partial

import pytest

import repro
from repro.extract import api as extract_api
from repro import ExtractSpec, PruneOptions, PruneResult, extract, prune
from repro import api
from repro.api import DEFAULT_OPTIONS
from repro.dtd.grammar import text_name
from repro.errors import ReproError, XMLSyntaxError
from repro.ledger import Ledger
from repro.xmltree.builder import build_tree
from repro.xmltree.parser import parse_events
from tests.conftest import BOOK_XML


@pytest.fixture()
def projector(book_grammar):
    return book_grammar.projector_closure(["title", text_name("title")])


class TestSourceDispatch:
    def test_markup_string_returns_text(self, book_grammar, projector):
        result = prune(BOOK_XML, book_grammar, projector)
        assert isinstance(result, PruneResult)
        assert result.text.startswith("<bib>")
        assert result.events is None and result.output_path is None
        assert result.stats.bytes_in == len(BOOK_XML.encode("utf-8"))

    def test_leading_whitespace_still_markup(self, book_grammar, projector):
        result = prune("\n  " + BOOK_XML, book_grammar, projector)
        assert "<title>" in result.text

    def test_path_string_reads_file(self, book_grammar, projector, tmp_path):
        source = tmp_path / "in.xml"
        source.write_text(BOOK_XML)
        result = prune(str(source), book_grammar, projector)
        assert "<title>" in result.text
        assert result.stats.bytes_in == os.path.getsize(source)

    def test_pathlike_source_and_out(self, book_grammar, projector, tmp_path):
        source = tmp_path / "in.xml"
        source.write_text(BOOK_XML)
        out = tmp_path / "out.xml"
        result = prune(source, book_grammar, projector, out=out)
        assert result.output_path == str(out)
        assert result.text is None
        assert "<title>" in pathlib.Path(result.output_path).read_text()

    def test_stream_source(self, book_grammar, projector):
        result = prune(io.StringIO(BOOK_XML), book_grammar, projector)
        assert "<title>" in result.text

    def test_stream_out(self, book_grammar, projector):
        sink = io.StringIO()
        result = prune(BOOK_XML, book_grammar, projector, out=sink)
        assert result.text is None and result.output_path is None
        assert "<title>" in sink.getvalue()
        assert result.stats.bytes_out == len(sink.getvalue())

    def test_event_source_returns_events(self, book_grammar, projector):
        result = prune(parse_events(BOOK_XML), book_grammar, projector)
        document = build_tree(iter(result))  # PruneResult is iterable
        assert {node.tag for node in document.elements()} == {"bib", "book", "title"}
        # Stats finish filling once the iterator is exhausted.
        assert result.stats.elements_out == 7  # bib + 3 book + 3 title

    def test_event_source_rejects_out(self, book_grammar, projector):
        with pytest.raises(ReproError):
            prune(parse_events(BOOK_XML), book_grammar, projector, out=io.StringIO())

    def test_unprunable_source_type(self, book_grammar, projector):
        with pytest.raises(TypeError):
            prune(42, book_grammar, projector)

    def test_text_result_is_not_iterable_as_events(self, book_grammar, projector):
        result = prune(BOOK_XML, book_grammar, projector)
        with pytest.raises(TypeError):
            iter(result)


KINDS = ("prune", "extract")
SOURCES = ("markup", "path", "pathlike", "stream")
OUTS = ("none", "path", "stream")
RUNS = ("fresh", "ledger_hit", "short_circuit")
MATRIX = list(itertools.product(KINDS, SOURCES, OUTS, RUNS))
BROKEN_XML = "<bib><book><title>x</author></book></bib>"


def _workload(grammar, kind, empty):
    """``(call, workload)``: the facade under test and what it runs —
    for ``empty``, a workload the static pre-pass proves selects nothing
    (``/bib/title``: titles only occur under ``book``)."""
    if kind == "prune":
        if empty:
            return prune, repro.analyze(grammar, ["/bib/title"])
        return prune, grammar.projector_closure(["title", text_name("title")])
    spec = ExtractSpec(
        rows="/bib/title" if empty else "/bib/book",
        fields={"title": "title/text()", "isbn": "@isbn"},
    )
    return partial(extract, format="csv"), spec


def _source(form, tmp_path, text=BOOK_XML, name="in.xml"):
    if form == "markup":
        return text
    if form == "stream":
        return io.StringIO(text)
    path = tmp_path / name
    path.write_text(text)
    return str(path) if form == "path" else path


def _forbid_pass(monkeypatch):
    """Make any pruning or extraction pass fail the test: ledger hits
    and short-circuits must answer without scanning the document."""
    def scanned(*args, **kwargs):
        raise AssertionError("the document was scanned")

    monkeypatch.setattr(api, "_prune_stream", scanned)
    monkeypatch.setattr(extract_api, "_extract_stream", scanned)


class TestAllFormsAgree:
    @pytest.mark.parametrize(
        "kind,source_form,out_form,run", MATRIX, ids=["-".join(c) for c in MATRIX]
    )
    def test_same_output_every_way(
        self, book_grammar, tmp_path, monkeypatch, kind, source_form, out_form, run
    ):
        """One run plan for every cell: within a kind and a run, every
        source form and every ``out`` form yield the same bytes."""
        call, workload = _workload(book_grammar, kind, empty=run == "short_circuit")
        expected = call(BOOK_XML, book_grammar, workload).text
        hashable = source_form != "stream"  # streams bypass the ledger
        with contextlib.ExitStack() as stack:
            ledger = None
            if run == "ledger_hit":
                ledger = stack.enter_context(Ledger(str(tmp_path / "ledger.jsonl")))
                if hashable:
                    recorded = call(
                        _source(source_form, tmp_path), book_grammar, workload,
                        ledger=ledger,
                    )
            if run == "short_circuit" or (ledger is not None and hashable):
                _forbid_pass(monkeypatch)

            out_path = tmp_path / "out.data"
            out = {"none": None, "path": str(out_path), "stream": io.StringIO()}[out_form]
            result = call(
                _source(source_form, tmp_path), book_grammar, workload,
                out=out, ledger=ledger,
            )
            got = {
                "none": lambda: result.text,
                "path": lambda: out_path.read_text(),
                "stream": lambda: out.getvalue(),
            }[out_form]()
            assert got == expected
            assert result.output_path == (str(out_path) if out_form == "path" else None)
            if ledger is not None:
                assert ledger.hits == (1 if hashable else 0)
                if hashable:
                    assert result.stats == recorded.stats

            if out_form != "path":
                return
            # A path that was never opened keeps the file already there:
            # a missing input fails before the output is touched.
            if source_form in ("path", "pathlike"):
                out_path.write_text("precious")
                missing = tmp_path / "missing.xml"
                with pytest.raises(FileNotFoundError):
                    call(
                        missing if source_form == "pathlike" else str(missing),
                        book_grammar, workload, out=str(out_path), ledger=ledger,
                    )
                assert out_path.read_text() == "precious"
            # A run that fails after opening the output leaves no file.
            if run == "fresh":
                out_path.unlink(missing_ok=True)
                broken = _source(source_form, tmp_path, BROKEN_XML, "broken.xml")
                with pytest.raises(XMLSyntaxError):
                    call(broken, book_grammar, workload, out=str(out_path))
                assert not out_path.exists()

    @pytest.mark.parametrize("fast", [True, False])
    def test_fast_flag_is_byte_identical(self, book_grammar, projector, fast):
        result = prune(BOOK_XML, book_grammar, projector, fast=fast)
        baseline = prune(BOOK_XML, book_grammar, projector)
        assert result.text == baseline.text


class TestOptions:
    def test_defaults(self):
        assert DEFAULT_OPTIONS == PruneOptions()
        assert DEFAULT_OPTIONS.fast and not DEFAULT_OPTIONS.validate

    def test_options_object(self, book_grammar, projector):
        opts = PruneOptions(fast=False, chunk_size=7)
        result = prune(BOOK_XML, book_grammar, projector, options=opts)
        assert "<title>" in result.text

    def test_keyword_overrides_options(self, book_grammar):
        # validate=True in options, overridden off by the keyword: the
        # invalid document must then prune without raising (projector keeps
        # only the root, and the default pipeline doesn't check order).
        opts = PruneOptions(validate=True)
        bad = "<bib><book><author>a</author><title>t</title></book></bib>"
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            prune(bad, book_grammar, frozenset({"bib"}), options=opts)
        result = prune(bad, book_grammar, frozenset({"bib"}),
                       options=opts, validate=False)
        assert result.text == "<bib/>"

    def test_options_are_frozen(self):
        with pytest.raises(Exception):
            PruneOptions().fast = False
