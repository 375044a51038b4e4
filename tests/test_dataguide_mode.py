"""First-class schemaless inference: determinism, policies, wiring.

Three contracts under test:

* **determinism** (property-pinned) — the same corpus sample in any
  ingestion order yields a byte-identical grammar fingerprint; the
  fingerprint keys the projector cache, resident-worker pins and the
  attestation ledger, so order-dependence would poison all three;
* **the escape hatch** — Theorem 4.5 soundness only covers documents
  the grammar accepts, so a document that strays from the sample is
  *never* pruned as if it validated: ``on_stray="error"`` refuses with
  the structured :class:`~repro.errors.StrayDocumentError`,
  ``on_stray="copy"`` emits the input verbatim (marked ``stray``) —
  under neither policy can wrong bytes come out;
* **wiring** — the facades, batch mode, CLI and service all route
  inferred grammars through the same escape hatch.
"""

from __future__ import annotations

import io
import itertools
import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import InferredGrammar, StrayDocumentError, infer_grammar
from repro.core.cache import grammar_fingerprint, resolve_projector
from repro.dtd.dataguide import DataguideBuilder
from repro.errors import ReproError, XMLSyntaxError
from repro.extract.spec import ExtractSpec
from repro.loading import load_grammar
from repro.xmltree.parser import parse_events
from tests.conftest import BOOK_DTD, BOOK_XML

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

SAMPLE = [
    '<bib><book isbn="1"><title>T1</title><author>A</author></book></bib>',
    "<bib><book><title>T2</title><author>B</author><author>C</author></book></bib>",
    "<bib></bib>",
    '<bib><book isbn="2"><title>T3</title></book></bib>',
]

STRAY_ELEMENT = "<bib><book><title>T</title><pages>9</pages></book></bib>"
STRAY_ATTRIBUTE = '<bib><book flavour="x"><title>T</title></book></bib>'
STRAY_TEXT = "<bib>loose text<book><title>T</title></book></bib>"


@pytest.fixture(scope="module")
def sample_grammar():
    return infer_grammar(SAMPLE)


# -- determinism (property-pinned) --------------------------------------------


class TestDeterminism:
    def test_all_ingestion_orders_one_fingerprint(self):
        fingerprints = {
            grammar_fingerprint(infer_grammar(list(order)))
            for order in itertools.permutations(SAMPLE)
        }
        assert len(fingerprints) == 1

    @given(order=st.permutations(SAMPLE))
    @settings(max_examples=40, deadline=None)
    def test_fingerprint_is_order_independent(self, order):
        assert grammar_fingerprint(infer_grammar(order)) == grammar_fingerprint(
            infer_grammar(SAMPLE)
        )

    @given(order=st.permutations(SAMPLE))
    @settings(max_examples=20, deadline=None)
    def test_materialise_is_order_independent(self, order):
        """The builder primitive itself (not just the hash): same root,
        same production names, same serialized productions."""
        from repro.schema.wire import grammar_to_wire

        builders = []
        for docs in (order, SAMPLE):
            builder = DataguideBuilder()
            for doc in docs:
                builder.add_events(parse_events(doc))
            builders.append(builder.materialise())
        (root_a, prods_a), (root_b, prods_b) = builders
        assert root_a == root_b
        assert grammar_to_wire(
            InferredGrammar(root_a, prods_a)
        ) == grammar_to_wire(InferredGrammar(root_b, prods_b))

    def test_file_and_markup_ingestion_agree(self, tmp_path):
        for index, doc in enumerate(SAMPLE):
            (tmp_path / f"doc{index}.xml").write_text(doc)
        via_dir = infer_grammar(str(tmp_path))
        via_glob = infer_grammar(str(tmp_path / "*.xml"))
        via_markup = infer_grammar(SAMPLE)
        assert (
            grammar_fingerprint(via_dir)
            == grammar_fingerprint(via_glob)
            == grammar_fingerprint(via_markup)
        )
        assert via_dir.sample_count == len(SAMPLE)

    def test_policies_never_share_a_fingerprint(self):
        strict = infer_grammar(SAMPLE, on_stray="error")
        lax = infer_grammar(SAMPLE, on_stray="copy")
        assert grammar_fingerprint(strict) != grammar_fingerprint(lax)


# -- construction -------------------------------------------------------------


class TestConstruction:
    def test_source_forms(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text(BOOK_XML)
        assert infer_grammar(BOOK_XML).root == "bib"
        assert infer_grammar(str(path)).root == "bib"
        with open(path, "r", encoding="utf-8") as handle:
            assert infer_grammar(handle).root == "bib"
        mixed = infer_grammar([BOOK_XML, str(path)])
        assert mixed.sample_count == 2

    def test_empty_sample_refuses(self, tmp_path):
        with pytest.raises(ReproError, match="empty sample"):
            infer_grammar([])
        with pytest.raises(ReproError, match="empty sample"):
            infer_grammar(str(tmp_path / "*.xml"))

    def test_bad_policy_refuses(self):
        with pytest.raises(ReproError, match="on_stray"):
            infer_grammar(SAMPLE, on_stray="shrug")

    def test_load_grammar_infer_dispatch(self):
        grammar = load_grammar(SAMPLE[0], infer=True, on_stray="copy")
        assert isinstance(grammar, InferredGrammar)
        assert grammar.on_stray == "copy"
        with pytest.raises(ReproError, match="format"):
            load_grammar(SAMPLE[0], format="xml", infer=True)

    def test_inferred_accepts_every_sample_document(self, sample_grammar):
        projector = resolve_projector(sample_grammar, ["//title"])
        for doc in SAMPLE:
            result = repro.prune(doc, sample_grammar, projector)
            assert not result.stray


# -- the escape hatch ---------------------------------------------------------


class TestErrorPolicy:
    @pytest.mark.parametrize(
        "stray", [STRAY_ELEMENT, STRAY_ATTRIBUTE, STRAY_TEXT]
    )
    def test_strays_raise_structured(self, sample_grammar, stray):
        projector = resolve_projector(sample_grammar, ["//title"])
        with pytest.raises(StrayDocumentError) as excinfo:
            repro.prune(stray, sample_grammar, projector)
        assert "strays" in str(excinfo.value)
        assert 'on_stray="copy"' in str(excinfo.value)

    def test_stray_attribute_never_silently_dropped(self, sample_grammar):
        # The wrong-bytes hazard this policy exists for: without the
        # attribute check the pruner would emit <book> minus flavour=.
        projector = resolve_projector(
            sample_grammar, ["//book", "//title", "//author"]
        )
        with pytest.raises(StrayDocumentError):
            repro.prune(STRAY_ATTRIBUTE, sample_grammar, projector)

    def test_file_output_not_left_behind(self, sample_grammar, tmp_path):
        projector = resolve_projector(sample_grammar, ["//title"])
        src = tmp_path / "stray.xml"
        src.write_text(STRAY_ELEMENT)
        out = tmp_path / "out.xml"
        with pytest.raises(StrayDocumentError):
            repro.prune(str(src), sample_grammar, projector, out=str(out))
        assert not out.exists()

    def test_event_source_strays_lazily(self, sample_grammar):
        projector = resolve_projector(sample_grammar, ["//title"])
        result = repro.prune(
            parse_events(STRAY_ELEMENT), sample_grammar, projector
        )
        with pytest.raises(StrayDocumentError):
            list(result.events)

    def test_extract_prevalidates(self, sample_grammar):
        spec = ExtractSpec(rows="/bib/book", fields={"title": "title/text()"})
        with pytest.raises(StrayDocumentError):
            repro.extract(STRAY_ELEMENT, sample_grammar, spec)
        # Accepted documents extract exactly as under the DTD grammar.
        from repro.dtd.grammar import grammar_from_text

        dtd_grammar = grammar_from_text(BOOK_DTD, "bib")
        inferred = infer_grammar(BOOK_XML)
        assert (
            repro.extract(BOOK_XML, inferred, spec).records
            == repro.extract(BOOK_XML, dtd_grammar, spec).records
        )

    def test_extract_refuses_event_sources(self, sample_grammar):
        spec = ExtractSpec(rows="/bib/book", fields={"title": "title/text()"})
        with pytest.raises(ReproError, match="replayable"):
            repro.extract(parse_events(SAMPLE[0]), sample_grammar, spec)


class TestCopyPolicy:
    @pytest.fixture(scope="class")
    def lax(self):
        return infer_grammar(SAMPLE, on_stray="copy")

    @pytest.mark.parametrize(
        "stray", [STRAY_ELEMENT, STRAY_ATTRIBUTE, STRAY_TEXT]
    )
    def test_strays_copy_verbatim(self, lax, stray):
        projector = resolve_projector(lax, ["//title"])
        result = repro.prune(stray, lax, projector)
        assert result.stray
        assert result.text == stray
        assert result.stats.bytes_out == result.stats.bytes_in

    def test_non_strays_still_prune(self, lax):
        projector = resolve_projector(lax, ["//title"])
        result = repro.prune(SAMPLE[0], lax, projector)
        assert not result.stray
        assert "<author>" not in result.text

    def test_file_to_file_copy(self, lax, tmp_path):
        projector = resolve_projector(lax, ["//title"])
        src = tmp_path / "stray.xml"
        src.write_text(STRAY_ELEMENT)
        out = tmp_path / "out.xml"
        result = repro.prune(str(src), lax, projector, out=str(out))
        assert result.stray
        assert out.read_text() == STRAY_ELEMENT

    def test_caller_sink_sees_only_the_final_bytes(self, lax, tmp_path):
        projector = resolve_projector(lax, ["//title"])
        sink = io.StringIO()
        result = repro.prune(STRAY_ELEMENT, lax, projector, out=sink)
        assert result.stray and sink.getvalue() == STRAY_ELEMENT
        sink = io.StringIO()
        result = repro.prune(SAMPLE[0], lax, projector, out=sink)
        assert not result.stray and "<author>" not in sink.getvalue()

    def test_stream_source_copies(self, lax):
        projector = resolve_projector(lax, ["//title"])
        result = repro.prune(io.StringIO(STRAY_ELEMENT), lax, projector)
        assert result.stray and result.text == STRAY_ELEMENT

    def test_event_source_refuses_copy_policy(self, lax):
        projector = resolve_projector(lax, ["//title"])
        with pytest.raises(ReproError, match="replay"):
            repro.prune(parse_events(STRAY_ELEMENT), lax, projector)


class TestStreamTextIsNeverAPath:
    """An open stream is classified once, as a stream; buffered for the
    escape hatch it is markup from then on.  Its text is never sniffed
    again as a file path — a stream whose text names a real, prunable
    file fails to parse exactly as under a plain DTD grammar, and that
    file's content never comes back."""

    @pytest.fixture()
    def path_text(self, tmp_path):
        other = tmp_path / "other.xml"
        other.write_text(SAMPLE[0])
        return str(other)

    @pytest.fixture()
    def plain_error(self, path_text):
        from repro.dtd.grammar import grammar_from_text

        grammar = grammar_from_text(BOOK_DTD, "bib")
        with pytest.raises(XMLSyntaxError) as excinfo:
            repro.prune(io.StringIO(path_text), grammar, frozenset({"bib"}))
        return str(excinfo.value)

    @pytest.mark.parametrize("policy", ["copy", "error"])
    def test_prune(self, path_text, plain_error, policy):
        grammar = infer_grammar(SAMPLE, on_stray=policy)
        projector = resolve_projector(grammar, ["//title"])
        with pytest.raises(XMLSyntaxError) as excinfo:
            repro.prune(io.StringIO(path_text), grammar, projector)
        assert str(excinfo.value) == plain_error

    @pytest.mark.parametrize("policy", ["copy", "error"])
    def test_extract(self, path_text, plain_error, policy):
        grammar = infer_grammar(SAMPLE, on_stray=policy)
        spec = ExtractSpec(rows="/bib/book", fields={"title": "title/text()"})
        with pytest.raises(XMLSyntaxError) as excinfo:
            repro.extract(io.StringIO(path_text), grammar, spec)
        assert str(excinfo.value) == plain_error


# -- batch, ledger, CLI and service wiring ------------------------------------


class TestBatchMode:
    def test_prune_many_error_policy_reports_stray_kind(
        self, sample_grammar, tmp_path
    ):
        docs = []
        for index, doc in enumerate([SAMPLE[0], STRAY_ELEMENT, SAMPLE[1]]):
            path = tmp_path / f"doc{index}.xml"
            path.write_text(doc)
            docs.append(str(path))
        out_dir = tmp_path / "out"
        batch = repro.prune_many(
            docs, sample_grammar, ["//title"], jobs=1, out_dir=str(out_dir)
        )
        assert batch.succeeded == 2
        assert [error.kind for error in batch.errors] == ["StrayDocumentError"]
        assert batch.strays == 0

    def test_prune_many_copy_policy_counts_strays(self, tmp_path):
        lax = infer_grammar(SAMPLE, on_stray="copy")
        docs = []
        for index, doc in enumerate([SAMPLE[0], STRAY_ELEMENT, SAMPLE[1]]):
            path = tmp_path / f"doc{index}.xml"
            path.write_text(doc)
            docs.append(str(path))
        out_dir = tmp_path / "out"
        batch = repro.prune_many(
            docs, lax, ["//title"], jobs=1, out_dir=str(out_dir)
        )
        assert batch.ok and batch.succeeded == 3
        assert batch.strays == 1
        assert (out_dir / "doc1.xml").read_text() == STRAY_ELEMENT


class TestLedger:
    def test_inferred_runs_record_but_never_dedup_serve(
        self, sample_grammar, tmp_path
    ):
        """Dedup-serving keys on (source, grammar, options) — but an
        inferred-grammar result depends on the stray verdict, so serving
        from the store is disabled (validate is forced on)."""
        from repro.ledger import Ledger

        projector = resolve_projector(sample_grammar, ["//title"])
        src = tmp_path / "doc.xml"
        src.write_text(SAMPLE[0])
        with Ledger(str(tmp_path / "ledger.jsonl")) as ledger:
            first = repro.prune(str(src), sample_grammar, projector, ledger=ledger)
            again = repro.prune(str(src), sample_grammar, projector, ledger=ledger)
            # The second run re-recorded the same attestation (no new
            # history) but was *re-pruned*, not served from the store.
            assert ledger.appended == 1 and len(ledger.entries) == 1
            assert ledger.hits == 0
            assert first.text == again.text


class TestCli:
    def _corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for index, doc in enumerate(SAMPLE):
            (corpus / f"doc{index}.xml").write_text(doc)
        return corpus

    def test_infer_from_prunes(self, tmp_path, capsys):
        from repro.cli import main

        corpus = self._corpus(tmp_path)
        doc = tmp_path / "in.xml"
        doc.write_text(SAMPLE[0])
        out = tmp_path / "out.xml"
        code = main([
            "prune", "--infer-from", str(corpus), "--query", "//title",
            str(doc), str(out),
        ])
        assert code == 0
        assert "<author>" not in out.read_text()

    def test_infer_from_stray_error_is_structured(self, tmp_path, capsys):
        from repro.cli import main

        corpus = self._corpus(tmp_path)
        doc = tmp_path / "in.xml"
        doc.write_text(STRAY_ELEMENT)
        out = tmp_path / "out.xml"
        code = main([
            "prune", "--infer-from", str(corpus), "--query", "//title",
            str(doc), str(out),
        ])
        assert code == 1
        assert "StrayDocumentError" in capsys.readouterr().err
        assert not out.exists()

    def test_infer_from_on_stray_copy(self, tmp_path, capsys):
        from repro.cli import main

        corpus = self._corpus(tmp_path)
        doc = tmp_path / "in.xml"
        doc.write_text(STRAY_ELEMENT)
        out = tmp_path / "out.xml"
        code = main([
            "prune", "--infer-from", str(corpus), "--on-stray", "copy",
            "--query", "//title", str(doc), str(out),
        ])
        assert code == 0
        assert out.read_text() == STRAY_ELEMENT


@pytest.mark.skipif(not HAS_FORK, reason="service workers require fork")
class TestService:
    def test_inferred_grammar_pins_and_strays_surface(self, sample_grammar):
        from repro.core.cache import ProjectorCache
        from repro.errors import RemoteError
        from repro.service import ServiceClient, ServiceConfig, serve_background

        projector = resolve_projector(sample_grammar, ["//title"])
        expected = repro.prune(SAMPLE[0], sample_grammar, projector).text
        with serve_background(
            ServiceConfig(port=0, jobs=1), cache=ProjectorCache()
        ) as background:
            with ServiceClient("127.0.0.1", background.port) as client:
                outcome = client.prune(
                    source=SAMPLE[0], queries=["//title"], grammar=sample_grammar
                )
                assert outcome.text == expected
                with pytest.raises(RemoteError, match="strays"):
                    client.prune(
                        source=STRAY_ELEMENT, queries=["//title"],
                        grammar=sample_grammar,
                    )
                lax = infer_grammar(SAMPLE, on_stray="copy")
                copied = client.prune(
                    source=STRAY_ELEMENT, queries=["//title"], grammar=lax
                )
                assert copied.text == STRAY_ELEMENT
