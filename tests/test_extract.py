"""The tabular extraction surface: spec validation, the extract facade
across every source/sink shape, NULL semantics, limits governance, and
the spec-keyed projector cache.

Byte-level agreement between the fused scan, the event pipeline, and the
tree-walk oracle over random workloads lives in ``test_differential.py``;
this module pins the API contract on the running-example bibliography.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import ExtractOptions, ExtractResult, ExtractSpec, Limits, extract
from repro.core.cache import ProjectorCache, resolve_spec_projector
from repro.errors import LimitExceeded, ReproError
from repro.extract.reference import extract_document, reference_records
from repro.extract.stats import ExtractStats
from repro.xmltree.parser import parse_events
from tests.conftest import BOOK_DTD, BOOK_XML

SPEC = ExtractSpec(
    rows="/bib/book",
    fields={"title": "title/text()", "author": "author/text()",
            "year": "year/text()", "isbn": "@isbn"},
)


# -- spec validation ----------------------------------------------------------


class TestSpecValidation:
    def test_rows_must_be_absolute(self):
        with pytest.raises(ReproError, match="absolute"):
            ExtractSpec(rows="bib/book", fields={"t": "text()"})

    def test_rows_rejects_descendant_steps(self):
        with pytest.raises(ReproError, match="descendant"):
            ExtractSpec(rows="//book", fields={"t": "text()"})

    def test_rows_rejects_wildcards(self):
        with pytest.raises(ReproError, match="not supported"):
            ExtractSpec(rows="/bib/*", fields={"t": "text()"})

    def test_field_path_must_be_relative(self):
        with pytest.raises(ReproError, match="relative"):
            ExtractSpec(rows="/bib/book", fields={"t": "/title/text()"})

    def test_field_rejects_empty_step(self):
        with pytest.raises(ReproError, match="empty step"):
            ExtractSpec(rows="/bib/book", fields={"t": "title/"})

    def test_field_rejects_bad_attribute_name(self):
        with pytest.raises(ReproError, match="attribute name"):
            ExtractSpec(rows="/bib/book", fields={"t": "@1bad"})

    def test_at_least_one_field(self):
        with pytest.raises(ReproError, match="at least one field"):
            ExtractSpec(rows="/bib/book", fields={})

    def test_null_must_be_string_or_none(self):
        with pytest.raises(ReproError, match="null"):
            ExtractSpec(rows="/bib/book", fields={"t": "text()"}, null=0)

    def test_compiled_fields_preserve_declared_order(self):
        assert [f.name for f in SPEC.compiled_fields()] == [
            "title", "author", "year", "isbn"
        ]
        kinds = {f.name: f.kind for f in SPEC.compiled_fields()}
        assert kinds == {"title": "text", "author": "text",
                         "year": "text", "isbn": "attribute"}


class TestSpecIdentity:
    def test_fingerprint_is_stable(self):
        clone = ExtractSpec(rows=SPEC.rows, fields=dict(SPEC.fields))
        assert clone.fingerprint() == SPEC.fingerprint()
        assert hash(clone) == hash(SPEC)

    def test_fingerprint_sees_field_order(self):
        reordered = ExtractSpec(
            rows="/bib/book", fields={"b": "text()", "a": "@isbn"}
        )
        original = ExtractSpec(
            rows="/bib/book", fields={"a": "@isbn", "b": "text()"}
        )
        assert reordered.fingerprint() != original.fingerprint()

    def test_wire_round_trip(self):
        spec = ExtractSpec(rows="/bib/book",
                           fields={"t": "title/text()"}, null="-")
        assert ExtractSpec.from_wire(spec.to_wire()) == spec

    def test_wire_rejects_unknown_keys(self):
        wire = SPEC.to_wire()
        wire["bogus"] = 1
        with pytest.raises(ValueError, match="unknown extract spec"):
            ExtractSpec.from_wire(wire)

    def test_options_wire_round_trip(self):
        options = ExtractOptions(format="csv", fast=False,
                                 limits=Limits(max_depth=9))
        rebuilt = ExtractOptions.from_wire(options.to_wire())
        assert rebuilt.format == "csv" and rebuilt.fast is False
        assert rebuilt.limits.max_depth == 9

    def test_options_wire_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown extract option"):
            ExtractOptions.from_wire({"warp_speed": True})

    def test_options_reject_unknown_format(self):
        with pytest.raises(ReproError, match="unknown extract format"):
            ExtractOptions(format="parquet")

    def test_stats_wire_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            ExtractStats.from_dict({"rows_out": 1, "bogus": 2})


# -- the facade ---------------------------------------------------------------


class TestExtractFacade:
    def test_markup_to_records_and_text(self, book_grammar):
        result = extract(BOOK_XML, book_grammar, SPEC)
        assert isinstance(result, ExtractResult)
        assert [row["title"] for row in result.records] == [
            "Divina Commedia", "Moby-Dick", "Vita Nova"
        ]
        assert result.records[2]["year"] is None  # Vita Nova has no year
        assert result.records[0]["isbn"] == "d1"
        lines = [json.loads(line) for line in result.text.splitlines()]
        assert lines == result.records
        assert result.stats.rows_out == 3
        assert result.stats.nulls_out == 1
        assert result.stats.fields_out == 3 * 4 - 1

    def test_result_iterates_records(self, book_grammar):
        result = extract(BOOK_XML, book_grammar, SPEC)
        assert list(result) == result.records

    def test_result_without_records_refuses_iteration(self, book_grammar):
        result = extract(BOOK_XML, book_grammar, SPEC, out=io.StringIO())
        with pytest.raises(TypeError, match="no records"):
            iter(result)

    def test_path_source_and_path_out(self, book_grammar, tmp_path):
        source = tmp_path / "bib.xml"
        source.write_text(BOOK_XML)
        target = tmp_path / "books.jsonl"
        result = extract(str(source), book_grammar, SPEC, out=str(target))
        assert result.output_path == str(target)
        assert result.records is None and result.text is None
        assert len(target.read_text().splitlines()) == 3
        assert result.stats.bytes_in == len(BOOK_XML)

    def test_stream_source_and_stream_out(self, book_grammar):
        sink = io.StringIO()
        result = extract(io.StringIO(BOOK_XML), book_grammar, SPEC, out=sink)
        assert result.stats.rows_out == 3
        assert sink.getvalue().count("\n") == 3

    def test_event_source(self, book_grammar):
        via_events = extract(parse_events(BOOK_XML), book_grammar, SPEC)
        direct = extract(BOOK_XML, book_grammar, SPEC)
        assert via_events.records == direct.records

    def test_bad_source_type_refused(self, book_grammar):
        with pytest.raises(TypeError, match="cannot extract"):
            extract(42, book_grammar, SPEC)

    def test_csv_format(self, book_grammar):
        result = extract(BOOK_XML, book_grammar, SPEC, format="csv")
        lines = result.text.splitlines()
        assert lines[0] == "title,author,year,isbn"
        assert lines[1].startswith("Divina Commedia,Dante,1320,d1")
        assert len(lines) == 4

    def test_null_spelling(self, book_grammar):
        spec = ExtractSpec(rows=SPEC.rows, fields=dict(SPEC.fields), null="?")
        result = extract(BOOK_XML, book_grammar, spec)
        assert result.records[2]["year"] == "?"
        assert '"year": "?"' in result.text.splitlines()[2].replace('":"', '": "')

    def test_value_field_takes_string_value(self, book_grammar):
        spec = ExtractSpec(rows="/bib", fields={"all_titles": "book"})
        result = extract(BOOK_XML, book_grammar, spec)
        # String value of the *first* book: all its descendant text.
        assert result.records == [
            {"all_titles": "Divina CommediaDante132012"}
        ]

    def test_event_pipeline_is_identical(self, book_grammar):
        fused = extract(BOOK_XML, book_grammar, SPEC)
        events = extract(BOOK_XML, book_grammar, SPEC, fast=False)
        assert events.text == fused.text
        assert events.records == fused.records

    def test_agrees_with_reference_oracle(self, book_grammar):
        result = extract(BOOK_XML, book_grammar, SPEC)
        assert result.records == reference_records(BOOK_XML, SPEC)

    def test_rows_path_that_matches_nothing(self, book_grammar):
        spec = ExtractSpec(rows="/bib/price", fields={"v": "text()"})
        result = extract(BOOK_XML, book_grammar, spec)
        assert result.records == [] and result.text == ""
        assert result.stats.rows_out == 0

    def test_present_element_without_text_is_empty_not_null(self, book_grammar):
        # <book> has no *direct* text, but it exists — "" per the spec
        # docstring, and byte-identical to the tree-walk oracle.
        spec = ExtractSpec(rows="/bib", fields={"t": "book/text()"})
        result = extract(BOOK_XML, book_grammar, spec)
        assert result.records == [{"t": ""}]
        assert result.records == reference_records(BOOK_XML, spec)


# -- governance ---------------------------------------------------------------


class TestExtractGovernance:
    def test_limits_refuse_hostile_depth(self, book_grammar):
        hostile = "<bib>" + "<book>" * 500
        with pytest.raises(LimitExceeded, match="depth"):
            extract(hostile, book_grammar, SPEC,
                    limits=Limits(max_depth=16))

    def test_malformed_markup_is_a_structured_error(self, book_grammar):
        with pytest.raises(ReproError):
            extract("<bib><book></bib>", book_grammar, SPEC)

    def test_failed_extract_removes_partial_output(self, book_grammar, tmp_path):
        target = tmp_path / "partial.jsonl"
        with pytest.raises(ReproError):
            extract("<bib><book></bib>", book_grammar, SPEC, out=str(target))
        assert not target.exists()


# -- the spec-keyed projector cache -------------------------------------------


class TestSpecProjectorCache:
    def test_repeat_extraction_hits_the_cache(self, book_grammar):
        cache = ProjectorCache()
        extract(BOOK_XML, book_grammar, SPEC, cache=cache)
        before = cache.stats.hits
        extract(BOOK_XML, book_grammar, SPEC, cache=cache)
        assert cache.stats.hits == before + 1

    def test_equal_specs_share_an_entry(self, book_grammar):
        cache = ProjectorCache()
        first = resolve_spec_projector(book_grammar, SPEC, cache=cache)
        clone = ExtractSpec(rows=SPEC.rows, fields=dict(SPEC.fields))
        second = resolve_spec_projector(book_grammar, clone, cache=cache)
        assert first == second
        assert cache.stats.hits >= 1

    def test_projector_covers_exactly_the_workload(self, book_grammar):
        projector = resolve_spec_projector(book_grammar, SPEC)
        assert "price" not in projector  # no field asks for prices
        assert {"bib", "book", "title", "author", "year"} <= projector


# -- the oracle itself --------------------------------------------------------


class TestReferenceOracle:
    def test_extract_document_matches_reference_records(self, book_document):
        assert extract_document(book_document, SPEC) == reference_records(
            BOOK_XML, SPEC
        )

    def test_missing_rows_root_yields_no_records(self, book_grammar):
        spec = ExtractSpec(rows="/catalog/item", fields={"t": "text()"})
        assert reference_records(BOOK_XML, spec) == []
