"""Compatibility aliases that outlived the deleted entry-point shims.

The old ``prune_*``/``analyze_*``/``load_*_for_queries`` entry points and
the top-level re-export table are gone. What remains is the computed
:attr:`AnalysisResult.analysis_seconds` property, an alias for
``span.seconds`` that callers may still read.
"""

from repro.core.pipeline import analyze


class TestAnalysisSecondsCompatibility:
    def test_property_still_readable(self, book_grammar):
        result = analyze(book_grammar, ["//title"])
        assert result.analysis_seconds > 0
