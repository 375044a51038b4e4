"""The package surface is a contract: exactly the workload API, no drift.

``repro.__all__`` is pinned here name by name.  A new re-export (or a
lost one) fails this test, not a downstream user — growing the surface
is a deliberate act that edits this file in the same change.
"""

import warnings

import pytest

import repro

#: The whole public surface, sorted.  Edit deliberately.
EXPECTED = [
    "AnalysisResult",
    "BatchError",
    "BatchResult",
    "ExtractOptions",
    "ExtractResult",
    "ExtractSpec",
    "InferredGrammar",
    "Limits",
    "PruneOptions",
    "PruneResult",
    "StrayDocumentError",
    "UnsupportedSchemaError",
    "__version__",
    "analyze",
    "extract",
    "extract_many",
    "infer_grammar",
    "load_grammar",
    "prune",
    "prune_many",
]


def test_all_is_exactly_the_contract():
    assert repro.__all__ == EXPECTED


def test_all_is_sorted():
    assert repro.__all__ == sorted(repro.__all__)


def test_every_public_name_resolves_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in repro.__all__:
            assert getattr(repro, name) is not None


def test_public_callables_are_the_canonical_objects():
    from repro.api import prune
    from repro.core.pipeline import analyze
    from repro.extract.api import extract
    from repro.loading import load_grammar
    from repro.parallel import extract_many, prune_many

    assert repro.prune is prune
    assert repro.analyze is analyze
    assert repro.extract is extract
    assert repro.load_grammar is load_grammar
    assert repro.prune_many is prune_many
    assert repro.extract_many is extract_many


def test_legacy_names_are_gone():
    """The pre-1.0 top-level re-exports and per-source entry points were
    removed after their deprecation cycles: they live only in their
    submodules now."""
    for name in (
        "grammar_from_text", "parse_document", "serialize",
        "prune_string", "prune_file", "analyze_query", "analyze_xquery",
    ):
        with pytest.raises(AttributeError):
            getattr(repro, name)


def test_submodules_stay_importable():
    """The strict surface does not wall off the submodules."""
    import importlib

    for module in (
        "repro.obs",
        "repro.errors",
        "repro.extract",
        "repro.loading",
        "repro.engine.loader",
        "repro.service",
    ):
        assert importlib.import_module(module) is not None


def test_dir_offers_the_surface():
    names = dir(repro)
    assert set(EXPECTED) <= set(names)
    assert "serialize" not in names and "grammar_from_text" not in names
