"""Type-based XML projection — a reproduction of Benzaken, Castagna,
Colazzo & Nguyên, "Type-Based XML Projection", VLDB 2006.

The package surface is the workload API: load a grammar, analyze a
workload (queries or an extract spec), then prune or extract in one
streaming pass.  Everything else lives in its submodule
(``repro.dtd``, ``repro.projection``, ``repro.xpath``, ...).

Quickstart::

    from repro import ExtractSpec, analyze, extract, load_grammar, prune

    grammar = load_grammar(DTD_TEXT)            # DTD text, path, or XML
    result = analyze(grammar, ["//book[author='Dante']/title"])
    pruned = prune(XML_TEXT, grammar, result.projector)

    spec = ExtractSpec(rows="/bib/book",
                       fields={"title": "title/text()", "isbn": "@isbn"})
    rows = extract(XML_TEXT, grammar, spec).records

See README.md for the full tour and DESIGN.md for the paper-to-module map.
"""

from repro.api import PruneOptions, PruneResult, prune
from repro.core.pipeline import AnalysisResult, analyze
from repro.errors import StrayDocumentError, UnsupportedSchemaError
from repro.extract.api import ExtractOptions, ExtractResult
from repro.extract.api import extract as extract  # binds over the submodule name
from repro.extract.spec import ExtractSpec
from repro.limits import Limits
from repro.loading import load_grammar
from repro.parallel import BatchError, BatchResult, extract_many, prune_many
from repro.schema.infer import InferredGrammar, infer_grammar

__version__ = "1.0.0"

__all__ = [
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
