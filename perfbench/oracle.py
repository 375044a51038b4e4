"""Correctness oracles, run outside every timed region.

* Pruned bytes are compared with the Def. 2.7 tree reference:
  :func:`repro.projection.tree.prune_document` over the generator's
  in-memory document (which is first checked to serialize to exactly the
  bytes the program read), then serialized.
* Extracted records are compared with
  :func:`repro.extract.reference.reference_records` (its two steps,
  with one parse of each document shared by every spec).
* Query answers on a pruned document are compared with the answers on
  the original (Thm 4.5) with the ``repro.xpath`` / ``repro.xquery``
  evaluators.

Outputs are compared by SHA-256 digest so that a run keeps one short
string per operation instead of every output.  Every reference digest
is taken by :func:`reference_digest`, which also notes the digest of the
same reference text with one character changed (:data:`TAMPERED`): the
run's self-check requires a correct output to fail against that, so a
checker whose expected digests do not come from the reference texts
cannot pass.
"""

from __future__ import annotations

import hashlib
import json

from repro.dtd.validator import validate
from repro.extract.reference import extract_document
from repro.projection.tree import prune_document
from repro.querylang import looks_like_xquery
from repro.workloads.xmark.generator import generate_document
from repro.xmltree.builder import parse_document
from repro.xmltree.serializer import serialize
from repro.xpath.evaluator import XPathEvaluator
from repro.xquery.evaluator import XQueryEvaluator

DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>\n'


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Reference digest -> digest of the same reference text with one
#: character changed (:func:`corrupt`).
TAMPERED: dict[str, str] = {}


def reference_digest(text: str) -> str:
    value = digest(text)
    TAMPERED[value] = digest(corrupt(text))
    return value


def file_digest(path: str) -> tuple[str, int]:
    """Digest and size in bytes of a written output file."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return digest(text), len(text.encode("utf-8"))


def jsonl_records_digest(text: str) -> str | None:
    """Digest of the records in a JSONL output, or ``None`` if it does
    not parse (which can only mismatch)."""
    try:
        records = [json.loads(line) for line in text.splitlines() if line]
    except ValueError:
        return None
    return digest(json.dumps(records, sort_keys=True))


def corrupt(text: str) -> str:
    """``text`` with one character in the middle changed."""
    middle = len(text) // 2
    replacement = "x" if text[middle] != "x" else "y"
    return text[:middle] + replacement + text[middle + 1:]


class TreeReference:
    """The Def. 2.7 reference for one generated document."""

    def __init__(self, grammar, factor: float, seed: int, markup_digest: str) -> None:
        self.document = generate_document(factor, seed)
        if digest(DECLARATION + serialize(self.document)) != markup_digest:
            raise RuntimeError(
                f"generated tree (factor {factor}, seed {seed}) does not "
                "serialize to the document the program read"
            )
        self.interpretation = validate(self.document, grammar)
        self._pruned: dict[frozenset, object] = {}

    def pruned_document(self, projector: frozenset):
        if projector not in self._pruned:
            self._pruned[projector] = prune_document(
                self.document, self.interpretation, projector
            )
        return self._pruned[projector]

    def pruned_digest(self, projector: frozenset) -> str:
        return reference_digest(serialize(self.pruned_document(projector)))


def reference_records_digests(path: str, specs: list) -> list[str]:
    """Digest of ``reference_records(document, spec)`` for each spec: the
    document is parsed once, exactly as that oracle parses it (in full,
    no grammar, whitespace kept), and walked once per spec."""
    with open(path, encoding="utf-8") as handle:
        document = parse_document(handle, strip_whitespace=False)
    return [reference_digest(json.dumps(extract_document(document, spec), sort_keys=True))
            for spec in specs]


def answer(document, query: str):
    """A query's answer in a form comparable across the original and a
    tree-pruned document: node ids for XPath (the tree pruner keeps
    them), the serialized result for XQuery."""
    if looks_like_xquery(query):
        return XQueryEvaluator(document).evaluate_serialized(query)
    return XPathEvaluator(document).select_ids(query)
