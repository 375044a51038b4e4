"""The unified grammar-loading API: one :func:`load_grammar` per source.

Grammars historically came from three ad-hoc places — ``grammar_from_text``
/ ``grammar_from_dtd`` for DTDs, :mod:`repro.dtd.dataguide` for
DTD-less documents, and :func:`repro.workloads.xmark.xmark_grammar` for
the benchmark schema.  This facade collapses them behind one
keyword-consistent entry point, mirroring what :func:`repro.prune` did
for the per-source prune functions::

    from repro import load_grammar

    grammar = load_grammar("auction.dtd", root="site")      # DTD file
    grammar = load_grammar(DTD_TEXT, root="bib")            # DTD text
    grammar = load_grammar("library.xsd")                   # XML Schema
    grammar = load_grammar("auction.xml", format="xml")     # dataguide
    grammar = load_grammar("xmark")                         # built-in
    grammar = load_grammar("corpus/*.xml", infer=True,      # inference
                           on_stray="copy")

``format`` selects the loader:

* ``"dtd"`` — ``source`` is DTD text or a path to a DTD file; ``root``
  names the root element (omitted: the first declared element);
* ``"xsd"`` — ``source`` is XML Schema text or a path to an ``.xsd``
  file, compiled by :mod:`repro.schema.xsd` (``root`` names the root
  element tag; omitted: the first global element);
* ``"xml"`` — ``source`` is an XML document (text, path, or open
  stream); its dataguide summary becomes the grammar (no DTD needed);
* ``"xmark"`` — the built-in XMark benchmark grammar (``source`` is
  ignored and may be the string ``"xmark"``);
* ``"auto"`` (default) — ``"xmark"`` selects the benchmark grammar, a
  ``.dtd`` path or text starting with a DTD declaration selects
  ``"dtd"``, an ``.xsd`` path or a document whose root element is
  ``xs:schema``/``schema`` selects ``"xsd"`` (an XSD is itself XML, so
  this sniff must run before the generic XML branch), anything else
  selects ``"xml"``.

``infer=True`` switches to first-class schemaless inference
(:func:`repro.schema.infer.infer_grammar`): ``source`` is then a corpus
sample — markup, a path, a glob, a directory, or an iterable of those —
and the result is an :class:`~repro.schema.infer.InferredGrammar`
carrying the ``on_stray`` escape-hatch policy (``"error"`` refuses
documents that stray from the inferred grammar, ``"copy"`` passes them
through verbatim; pruning a stray would be unsound, Theorem 4.5).

The old spellings remain importable from their submodules.
"""

from __future__ import annotations

import os
from typing import IO, Iterable

from repro.dtd.grammar import Grammar
from repro.errors import ReproError

__all__ = ["load_grammar"]

FORMATS = ("auto", "dtd", "xsd", "xml", "xmark")

_DTD_MARKERS = ("<!ELEMENT", "<!ATTLIST", "<!ENTITY", "<!--")


def _looks_like_dtd(text: str) -> bool:
    return text.lstrip().startswith(_DTD_MARKERS)


def _detect(source: "str | os.PathLike[str] | IO[str]") -> str:
    from repro.schema.xsd import looks_like_xsd

    if isinstance(source, str):
        if source == "xmark":
            return "xmark"
        if _looks_like_dtd(source):
            return "dtd"
        if source.lstrip().startswith("<"):
            # Inline markup.  An XSD is itself an XML document, so the
            # schema sniff must come before the generic XML branch or
            # the schema would be summarised as a sample document.
            return "xsd" if looks_like_xsd(source) else "xml"
        if source.endswith(".dtd"):
            return "dtd"
        if source.endswith(".xsd"):
            return "xsd"
        return "xml"
    if isinstance(source, os.PathLike):
        path = os.fspath(source)
        if path.endswith(".dtd"):
            return "dtd"
        if path.endswith(".xsd"):
            return "xsd"
        return "xml"
    return "xml"  # open stream: document content


def _dtd_text(source: "str | os.PathLike[str] | IO[str]") -> str:
    if hasattr(source, "read"):
        return source.read()
    text = os.fspath(source) if isinstance(source, os.PathLike) else source
    if _looks_like_dtd(text):
        return text
    with open(text, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_dtd(source, root: str | None) -> Grammar:
    from repro.dtd.grammar import grammar_from_dtd
    from repro.dtd.parser import parse_dtd

    document = parse_dtd(_dtd_text(source))
    if root is None:
        tags = document.element_tags()
        if not tags:
            raise ReproError("the DTD declares no elements")
        root = tags[0]
    return grammar_from_dtd(document, root)


def _load_xsd(source, root: str | None) -> Grammar:
    from repro.schema.xsd import grammar_from_xsd

    if hasattr(source, "read"):
        return grammar_from_xsd(source.read(), root)
    text = os.fspath(source) if isinstance(source, os.PathLike) else source
    if text.lstrip().startswith("<"):
        return grammar_from_xsd(text, root)
    with open(text, "r", encoding="utf-8") as handle:
        return grammar_from_xsd(handle.read(), root)


def _load_xml(source, root: str | None) -> Grammar:
    from repro.dtd.dataguide import DataguideBuilder
    from repro.xmltree.parser import parse_events

    builder = DataguideBuilder()
    if isinstance(source, str) and not source.lstrip().startswith("<"):
        from repro.dtd.dataguide import grammar_from_file

        return grammar_from_file(source, root)
    if isinstance(source, os.PathLike):
        from repro.dtd.dataguide import grammar_from_file

        return grammar_from_file(os.fspath(source), root)
    builder.add_events(parse_events(source))
    return builder.grammar(root)


def load_grammar(
    source: "str | os.PathLike[str] | IO[str] | Iterable[str]",
    format: str = "auto",
    *,
    root: str | None = None,
    infer: bool = False,
    on_stray: str = "error",
) -> Grammar:
    """Load a :class:`~repro.dtd.grammar.Grammar` from ``source``.

    See the module docstring for the format dispatch table.  ``root``
    names the grammar's root element; for DTDs it defaults to the first
    declared element, for XSDs to the first global element, for
    documents to the document root.  ``infer=True`` selects schemaless
    inference over a corpus sample (``format`` must then be left at
    ``"auto"``); ``on_stray`` only applies to inferred grammars.
    """
    if infer:
        from repro.schema.infer import infer_grammar

        if format != "auto":
            raise ReproError(
                "infer=True chooses its own loader; leave format='auto'"
            )
        return infer_grammar(source, root=root, on_stray=on_stray)  # type: ignore[arg-type]
    if format not in FORMATS:
        raise ReproError(
            f"unknown grammar format {format!r} (expected one of {FORMATS})"
        )
    if format == "auto":
        format = _detect(source)  # type: ignore[arg-type]
    if format == "xmark":
        from repro.workloads.xmark import xmark_grammar

        return xmark_grammar()
    if format == "dtd":
        return _load_dtd(source, root)
    if format == "xsd":
        return _load_xsd(source, root)
    return _load_xml(source, root)
