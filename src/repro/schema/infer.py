"""First-class schemaless inference: dataguide grammars with a policy.

The paper's conclusion invites "dataguides/path-summaries instead" of
DTDs; :mod:`repro.dtd.dataguide` builds that summary.  This module
promotes it from an example into a mode the whole pipeline understands:
:func:`infer_grammar` samples a corpus into an :class:`InferredGrammar`,
and the grammar itself carries the *escape hatch* — Theorem 4.5
soundness only covers documents the grammar accepts, so a document that
strays from the sample must never be pruned as if it validated.

The stray check costs nothing extra: a dataguide grammar's content
models are starred unions of everything observed, so full validation
against it *is* exactly "every child tag was observed under this parent,
text only where text was observed".  The prune facade therefore forces
validation on for inferred grammars and maps the first violation to the
policy:

* ``on_stray="error"`` (default) — raise the structured
  :class:`~repro.errors.StrayDocumentError` naming the violation;
* ``on_stray="copy"`` — emit the document verbatim (identity copy), the
  always-sound fallback (a copy preserves every query answer).

Attributes are part of the check: unlike DTD validation (where an
undeclared attribute is tolerated as an authoring choice), an attribute
never seen in the sample is evidence the document strays, and silently
*dropping* it would be a wrong-bytes prune.  ``strict_attributes`` on
the grammar turns on the event validator's attribute checking.

The builder's output is deterministic — summaries materialise in sorted
order — so any ingestion order of the same corpus yields byte-identical
fingerprints (load-bearing for the projector cache, resident-worker
pins and the attestation ledger; pinned by a property test).
"""

from __future__ import annotations

import os
from typing import IO, Iterable

from repro.dtd.dataguide import DataguideBuilder
from repro.dtd.grammar import Grammar, Production
from repro.errors import ReproError

__all__ = ["InferredGrammar", "infer_grammar", "STRAY_POLICIES"]

STRAY_POLICIES = ("error", "copy")


class InferredGrammar(Grammar):
    """A dataguide grammar inferred from samples, carrying its stray
    policy.  A local tree grammar in every other respect — the fused
    fast path, the static analysis and the service treat it exactly
    like a DTD grammar, except that pruning always validates and the
    fingerprint is salted with the policy (two policies must never
    share a cache entry, a resident pin or a ledger attestation).
    """

    #: The event validator checks attributes against the productions
    #: when this is set (see the module docstring).
    strict_attributes = True

    def __init__(
        self,
        root: str,
        productions: Iterable[Production],
        *,
        on_stray: str = "error",
        sample_count: int = 0,
    ) -> None:
        if on_stray not in STRAY_POLICIES:
            raise ReproError(
                f"unknown on_stray policy {on_stray!r} "
                f"(expected one of {STRAY_POLICIES})"
            )
        super().__init__(root, productions)
        self.on_stray = on_stray
        self.sample_count = sample_count

    @property
    def fingerprint_salt(self) -> str:
        return f"on_stray={self.on_stray}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InferredGrammar(root={self.root!r}, "
            f"{len(self.productions)} names, on_stray={self.on_stray!r})"
        )


def infer_grammar(
    sample_sources: "str | os.PathLike[str] | IO[str] | Iterable[str]",
    *,
    root: "str | None" = None,
    on_stray: str = "error",
) -> InferredGrammar:
    """Infer an :class:`InferredGrammar` from a sample of a corpus.

    ``sample_sources`` follows the :func:`repro.prune_many` source
    convention: inline markup, a file path, a glob pattern, a directory
    (every ``*.xml`` inside, sorted), an open stream, or any iterable
    mixing those.  Ingestion is streaming — arbitrarily large samples
    summarise in constant memory.

    ``root`` picks the root tag when the sample's documents disagree;
    ``on_stray`` is the escape-hatch policy documents outside the
    inferred language get at prune time (see the module docstring).
    """
    from repro.parallel import expand_sources
    from repro.runplan import _is_markup
    from repro.xmltree.parser import parse_events

    builder = DataguideBuilder()
    count = 0
    if isinstance(sample_sources, (str, os.PathLike)) or hasattr(
        sample_sources, "read"
    ):
        sample_sources = [sample_sources]  # type: ignore[list-item]
    for source in sample_sources:
        if hasattr(source, "read"):
            builder.add_events(parse_events(source))
            count += 1
            continue
        for expanded in expand_sources([source]):
            if _is_markup(expanded):
                builder.add_events(parse_events(expanded))
            else:
                with open(expanded, "r", encoding="utf-8") as handle:
                    builder.add_events(parse_events(handle))
            count += 1
    if count == 0:
        raise ReproError("infer_grammar got an empty sample")
    grammar_root, productions = builder.materialise(root)
    return InferredGrammar(
        grammar_root, productions, on_stray=on_stray, sample_count=count
    )
