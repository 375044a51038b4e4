"""High-level static-analysis pipeline: queries in, type projector out.

This is the main user-facing entry point of the library::

    from repro import analyze
    from repro.projection.tree import prune_document
    result = analyze(grammar, ["//book[author='Dante']/title"])
    pruned = prune_document(document, interpretation, result.projector)

(``interpretation`` is the ℑ produced by
:func:`repro.dtd.validator.validate` — the pruner needs it to map nodes
to grammar names, Definition 2.4.)

The pipeline chains: parse → (Sections 3.3/4.3) approximation into XPathℓ
→ (Figure 2) projector inference, one projector per extracted path, and
unions them (projectors are closed under union — Section 5 uses this for
bunches of queries).  XQuery goes through the Section 5 rewriting and the
Figure 3 path extraction first; :func:`analyze` routes each query by the
``language`` keyword (``"auto"`` uses the token-aware
:func:`repro.querylang.looks_like_xquery`).

Each call produces an ``"analysis"`` span with one nested
``"analysis.query"`` span per query (:mod:`repro.obs`); the span data is
the source of truth for analysis timing, with
:attr:`AnalysisResult.analysis_seconds` kept as a compatibility property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.inference import infer_type
from repro.core.projector import ProjectorInference
from repro.dtd.grammar import Grammar
from repro.errors import AnalysisError
from repro.querylang import looks_like_xquery
from repro.static.sat import (
    QueryVerdict,
    classify_path,
    classify_paths,
    filter_projector,
)
from repro.xpath import ast as xp
from repro.xpath.approximation import Approximation, approximate_query
from repro.xpath.parser import parse_xpath
from repro.xpath.xpathl import PathL, SimplePath

QueryLike = "str | xp.Expr | PathL"


@dataclass(slots=True)
class AnalysisResult:
    """Outcome of analysing a bunch of queries against one grammar.

    ``projector`` is the union projector covering every query;
    ``per_query`` maps each input query (by position) to its own
    projector; ``per_query_paths`` holds the XPathℓ paths extracted from
    each query (one list per query — an XQuery may contribute several);
    ``languages`` records how each query was routed.  ``span`` is the
    :class:`repro.obs.Span` of the analysis — the paper's claim is that
    its duration is negligible (< 0.5 s even for large DTDs and long
    paths, Section 6).
    """

    grammar: Grammar
    projector: frozenset[str]
    per_query: list[frozenset[str]] = field(default_factory=list)
    paths: list[PathL] = field(default_factory=list)
    per_query_paths: list[list[PathL]] = field(default_factory=list)
    languages: list[str] = field(default_factory=list)
    span: "obs.Span | None" = None
    verdicts: list[QueryVerdict] = field(default_factory=list)

    @property
    def all_unsat(self) -> bool:
        """Whether the pre-pass proved *every* query unsatisfiable.

        False when the pre-pass did not run (``analyze(static=False)``)
        or the workload was empty — absence of verdicts is not a proof.
        """
        return bool(self.verdicts) and not any(
            verdict.satisfiable for verdict in self.verdicts
        )

    @property
    def provably_empty(self) -> bool:
        """Whether pruning any grammar-valid document under this analysis
        provably yields the bare root element: every query is UNSAT *and*
        the (filtered) union projector kept nothing but the root.

        The second conjunct matters — an UNSAT query can still have a
        non-trivial projector (its path dies only past names that do
        occur), and those names must stay in the pruned output.
        """
        return self.all_unsat and self.projector == frozenset((self.grammar.root,))

    @property
    def analysis_seconds(self) -> float:
        """Wall-clock cost of the static analysis.

        Deprecated alias for ``span.seconds`` — new code should read the
        obs span (or subscribe a sink) instead; kept as a computed
        property for compatibility.
        """
        return self.span.seconds if self.span is not None else 0.0

    @property
    def selectivity(self) -> float:
        """Fraction of reachable grammar names kept by the projector —
        a document-independent proxy for pruning power."""
        reachable = self.grammar.reachable_names()
        if not reachable:
            return 1.0
        return len(self.projector & reachable) / len(reachable)


def _to_pathl(query: "str | xp.Expr | PathL") -> Approximation:
    if isinstance(query, PathL):
        return Approximation(query)
    if isinstance(query, SimplePath):
        return Approximation(PathL(query.steps))
    expr = parse_xpath(query) if isinstance(query, str) else query
    if not isinstance(expr, xp.Expr):
        raise AnalysisError(f"not a query: {query!r}")
    return approximate_query(expr)


def _analyze_pathl(
    grammar: Grammar,
    inference: ProjectorInference,
    pathl: PathL,
    materialize: bool,
) -> frozenset[str]:
    """Projector for one XPathℓ path (handling the document-root anchor)."""
    from repro.xpath.xpathl import element_rooted

    from repro.xpath.ast import Axis, KindTest

    rooted = element_rooted(pathl)
    if rooted is None:
        # The path selects nothing from the document node: keeping just the
        # root is sound (the query answer is empty either way).
        return frozenset((grammar.root,))
    projector = set(inference.infer_path(rooted))
    last = rooted.steps[-1] if rooted.steps else None
    ends_in_subtree = (
        last is not None
        and last.axis is Axis.DESCENDANT_OR_SELF
        and isinstance(last.test, KindTest)
        and last.test.kind == "node"
        and last.condition is None
    )
    if materialize or ends_in_subtree:
        # Materialised results must keep whole subtrees *including
        # attributes*: the type-level descendant closure excludes attribute
        # names (the XPath descendant axis never selects them), so a path
        # ending in descendant-or-self::node — the Figure 3 materialisation
        # marker — gets the attribute-inclusive closure here.
        result_type = infer_type(grammar, rooted)
        projector |= grammar.descendant_closure(result_type.tau)
    projector.add(grammar.root)
    return frozenset(projector)


def _query_language(query: "str | xp.Expr | PathL", language: str) -> str:
    """Resolve one query's language under the ``language`` policy."""
    if language == "auto":
        if isinstance(query, str):
            return "xquery" if looks_like_xquery(query) else "xpath"
        if isinstance(query, (PathL, SimplePath, xp.Expr)):
            return "xpath"
        # Anything else in auto mode is assumed to be a parsed XQuery
        # expression (the XQuery AST is a plain union of dataclasses).
        return "xquery"
    if language not in ("xpath", "xquery"):
        raise AnalysisError(f"unknown query language {language!r}")
    return language


def _analyze_approximation(
    grammar: Grammar,
    inference: ProjectorInference,
    approximation: Approximation,
    materialize: bool,
) -> tuple[frozenset[str], list[PathL]]:
    """Projector + paths for an already-approximated XPath query."""
    projector = set(
        _analyze_pathl(grammar, inference, approximation.main, materialize)
    )
    for side_path in approximation.absolute_paths:
        projector |= _analyze_pathl(grammar, inference, side_path, materialize=False)
    return frozenset(projector), [approximation.main]


def _analyze_xquery_query(
    grammar: Grammar,
    inference: ProjectorInference,
    query: str,
    rewrite: bool,
) -> tuple[frozenset[str], list[PathL]]:
    """Projector + extracted paths for a single XQuery query (Section 5):
    optional pre-extraction rewriting, Figure 3 path extraction, one
    projector per extracted path, union.

    Extracted paths already encode materialisation (the ``m`` flag adds
    ``descendant-or-self::node`` where results are computed), so no
    additional materialisation pass is applied.
    """
    from repro.xquery.extraction import extract_paths
    from repro.xquery.parser import parse_xquery
    from repro.xquery.rewrite import rewrite_query

    parsed = parse_xquery(query) if isinstance(query, str) else query
    if rewrite:
        parsed = rewrite_query(parsed)
    paths = extract_paths(parsed)
    projector: set[str] = {grammar.root}
    for path in paths:
        projector |= _analyze_pathl(grammar, inference, path, materialize=False)
    return frozenset(projector), list(paths)


def analyze(
    grammar: Grammar,
    queries: "list[str | xp.Expr | PathL] | str | xp.Expr | PathL",
    materialize: bool = True,
    *,
    language: str = "auto",
    rewrite: bool = True,
    static: bool = True,
) -> AnalysisResult:
    """Infer the union projector for one query or a bunch of queries.

    ``language`` routes each query: ``"xpath"``, ``"xquery"``, or
    ``"auto"`` (the default — per-query token-aware detection, so mixed
    workloads just work).  ``materialize=True`` (the default, and what any
    engine that *returns* results needs) also keeps the subtrees of XPath
    answer nodes: ``τ' ∪ A_E(τ'', descendant)``, end of Section 4.2;
    XQuery paths carry their own materialisation markers.  ``rewrite``
    applies the Section 5 XQuery rewriting before path extraction.

    ``static=True`` (the default) runs the satisfiability pre-pass
    (:mod:`repro.static.sat`) alongside inference: per-query verdicts in
    :attr:`AnalysisResult.verdicts`, a provably-redundant-work skip for
    τ-empty queries, and an occurrence filter on the union projector.
    Every static effect is byte-identity-preserving on grammar-valid
    documents — ``static=False`` yields the same pruned bytes, just
    without the verdicts (the differential tests assert exactly this).
    """
    if not isinstance(queries, list):
        queries = [queries]
    inference = ProjectorInference(grammar)
    per_query: list[frozenset[str]] = []
    per_query_paths: list[list[PathL]] = []
    languages: list[str] = []
    verdicts: list[QueryVerdict] = []
    with obs.timed("analysis", queries=len(queries), language=language) as span:
        for query in queries:
            kind = _query_language(query, language)
            label = query if isinstance(query, str) else repr(query)
            with obs.span("analysis.query", language=kind, query=label):
                if kind == "xquery":
                    projector, paths = _analyze_xquery_query(
                        grammar, inference, query, rewrite
                    )
                    if static:
                        verdicts.append(classify_paths(grammar, paths, label))
                else:
                    approximation = _to_pathl(query)
                    verdict = (
                        classify_path(grammar, approximation.main, label)
                        if static
                        else None
                    )
                    if (
                        verdict is not None
                        and verdict.tau_empty
                        and not approximation.absolute_paths
                        and all(
                            step.condition is None
                            for step in approximation.main.steps
                        )
                    ):
                        # A τ-empty *qualifier-free* path provably infers
                        # the root-only projector (dead continuations
                        # empty every rule's kept-set).  Qualified steps
                        # are excluded: Figure 2's condition rule unions
                        # the qualifier projectors whenever the step
                        # itself is live, even under a dead tail, so
                        # skipping the inference there would drop names
                        # the real inference keeps.
                        projector = frozenset((grammar.root,))
                        paths = [approximation.main]
                    else:
                        projector, paths = _analyze_approximation(
                            grammar, inference, approximation, materialize
                        )
                    if verdict is not None:
                        verdicts.append(verdict)
            languages.append(kind)
            per_query.append(projector)
            per_query_paths.append(paths)
        union = (
            grammar.union_projectors(per_query)
            if per_query
            else frozenset((grammar.root,))
        )
        if static and per_query:
            filtered = filter_projector(grammar, union)
            if len(filtered) < len(union):
                span.count("static.filtered_names", len(union) - len(filtered))
            union = filtered
        unsat = sum(1 for verdict in verdicts if not verdict.satisfiable)
        if unsat:
            span.count("static.unsat_queries", unsat)
            obs.count("static.unsat_queries", unsat)
        span.count("queries", len(queries))
        span.count("projector_size", len(union))
    return AnalysisResult(
        grammar=grammar,
        projector=grammar.check_projector(union),
        per_query=per_query,
        paths=[path for paths in per_query_paths for path in paths],
        per_query_paths=per_query_paths,
        languages=languages,
        span=span,
        verdicts=verdicts,
    )


def type_of_query(grammar: Grammar, query: "str | xp.Expr | PathL") -> frozenset[str]:
    """The Figure 1 *type* of a query: names that may generate answer
    nodes (Theorem 4.4)."""
    from repro.xpath.xpathl import element_rooted

    approximation = _to_pathl(query)
    rooted = element_rooted(approximation.main)
    if rooted is None:
        return frozenset()
    return infer_type(grammar, rooted).tau
