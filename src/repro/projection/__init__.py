"""Type-driven projection: in-memory (Def 2.7) and streaming pruning.

The unified streaming entry point is :func:`repro.prune` (see
:mod:`repro.api`).
"""

from repro.projection.fastpath import FastPruner
from repro.projection.prunetable import PruneTable, TagPlan, compile_prune_table
from repro.projection.stats import PruneStats, compare_documents, measure_document
from repro.projection.streaming import StreamingPruner
from repro.projection.tree import prune_document, prune_tree

__all__ = [
    "FastPruner",
    "PruneStats",
    "PruneTable",
    "StreamingPruner",
    "TagPlan",
    "compile_prune_table",
    "compare_documents",
    "measure_document",
    "prune_document",
    "prune_tree",
]
