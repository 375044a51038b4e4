"""Core static analysis: the paper's type system and projector inference.

* :mod:`repro.core.types`      — A_E / T_E (Definition 4.1);
* :mod:`repro.core.inference`  — the Figure 1 type system;
* :mod:`repro.core.projector`  — the Figure 2 projector inference;
* :mod:`repro.core.pipeline`   — the user-facing analyze() entry point.
"""

from repro.core.cache import (
    CacheStats,
    ProjectorCache,
    default_cache,
    grammar_fingerprint,
)
from repro.core.depth import depth_unfolded_grammar, fold_names
from repro.core.inference import Env, TypeInference, infer_type, initial_env
from repro.core.pipeline import (
    AnalysisResult,
    analyze,
    type_of_query,
)
from repro.core.projector import (
    ProjectorInference,
    infer_projector,
    materialized_projector,
)
from repro.core.types import TypeOperators

__all__ = [
    "AnalysisResult",
    "CacheStats",
    "Env",
    "ProjectorCache",
    "ProjectorInference",
    "TypeInference",
    "TypeOperators",
    "analyze",
    "default_cache",
    "depth_unfolded_grammar",
    "fold_names",
    "grammar_fingerprint",
    "infer_projector",
    "infer_type",
    "initial_env",
    "materialized_projector",
    "type_of_query",
]
