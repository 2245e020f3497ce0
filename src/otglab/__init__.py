"""Order-type graph toolkit: shift graphs, pattern graphs, pair decomposition, embeddings.

Importing the package loads none of its modules. Each public name is imported
from its home module on first access (PEP 562), so a caller pays only for the
modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Home module of each public name.
_EXPORTS = {
    "coloring": (
        "ChiResult",
        "Coloring",
        "PatternUnionResult",
        "chromatic_number",
        "greedy_clique",
        "greedy_coloring",
        "pattern_union_chromatic",
        "product_coloring",
        "pullback_coloring",
        "quotient_coloring",
        "sum_coloring",
        "verify_coloring",
    ),
    "decompose": (
        "Block",
        "ClassAnalysis",
        "ConvexClass",
        "CoverPiece",
        "CoverWitness",
        "DecompositionError",
        "SignPartition",
        "analyze_class",
        "classes_separated",
        "convex_closure",
        "decomposition_report",
        "exhaustive_k_orderly",
        "generator_pairs",
        "is_k_orderly",
        "orderly_cover",
        "sign_partition",
        "verify_cover",
    ),
    "embedding": (
        "EmbeddingError",
        "EmbeddingMap",
        "LevelMaps",
        "build_level_maps",
        "cover_embedding",
        "lemma_embedding",
        "verify_embedding",
    ),
    "graphs": (
        "FiniteDigraph",
        "FiniteGraph",
        "SubgraphSearch",
        "find_subgraph_embedding",
        "graph_from_json",
        "is_connected",
        "lshift_digraph",
        "order_type_graph",
        "rshift_digraph",
        "shift_graph",
        "verify_homomorphism",
        "verify_strong_homomorphism",
    ),
    "rng": ("SplitMix64", "case_seed", "mix64", "random_pair"),
    "seqs": (
        "IncreasingTuple",
        "LexFrame",
        "OrderTypePattern",
        "increasing_tuples",
        "otp",
        "remap_monotone",
    ),
    "suite": ("CHECKS", "DECOMP_CHECKS", "SuiteCaps", "SuiteReport", "embedding_sweep", "run_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules reachable as package attributes without importing them first.
_SUBMODULES = frozenset(_EXPORTS) | {"oracles"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # Importing a submodule binds it in the package namespace.
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
