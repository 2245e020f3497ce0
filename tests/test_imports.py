"""The import contract: `import otglab` loads no submodule, each name resolves on first access."""

from __future__ import annotations

import json
import subprocess
import sys

# The public surface of the package: each exported name under its home module.
EXPORTS = {
    "coloring": [
        "ChiResult", "Coloring", "PatternUnionResult", "chromatic_number", "greedy_clique",
        "greedy_coloring", "pattern_union_chromatic", "product_coloring", "pullback_coloring",
        "quotient_coloring", "sum_coloring", "verify_coloring",
    ],
    "decompose": [
        "Block", "ClassAnalysis", "ConvexClass", "CoverPiece", "CoverWitness", "DecompositionError",
        "SignPartition", "analyze_class", "classes_separated", "convex_closure", "decomposition_report",
        "exhaustive_k_orderly", "generator_pairs", "is_k_orderly", "orderly_cover", "sign_partition",
        "verify_cover",
    ],
    "embedding": [
        "EmbeddingError", "EmbeddingMap", "LevelMaps", "build_level_maps",
        "cover_embedding", "lemma_embedding", "verify_embedding",
    ],
    "graphs": [
        "FiniteDigraph", "FiniteGraph", "SubgraphSearch", "find_subgraph_embedding", "graph_from_json",
        "is_connected", "lshift_digraph", "order_type_graph", "rshift_digraph", "shift_graph",
        "verify_homomorphism", "verify_strong_homomorphism",
    ],
    "rng": ["SplitMix64", "case_seed", "mix64", "random_pair"],
    "seqs": ["IncreasingTuple", "LexFrame", "OrderTypePattern", "increasing_tuples", "otp", "remap_monotone"],
    "suite": ["CHECKS", "DECOMP_CHECKS", "SuiteCaps", "SuiteReport", "embedding_sweep", "run_suite"],
}
SUBMODULES = sorted([*EXPORTS, "oracles"])


def fresh(code: str):
    """Run code in a new interpreter and return what it prints as JSON on its last line."""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    code = "import json, sys, otglab; print(json.dumps(sorted(m for m in sys.modules if m.startswith('otglab'))))"
    assert fresh(code) == ["otglab"]


def test_submodules_load_neither_dataclasses_nor_inspect():
    # records generate no code at import, so nothing pulls in the modules that generate it
    code = (
        "import importlib, json, sys\n"
        "before = set(sys.modules)\n"
        f"for name in {[*SUBMODULES, 'cli']!r}:\n"
        "    importlib.import_module('otglab.' + name)\n"
        "print(json.dumps(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))"
    )
    assert fresh(code) == []


def test_gen_sh_loads_only_graphs_and_seqs():
    code = (
        "import contextlib, io, json, sys\n"
        "from otglab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['gen', 'sh', '--r', '2', '--n', '9'])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('otglab'))]))"
    )
    assert fresh(code) == [0, ["otglab", "otglab.cli", "otglab.graphs", "otglab.seqs"]]


def test_names_resolve_to_their_home_objects():
    code = f"""
import importlib, json, otglab
exports, submodules = {EXPORTS!r}, {SUBMODULES!r}
out = {{"all": otglab.__all__, "version": otglab.__version__, "same": [], "modules": []}}
for home, names in exports.items():
    for name in names:
        obj = getattr(otglab, name)
        out["same"].append([name, obj is getattr(importlib.import_module("otglab." + home), name)])
for name in submodules:
    out["modules"].append([name, getattr(otglab, name) is importlib.import_module("otglab." + name)])
out["dir"] = sorted(set(otglab.__all__ + submodules) - set(dir(otglab)))
print(json.dumps(out))
"""
    out = fresh(code)
    assert out["all"] == sorted(name for names in EXPORTS.values() for name in names)
    assert out["version"] == "0.1.0"
    assert all(same for _, same in out["same"]), out["same"]
    assert out["modules"] == [[name, True] for name in SUBMODULES]
    assert out["dir"] == []


def test_submodule_resolves_before_any_export():
    # Reaching a submodule through the package must not depend on an export having loaded it.
    code = "import json, otglab; print(json.dumps([otglab.suite.__name__, otglab.oracles.__name__]))"
    assert fresh(code) == ["otglab.suite", "otglab.oracles"]


def test_star_import_binds_all():
    code = (
        "import json, otglab\n"
        "ns = {}\n"
        "exec('from otglab import *', ns)\n"
        "print(json.dumps(sorted(set(otglab.__all__) - set(ns))))"
    )
    assert fresh(code) == []


def test_unknown_name_raises_attribute_error():
    code = (
        "import json, otglab\n"
        "out = []\n"
        "for name in ('no_such_name', 'cli_main', '_HOMELESS'):\n"
        "    try:\n"
        "        getattr(otglab, name)\n"
        "        out.append(None)\n"
        "    except AttributeError as exc:\n"
        "        out.append(str(exc))\n"
        "print(json.dumps([out, hasattr(otglab, 'no_such_name')]))"
    )
    messages, has = fresh(code)
    assert messages == [f"module 'otglab' has no attribute {name!r}" for name in ("no_such_name", "cli_main", "_HOMELESS")]
    assert has is False
