"""Command line front end: generate graphs, solve, decompose, embed, self-check, verify.

Each command imports the otglab modules it uses when it runs, so a process
loads only those.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .graphs import FiniteDigraph, FiniteGraph

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _tuple_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _checks_arg(text: str) -> tuple[str, ...]:
    from .suite import CHECKS

    keys = tuple(p.strip() for p in text.split(",") if p.strip())
    bad = [k for k in keys if k not in CHECKS]
    if bad:
        raise argparse.ArgumentTypeError(f"unknown checks {bad}; choose from {', '.join(CHECKS)}")
    return keys


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _emit_graph(g: FiniteGraph | FiniteDigraph, fmt: str) -> None:
    if fmt == "json":
        print(_dump(g.to_json()))
    elif fmt == "dot":
        print(g.to_dot())
    else:
        print(g.to_table())


def cmd_gen(args: argparse.Namespace) -> int:
    from .graphs import lshift_digraph, order_type_graph, rshift_digraph, shift_graph
    from .seqs import otp

    if args.family == "sh":
        g = shift_graph(args.r, args.n)
    elif args.family == "lsh":
        g = lshift_digraph(args.k, args.n)
    elif args.family == "rsh":
        g = rshift_digraph(args.k, args.n)
    else:
        g = order_type_graph(otp(args.a, args.b), args.theta)
    _emit_graph(g, args.format)
    return EXIT_OK


def cmd_chi(args: argparse.Namespace) -> int:
    from .coloring import chromatic_number
    from .graphs import graph_from_json, shift_graph

    if args.input:
        doc = _load_object(args.input)
        g = graph_from_json(doc)
    else:
        if args.r is None or args.n is None:
            raise ValueError("need --r and --n, or --input")
        g = shift_graph(args.r, args.n)
    res = chromatic_number(g, args.budget)
    if args.format == "json":
        print(_dump(res.to_json()))
    elif res.exact:
        print(f"chi = {res.chi} ({res.nodes} nodes explored)")
    else:
        print(f"inconclusive: {res.lower} <= chi <= {res.upper} ({res.nodes} nodes explored)")
    return EXIT_OK if res.exact else EXIT_BUDGET


def cmd_decompose(args: argparse.Namespace) -> int:
    from .decompose import decomposition_report

    report = decomposition_report(args.a, args.b)
    if args.format == "json":
        print(_dump(report))
        return EXIT_OK
    lines = [f"a = {report['a']}", f"b = {report['b']}"]
    for cls in report["classes"]:
        lines.append(f"class [{cls['lo']},{cls['hi']}] sign {cls['sign']}")
    for analysis in report["analyses"]:
        cls = analysis["class"]
        lines.append(
            f"class [{cls['lo']},{cls['hi']}]: rungs {analysis['deltas']} "
            f"chain {analysis['zetas']} blocks {[(blk['lo'], blk['hi']) for blk in analysis['blocks']]}"
        )
    cover = report["cover"]
    lines.append(f"cover depth {cover['k']} with {len(cover['pieces'])} pieces")
    print("\n".join(lines))
    return EXIT_OK


def cmd_embed(args: argparse.Namespace) -> int:
    from .decompose import orderly_cover
    from .embedding import cover_embedding

    w = orderly_cover(args.a, args.b)
    emb = cover_embedding(args.a, args.b, w, args.N)
    doc = emb.to_json()
    doc["cover"] = w.to_json()
    if args.format == "json":
        print(_dump(doc))
    else:
        print(f"embedded {emb.source.n} vertices, frame {list(emb.frame.radices)}")
        for idx, img in enumerate(emb.images):
            print(f"{emb.source.vertices[idx]} -> {list(img)}")
    return EXIT_OK


def cmd_suite(args: argparse.Namespace) -> int:
    from .suite import SuiteCaps, embedding_sweep, run_suite

    caps = SuiteCaps(args.max_len, args.value_bound)
    if args.sweep:
        doc = embedding_sweep(args.seed, args.count, caps)
        print(_dump(doc))
        return EXIT_OK if doc["ok"] else EXIT_VERIFY
    report = run_suite(args.seed, args.count, caps, workers=args.workers, only=args.only)
    if args.format == "json":
        print(_dump(report.to_json()))
    else:
        print(report.to_table())
        # replay info: each failure as one JSON line
        for rec in report.failures:
            print(json.dumps(rec, sort_keys=True))
    return EXIT_OK if report.ok else EXIT_VERIFY


def _load_object(path: str) -> dict:
    from .seqs import json_fields

    with open(path) as fh:
        doc = json.load(fh)
    json_fields(doc, "document")
    return doc


def cmd_verify(args: argparse.Namespace) -> int:
    doc = _load_object(args.file)
    if "images" in doc:
        from .embedding import EmbeddingMap, verify_embedding

        kind = "embedding"
        emb = EmbeddingMap.from_json(doc)
        ok = verify_embedding(emb)
    elif "cover" in doc and "a" in doc and "b" in doc:
        from .decompose import CoverWitness, verify_cover
        from .seqs import json_ints

        kind = "cover"
        w = CoverWitness.from_json(doc["cover"])
        a, b = json_ints(doc["a"], "a and b"), json_ints(doc["b"], "a and b")
        ok = verify_cover(a, b, w)
    elif "graph" in doc and "coloring" in doc:
        from .coloring import Coloring, verify_coloring
        from .graphs import graph_from_json

        kind = "coloring"
        g = graph_from_json(doc["graph"])
        col = Coloring.from_json(doc["coloring"])
        ok = verify_coloring(g, col)
    else:
        raise ValueError("unrecognized document: expected an embedding, cover, or coloring")
    print(_dump({"kind": kind, "ok": ok}))
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="otg", description="order-type graph toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph")
    fam = gen.add_subparsers(dest="family", required=True)
    p_sh = fam.add_parser("sh", help="shift graph")
    p_sh.add_argument("--r", type=int, required=True)
    p_sh.add_argument("--n", type=int, required=True)
    p_lsh = fam.add_parser("lsh", help="directed left-shift graph")
    p_lsh.add_argument("--k", type=int, required=True)
    p_lsh.add_argument("--n", type=int, required=True)
    p_rsh = fam.add_parser("rsh", help="directed right-shift graph")
    p_rsh.add_argument("--k", type=int, required=True)
    p_rsh.add_argument("--n", type=int, required=True)
    p_otg = fam.add_parser("otg", help="order-type graph of the pattern of a pair")
    p_otg.add_argument("--a", type=_tuple_arg, required=True)
    p_otg.add_argument("--b", type=_tuple_arg, required=True)
    p_otg.add_argument("--theta", type=int, required=True)
    for p in (p_sh, p_lsh, p_rsh, p_otg):
        p.add_argument("--format", choices=("json", "dot", "table"), default="json")
    gen.set_defaults(func=cmd_gen)

    chi = sub.add_parser("chi", help="exact chromatic number")
    chi.add_argument("--r", type=int)
    chi.add_argument("--n", type=int)
    chi.add_argument("--input", help="graph JSON file instead of --r/--n")
    chi.add_argument("--budget", type=int, help="decision node cap (default: unlimited)")
    chi.add_argument("--format", choices=("json", "table"), default="json")
    chi.set_defaults(func=cmd_chi)

    dec = sub.add_parser("decompose", help="sign classes, ladders, and cover of a pair")
    dec.add_argument("--a", type=_tuple_arg, required=True)
    dec.add_argument("--b", type=_tuple_arg, required=True)
    dec.add_argument("--format", choices=("json", "table"), default="json")
    dec.set_defaults(func=cmd_decompose)

    emb = sub.add_parser("embed", help="embed a shift graph realizing the pattern of a pair")
    emb.add_argument("--a", type=_tuple_arg, required=True)
    emb.add_argument("--b", type=_tuple_arg, required=True)
    emb.add_argument("--N", type=int, required=True, help="letters for the source shift graph")
    emb.add_argument("--format", choices=("json", "table"), default="json")
    emb.set_defaults(func=cmd_embed)

    suite = sub.add_parser("suite", help="seeded self-check battery")
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--count", type=int, default=100)
    suite.add_argument(
        "--workers", type=int, default=1, help="at most this many processes; a pool starts only for --count >= 100"
    )
    suite.add_argument("--only", type=_checks_arg, help="comma-separated check names")
    suite.add_argument("--sweep", action="store_true", help="embedding sweep instead of checks")
    suite.add_argument("--max-len", type=int, default=8)
    suite.add_argument("--value-bound", type=int, default=32)
    suite.add_argument("--format", choices=("json", "table"), default="table")
    suite.set_defaults(func=cmd_suite)

    ver = sub.add_parser("verify", help="check a JSON artifact")
    ver.add_argument("file")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # An EmbeddingError is a construction failing its own check; one can
        # only have been raised if the embedding module is loaded.
        embedding = sys.modules.get(f"{__package__}.embedding")
        if embedding is not None and isinstance(exc, embedding.EmbeddingError):
            return EXIT_VERIFY
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
