"""`otg` driven in-process over malformed arguments and documents: exit codes and one-line errors."""

from __future__ import annotations

import builtins
import copy
import json
import random
import time

import pytest

import otglab.embedding
from otglab import chromatic_number, cli, cover_embedding, decomposition_report, orderly_cover, shift_graph


def run_main(capsys, argv):
    """Run cli.main; returns (exit code, stdout, stderr lines, whether argparse accepted argv)."""
    try:
        code, parsed = cli.main([str(a) for a in argv]), True
    except SystemExit as exc:  # argparse rejects the arguments before main's handlers run
        code, parsed = exc.code, False
    except Exception as exc:
        pytest.fail(f"otg {argv} raised {exc!r}")
    out = capsys.readouterr()
    return code, out.out, out.err.strip().splitlines(), parsed


def assert_clean_exit(capsys, argv):
    code, out, err, parsed = run_main(capsys, argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 2:
        assert out == "", argv
        if parsed:
            assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
        else:
            # argparse prints its usage block, then one error line.
            assert [line for line in err if "error:" in line] == err[-1:], (argv, err)
    return code


BAD_ARGV = [
    ["gen", "otg", "--a", "0,,1", "--b", "1,2", "--theta", "3"],
    ["gen", "otg", "--a", "0,1.5", "--b", "1,2", "--theta", "3"],
    ["gen", "otg", "--a", "1,0", "--b", "1,2", "--theta", "3"],
    ["gen", "otg", "--a", "0,1", "--b", "2", "--theta", "3"],
    ["gen", "otg", "--a", "0,1", "--b", "0,1", "--theta", "3"],
    ["gen", "otg", "--a", "0,1", "--b", "2,3", "--theta", "-1"],
    ["gen", "sh", "--r", "0", "--n", "3"],
    ["gen", "sh", "--r", "2.5", "--n", "3"],
    ["gen", "rsh", "--k", "3", "--n", "1"],
    ["chi", "--r", "2"],
    ["chi", "--r", "2", "--n", "5", "--budget", "-1"],
    ["chi", "--input", "/no/such/graph.json"],
    ["decompose", "--a", "3,1", "--b", "0,2"],
    ["decompose", "--a", "0,1", "--b", "0,1,2"],
    ["decompose", "--a", ",", "--b", "1"],
    ["embed", "--a", "0,1", "--b", "1,2", "--N", "-5"],
    ["embed", "--a", "0,1", "--b", "0,1", "--N", "3"],
    ["embed", "--a", "0,1", "--b", "1,2", "--N", "x"],
    ["suite", "--count", "-1"],
    ["suite", "--only", ","],
    ["suite", "--count", "1", "--value-bound", "0"],
    ["frobnicate"],
]

# Values a mutated document field may take: wrong types, fractions, out of range.
JUNK = [1.5, True, None, "x", [], {}, -1, 2**70, [1.5], [[0]], {"k": 1}]


def valid_documents() -> list[dict]:
    a, b = (0, 1, 3), (1, 2, 4)
    g = shift_graph(2, 5)
    witness = chromatic_number(g).to_json()["witness"]
    return [
        cover_embedding(a, b, orderly_cover(a, b), 4).to_json(),
        decomposition_report((0, 2, 4), (1, 3, 5)),
        {"graph": g.to_json(), "coloring": {"palette": max(witness) + 1, "colors": witness}},
    ]


def paths(node, prefix=()):
    """Every path into a JSON tree, looking at no more than 3 entries of each list."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node[:3])
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def mutate(doc: dict, rng: random.Random) -> dict:
    doc = copy.deepcopy(doc)
    path = rng.choice(list(paths(doc)))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if isinstance(node, dict) and rng.random() < 0.2:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(rng.choice(JUNK))
    return doc


def test_cli_fuzz_exits_cleanly(capsys, tmp_path):
    for argv in BAD_ARGV + [["verify", tmp_path], ["chi", "--input", tmp_path]]:
        assert_clean_exit(capsys, argv)
    rng = random.Random(2103_13931)
    docs = valid_documents()
    path = tmp_path / "doc.json"
    codes = []
    for _ in range(30):
        path.write_text(json.dumps(mutate(rng.choice(docs), rng)))
        codes.append(assert_clean_exit(capsys, ["verify", path]))
    # The corpus reaches both the usage-error and the verdict paths.
    assert 2 in codes and {0, 1} & set(codes)


# One value of each JSON type.
JSON_TYPES = {"null": None, "bool": True, "number": 7, "string": "x", "array": [], "object": {}}

# Keys of fields that `otg verify` does not read: the embedding's flag, and the report's parts other than the cover.
UNREAD = ("verified", "signs", "classes", "analyses")

EXCEPTION_NAMES = [name for name, c in vars(builtins).items() if isinstance(c, type) and issubclass(c, BaseException)]


def json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def is_read(path) -> bool:
    """Whether `otg verify` reads the field at path: it is not an unread field."""
    return path[0] not in UNREAD


def is_integer_label(path, doc) -> bool:
    """Whether the value at path is a whole vertex label that is a JSON integer, which is still a valid label."""
    return path[:2] == ("graph", "vertices") and len(path) == 3 and type(doc["graph"]["vertices"][path[2]]) is int


def retyped_documents():
    """(path, document): a valid document with the value at path set to each other JSON type, or its key deleted."""
    for doc in valid_documents():
        for path in paths(doc):
            for change in [*JSON_TYPES, "deleted"]:
                new = copy.deepcopy(doc)
                node = new
                for key in path[:-1]:
                    node = node[key]
                if change == "deleted" and isinstance(node, dict):
                    del node[path[-1]]
                elif change not in ("deleted", json_type(node[path[-1]])):
                    node[path[-1]] = copy.deepcopy(JSON_TYPES[change])
                else:
                    continue
                yield path, new


def test_retyped_or_deleted_fields_are_usage_errors_unless_unread(capsys, tmp_path):
    path = tmp_path / "doc.json"
    unread = set()
    for where, doc in retyped_documents():
        path.write_text(json.dumps(doc))
        code, out, err, _ = run_main(capsys, ["verify", path])
        if is_read(where) and not is_integer_label(where, doc):
            assert (code, out) == (2, ""), (where, doc)
            assert len(err) == 1 and err[0].startswith("error: "), (where, err)
            assert not [name for name in EXCEPTION_NAMES if name in err[0]], (where, err)
        else:
            assert code in (0, 1), (where, code, err)
            unread.add(where[0] if where[0] in UNREAD else "integer vertex label")
    # every exemption above is reached by the sweep
    assert unread == {*UNREAD, "integer vertex label"}


# One character or key per vertex, so that iterating the value would give a graph that loads.
RETYPED_VERTICES = {"string": lambda vs: "v" * len(vs), "object": lambda vs: {str(v): 0 for v in vs}}


@pytest.mark.parametrize("retype", list(RETYPED_VERTICES.values()), ids=list(RETYPED_VERTICES))
def test_graph_vertices_of_another_json_type_are_usage_errors(capsys, tmp_path, retype):
    coloring = valid_documents()[2]
    graph = {**coloring["graph"], "vertices": retype(coloring["graph"]["vertices"])}
    path = tmp_path / "doc.json"
    for argv, doc in (["chi", "--input", path], graph), (["verify", path], {**coloring, "graph": graph}):
        path.write_text(json.dumps(doc))
        assert assert_clean_exit(capsys, argv) == 2, argv


def test_repeated_vertex_labels_are_usage_errors(capsys, tmp_path):
    coloring = valid_documents()[2]
    vertices = coloring["graph"]["vertices"]
    path = tmp_path / "doc.json"
    for labels in [vertices[0], vertices[0], *vertices[2:]], [0, *range(len(vertices) - 1)]:
        graph = {**coloring["graph"], "vertices": labels}
        for argv, doc in (["chi", "--input", path], graph), (["verify", path], {**coloring, "graph": graph}):
            path.write_text(json.dumps(doc))
            assert assert_clean_exit(capsys, argv) == 2, argv


# A value of each other JSON type, put where the edge list or one of its pairs belongs.
RETYPED_PAIRS = {"string": "ab", "object": {"0": 1}, "number": 5}


@pytest.mark.parametrize("value", list(RETYPED_PAIRS.values()), ids=list(RETYPED_PAIRS))
@pytest.mark.parametrize("where", ["list", "pair"])
@pytest.mark.parametrize("key", ["edges", "arcs"])
def test_graph_pairs_of_another_json_type_are_usage_errors(capsys, tmp_path, key, where, value):
    coloring = valid_documents()[2]
    graph = dict(coloring["graph"])
    pairs = graph.pop("edges")
    graph[key] = value if where == "list" else [pairs[0], value, *pairs[1:]]
    path = tmp_path / "doc.json"
    for argv, doc in (["chi", "--input", path], graph), (["verify", path], {**coloring, "graph": graph}):
        path.write_text(json.dumps(doc))
        code, out, err, _ = run_main(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert len(err) == 1 and err[0].endswith(f", got {value!r}"), (argv, err)


def _retype_list(where, value) -> dict:
    """A valid cover or embedding document with its pieces, first piece's blocks or images set to value."""
    if where == "images":
        return {**valid_documents()[0], "images": value}
    doc = valid_documents()[1]
    node = doc["cover"] if where == "pieces" else doc["cover"]["pieces"][0]
    node[where] = value
    return doc


@pytest.mark.parametrize("value", list(RETYPED_PAIRS.values()), ids=list(RETYPED_PAIRS))
@pytest.mark.parametrize("where", ["pieces", "blocks", "images"])
def test_document_lists_of_another_json_type_are_usage_errors(capsys, tmp_path, where, value):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_retype_list(where, value)))
    code, out, err, _ = run_main(capsys, ["verify", path])
    assert (code, out) == (2, ""), where
    assert len(err) == 1 and err[0].endswith(f", got {value!r}"), (where, err)


@pytest.mark.parametrize("cut", [[0], [1], [0, 1, 2]], ids=["edge end", "isolated", "every image"])
def test_embedding_images_of_another_length_are_usage_errors(capsys, tmp_path, cut):
    # the source Sh_2(3) has one edge, (0,1)-(1,2); image 1, of the vertex (0,2), lies on no edge
    doc = embedding_doc((1, 2, 3), (0, 1, 3), 3)
    for i in cut:
        doc["images"][i]["values"].pop()
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err, _ = run_main(capsys, ["verify", path])
    assert (code, out) == (2, "")
    assert err == [f"error: image {cut[0]} has 2 values, not the pattern's 3: {doc['images'][cut[0]]['values']}"]


def test_directory_input_is_usage_error(capsys, tmp_path):
    for argv in (["verify", tmp_path], ["chi", "--input", tmp_path]):
        code, out, err, _ = run_main(capsys, argv)
        assert (code, out) == (2, "")
        assert len(err) == 1 and "Is a directory" in err[0]


def test_embedding_error_exits_1(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise otglab.embedding.EmbeddingError("constructed images fail the pattern check")

    monkeypatch.setattr(otglab.embedding, "cover_embedding", fail)
    code, out, err, _ = run_main(capsys, ["embed", "--a", "0,1", "--b", "1,2", "--N", "4"])
    assert (code, out, err) == (1, "", ["error: constructed images fail the pattern check"])


def test_negative_theta_is_usage_error(capsys):
    code, out, err, _ = run_main(capsys, ["gen", "otg", "--a", "0,1", "--b", "2,3", "--theta", "-1"])
    assert (code, out, err) == (2, "", ["error: theta must be >= 0"])


def embedding_doc(a=(0, 1), b=(1, 2), n=4) -> dict:
    return cover_embedding(a, b, orderly_cover(a, b), n).to_json()


def truncated_documents():
    """Documents that verified as their truncated selves when numbers went through int()."""
    emb = embedding_doc()
    frac = copy.deepcopy(emb)
    frac["images"][0]["values"][-1] += 0.9
    ones = embedding_doc((0, 2), (1, 3))
    assert ones["images"][0]["values"][0] == 1
    ones["images"][0]["values"][0] = True
    radix = copy.deepcopy(emb)
    radix["frame"][0] += 0.5
    edge = {"vertices": [[0], [1]], "edges": [[0, 1]]}
    coloring = {"graph": edge, "coloring": {"colors": [0, 1.5], "palette": 2}}
    return [(frac, "image values"), (ones, "image values"), (radix, "frame radices"), (coloring, "colors")]


def test_verify_rejects_non_integer_numbers(capsys, tmp_path):
    path = tmp_path / "doc.json"
    for doc, field in truncated_documents():
        path.write_text(json.dumps(doc))
        code, out, err, _ = run_main(capsys, ["verify", path])
        assert (code, out) == (2, ""), field
        assert len(err) == 1 and err[0].startswith(f"error: {field} must be JSON integers"), err
    path.write_text(json.dumps(embedding_doc()))
    code, out, _, _ = run_main(capsys, ["verify", path])
    assert (code, json.loads(out)) == (0, {"kind": "embedding", "ok": True})


# `otg embed --a 0,1 --b 1,2 --N 3` as written before embeddings named their source graph.
PARENT_FORMAT_EMBEDDING = {
    "cover": {"k": 2, "pieces": [{"blocks": [{"closed": False, "hi": 1, "lo": 0}, {"closed": False, "hi": 2, "lo": 1},
                                             {"closed": True, "hi": 2, "lo": 2}], "hi": 1, "k": 2, "kind": "A", "lo": 0}]},
    "frame": [2, 3, 5, 5],
    "images": [{"values": [15, 40]}, {"values": [15, 65]}, {"values": [40, 65]}],
    "pattern": {"n": 2, "ra": [0, 1], "rb": [1, 2]},
    "source": {"edges": [[0, 2]], "vertices": [[0, 1], [0, 2], [1, 2]]},
    "verified": True,
}


def test_verify_accepts_fresh_and_refuses_parent_format_embeddings(capsys, tmp_path):
    code, fresh, _, _ = run_main(capsys, ["embed", "--a", "0,1", "--b", "1,2", "--N", "3"])
    assert code == 0 and "source" not in json.loads(fresh)
    path = tmp_path / "doc.json"
    path.write_text(fresh)
    code, out, _, _ = run_main(capsys, ["verify", path])
    assert (code, json.loads(out)) == (0, {"kind": "embedding", "ok": True})
    path.write_text(json.dumps(PARENT_FORMAT_EMBEDDING))
    assert run_main(capsys, ["verify", path])[:3] == (2, "", ["error: embedding has no 'shift'"])


def forged_documents() -> list[tuple[str, dict]]:
    """Forged documents, each with what it forges."""
    a, b = (0, 1, 3), (1, 2, 4)
    emb = cover_embedding(a, b, orderly_cover(a, b), 4)
    named = emb.to_json()
    legacy = copy.deepcopy(named)
    del legacy["shift"]
    legacy["source"] = {**emb.source.to_json(), "edges": []}
    forged = [("legacy source without vertices", {**legacy, "source": {"vertices": [], "edges": []}})]
    forged.append(("legacy source without edges", legacy))
    for what, n in (("n off by one", named["shift"]["n"] + 1), ("n = 10**9", 10**9)):
        doc = copy.deepcopy(named)
        doc["shift"]["n"] = n
        forged.append((what, doc))
    for what, path, value in (("k = 1.5", ("k",), 1.5), ("closed = '12'", ("blocks", -1, "closed"), "12")):
        doc = decomposition_report((0, 1, 4), (2, 3, 6))
        node = doc["cover"]["pieces"][0]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        forged.append((what, doc))
    doc = decomposition_report((1, 2, 4), (2, 3, 6))
    doc["a"][0] = True
    forged.append(("a[0] = true", doc))
    return forged


def test_verify_refuses_forged_documents(capsys, tmp_path):
    path = tmp_path / "doc.json"
    for what, doc in forged_documents():
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err, _ = run_main(capsys, ["verify", path])
        assert time.perf_counter() - start < 1.0, what
        if code == 2:
            assert out == "" and len(err) == 1 and err[0].startswith("error: "), (what, err)
        else:
            assert code == 1 and json.loads(out)["ok"] is False, (what, code)
