from __future__ import annotations

import json
import subprocess
import sys

import pytest

from test_decompose import SPLIT_COVER

from otglab import LexFrame, graph_from_json, lshift_digraph, shift_graph
from otglab.cli import build_parser
from otglab.suite import POOL_MIN_CASES

RUN = [sys.executable, "-m", "otglab"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


def test_gen_sh_json_round_trip():
    res = run_cli("gen", "sh", "--r", "2", "--n", "5")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert graph_from_json(doc) == shift_graph(2, 5)


def test_gen_dot_output():
    res = run_cli("gen", "lsh", "--k", "2", "--n", "3", "--format", "dot")
    assert res.returncode == 0
    assert res.stdout.startswith("digraph")
    assert '"(0,1)" -> "(1,2)";' in res.stdout


def test_gen_otg_matches_shift():
    res = run_cli("gen", "otg", "--a", "0,1", "--b", "1,2", "--theta", "4")
    assert res.returncode == 0
    assert graph_from_json(json.loads(res.stdout)) == shift_graph(2, 4)


def test_gen_usage_error():
    res = run_cli("gen", "sh", "--r", "3", "--n", "2")
    assert res.returncode == 2


def test_chi_values():
    res = run_cli("chi", "--r", "2", "--n", "5")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["chi"] == 3
    assert len(doc["witness"]) == 10
    # greedy gives 3 colors and a 5-cycle forces 3: no search
    assert doc["nodes_explored"] == 0
    res = run_cli("chi", "--r", "2", "--n", "9")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["chi"] == 4
    assert doc["nodes_explored"] > 0


def test_chi_k6():
    res = run_cli("chi", "--r", "1", "--n", "6")
    assert json.loads(res.stdout)["chi"] == 6


def test_chi_from_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(shift_graph(2, 8).to_json()))
    res = run_cli("chi", "--input", str(path))
    assert res.returncode == 0
    assert json.loads(res.stdout)["chi"] == 3


def test_chi_budget_exit_code():
    res = run_cli("chi", "--r", "2", "--n", "8", "--budget", "1")
    assert res.returncode == 3
    doc = json.loads(res.stdout)
    assert doc["chi"] is None
    assert doc["lower"] <= doc["upper"]


def test_chi_negative_budget_is_usage_error():
    res = run_cli("chi", "--r", "2", "--n", "5", "--budget", "-3")
    assert res.returncode == 2
    assert res.stdout == ""
    assert len(res.stderr.strip().splitlines()) == 1


def test_chi_input_schema_errors_are_usage_errors(tmp_path):
    docs = [
        {"vertices": 5, "edges": []},
        {"edges": []},
        [1, 2],
        {"vertices": [0, 1], "edges": 5},
        {"vertices": "abc", "edges": [[0, 1], [1, 2], [0, 2]]},
        {"vertices": {"p": 1, "q": 2}, "edges": [[0, 1]]},
        {"vertices": [[0, 1], [0, 1], [0, 2]], "edges": [[0, 2]]},
        {"vertices": [0, "s", 2], "edges": [[0, 2]]},
    ]
    path = tmp_path / "graph.json"
    for doc in docs:
        path.write_text(json.dumps(doc))
        res = run_cli("chi", "--input", str(path))
        assert res.returncode == 2, doc
        assert "Traceback" not in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"vertices": [0, 1, 2], "edges": [[True, 2], [0, 1]]}, "edge endpoints must be JSON integers, got True"),
        ({"vertices": [0, 1, 2], "edges": [[1.0, 2], [0, 1]]}, "edge endpoints must be JSON integers, got 1.0"),
        ({"vertices": [0, 1], "arcs": [[0, True]]}, "arc endpoints must be JSON integers, got True"),
    ],
)
def test_chi_input_takes_only_json_integer_endpoints(tmp_path, doc, message):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    res = run_cli("chi", "--input", str(path))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.strip() == f"error: {message}"


def test_chi_missing_args():
    assert run_cli("chi").returncode == 2


def test_decompose_report():
    res = run_cli("decompose", "--a", "0,1", "--b", "1,2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["cover"]["k"] == 2
    assert len(doc["classes"]) == 1


def test_decompose_three_classes():
    res = run_cli("decompose", "--a", "0,2,4", "--b", "1,3,5")
    doc = json.loads(res.stdout)
    assert doc["cover"]["k"] == 1
    assert len(doc["classes"]) == 3


def test_decompose_equal_pair_is_usage_error():
    res = run_cli("decompose", "--a", "0,1", "--b", "0,1")
    assert res.returncode == 2
    assert "differ" in res.stderr


def test_embed_verified():
    res = run_cli("embed", "--a", "0,1", "--b", "1,2", "--N", "4")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["verified"] is True
    assert doc["frame"] == [2, 4, 5, 5]
    assert len(doc["images"]) == 6
    assert doc["cover"]["k"] == 2


def test_embed_clique_pattern():
    res = run_cli("embed", "--a", "0,2", "--b", "3,5", "--N", "5")
    doc = json.loads(res.stdout)
    assert doc["verified"] is True
    assert doc["cover"]["k"] == 1
    assert len(doc["images"]) == 5


def test_embed_equal_pair_errors():
    res = run_cli("embed", "--a", "0,1", "--b", "0,1", "--N", "3")
    assert res.returncode == 2


def test_embed_too_few_letters_is_usage_error():
    res = run_cli("embed", "--a", "0,1", "--b", "1,2", "--N", "2")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.strip().splitlines() == ["error: need more letters than the shift order: n = 2 <= k = 2"]


def test_embed_bad_tuple_syntax():
    res = run_cli("embed", "--a", "0,,1", "--b", "1,2", "--N", "4")
    assert res.returncode == 2


def test_suite_runs_clean():
    res = run_cli("suite", "--seed", "7", "--count", "30")
    assert res.returncode == 0
    assert "failures: 0" in res.stdout


def test_suite_count_zero():
    res = run_cli("suite", "--count", "0")
    assert res.returncode == 0
    assert "cases: 0" in res.stdout


def test_suite_byte_determinism():
    a = run_cli("suite", "--seed", "5", "--count", "25")
    b = run_cli("suite", "--seed", "5", "--count", "25")
    c = run_cli("suite", "--seed", "5", "--count", "25", "--workers", "4")
    assert a.stdout == b.stdout == c.stdout
    aj = run_cli("suite", "--seed", "5", "--count", "25", "--format", "json")
    bj = run_cli("suite", "--seed", "5", "--count", "25", "--format", "json", "--workers", "4")
    assert aj.stdout == bj.stdout


def test_suite_pooled_byte_determinism():
    # 100 cases start a pool of two workers; the determinism test above runs serially
    for fmt in ("table", "json"):
        one = run_cli("suite", "--seed", "5", "--count", "100", "--format", fmt)
        two = run_cli("suite", "--seed", "5", "--count", "100", "--format", fmt, "--workers", "2")
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout and two.stderr == ""


def test_workers_help_names_the_pool_threshold(capsys, monkeypatch):
    # the CLI imports suite only when a suite runs, so its help spells the threshold out
    monkeypatch.setenv("COLUMNS", "400")  # no option's help wraps
    with pytest.raises(SystemExit):
        build_parser().parse_args(["suite", "--help"])
    assert f"a pool starts only for --count >= {POOL_MIN_CASES}" in capsys.readouterr().out


def test_suite_sweep():
    res = run_cli("suite", "--seed", "7", "--count", "20", "--sweep")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["ok"] is True


def test_suite_max_len_above_tuple_cap_is_usage_error():
    # tuples longer than the package cap cannot be built, so no case may draw one
    for extra in ((), ("--sweep",)):
        res = run_cli("suite", "--max-len", "17", "--value-bound", "200", "--count", "100", *extra)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.strip().splitlines() == [
            "error: need 1 <= max_len <= 16 and value_bound >= 2, got max_len = 17, value_bound = 200"
        ]


def test_suite_sweep_negative_count_is_usage_error():
    res = run_cli("suite", "--sweep", "--count", "-2")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.strip().splitlines() == ["error: need count >= 0"]


def test_verify_embedding_document(tmp_path):
    res = run_cli("embed", "--a", "0,1", "--b", "1,2", "--N", "4")
    path = tmp_path / "emb.json"
    path.write_text(res.stdout)
    check = run_cli("verify", str(path))
    assert check.returncode == 0
    assert json.loads(check.stdout)["ok"] is True

    doc = json.loads(res.stdout)
    doc["images"][0]["values"] = doc["images"][1]["values"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    check2 = run_cli("verify", str(bad))
    assert check2.returncode == 1
    assert json.loads(check2.stdout)["ok"] is False


def test_verify_accepts_embedding_with_digit_images(tmp_path):
    # Embedding documents once carried each image in digit form as well; they still verify.
    res = run_cli("embed", "--a", "0,2", "--b", "1,3", "--N", "4")
    doc = json.loads(res.stdout)
    assert all(set(img) == {"values"} for img in doc["images"])
    frame = LexFrame(tuple(doc["frame"]))
    for img in doc["images"]:
        img["digits"] = [list(frame.decode(v)) for v in img["values"]]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    check = run_cli("verify", str(path))
    assert check.returncode == 0
    assert json.loads(check.stdout) == {"kind": "embedding", "ok": True}


def test_verify_cover_document(tmp_path):
    res = run_cli("decompose", "--a", "0,2,4", "--b", "1,3,5")
    path = tmp_path / "dec.json"
    path.write_text(res.stdout)
    check = run_cli("verify", str(path))
    assert check.returncode == 0


def test_verify_rejects_unseparated_cover(tmp_path):
    doc = json.loads(run_cli("decompose", "--a", "0,1", "--b", "1,2").stdout)
    doc["cover"] = SPLIT_COVER.to_json()
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    check = run_cli("verify", str(path))
    assert check.returncode == 1
    assert json.loads(check.stdout) == {"kind": "cover", "ok": False}


def test_verify_embedding_with_an_image_cut_short(tmp_path):
    doc = json.loads(run_cli("embed", "--a", "0,1,3,6", "--b", "2,4,5,7", "--N", "4").stdout)
    doc["images"][0]["values"].pop()
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    check = run_cli("verify", str(path))
    assert check.returncode == 2
    assert check.stderr.strip() == f"error: image 0 has 3 values, not the pattern's 4: {doc['images'][0]['values']}"


def test_verify_coloring_document(tmp_path):
    g = shift_graph(2, 5)
    chi = run_cli("chi", "--r", "2", "--n", "5")
    witness = json.loads(chi.stdout)["witness"]
    doc = {
        "graph": g.to_json(),
        "coloring": {"palette": max(witness) + 1, "colors": witness},
    }
    path = tmp_path / "col.json"
    path.write_text(json.dumps(doc))
    assert run_cli("verify", str(path)).returncode == 0

    doc["coloring"]["colors"] = [0] * len(witness)
    path.write_text(json.dumps(doc))
    assert run_cli("verify", str(path)).returncode == 1


def test_a_digraph_is_refused_by_chi_and_verify(tmp_path):
    g = lshift_digraph(2, 4)
    graph = tmp_path / "digraph.json"
    graph.write_text(json.dumps(g.to_json()))
    coloring = tmp_path / "col.json"
    coloring.write_text(json.dumps({"graph": g.to_json(), "coloring": {"palette": 1, "colors": [0] * g.n}}))
    for args, message in (
        (("chi", "--input", str(graph)), "chromatic number needs an undirected graph"),
        (("verify", str(coloring)), "colorings verify against undirected graphs"),
    ):
        res = run_cli(*args)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == f"error: {message}\n"


def test_verify_unknown_document(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"what": 1}))
    assert run_cli("verify", str(path)).returncode == 2


@pytest.mark.parametrize("command", [["verify"], ["chi", "--input"]])
@pytest.mark.parametrize("doc", [[1, 2], 5, "x", None])
def test_a_document_that_is_not_an_object_is_named(tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    res = run_cli(*command, str(path))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.strip() == f"error: document must be a JSON object, got {doc!r}"


def test_verify_schema_errors_are_usage_errors(tmp_path):
    emb = json.loads(run_cli("embed", "--a", "0,1", "--b", "1,2", "--N", "4").stdout)
    graph = shift_graph(2, 4).to_json()
    docs = [
        [1, 2],
        {"images": 5},
        dict(emb, frame=5),
        dict(emb, images=[{"values": 5}]),
        {"cover": {}, "a": [0], "b": [1]},
        {"cover": {"pieces": [], "k": 1}, "a": [[0]], "b": [1]},
        {"graph": 5, "coloring": {"palette": 1, "colors": [0]}},
        {"graph": graph, "coloring": {"colors": [0] * 6}},
        {"graph": {"vertices": {"p": 1, "q": 2}, "edges": [[0, 1]]}, "coloring": {"palette": 2, "colors": [0, 1]}},
    ]
    path = tmp_path / "doc.json"
    for doc in docs:
        path.write_text(json.dumps(doc))
        res = run_cli("verify", str(path))
        assert res.returncode == 2, doc
        assert "Traceback" not in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1


def test_verify_coloring_takes_only_json_integer_endpoints(tmp_path):
    # the endpoint true was once read as vertex 1, and the document verified
    doc = {
        "graph": {"vertices": [0, 1, 2], "edges": [[True, 2], [0, 1]]},
        "coloring": {"palette": 2, "colors": [0, 1, 0]},
    }
    path = tmp_path / "coloring.json"
    path.write_text(json.dumps(doc))
    res = run_cli("verify", str(path))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.strip() == "error: edge endpoints must be JSON integers, got True"


def test_verify_missing_file():
    assert run_cli("verify", "/no/such/file.json").returncode == 2


def test_verify_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("verify", str(path)).returncode == 2


def test_unknown_subcommand_is_usage_error():
    assert run_cli("frobnicate").returncode == 2
