import itertools
import json
import random

import pytest

from leafpower import InternalError, SimpleGraph, WeightedTree, toc_from_tree
from leafpower import cli
from leafpower.cli import main

from conftest import random_weighted_tree


@pytest.fixture
def c4_path(tmp_path):
    g = SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    p = tmp_path / "c4.json"
    p.write_text(g.to_json())
    return str(p)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_non_glp(capsys):
    code, out, _ = run(capsys, "non-glp", "2")
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 8


def test_recognize_none_vs_cert(capsys, c4_path):
    code, out, _ = run(capsys, "recognize", c4_path, "-q", "1")
    assert code == 1
    assert json.loads(out) == {"result": "NONE"}
    code, out, _ = run(capsys, "recognize", c4_path, "-q", "2")
    assert code == 0
    assert "thresholds" in json.loads(out)


def test_verify_pass_and_fail(capsys, tmp_path, c4_path):
    code, cert_json, _ = run(capsys, "recognize", c4_path, "-q", "2")
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(cert_json)
    code, out, _ = run(capsys, "verify", c4_path, str(cert_path))
    assert code == 0 and json.loads(out)["status"] == "PASS"

    k4 = SimpleGraph("abcd", itertools.combinations("abcd", 2))
    k4_path = tmp_path / "k4.json"
    k4_path.write_text(k4.to_json())
    code, out, _ = run(capsys, "verify", str(k4_path), str(cert_path))
    assert code == 1
    body = json.loads(out)
    assert body["status"] == "FAIL" and "edge" in body["discrepancy"]


def test_leaf_rank(capsys, tmp_path):
    p3 = SimpleGraph("abc", [("a", "b"), ("b", "c")])
    path = tmp_path / "p3.json"
    path.write_text(p3.to_json())
    code, out, _ = run(capsys, "leaf-rank", str(path))
    assert code == 0
    assert json.loads(out)["leaf_rank"] == 3


def test_pipeline_toc_to_verified_cert(capsys, tmp_path):
    tree = WeightedTree(
        [("c", "1", 2), ("c", "2", 3), ("c", "3", 7)], {x: x for x in "123"}
    )
    toc = toc_from_tree(tree)
    toc_path = tmp_path / "toc.txt"
    toc_path.write_text(toc.to_text())

    code, out, _ = run(capsys, "toc-realize", str(toc_path))
    assert code == 0
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(out)

    code, out, _ = run(capsys, "make-leafroot", str(toc_path), str(tree_path))
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)

    code, out, _ = run(capsys, "gen-gs", str(toc_path))
    assert code == 0
    gadget = json.loads(out)
    gadget_path = tmp_path / "gs.json"
    gadget_path.write_text(out)
    graph_path = tmp_path / "gs_graph.json"
    graph_path.write_text(json.dumps(gadget["graph"]))

    code, out, _ = run(capsys, "verify", str(graph_path), str(cert_path))
    assert code == 0 and json.loads(out)["status"] == "PASS"

    code, out, _ = run(capsys, "extract-toc", str(cert_path), str(gadget_path))
    assert code == 0
    extracted = WeightedTree.from_json(out)
    assert toc.realized_by(extracted)


def test_check_4pc_violation(capsys, tmp_path):
    matrix = {
        "points": ["a", "b", "c", "d"],
        "distances": [
            ["0", "1", "1415/1000", "1"],
            ["1", "0", "1", "1415/1000"],
            ["1415/1000", "1", "0", "1"],
            ["1", "1415/1000", "1", "0"],
        ],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    code, out, _ = run(capsys, "check-4pc", str(path))
    assert code == 1
    assert json.loads(out)["case"] == "VIOLATION"


def test_fuzz_deterministic(capsys):
    code1, out1, _ = run(capsys, "fuzz", "--seed", "99", "--trees", "30")
    code2, out2, _ = run(capsys, "fuzz", "--seed", "99", "--trees", "30")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["violations"] == 0


def test_lift_and_complement_round_trip(capsys, tmp_path, c4_path):
    _, cert_json, _ = run(capsys, "recognize", c4_path, "-q", "2")
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(cert_json)
    code, out, _ = run(capsys, "lift", str(cert_path))
    assert code == 0
    assert len(json.loads(out)["thresholds"]) == 3
    code, out, _ = run(capsys, "complement-cert", str(cert_path))
    assert code == 0
    assert len(json.loads(out)["thresholds"]) == 3


def test_glp_step(capsys, tmp_path, c4_path):
    code, out, _ = run(capsys, "glp-step", c4_path)
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 8


def test_emit_dot(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, _, _ = run(capsys, "non-glp", "1", "--emit-dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("graph {")


def test_usage_errors(capsys, tmp_path):
    assert run(capsys, "recognize")[0] == 2  # missing args
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "recognize", str(bad), "-q", "1")[0] == 2
    assert run(capsys, "recognize", str(tmp_path / "nope.json"), "-q", "1")[0] == 2


def test_capacity_exit_code(capsys, tmp_path):
    vs = [f"v{i}" for i in range(12)]
    g = SimpleGraph(vs)
    path = tmp_path / "big.json"
    path.write_text(g.to_json())
    assert run(capsys, "recognize", str(path), "-q", "1")[0] == 3


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(args):
        raise InternalError("self-check failed")

    monkeypatch.setattr(cli, "_cmd_non_glp", broken)
    code, _, err = run(capsys, "non-glp", "2")
    assert code == 4
    assert "internal error" in err


def test_rationals_as_strings(capsys, tmp_path):
    rng = random.Random(44)
    tree = random_weighted_tree(rng, 5)
    path = tmp_path / "t.json"
    path.write_text(tree.to_json())
    body = json.loads(path.read_text())
    for _, _, w in body["edges"]:
        assert isinstance(w, str)
