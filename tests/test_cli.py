import hashlib
import itertools
import json
import random

import pytest

from leafpower import (
    InternalError,
    SimpleGraph,
    TocInstance,
    WeightedTree,
    build_gs,
    leaf_root_from_tree,
    toc_from_tree,
)
from leafpower import cli, recognition, reductions
from leafpower.cli import main

from conftest import random_weighted_tree


@pytest.fixture
def c4_path(tmp_path):
    g = SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    p = tmp_path / "c4.json"
    p.write_text(g.to_json())
    return str(p)


# the subcommands that write a DOT rendering under --emit-dot
DOT_COMMANDS = (
    "recognize", "k-leaf-power", "gen-gs", "make-leafroot", "extract-toc", "glp-step", "non-glp", "toc-realize"
)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_non_glp(capsys):
    code, out, _ = run(capsys, "non-glp", "2")
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 8


@pytest.mark.parametrize("q", ["9", "1000000000"])
def test_non_glp_over_cap_exits_3_at_once(capsys, monkeypatch, q):
    # the graph would have 2^(q+1) vertices; no doubling step is taken
    def no_step(graph):
        raise AssertionError("built a step of an over-cap graph")

    monkeypatch.setattr(reductions, "glp_step", no_step)
    code, out, err = run(capsys, "non-glp", q)
    assert code == 3 and out == "" and "cap of 8" in err


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

    c5 = SimpleGraph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
    c5_path = tmp_path / "c5.json"
    c5_path.write_text(c5.to_json())
    code, out, _ = run(capsys, "verify", str(c5_path), str(cert_path))
    assert code == 1
    body = json.loads(out)
    assert body["status"] == "FAIL" and "missing ['e']" in body["discrepancy"]


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


@pytest.mark.parametrize(
    "flag, value", [("--trees", "-5"), ("--trees", "0"), ("--leaves", "3"), ("--leaves", "-1")]
)
def test_fuzz_rejects_arguments_that_check_nothing(capsys, flag, value):
    code, out, err = run(capsys, "fuzz", "--seed", "1", flag, value)
    assert code == 2 and out == "" and flag in err


def test_fuzz_rejects_leaves_over_the_cap_before_any_tree(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_random_tree", lambda *args: pytest.fail("built a tree"))
    code, out, err = run(capsys, "fuzz", "--seed", "1", "--leaves", str(cli.FUZZ_LEAF_CAP + 1))
    assert code == 3 and out == "" and "--leaves" in err


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


@pytest.fixture
def drawing_runs(tmp_path, c4_path):
    """Arguments that give each subcommand taking --emit-dot an answer."""
    tree = WeightedTree([("c", "1", 2), ("c", "2", 3), ("c", "3", 7)], {x: x for x in "123"})
    toc = toc_from_tree(tree)
    files = {
        "p4.json": SimpleGraph("abcd", zip("abc", "bcd")).to_json(),
        "toc.txt": toc.to_text(),
        "tree.json": tree.to_json(),
        "root.json": leaf_root_from_tree(tree, toc).to_json(),
        "gadget.json": json.dumps(build_gs(toc).to_json_dict()),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    path = {name: str(tmp_path / name) for name in files}
    return {
        "recognize": [c4_path, "-q", "2"],
        "k-leaf-power": [path["p4.json"], "-k", "3"],
        "gen-gs": [path["toc.txt"]],
        "make-leafroot": [path["toc.txt"], path["tree.json"]],
        "extract-toc": [path["root.json"], path["gadget.json"]],
        "glp-step": [c4_path],
        "non-glp": ["1"],
        "toc-realize": [path["toc.txt"]],
    }


def test_emit_dot(capsys, tmp_path, drawing_runs):
    # the DOT file draws the tree or graph of the answer: one line per edge
    dot = tmp_path / "out.dot"
    for command in DOT_COMMANDS:
        code, out, _ = run(capsys, command, *drawing_runs[command], "--emit-dot", str(dot))
        assert code == 0, command
        body = json.loads(out)
        drawn = body.get("tree") or body.get("graph") or body
        text = dot.read_text()
        assert text.startswith("graph {") and text.endswith("}\n"), command
        assert text.count(" -- ") == len(drawn["edges"]), command
        dot.unlink()


def test_failed_dot_write_prints_no_answer(capsys, tmp_path, drawing_runs):
    # the DOT file is written before the JSON, so a write that fails leaves
    # stdout empty and exits 2
    dot = tmp_path / "missing" / "out.dot"
    for command in DOT_COMMANDS:
        code, out, err = run(capsys, command, *drawing_runs[command], "--emit-dot", str(dot))
        assert code == 2 and out == "" and "No such file or directory" in err, command
        assert not dot.exists()


@pytest.mark.parametrize("command", ["verify", "leaf-rank", "lift", "complement-cert", "check-4pc"])
def test_emit_dot_is_a_usage_error_where_nothing_is_rendered(capsys, tmp_path, c4_path, command):
    # these subcommands write no DOT, so the flag exits 2 instead of being
    # accepted and ignored; their inputs alone are valid
    _, cert_json, _ = run(capsys, "recognize", c4_path, "-q", "2")
    cert = tmp_path / "cert.json"
    cert.write_text(cert_json)
    matrix = tmp_path / "m.json"
    unit = [[str(int(i != j)) for j in range(4)] for i in range(4)]
    matrix.write_text(json.dumps({"points": list("abcd"), "distances": unit}))
    inputs = {
        "verify": [c4_path, str(cert)],
        "leaf-rank": [c4_path],
        "lift": [str(cert)],
        "complement-cert": [str(cert)],
        "check-4pc": [str(matrix)],
    }[command]
    assert run(capsys, command, *inputs)[0] in (0, 1)
    dot = tmp_path / "out.dot"
    assert run(capsys, command, *inputs, "--emit-dot", str(dot))[0] == 2
    assert not dot.exists()


def test_usage_errors(capsys, tmp_path):
    assert run(capsys, "recognize")[0] == 2  # missing args
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "recognize", str(bad), "-q", "1")[0] == 2
    assert run(capsys, "recognize", str(tmp_path / "nope.json"), "-q", "1")[0] == 2


def test_integer_vertex_names_exit_2(capsys, tmp_path):
    # leaf labels come back from JSON as strings, so a certificate for these
    # names would not verify against the graph it was made for
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}))
    code, out, err = run(capsys, "recognize", str(path), "-q", "1")
    assert code == 2 and out == "" and "not a string" in err


def test_recognize_large_q(capsys, monkeypatch, tmp_path):
    # q = 300 on 5 vertices searches at q = 11 and pads the certificate;
    # a q over the threshold cap exits 3 before any search
    vs = "abcde"
    path = tmp_path / "c5.json"
    path.write_text(SimpleGraph(vs, zip(vs, vs[1:] + vs[0])).to_json())
    code, out, _ = run(capsys, "recognize", str(path), "-q", "300")
    assert code == 0 and len(json.loads(out)["thresholds"]) == 300

    def no_search(graph, q):
        raise AssertionError("searched a graph at an over-cap q")

    monkeypatch.setattr(recognition, "_SearchPlan", no_search)
    cap = str(recognition.THRESHOLD_CAP + 1)
    code, out, err = run(capsys, "recognize", str(path), "-q", cap)
    assert code == 3 and out == "" and "threshold cap" in err


def test_capacity_exit_code(capsys, tmp_path):
    vs = [f"v{i}" for i in range(12)]
    g = SimpleGraph(vs)
    path = tmp_path / "big.json"
    path.write_text(g.to_json())
    assert run(capsys, "recognize", str(path), "-q", "1")[0] == 3


def test_max_leaves_above_topology_cap_fails_fast(capsys, tmp_path):
    vs = [f"v{i}" for i in range(10)]
    path = tmp_path / "p10.json"
    path.write_text(SimpleGraph(vs, zip(vs, vs[1:])).to_json())
    for args in (
        ("recognize", "-q", "1"),
        ("recognize", "-q", "2"),
        ("leaf-rank",),
        ("k-leaf-power", "-k", "3"),
    ):
        code, _, err = run(capsys, args[0], str(path), *args[1:], "--max-leaves", "12")
        assert code == 3 and "topology cap" in err


def test_make_leafroot_over_the_gadget_cap_exits_3(capsys, tmp_path):
    # a realizable order on one element more than the gadget cap
    n = reductions.GADGET_ELEMENT_CAP + 1
    tree = WeightedTree([("c", str(k), k) for k in range(1, n + 1)], {str(k): str(k) for k in range(1, n + 1)})
    toc_path, tree_path = tmp_path / "toc.txt", tmp_path / "tree.json"
    toc_path.write_text(toc_from_tree(tree).to_text())
    tree_path.write_text(tree.to_json())
    code, out, err = run(capsys, "make-leafroot", str(toc_path), str(tree_path))
    assert code == 3 and out == "" and "gadget cap" in err


def test_k_above_the_ceiling_exits_3_at_once(capsys, monkeypatch, tmp_path):
    def no_search(graph, q):
        raise AssertionError("the search ran")

    monkeypatch.setattr(recognition, "_SearchPlan", no_search)
    path = tmp_path / "p6.json"
    path.write_text(SimpleGraph("abcdef", list(zip("abcde", "bcdef"))).to_json())
    code, out, err = run(capsys, "k-leaf-power", str(path), "-k", "1000000")
    assert code == 3 and out == "" and "k ceiling" in err


def test_limits_below_one_are_usage_errors(capsys, c4_path):
    assert run(capsys, "recognize", c4_path, "-q", "2", "--max-leaves", "0")[0] == 2
    assert run(capsys, "k-leaf-power", c4_path, "-k", "2", "--max-leaves", "-1")[0] == 2
    assert run(capsys, "leaf-rank", c4_path, "--ceiling", "0")[0] == 2


def test_check_4pc_needs_four_points(capsys, tmp_path):
    for n_points, n_rows in ((3, 3), (5, 5), (4, 3)):
        points = "abcde"[:n_points]
        matrix = {
            "points": list(points),
            "distances": [["0" if a == b else "2" for b in points] for a in points][:n_rows],
        }
        path = tmp_path / f"m{n_points}{n_rows}.json"
        path.write_text(json.dumps(matrix))
        code, out, err = run(capsys, "check-4pc", str(path))
        assert code == 2 and out == "" and "exactly 4 points" in err


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(q):
        raise InternalError("self-check failed")

    monkeypatch.setattr(cli, "non_glp_family", broken)
    code, _, err = run(capsys, "non-glp", "2")
    assert code == 4
    assert "internal error" in err


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    # exit 1 is a valid negative answer; a crash must never read as one
    def broken(q):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "non_glp_family", broken)
    code, out, err = run(capsys, "non-glp", "2")
    assert code == 4 and out == ""
    assert "internal error" in err and "RuntimeError: boom" in err


@pytest.mark.parametrize("bad", ["1/0", "1e10000000"])
@pytest.mark.parametrize("command", ["verify", "make-leafroot", "check-4pc"])
def test_bad_rational_is_a_usage_error(capsys, tmp_path, c4_path, command, bad):
    # one case per loader: a certificate's thresholds, a tree's weights and
    # a distance matrix; each names the text and exits 2
    tree = WeightedTree([("c", "1", 2), ("c", "2", 3), ("c", "3", 7)], {x: x for x in "123"})
    if command == "verify":
        body = {"tree": tree.to_json_dict(), "thresholds": [bad]}
        args = (c4_path,)
    elif command == "make-leafroot":
        body = tree.to_json_dict()
        body["edges"][0][2] = bad
        toc_path = tmp_path / "toc.txt"
        toc_path.write_text(toc_from_tree(tree).to_text())
        args = (str(toc_path),)
    else:
        body = {"points": list("abcd"), "distances": [["0", bad, "1", "1"]] + [["1"] * 4] * 3}
        args = ()
    path = tmp_path / "input.json"
    path.write_text(json.dumps(body))
    code, out, err = run(capsys, command, *args, str(path))
    assert code == 2 and out == "" and repr(bad) in err


def test_rationals_as_strings(capsys, tmp_path):
    rng = random.Random(44)
    tree = random_weighted_tree(rng, 5)
    path = tmp_path / "t.json"
    path.write_text(tree.to_json())
    body = json.loads(path.read_text())
    for _, _, w in body["edges"]:
        assert isinstance(w, str)


def test_empty_graph_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": [], "edges": []}))
    for args in (
        ("recognize", "-q", "1"),
        ("recognize", "-q", "2"),
        ("leaf-rank",),
        ("k-leaf-power", "-k", "2"),
    ):
        code, out, err = run(capsys, args[0], str(path), *args[1:])
        assert code == 2 and out == "" and "at least 1 leaf" in err


# an order on four elements that no tree realizes
UNREALIZABLE_S4 = """elements: 1 2 3 4
1 2 3 : 2,3 < 1,2 < 1,3
1 2 4 : 1,4 < 1,2 < 2,4
1 3 4 : 3,4 < 1,4 < 1,3
2 3 4 : 2,4 < 2,3 < 3,4
"""

PINNED_STEPS = (
    # (argv, file that keeps its stdout for later steps)
    ("recognize c4.json -q 1", None),
    ("recognize c4.json -q 2", "cert.json"),
    ("recognize big.json -q 1", None),
    ("recognize bad.json -q 1", None),
    ("recognize nope.json -q 1", None),
    ("recognize", None),
    ("verify c4.json cert.json", None),
    ("verify k4.json cert.json", None),
    ("verify c5.json cert.json", None),
    ("verify c4.json cert.json --emit-dot out.dot", None),
    ("leaf-rank c4.json", None),
    ("leaf-rank p4.json", None),
    ("k-leaf-power c4.json -k 2", None),
    ("k-leaf-power p4.json -k 3", None),
    ("gen-gs toc.txt", "gadget.json"),
    ("gen-gs flipped.txt", "flipped_gadget.json"),
    ("make-leafroot toc.txt tree.json", "root.json"),
    ("extract-toc root.json gadget.json", None),
    ("extract-toc root.json flipped_gadget.json", None),
    ("lift cert.json", None),
    ("complement-cert cert.json", None),
    ("glp-step c4.json", None),
    ("non-glp 1", None),
    ("non-glp 9", None),
    ("check-4pc unit.json", None),
    ("check-4pc violation.json", None),
    ("check-4pc three.json", None),
    ("toc-realize toc.txt", None),
    ("toc-realize unrealizable.txt", None),
    ("fuzz --seed 7 --trees 5", None),
    ("fuzz --seed 7 --leaves 25", None),
    *((f"{command} -h", None) for command in (
        "verify", "recognize", "leaf-rank", "k-leaf-power", "gen-gs", "make-leafroot", "extract-toc",
        "lift", "complement-cert", "glp-step", "non-glp", "check-4pc", "toc-realize", "fuzz",
    )),
)


def test_outputs_are_pinned(capsys, monkeypatch, tmp_path):
    # one sha256 over (argv, exit code, stdout, stderr, DOT text) of every
    # subcommand on fixed inputs, with and without --emit-dot where it is
    # offered: answers, NONE, FAIL, capacity (3) and usage (2) paths, and
    # each help text; the usage and error texts are those of Python 3.11's
    # argparse and json, and argparse wraps its usage lines to COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    tree = WeightedTree([("c", "1", 2), ("c", "2", 3), ("c", "3", 7)], {x: x for x in "123"})
    toc = toc_from_tree(tree)
    flipped = TocInstance(toc.elements, {t: order[::-1] for t, order in toc.triple_orders.items()})
    unit = [[str(int(i != j)) for j in range(4)] for i in range(4)]
    skew = [["0", "1", "1415/1000", "1"], ["1", "0", "1", "1415/1000"],
            ["1415/1000", "1", "0", "1"], ["1", "1415/1000", "1", "0"]]
    inputs = {
        "c4.json": SimpleGraph("abcd", zip("abcd", "bcda")).to_json(),
        "c5.json": SimpleGraph("abcde", zip("abcde", "bcdea")).to_json(),
        "k4.json": SimpleGraph("abcd", itertools.combinations("abcd", 2)).to_json(),
        "p4.json": SimpleGraph("abcd", zip("abc", "bcd")).to_json(),
        "big.json": SimpleGraph([f"v{i}" for i in range(12)]).to_json(),
        "bad.json": "{not json",
        "tree.json": tree.to_json(),
        "toc.txt": toc.to_text(),
        "flipped.txt": flipped.to_text(),
        "unrealizable.txt": UNREALIZABLE_S4,
        "unit.json": json.dumps({"points": list("abcd"), "distances": unit}),
        "violation.json": json.dumps({"points": list("abcd"), "distances": skew}),
        "three.json": json.dumps({"points": list("abc"), "distances": unit[:3]}),
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    dot = tmp_path / "out.dot"
    digest = hashlib.sha256()
    for line, keep in PINNED_STEPS:
        words = line.split()
        runs = [words, words + ["--emit-dot", "out.dot"]] if words[0] in DOT_COMMANDS else [words]
        for argv in runs:
            code, out, err = run(capsys, *(str(tmp_path / w) if "." in w else w for w in argv))
            drawn = dot.read_text() if dot.exists() else ""
            dot.unlink(missing_ok=True)
            record = [argv, code, out, err.replace(str(tmp_path), "<tmp>"), drawn]
            digest.update(json.dumps(record).encode())
        if keep:
            (tmp_path / keep).write_text(out)
    assert digest.hexdigest() == "6c766ba6c86e6084322bc79e3e45e1924b5e0fce63bdb8e1a2bf9884445e4668"
