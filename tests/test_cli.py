import json
from pathlib import Path

import pytest

from orbicover import cli, coxeter, covers, orbicore, serialize
from orbicover.serialize import (
    covering_map_from_json,
    covering_map_to_json,
    defining_graph_from_json,
    defining_graph_to_json,
    marked_graph_from_json,
    marked_graph_to_json,
    orbicomplex_from_json,
    orbicomplex_to_json,
    presentation_from_json,
    presentation_to_json,
)


# ---------------------------------------------------------------------------
# round trips


def test_defining_graph_roundtrip():
    g = coxeter.demo_defining_graph()
    assert defining_graph_from_json(defining_graph_to_json(g)) == g


def test_presentation_roundtrip():
    pres = coxeter.racg_presentation(coxeter.demo_defining_graph())
    assert presentation_from_json(presentation_to_json(pres)) == pres


def test_marked_graph_roundtrip(chain):
    g = orbicore.singular_subspace(chain.base)
    back = marked_graph_from_json(json.loads(json.dumps(marked_graph_to_json(g))))
    assert back == g


def test_orbicomplex_roundtrips(chain):
    for c in (chain.base, chain.cover1, chain.cover2, chain.y, chain.y_hat):
        data = json.loads(serialize.dumps(orbicomplex_to_json(c)))
        assert orbicomplex_from_json(data) == c


def test_covering_map_roundtrip(chain):
    f = chain.map1
    data = json.loads(serialize.dumps(covering_map_to_json(f)))
    back = covering_map_from_json(data)
    assert back.degree == f.degree
    assert back.source == f.source
    assert back.target == f.target
    assert back.edge_map == f.edge_map
    assert back.piece_map == f.piece_map
    assert back.segment_map == f.segment_map
    assert back.cone_fibers == f.cone_fibers
    assert covers.verify_covering(back).passed


def test_schema_error_on_garbage():
    with pytest.raises(serialize.SchemaError):
        defining_graph_from_json({"nope": []})


# ---------------------------------------------------------------------------
# command surface


@pytest.fixture()
def demo_graph_file(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(serialize.dumps(defining_graph_to_json(coxeter.demo_defining_graph())))
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


def test_cmd_racg(demo_graph_file, capsys):
    code = run_cli("racg", demo_graph_file)
    out = capsys.readouterr().out
    assert code == 0
    assert "generators: 25" in out
    assert "one-ended: true" in out


def test_cmd_racg_triangle_exits_three(tmp_path, capsys):
    g = coxeter.DefiningGraph.from_edges(
        ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]
    )
    path = tmp_path / "k3.json"
    path.write_text(serialize.dumps(defining_graph_to_json(g)))
    code = run_cli("racg", str(path))
    out = capsys.readouterr().out
    assert code == 3
    assert "one-ended: false" in out


@pytest.mark.parametrize("cmd", ["racg", "davis"])
@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        # K_{2,3} with integer ids: davis used to exit 0 with an unreadable complex
        '{"vertices": [0, 1, 2, 3, 4], '
        '"edges": [[0, 2], [2, 1], [0, 3], [3, 1], [0, 4], [4, 1]]}',
        # mixed ids used to exit 1 with "TypeError: '<' not supported"
        '{"vertices": [1, "a", "b"], "edges": []}',
        '{"vertices": [true, false], "edges": []}',
    ],
    ids=["not-json", "integer-ids", "mixed-ids", "boolean-ids"],
)
def test_cmd_parse_error(tmp_path, capsys, cmd, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run_cli(cmd, str(path)) == 2
    assert "parse error:" in capsys.readouterr().err


def test_cmd_davis_triangle_exits_three(tmp_path, capsys):
    verts = ["a", "b", "c", "d"]
    g = coxeter.DefiningGraph.from_edges(
        verts, [(x, y) for i, x in enumerate(verts) for y in verts[i + 1:]]
    )
    path = tmp_path / "k4.json"
    path.write_text(serialize.dumps(defining_graph_to_json(g)))
    assert run_cli("davis", str(path)) == 3
    assert "precondition failed" in capsys.readouterr().err


def _demo_complex_json() -> dict:
    return orbicomplex_to_json(coxeter.davis_orbicomplex(coxeter.demo_defining_graph()))


def _kind_typo(data):
    data["pieces"][0]["boundary"][0][1] = "mirorr"


def _last_segment_minus_one(data):
    pid = data["pieces"][0]["id"]
    last = max((a for a in data["attachments"] if a["piece"] == pid), key=lambda a: a["segment"])
    last["segment"] = -1


def _circle_minus_one(data):
    data["attachments"][0]["circle"] = -1


def test_cmd_euler_unknown_segment_kind_exits_three(tmp_path, capsys):
    # a negative index must not alias the last segment or circle
    for mutate, violation in (
        (_kind_typo, "UnknownSegmentKind"),
        (_last_segment_minus_one, "UnknownSegment:"),
        (_circle_minus_one, "UnknownSegment:"),
    ):
        data = _demo_complex_json()
        mutate(data)
        path = tmp_path / "typo.json"
        path.write_text(serialize.dumps(data))
        assert run_cli("euler", str(path)) == 3, mutate.__name__
        assert violation in capsys.readouterr().err, mutate.__name__


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("pieces", 0, "genus"), "x", "expected an integer"),
        (("pieces", 0, "cones"), [2.5], "expected an integer"),
        (("pieces", 0, "boundary"), "free", "expected a list"),
        (("attachments", 0), 5, "expected an object"),
        (("graph", "edges", 0, "ends"), 5, "expected a list"),
        (("pieces", 0, "id"), ["x"], "expected a string"),
        (("attachments", 0, "edge"), {"a": 1}, "expected a string"),
    ],
    ids=[
        "genus-string", "cone-float", "boundary-string", "attachment-number", "ends-number",
        "piece-id-list", "attachment-edge-object",
    ],
)
def test_cmd_euler_malformed_field_exits_two(tmp_path, capsys, path, value, message):
    data = _demo_complex_json()
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    node[last] = value
    bad_file = tmp_path / "bad_field.json"
    bad_file.write_text(serialize.dumps(data))
    assert run_cli("euler", str(bad_file)) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and message in err


def test_cmd_davis_then_euler(demo_graph_file, tmp_path, capsys):
    out_file = tmp_path / "davis.json"
    assert run_cli("davis", demo_graph_file, "--out", str(out_file)) == 0
    assert run_cli("euler", str(out_file)) == 0
    assert capsys.readouterr().out.strip() == "-9/2"


def test_cmd_singular_dot(demo_graph_file, tmp_path, capsys):
    out_file = tmp_path / "davis.json"
    run_cli("davis", demo_graph_file, "--out", str(out_file))
    assert run_cli("singular", str(out_file), "--dot") == 0
    out = capsys.readouterr().out
    assert out.startswith("graph")
    assert "x4" in out


def test_cmd_pi1_ab(demo_graph_file, tmp_path, capsys):
    out_file = tmp_path / "davis.json"
    run_cli("davis", demo_graph_file, "--out", str(out_file))
    assert run_cli("pi1", str(out_file), "--ab") == 0
    out = capsys.readouterr().out
    assert out.count("Z/2") == 25


def test_cmd_verify_pass_and_fail(chain, tmp_path, capsys):
    cover_file = tmp_path / "cover.json"
    cover_file.write_text(serialize.dumps(covering_map_to_json(chain.map1)))
    assert run_cli("verify", str(cover_file)) == 0
    assert "PASS" in capsys.readouterr().out

    data = json.loads(cover_file.read_text())
    pid = next(iter(data["piece_map"]))
    data["piece_map"][pid][1] = 3
    bad_file = tmp_path / "bad_cover.json"
    bad_file.write_text(serialize.dumps(data))
    assert run_cli("verify", str(bad_file)) == 4
    assert "FAIL" in capsys.readouterr().out

    # negative indices must not alias the last circle, segment or cone
    for mutate, code, message in (
        (_step_circle_minus_one, 4, "out of range"),
        (_cone_preimage_minus_one, 4, "bad token"),
        (_cone_key_minus_one, 3, "cone_fibers key"),
    ):
        data = json.loads(serialize.dumps(covering_map_to_json(chain.map2)))
        mutate(data)
        bad_file.write_text(serialize.dumps(data))
        assert run_cli("verify", str(bad_file)) == code, mutate.__name__
        captured = capsys.readouterr()
        assert message in captured.out + captured.err, mutate.__name__


def _step_circle_minus_one(data):
    data["segment_map"][0]["steps"][0][0] = -1


def _cone_preimage_minus_one(data):
    """Write a cone preimage with index -1 in place of its piece's last cone."""
    cones = {p["id"]: len(p["cones"]) for p in data["source"]["pieces"]}
    for entry in data["cone_fibers"]:
        for tok in entry["preimages"]:
            if tok[0] == "cone" and tok[2] == cones[tok[1]] - 1:
                tok[2] = -1
                return
    raise AssertionError("no cone preimage at a last index")


def _cone_key_minus_one(data):
    data["cone_fibers"][-1]["cone"] = -1


@pytest.mark.parametrize("case", ["piece-map-number", "segment-without-steps"])
def test_cmd_verify_malformed_map_exits_two(chain, tmp_path, capsys, case):
    data = json.loads(serialize.dumps(covering_map_to_json(chain.map1)))
    if case == "piece-map-number":
        data["piece_map"][next(iter(data["piece_map"]))] = 5
    else:
        del data["segment_map"][0]["steps"]
    bad_file = tmp_path / "bad_cover.json"
    bad_file.write_text(serialize.dumps(data))
    assert run_cli("verify", str(bad_file)) == 2
    assert capsys.readouterr().err.startswith("parse error:")


def test_cmd_covers_enumeration(chain, tmp_path, capsys):
    cx_file = tmp_path / "cover1.json"
    cx_file.write_text(serialize.dumps(orbicomplex_to_json(chain.cover1)))
    assert run_cli("covers", str(cx_file)) == 0
    assert "3 connected double covers" in capsys.readouterr().out


def test_cmd_covers_precondition(chain, tmp_path, capsys):
    cx_file = tmp_path / "base.json"
    cx_file.write_text(serialize.dumps(orbicomplex_to_json(chain.base)))
    assert run_cli("covers", str(cx_file)) == 3


def test_cmd_compare_pair(chain, tmp_path, capsys):
    a = tmp_path / "y.json"
    b = tmp_path / "z.json"
    a.write_text(serialize.dumps(orbicomplex_to_json(chain.y)))
    b.write_text(serialize.dumps(orbicomplex_to_json(chain.z)))
    assert run_cli("compare", str(a), str(b)) == 0
    out = capsys.readouterr().out
    assert "singular subspaces isomorphic: no" in out
    assert "homotopy certificate: present" in out
    assert "not homeomorphic" in out


def test_cmd_compare_with_rotation_file(chain, tmp_path, capsys):
    a = tmp_path / "y.json"
    b = tmp_path / "z.json"
    a.write_text(serialize.dumps(orbicomplex_to_json(chain.y)))
    b.write_text(serialize.dumps(orbicomplex_to_json(chain.z)))
    rotations = tmp_path / "rot.json"
    rotations.write_text(
        serialize.dumps(
            {
                "a": serialize.rotation_to_json(chain.y.rotation),
                "b": serialize.rotation_to_json(chain.z.rotation),
            }
        )
    )
    assert run_cli("compare", str(a), str(b), "--rotations", str(rotations)) == 0
    assert "homotopy certificate: present" in capsys.readouterr().out

    rotations.write_text("[1, 2]")
    assert run_cli("compare", str(a), str(b), "--rotations", str(rotations)) == 2
    assert capsys.readouterr().err.startswith("parse error: rotations: expected an object")


def test_cmd_paper_demo_json_deterministic(tmp_path):
    f1 = tmp_path / "r1.json"
    f2 = tmp_path / "r2.json"
    assert run_cli("paper-demo", "--json", "--out", str(f1)) == 0
    assert run_cli("paper-demo", "--json", "--out", str(f2)) == 0
    assert f1.read_text() == f2.read_text()
    golden = Path(__file__).resolve().parents[1] / "bench" / "golden" / "demo_report.json"
    assert f1.read_text() == golden.read_text(encoding="utf-8")
    report = json.loads(f1.read_text())
    assert "timings" not in report
    assert report["stages"]["pair_search"]["pairs_found"] >= 1


def test_cmd_paper_demo_text(capsys):
    assert run_cli("paper-demo") == 0
    out = capsys.readouterr().out
    assert "all stages passed" in out
