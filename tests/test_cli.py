import json
from dataclasses import replace
from pathlib import Path

import pytest

from orbicover import cli, coxeter, covers, invariants, orbicore, pipeline, serialize
from orbicover.serialize import (
    covering_map_from_json,
    covering_map_to_json,
    defining_graph_from_json,
    marked_graph_from_json,
    marked_graph_to_json,
    orbicomplex_from_json,
    orbicomplex_to_json,
)

from helpers import defining_graph_to_json


# ---------------------------------------------------------------------------
# round trips


def test_defining_graph_roundtrip():
    g = coxeter.demo_defining_graph()
    assert defining_graph_from_json(defining_graph_to_json(g)) == g


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
        # undecodable bytes and deep nesting used to exit 1 with a traceback
        b"\xff\xfe{}",
        b"[" * 200_000,
        # "loop at 'a'" and "edge ('a', 'z') has unknown endpoint"
        '{"vertices": ["a", "b"], "edges": [["a", "a"]]}',
        '{"vertices": ["a"], "edges": [["a", "z"]]}',
    ],
    ids=[
        "not-json", "integer-ids", "mixed-ids", "boolean-ids", "not-utf8", "deep-nesting",
        "loop-edge", "unknown-endpoint",
    ],
)
def test_cmd_parse_error(tmp_path, capsys, cmd, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert run_cli(cmd, str(path)) == 2
    assert "parse error:" in capsys.readouterr().err


def test_cmd_racg_json(demo_graph_file, capsys):
    assert run_cli("racg", demo_graph_file, "--json") == 0
    g = coxeter.demo_defining_graph()
    assert json.loads(capsys.readouterr().out) == {
        "presentation": serialize.presentation_to_json(coxeter.racg_presentation(g)),
        "branches": [list(b.path) for b in coxeter.branch_decomposition(g)],
        "branch_error": None,
        "one_ended": coxeter.one_endedness_check(g),
    }


def test_cmd_racg_json_disconnected_exits_three(tmp_path, capsys):
    g = coxeter.DefiningGraph.from_edges(["a", "b", "c"], [("a", "b")])
    path = tmp_path / "split.json"
    path.write_text(serialize.dumps(defining_graph_to_json(g)))
    assert run_cli("racg", str(path), "--json") == 3
    out = json.loads(capsys.readouterr().out)
    assert out["branches"] == []
    assert out["branch_error"] == "graph is not connected"


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


def _empty_circle(data):
    data["pieces"].append({"id": "empty", "boundary": [[]]})


def _negative_genus(data):
    data["pieces"][0]["genus"] = -1


def _mirrored_genus_one(data):
    data["pieces"][0]["genus"] = 1


def _mirrored_second_circle(data):
    data["pieces"][0]["boundary"].append(["free"])


def test_cmd_euler_unknown_segment_kind_exits_three(tmp_path, capsys):
    # a negative index must not alias the last segment or circle
    for mutate, violation in (
        (_kind_typo, "UnknownSegmentKind"),
        (_last_segment_minus_one, "UnknownSegment:"),
        (_circle_minus_one, "UnknownSegment:"),
        (_empty_circle, "EmptyBoundaryCircle"),
        (_negative_genus, "NegativeGenus"),
        (_mirrored_genus_one, "MirrorOnPositiveGenus"),
        (_mirrored_second_circle, "MirrorMultiCircle"),
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
        # a callable value rewrites the field; repeated entries used to be
        # read silently, the last one winning
        (("graph", "vertices"), lambda vs: [{"id": "w.v1", "mark": None}] + vs,
         "repeated vertex id 'w.v1'"),
        (("graph", "vertices"), lambda vs: vs + [{"id": "w.v1", "mark": None}],
         "repeated vertex id 'w.v1'"),
        (("graph", "edges"), lambda es: [{"id": "e.v1", "ends": ["hub", "hub"]}] + es,
         "repeated edge id 'e.v1'"),
        (("attachments",), lambda ats: ats + [{**ats[0], "direction": -ats[0]["direction"]}],
         "repeated attachment"),
    ],
    ids=[
        "genus-string", "cone-float", "boundary-string", "attachment-number", "ends-number",
        "piece-id-list", "attachment-edge-object", "plain-wall-vertex-first",
        "plain-wall-vertex-last", "repeated-edge-id", "repeated-attachment",
    ],
)
def test_cmd_euler_malformed_field_exits_two(tmp_path, capsys, path, value, message):
    data = _demo_complex_json()
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    node[last] = value(node[last]) if callable(value) else value
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


def test_cmd_pi1_ab_prints_the_free_rank(chain, tmp_path, capsys):
    path = tmp_path / "y_hat.json"
    path.write_text(serialize.dumps(orbicomplex_to_json(chain.y_hat)))
    assert run_cli("pi1", str(path), "--ab") == 0
    assert capsys.readouterr().out == "Z^152\n"


@pytest.mark.parametrize("name", ["base", "y"])
def test_cmd_pi1_matches_golden(chain, tmp_path, capsys, name):
    # the generator and relator names and their order are output contract
    path = tmp_path / f"{name}.json"
    path.write_text(serialize.dumps(orbicomplex_to_json(getattr(chain, name))))
    assert run_cli("pi1", str(path)) == 0
    golden = Path(__file__).resolve().parent / "golden" / f"pi1_{name}.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, needed",
    [(["pi1", "input.json", "--json"], "--json needs --ab"),
     (["paper-demo", "--timings"], "--timings needs --json")],
    ids=["pi1-json", "paper-demo-timings"],
)
def test_flag_refused_without_the_flag_it_needs(argv, needed, capsys):
    # each used to print the same bytes as without the flag
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(needed) and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["racg", "g"], ["pi1", "c"], ["verify", "f"], ["covers", "c"], ["compare", "a", "b"], ["paper-demo"]],
    ids=lambda argv: argv[0],
)
def test_json_flag_on_the_commands_that_read_it(argv):
    assert cli.build_parser().parse_args([*argv, "--json"]).json is True


@pytest.mark.parametrize("cmd", ["davis", "euler", "singular"])
def test_json_flag_refused_where_nothing_reads_it(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(cmd, "input.json", "--json")
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_cmd_unwritable_out_exits_two(demo_graph_file, tmp_path, capsys):
    # used to die with a FileNotFoundError traceback (exit 1)
    out_file = tmp_path / "davis.json"
    run_cli("davis", demo_graph_file, "--out", str(out_file))
    missing = tmp_path / "nonexistent" / "x.txt"
    capsys.readouterr()
    assert run_cli("euler", str(out_file), "--out", str(missing)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {missing}: ")
    assert captured.err.count("\n") == 1


def test_cmd_pi1_json(chain, tmp_path, capsys):
    # the presentation is printed as generators and [generator, exponent] relators
    path = tmp_path / "y.json"
    path.write_text(serialize.dumps(orbicomplex_to_json(chain.y)))
    assert run_cli("pi1", str(path)) == 0
    pres = invariants.fundamental_group_presentation(chain.y)
    assert json.loads(capsys.readouterr().out) == {
        "generators": list(pres.generators),
        "relators": [[[g, e] for g, e in rel] for rel in pres.relators],
    }


def test_cmd_pi1_ab_json(chain, tmp_path, capsys):
    path = tmp_path / "base.json"
    path.write_text(serialize.dumps(orbicomplex_to_json(chain.base)))
    assert run_cli("pi1", str(path), "--ab", "--json") == 0
    ab = invariants.abelianization(invariants.fundamental_group_presentation(chain.base))
    assert json.loads(capsys.readouterr().out) == serialize.abelian_invariants_to_json(ab)


def test_cmd_pi1_mirrored_piece_with_a_cone_exits_three(tmp_path, capsys):
    piece = orbicore.Piece("p", 0, ((orbicore.FREE, orbicore.MIRROR, orbicore.FREE),), (2,))
    path = tmp_path / "cone_polygon.json"
    path.write_text(serialize.dumps(orbicomplex_to_json(orbicore.Orbicomplex(pieces=[piece]))))
    assert run_cli("pi1", str(path)) == 3
    assert capsys.readouterr().err == (
        "precondition failed: piece p: presentations of mirrored pieces with cones are not supported\n"
    )


def _verify_json(f, tmp_path, capsys):
    path = tmp_path / "cover.json"
    path.write_text(serialize.dumps(covering_map_to_json(f)))
    code = run_cli("verify", str(path), "--json")
    return code, json.loads(capsys.readouterr().out)


def test_cmd_verify_json(chain, tmp_path, capsys):
    code, out = _verify_json(chain.map1, tmp_path, capsys)
    assert code == 0
    assert out == serialize.cover_report_to_json(covers.verify_covering(chain.map1))
    assert out["passed"] is True and out["degree"] == 2

    f2 = chain.map2
    key = ("v1-v2-0.01", 0)
    dropped = replace(f2, cone_fibers={**f2.cone_fibers, key: f2.cone_fibers[key][1:]})
    code, out = _verify_json(dropped, tmp_path, capsys)
    assert code == 4
    assert out["passed"] is False
    assert out == serialize.cover_report_to_json(covers.verify_covering(dropped))


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
        (_segment_key_circle_five, 3, "segment_map key"),
        (_source_empty_circle, 3, "EmptyBoundaryCircle"),
        # references the target lacks: refused as the map is built
        (_vertex_image_ghost, 3, "precondition failed: vertex_map 'hub.0.0' -> 'ghost'"),
        (_edge_image_ghost, 3, "precondition failed: edge_map 'c.w.v1.0' -> 'ghost'"),
        (_piece_image_ghost, 3, "precondition failed: piece_map 'v1-v2-0.01.0' -> 'ghost'"),
    ):
        data = json.loads(serialize.dumps(covering_map_to_json(chain.map2)))
        mutate(data)
        bad_file.write_text(serialize.dumps(data))
        assert run_cli("verify", str(bad_file)) == code, mutate.__name__
        captured = capsys.readouterr()
        assert message in captured.out + captured.err, mutate.__name__


def test_cmd_verify_step_direction_other_than_one_exits_four(tmp_path, capsys):
    # a reflection double whose -1 segment steps read -7 used to verify
    _piece, f = covers.reflection_double(coxeter.branch_polygon(coxeter.Branch(("a", "b", "c", "d", "e"))))
    data = covering_map_to_json(f)
    for entry in data["segment_map"]:
        entry["steps"] = [[ci, si, -7 if d == -1 else d] for ci, si, d in entry["steps"]]
    bad_file = tmp_path / "bent_cover.json"
    bad_file.write_text(serialize.dumps(data))
    assert run_cli("verify", str(bad_file)) == 4
    assert "has direction -7, not 1 or -1" in capsys.readouterr().out


def test_cmd_euler_wrong_stored_multiplicity_exits_three(tmp_path, capsys):
    data = _demo_complex_json()
    data["graph"]["edges"][0]["multiplicity"] += 1
    path = tmp_path / "multiplicity.json"
    path.write_text(serialize.dumps(data))
    assert run_cli("euler", str(path)) == 3
    assert "WrongMultiplicity" in capsys.readouterr().err


def test_cmd_euler_absent_multiplicity_is_the_attached_count(chain, tmp_path, capsys):
    # an edge without the key reads like an Orbicomplex built without it
    data = json.loads(serialize.dumps(orbicomplex_to_json(chain.y)))
    path = tmp_path / "y.json"
    path.write_text(serialize.dumps(data))
    assert run_cli("euler", str(path)) == 0
    with_key = capsys.readouterr().out
    del data["graph"]["edges"][0]["multiplicity"]
    path.write_text(serialize.dumps(data))
    assert run_cli("euler", str(path)) == 0
    assert capsys.readouterr().out == with_key == f"{orbicore.euler_characteristic(chain.y)}\n"


def test_cmd_covers_names_the_shape_a_piece_lacks(chain, tmp_path, capsys):
    # used to print only "precondition failed: closed"
    data = json.loads(serialize.dumps(orbicomplex_to_json(chain.y)))
    data["pieces"].append({"id": "closed", "boundary": []})
    path = tmp_path / "y_closed.json"
    path.write_text(serialize.dumps(data))
    assert run_cli("covers", str(path)) == 3
    assert capsys.readouterr().err == (
        "precondition failed: piece closed: not a disk orbifold "
        "(needs genus 0, one boundary circle, no mirrors)\n"
    )


def _ghost_dart(rotation):
    rotation[min(rotation)].append(["ghost", 0])


def _unknown_vertex(rotation):
    rotation["nowhere"] = []


@pytest.mark.parametrize("mutate", [_ghost_dart, _unknown_vertex], ids=["ghost-dart", "unknown-vertex"])
def test_cmd_euler_malformed_rotation_exits_three(chain, tmp_path, capsys, mutate):
    # a rotation naming an unknown dart or vertex used to be built and answered
    data = json.loads(serialize.dumps(orbicomplex_to_json(chain.y)))
    mutate(data["rotation"])
    path = tmp_path / "y_rotation.json"
    path.write_text(serialize.dumps(data))
    assert run_cli("euler", str(path)) == 3
    assert "MalformedRotation" in capsys.readouterr().err


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


def _segment_key_circle_five(data):
    data["segment_map"].append({**data["segment_map"][0], "circle": 5})


def _vertex_image_ghost(data):
    data["vertex_map"]["hub.0.0"] = "ghost"


def _edge_image_ghost(data):
    data["edge_map"]["c.w.v1.0"][0][0] = "ghost"


def _piece_image_ghost(data):
    data["piece_map"]["v1-v2-0.01.0"][0] = "ghost"


def _source_empty_circle(data):
    _empty_circle(data["source"])
    data["piece_map"]["empty"] = next(iter(data["piece_map"].values()))


def _first_cone_token_misspelt(data):
    data["cone_fibers"][0]["preimages"][0][0] = "cnoe"


def _first_smooth_tag(value):
    def mutate(data):
        tok = next(tok for entry in data["cone_fibers"] for tok in entry["preimages"] if tok[0] == "smooth")
        tok[2] = value
    return mutate


_MALFORMED_MAPS = {
    "piece-map-number": (lambda d: d["piece_map"].update({next(iter(d["piece_map"])): 5}),
                         "expected a list"),
    "segment-without-steps": (lambda d: d["segment_map"][0].pop("steps"), "missing key 'steps'"),
    # repeated entries and unknown token kinds used to be read silently
    "repeated-segment-map": (lambda d: d["segment_map"].append(d["segment_map"][0]),
                             "repeated segment_map entry"),
    "repeated-cone-fibers": (lambda d: d["cone_fibers"].append(d["cone_fibers"][0]),
                             "repeated cone_fibers entry"),
    "unknown-token-kind": (_first_cone_token_misspelt, "unknown cone preimage kind 'cnoe'"),
    # a smooth token's tag used to pass through unread, and compose formats
    # it into new tags
    "smooth-tag-int": (_first_smooth_tag(0), "smooth tag: expected a string, got 0"),
    "smooth-tag-list": (_first_smooth_tag([0, 1, 1]), "smooth tag: expected a string"),
    "smooth-tag-object": (_first_smooth_tag({"a": 1}), "smooth tag: expected a string"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_MAPS))
def test_cmd_verify_malformed_map_exits_two(chain, tmp_path, capsys, case):
    # the second cover's map has cone fibres as well as segment maps
    data = json.loads(serialize.dumps(covering_map_to_json(chain.map2)))
    mutate, message = _MALFORMED_MAPS[case]
    mutate(data)
    bad_file = tmp_path / "bad_cover.json"
    bad_file.write_text(serialize.dumps(data))
    assert run_cli("verify", str(bad_file)) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and message in err


def _source_kind_object(data):
    data["source"]["pieces"][0]["boundary"][0][0] = {"kind": "free"}


def _segment_step_list(data):
    data["segment_map"][0]["steps"][0][1] = [0]


@pytest.mark.parametrize("mutate, code, prefix", [
    (_source_kind_object, 3, "precondition failed:"),
    (_segment_step_list, 2, "parse error:"),
], ids=["kind-object", "step-list"])
def test_cmd_verify_refuses_an_unhashable_value_cleanly(chain, tmp_path, capsys, mutate, code, prefix):
    # the reader shares a value only after its type is checked, so a JSON
    # object or list where a string or int belongs is refused, never hashed
    data = json.loads(serialize.dumps(covering_map_to_json(chain.map2)))
    mutate(data)
    bad_file = tmp_path / "bad_cover.json"
    bad_file.write_text(serialize.dumps(data))
    assert run_cli("verify", str(bad_file)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), captured.err


# json.load alone keeps the last of two equal keys, so these files used to
# be read as if the first copy were not there
_REPEATED_KEYS = {
    "vertex-map": ("verify", lambda chain: covering_map_to_json(chain.map1),
                   '"vertex_map": {', '"hub.0": "w.v1",', "repeated key 'hub.0'"),
    "piece-field": ("euler", lambda chain: orbicomplex_to_json(chain.base),
                    '"genus": 0,', '"genus": 0,', "repeated key 'genus'"),
}


@pytest.mark.parametrize("case", list(_REPEATED_KEYS))
def test_cmd_repeated_json_key_exits_two(chain, tmp_path, capsys, case):
    cmd, to_json, anchor, repeat, message = _REPEATED_KEYS[case]
    text = serialize.dumps(to_json(chain))
    assert anchor in text
    bad_file = tmp_path / "repeated_key.json"
    bad_file.write_text(text.replace(anchor, f"{anchor} {repeat}", 1))
    assert run_cli(cmd, str(bad_file)) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and message in err


def test_cmd_covers_enumeration(chain, tmp_path, capsys):
    cx_file = tmp_path / "cover1.json"
    cx_file.write_text(serialize.dumps(orbicomplex_to_json(chain.cover1)))
    assert run_cli("covers", str(cx_file)) == 0
    assert "3 connected double covers" in capsys.readouterr().out


def test_cmd_covers_json(chain, tmp_path, capsys):
    cx_file = tmp_path / "cover1.json"
    cx_file.write_text(serialize.dumps(orbicomplex_to_json(chain.cover1)))
    assert run_cli("covers", str(cx_file), "--json") == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 3
    assert out == [
        {
            "labeling": {
                "edges": {e: v for e, v in sorted(phi.edges.items()) if v},
                "cones": [{"piece": p, "cone": j} for (p, j), v in sorted(phi.cones.items()) if v],
            },
            "euler": str(orbicore.euler_characteristic(cover)),
            "pieces": pipeline.census_display(cover),
        }
        for phi, cover, _f in chain.family1
    ]


def test_cmd_covers_precondition(chain, tmp_path, capsys):
    cx_file = tmp_path / "base.json"
    cx_file.write_text(serialize.dumps(orbicomplex_to_json(chain.base)))
    assert run_cli("covers", str(cx_file)) == 3


def test_cmd_covers_empty_boundary_circle_exits_three(chain, tmp_path, capsys):
    # an empty circle used to reach the rotation of a cover and raise
    data = json.loads(serialize.dumps(orbicomplex_to_json(chain.y)))
    _empty_circle(data)
    cx_file = tmp_path / "y_empty.json"
    cx_file.write_text(serialize.dumps(data))
    assert run_cli("covers", str(cx_file)) == 3
    assert "EmptyBoundaryCircle" in capsys.readouterr().err


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


@pytest.mark.parametrize("a, b", [("y", "z"), ("y_hat", "z_hat")])
def test_cmd_compare_json_matches_golden(chain, tmp_path, a, b):
    paths = []
    for name in (a, b):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize.dumps(orbicomplex_to_json(getattr(chain, name))))
        paths.append(str(path))
    out = tmp_path / "compare.json"
    assert run_cli("compare", "--json", "--out", str(out), *paths) == 0
    golden = Path(__file__).resolve().parent / "golden" / f"compare_{a}_{b}.json"
    assert out.read_text() == golden.read_text(encoding="utf-8")


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
