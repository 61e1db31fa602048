"""JSON schemas for every on-disk object: defining graphs, presentations,
marked graphs, orbicomplexes, covering maps, and reports.  parse(serialize(x))
round-trips exactly."""

from __future__ import annotations

import json
from typing import Any

from .coxeter import DefiningGraph, GroupPresentation
from .covers import CoverReport, CoveringMap
from .invariants import AbelianInvariants
from .orbicore import MarkedGraph, Orbicomplex, Piece, RAM2, is_wall, require_valid, wall_mark


class SchemaError(ValueError):
    pass


def _need(obj: dict, key: str):
    if key not in obj:
        raise SchemaError(f"missing key {key!r}")
    return obj[key]


def _int(value, what: str) -> int:
    """A JSON integer, exactly: strings, floats and booleans are refused."""
    if type(value) is not int:
        raise SchemaError(f"{what}: expected an integer, got {value!r}")
    return value


def _str(value, what: str) -> str:
    """A JSON string, exactly: every id and wall label is one."""
    if type(value) is not str:
        raise SchemaError(f"{what}: expected a string, got {value!r}")
    return value


def _obj(value, what: str) -> dict:
    """A JSON object, exactly."""
    if type(value) is not dict:
        raise SchemaError(f"{what}: expected an object, got {value!r}")
    return value


def _list(value, what: str, length: int | None = None) -> list:
    """A JSON array, exactly; of ``length`` items when that is given."""
    if type(value) is not list:
        raise SchemaError(f"{what}: expected a list, got {value!r}")
    if length is not None and len(value) != length:
        raise SchemaError(f"{what}: expected {length} items, got {len(value)}")
    return value


def _rows(value, what: str, width: int) -> list[list]:
    """A JSON array of arrays of ``width`` items each."""
    return [_list(row, what, width) for row in _list(value, what)]


def _segment_ref(data: dict) -> tuple[str, int, int]:
    return (
        _str(_need(data, "piece"), "piece id"),
        _int(_need(data, "circle"), "circle"),
        _int(_need(data, "segment"), "segment"),
    )


# --- defining graphs -------------------------------------------------------


def defining_graph_to_json(g: DefiningGraph) -> dict:
    return {
        "vertices": g.sorted_vertices(),
        "edges": [list(e) for e in g.sorted_edges()],
    }


def defining_graph_from_json(data: dict) -> DefiningGraph:
    data = _obj(data, "defining graph")
    vertices = [_str(v, "vertex id") for v in _list(_need(data, "vertices"), "vertices")]
    edges = [
        (_str(a, "edge end"), _str(b, "edge end"))
        for a, b in _rows(_need(data, "edges"), "edge", 2)
    ]
    try:
        return DefiningGraph.from_edges(vertices, edges)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


# --- presentations ---------------------------------------------------------


def presentation_to_json(p: GroupPresentation) -> dict:
    return {
        "generators": list(p.generators),
        "relators": [[[g, e] for g, e in rel] for rel in p.relators],
    }


def presentation_from_json(data: dict) -> GroupPresentation:
    gens = tuple(_need(data, "generators"))
    relators = tuple(
        tuple((g, _int(e, "relator exponent")) for g, e in rel) for rel in _need(data, "relators")
    )
    return GroupPresentation(gens, relators)


# --- marked graphs ---------------------------------------------------------


def _mark_to_json(mark) -> Any:
    if mark is None or mark == RAM2:
        return mark
    if is_wall(mark):
        return ["wall", mark[1]]
    raise SchemaError(f"unknown mark {mark!r}")


def _mark_from_json(data) -> Any:
    if data is None or data == RAM2:
        return data
    if isinstance(data, list) and len(data) == 2 and data[0] == "wall":
        return wall_mark(_str(data[1], "wall label"))
    raise SchemaError(f"unknown mark {data!r}")


def marked_graph_to_json(g: MarkedGraph) -> dict:
    return {
        "vertices": [
            {"id": v, "mark": _mark_to_json(g.marks[v])} for v in g.vertices()
        ],
        "edges": [
            {
                "id": e,
                "ends": list(g.edges[e]),
                "multiplicity": g.multiplicity.get(e, 0),
            }
            for e in g.edge_ids()
        ],
    }


def marked_graph_from_json(data: dict) -> MarkedGraph:
    data = _obj(data, "marked graph")
    g = MarkedGraph()
    for vd in _list(_need(data, "vertices"), "vertices"):
        vd = _obj(vd, "vertex")
        g.marks[_str(_need(vd, "id"), "vertex id")] = _mark_from_json(vd.get("mark"))
    for ed in _list(_need(data, "edges"), "edges"):
        ed = _obj(ed, "edge")
        e = _str(_need(ed, "id"), "edge id")
        u, v = _list(_need(ed, "ends"), f"edge {e!r} ends", 2)
        g.edges[e] = (_str(u, "edge end"), _str(v, "edge end"))
        g.multiplicity[e] = _int(ed.get("multiplicity", 0), "edge multiplicity")
    return g


# --- orbicomplexes ---------------------------------------------------------


def piece_to_json(p: Piece) -> dict:
    return {
        "id": p.id,
        "genus": p.genus,
        "cones": list(p.cones),
        "boundary": [list(circle) for circle in p.boundary],
    }


def piece_from_json(data: dict) -> Piece:
    data = _obj(data, "piece")
    return Piece(
        id=_str(_need(data, "id"), "piece id"),
        genus=_int(data.get("genus", 0), "genus"),
        boundary=tuple(
            tuple(_list(c, "boundary circle")) for c in _list(data.get("boundary", []), "boundary")
        ),
        cones=tuple(_int(m, "cone order") for m in _list(data.get("cones", []), "cones")),
    )


def rotation_to_json(rotation) -> Any:
    if rotation is None:
        return None
    return {v: [[e, end] for e, end in cyc] for v, cyc in sorted(rotation.items())}


def rotation_from_json(data) -> Any:
    if data is None:
        return None
    return {
        v: [
            (_str(e, "rotation edge"), _int(end, "rotation end"))
            for e, end in _rows(cyc, "rotation dart", 2)
        ]
        for v, cyc in _obj(data, "rotation").items()
    }


def rotation_pair_from_json(data) -> tuple:
    """The rotation systems ``{"a": ..., "b": ...}`` of a pair of complexes."""
    data = _obj(data, "rotations")
    return rotation_from_json(data.get("a")), rotation_from_json(data.get("b"))


def orbicomplex_to_json(c: Orbicomplex) -> dict:
    return {
        "pieces": [piece_to_json(p) for p in c.pieces],
        "graph": marked_graph_to_json(c.graph),
        "attachments": [
            {
                "piece": pid,
                "circle": ci,
                "segment": si,
                "edge": e,
                "direction": d,
            }
            for (pid, ci, si), (e, d) in sorted(c.attachments.items())
        ],
        "rotation": rotation_to_json(c.rotation),
    }


def orbicomplex_from_json(data: dict) -> Orbicomplex:
    """The complex ``data`` describes; InvalidComplex unless it is valid."""
    data = _obj(data, "orbicomplex")
    pieces = [piece_from_json(pd) for pd in _list(_need(data, "pieces"), "pieces")]
    graph = marked_graph_from_json(_need(data, "graph"))
    attachments = {}
    for ad in _list(data.get("attachments", []), "attachments"):
        ad = _obj(ad, "attachment")
        attachments[_segment_ref(ad)] = (
            _str(_need(ad, "edge"), "attachment edge"),
            _int(_need(ad, "direction"), "direction"),
        )
    c = Orbicomplex(
        pieces=pieces,
        graph=graph,
        attachments=attachments,
        rotation=rotation_from_json(data.get("rotation")),
    )
    require_valid(c)
    return c


# --- covering maps ---------------------------------------------------------


def covering_map_to_json(f: CoveringMap) -> dict:
    return {
        "degree": f.degree,
        "source": orbicomplex_to_json(f.source),
        "target": orbicomplex_to_json(f.target),
        "vertex_map": dict(sorted(f.vertex_map.items())),
        "edge_map": {
            e: [[te, d] for te, d in path] for e, path in sorted(f.edge_map.items())
        },
        "piece_map": {p: [q, l] for p, (q, l) in sorted(f.piece_map.items())},
        "segment_map": [
            {
                "piece": pid,
                "circle": ci,
                "segment": si,
                "steps": [[a, b, d] for a, b, d in steps],
            }
            for (pid, ci, si), steps in sorted(f.segment_map.items())
        ],
        "cone_fibers": [
            {
                "piece": pid,
                "cone": j,
                "preimages": [list(tok) for tok in toks],
            }
            for (pid, j), toks in sorted(f.cone_fibers.items())
        ],
    }


def covering_map_from_json(data: dict) -> CoveringMap:
    data = _obj(data, "covering map")
    f = CoveringMap(
        source=orbicomplex_from_json(_need(data, "source")),
        target=orbicomplex_from_json(_need(data, "target")),
        degree=_int(_need(data, "degree"), "degree"),
        vertex_map={
            v: _str(w, "vertex_map value")
            for v, w in _obj(data.get("vertex_map", {}), "vertex_map").items()
        },
        edge_map={
            e: [
                (_str(te, "edge path edge"), _int(d, "edge direction"))
                for te, d in _rows(path, "edge path step", 2)
            ]
            for e, path in _obj(data.get("edge_map", {}), "edge_map").items()
        },
    )
    for p, value in _obj(data.get("piece_map", {}), "piece_map").items():
        q, l = _list(value, "piece_map value", 2)
        f.piece_map[p] = (_str(q, "piece_map value"), _int(l, "local degree"))
    for sd in _list(data.get("segment_map", []), "segment_map"):
        sd = _obj(sd, "segment_map entry")
        f.segment_map[_segment_ref(sd)] = [
            (_int(a, "step circle"), _int(b, "step segment"), _int(d, "step direction"))
            for a, b, d in _rows(_need(sd, "steps"), "segment step", 3)
        ]
    for cd in _list(data.get("cone_fibers", []), "cone_fibers"):
        cd = _obj(cd, "cone_fibers entry")
        key = (_str(_need(cd, "piece"), "piece id"), _int(_need(cd, "cone"), "cone index"))
        f.cone_fibers[key] = [
            ("cone", _str(tok[1], "piece id"), _int(tok[2], "cone preimage"))
            if tok[0] == "cone" else ("smooth", _str(tok[1], "piece id"), tok[2])
            for tok in _rows(_need(cd, "preimages"), "cone preimage", 3)
        ]
    return f


# --- reports ---------------------------------------------------------------


def cover_report_to_json(r: CoverReport) -> dict:
    return {
        "degree": r.degree,
        "passed": r.passed,
        "checks": [
            {"condition": c.condition, "status": c.status, "witness": c.witness}
            for c in r.checks
        ],
    }


def abelian_invariants_to_json(a: AbelianInvariants) -> dict:
    return {"free_rank": a.free_rank, "torsion": list(a.torsion)}


def compare_report_to_json(report: dict) -> dict:
    iso = report["singular_iso"]
    return {
        "euler": [str(x) for x in report["euler"]],
        "singular_iso": iso if iso == "no" else dict(iso),
        "abelianization": [
            abelian_invariants_to_json(a) for a in report["abelianization"]
        ],
        "homotopy_certificate": report["homotopy_certificate"],
        "verdicts": list(report["verdicts"]),
    }


def dumps(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def load_file(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
