"""JSON schemas for every on-disk object: defining graphs, presentations,
marked graphs, orbicomplexes, covering maps, and reports.  parse(serialize(x))
round-trips exactly."""

from __future__ import annotations

import json
from typing import Any

from .coxeter import DefiningGraph, GroupPresentation
from .covers import CoverReport, CoveringMap
from .invariants import AbelianInvariants
from .orbicore import MarkedGraph, Orbicomplex, Piece, RAM2, is_wall, wall_mark


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


def _segment_ref(data: dict) -> tuple[str, int, int]:
    return (
        _need(data, "piece"),
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
    try:
        return DefiningGraph.from_edges(_need(data, "vertices"), _need(data, "edges"))
    except (TypeError, ValueError) as exc:
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
        return wall_mark(data[1])
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
    g = MarkedGraph()
    for vd in _need(data, "vertices"):
        g.marks[_need(vd, "id")] = _mark_from_json(vd.get("mark"))
    for ed in _need(data, "edges"):
        ends = _need(ed, "ends")
        if len(ends) != 2:
            raise SchemaError(f"edge {ed.get('id')!r}: bad ends")
        g.edges[_need(ed, "id")] = (ends[0], ends[1])
        g.multiplicity[ed["id"]] = _int(ed.get("multiplicity", 0), "edge multiplicity")
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
    return Piece(
        id=_need(data, "id"),
        genus=_int(data.get("genus", 0), "genus"),
        boundary=tuple(tuple(c) for c in data.get("boundary", [])),
        cones=tuple(_int(m, "cone order") for m in data.get("cones", [])),
    )


def rotation_to_json(rotation) -> Any:
    if rotation is None:
        return None
    return {v: [[e, end] for e, end in cyc] for v, cyc in sorted(rotation.items())}


def rotation_from_json(data) -> Any:
    if data is None:
        return None
    return {v: [(e, _int(end, "rotation end")) for e, end in cyc] for v, cyc in data.items()}


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
    pieces = [piece_from_json(pd) for pd in _need(data, "pieces")]
    graph = marked_graph_from_json(_need(data, "graph"))
    attachments = {}
    for ad in data.get("attachments", []):
        attachments[_segment_ref(ad)] = (_need(ad, "edge"), _int(_need(ad, "direction"), "direction"))
    return Orbicomplex(
        pieces=pieces,
        graph=graph,
        attachments=attachments,
        rotation=rotation_from_json(data.get("rotation")),
    )


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
    f = CoveringMap(
        source=orbicomplex_from_json(_need(data, "source")),
        target=orbicomplex_from_json(_need(data, "target")),
        degree=_int(_need(data, "degree"), "degree"),
        vertex_map=dict(data.get("vertex_map", {})),
        edge_map={
            e: [(te, _int(d, "edge direction")) for te, d in path]
            for e, path in data.get("edge_map", {}).items()
        },
        piece_map={p: (q, _int(l, "local degree")) for p, (q, l) in data.get("piece_map", {}).items()},
    )
    for sd in data.get("segment_map", []):
        f.segment_map[_segment_ref(sd)] = [
            (_int(a, "step circle"), _int(b, "step segment"), _int(d, "step direction"))
            for a, b, d in sd["steps"]
        ]
    for cd in data.get("cone_fibers", []):
        key = (_need(cd, "piece"), _int(_need(cd, "cone"), "cone index"))
        f.cone_fibers[key] = [
            ("cone", tok[1], _int(tok[2], "cone preimage")) if tok[0] == "cone" else ("smooth", tok[1], tok[2])
            for tok in cd["preimages"]
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
