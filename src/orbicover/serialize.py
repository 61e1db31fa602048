"""JSON schemas for every on-disk object: defining graphs, presentations,
marked graphs, orbicomplexes, covering maps, and reports.  The objects a
command reads round-trip exactly, parse(serialize(x)) == x; presentations
and reports are only written."""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Any

from .coxeter import DefiningGraph, GroupPresentation
from .graphs import RAM2, MarkedGraph, is_wall, wall_mark
from .invariants import AbelianInvariants
from .orbicore import Orbicomplex, Piece, sharer
from .verify import CoverReport, CoveringMap


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
    """A JSON string, exactly: every id and wall label is one.  It is
    interned, so each id read many times is held once."""
    if type(value) is not str:
        raise SchemaError(f"{what}: expected a string, got {value!r}")
    return sys.intern(value)


def _kind(value):
    """A segment kind as given: a string is interned, anything else is left
    for validation to refuse."""
    return sys.intern(value) if type(value) is str else value


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


def _put(table: dict, key, value, what: str) -> None:
    """Enter ``key`` once: a repeated entry is refused, not overwritten."""
    if key in table:
        raise SchemaError(f"repeated {what} {key!r}")
    table[key] = value


def _segment_ref(data: dict) -> tuple[str, int, int]:
    return (
        _str(_need(data, "piece"), "piece id"),
        _int(_need(data, "circle"), "circle"),
        _int(_need(data, "segment"), "segment"),
    )


# --- defining graphs -------------------------------------------------------


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
        v = _str(_need(vd, "id"), "vertex id")
        _put(g.marks, v, _mark_from_json(vd.get("mark")), "vertex id")
    for ed in _list(_need(data, "edges"), "edges"):
        ed = _obj(ed, "edge")
        e = _str(_need(ed, "id"), "edge id")
        u, v = _list(_need(ed, "ends"), f"edge {e!r} ends", 2)
        _put(g.edges, e, (_str(u, "edge end"), _str(v, "edge end")), "edge id")
        # absent: the attached count, as Orbicomplex fills it in
        if "multiplicity" in ed:
            g.multiplicity[e] = _int(ed["multiplicity"], "edge multiplicity")
    return g


# --- orbicomplexes ---------------------------------------------------------


def piece_to_json(p: Piece) -> dict:
    return {
        "id": p.id,
        "genus": p.genus,
        "cones": list(p.cones),
        "boundary": [list(circle) for circle in p.boundary],
    }


def _piece_from_json(data: dict, share) -> Piece:
    """A piece whose boundary and cones go through ``share`` once their
    items are checked: a boundary with a kind that is not a string is left
    for validation to refuse, and is not hashed."""
    data = _obj(data, "piece")
    pid = _str(_need(data, "id"), "piece id")
    genus = _int(data.get("genus", 0), "genus")
    boundary = tuple(
        tuple(map(_kind, _list(c, "boundary circle"))) for c in _list(data.get("boundary", []), "boundary")
    )
    if all(type(kind) is str for circle in boundary for kind in circle):
        boundary = share(boundary)
    cones = tuple(_int(m, "cone order") for m in _list(data.get("cones", []), "cones"))
    return Piece(pid, genus, boundary, share(cones))


def rotation_to_json(rotation) -> Any:
    if rotation is None:
        return None
    return {v: [[e, end] for e, end in cyc] for v, cyc in sorted(rotation.items())}


def rotation_from_json(data) -> Any:
    if data is None:
        return None
    return {
        _str(v, "rotation vertex"): [
            (_str(e, "rotation edge"), _int(end, "rotation end"))
            for e, end in _rows(cyc, "rotation dart", 2)
        ]
        for v, cyc in _obj(data, "rotation").items()
    }


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
    """The complex ``data`` describes, validated as it is built."""
    return _orbicomplex_from_json(data, sharer())


def _orbicomplex_from_json(data: dict, share) -> Orbicomplex:
    """The complex ``data`` describes, with each checked boundary, cones
    tuple, attachment key and attachment value passed through ``share``."""
    data = _obj(data, "orbicomplex")
    pieces = [_piece_from_json(pd, share) for pd in _list(_need(data, "pieces"), "pieces")]
    graph = marked_graph_from_json(_need(data, "graph"))
    attachments = {}
    for ad in _list(data.get("attachments", []), "attachments"):
        ad = _obj(ad, "attachment")
        att = (_str(_need(ad, "edge"), "attachment edge"), _int(_need(ad, "direction"), "direction"))
        _put(attachments, share(_segment_ref(ad)), share(att), "attachment")
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


def _preimage(tok: list) -> tuple:
    """A ("cone", piece, cone index) or ("smooth", piece, tag) token."""
    kind, pid, tag = tok
    if kind not in ("cone", "smooth"):
        raise SchemaError(f"unknown cone preimage kind {kind!r}")
    tag = _int(tag, "cone preimage") if kind == "cone" else _str(tag, "smooth tag")
    return (kind, _str(pid, "piece id"), tag)


def covering_map_from_json(data: dict) -> CoveringMap:
    """The map ``data`` describes, with one object per distinct checked
    boundary, cones tuple, attachment, step and path for this call, so each
    segment_map key is the equal attachment key of the source."""
    data = _obj(data, "covering map")
    share = sharer()
    source = _orbicomplex_from_json(_need(data, "source"), share)
    target = _orbicomplex_from_json(_need(data, "target"), share)
    degree = _int(_need(data, "degree"), "degree")
    vertex_map = {
        _str(v, "vertex_map key"): _str(w, "vertex_map value")
        for v, w in _obj(data.get("vertex_map", {}), "vertex_map").items()
    }
    edge_map = {
        _str(e, "edge_map key"): share(tuple([
            share((_str(te, "edge path edge"), _int(d, "edge direction")))
            for te, d in _rows(path, "edge path step", 2)
        ]))
        for e, path in _obj(data.get("edge_map", {}), "edge_map").items()
    }
    piece_map, segment_map, cone_fibers = {}, {}, {}
    for p, value in _obj(data.get("piece_map", {}), "piece_map").items():
        q, l = _list(value, "piece_map value", 2)
        piece_map[_str(p, "piece_map key")] = (_str(q, "piece_map value"), _int(l, "local degree"))
    for sd in _list(data.get("segment_map", []), "segment_map"):
        sd = _obj(sd, "segment_map entry")
        path = share(tuple([
            share((_int(a, "step circle"), _int(b, "step segment"), _int(d, "step direction")))
            for a, b, d in _rows(_need(sd, "steps"), "segment step", 3)
        ]))
        _put(segment_map, share(_segment_ref(sd)), path, "segment_map entry")
    for cd in _list(data.get("cone_fibers", []), "cone_fibers"):
        cd = _obj(cd, "cone_fibers entry")
        key = (_str(_need(cd, "piece"), "piece id"), _int(_need(cd, "cone"), "cone index"))
        tokens = [_preimage(tok) for tok in _rows(_need(cd, "preimages"), "cone preimage", 3)]
        _put(cone_fibers, key, tokens, "cone_fibers entry")
    return CoveringMap(
        source, target, degree, vertex_map, edge_map, piece_map, segment_map, cone_fibers
    )


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
    """``json.dumps(data, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    for trees whose dict keys are all strings.  CPython indents only in its
    pure-Python encoder.  This writer joins each list or dict into one string
    as soon as it is written, so it peaks at about twice the text."""
    return _write(data, "", "\n", "\n")


def _write(o: Any, head: str, newline: str, tail: str) -> str:
    """``head``, ``o``'s text and ``tail`` as one string.  A container writes
    each item into a fresh list as one string, an int with its separator and
    key, any other item through this function, and joins the list once.
    ``newline`` is a line break and the current indentation."""
    if isinstance(o, str):
        return head + encode_basestring_ascii(o) + tail
    if type(o) is int:
        return head + int.__repr__(o) + tail
    inner = newline + "  "
    comma, part = "," + inner, []
    if isinstance(o, (list, tuple)):
        if not o:
            return head + "[]" + tail
        sep = head + "[" + inner
        for item in o:
            part.append(f"{sep}{item}" if type(item) is int else _write(item, sep, inner, ""))
            sep = comma
        part.append(newline + "]" + tail)
    elif isinstance(o, dict):
        if not o:
            return head + "{}" + tail
        sep = head + "{" + inner
        for key in sorted(o):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            label, item = f"{sep}{encode_basestring_ascii(key)}: ", o[key]
            part.append(f"{label}{item}" if type(item) is int else _write(item, label, inner, ""))
            sep = comma
        part.append(newline + "}" + tail)
    else:  # bool, None, float: one token, as the encoder writes it
        return head + json.dumps(o) + tail
    return "".join(part)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object whose keys are all distinct: ``json.load`` alone would
    keep the last of two equal keys."""
    out: dict = {}
    for key, value in pairs:
        _put(out, key, value, "key")
    return out


def load_file(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)
