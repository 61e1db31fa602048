"""Lemma-style doubles of single pieces and the preconditions on pieces
that the cover constructions share (a reflection polygon, a disk with
order-2 cones, a fully attached piece); surface towers, torsion-free covers
and the composition of covering maps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import MarkedGraph, OrbicoverError, reverse_walk
from .orbicore import (
    FREE,
    MIRROR,
    Orbicomplex,
    Piece,
    SegRef,
    disk_with_cones,
    sharer,
    surface_with_boundary,
)
from .verify import CoveringMap, MismatchedComplexes, Step

# ---------------------------------------------------------------------------
# doubles of single pieces, and the preconditions on pieces


class NotAPolygon(OrbicoverError):
    pass


class NotADiskOrbifold(OrbicoverError):
    pass


class UnsupportedPiece(OrbicoverError):
    pass


def _require_polygon(p: Piece) -> int:
    """Number of mirror segments of a branch polygon [free, mirror^n, free]."""
    msg = (
        f"piece {p.id}: not a reflection polygon (needs genus 0, no cones, "
        "one boundary circle [free, mirror^n, free] with n >= 1)"
    )
    if p.genus != 0 or p.cones or len(p.boundary) != 1:
        raise NotAPolygon(msg)
    circle = p.boundary[0]
    n = len(circle) - 2
    if n < 1 or circle != (FREE,) + (MIRROR,) * n + (FREE,):
        raise NotAPolygon(msg)
    return n


def _polygon_lift(n: int, glued: Sequence[int]) -> list[tuple[int, int]]:
    """The one boundary circle of two sheets of the polygon [free, mirror^n,
    free] glued along the run of mirrors glued[0]..glued[-1], as (segment,
    sheet) pairs; sheet 1 is traversed backwards."""
    a, b = glued[0], glued[-1]
    return (
        [(si, 0) for si in range(a)]
        + [(si, 1) for si in range(a - 1, -1, -1)]
        + [(si, 1) for si in range(n + 1, b, -1)]
        + [(si, 0) for si in range(b + 1, n + 2)]
    )


def reflection_double(p: Piece) -> tuple[Piece, CoveringMap]:
    """Unfold every mirror of a reflection polygon: the disk with n-1
    order-2 cone points double-covers the polygon with n mirror segments,
    corners descending to the cones."""
    n = _require_polygon(p)
    target = Orbicomplex(pieces=(p,))
    cover_piece = disk_with_cones(f"{p.id}.d", n - 1, n_segments=4)
    source = Orbicomplex(pieces=(cover_piece,))
    segmap: dict[SegRef, list[Step]] = {
        (cover_piece.id, 0, i): [(0, si, 1 - 2 * sheet)]
        for i, (si, sheet) in enumerate(_polygon_lift(n, range(1, n + 1)))
    }
    f = CoveringMap(
        source=source,
        target=target,
        degree=2,
        piece_map={cover_piece.id: (p.id, 2)},
        segment_map=segmap,
    )
    return cover_piece, f


def _require_cone_disk(p: Piece) -> int:
    if p.genus != 0 or len(p.boundary) != 1 or p.has_mirrors:
        raise NotADiskOrbifold(
            f"piece {p.id}: not a disk orbifold (needs genus 0, one boundary circle, no mirrors)"
        )
    if any(m != 2 for m in p.cones):
        raise NotADiskOrbifold(f"piece {p.id}: cone orders {p.cones} (needs order 2 only)")
    return len(p.cones)


def _cone_disk_double(
    base: Piece, pid: str, smoothed: Sequence[int]
) -> tuple[int, tuple[int, ...], dict[tuple[str, int], list[tuple]]]:
    """The connected double ``pid`` of a disk with order-2 cones, branched at
    the cones j with smoothed[j] = 1 (Riemann-Hurwitz): its genus, its cones
    and the cone fibres.  Each other cone lifts to the next two cones in
    order; the boundary lifts to one circle of two laps when an odd number
    of cones is smoothed, else to two circles."""
    k1 = sum(smoothed)
    fibers: dict[tuple[str, int], list[tuple]] = {}
    new_cone = 0
    for j, val in enumerate(smoothed):
        if val:
            fibers[(base.id, j)] = [("smooth", pid, f"c{j}")]
        else:
            fibers[(base.id, j)] = [("cone", pid, new_cone), ("cone", pid, new_cone + 1)]
            new_cone += 2
    return (k1 - 2 + k1 % 2) // 2, (2,) * new_cone, fibers


def rotation_double(p: Piece) -> tuple[Piece, CoveringMap]:
    """Rotate a disk orbifold with m+1 order-2 cones by a half turn: the
    disk with 2m cones double-covers it, the fixed point descending to one
    cone (single smooth preimage), every other cone lifting twice."""
    k = _require_cone_disk(p)
    if k < 2:
        raise NotADiskOrbifold(f"piece {p.id}: needs at least 2 cones")
    t = len(p.boundary[0])
    pid = f"{p.id}.r"
    genus, cones, fibers = _cone_disk_double(p, pid, [1] + [0] * (k - 1))
    cover_piece = Piece(pid, genus, ((FREE,) * (2 * t),), cones)
    f = CoveringMap(
        source=Orbicomplex(pieces=(cover_piece,)),
        target=Orbicomplex(pieces=(p,)),
        degree=2,
        piece_map={pid: (p.id, 2)},
        segment_map={(pid, 0, j): [(0, j % t, 1)] for j in range(2 * t)},
        cone_fibers=fibers,
    )
    return cover_piece, f


def _fully_attached(c: Orbicomplex, p: Piece) -> bool:
    return all(
        (p.id, ci, si) in c.attachments
        for ci, si, kind in p.segments()
        if kind == FREE
    )


class BadGenus(OrbicoverError):
    pass


# ---------------------------------------------------------------------------
# surface towers and torsion-free covers


@dataclass
class SurfaceTower:
    surface: Piece
    annulus: Piece
    disk: Piece
    upper: CoveringMap   # surface -> annulus orbifold
    lower: CoveringMap   # annulus orbifold -> disk orbifold


def surface_over_disk_tower(genus: int) -> SurfaceTower:
    """The two rotation quotients S_{g,4} -> A(2g+2) -> D^2(g+3): first a
    half-turn pairing the four boundary circles with 2g+2 fixed points,
    then a half-turn of the annulus skewering its core in two plain points."""
    if genus < 1:
        raise BadGenus(f"needs genus >= 1, got {genus}")
    g = genus
    disk = disk_with_cones(f"disk.g{g}", g + 3)
    a_genus, a_cones, a_fibers = _cone_disk_double(disk, f"ann.g{g}", [0] * (g + 1) + [1, 1])
    annulus = Piece(f"ann.g{g}", a_genus, ((FREE,), (FREE,)), a_cones)
    surface = surface_with_boundary(f"surf.g{g}", g, 4)
    disk_cx = Orbicomplex(pieces=(disk,))
    annulus_cx = Orbicomplex(pieces=(annulus,))
    surface_cx = Orbicomplex(pieces=(surface,))

    lower = CoveringMap(
        source=annulus_cx,
        target=disk_cx,
        degree=2,
        piece_map={annulus.id: (disk.id, 2)},
        segment_map={
            (annulus.id, 0, 0): [(0, 0, 1)],
            (annulus.id, 1, 0): [(0, 0, 1)],
        },
        cone_fibers=a_fibers,
    )

    upper = CoveringMap(
        source=surface_cx,
        target=annulus_cx,
        degree=2,
        piece_map={surface.id: (annulus.id, 2)},
        segment_map={
            (surface.id, 0, 0): [(0, 0, 1)],
            (surface.id, 1, 0): [(0, 0, 1)],
            (surface.id, 2, 0): [(1, 0, 1)],
            (surface.id, 3, 0): [(1, 0, 1)],
        },
        cone_fibers={
            (annulus.id, j): [("smooth", surface.id, f"fix{j}")] for j in range(2 * g + 2)
        },
    )
    return SurfaceTower(surface, annulus, disk, upper, lower)


def torsion_free_cover(c: Orbicomplex) -> tuple[Orbicomplex, CoveringMap]:
    """The degree-4 cover with trivial stabilizers: the attaching graph
    lifts to four disjoint copies and each disk with k >= 4 order-2 cones
    lifts to the surface S_{k-3,4}, its four boundary circles attached to
    the four copies of the disk's attachment circuit."""
    for p in c.pieces:
        try:
            k = _require_cone_disk(p)
        except NotADiskOrbifold as exc:
            raise UnsupportedPiece(f"piece {p.id} is not a cone disk") from exc
        if k < 4:
            raise UnsupportedPiece(f"piece {p.id}: needs >= 4 cones, has {k}")
        if not _fully_attached(c, p):
            raise UnsupportedPiece(f"piece {p.id}: boundary circle not fully attached")

    # one object per lifted id, path, shape, tag and attachment value
    vname = {(v, j): f"{v}.{j}" for j in range(4) for v in c.graph.vertices()}
    ename = {(e, j): f"{e}.{j}" for j in range(4) for e in c.graph.edge_ids()}
    share = sharer()

    graph = MarkedGraph()
    vertex_map, edge_map = {}, {}
    for j in range(4):
        for v in c.graph.vertices():
            graph.marks[vname[v, j]] = c.graph.marks[v]
            vertex_map[vname[v, j]] = v
        for e in c.graph.edge_ids():
            u, v = c.graph.edges[e]
            graph.edges[ename[e, j]] = (vname[u, j], vname[v, j])
            edge_map[ename[e, j]] = share(((e, 1),))

    pieces, attachments = [], {}
    piece_map, segmap, cone_fibers = {}, {}, {}
    for p in c.pieces:
        k = len(p.cones)
        t = len(p.boundary[0])
        pid2 = f"{p.id}.hat"
        cover = Piece(pid2, k - 3, share(((FREE,) * t,) * 4), ())
        pieces.append(cover)
        piece_map[pid2] = (p.id, 4)
        for j in range(4):
            for si in range(t):
                e, d = c.attachments[(p.id, 0, si)]
                ref = (pid2, j, si)
                attachments[ref] = share((ename[e, j], d))
                segmap[ref] = share(((0, si, 1),))
        for cj in range(k):
            cone_fibers[(p.id, cj)] = [("smooth", pid2, share(f"s{cj}.{s}")) for s in (0, 1)]

    rotation = None if c.rotation is None else {
        vname[v, j]: [(ename[e, j], end) for e, end in cyc]
        for j in range(4)
        for v, cyc in c.rotation.items()
    }
    cover_cx = Orbicomplex(pieces=pieces, graph=graph, attachments=attachments, rotation=rotation)
    f = CoveringMap(
        source=cover_cx,
        target=c,
        degree=4,
        vertex_map=vertex_map,
        edge_map=edge_map,
        piece_map=piece_map,
        segment_map=segmap,
        cone_fibers=cone_fibers,
    )
    return cover_cx, f


# ---------------------------------------------------------------------------
# composition


def compose(f: CoveringMap, g: CoveringMap) -> CoveringMap:
    """Composite covering map for f: A -> B and g: B -> C.

    Smooth preimage tokens pull back generically (a smooth point of B that
    is not itself a branch value of f has local-degree many preimages in
    each piece over it); verify the result when in doubt.
    """
    if f.target is not g.source and f.target != g.source:
        raise MismatchedComplexes("compose: f.target is not g.source")

    share = sharer()  # one object per distinct path, reversed step and tag

    def orient(path: Sequence[tuple[str, int]], d: int) -> Sequence[tuple[str, int]]:
        return path if d == 1 else reverse_walk(path)

    edge_map = {}
    for e, path in f.edge_map.items():
        out: list[tuple[str, int]] = []
        for be, d in path:
            out.extend(orient(g.edge_map[be], d))
        edge_map[e] = share(tuple(out))

    def orient_steps(steps: Sequence[Step], d: int) -> Sequence[Step]:
        return steps if d == 1 else [share((ci, si, -dd)) for ci, si, dd in reversed(steps)]

    segment_map = {}
    for ref, steps in f.segment_map.items():
        pid = ref[0]
        bpid = f.piece_map[pid][0]
        out_steps: list[Step] = []
        for (bci, bsi, d) in steps:
            out_steps.extend(orient_steps(g.segment_map[(bpid, bci, bsi)], d))
        segment_map[ref] = share(tuple(out_steps))

    piece_map = {}
    for pid, (bpid, l1) in f.piece_map.items():
        cpid, l2 = g.piece_map[bpid]
        piece_map[pid] = (cpid, l1 * l2)

    # the A-pieces over each B-piece, in A-piece order
    over: dict[str, list[tuple[str, int]]] = {}
    for apid, (bpid, l) in sorted(f.piece_map.items()):
        over.setdefault(bpid, []).append((apid, l))
    cone_fibers: dict[tuple[str, int], list[tuple]] = {}
    for (cpid, j), b_tokens in g.cone_fibers.items():
        out_tokens: list[tuple] = []
        for tok in b_tokens:
            if tok[0] == "cone":
                _k, bpid, bj = tok
                out_tokens.extend(f.cone_fibers.get((bpid, bj), []))
            else:
                _k, bpid, tag = tok
                for apid, l in over.get(bpid, []):
                    out_tokens.extend(("smooth", apid, share(f"{tag}.{i}")) for i in range(l))
        cone_fibers[(cpid, j)] = out_tokens

    return CoveringMap(
        source=f.source,
        target=g.target,
        degree=f.degree * g.degree,
        vertex_map={v: g.vertex_map[w] for v, w in f.vertex_map.items()},
        edge_map=edge_map,
        piece_map=piece_map,
        segment_map=segment_map,
        cone_fibers=cone_fibers,
    )
