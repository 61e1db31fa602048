"""Double covers of orbicomplexes classified by two-torsion labelings, the
Davis double cover (the all-ones labeling) among them, and their
enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .graphs import MarkedGraph, OrbicoverError, is_wall, rotation_from_circuits, wall_mark
from .orbicore import (
    FREE,
    MIRROR,
    Orbicomplex,
    Piece,
    SegRef,
    _canonical_cycle,
    attachment_circuit,
    sharer,
)
from .towers import (
    UnsupportedPiece,
    _cone_disk_double,
    _fully_attached,
    _polygon_lift,
    _require_cone_disk,
    _require_polygon,
)
from .verify import CoveringMap, Step

# re-exported while the benchmark reads them as covers.<name>
from .orbicore import euler_characteristic  # noqa: F401
from .towers import compose, torsion_free_cover  # noqa: F401
from .verify import verify_covering  # noqa: F401


class NotAHomomorphism(OrbicoverError):
    pass


class NotSurjective(OrbicoverError):
    pass


class MirrorsPresent(OrbicoverError):
    pass


# ---------------------------------------------------------------------------
# two-torsion labelings and the double covers they classify, the Davis cover
# (the all-ones labeling) among them


@dataclass
class TwoTorsionLabeling:
    """A homomorphism to Z/2 given by its values on the attaching-graph
    edges (implicitly zero on a spanning forest), cone generators, and
    wall/mirror generators.  Missing keys read as 0."""

    edges: dict[str, int] = field(default_factory=dict)
    cones: dict[tuple[str, int], int] = field(default_factory=dict)
    mirrors: dict[SegRef, int] = field(default_factory=dict)
    walls: dict[str, int] = field(default_factory=dict)

    def edge(self, e: str) -> int:
        return self.edges.get(e, 0)

    def cone(self, pid: str, j: int) -> int:
        return self.cones.get((pid, j), 0)

    def mirror(self, ref: SegRef) -> int:
        return self.mirrors.get(ref, 0)

    def wall(self, label: str) -> int:
        return self.walls.get(label, 0)

    def values(self) -> list[int]:
        return [*self.edges.values(), *self.cones.values(), *self.mirrors.values(), *self.walls.values()]

    def is_surjective(self) -> bool:
        return any(self.values())


def _sheet_offsets(c: Orbicomplex, phi: TwoTorsionLabeling, p: Piece) -> list[int]:
    """The sheet offset of each junction of the piece's one circle relative
    to junction 0, and last, back at junction 0, the parity of its edge word."""
    h = [0]
    for si, kind in enumerate(p.boundary[0]):
        att = c.attachments.get((p.id, 0, si)) if kind == FREE else None
        h.append(h[-1] ^ (0 if att is None else phi.edge(att[0])))
    return h


def _mirror_wall_pairs(c: Orbicomplex, p: Piece) -> list[tuple[SegRef, str]]:
    """(mirror segment, wall label) at the two mirror|free junctions of a
    fully attached polygon [free, mirror^n, free]: where segment 0 ends and
    where segment n+1 starts.  Validation put both on walls."""
    n = len(p.boundary[0]) - 2
    first = c.seg_endpoints((p.id, 0, 0))[1]
    last = c.seg_endpoints((p.id, 0, n + 1))[0]
    marks = c.graph.marks
    return [((p.id, 0, 1), marks[first][1]), ((p.id, 0, n), marks[last][1])]


def all_ones_labeling(davis: Orbicomplex) -> TwoTorsionLabeling:
    """phi = 1 on every Coxeter generator (all walls and mirror segments)."""
    phi = TwoTorsionLabeling()
    for v, mark in davis.graph.marks.items():
        if is_wall(mark):
            phi.walls[mark[1]] = 1
    for p in davis.pieces:
        for ci, si, kind in p.segments():
            if kind == MIRROR:
                phi.mirrors[(p.id, ci, si)] = 1
    return phi


def _lift_vertex_names(c: Orbicomplex, phi: TwoTorsionLabeling) -> dict[tuple[str, int], str]:
    names = {}
    for v, mark in sorted(c.graph.marks.items()):
        if is_wall(mark) and phi.wall(mark[1]) == 1:
            names[(v, 0)] = names[(v, 1)] = f"{v}.m"
        else:
            names[(v, 0)] = f"{v}.0"
            names[(v, 1)] = f"{v}.1"
    return names


def _smoothed_walls(c: Orbicomplex, phi: TwoTorsionLabeling) -> dict[str, str]:
    """The unfolded walls that lift to no vertex, keyed by their one edge.

    A wall with phi = 1 and exactly one dart would lift to a bivalent plain
    point; the cover carries one edge through it instead.  When one edge
    joins two such walls, only the wall whose lift sorts first is smoothed.
    """
    darts = c.graph.darts_by_vertex()
    out: dict[str, str] = {}
    for v in sorted(c.graph.marks, key=lambda v: f"{v}.m"):
        mark = c.graph.marks[v]
        if is_wall(mark) and phi.wall(mark[1]) == 1 and len(darts[v]) == 1:
            out.setdefault(darts[v][0][0], v)
    return out


Segment = tuple[str, tuple[Step, ...], Optional[tuple[str, int]]]  # kind, steps, attachment


def _join_at_walls(
    circle: list[Segment], joins: dict[tuple[str, int], tuple[str, int]]
) -> list[Segment]:
    """Merge each attached segment that runs into a smoothed wall with the
    attached segment after it; ``joins`` maps the attachment that runs into
    the wall to the merged segment's attachment.  The circle turns by one
    when its last and first segments merge, so no merged pair straddles
    index 0."""
    t = len(circle)
    starts = {
        i for i, (_kind, _steps, att) in enumerate(circle)
        if att in joins and circle[(i + 1) % t][2] is not None
    }
    offset = 1 if t - 1 in starts else 0
    out: list[Segment] = []
    i = 0
    while i < t:
        k = (offset + i) % t
        kind, steps, att = circle[k]
        if k in starts:
            out.append((kind, steps + circle[(k + 1) % t][1], joins[att]))
            i += 2
        else:
            out.append((kind, steps, att))
            i += 1
    return out


def double_cover(c: Orbicomplex, phi: TwoTorsionLabeling) -> tuple[Orbicomplex, CoveringMap]:
    """The degree-2 cover classified by a two-torsion labeling.

    Pieces must be reflection polygons or cone disks.  A piece whose
    boundary parity and cone/mirror values all vanish lifts to two disjoint
    copies; otherwise it lifts connectedly, with phi=0 cones duplicated,
    phi=1 cones smoothed, and mirrors glued across the sheets where phi=1;
    a polygon's glued mirrors must be one run, and its lift is one disk.
    An unfolded wall with one edge downstairs lifts to no vertex: the two
    lifts of its edge form one edge ``c.<wall>``, which maps to a folded
    path of length two, and the piece segments that meet there merge.

    The relators are checked as each piece lifts, after the preconditions:
    a labeling that breaks any raises one NotAHomomorphism naming every
    broken relator, in piece order.
    """
    if not phi.is_surjective():
        raise NotSurjective("labeling is identically zero")
    if not set(phi.values()) <= {0, 1}:
        raise NotAHomomorphism("labeling values must be 0 or 1")
    for p in c.pieces:
        if p.has_mirrors:
            _require_polygon(p)
        else:
            _require_cone_disk(p)
        if not _fully_attached(c, p):
            raise UnsupportedPiece(f"piece {p.id} must be fully attached")

    names = _lift_vertex_names(c, phi)
    wall_of = _smoothed_walls(c, phi)
    smoothed = set(wall_of.values())
    graph = MarkedGraph()
    for v, mark in sorted(c.graph.marks.items()):
        if v in smoothed:
            continue
        if names[(v, 0)] == names[(v, 1)]:
            graph.marks[names[(v, 0)]] = None
        else:
            for s in (0, 1):
                if is_wall(mark):
                    graph.marks[names[(v, s)]] = wall_mark(f"{mark[1]}.{s}")
                else:
                    graph.marks[names[(v, s)]] = mark
    vertex_map = {name: v for (v, _s), name in names.items() if v not in smoothed}

    # one object per lifted edge id, path, shape and attachment value
    edge_name = {(e, s): f"{e}.{s}" for e in c.graph.edges for s in (0, 1)}
    share = sharer()
    edge_map: dict[str, tuple[tuple[str, int], ...]] = {}
    joins: dict[tuple[str, int], tuple[str, int]] = {}
    for e, (u, v) in sorted(c.graph.edges.items()):
        lifts = [(names[(u, s)], names[(v, s ^ phi.edge(e))]) for s in (0, 1)]
        w = wall_of.get(e)
        if w is None:
            path = ((e, 1),)
            for s in (0, 1):
                graph.edges[edge_name[e, s]] = lifts[s]
                edge_map[edge_name[e, s]] = path
            continue
        # one edge through the smoothed wall w: in along one lift, out along the other
        into = 1 if v == w else -1
        tail = 0 if into == 1 else 1
        name = f"c.{w}"
        graph.edges[name] = (lifts[0][tail], lifts[1][tail])
        edge_map[name] = ((e, into), (e, -into))
        joins[(edge_name[e, 0], into)] = (name, 1)
        joins[(edge_name[e, 1], into)] = (name, -1)

    pieces: list[Piece] = []
    attachments: dict[SegRef, tuple[str, int]] = {}
    piece_map: dict[str, tuple[str, int]] = {}
    segmap: dict[SegRef, tuple[Step, ...]] = {}
    cone_fibers: dict[tuple[str, int], list[tuple]] = {}

    def install(
        pid: str, base: Piece, genus: int, circles: list[list[Segment]],
        cones: tuple[int, ...], local_degree: int,
    ) -> None:
        circles = [_join_at_walls(circ, joins) for circ in circles]
        boundary = tuple(tuple(kind for kind, _steps, _att in circ) for circ in circles)
        pieces.append(Piece(pid, genus, share(boundary), share(cones)))
        piece_map[pid] = (base.id, local_degree)
        for ci, circ in enumerate(circles):
            for si, (_kind, steps, att) in enumerate(circ):
                ref = (pid, ci, si)
                segmap[ref] = share(steps)
                if att is not None:
                    attachments[ref] = att

    problems: list[str] = []
    for p in c.pieces:
        circle = p.boundary[0]
        t = len(circle)
        h = _sheet_offsets(c, phi, p)

        def lift(si: int, sheet: int, direction: int) -> Segment:
            """Segment si on ``sheet``, traversed in ``direction``."""
            att = c.attachments.get((p.id, 0, si))
            if att is not None:
                e, d = att
                tail_sheet = sheet ^ (h[si] if direction == 1 else h[si + 1])
                i = tail_sheet if d * direction == 1 else tail_sheet ^ phi.edge(e)
                att = share((edge_name[e, i], d * direction))
            return (circle[si], share(((0, si, direction),)), att)

        def lift_to_two_copies() -> None:
            for s in (0, 1):
                pid2 = f"{p.id}.{s}"
                install(pid2, p, 0, [[lift(si, s, 1) for si in range(t)]], p.cones, 1)
                for j in range(len(p.cones)):
                    cone_fibers.setdefault((p.id, j), []).append(("cone", pid2, j))

        if p.has_mirrors:
            for ref, label in _mirror_wall_pairs(c, p):
                if phi.mirror(ref) != phi.wall(label):
                    problems.append(f"mirror {ref} disagrees with wall {label!r}")
            glued = [si for si in range(1, t - 1) if phi.mirror((p.id, 0, si)) == 1]
            if glued and glued[-1] - glued[0] >= len(glued):
                # not one run: the mirrors between two runs lift to a circle of their own
                problems.append(f"polygon {p.id}: glued mirrors leave a lift of mirrors only")
            if h[-1] != 0:
                problems.append(f"polygon {p.id}: boundary edge word has parity 1")
            if problems:
                continue
            if not glued:
                lift_to_two_copies()
                continue
            circ: list[Segment] = []
            for si, sheet in _polygon_lift(t - 2, glued):
                kind, steps, att = lift(si, sheet, 1 - 2 * sheet)
                if kind == MIRROR and circ and circ[-1][1][0][1] == si:
                    # the mirror beside an end of the run, crossed on both sheets in a row
                    circ[-1] = (MIRROR, circ[-1][1] + steps, None)
                else:
                    circ.append((kind, steps, att))
            # two disks glued along arcs stay planar
            install(f"{p.id}.01", p, 0, [circ], (2,) * (len(glued) - 1), 2)
        else:
            cone_vals = [phi.cone(p.id, j) for j in range(len(p.cones))]
            parity, cone_parity = h[-1], sum(cone_vals) % 2
            if parity != cone_parity:
                problems.append(f"piece {p.id}: boundary parity {parity} != cone parity {cone_parity}")
            if problems:
                continue
            if parity == 0 and not any(cone_vals):
                lift_to_two_copies()
                continue
            genus2, cones2, fibers = _cone_disk_double(p, f"{p.id}.01", cone_vals)
            sheets = [[lift(si, s, 1) for si in range(t)] for s in (0, 1)]
            # parity 1: one circle, two laps; parity 0: one circle per sheet
            circles = [sheets[0] + sheets[1]] if parity == 1 else sheets
            install(f"{p.id}.01", p, genus2, circles, cones2, 2)
            cone_fibers.update(fibers)
    if problems:
        raise NotAHomomorphism("; ".join(problems))

    cover_cx = Orbicomplex(
        pieces=pieces, graph=graph, attachments=attachments,
        rotation=derive_rotation(graph, pieces, attachments),
    )
    f = CoveringMap(
        source=cover_cx,
        target=c,
        degree=2,
        vertex_map=vertex_map,
        edge_map=edge_map,
        piece_map=piece_map,
        segment_map=segmap,
        cone_fibers=cone_fibers,
    )
    return cover_cx, f


def davis_double_cover(davis: Orbicomplex) -> tuple[Orbicomplex, CoveringMap]:
    """The degree-2 cover of a Davis orbicomplex in which every polygon
    unfolds to a cone disk: the kernel of the all-ones labeling.

    The glued star unfolds to a two-vertex banana graph, ``hub.0`` and
    ``hub.1`` joined by one edge ``c.<wall>`` per reflection wall; the
    polygon p over a branch with n mirrors becomes the disk ``p.01`` with
    n-1 cones, whose boundary reads the edge of its first wall, then the
    edge of its last wall reversed, double-covering the two glued half-edges.
    """
    return double_cover(davis, all_ones_labeling(davis))


def derive_rotation(
    graph: MarkedGraph, pieces: list[Piece], attachments: dict[SegRef, tuple[str, int]]
) -> Optional[dict[str, list[tuple[str, int]]]]:
    """Canonical ribbon structure whose faces are the attachment circuits,
    when one exists (each distinct circuit counted once)."""
    if not graph.edges:
        return None
    if len(attachments) != sum(len(circle) for p in pieces for circle in p.boundary):
        return None
    distinct: dict[tuple, list[tuple[str, int]]] = {}
    # every segment is attached, so every circle has a circuit
    for p in sorted(pieces, key=lambda p: p.id):
        for ci in range(len(p.boundary)):
            walk = attachment_circuit(attachments, p, ci)
            distinct.setdefault(_canonical_cycle(walk), walk)
    reps = [distinct[k] for k in sorted(distinct)]
    return rotation_from_circuits(graph, reps)


# ---------------------------------------------------------------------------
# enumeration of the canonical double-cover family


def enumerate_double_covers(
    c: Orbicomplex,
) -> list[tuple[TwoTorsionLabeling, Orbicomplex, CoveringMap]]:
    """All connected double covers in the canonical family: every nonzero
    labeling of the non-forest edges, completed on cones by the first-cone
    rule (parity-0 circles get all-zero cones, parity-1 circles smooth
    exactly the first cone)."""
    if any(p.has_mirrors for p in c.pieces):
        raise MirrorsPresent("canonical enumeration needs cone pieces only")
    for p in c.pieces:
        _require_cone_disk(p)
    forest = c.graph.spanning_forest()
    free_edges = [e for e in c.graph.edge_ids() if e not in forest]
    out = []
    for bits in itertools.product((0, 1), repeat=len(free_edges)):
        if not any(bits):
            continue
        phi = TwoTorsionLabeling(edges=dict(zip(free_edges, bits)))
        for p in c.pieces:
            if _sheet_offsets(c, phi, p)[-1] == 1:
                phi.cones[(p.id, 0)] = 1
        cover, f = double_cover(c, phi)
        out.append((phi, cover, f))
    return out
