"""Combinatorial 2-dimensional orbicomplexes.

An orbicomplex here is a collection of compact orientable 2-orbifold pieces
(disks with mirror boundary segments and/or cone points, or surfaces with
boundary) glued along the free segments of their boundaries to a finite
marked graph.  Everything is exact: Euler characteristics are
`fractions.Fraction`, never floats.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from types import MappingProxyType
from typing import Callable, Iterator, Optional

from .graphs import (
    RAM2,
    MalformedRotation,
    MarkedGraph,
    OrbicoverError,
    check_rotation,
    is_wall,
    local_order,
    reverse_walk,
)

# re-exported for compatibility: callers read these as orbicore.<name>
from .graphs import (  # noqa: F401
    graph_to_dot,
    iter_marked_graph_isomorphisms,
    mark_kind,
    marked_graph_isomorphism,
    ribbon_neighborhood,
    rotation_from_circuits,
    topological_form,
    wall_mark,
)

MIRROR = "mirror"
FREE = "free"


class InvalidComplex(OrbicoverError):
    pass


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class Piece:
    """A compact orientable 2-orbifold with boundary.

    ``boundary`` is a tuple of circles, each a cyclic tuple of segment kinds
    (``"mirror"`` or ``"free"``).  Adjacent mirror|mirror junctions are
    right-angled corner reflectors (stabilizer order 4), mirror|free
    junctions are reflection points (order 2).  ``cones`` lists interior
    cone-point orders.
    """

    id: str
    genus: int = 0
    boundary: tuple[tuple[str, ...], ...] = ()
    cones: tuple[int, ...] = ()

    def segments(self) -> Iterator[tuple[int, int, str]]:
        for ci, circle in enumerate(self.boundary):
            for si, kind in enumerate(circle):
                yield ci, si, kind

    @property
    def has_mirrors(self) -> bool:
        return any(MIRROR in circle for circle in self.boundary)


def disk_with_cones(pid: str, n_cones: int, n_segments: int = 1) -> Piece:
    """D^2(2,...,2): a disk with `n_cones` order-2 cone points and a free
    boundary circle split into `n_segments` segments."""
    return Piece(
        id=pid,
        genus=0,
        boundary=((FREE,) * n_segments,),
        cones=(2,) * n_cones,
    )


def surface_with_boundary(pid: str, genus: int, n_circles: int) -> Piece:
    return Piece(
        id=pid,
        genus=genus,
        boundary=tuple((FREE,) for _ in range(n_circles)),
        cones=(),
    )


def sharer() -> Callable:
    """A function that returns, for each value it is given, the first equal
    value it was given: equal immutable values become one object, for as
    long as the function is kept.  Give it only hashable values whose parts
    are exact ints and strings, as 1, 1.0 and True are equal."""
    table: dict = {}

    def share(value):
        return table.setdefault(value, value)

    return share


SegRef = tuple[str, int, int]  # (piece id, circle index, segment index)


@dataclass(frozen=True)
class Orbicomplex:
    """Pieces attached along free boundary segments to a marked graph.

    ``attachments`` maps a free segment (piece, circle, seg) to a directed
    graph edge (edge id, +1 or -1); +1 traverses ends[0] -> ends[1].  The
    optional ``rotation`` is a ribbon structure on the attaching graph
    (vertex -> cyclic tuple of darts), carried by the built-in constructions
    so planar normal forms need no external input.

    A complex is validated once, when it is built, and cannot change after
    that: its fields are frozen and its mappings are read-only copies of
    what the caller passed.  An edge multiplicity the caller leaves out is
    the number of segments attached along the edge; one the caller gives is
    checked, and so is a rotation.  An invalid complex raises
    InvalidComplex naming every violation.
    """

    pieces: tuple[Piece, ...] = ()
    graph: MarkedGraph = field(default_factory=MarkedGraph)
    attachments: Mapping[SegRef, tuple[str, int]] = field(default_factory=dict)
    rotation: Optional[Mapping[str, tuple[tuple[str, int], ...]]] = None
    pieces_by_id: Mapping[str, Piece] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        attached = Counter(e for e, _d in self.attachments.values())
        given = self.graph.multiplicity
        graph = MarkedGraph(
            MappingProxyType(dict(self.graph.marks)),
            MappingProxyType(dict(self.graph.edges)),
            MappingProxyType({e: given.get(e, attached[e]) for e in self.graph.edges}),
        )
        rotation = None if self.rotation is None else MappingProxyType(
            {v: tuple(cyc) for v, cyc in self.rotation.items()}
        )
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "attachments", MappingProxyType(dict(self.attachments)))
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "pieces_by_id", MappingProxyType({p.id: p for p in self.pieces}))
        violations = validate_complex(self)
        if violations:
            raise InvalidComplex("; ".join(str(v) for v in violations))

    def __copy__(self) -> "Orbicomplex":
        return self

    def __deepcopy__(self, memo) -> "Orbicomplex":
        return self

    def piece(self, pid: str) -> Piece:
        return self.pieces_by_id[pid]

    @cached_property
    def euler(self) -> Fraction:
        """Exact orbifold Euler characteristic: the graph's 4 quarters per
        vertex of local order 1, 2 per vertex of order 2 and -4 per edge,
        plus each piece shape's χ times its count, plus a seam term.  Gluing
        a segment adds +4 and turns each junction beside it into -4: 0 in
        all, less 2 per side whose neighbour is a free unattached segment.
        The complex cannot change, so this is computed on first use only."""
        graph, attachments, pieces_by_id = self.graph, self.attachments, self.pieces_by_id
        quarters = sum(4 // local_order(m) for m in graph.marks.values()) - 4 * len(graph.edges)
        for pid, ci, si in attachments:
            circle = pieces_by_id[pid].boundary[ci]
            t = len(circle)
            for sj in ((si - 1) % t, (si + 1) % t):
                if circle[sj] == FREE and (pid, ci, sj) not in attachments:
                    quarters -= 2
        shapes = Counter((p.genus, p.boundary, p.cones) for p in self.pieces)
        pieces = (n * piece_orbifold_euler(Piece("", *shape)) for shape, n in shapes.items())
        return sum(pieces, Fraction(quarters, 4))

    def seg_endpoints(self, ref: SegRef) -> Optional[tuple[str, str]]:
        """Graph vertices at the start/end of an attached segment, in the
        circle's traversal direction; None if unattached or dangling."""
        att = self.attachments.get(ref)
        if att is None or att[0] not in self.graph.edges:
            return None
        return directed_ends(self.graph, *att)


def directed_ends(graph: MarkedGraph, edge: str, direction: int) -> tuple[str, str]:
    u, v = graph.edges[edge]
    return (u, v) if direction == 1 else (v, u)


# ---------------------------------------------------------------------------
# validation


def validate_complex(c: Orbicomplex) -> list[Violation]:
    """Check every type invariant; an empty list means the complex is valid."""
    out: list[Violation] = []
    by_id: dict[str, Piece] = {}
    for p in c.pieces:
        if p.id in by_id:
            out.append(Violation("DuplicatePieceId", p.id))
        by_id.setdefault(p.id, p)
        if p.genus < 0:
            out.append(Violation("NegativeGenus", p.id))
        for m in p.cones:
            if m < 2:
                out.append(Violation("BadConeOrder", f"{p.id}: order {m}"))
        for ci, circle in enumerate(p.boundary):
            if not circle:
                out.append(Violation("EmptyBoundaryCircle", f"{p.id} circle {ci}"))
            if circle.count(MIRROR) + circle.count(FREE) < len(circle):
                for si, kind in enumerate(circle):
                    if kind not in (MIRROR, FREE):
                        out.append(Violation("UnknownSegmentKind", f"{p.id} circle {ci} segment {si}: {kind!r}"))
        if p.has_mirrors:
            if p.genus != 0:
                out.append(Violation("MirrorOnPositiveGenus", p.id))
            if len(p.boundary) != 1:
                out.append(Violation("MirrorMultiCircle", p.id))

    edges, marks, attachments = c.graph.edges, c.graph.marks, c.attachments
    for e, (u, v) in edges.items():
        if u not in marks or v not in marks:
            out.append(Violation("DanglingEdge", e))

    counted = {e: 0 for e in edges}
    failed: list[tuple[SegRef, Violation]] = []
    for ref, (e, d) in attachments.items():
        pid, ci, si = ref
        boundary = by_id[pid].boundary if pid in by_id else ()
        if not (0 <= ci < len(boundary) and 0 <= si < len(boundary[ci])):
            failed.append((ref, Violation("UnknownSegment", str(ref))))
        elif boundary[ci][si] == MIRROR:
            failed.append((ref, Violation("MirrorAttached", str(ref))))
        elif e not in edges:
            failed.append((ref, Violation("DanglingAttachment", f"{ref} -> {e!r}")))
        elif d not in (1, -1):
            failed.append((ref, Violation("BadDirection", f"{ref} -> {d}")))
        else:
            counted[e] += 1
    # only the failing attachments are sorted, into the order of their refs
    failed.sort(key=lambda item: item[0])
    out += [v for _ref, v in failed]

    for e, n in sorted(counted.items()):
        stored = c.graph.multiplicity.get(e, 0)
        if stored != n:
            out.append(Violation("WrongMultiplicity", f"{e}: stored {stored}, attached {n}"))

    # endpoint compatibility around each circle: the graph vertices at the
    # start and end of each attached segment, as ``seg_endpoints`` reads them
    for p in c.pieces:
        pid = p.id
        for ci, circle in enumerate(p.boundary):
            t = len(circle)
            ends: list[Optional[tuple[str, str]]] = []
            for si, kind in enumerate(circle):
                att = attachments.get((pid, ci, si)) if kind == FREE else None
                if att is None or att[0] not in edges:
                    ends.append(None)
                else:
                    u, v = edges[att[0]]
                    ends.append((u, v) if att[1] == 1 else (v, u))
            for si in range(t):
                sj = (si + 1) % t
                ki, kj = circle[si], circle[sj]
                ends_i, ends_j = ends[si], ends[sj]
                if ends_i and ends_j and ends_i[1] != ends_j[0]:
                    out.append(
                        Violation(
                            "BrokenAttachmentPath",
                            f"{pid} circle {ci}: segment {si} ends at "
                            f"{ends_i[1]}, segment {sj} starts at {ends_j[0]}",
                        )
                    )
                # mirror|free junctions of attached segments sit on walls
                if ki == MIRROR and kj == FREE and ends_j:
                    if not is_wall(marks.get(ends_j[0])):
                        out.append(Violation("UnmarkedWallJunction", f"{pid} circle {ci} junction {sj}"))
                if ki == FREE and kj == MIRROR and ends_i:
                    if not is_wall(marks.get(ends_i[1])):
                        out.append(Violation("UnmarkedWallJunction", f"{pid} circle {ci} junction {sj}"))

    if c.rotation is not None:
        try:
            check_rotation(c.graph, c.rotation)
        except MalformedRotation as exc:
            out.append(Violation("MalformedRotation", str(exc)))
    return out


# ---------------------------------------------------------------------------
# Euler characteristics


def piece_orbifold_euler(p: Piece) -> Fraction:
    """Orbifold Euler characteristic of a single piece: the one χ rule.

    Counted in quarters against the plain surface's 2 - 2g - b: a mirror
    segment (weight 1/2) +2, a corner (1/4) -3, a reflection junction (1/2)
    -2.  A cone of order m subtracts 1 - 1/m, over one common denominator.
    """
    quarters = 4 * (2 - 2 * p.genus - len(p.boundary))
    for circle in p.boundary:
        for si, kind in enumerate(circle):
            # segment si, then the junction between segments si-1 and si
            mirrors = (kind == MIRROR) + (circle[si - 1] == MIRROR)
            quarters += 2 * (kind == MIRROR) - (0, 2, 3)[mirrors]
    den = 4 * lcm(*p.cones)
    return Fraction(quarters * den // 4 - sum((m - 1) * den // m for m in p.cones), den)


def euler_characteristic(c: Orbicomplex) -> Fraction:
    """Exact orbifold Euler characteristic of the glued complex, computed
    once per complex (``Orbicomplex.euler``)."""
    return c.euler


# ---------------------------------------------------------------------------
# singular subspace


def singular_subspace(c: Orbicomplex) -> MarkedGraph:
    """The attaching graph with multiplicities, wall vertices reported as
    order-2 ramification points; its edges are the complex's, read-only."""
    return replace(c.graph, marks={v: (RAM2 if is_wall(m) else m) for v, m in c.graph.marks.items()})


# ---------------------------------------------------------------------------
# attachment circuits


def attachment_circuit(
    attachments: Mapping[SegRef, tuple[str, int]], p: Piece, ci: int
) -> Optional[list[tuple[str, int]]]:
    """The closed edge walk along which a fully-attached free circle is
    glued, or None if the circle has mirrors or unattached segments."""
    walk = []
    for si, kind in enumerate(p.boundary[ci]):
        if kind != FREE:
            return None
        att = attachments.get((p.id, ci, si))
        if att is None:
            return None
        walk.append(att)
    return walk


def _canonical_cycle(walk: list[tuple[str, int]]) -> tuple:
    """Minimal representative of a closed walk up to rotation and reversal."""
    variants = []
    n = len(walk)
    for w in (walk, reverse_walk(walk)):
        for r in range(n):
            variants.append(tuple(w[r:] + w[:r]))
    return min(variants)
