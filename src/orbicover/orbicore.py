"""Combinatorial 2-dimensional orbicomplexes.

An orbicomplex here is a collection of compact orientable 2-orbifold pieces
(disks with mirror boundary segments and/or cone points, or surfaces with
boundary) glued along the free segments of their boundaries to a finite
marked graph.  Everything is exact: Euler characteristics are
`fractions.Fraction`, never floats.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

MIRROR = "mirror"
FREE = "free"

# Vertex marks.  A wall mark records the reflection wall created by gluing
# polygon ends; ram2 marks order-2 ramification points of singular subspaces.
RAM2 = "ram2"


def wall_mark(label: str) -> tuple[str, str]:
    return ("wall", label)


def is_wall(mark) -> bool:
    return isinstance(mark, tuple) and mark[0] == "wall"


def mark_kind(mark) -> int:
    if mark is None:
        return 0
    if mark == RAM2:
        return 1
    if is_wall(mark):
        return 2
    raise ValueError(f"unknown mark {mark!r}")


def local_order(mark) -> int:
    """Order of the local stabilizer at a graph vertex with this mark."""
    return 1 if mark is None else 2


class OrbicoverError(Exception):
    pass


class InvalidComplex(OrbicoverError):
    pass


class MalformedRotation(OrbicoverError):
    pass


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def _circle_profile(circle: tuple[str, ...]) -> tuple:
    """Homeomorphism-invariant profile of a boundary circle: the cyclic
    mirror-run lengths (free-segment subdivision is not intrinsic)."""
    if MIRROR not in circle:
        return ("free",)
    if FREE not in circle:
        return ("mirror-circle", len(circle))
    t = len(circle)
    start = circle.index(FREE)
    runs: list[int] = []
    run = 0
    for i in range(t):
        if circle[(start + i) % t] == MIRROR:
            run += 1
        elif run:
            runs.append(run)
            run = 0
    if run:
        runs.append(run)
    variants = []
    for seq in (runs, list(reversed(runs))):
        for r in range(len(seq)):
            variants.append(tuple(seq[r:] + seq[:r]))
    return ("runs",) + min(variants)


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
        return any(k == MIRROR for _, _, k in self.segments())

    def census_key(self) -> tuple:
        """Homeomorphism-type key: genus, per-circle mirror structure (free
        subdivisions collapsed), cone orders."""
        circles = tuple(sorted(_circle_profile(c) for c in self.boundary))
        return (self.genus, circles, tuple(sorted(self.cones)))


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


@dataclass
class MarkedGraph:
    """Finite multigraph with vertex marks and edge multiplicities.

    ``marks`` maps vertex id -> mark (None, "ram2", or ("wall", label)), its
    key set is the vertex set.  ``edges`` maps edge id -> (u, v); loops are
    allowed.  ``multiplicity`` counts the piece segments attached along each
    edge (0 for bare graphs).
    """

    marks: dict[str, object] = field(default_factory=dict)
    edges: dict[str, tuple[str, str]] = field(default_factory=dict)
    multiplicity: dict[str, int] = field(default_factory=dict)

    def vertices(self) -> list[str]:
        return sorted(self.marks)

    def edge_ids(self) -> list[str]:
        return sorted(self.edges)

    def copy(self) -> "MarkedGraph":
        return MarkedGraph(dict(self.marks), dict(self.edges), dict(self.multiplicity))

    def darts(self) -> list[tuple[str, int]]:
        """All darts (edge, end); dart (e, i) is traversed ends[i] -> ends[1-i]."""
        return [(e, i) for e in self.edge_ids() for i in (0, 1)]

    def dart_tail(self, d: tuple[str, int]) -> str:
        e, i = d
        return self.edges[e][i]

    def darts_by_vertex(self) -> dict[str, list[tuple[str, int]]]:
        """The darts leaving each vertex, in dart order; a loop leaves its
        vertex twice.  Built on each call: the constructions fill a graph
        once and leave it, and ``topological_form`` rebuilds it after each
        edit of its own copy."""
        out: dict[str, list[tuple[str, int]]] = {v: [] for v in self.vertices()}
        for d in self.darts():
            out.setdefault(self.dart_tail(d), []).append(d)
        return out

    def _search(self) -> tuple[list[set[str]], set[str]]:
        """Breadth-first search from the least vertex of each component,
        darts in order: the components and the edges of the search forest."""
        darts = self.darts_by_vertex()
        seen: set[str] = set()
        comps: list[set[str]] = []
        forest: set[str] = set()
        for root in self.vertices():
            if root in seen:
                continue
            seen.add(root)
            comp = {root}
            queue = deque([root])
            while queue:
                for e, i in darts[queue.popleft()]:
                    w = self.edges[e][1 - i]
                    if w not in seen:
                        seen.add(w)
                        comp.add(w)
                        forest.add(e)
                        queue.append(w)
            comps.append(comp)
        return comps, forest

    def components(self) -> list[set[str]]:
        return self._search()[0]

    def spanning_forest(self) -> set[str]:
        """Deterministic BFS forest from the least vertex of each component."""
        return self._search()[1]

    def induced(self, verts: set[str]) -> "MarkedGraph":
        return MarkedGraph(
            {v: m for v, m in self.marks.items() if v in verts},
            {e: uv for e, uv in self.edges.items() if uv[0] in verts},
            {e: m for e, m in self.multiplicity.items() if self.edges[e][0] in verts},
        )


SegRef = tuple[str, int, int]  # (piece id, circle index, segment index)


@dataclass
class Orbicomplex:
    """Pieces attached along free boundary segments to a marked graph.

    ``attachments`` maps a free segment (piece, circle, seg) to a directed
    graph edge (edge id, +1 or -1); +1 traverses ends[0] -> ends[1].  The
    optional ``rotation`` is a ribbon structure on the attaching graph
    (vertex -> cyclic dart list), carried by the built-in constructions so
    planar normal forms need no external input.

    The library's constructors return valid complexes and everything else
    assumes one: a complex built by hand must pass ``require_valid`` first
    (``coxeter.davis_orbicomplex``, ``serialize.orbicomplex_from_json`` and
    ``verify_covering`` call it).
    """

    pieces: list[Piece] = field(default_factory=list)
    graph: MarkedGraph = field(default_factory=MarkedGraph)
    attachments: dict[SegRef, tuple[str, int]] = field(default_factory=dict)
    rotation: Optional[dict[str, list[tuple[str, int]]]] = None

    def piece(self, pid: str) -> Piece:
        for p in self.pieces:
            if p.id == pid:
                return p
        raise KeyError(pid)

    def census(self) -> dict[tuple, int]:
        out: dict[tuple, int] = {}
        for p in self.pieces:
            key = p.census_key()
            out[key] = out.get(key, 0) + 1
        return out

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


def recompute_multiplicities(c: Orbicomplex) -> None:
    mult = {e: 0 for e in c.graph.edges}
    for (e, _d) in c.attachments.values():
        if e in mult:
            mult[e] += 1
    c.graph.multiplicity = mult


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
        for ci, si, kind in p.segments():
            if kind not in (MIRROR, FREE):
                out.append(Violation("UnknownSegmentKind", f"{p.id} circle {ci} segment {si}: {kind!r}"))
        if p.has_mirrors:
            if p.genus != 0:
                out.append(Violation("MirrorOnPositiveGenus", p.id))
            if len(p.boundary) != 1:
                out.append(Violation("MirrorMultiCircle", p.id))

    for e, (u, v) in c.graph.edges.items():
        if u not in c.graph.marks or v not in c.graph.marks:
            out.append(Violation("DanglingEdge", e))

    counted = {e: 0 for e in c.graph.edges}
    for ref, (e, d) in sorted(c.attachments.items()):
        pid, ci, si = ref
        boundary = by_id[pid].boundary if pid in by_id else ()
        if not (0 <= ci < len(boundary) and 0 <= si < len(boundary[ci])):
            out.append(Violation("UnknownSegment", str(ref)))
            continue
        kind = boundary[ci][si]
        if kind == MIRROR:
            out.append(Violation("MirrorAttached", str(ref)))
            continue
        if e not in c.graph.edges:
            out.append(Violation("DanglingAttachment", f"{ref} -> {e!r}"))
            continue
        if d not in (1, -1):
            out.append(Violation("BadDirection", f"{ref} -> {d}"))
            continue
        counted[e] += 1

    for e, n in sorted(counted.items()):
        stored = c.graph.multiplicity.get(e, 0)
        if stored != n:
            out.append(Violation("WrongMultiplicity", f"{e}: stored {stored}, attached {n}"))

    # endpoint compatibility around each circle
    for p in c.pieces:
        for ci, circle in enumerate(p.boundary):
            t = len(circle)
            for si in range(t):
                sj = (si + 1) % t
                ref_i, ref_j = (p.id, ci, si), (p.id, ci, sj)
                ki, kj = circle[si], circle[sj]
                ends_i = c.seg_endpoints(ref_i) if ki == FREE else None
                ends_j = c.seg_endpoints(ref_j) if kj == FREE else None
                if ends_i and ends_j and ends_i[1] != ends_j[0]:
                    out.append(
                        Violation(
                            "BrokenAttachmentPath",
                            f"{p.id} circle {ci}: segment {si} ends at "
                            f"{ends_i[1]}, segment {sj} starts at {ends_j[0]}",
                        )
                    )
                # mirror|free junctions of attached segments sit on walls
                if ki == MIRROR and kj == FREE and ends_j:
                    if not is_wall(c.graph.marks.get(ends_j[0])):
                        out.append(Violation("UnmarkedWallJunction", f"{p.id} circle {ci} junction {sj}"))
                if ki == FREE and kj == MIRROR and ends_i:
                    if not is_wall(c.graph.marks.get(ends_i[1])):
                        out.append(Violation("UnmarkedWallJunction", f"{p.id} circle {ci} junction {sj}"))
    return out


def require_valid(c: Orbicomplex) -> None:
    violations = validate_complex(c)
    if violations:
        raise InvalidComplex("; ".join(str(v) for v in violations))


# ---------------------------------------------------------------------------
# Euler characteristics


def piece_orbifold_euler(p: Piece) -> Fraction:
    """Orbifold Euler characteristic of a single piece.

    Weighted-cell bookkeeping relative to the plain surface characteristic
    2 - 2g - b: each mirror segment carries weight 1/2 (correction +1/2),
    each right-angled corner 1/4 (-3/4), each reflection junction 1/2
    (-1/2), each order-m cone 1/m (-(1 - 1/m)).  The boundary terms are
    counted in quarters and the k cones of each order m in one fraction.
    """
    quarters = 4 * (2 - 2 * p.genus - len(p.boundary))
    for circle in p.boundary:
        for prev, kind in zip(circle[-1:] + circle[:-1], circle):
            if kind == MIRROR:
                quarters += 2
            if prev == MIRROR and kind == MIRROR:
                quarters -= 3
            elif MIRROR in (prev, kind):
                quarters -= 2
    chi = Fraction(quarters, 4)
    for m, k in Counter(p.cones).items():
        chi -= Fraction(k * (m - 1), m)
    return chi


def graph_euler(g: MarkedGraph) -> Fraction:
    """Euler characteristic of the graph with wall vertices weighted 1/2."""
    chi = Fraction(0)
    for v, mark in g.marks.items():
        chi += Fraction(1, local_order(mark))
    chi -= len(g.edges)
    return chi


def euler_characteristic(c: Orbicomplex) -> Fraction:
    """Exact orbifold Euler characteristic of the glued complex.

    Inclusion-exclusion: graph + pieces, minus one copy of every cell
    identified by the attaching maps (attached free segments and the
    junction vertices they touch, wall junctions weighted 1/2).
    """
    chi = graph_euler(c.graph)
    for p in c.pieces:
        chi += piece_orbifold_euler(p)
        for ci, circle in enumerate(p.boundary):
            t = len(circle)
            attached = [si for si in range(t) if (p.id, ci, si) in c.attachments]
            chi += len(attached)
            for j in range(t):
                # junction j sits between segments j-1 and j
                prev_ref, next_ref = (p.id, ci, (j - 1) % t), (p.id, ci, j)
                if prev_ref not in c.attachments and next_ref not in c.attachments:
                    continue
                kinds = (circle[(j - 1) % t], circle[j])
                weight = Fraction(1, 2) if MIRROR in kinds else Fraction(1)
                chi -= weight
    return chi


# ---------------------------------------------------------------------------
# singular subspace


def singular_subspace(c: Orbicomplex) -> MarkedGraph:
    """The attaching graph with multiplicities, wall vertices reported as
    order-2 ramification points."""
    g = c.graph.copy()
    g.marks = {v: (RAM2 if is_wall(m) else m) for v, m in g.marks.items()}
    return g


# ---------------------------------------------------------------------------
# topological form (suppression of bivalent vertices)


def topological_form(g: MarkedGraph) -> MarkedGraph:
    """Suppress unmarked valence-2 vertices whose two incident edges carry
    equal multiplicity, merging the edges.  Idempotent; preserves the
    homeomorphism type of the marked graph."""
    g = g.copy()
    changed = True
    while changed:
        changed = False
        darts = g.darts_by_vertex()
        for v in g.vertices():
            if g.marks[v] is not None or len(darts[v]) != 2:
                continue
            (e1, i1), (e2, i2) = darts[v]
            if e1 == e2:
                continue  # a loop at v is not suppressible
            if g.multiplicity.get(e1, 0) != g.multiplicity.get(e2, 0):
                continue
            a, b = g.edges[e1][1 - i1], g.edges[e2][1 - i2]
            mult = g.multiplicity.get(e1, 0)
            del g.edges[e1], g.edges[e2]
            g.multiplicity.pop(e2, None)
            del g.marks[v]
            g.edges[e1] = (a, b)
            g.multiplicity[e1] = mult
            changed = True
            break
    return g


# ---------------------------------------------------------------------------
# marked graph isomorphism


def _pair_profile(g: MarkedGraph, comp: set[str]) -> dict[tuple[str, str], list[int]]:
    """Sorted endpoint pair -> sorted multiplicities of the edges joining
    them, over the edges of one component (loops as (v, v))."""
    out: dict[tuple[str, str], list[int]] = {}
    for e, (u, v) in g.edges.items():
        if u in comp:
            out.setdefault(tuple(sorted((u, v))), []).append(g.multiplicity.get(e, 0))
    for mults in out.values():
        mults.sort()
    return out


def _refined_signatures(g: MarkedGraph, verts: list[str]) -> dict[str, tuple]:
    """Vertex colors refined by iterated neighborhood structure."""
    darts = g.darts_by_vertex()
    adj: dict[str, list[tuple[str, int, int]]] = {v: [] for v in verts}
    for v in verts:
        for e, i in darts[v]:
            u = g.edges[e][1 - i]
            if u != v or i == 0:  # a loop is listed once
                adj[v].append((u, g.multiplicity.get(e, 0), int(u == v)))
    sig = {v: (mark_kind(g.marks[v]), tuple(sorted((m, lp) for _u, m, lp in adj[v])))
           for v in verts}
    for _round in range(len(verts)):
        nxt = {
            v: (sig[v], tuple(sorted((m, lp, sig[u]) for u, m, lp in adj[v])))
            for v in verts
        }
        if len(set(nxt.values())) == len(set(sig.values())):
            sig = nxt
            break
        sig = nxt
    # compress to stable small keys
    order = sorted(set(sig.values()))
    rank = {s: i for i, s in enumerate(order)}
    return {v: (rank[s],) for v, s in sig.items()}


def _component_key(g: MarkedGraph, comp: set[str]) -> tuple:
    profile = _pair_profile(g, comp)
    return (
        len(comp),
        sum(map(len, profile.values())),
        tuple(sorted(mark_kind(g.marks[v]) for v in comp)),
        tuple(sorted(map(tuple, profile.values()))),
    )


def _component_isos(
    g1: MarkedGraph, c1: set[str], g2: MarkedGraph, c2: set[str]
) -> Iterator[dict[str, str]]:
    verts1, verts2 = sorted(c1), sorted(c2)
    if len(verts1) != len(verts2):
        return
    sig1 = _refined_signatures(g1, verts1)
    sig2 = _refined_signatures(g2, verts2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return

    darts1, darts2 = g1.darts_by_vertex(), g2.darts_by_vertex()
    adj1 = {v: {g1.edges[e][1 - i] for e, i in darts1[v]} for v in verts1}
    adj2 = {w: {g2.edges[e][1 - i] for e, i in darts2[w]} for w in verts2}
    between1, between2 = _pair_profile(g1, c1), _pair_profile(g2, c2)

    def same_edges(v: str, u: str, w: str, x: str) -> bool:
        """Edges v--u in g1 and w--x in g2 agree in number and multiplicity."""
        return (between1.get(tuple(sorted((v, u))), [])
                == between2.get(tuple(sorted((w, x))), []))

    # BFS order so every vertex after the root touches a mapped one
    freq: dict[tuple, int] = {}
    for v in verts1:
        freq[sig1[v]] = freq.get(sig1[v], 0) + 1
    root = min(verts1, key=lambda v: (freq[sig1[v]], v))
    order = [root]
    seen = {root}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for u in sorted(adj1[v]):
            if u not in seen:
                seen.add(u)
                order.append(u)
                queue.append(u)

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def extend(i: int) -> Iterator[dict[str, str]]:
        if i == len(order):
            yield dict(mapping)
            return
        v = order[i]
        anchors = [u for u in adj1[v] if u in mapping]
        if anchors:
            cands = set.intersection(*(adj2[mapping[u]] for u in anchors))
        else:
            cands = set(verts2)
        for w in sorted(cands):
            if w in used or sig2[w] != sig1[v]:
                continue
            if not same_edges(v, v, w, w):
                continue
            if not all(same_edges(v, u, w, mapping[u]) for u in mapping):
                continue
            mapping[v] = w
            used.add(w)
            yield from extend(i + 1)
            del mapping[v]
            used.remove(w)

    yield from extend(0)


def iter_marked_graph_isomorphisms(g1: MarkedGraph, g2: MarkedGraph) -> Iterator[dict[str, str]]:
    if len(g1.marks) != len(g2.marks) or len(g1.edges) != len(g2.edges):
        return

    def keyed_components(g: MarkedGraph) -> tuple[list[tuple], list[set[str]]]:
        keyed = sorted(((_component_key(g, c), min(c)), c) for c in g.components())
        return [key for (key, _root), _c in keyed], [c for _key, c in keyed]

    keys1, comps1 = keyed_components(g1)
    keys2, comps2 = keyed_components(g2)
    if keys1 != keys2:  # both already in key order
        return

    def match(i: int, taken: set[int], acc: dict[str, str]) -> Iterator[dict[str, str]]:
        if i == len(comps1):
            yield dict(acc)
            return
        for j in range(len(comps2)):
            if j in taken or keys2[j] != keys1[i]:
                continue
            for part in _component_isos(g1, comps1[i], g2, comps2[j]):
                acc.update(part)
                taken.add(j)
                yield from match(i + 1, taken, acc)
                taken.discard(j)
                for k in part:
                    acc.pop(k, None)

    yield from match(0, set(), {})


def marked_graph_isomorphism(g1: MarkedGraph, g2: MarkedGraph) -> Optional[dict[str, str]]:
    """A mark/adjacency/multiplicity-preserving vertex bijection, or None.

    Backtracking over components with refined-signature partition pruning
    and connectivity-first candidate ordering; deterministic.  Inputs are
    expected in topological form when used to decide homeomorphism of
    singular subspaces.
    """
    for mapping in iter_marked_graph_isomorphisms(g1, g2):
        return mapping
    return None


# ---------------------------------------------------------------------------
# ribbon structures


def reverse_dart(g: MarkedGraph, d: tuple[str, int]) -> tuple[str, int]:
    return (d[0], 1 - d[1])


def reverse_walk(walk) -> list[tuple[str, int]]:
    """The walk traversed backwards: reversed order, every direction negated.
    Also the inverse of a group word of (generator, exponent) letters."""
    return [(x, -d) for x, d in reversed(walk)]


def check_rotation(g: MarkedGraph, rotation: dict[str, list[tuple[str, int]]]) -> None:
    expected = g.darts_by_vertex()
    used = {v for v, ds in expected.items() if ds}
    if set(rotation) != used:
        extra, missing = sorted(set(rotation) - used), sorted(used - set(rotation))
        raise MalformedRotation(f"vertex mismatch: extra {extra}, missing {missing}")
    for v, cyc in rotation.items():
        if sorted(cyc) != sorted(expected[v]):
            raise MalformedRotation(f"dart mismatch at {v}")


def ribbon_faces(
    g: MarkedGraph, rotation: dict[str, list[tuple[str, int]]]
) -> list[list[tuple[str, int]]]:
    """Boundary face circuits of the ribbon graph, as dart walks."""
    check_rotation(g, rotation)
    succ: dict[tuple[str, int], tuple[str, int]] = {}
    for v, cyc in rotation.items():
        for i, d in enumerate(cyc):
            succ[d] = cyc[(i + 1) % len(cyc)]
    faces = []
    remaining = set(succ)
    while remaining:
        start = min(remaining)
        walk = []
        d = start
        while True:
            walk.append(d)
            remaining.discard(d)
            d = succ[reverse_dart(g, d)]
            if d == start:
                break
        faces.append(walk)
    return faces


def ribbon_neighborhood(
    g: MarkedGraph, rotation: dict[str, list[tuple[str, int]]]
) -> tuple[int, list[list[tuple[str, int]]]]:
    """Genus and boundary circuits of a regular neighborhood of a connected
    graph thickened by the rotation system.

    Boundary circuits are face walks as (edge, direction) lists, direction
    +1 meaning ends[0] -> ends[1].  Satisfies V - E + F = 2 - 2g.
    """
    if len(g.components()) != 1:
        raise MalformedRotation("graph must be connected")
    faces = ribbon_faces(g, rotation)
    v, e, f = len(g.marks), len(g.edges), len(faces)
    two_minus_2g = v - e + f
    if two_minus_2g % 2 != 0 or two_minus_2g > 2:
        raise MalformedRotation(f"inconsistent face count: V-E+F = {two_minus_2g}")
    genus = (2 - two_minus_2g) // 2
    circuits = [[(eid, 1 if end == 0 else -1) for eid, end in walk] for walk in faces]
    return genus, circuits


def rotation_from_circuits(
    g: MarkedGraph, circuits: list[list[tuple[str, int]]]
) -> Optional[dict[str, list[tuple[str, int]]]]:
    """Reconstruct the rotation system whose faces are the given closed
    walks, or None if no orientable ribbon structure realizes them.

    Each edge must be traversed exactly twice in total.  Circuit
    orientations are chosen by 2-coloring so that every dart is used once;
    the face-successor map then determines the rotation, provided it is a
    single cycle around every vertex.
    """
    usage: dict[str, list[tuple[int, int, int]]] = {e: [] for e in g.edges}
    for idx, walk in enumerate(circuits):
        for pos, (e, d) in enumerate(walk):
            if e not in usage:
                return None
            usage[e].append((idx, pos, d))
    if any(len(u) != 2 for u in usage.values()):
        return None

    flip = [None] * len(circuits)  # 2-coloring of circuit orientations
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(circuits))}
    for e, ((i1, _p1, d1), (i2, _p2, d2)) in usage.items():
        if i1 == i2:
            if d1 == d2:
                return None  # same circuit, same direction: non-orientable
            continue
        parity = 1 if d1 == d2 else 0  # same direction => opposite flips
        adj[i1].append((i2, parity))
        adj[i2].append((i1, parity))
    for root in range(len(circuits)):
        if flip[root] is not None:
            continue
        flip[root] = 0
        stack = [root]
        while stack:
            i = stack.pop()
            for j, parity in adj[i]:
                want = flip[i] ^ parity
                if flip[j] is None:
                    flip[j] = want
                    stack.append(j)
                elif flip[j] != want:
                    return None

    def darts_of(idx: int) -> list[tuple[str, int]]:
        walk = reverse_walk(circuits[idx]) if flip[idx] else circuits[idx]
        return [(e, 0 if d == 1 else 1) for e, d in walk]

    succ: dict[tuple[str, int], tuple[str, int]] = {}
    for idx in range(len(circuits)):
        ds = darts_of(idx)
        for i, d in enumerate(ds):
            if d in succ:
                return None
            succ[d] = ds[(i + 1) % len(ds)]
    if len(succ) != 2 * len(g.edges):
        return None

    # succ now holds every dart of g exactly once
    rotation: dict[str, list[tuple[str, int]]] = {}
    assigned: set[tuple[str, int]] = set()
    for v, v_darts in g.darts_by_vertex().items():
        if not v_darts:
            continue
        cyc = [v_darts[0]]
        assigned.add(v_darts[0])
        while True:
            nxt = succ[reverse_dart(g, cyc[-1])]
            if nxt == cyc[0]:
                break
            if g.dart_tail(nxt) != v or nxt in assigned:
                return None
            cyc.append(nxt)
            assigned.add(nxt)
        if len(cyc) != len(v_darts):
            return None  # rotation splits the vertex
        rotation[v] = cyc
    return rotation


# ---------------------------------------------------------------------------
# attachment circuits and complex isomorphism


def attachment_circuit(c: Orbicomplex, p: Piece, ci: int) -> Optional[list[tuple[str, int]]]:
    """The closed edge walk along which a fully-attached free circle is
    glued, or None if the circle has mirrors or unattached segments."""
    walk = []
    for si, kind in enumerate(p.boundary[ci]):
        if kind != FREE:
            return None
        att = c.attachments.get((p.id, ci, si))
        if att is None:
            return None
        walk.append(att)
    return walk


def all_attachment_circuits(c: Orbicomplex) -> dict[tuple[str, int], list[tuple[str, int]]]:
    out = {}
    for p in c.pieces:
        for ci in range(len(p.boundary)):
            w = attachment_circuit(c, p, ci)
            if w is not None:
                out[(p.id, ci)] = w
    return out


def _canonical_cycle(walk: list[tuple[str, int]]) -> tuple:
    """Minimal representative of a closed walk up to rotation and reversal."""
    variants = []
    n = len(walk)
    for w in (walk, reverse_walk(walk)):
        for r in range(n):
            variants.append(tuple(w[r:] + w[:r]))
    return min(variants)


def orbicomplex_isomorphism(c1: Orbicomplex, c2: Orbicomplex) -> Optional[dict]:
    """A cell-level isomorphism (graph bijection + piece matching), or None.

    Pieces must match in type and, for fully attached circles, in the image
    of their attachment circuits up to rotation and reversal.
    """
    if sorted(c1.census().items()) != sorted(c2.census().items()):
        return None
    circ1, circ2 = all_attachment_circuits(c1), all_attachment_circuits(c2)
    by_piece1: dict[str, list] = {p.id: [] for p in c1.pieces}
    for (pid, ci), w in circ1.items():
        by_piece1[pid].append(w)

    target_profiles: dict[tuple, list[str]] = {}
    for p in c2.pieces:
        walks = [circ2[(p.id, ci)] for ci in range(len(p.boundary)) if (p.id, ci) in circ2]
        key = (p.census_key(), tuple(sorted(_canonical_cycle(w) for w in walks)))
        target_profiles.setdefault(key, []).append(p.id)

    for vmap in iter_marked_graph_isomorphisms(c1.graph, c2.graph):
        # parallel classes: edges sharing mapped endpoints and multiplicity
        # may pair up in any order, so try every bijection per class
        classes: dict[tuple, list[str]] = {}
        for e in c1.graph.edge_ids():
            a, b = c1.graph.edges[e]
            key = (tuple(sorted((vmap[a], vmap[b]))), c1.graph.multiplicity.get(e, 0))
            classes.setdefault(key, []).append(e)
        pools2: dict[tuple, list[str]] = {}
        for f, (x, y) in c2.graph.edges.items():
            key = (tuple(sorted((x, y))), c2.graph.multiplicity.get(f, 0))
            pools2.setdefault(key, []).append(f)
        if any(len(classes.get(k, [])) != len(pools2.get(k, []))
               for k in set(classes) | set(pools2)):
            continue
        class_keys = sorted(classes)
        choices = [
            itertools.permutations(sorted(pools2[k])) for k in class_keys
        ]
        for combo in itertools.product(*choices):
            emap = {}
            for k, perm in zip(class_keys, combo):
                emap.update(zip(sorted(classes[k]), perm))

            def map_walk(w):
                out = []
                for e, d in w:
                    a, b = c1.graph.edges[e]
                    x, y = c2.graph.edges[emap[e]]
                    same = (vmap[a], vmap[b]) == (x, y)
                    out.append((emap[e], d if same else -d))
                return out

            pools = {k: list(v) for k, v in target_profiles.items()}
            pmap: dict[str, str] = {}
            ok = True
            for p in sorted(c1.pieces, key=lambda q: q.id):
                walks = [map_walk(w) for w in by_piece1[p.id]]
                key = (p.census_key(), tuple(sorted(_canonical_cycle(w) for w in walks)))
                pool = pools.get(key)
                if not pool:
                    ok = False
                    break
                pmap[p.id] = pool.pop(0)
            if ok:
                return {"vertices": vmap, "edges": emap, "pieces": pmap}
    return None


# ---------------------------------------------------------------------------
# DOT export


def graph_to_dot(g: MarkedGraph, name: str = "singular") -> str:
    lines = [f"graph {name} {{"]
    for v in g.vertices():
        mark = g.marks[v]
        if mark == RAM2:
            label = f"{v} [2]"
        elif is_wall(mark):
            label = f"{v} [wall {mark[1]}]"
        else:
            label = v
        lines.append(f'  "{v}" [label="{label}"];')
    for e in g.edge_ids():
        u, v = g.edges[e]
        m = g.multiplicity.get(e, 0)
        lines.append(f'  "{u}" -- "{v}" [label="{e} x{m}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
