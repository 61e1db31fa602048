"""Right-angled Coxeter groups from defining graphs, branch decomposition,
and the reflection-orbicomplex construction that glues one right-angled
polygon per branch along a star of non-reflection half-edges."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from .graphs import MarkedGraph, OrbicoverError, wall_mark
from .orbicore import FREE, MIRROR, Orbicomplex, Piece


class NoEssentialVertices(OrbicoverError):
    pass


class BranchTooShort(OrbicoverError):
    pass


class HasTriangle(OrbicoverError):
    """The defining graph has a triangle: its Davis complex is not 2-dimensional."""


@dataclass(frozen=True)
class DefiningGraph:
    """Finite simplicial graph in one canonical form: ``vertices`` is the
    sorted tuple of vertex ids and ``edges`` the sorted tuple of pairs
    ``(a, b)`` with ``a < b``.  Any iterables are accepted and canonicalized
    once, so equal graphs compare and hash equal however they were listed."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(set(self.vertices))))
        pairs = {(a, b) if a < b else (b, a) for a, b in self.edges}
        object.__setattr__(self, "edges", tuple(sorted(pairs)))

    @staticmethod
    def from_edges(vertices, edges) -> "DefiningGraph":
        """The graph on ``vertices`` with ``edges`` given as pairs in either
        orientation; loops and unknown endpoints are refused, and a repeated
        edge is kept once."""
        vs = set(vertices)
        edges = list(edges)
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop at {a!r}")
            if a not in vs or b not in vs:
                raise ValueError(f"edge ({a!r}, {b!r}) has unknown endpoint")
        return DefiningGraph(vs, edges)

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        """Sorted neighbours of every vertex, built once, keyed in sorted
        vertex order so that every search over it repeats across processes.
        The sorted pairs list each vertex's lesser neighbours, as ``(c, a)``,
        before its greater ones, as ``(a, b)``, so no list needs a sort."""
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: tuple(ns) for v, ns in adj.items()}

    def valence(self, v: str) -> int:
        return len(self.adjacency.get(v, ()))

    def neighbors(self, v: str) -> list[str]:
        return list(self.adjacency.get(v, ()))

    def sorted_vertices(self) -> list[str]:
        return list(self.vertices)

    def sorted_edges(self) -> list[tuple[str, str]]:
        return list(self.edges)

    def _splits(self, removed: tuple[str, ...]) -> bool:
        """True iff the vertices outside ``removed`` lie in more than one
        component: one graph search from any vertex that is left."""
        adj = self.adjacency
        seen = set(removed)
        start = next((v for v in adj if v not in seen), None)
        if start is None:
            return False
        seen.add(start)
        stack = [start]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) < len(adj)

    def is_connected(self) -> bool:
        return not self._splits(())


Word = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        gens = set(self.generators)
        for rel in self.relators:
            for g, _e in rel:
                if g not in gens:
                    raise ValueError(f"relator letter {g!r} is not a generator")


@dataclass(frozen=True)
class Branch:
    """Embedded path between essential (valence >= 3) vertices whose interior
    vertices all have valence 2.  ``n`` counts vertices including endpoints."""

    path: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.path)

    @property
    def endpoints(self) -> tuple[str, str]:
        return self.path[0], self.path[-1]


def racg_presentation(g: DefiningGraph) -> GroupPresentation:
    """Presentation with generators the vertices, relators s^2 and (st)^2 for
    each edge {s, t}; deterministic ordering."""
    gens = tuple(g.sorted_vertices())
    relators: list[Word] = [((s, 1), (s, 1)) for s in gens]
    for a, b in g.sorted_edges():
        relators.append(((a, 1), (b, 1), (a, 1), (b, 1)))
    return GroupPresentation(gens, tuple(relators))


def branch_decomposition(g: DefiningGraph) -> list[Branch]:
    """Edge-disjoint branches covering all edges of a connected graph with at
    least one essential vertex.

    Raises NoEssentialVertices when no valence >= 3 vertex exists (e.g. a
    cycle or path graph) or when some edge does not lie on an
    essential-to-essential path (dangling trees).
    """
    if not g.is_connected():
        raise NoEssentialVertices("graph is not connected")
    essential = {v for v in g.vertices if g.valence(v) >= 3}
    if not essential:
        raise NoEssentialVertices("no vertex of valence >= 3")

    # walk from each essential vertex through valence-2 interiors
    found: dict[tuple, Branch] = {}
    for start in sorted(essential):
        for nxt in g.neighbors(start):
            path = [start, nxt]
            while path[-1] not in essential:
                v = path[-1]
                if g.valence(v) != 2:
                    raise NoEssentialVertices(
                        f"edge from {start!r} dangles at {v!r} (valence {g.valence(v)})"
                    )
                a, b = g.neighbors(v)
                path.append(a if b == path[-2] else b)
            key = min(tuple(path), tuple(reversed(path)))
            found.setdefault(key, Branch(key))
    # every edge lies on a chain of valence-2 vertices whose ends, in a
    # connected graph with an essential vertex, are essential (a walk above
    # covers the chain) or of valence 1 (the walk raised)
    return [found[k] for k in sorted(found)]


def branch_polygon(b: Branch, pid: Optional[str] = None) -> Piece:
    """The reflection polygon of a branch: a disk bounded by n mirror
    segments (one per branch vertex) between two free half-edges, the
    non-reflection edge split at its midpoint."""
    if b.n < 2:
        raise BranchTooShort(f"branch needs >= 2 vertices, got {b.n}")
    boundary = ((FREE,) + (MIRROR,) * b.n + (FREE,),)
    return Piece(id=pid or ".".join(b.path), genus=0, boundary=boundary, cones=())


def branch_id(b: Branch, index: int) -> str:
    a, z = b.endpoints
    return f"{min(a, z)}-{max(a, z)}-{index}"


def davis_orbicomplex(g: DefiningGraph) -> Orbicomplex:
    """Reflection orbicomplex of a right-angled Coxeter group: one branch
    polygon per branch, all midpoints identified to a hub, one wall-marked
    leaf per essential vertex.

    The polygon of a branch from a to z (a <= z) has boundary
    [free, mirror * n, free]: the first free segment runs hub -> wall(a),
    the mirror chain follows the branch path, the last runs wall(z) -> hub.
    Graphs with a triangle are refused (HasTriangle). Like every complex,
    the result is validated once, as it is built; so is each cover built
    from it, and nothing validates them again.
    """
    branches = branch_decomposition(g)
    for a, b in g.sorted_edges():
        common = set(g.adjacency[a]).intersection(g.adjacency[b])
        if common:
            raise HasTriangle(f"defining graph has the triangle {sorted((a, b, min(common)))}")

    graph = MarkedGraph()
    graph.marks["hub"] = None
    essential = sorted({v for b in branches for v in b.endpoints})
    for v in essential:
        graph.marks[f"w.{v}"] = wall_mark(v)
        graph.edges[f"e.{v}"] = (f"w.{v}", "hub")  # canonical: leaf -> hub

    # index parallel branches deterministically; one polygon per branch
    # length, so that all pieces of one length share one boundary
    counters: dict[tuple[str, str], int] = {}
    polygons: dict[int, Piece] = {}
    pieces = []
    attachments = {}
    for b in branches:
        lo, hi = sorted(b.endpoints)
        k = counters.get((lo, hi), 0)
        counters[(lo, hi)] = k + 1
        pid = branch_id(b, k)
        path = b.path if b.path[0] == lo else tuple(reversed(b.path))
        if b.n not in polygons:
            polygons[b.n] = branch_polygon(b)
        pieces.append(replace(polygons[b.n], id=pid))
        # hub -> wall(lo) is e.lo reversed; wall(hi) -> hub is e.hi forward
        attachments[(pid, 0, 0)] = (f"e.{path[0]}", -1)
        attachments[(pid, 0, b.n + 1)] = (f"e.{path[-1]}", 1)

    return Orbicomplex(pieces=pieces, graph=graph, attachments=attachments)


def _has_cut_vertex(adj: dict[str, tuple[str, ...]]) -> bool:
    """True iff the graph is disconnected or some vertex separates it: one
    iterative lowpoint depth-first search from the least vertex (Hopcroft
    and Tarjan 1973).  A child w of u with low[w] >= disc[u] makes u a cut
    vertex, except at the root, which is one iff it has two children."""
    root = min(adj)
    disc = {root: 0}
    low = {root: 0}
    root_children = 0
    stack = [(root, iter(adj[root]))]
    while stack:
        v, rest = stack[-1]
        for w in rest:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, iter(adj[w])))
                break
            low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if not stack:
                break
            u = stack[-1][0]
            if u == root:
                root_children += 1
            elif low[v] >= disc[u]:
                return True
            low[u] = min(low[u], low[v])
    return root_children > 1 or len(disc) < len(adj)


def one_endedness_check(g: DefiningGraph) -> bool:
    """True iff the right-angled Coxeter group of g is one-ended: g is
    neither empty nor complete, and no clique (of any size, the empty one
    included) separates it.

    One lowpoint search settles the empty clique and every single vertex.
    A separating clique contains an inclusion-minimal separator S, itself a
    clique; each vertex of S has a neighbour in each of the at least two
    components of g - S, so its degree is at least |S| + 1.  Larger cliques
    are therefore grown only while all their vertices meet that bound, each
    by common neighbours that sort after its last vertex, and only those
    are searched."""
    adj = g.adjacency
    n = len(adj)
    if len(g.edges) == n * (n - 1) // 2:
        return False  # empty or complete graph: finite group
    if _has_cut_vertex(adj):
        return False
    degree = {v: len(ns) for v, ns in adj.items()}
    later = {v: frozenset(u for u in adj[v] if u > v) for v in adj}
    stack = [((v,), later[v], degree[v]) for v in adj if degree[v] > 2]
    while stack:
        clique, common, least = stack.pop()
        size = len(clique) + 1
        for v in sorted(common):
            grown_least = min(least, degree[v])
            if grown_least > size:
                grown = clique + (v,)
                if g._splits(grown):
                    return False
                stack.append((grown, common & later[v], grown_least))
    return True


def demo_defining_graph() -> DefiningGraph:
    """The built-in defining graph of the demo pipeline: three valence-4
    vertices v1, v2, v3 joined by six branches, two 7-vertex branches
    v1-v2 and two 5-vertex branches for each of v1-v3 and v2-v3."""
    arcs = [
        ("v1", "v2", 7, 0),
        ("v1", "v2", 7, 1),
        ("v1", "v3", 5, 0),
        ("v1", "v3", 5, 1),
        ("v2", "v3", 5, 0),
        ("v2", "v3", 5, 1),
    ]
    vertices = {"v1", "v2", "v3"}
    edges = []
    for a, b, n, k in arcs:
        interior = [f"{a}.{b}.{k}.{i}" for i in range(n - 2)]
        vertices.update(interior)
        path = [a] + interior + [b]
        edges.extend((path[i], path[i + 1]) for i in range(len(path) - 1))
    return DefiningGraph.from_edges(vertices, edges)
