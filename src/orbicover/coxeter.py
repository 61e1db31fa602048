"""Right-angled Coxeter groups from defining graphs, branch decomposition,
and the reflection-orbicomplex construction that glues one right-angled
polygon per branch along a star of non-reflection half-edges."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import networkx as nx

from .orbicore import (
    FREE,
    MIRROR,
    MarkedGraph,
    Orbicomplex,
    OrbicoverError,
    Piece,
    recompute_multiplicities,
    wall_mark,
)


class NoEssentialVertices(OrbicoverError):
    pass


class BranchTooShort(OrbicoverError):
    pass


class HasTriangle(OrbicoverError):
    """The defining graph has a triangle: its Davis complex is not 2-dimensional."""


@dataclass(frozen=True)
class DefiningGraph:
    """Finite simplicial graph: vertex tokens plus unordered edges, no loops
    or repeated edges."""

    vertices: frozenset[str]
    edges: frozenset[frozenset[str]]

    @staticmethod
    def from_edges(vertices, edges) -> "DefiningGraph":
        vs = frozenset(vertices)
        es = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop at {a!r}")
            if a not in vs or b not in vs:
                raise ValueError(f"edge ({a!r}, {b!r}) has unknown endpoint")
            es.add(frozenset((a, b)))
        return DefiningGraph(vs, frozenset(es))

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        """Sorted neighbours of every vertex, built once."""
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def valence(self, v: str) -> int:
        return len(self.adjacency.get(v, ()))

    def neighbors(self, v: str) -> list[str]:
        return list(self.adjacency.get(v, ()))

    def sorted_vertices(self) -> list[str]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[tuple[str, str]]:
        return sorted(tuple(sorted(e)) for e in self.edges)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.sorted_vertices()[0]}
        stack = list(seen)
        while stack:
            v = stack.pop()
            for u in self.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen == set(self.vertices)


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
    used_edges: set[frozenset] = set()
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
            if key not in found:
                found[key] = Branch(tuple(key))
                for i in range(len(path) - 1):
                    used_edges.add(frozenset((path[i], path[i + 1])))
    if used_edges != set(g.edges):
        missing = sorted(tuple(sorted(e)) for e in set(g.edges) - used_edges)
        raise NoEssentialVertices(f"edges not covered by any branch: {missing}")
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
    Graphs with a triangle are refused (HasTriangle).
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

    # index parallel branches deterministically
    counters: dict[tuple[str, str], int] = {}
    pieces = []
    attachments = {}
    for b in branches:
        lo, hi = sorted(b.endpoints)
        k = counters.get((lo, hi), 0)
        counters[(lo, hi)] = k + 1
        pid = branch_id(b, k)
        path = b.path if b.path[0] == lo else tuple(reversed(b.path))
        pieces.append(branch_polygon(b, pid))
        # hub -> wall(lo) is e.lo reversed; wall(hi) -> hub is e.hi forward
        attachments[(pid, 0, 0)] = (f"e.{path[0]}", -1)
        attachments[(pid, 0, b.n + 1)] = (f"e.{path[-1]}", 1)

    c = Orbicomplex(pieces=pieces, graph=graph, attachments=attachments)
    recompute_multiplicities(c)
    return c


def one_endedness_check(g: DefiningGraph) -> bool:
    """True iff the right-angled Coxeter group of g is one-ended: g is
    connected, not complete, and no clique (of any size, including single
    vertices and edges) separates it."""
    n = len(g.vertices)
    if n == 0 or not g.is_connected():
        return False
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(tuple(e) for e in g.edges)
    if len(g.edges) == n * (n - 1) // 2:
        return False  # complete graph: finite group
    for clique in nx.enumerate_all_cliques(nxg):
        rest = nxg.copy()
        rest.remove_nodes_from(clique)
        if rest.number_of_nodes() == 0:
            continue
        if not nx.is_connected(rest):
            return False
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
