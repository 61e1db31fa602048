"""Marked graphs: the attaching graphs of orbicomplexes and their singular
subspaces.

Vertex marks, the graph itself and its one breadth-first search,
topological forms, the isomorphism search, ribbon structures (rotation
systems and their faces) and DOT export, with the errors they raise.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator, Optional

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


class MalformedRotation(OrbicoverError):
    pass


@dataclass(frozen=True)
class MarkedGraph:
    """Finite multigraph with vertex marks and edge multiplicities.

    ``marks`` maps vertex id -> mark (None, "ram2", or ("wall", label)), its
    key set is the vertex set.  ``edges`` maps edge id -> (u, v); loops are
    allowed.  ``multiplicity`` counts the piece segments attached along each
    edge (0 for bare graphs).  The fields are never reassigned; a bare graph
    keeps plain dicts to fill, the graph of a complex read-only ones.
    """

    marks: Mapping[str, object] = field(default_factory=dict)
    edges: Mapping[str, tuple[str, str]] = field(default_factory=dict)
    multiplicity: Mapping[str, int] = field(default_factory=dict)

    def vertices(self) -> list[str]:
        return sorted(self.marks)

    def edge_ids(self) -> list[str]:
        return sorted(self.edges)

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


# ---------------------------------------------------------------------------
# topological form (suppression of bivalent vertices)


def topological_form(g: MarkedGraph) -> MarkedGraph:
    """Suppress unmarked valence-2 vertices whose two incident edges carry
    equal multiplicity, merging the edges.  Idempotent; preserves the
    homeomorphism type of the marked graph."""
    g = MarkedGraph(dict(g.marks), dict(g.edges), dict(g.multiplicity))
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


class _SearchIndex:
    """What the isomorphism search reads of one coloured graph, built once
    per search: neighbour sets, edge ends as (neighbour, multiplicity, is
    loop) with a loop once, pair multiplicities sorted, components in order."""

    def __init__(self, g: MarkedGraph, colours: dict[str, tuple]):
        self.nbrs: dict[str, set[str]] = {v: set() for v in g.marks}
        self.ends: dict[str, list[tuple[str, int, int]]] = {v: [] for v in g.marks}
        self.between: dict[tuple[str, str], list[int]] = {}
        for e, (u, v) in g.edges.items():
            m = g.multiplicity.get(e, 0)
            for a, b in {(u, v), (v, u)}:
                self.nbrs[a].add(b)
                self.ends[a].append((b, m, int(a == b)))
            self.between.setdefault(_pair(u, v), []).append(m)
        for mults in self.between.values():
            mults.sort()

        comps: list[set[str]] = []
        comp_of: dict[str, int] = {}
        for root in g.marks:
            if root not in comp_of:
                comp, stack = {root}, [root]
                while stack:
                    new = self.nbrs[stack.pop()] - comp
                    comp |= new
                    stack.extend(new)
                comp_of.update(dict.fromkeys(comp, len(comps)))
                comps.append(comp)
        profiles: list[list[list[int]]] = [[] for _ in comps]
        for (u, _v), mults in self.between.items():
            profiles[comp_of[u]].append(mults)
        keyed = sorted(
            ((_component_key(comp, colours, profile), min(comp)), comp)
            for comp, profile in zip(comps, profiles)
        )
        self.keys = [key for (key, _root), _comp in keyed]
        self.comps = [sorted(comp) for _key, comp in keyed]

    def edges(self, v: str, u: str) -> list[int]:
        """Sorted multiplicities of the edges joining v and u."""
        return self.between.get(_pair(v, u), [])


def _pair(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def _component_key(comp: set[str], colours: dict[str, tuple], profile: list[list[int]]) -> tuple:
    return (
        len(comp),
        sum(map(len, profile)),
        tuple(sorted(colours[v] for v in comp)),
        tuple(sorted(map(tuple, profile))),
    )


def _refined_signatures(
    index: _SearchIndex, colours: dict[str, tuple], verts: list[str]
) -> dict[str, int]:
    """Vertex colours refined by iterated neighbourhood structure; each
    round's signatures are compressed to their ranks."""
    def ranked(sig: dict[str, tuple]) -> dict[str, int]:
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        return {v: rank[s] for v, s in sig.items()}

    sig = ranked({v: (colours[v], tuple(sorted((m, lp) for _u, m, lp in index.ends[v])))
                  for v in verts})
    for _round in range(len(verts)):
        nxt = ranked({
            v: (sig[v], tuple(sorted((m, lp, sig[u]) for u, m, lp in index.ends[v])))
            for v in verts
        })
        stable = len(set(nxt.values())) == len(set(sig.values()))
        sig = nxt
        if stable:
            break
    return sig


def iter_marked_graph_isomorphisms(
    g1: MarkedGraph, colours1: dict[str, tuple], g2: MarkedGraph, colours2: dict[str, tuple]
) -> Iterator[dict[str, str]]:
    """Every vertex bijection g1 -> g2 that preserves colours, adjacency and
    edge multiplicities, in a deterministic order.

    One backtrack over g1's vertices, component by component in key order
    and breadth-first within each, with refined-signature pruning.  Colours
    are tuples, all mutually orderable.
    """
    if len(g1.marks) != len(g2.marks) or len(g1.edges) != len(g2.edges):
        return
    a, b = _SearchIndex(g1, colours1), _SearchIndex(g2, colours2)
    if a.keys != b.keys:  # both already in key order
        return
    sigs2 = [_refined_signatures(b, colours2, verts) for verts in b.comps]
    shapes2 = [(key, sorted(sig.values())) for key, sig in zip(b.keys, sigs2)]
    sig1: dict[str, int] = {}
    sig2 = {v: s for sig in sigs2 for v, s in sig.items()}

    # each root tries the vertices of every g2 component of its key and
    # signature multiset; every later vertex touches an earlier one
    position: dict[str, int] = {}
    roots: dict[str, list[str]] = {}
    for key, verts in zip(a.keys, a.comps):
        sig = _refined_signatures(a, colours1, verts)
        sig1.update(sig)
        freq = Counter(sig.values())
        root = min(verts, key=lambda v: (freq[sig[v]], v))
        shape = (key, sorted(sig.values()))
        roots[root] = [w for s, comp in zip(shapes2, b.comps) if s == shape for w in comp]
        position[root] = len(position)
        queue = deque([root])
        while queue:
            for u in sorted(a.nbrs[queue.popleft()]):
                if u not in position:
                    position[u] = len(position)
                    queue.append(u)
    order = list(position)
    anchors = {v: [u for u in a.nbrs[v] if position[u] < position[v]] for v in order}

    if not order:
        yield {}
        return
    mapping: dict[str, str] = {}
    used: set[str] = set()
    stack = [iter(roots[order[0]])]
    while stack:
        v = order[len(stack) - 1]
        if v in mapping:
            used.remove(mapping.pop(v))
        back = anchors[v]
        for w in stack[-1]:
            # as v has no edge to its mapped non-neighbours, w has as many
            # mapped neighbours as v
            if not (w in used or sig2[w] != sig1[v]
                    or len(b.nbrs[w] & used) != len(back)
                    or a.edges(v, v) != b.edges(w, w)
                    or any(a.edges(v, u) != b.edges(w, mapping[u]) for u in back)):
                break
        else:
            stack.pop()
            continue
        mapping[v] = w
        used.add(w)
        if len(stack) == len(order):
            yield dict(mapping)
            continue
        u = order[len(stack)]
        stack.append(iter(
            sorted(set.intersection(*(b.nbrs[mapping[x]] for x in anchors[u])))
            if anchors[u] else roots[u]
        ))


def marked_graph_isomorphism(g1: MarkedGraph, g2: MarkedGraph) -> Optional[dict[str, str]]:
    """A mark/adjacency/multiplicity-preserving vertex bijection, or None.

    The first bijection of ``iter_marked_graph_isomorphisms``, with each
    vertex coloured by the kind of its mark.  Inputs are expected in
    topological form when used to decide homeomorphism of singular
    subspaces.
    """
    def kinds(g: MarkedGraph) -> dict[str, tuple]:
        return {v: (mark_kind(m),) for v, m in g.marks.items()}

    return next(iter_marked_graph_isomorphisms(g1, kinds(g1), g2, kinds(g2)), None)


# ---------------------------------------------------------------------------
# ribbon structures


def reverse_dart(d: tuple[str, int]) -> tuple[str, int]:
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


def ribbon_neighborhood(
    g: MarkedGraph, rotation: dict[str, list[tuple[str, int]]]
) -> list[tuple[int, list[list[tuple[str, int]]]]]:
    """Genus and boundary circuits of a regular neighborhood of each
    component of a graph thickened by the rotation system, one pair per
    component in ``g.components()`` order.

    Boundary circuits are face walks as (edge, direction) lists, direction
    +1 meaning ends[0] -> ends[1], each starting at its least dart and
    ordered by it.  A face belongs to the component of its first dart.
    Every component satisfies V - E + F = 2 - 2g; one that cannot (a lone
    vertex has no face) raises MalformedRotation.
    """
    check_rotation(g, rotation)
    comps = g.components()
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    succ = {d: nxt for cyc in rotation.values() for d, nxt in zip(cyc, cyc[1:] + cyc[:1])}
    faces: list[list[list[tuple[str, int]]]] = [[] for _ in comps]
    seen: set[tuple[str, int]] = set()
    for start in sorted(succ):
        if start in seen:
            continue
        walk, d = [], start
        while d not in seen:
            seen.add(d)
            walk.append((d[0], 1 if d[1] == 0 else -1))
            d = succ[reverse_dart(d)]
        faces[comp_of[g.dart_tail(start)]].append(walk)
    out = []
    for comp, circuits in zip(comps, faces):
        # each dart lies on one face, so the faces hold 2E darts
        two_minus_2g = len(comp) - sum(map(len, circuits)) // 2 + len(circuits)
        if two_minus_2g % 2 != 0 or two_minus_2g > 2:
            raise MalformedRotation(f"inconsistent face count: V-E+F = {two_minus_2g}")
        out.append(((2 - two_minus_2g) // 2, circuits))
    return out


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
            if e not in usage or d not in (1, -1):
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
            succ[d] = ds[(i + 1) % len(ds)]

    # each edge's two uses now run in opposite directions, so succ is a
    # permutation of the darts of g, and each orbit below closes before it
    # repeats a dart
    rotation: dict[str, list[tuple[str, int]]] = {}
    for v, v_darts in g.darts_by_vertex().items():
        if not v_darts:
            continue
        cyc = [v_darts[0]]
        while True:
            nxt = succ[reverse_dart(cyc[-1])]
            if nxt == cyc[0]:
                break
            if g.dart_tail(nxt) != v:
                return None
            cyc.append(nxt)
        if len(cyc) != len(v_darts):
            return None  # rotation splits the vertex
        rotation[v] = cyc
    return rotation


# ---------------------------------------------------------------------------
# DOT export


def graph_to_dot(g: MarkedGraph) -> str:
    lines = ["graph singular {"]
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
