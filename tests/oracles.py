"""Independent oracles the test suite checks the library against.

Deliberately reimplemented from first principles: a full weighted cell
decomposition for Euler characteristics, determinantal divisors for Smith
normal form, all-permutations search for marked graph and normal form
isomorphism, spanning-tree counts as an invariant that isomorphism keeps,
all-subsets clique removal for one-endedness, index-2 Reidemeister-Schreier
rewriting for H_1 of a double cover, and the cellular chain complex for H_1
of a torsion-free complex.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

from orbicover.covers import TwoTorsionLabeling
from orbicover.coxeter import DefiningGraph, GroupPresentation
from orbicover.invariants import (
    AbelianInvariants,
    NormalForm,
    abelianization,
    fundamental_group_presentation,
)
from orbicover.graphs import RAM2, MarkedGraph, is_wall, wall_mark
from orbicover.orbicore import FREE, MIRROR, Orbicomplex, Piece


def weighted_cell_euler(c: Orbicomplex) -> Fraction:
    """Sum (-1)^dim / |stab| over an explicit cell decomposition of the
    quotient: graph cells once, piece interiors as one vertex + genus loops
    + boundary spokes + one face, cones as weighted vertices with spokes,
    and the non-glued boundary cells of each piece."""
    total = Fraction(0)
    for _v, mark in c.graph.marks.items():
        total += Fraction(1, 1 if mark is None else 2)
    total -= len(c.graph.edges)
    for p in c.pieces:
        total += 1                  # interior vertex
        total -= 2 * p.genus        # genus loops
        total -= len(p.boundary)    # one spoke per boundary circle
        total += 1                  # the single 2-cell
        for m in p.cones:
            total += Fraction(1, m) - 1   # cone vertex plus its spoke
        for ci, circle in enumerate(p.boundary):
            t = len(circle)
            for si, kind in enumerate(circle):
                attached = (p.id, ci, si) in c.attachments
                if kind == MIRROR:
                    total -= Fraction(1, 2)
                elif not attached:
                    total -= 1
                # junction vertex between segments si-1 and si
                prev_kind = circle[(si - 1) % t]
                prev_attached = (p.id, ci, (si - 1) % t) in c.attachments
                if attached or prev_attached:
                    continue  # identified with a graph vertex, counted above
                if prev_kind == MIRROR and kind == MIRROR:
                    total += Fraction(1, 4)
                elif MIRROR in (prev_kind, kind):
                    total += Fraction(1, 2)
                else:
                    total += 1
    return total


def _glued_runs(wanted: list[bool]) -> list[list[int]]:
    """The maximal cyclic runs of wanted segment indices; a circle wanted
    whole is one run that closes up."""
    t = len(wanted)
    if all(wanted):
        return [list(range(t))]
    runs, run = [], []
    start = wanted.index(False)
    for k in range(1, t + 1):
        si = (start + k) % t
        if wanted[si]:
            run.append(si)
        elif run:
            runs.append(run)
            run = []
    return runs


def _random_walk(rng: random.Random, g: MarkedGraph, steps: int, start_wall: bool,
                 end_wall: bool, closed: bool):
    """A random edge walk of ``steps`` (edge, direction) steps whose ends
    are wall vertices where asked and meet when ``closed``; None if twenty
    tries find none."""
    darts = {v: [] for v in g.marks}
    for e, (u, v) in g.edges.items():
        darts[u].append((e, 1, v))
        darts[v].append((e, -1, u))
    starts = [v for v, ds in darts.items() if ds and (is_wall(g.marks[v]) or not start_wall)]
    for _try in range(20 if starts else 0):
        start = end = rng.choice(starts)
        walk = []
        for _ in range(steps):  # every vertex a step reaches has a dart back
            e, d, end = rng.choice(darts[end])
            walk.append((e, d))
        if (is_wall(g.marks[end]) or not end_wall) and (end == start or not closed):
            return walk
    return None


def random_orbicomplex(rng: random.Random) -> Orbicomplex:
    """A valid complex: 1-3 pieces, each either a genus-0 disk whose one
    boundary circle mixes mirror and free segments or a surface of genus
    0-2 with 1-3 free circles, with cones of order 2-6, glued along a random
    subset of their free segments to a random graph of up to 5 wall, ram2
    and plain vertices. Each run of glued segments follows a random walk;
    a run no walk fits (a wall beside a mirror, a closed circle) stays free."""
    g = MarkedGraph()
    n = rng.randint(1, 5)
    for i in range(n):
        g.marks[f"v{i}"] = rng.choice([None, RAM2, wall_mark(f"w{i}")])
    for k in range(rng.randint(0, 6)):
        g.edges[f"e{k}"] = (f"v{rng.randrange(n)}", f"v{rng.randrange(n)}")
    pieces = []
    for i in range(rng.randint(1, 3)):
        cones = tuple(rng.randint(2, 6) for _ in range(rng.randint(0, 3)))
        if rng.random() < 0.5:
            circle = tuple(rng.choice([MIRROR, FREE]) for _ in range(rng.randint(1, 8)))
            pieces.append(Piece(f"p{i}", 0, (circle,), cones))
        else:
            circles = tuple((FREE,) * rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            pieces.append(Piece(f"p{i}", rng.randint(0, 2), circles, cones))
    attachments = {}
    for p in pieces:
        for ci, circle in enumerate(p.boundary):
            t = len(circle)
            wanted = [kind == FREE and rng.random() < 0.7 for kind in circle]
            for run in _glued_runs(wanted):
                walk = _random_walk(
                    rng, g, len(run),
                    start_wall=circle[(run[0] - 1) % t] == MIRROR,
                    end_wall=circle[(run[-1] + 1) % t] == MIRROR,
                    closed=len(run) == t,
                )
                for si, att in zip(run, walk or []):
                    attachments[(p.id, ci, si)] = att
    return Orbicomplex(pieces=pieces, graph=g, attachments=attachments)


def _det(m: list[list[int]]) -> int:
    """Determinant by fraction-free elimination (Bareiss 1968): every
    division is exact, so all entries stay integers."""
    m = [row[:] for row in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def snf_determinantal(matrix: list[list[int]]) -> list[int]:
    """Invariant factors via determinantal divisors: d_k = gcd of all k x k
    minors, invariant factor k = d_k / d_{k-1}."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                g = gcd(g, _det([[matrix[i][j] for j in cs] for i in rs]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def _mark_class(mark):
    if mark is None:
        return 0
    if mark == RAM2:
        return 1
    return 2


def _pair_multiset(g: MarkedGraph, u: str, v: str):
    out = []
    for e, (a, b) in g.edges.items():
        if {a, b} == {u, v} or (u == v and a == b == u):
            out.append(g.multiplicity.get(e, 0))
    return sorted(out)


def is_marked_graph_isomorphism(g1: MarkedGraph, g2: MarkedGraph, mapping: dict) -> bool:
    """Whether ``mapping`` is a bijection of vertices that keeps mark
    classes and the edge multiplicities between every pair of vertices."""
    v1 = g1.vertices()
    if sorted(mapping) != v1 or sorted(mapping.values()) != g2.vertices():
        return False
    if any(_mark_class(g1.marks[a]) != _mark_class(g2.marks[mapping[a]]) for a in v1):
        return False
    return all(
        _pair_multiset(g1, a, b) == _pair_multiset(g2, mapping[a], mapping[b])
        for a, b in itertools.combinations_with_replacement(v1, 2)
    )


def brute_force_graph_iso(g1: MarkedGraph, g2: MarkedGraph):
    """All-permutations marked graph isomorphism (small graphs only)."""
    v1, v2 = g1.vertices(), g2.vertices()
    if len(v1) != len(v2) or len(g1.edges) != len(g2.edges):
        return None
    for perm in itertools.permutations(v2):
        mapping = dict(zip(v1, perm))
        if is_marked_graph_isomorphism(g1, g2, mapping):
            return mapping
    return None


def random_marked_graph(rng: random.Random, max_vertices: int = 7) -> MarkedGraph:
    n = rng.randint(1, max_vertices)
    g = MarkedGraph()
    for i in range(n):
        g.marks[f"v{i}"] = rng.choice([None, None, None, RAM2])
    n_edges = rng.randint(0, min(9, n * 2))
    for k in range(n_edges):
        u = f"v{rng.randrange(n)}"
        v = f"v{rng.randrange(n)}"
        if u == v and rng.random() < 0.5:
            v = f"v{rng.randrange(n)}"
        g.edges[f"e{k}"] = (u, v)
        g.multiplicity[f"e{k}"] = rng.randint(0, 3)
    return g


def relabeled_copy(g: MarkedGraph, rng: random.Random) -> MarkedGraph:
    verts = g.vertices()
    perm = verts[:]
    rng.shuffle(perm)
    vmap = dict(zip(verts, perm))
    out = MarkedGraph()
    for v in verts:
        out.marks[f"w_{vmap[v]}"] = g.marks[v]
    edge_ids = g.edge_ids()
    eperm = edge_ids[:]
    rng.shuffle(eperm)
    for e, e2 in zip(edge_ids, eperm):
        u, v = g.edges[e]
        out.edges[f"f_{e2}"] = (f"w_{vmap[u]}", f"w_{vmap[v]}")
        out.multiplicity[f"f_{e2}"] = g.multiplicity.get(e, 0)
    return out


def spanning_tree_counts(g: MarkedGraph) -> list[int]:
    """The sorted spanning-tree count of each component of the underlying
    multigraph: loops dropped, parallel edges counted apart, marks and
    multiplicities ignored.  An isomorphism of marked graphs keeps these
    counts, so graphs whose counts differ are not isomorphic.  Each count is
    a cofactor of the component's Laplacian (Kirchhoff's matrix-tree
    theorem)."""
    parent = {v: v for v in g.marks}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges.values():
        parent[root(u)] = root(v)
    components: dict[str, list[str]] = {}
    for v in sorted(g.marks):
        components.setdefault(root(v), []).append(v)
    counts = []
    for vertices in components.values():
        index = {v: i for i, v in enumerate(vertices[1:])}  # first row and column deleted
        lap = [[0] * len(index) for _ in index]
        for u, v in g.edges.values():
            if u == v or root(u) != root(vertices[0]):
                continue
            for a, b in ((u, v), (v, u)):
                if a in index:
                    lap[index[a]][index[a]] += 1
                    if b in index:
                        lap[index[a]][index[b]] -= 1
        counts.append(_det(lap))
    return sorted(counts)


def brute_force_normal_form_iso(n1: NormalForm, n2: NormalForm):
    """All-permutations normal form isomorphism (small normal forms only):
    every component permutation, then every face bijection, then compare
    the piece multisets."""
    k = len(n1.components)
    if k != len(n2.components):
        return None
    want = sorted(n2.pieces)
    for perm in itertools.permutations(range(k)):
        if any(n1.components[i] != n2.components[perm[i]] for i in range(k)):
            continue
        circles = [n1.components[i][1] for i in range(k)]
        for face_perms in itertools.product(*(itertools.permutations(range(c)) for c in circles)):
            faces = {
                (i, f): (perm[i], face_perms[i][f]) for i in range(k) for f in range(circles[i])
            }
            mapped = sorted((key, tuple(sorted(faces[x] for x in fs))) for key, fs in n1.pieces)
            if mapped == want:
                return {"components": dict(enumerate(perm)), "faces": faces}
    return None


# (genus, circle count, sorted cone orders), as planar_normal_form keys a piece
_PIECE_KEYS = [(0, 1, (2, 2)), (0, 1, (2, 2, 2)), (0, 2, ()), (1, 2, ()), (0, 3, ())]


def random_normal_form(rng: random.Random, like: NormalForm = None) -> NormalForm:
    """Up to 3 components with up to 3 faces each and up to 5 pieces on
    random faces; ``like`` keeps its components and piece types."""
    if like is None:
        comps = tuple((rng.randint(0, 1), rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
        keys = [rng.choice(_PIECE_KEYS) for _ in range(rng.randint(0, 5))]
    else:
        comps, keys = like.components, [key for key, _faces in like.pieces]
    faces = [(i, f) for i, (_genus, circles) in enumerate(comps) for f in range(circles)]
    pieces = [(key, tuple(sorted(rng.choice(faces) for _ in range(key[1])))) for key in keys]
    return NormalForm(comps, tuple(sorted(pieces)))


def relabeled_normal_form(n: NormalForm, rng: random.Random) -> NormalForm:
    """The same normal form with components, faces and pieces reordered."""
    perm = list(range(len(n.components)))
    rng.shuffle(perm)
    faces = {}
    for i, (_genus, circles) in enumerate(n.components):
        order = list(range(circles))
        rng.shuffle(order)
        faces.update({(i, f): (perm[i], order[f]) for f in range(circles)})
    comps = [None] * len(perm)
    for i, comp in enumerate(n.components):
        comps[perm[i]] = comp
    pieces = [(key, tuple(sorted(faces[x] for x in fs))) for key, fs in n.pieces]
    rng.shuffle(pieces)
    return NormalForm(tuple(comps), tuple(pieces))


def _components_by_merging(vertices: set, edges) -> int:
    """Number of components of the graph induced on ``vertices``, found by
    merging the vertex sets of each edge's ends (no graph search)."""
    comp = {v: frozenset([v]) for v in vertices}
    for e in edges:
        if e <= vertices:
            a, b = e
            merged = comp[a] | comp[b]
            comp.update(dict.fromkeys(merged, merged))
    return len(set(comp.values()))


def brute_force_one_ended(g: DefiningGraph) -> bool:
    """Clique-separator criterion by exhaustion: g is neither empty nor
    complete, and removing any vertex subset that is a clique (the empty
    set included) leaves at most one component. Small graphs only."""
    vs = sorted(g.vertices)
    if len(g.edges) == len(vs) * (len(vs) - 1) // 2:
        return False
    for k in range(len(vs) + 1):
        for sub in itertools.combinations(vs, k):
            if all(frozenset(p) in g.edges for p in itertools.combinations(sub, 2)):
                if _components_by_merging(set(vs) - set(sub), g.edges) > 1:
                    return False
    return True


def random_defining_graph(rng: random.Random, max_vertices: int = 9) -> DefiningGraph:
    """A random simplicial graph, triangles allowed, of varied density."""
    vs = [f"x{i}" for i in range(rng.randint(1, max_vertices))]
    density = rng.uniform(0.2, 0.9)
    pairs = [p for p in itertools.combinations(vs, 2) if rng.random() < density]
    return DefiningGraph.from_edges(vs, pairs)


def random_subdivided_graph(rng: random.Random, max_vertices: int = 12) -> DefiningGraph:
    """Essential vertices joined by branches of 0-3 interior vertices, and
    sometimes a second such block glued on at a cut vertex: the valence-2
    chains, cut vertices and low-degree separating edges that
    random_defining_graph rarely makes."""
    names = (f"y{i:02d}" for i in itertools.count())

    def block(budget: int):
        ends = [next(names) for _ in range(rng.randint(2, min(4, budget)))]
        vs, edges = list(ends), []
        for _ in range(rng.randint(2, 6)):
            a, b = rng.sample(ends, 2)
            inner = [next(names) for _ in range(min(rng.randint(0, 3), budget - len(vs)))]
            vs += inner
            path = [a, *inner, b]
            edges += zip(path, path[1:])
        return vs, edges

    vs, edges = block(max_vertices)
    if len(vs) < max_vertices - 1 and rng.random() < 0.4:
        more, more_edges = block(max_vertices - len(vs) + 1)
        glued = {more[0]: rng.choice(vs)}
        vs += more[1:]
        edges += [(glued.get(a, a), glued.get(b, b)) for a, b in more_edges]
    return DefiningGraph.from_edges(vs, edges)


def random_branched_graph(rng: random.Random) -> DefiningGraph:
    """A triangle-free defining graph with 2-4 essential vertices, built
    the way the benchmark builds its ladders.  The support on the essential
    vertices is 2-connected (a random cycle plus random chords, or one pair
    for two vertices) or two such blocks glued at a cut vertex.  Each
    support pair is joined by 2-3 branches (3 in a two-vertex block, so
    its ends have valence 3) with 3-5 interior vertices each, so no two
    essential vertices are adjacent and every polygon of the Davis complex
    unfolds to a disk with at least four cones."""
    names = (f"u{i:03d}" for i in itertools.count())
    essential = [next(names) for _ in range(rng.randint(2, 4))]
    blocks = [essential]
    if len(essential) > 2 and rng.random() < 0.4:
        cut = rng.randint(1, len(essential) - 2)
        blocks = [essential[:cut + 1], essential[cut:]]
    support = []
    for block in blocks:
        if len(block) == 2:
            support.append((tuple(block), 3))
            continue
        order = rng.sample(block, len(block))
        cycle = {frozenset(p) for p in zip(order, order[1:] + order[:1])}
        pairs = [p for p in itertools.combinations(block, 2)
                 if frozenset(p) in cycle or rng.random() < 0.3]
        support += [(p, rng.randint(2, 3)) for p in pairs]
    vertices, edges = list(essential), []
    for (a, z), branches in support:
        for _ in range(branches):
            inner = [next(names) for _ in range(rng.randint(3, 5))]
            vertices += inner
            path = [a, *inner, z]
            edges += zip(path, path[1:])
    return DefiningGraph.from_edges(vertices, edges)


def _labeling_value(phi: TwoTorsionLabeling, generator: str) -> int:
    """phi of one generator of ``fundamental_group_presentation``: edges off
    the spanning forest, walls, mirror segments and cones.  The pieces a
    double cover accepts have no handle or connector generators."""
    kind, inner = generator[0], generator[2:-1]
    if kind == "e":
        return phi.edge(inner)
    if kind == "w":
        return phi.wall(inner)
    if kind == "s":
        pid, ci, si = inner.rsplit(":", 2)
        return phi.mirror((pid, int(ci), int(si)))
    if kind == "x":
        pid, j = inner.rsplit(":", 1)
        return phi.cone(pid, int(j))
    raise AssertionError(f"phi has no value on {generator}")


def reidemeister_schreier_h1(base: Orbicomplex, phi: TwoTorsionLabeling) -> AbelianInvariants:
    """H_1 of the kernel of phi: pi_1(base) -> Z/2, which is pi_1 of
    ``double_cover(base, phi)``, by rewriting the base presentation over the
    two cosets (Magnus, Karrass and Solitar, Combinatorial Group Theory,
    section 2.3).  The Schreier generator ``g@k`` is g read from coset k;
    each base relator is rewritten from both cosets, and must come back to
    the coset it starts from, which checks that phi is a homomorphism.  The
    transversal is {1, u} for the first generator u with phi(u) = 1, so
    ``u@0`` is trivial."""
    pres = fundamental_group_presentation(base)
    value = {g: _labeling_value(phi, g) for g in pres.generators}
    relators = []
    for rel in pres.relators:
        for start in (0, 1):
            coset, word = start, []
            for g, e in rel:
                assert e in (1, -1), rel
                if e == -1:
                    coset ^= value[g]  # g^-1 is read on the edge into coset
                word.append((f"{g}@{coset}", e))
                if e == 1:
                    coset ^= value[g]
            assert coset == start, f"{rel} leaves coset {start}: phi is not a homomorphism"
            relators.append(tuple(word))
    u = next(g for g in pres.generators if value[g])
    relators.append(((f"{u}@0", 1),))
    gens = tuple(f"{g}@{k}" for g in pres.generators for k in (0, 1))
    return abelianization(GroupPresentation(gens, tuple(relators)))


def cellular_homology(c: Orbicomplex) -> tuple[tuple[int, int, int], int, AbelianInvariants]:
    """The cell counts (n_0, n_1, n_2), b_0 and H_1 of a torsion-free
    complex, every segment of it attached, from its cellular chain complex
    (Hatcher, Algebraic Topology, 2002, section 2.2), with sympy for ranks
    and invariant factors.  C_0 holds the graph vertices.  C_1 holds the
    graph edges, 2g handle loops per piece of genus g, and one arc per
    boundary circle after the first, from circle 0's first junction to that
    circle's.  C_2 holds one cell per piece, whose boundary is the signed sum
    of its segments' attachment edges: handles and arcs cancel."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    assert all(mark is None for mark in c.graph.marks.values()), "a vertex has a local group"
    assert all(not p.cones and not p.has_mirrors for p in c.pieces), "a piece has cones or mirrors"
    assert all((p.id, ci, si) in c.attachments for p in c.pieces for ci, si, _k in p.segments())
    vertices = {v: k for k, v in enumerate(sorted(c.graph.marks))}
    edges = {e: k for k, e in enumerate(sorted(c.graph.edges))}
    d1 = [[0] * len(vertices) for _ in edges]  # boundary map 1 transposed: a row per 1-cell
    for e, (u, v) in c.graph.edges.items():
        d1[edges[e]][vertices[u]] -= 1
        d1[edges[e]][vertices[v]] += 1
    d2 = []
    for p in c.pieces:
        d1 += [[0] * len(vertices) for _ in range(2 * p.genus)]
        start = c.seg_endpoints((p.id, 0, 0))[0]
        for ci in range(1, len(p.boundary)):
            arc = [0] * len(vertices)
            arc[vertices[start]] -= 1
            arc[vertices[c.seg_endpoints((p.id, ci, 0))[0]]] += 1
            d1.append(arc)
        cell = [0] * len(d1)
        for ci, si, _kind in p.segments():
            e, d = c.attachments[(p.id, ci, si)]
            cell[edges[e]] += d
        d2.append(cell)
    n0, n1, n2 = len(vertices), len(d1), len(d2)
    d2 = [cell + [0] * (n1 - len(cell)) for cell in d2]
    rank1 = Matrix(d1).rank() if n1 else 0
    factors = [abs(int(x)) for x in invariant_factors(Matrix(d2), domain=ZZ) if x] if n2 else []
    b1 = n1 - rank1 - len(factors)
    return (n0, n1, n2), n0 - rank1, AbelianInvariants(b1, tuple(d for d in factors if d > 1))
