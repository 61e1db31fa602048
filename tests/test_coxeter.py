import importlib.util
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orbicover import coxeter, invariants, orbicore
from orbicover.coxeter import (
    Branch,
    DefiningGraph,
    NoEssentialVertices,
    branch_decomposition,
    branch_polygon,
    davis_orbicomplex,
    demo_defining_graph,
    one_endedness_check,
    racg_presentation,
)
from orbicover.graphs import RAM2, is_wall
from orbicover.orbicore import piece_orbifold_euler

from oracles import (
    brute_force_one_ended,
    random_branched_graph,
    random_defining_graph,
    random_subdivided_graph,
    weighted_cell_euler,
)


def path_graph(n):
    verts = [f"v{i}" for i in range(n)]
    return DefiningGraph.from_edges(verts, [(verts[i], verts[i + 1]) for i in range(n - 1)])


def complete_graph(n):
    verts = [f"v{i}" for i in range(n)]
    edges = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    return DefiningGraph.from_edges(verts, edges)


def theta_defining_graph(interior=2):
    verts = {"u", "v"}
    edges = []
    for k in range(3):
        mids = [f"m{k}{j}" for j in range(interior)]
        verts.update(mids)
        path = ["u"] + mids + ["v"]
        edges += [(path[i], path[i + 1]) for i in range(len(path) - 1)]
    return DefiningGraph.from_edges(verts, edges)


# ---------------------------------------------------------------------------
# presentations


def test_racg_single_vertex():
    g = DefiningGraph.from_edges(["s"], [])
    pres = racg_presentation(g)
    assert pres.generators == ("s",)
    assert pres.relators == ((("s", 1), ("s", 1)),)


def test_racg_single_edge():
    g = DefiningGraph.from_edges(["s", "t"], [("s", "t")])
    pres = racg_presentation(g)
    assert pres.generators == ("s", "t")
    assert (("s", 1), ("t", 1), ("s", 1), ("t", 1)) in pres.relators
    assert len(pres.relators) == 3


def test_racg_demo_graph_counts():
    pres = racg_presentation(demo_defining_graph())
    assert len(pres.generators) == 25
    assert len(pres.relators) == 25 + 28


def test_racg_abelianization_is_two_group():
    for g in (demo_defining_graph(), path_graph(3), complete_graph(3), theta_defining_graph()):
        ab = invariants.abelianization(racg_presentation(g))
        assert ab == invariants.AbelianInvariants(0, (2,) * len(g.vertices))


def test_adjacency_is_keyed_in_sorted_vertex_order():
    # graph searches start from its first keys, so their work must not
    # depend on string hashing
    g = demo_defining_graph()
    assert list(g.adjacency) == g.sorted_vertices()


def _outcome(f, g):
    try:
        return f(g)
    except NoEssentialVertices as exc:
        return str(exc)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False), st.booleans())
def test_defining_graph_has_one_canonical_form(rng, branched):
    # however the vertices and edges are listed, oriented or repeated, the
    # graph is one sorted form with one sorted adjacency index
    g = (random_branched_graph if branched else random_defining_graph)(rng)
    vs = [*g.vertices, *rng.sample(g.vertices, rng.randint(0, 2))]
    es = [*g.edges, *rng.sample(g.edges, min(2, len(g.edges)))]
    rng.shuffle(vs)
    rng.shuffle(es)
    es = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in es]
    h = DefiningGraph.from_edges(vs, es)
    assert h == g and hash(h) == hash(g)
    assert h == DefiningGraph(frozenset(vs), frozenset(map(frozenset, es)))
    assert list(h.vertices) == sorted(set(vs))
    assert all(a < b for a, b in h.edges)
    assert all(e < f for e, f in zip(h.edges, h.edges[1:]))
    pairs = {frozenset(e) for e in es}
    assert h.adjacency == {v: tuple(u for u in h.vertices if {u, v} in pairs) for v in h.vertices}
    assert list(h.adjacency) == list(h.vertices)
    assert racg_presentation(h) == racg_presentation(g)
    assert _outcome(branch_decomposition, h) == _outcome(branch_decomposition, g)


def test_defining_graph_holds_one_pair_per_edge():
    # 150 four-vertex branches between two essential vertices: 302 vertices
    # and 450 edges.  With a frozenset per edge the graph and its adjacency
    # held 145 KB; as sorted tuples of pairs they hold under 64 KB
    vertices = ["u", "v"] + [f"m{k}.{j}" for k in range(150) for j in range(2)]
    edges = []
    for k in range(150):
        path = ["u", f"m{k}.0", f"m{k}.1", "v"]
        edges += zip(path, path[1:])
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        g = DefiningGraph.from_edges(vertices, edges)
        g.adjacency
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (len(g.vertices), len(g.edges)) == (302, 450)
    assert held <= 64 * 1024, held


# ---------------------------------------------------------------------------
# branches


def test_path_graph_has_no_essential_vertices():
    with pytest.raises(NoEssentialVertices):
        branch_decomposition(path_graph(5))


def test_theta_graph_branches():
    branches = branch_decomposition(theta_defining_graph(2))
    assert [b.n for b in branches] == [4, 4, 4]
    for b in branches:
        assert {b.path[0], b.path[-1]} == {"u", "v"}


def test_demo_graph_branch_multiset_and_pairing():
    branches = branch_decomposition(demo_defining_graph())
    assert sorted(b.n for b in branches) == [5, 5, 5, 5, 7, 7]
    pairing = {}
    for b in branches:
        key = tuple(sorted(b.endpoints))
        pairing.setdefault(key, []).append(b.n)
    assert pairing == {
        ("v1", "v2"): [7, 7],
        ("v1", "v3"): [5, 5],
        ("v2", "v3"): [5, 5],
    }


def test_branches_partition_edge_set():
    for g in (demo_defining_graph(), theta_defining_graph(3)):
        branches = branch_decomposition(g)
        covered = []
        for b in branches:
            covered += [
                frozenset((b.path[i], b.path[i + 1])) for i in range(b.n - 1)
            ]
        assert len(covered) == len(set(covered)), "branches overlap"
        assert set(covered) == {frozenset(e) for e in g.edges}


def test_dangling_edge_rejected():
    g = DefiningGraph.from_edges(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("a", "c"), ("a", "d"), ("d", "e")],
    )
    with pytest.raises(NoEssentialVertices):
        branch_decomposition(g)


# ---------------------------------------------------------------------------
# polygons


@pytest.mark.parametrize("n,chi", [(5, Fraction(-1, 2)), (7, Fraction(-1)), (2, Fraction(1, 4))])
def test_branch_polygon_euler(n, chi):
    b = Branch(tuple(f"v{i}" for i in range(n)))
    p = branch_polygon(b)
    assert p.boundary[0].count(orbicore.MIRROR) == n
    assert p.boundary[0].count(orbicore.FREE) == 2
    assert piece_orbifold_euler(p) == chi
    assert weighted_cell_euler(orbicore.Orbicomplex(pieces=[p])) == chi


def test_branch_too_short():
    with pytest.raises(coxeter.BranchTooShort):
        branch_polygon(Branch(("v",)))


# ---------------------------------------------------------------------------
# the Davis orbicomplex


def test_davis_demo_structure(chain):
    c = chain.base
    assert len(c.pieces) == 6
    mirror_counts = sorted(
        sum(1 for k in p.boundary[0] if k == orbicore.MIRROR) for p in c.pieces
    )
    assert mirror_counts == [5, 5, 5, 5, 7, 7]
    walls = [v for v, m in c.graph.marks.items() if is_wall(m)]
    assert len(walls) == 3
    assert orbicore.euler_characteristic(c) == Fraction(-9, 2)


def test_davis_validates_and_singular_is_marked_star():
    for g in (demo_defining_graph(), theta_defining_graph(3)):
        c = davis_orbicomplex(g)
        assert orbicore.validate_complex(c) == []
        s = orbicore.singular_subspace(c)
        hubs = [v for v, m in s.marks.items() if m is None]
        leaves = [v for v, m in s.marks.items() if m == RAM2]
        assert len(hubs) == 1
        assert len(leaves) == len(s.edges)
        essential = {v for v in g.vertices if g.valence(v) >= 3}
        assert len(leaves) == len(essential)


def _ladder_graphs(seed):
    """The ladder-covers inputs of the benchmark for ``seed``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look their module up here
    spec.loader.exec_module(gen)
    return [case.graph for case in gen.make_cases(gen.COVERS_SPECS, seed)]


def test_davis_pieces_of_one_branch_length_share_one_boundary():
    for g in [demo_defining_graph(), *_ladder_graphs(1)]:
        pieces = davis_orbicomplex(g).pieces
        assert len({id(p.boundary) for p in pieces}) == len({p.boundary for p in pieces})


def test_davis_theta_defining_graph():
    c = davis_orbicomplex(theta_defining_graph(4))
    assert len(c.pieces) == 3
    walls = [v for v, m in c.graph.marks.items() if is_wall(m)]
    assert len(walls) == 2


def test_davis_euler_matches_cell_oracle():
    for g in (demo_defining_graph(), theta_defining_graph(2), theta_defining_graph(4)):
        c = davis_orbicomplex(g)
        assert orbicore.euler_characteristic(c) == weighted_cell_euler(c)


def test_davis_piece_abelianization_crossmodule(chain):
    ab = invariants.abelianization(invariants.fundamental_group_presentation(chain.base))
    assert ab == invariants.AbelianInvariants(0, (2,) * 25)


def test_davis_validates_what_it_builds(monkeypatch):
    # the defining graph is outside input: the built complex goes through
    # validate_complex once, and a violation surfaces as InvalidComplex
    calls = []

    def failing_validate(c):
        calls.append(c)
        return [orbicore.Violation("Planted", "refused")]

    monkeypatch.setattr(orbicore, "validate_complex", failing_validate)
    with pytest.raises(orbicore.InvalidComplex, match="Planted"):
        davis_orbicomplex(theta_defining_graph(3))
    assert len(calls) == 1


def test_davis_refuses_graph_with_triangle():
    # chi(W) of K_4 is 1/16; the 2-dimensional construction would give 1/2
    with pytest.raises(coxeter.HasTriangle):
        davis_orbicomplex(complete_graph(4))


# ---------------------------------------------------------------------------
# one-endedness


def cycle_graph(n):
    verts = [f"v{i}" for i in range(n)]
    return DefiningGraph.from_edges(verts, [(verts[i], verts[(i + 1) % n]) for i in range(n)])


def graph_of(pairs):
    """Defining graph from space-separated two-letter edges, e.g. "ab bc"."""
    edges = [tuple(p) for p in pairs.split()]
    return DefiningGraph.from_edges({v for e in edges for v in e}, edges)


@pytest.mark.parametrize(
    "g, expected",
    [
        (demo_defining_graph(), True),
        (DefiningGraph.from_edges([], []), False),  # trivial group
        (complete_graph(3), False),  # complete: finite group
        (DefiningGraph.from_edges(["a", "b"], []), False),  # disconnected
        (path_graph(3), False),  # the middle vertex separates
        (graph_of("ab bc cd da be ef fa"), False),  # the shared edge ab separates
        (graph_of("ab ac ad bc bd cd ae be ce"), False),  # the shared triangle abc separates
        (cycle_graph(4), True),
        (cycle_graph(6), True),  # hexagon: a 2-orbifold group
        (graph_of("ad ae af bd be bf cd ce cf"), True),
        (graph_of("ab bc cd da dp pe ef fg gh he"), False),  # the valence-2 vertex p separates
        (graph_of("ab bc cd da ae ef fg ga"), False),  # a, the search's root, separates
        (graph_of("xy yc cb bx yd de ex"), False),  # the edge xy separates; x, y have degree 3
    ],
    ids=[
        "demo", "empty", "K3", "two-isolated-vertices", "path", "two-squares-sharing-an-edge",
        "two-K4-sharing-a-triangle", "square", "hexagon", "K33",
        "squares-joined-by-a-path", "squares-sharing-the-root", "degree-3-separating-edge",
    ],
)
def test_one_endedness(g, expected):
    assert one_endedness_check(g) is expected


def test_one_endedness_matches_oracle_on_random_graphs():
    rng = random.Random(8)
    answers = []
    for _ in range(300):
        g = random_defining_graph(rng)
        answers.append(one_endedness_check(g))
        assert answers[-1] == brute_force_one_ended(g), sorted(map(sorted, g.edges))
    assert 0 < sum(answers) < len(answers)


def test_one_endedness_matches_oracle_on_subdivided_graphs():
    rng = random.Random(15)
    answers = []
    for _ in range(150):
        g = random_subdivided_graph(rng)
        answers.append(one_endedness_check(g))
        assert answers[-1] == brute_force_one_ended(g), sorted(map(sorted, g.edges))
    assert 0 < sum(answers) < len(answers)
