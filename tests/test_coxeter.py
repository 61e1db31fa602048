from fractions import Fraction

import pytest

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
from orbicover.orbicore import RAM2, is_wall, piece_orbifold_euler

from oracles import weighted_cell_euler


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
        assert set(covered) == set(g.edges)


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


def test_davis_refuses_graph_with_triangle():
    # chi(W) of K_4 is 1/16; the 2-dimensional construction would give 1/2
    with pytest.raises(coxeter.HasTriangle):
        davis_orbicomplex(complete_graph(4))


# ---------------------------------------------------------------------------
# one-endedness


def test_demo_graph_one_ended():
    assert one_endedness_check(demo_defining_graph()) is True


def test_complete_graph_not_one_ended():
    assert one_endedness_check(complete_graph(3)) is False


def test_two_isolated_vertices_not_one_ended():
    g = DefiningGraph.from_edges(["a", "b"], [])
    assert one_endedness_check(g) is False


def test_path_graph_not_one_ended():
    # interior vertices are separating cliques
    assert one_endedness_check(path_graph(3)) is False


def test_cycle_graph_one_ended_check():
    verts = [f"v{i}" for i in range(6)]
    g = DefiningGraph.from_edges(
        verts, [(verts[i], verts[(i + 1) % 6]) for i in range(6)]
    )
    # hexagon: no separating clique, not complete: one-ended (2-orbifold group)
    assert one_endedness_check(g) is True
