import random
from fractions import Fraction

import pytest

from orbicover import orbicore
from orbicover.orbicore import (
    FREE,
    MIRROR,
    RAM2,
    MarkedGraph,
    Orbicomplex,
    Piece,
    disk_with_cones,
    euler_characteristic,
    graph_to_dot,
    marked_graph_isomorphism,
    piece_orbifold_euler,
    ribbon_neighborhood,
    rotation_from_circuits,
    singular_subspace,
    topological_form,
    validate_complex,
)

from oracles import brute_force_graph_iso, random_marked_graph, relabeled_copy, weighted_cell_euler


def polygon_piece(n, pid="p"):
    return Piece(pid, 0, ((FREE,) + (MIRROR,) * n + (FREE,),), ())


def cycle_graph(n):
    g = MarkedGraph()
    for i in range(n):
        g.marks[f"v{i}"] = None
    for i in range(n):
        g.edges[f"e{i}"] = (f"v{i}", f"v{(i + 1) % n}")
        g.multiplicity[f"e{i}"] = 0
    return g


def theta_graph(mult=4):
    g = MarkedGraph()
    g.marks = {"x": None, "y": None}
    for i in (1, 2, 3):
        g.edges[f"c{i}"] = ("x", "y")
        g.multiplicity[f"c{i}"] = mult
    return g


def tripod(mult=4):
    g = MarkedGraph()
    g.marks["c"] = None
    for i in (1, 2, 3):
        g.marks[f"l{i}"] = RAM2
        g.edges[f"e{i}"] = (f"l{i}", "c")
        g.multiplicity[f"e{i}"] = mult
    return g


# ---------------------------------------------------------------------------
# validation


def test_validate_davis_complex_clean(chain):
    assert validate_complex(chain.base) == []


def test_validate_dangling_attachment(chain):
    c = Orbicomplex(
        pieces=[disk_with_cones("d", 2)],
        graph=MarkedGraph(marks={"v": None}),
        attachments={("d", 0, 0): ("missing", 1)},
    )
    kinds = {v.kind for v in validate_complex(c)}
    assert "DanglingAttachment" in kinds


def test_validate_mirror_attached():
    g = MarkedGraph(marks={"u": None, "v": None})
    g.edges["e"] = ("u", "v")
    g.multiplicity["e"] = 1
    c = Orbicomplex(
        pieces=[polygon_piece(3)],
        graph=g,
        attachments={("p", 0, 1): ("e", 1)},
    )
    kinds = {v.kind for v in validate_complex(c)}
    assert "MirrorAttached" in kinds


def test_validate_wrong_multiplicity():
    g = MarkedGraph(marks={"v": None})
    g.edges["e"] = ("v", "v")
    g.multiplicity["e"] = 5
    c = Orbicomplex(
        pieces=[disk_with_cones("d", 2)],
        graph=g,
        attachments={("d", 0, 0): ("e", 1)},
    )
    kinds = {v.kind for v in validate_complex(c)}
    assert "WrongMultiplicity" in kinds


def test_validate_unknown_segment_kind():
    c = Orbicomplex(pieces=[Piece(id="p", boundary=(("mirror", "mirorr", "free"),))])
    kinds = {v.kind for v in validate_complex(c)}
    assert "UnknownSegmentKind" in kinds


# ---------------------------------------------------------------------------
# Euler characteristics


def test_euler_unattached_disk_is_one():
    c = Orbicomplex(pieces=[disk_with_cones("d", 0)])
    assert euler_characteristic(c) == 1


def test_polygon_euler_matches_cell_oracle():
    for n in (2, 5, 7):
        c = Orbicomplex(pieces=[polygon_piece(n)])
        chi = euler_characteristic(c)
        assert chi == weighted_cell_euler(c)
        assert chi == Fraction(3 - n, 4)


def test_polygon_five_mirrors_is_minus_half():
    assert piece_orbifold_euler(polygon_piece(5)) == Fraction(-1, 2)


def test_davis_euler_minus_nine_halves(chain):
    chi = euler_characteristic(chain.base)
    assert chi == Fraction(-9, 2)
    assert chi == weighted_cell_euler(chain.base)


def test_euler_oracle_agrees_on_all_built_complexes(chain):
    complexes = [chain.base, chain.cover1, chain.cover2, chain.y, chain.z,
                 chain.y_hat, chain.z_hat]
    complexes += [cx for _p, cx, _f in chain.family1]
    complexes += [cx for _p, cx, _f in chain.family2]
    for c in complexes:
        assert euler_characteristic(c) == weighted_cell_euler(c)


def test_euler_requires_valid_complex():
    c = Orbicomplex(
        pieces=[disk_with_cones("d", 1)],
        graph=MarkedGraph(),
        attachments={("d", 0, 0): ("nope", 1)},
    )
    with pytest.raises(orbicore.InvalidComplex):
        euler_characteristic(c)


# ---------------------------------------------------------------------------
# singular subspaces


def test_singular_subspace_of_davis_is_marked_tripod(chain):
    s = singular_subspace(chain.base)
    assert marked_graph_isomorphism(s, tripod()) is not None
    assert all(m in (None, RAM2) for m in s.marks.values())


def test_singular_subspace_of_first_cover_is_theta(chain):
    s = singular_subspace(chain.cover1)
    assert marked_graph_isomorphism(s, theta_graph()) is not None
    assert all(m is None for m in s.marks.values())


def test_singular_subspace_of_unattached_piece_is_empty():
    c = Orbicomplex(pieces=[disk_with_cones("d", 3)])
    s = singular_subspace(c)
    assert not s.marks and not s.edges


# ---------------------------------------------------------------------------
# topological form


def test_suppress_path_to_single_edge():
    g = MarkedGraph(marks={"a": None, "b": None, "c": None})
    g.edges = {"e1": ("a", "b"), "e2": ("b", "c")}
    g.multiplicity = {"e1": 2, "e2": 2}
    out = topological_form(g)
    assert len(out.marks) == 2 and len(out.edges) == 1
    assert set(next(iter(out.edges.values()))) == {"a", "c"}


def test_marked_tripod_unchanged():
    g = tripod()
    out = topological_form(g)
    assert sorted(out.marks) == sorted(g.marks)
    assert len(out.edges) == 3


def test_unequal_multiplicities_block_suppression():
    g = MarkedGraph(marks={"a": None, "b": None, "c": None})
    g.edges = {"e1": ("a", "b"), "e2": ("b", "c")}
    g.multiplicity = {"e1": 2, "e2": 3}
    out = topological_form(g)
    assert len(out.edges) == 2


def test_subdivided_theta_smooths_to_theta():
    # hand smoothing oracle: each subdivided arc collapses to one edge
    g = MarkedGraph(marks={"x": None, "y": None})
    for i in (1, 2, 3):
        g.marks[f"m{i}"] = None
        g.edges[f"a{i}"] = ("x", f"m{i}")
        g.edges[f"b{i}"] = (f"m{i}", "y")
        g.multiplicity[f"a{i}"] = g.multiplicity[f"b{i}"] = 4
    out = topological_form(g)
    assert marked_graph_isomorphism(out, theta_graph()) is not None


def test_topological_form_idempotent_on_random_corpus():
    rng = random.Random(7)
    for _ in range(60):
        g = random_marked_graph(rng, 8)
        once = topological_form(g)
        twice = topological_form(once)
        assert marked_graph_isomorphism(once, twice) is not None


def test_topological_form_commutes_with_isomorphism():
    rng = random.Random(11)
    for _ in range(40):
        g = random_marked_graph(rng, 8)
        h = relabeled_copy(g, rng)
        assert (marked_graph_isomorphism(g, h) is not None) == (
            marked_graph_isomorphism(topological_form(g), topological_form(h)) is not None
        )


# ---------------------------------------------------------------------------
# marked graph isomorphism


def test_theta_isomorphic_to_relabeling():
    g = theta_graph()
    h = relabeled_copy(g, random.Random(3))
    assert marked_graph_isomorphism(g, h) is not None


def test_theta_not_isomorphic_to_tripod():
    assert marked_graph_isomorphism(theta_graph(), tripod()) is None


def test_iso_reflexive_and_symmetric_on_random_corpus():
    rng = random.Random(5)
    for _ in range(40):
        g = random_marked_graph(rng, 12)
        assert marked_graph_isomorphism(g, g) is not None
        h = random_marked_graph(rng, 12)
        assert (marked_graph_isomorphism(g, h) is None) == (
            marked_graph_isomorphism(h, g) is None
        )


def test_iso_agrees_with_brute_force_on_small_graphs():
    rng = random.Random(13)
    for k in range(100):
        g = random_marked_graph(rng, 7)
        if k % 2 == 0:
            h = relabeled_copy(g, rng)
        else:
            h = random_marked_graph(rng, 7)
        got = marked_graph_isomorphism(g, h)
        want = brute_force_graph_iso(g, h)
        assert (got is None) == (want is None)


def test_iso_mapping_is_valid_bijection():
    g = theta_graph()
    h = relabeled_copy(g, random.Random(17))
    mapping = marked_graph_isomorphism(g, h)
    assert sorted(mapping) == g.vertices()
    assert sorted(mapping.values()) == h.vertices()


# ---------------------------------------------------------------------------
# ribbon neighborhoods


def planar_cycle_rotation(g):
    rot = {}
    for v in g.vertices():
        rot[v] = sorted(d for d in g.darts() if g.dart_tail(d) == v)
    return rot


def test_single_cycle_gives_annulus():
    g = cycle_graph(5)
    genus, circuits = ribbon_neighborhood(g, planar_cycle_rotation(g))
    assert genus == 0
    assert len(circuits) == 2


def test_theta_planar_rotation_gives_three_faces():
    g = theta_graph()
    rot = {
        "x": [("c1", 0), ("c2", 0), ("c3", 0)],
        "y": [("c1", 1), ("c3", 1), ("c2", 1)],
    }
    genus, circuits = ribbon_neighborhood(g, rot)
    assert (genus, len(circuits)) == (0, 3)


def test_theta_twisted_rotation_gives_torus():
    g = theta_graph()
    rot = {
        "x": [("c1", 0), ("c2", 0), ("c3", 0)],
        "y": [("c1", 1), ("c2", 1), ("c3", 1)],
    }
    genus, circuits = ribbon_neighborhood(g, rot)
    assert (genus, len(circuits)) == (1, 1)


def test_singular_graph_of_pair_cover_is_planar_with_six_faces(chain):
    # the derived rotation thickens the singular graph of either cover of the
    # counterexample pair to a genus-0 surface with six boundary circles
    for cx in (chain.y, chain.z):
        s = singular_subspace(cx)
        genus, circuits = ribbon_neighborhood(s, cx.rotation)
        assert (genus, len(circuits)) == (0, 6)


def test_ribbon_euler_formula_on_random_rotations():
    rng = random.Random(23)
    trials = 0
    while trials < 40:
        g = random_marked_graph(rng, 6)
        if len(g.components()) != 1 or not g.edges:
            continue
        trials += 1
        darts_at = {}
        for d in g.darts():
            darts_at.setdefault(g.dart_tail(d), []).append(d)
        rot = {}
        for v, ds in darts_at.items():
            rng.shuffle(ds)
            rot[v] = ds
        genus, circuits = ribbon_neighborhood(g, rot)
        v, e, fcount = len(g.marks), len(g.edges), len(circuits)
        assert fcount + v - e == 2 - 2 * genus
        assert genus >= 0


def test_malformed_rotation_rejected():
    g = theta_graph()
    with pytest.raises(orbicore.MalformedRotation):
        ribbon_neighborhood(g, {"x": [("c1", 0)], "y": [("c1", 1)]})


def test_rotation_from_circuits_roundtrip():
    g = theta_graph()
    circuits = [
        [("c1", 1), ("c2", -1)],
        [("c3", 1), ("c1", -1)],
        [("c2", 1), ("c3", -1)],
    ]
    rot = rotation_from_circuits(g, circuits)
    assert rot is not None
    genus, faces = ribbon_neighborhood(g, rot)
    assert (genus, len(faces)) == (0, 3)
    canon = {orbicore._canonical_cycle(w) for w in circuits}
    assert {orbicore._canonical_cycle(w) for w in faces} == canon


def test_rotation_from_circuits_rejects_nonorientable():
    g = theta_graph()
    circuits = [
        [("c1", 1), ("c2", -1)],
        [("c1", 1), ("c3", -1)],  # c1 used twice in the same direction
        [("c2", 1), ("c3", -1)],
    ]
    # orientation flips rescue this pairing, so construct a genuine failure:
    bad = [
        [("c1", 1), ("c1", 1)],
        [("c2", 1), ("c3", -1)],
        [("c2", 1), ("c3", -1)],
    ]
    assert rotation_from_circuits(g, bad) is None


# ---------------------------------------------------------------------------
# DOT export


def test_dot_export_mentions_marks_and_multiplicities(chain):
    text = graph_to_dot(singular_subspace(chain.base))
    assert text.startswith("graph")
    assert "[2]" in text
    assert "x4" in text
