from fractions import Fraction

import pytest

from orbicover import covers, orbicore
from orbicover.covers import (
    BadGenus,
    MirrorsPresent,
    NotADiskOrbifold,
    NotAPolygon,
    NotAHomomorphism,
    NotSurjective,
    TwoTorsionLabeling,
    UnsupportedPiece,
    all_ones_labeling,
    compose,
    double_cover,
    enumerate_double_covers,
    identity_covering,
    reflection_double,
    rotation_double,
    surface_over_disk_tower,
    torsion_free_cover,
    verify_covering,
)
from orbicover.coxeter import Branch, branch_polygon
from orbicover.orbicore import (
    FREE,
    MIRROR,
    MarkedGraph,
    Orbicomplex,
    Piece,
    disk_with_cones,
    euler_characteristic,
    piece_orbifold_euler,
    recompute_multiplicities,
    singular_subspace,
    topological_form,
    wall_mark,
)


def make_polygon(n):
    return branch_polygon(Branch(tuple(f"v{i}" for i in range(n))))


def loop_complex(n_cones):
    """One disk with cones attached along a single loop edge."""
    g = MarkedGraph(marks={"v": None})
    g.edges["e"] = ("v", "v")
    c = Orbicomplex(
        pieces=[disk_with_cones("d", n_cones)],
        graph=g,
        attachments={("d", 0, 0): ("e", 1)},
    )
    recompute_multiplicities(c)
    return c


# ---------------------------------------------------------------------------
# verification basics


def test_identity_covering_passes(chain):
    rep = verify_covering(identity_covering(chain.base))
    assert rep.passed and rep.degree == 1


def test_first_cover_verifies_at_degree_two(chain):
    rep = verify_covering(chain.map1)
    assert rep.passed and rep.degree == 2


def test_first_cover_census_and_euler(chain):
    census = sorted(len(p.cones) for p in chain.cover1.pieces)
    assert census == [4, 4, 4, 4, 6, 6]
    assert euler_characteristic(chain.cover1) == Fraction(-9)
    assert euler_characteristic(chain.cover1) == 2 * euler_characteristic(chain.base)


def test_first_cover_boundary_words(chain):
    # each disk attaches along two segments forming c_a then c_z reversed
    for p in chain.cover1.pieces:
        (e0, d0) = chain.cover1.attachments[(p.id, 0, 0)]
        (e1, d1) = chain.cover1.attachments[(p.id, 0, 1)]
        assert (d0, d1) == (1, -1)
        assert e0 != e1


def test_local_degree_defect_fails_fiber_and_euler(chain):
    import copy

    broken = copy.deepcopy(chain.map1)
    pid = broken.source.pieces[0].id
    broken.piece_map[pid] = (broken.piece_map[pid][0], 3)
    rep = verify_covering(broken)
    assert not rep.passed
    failed = {c.condition for c in rep.failures()}
    assert "fiber_sums" in failed
    assert "piece_euler" in failed


def test_missing_segment_map_fails_boundary(chain):
    import copy

    broken = copy.deepcopy(chain.map1)
    key = sorted(broken.segment_map)[0]
    del broken.segment_map[key]
    rep = verify_covering(broken)
    assert not rep.passed
    assert any(c.condition == "boundary" for c in rep.failures())


def test_dangling_reference_raises(chain):
    import copy

    broken = copy.deepcopy(chain.map1)
    broken.piece_map["ghost"] = ("nowhere", 1)
    with pytest.raises(covers.MismatchedComplexes):
        verify_covering(broken)


# ---------------------------------------------------------------------------
# reflection and rotation doubles


@pytest.mark.parametrize("n", range(2, 13))
def test_reflection_double_suite(n):
    p = make_polygon(n)
    cover, f = reflection_double(p)
    rep = verify_covering(f)
    assert rep.passed
    assert len(cover.cones) == n - 1
    assert piece_orbifold_euler(cover) == 2 * piece_orbifold_euler(p)


def test_reflection_double_rejects_cone_disk():
    with pytest.raises(NotAPolygon):
        reflection_double(disk_with_cones("d", 3))


@pytest.mark.parametrize("m", range(1, 9))
def test_rotation_double_suite(m):
    p = disk_with_cones("d", m + 1)
    cover, f = rotation_double(p)
    rep = verify_covering(f)
    assert rep.passed
    assert len(cover.cones) == 2 * m
    smooth = [
        tok
        for toks in f.cone_fibers.values()
        for tok in toks
        if tok[0] == "smooth"
    ]
    assert len(smooth) == 1
    assert piece_orbifold_euler(cover) == 2 * piece_orbifold_euler(p)


def test_rotation_double_rejects_polygon():
    with pytest.raises(NotADiskOrbifold):
        rotation_double(make_polygon(4))


def test_rotation_double_rejects_single_cone():
    with pytest.raises(NotADiskOrbifold):
        rotation_double(disk_with_cones("d", 1))


def test_reflection_then_rotation_composes_to_degree_four():
    for n in (5, 7):
        p = make_polygon(n)
        dpiece, f_refl = reflection_double(p)
        _rpiece, f_rot = rotation_double(dpiece)
        comp = compose(f_rot, f_refl)
        rep = verify_covering(comp)
        assert rep.passed and rep.degree == 4


# ---------------------------------------------------------------------------
# generic double covers


def test_davis_double_cover_shape(chain):
    # the all-ones cover: a banana graph with one edge per wall, and one
    # disk with n-1 cones and two free segments over each n-mirror polygon
    cover, f = covers.davis_double_cover(chain.base)
    walls = [v for v, m in chain.base.graph.marks.items() if orbicore.is_wall(m)]
    assert cover.graph.marks == {"hub.0": None, "hub.1": None}
    assert cover.graph.edges == {f"c.{w}": ("hub.0", "hub.1") for w in walls}
    assert cover.pieces == [
        disk_with_cones(f"{p.id}.01", p.boundary[0].count(orbicore.MIRROR) - 1, n_segments=2)
        for p in chain.base.pieces
    ]
    assert cover.rotation is not None
    assert verify_covering(f).passed


def _assert_wall_lifts_not_bivalent(f):
    """No plain vertex over an unfolded wall is left with two darts on two
    distinct edges: such a vertex is smoothed into one edge."""
    darts = f.source.graph.darts_by_vertex()
    for v, w in f.vertex_map.items():
        if f.source.graph.marks[v] is None and orbicore.is_wall(f.target.graph.marks[w]):
            assert not (len(darts[v]) == 2 and darts[v][0][0] != darts[v][1][0]), v


def test_unfolded_wall_with_two_edges_keeps_its_vertex():
    # a wall with two edges downstairs lifts to a plain vertex with four
    # darts, which stays; only walls with one edge are smoothed away
    g = MarkedGraph(marks={"hub": None, "w.a": wall_mark("a")})
    g.edges["e1"] = ("w.a", "hub")
    g.edges["e2"] = ("w.a", "hub")
    c = Orbicomplex(
        pieces=[Piece("p", 0, ((FREE, MIRROR, FREE),))],
        graph=g,
        attachments={("p", 0, 0): ("e1", -1), ("p", 0, 2): ("e2", 1)},
    )
    recompute_multiplicities(c)
    orbicore.require_valid(c)
    cover, f = double_cover(c, TwoTorsionLabeling(walls={"a": 1}, mirrors={("p", 0, 1): 1}))
    assert cover.graph.marks["w.a.m"] is None
    assert len(cover.graph.darts_by_vertex()["w.a.m"]) == 4
    assert orbicore.validate_complex(cover) == []
    assert verify_covering(f).passed


def test_edge_between_two_unfolded_walls_smooths_one():
    # both walls of the edge unfold; only the one whose lift sorts first is
    # smoothed, and its edge becomes a loop at the other
    g = MarkedGraph(marks={"W1": wall_mark("a"), "W2": wall_mark("b")})
    g.edges["e"] = ("W1", "W2")
    c = Orbicomplex(
        pieces=[disk_with_cones("d", 2, n_segments=2)],
        graph=g,
        attachments={("d", 0, 0): ("e", 1), ("d", 0, 1): ("e", -1)},
    )
    recompute_multiplicities(c)
    orbicore.require_valid(c)
    cover, f = double_cover(c, TwoTorsionLabeling(walls={"a": 1, "b": 1}))
    assert cover.graph.marks == {"W2.m": None}
    assert cover.graph.edges == {"c.W1": ("W2.m", "W2.m")}
    assert f.edge_map["c.W1"] == [("e", -1), ("e", 1)]
    # each copy of the disk runs W2 -> W1 -> W2 as one segment
    assert [p.boundary for p in cover.pieces] == [((FREE,),), ((FREE,),)]
    assert f.segment_map[("d.0", 0, 0)] == [(0, 1, 1), (0, 0, 1)]
    assert orbicore.validate_complex(cover) == []
    assert verify_covering(f).passed


def test_zero_labeling_rejected(chain):
    with pytest.raises(NotSurjective):
        double_cover(chain.cover1, TwoTorsionLabeling())


def test_relator_violation_rejected(chain):
    # parity-1 boundary with all-zero cones breaks the piece relator
    phi = TwoTorsionLabeling(edges={sorted(chain.cover1.graph.edges)[1]: 1})
    with pytest.raises(NotAHomomorphism):
        double_cover(chain.cover1, phi)


def test_wall_mirror_mismatch_rejected(chain):
    phi = all_ones_labeling(chain.base)
    key = sorted(phi.mirrors)[0]
    phi.mirrors[key] = 0
    with pytest.raises(NotAHomomorphism):
        double_cover(chain.base, phi)


def test_double_cover_piece_lift_counts(chain):
    # parity-0 pieces with all-zero cones lift to two pieces, others to one
    for phi, cx, fm in chain.family1:
        for p in chain.cover1.pieces:
            parity = 0
            for si in range(len(p.boundary[0])):
                e, _d = chain.cover1.attachments[(p.id, 0, si)]
                parity ^= phi.edge(e)
            lifts = [q for q, (tq, _l) in fm.piece_map.items() if tq == p.id]
            assert len(lifts) == (1 if parity else 2)


def test_partial_wall_unfolding(chain):
    # unfold only one wall: polygons at that wall glue along their end
    # mirror, the others lift to two disjoint copies
    phi = TwoTorsionLabeling(walls={"v1": 1})
    for p in chain.base.pieces:
        for ref, label in covers._mirror_wall_pairs(chain.base, p):
            if label == "v1":
                phi.mirrors[ref] = 1
    cover, f = double_cover(chain.base, phi)
    rep = verify_covering(f)
    assert rep.passed
    assert euler_characteristic(cover) == Fraction(-9)
    assert orbicore.validate_complex(cover) == []
    _assert_wall_lifts_not_bivalent(f)
    connected = [p for p in cover.pieces if p.id.endswith(".01")]
    split = [p for p in cover.pieces if not p.id.endswith(".01")]
    assert len(connected) == 4 and len(split) == 4
    assert all(not p.cones for p in cover.pieces)


def test_interior_mirror_unfolding(chain):
    # unfolding one interior mirror fuses the adjacent mirror lifts across
    # the sheets into single segments (smooth mirror points, not corners)
    pid = chain.base.pieces[0].id
    phi = TwoTorsionLabeling(mirrors={(pid, 0, 3): 1})
    cover, f = double_cover(chain.base, phi)
    rep = verify_covering(f)
    assert rep.passed
    assert euler_characteristic(cover) == Fraction(-9)
    assert orbicore.validate_complex(cover) == []
    _assert_wall_lifts_not_bivalent(f)
    glued = [p for p in cover.pieces if p.id.endswith(".01")]
    assert len(glued) == 1
    # 7 mirrors: 14 lifts minus the glued pair, two fused pairs merged
    assert sum(1 for k in glued[0].boundary[0] if k == orbicore.MIRROR) == 10


def test_adjacent_mirror_unfolding_creates_cone(chain):
    # unfolding two adjacent interior mirrors turns their shared corner
    # into an order-2 cone point of the cover
    pid = chain.base.pieces[0].id
    phi = TwoTorsionLabeling(mirrors={(pid, 0, 3): 1, (pid, 0, 4): 1})
    cover, f = double_cover(chain.base, phi)
    rep = verify_covering(f)
    assert rep.passed
    assert orbicore.validate_complex(cover) == []
    _assert_wall_lifts_not_bivalent(f)
    glued = [p for p in cover.pieces if p.id.endswith(".01")][0]
    assert glued.cones == (2,)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_first_cover_three_labelings(chain):
    assert len(chain.family1) == 3
    censuses = sorted(
        tuple(sorted(len(p.cones) for p in cx.pieces)) for _phi, cx, _f in chain.family1
    )
    assert censuses == [
        (4, 4, 4, 4, 6, 6, 10, 10),
        (4, 4, 4, 4, 6, 6, 10, 10),
        (6, 6, 6, 6, 6, 6, 6, 6),
    ]


def test_enumerate_second_cover_seven_labelings(chain):
    assert len(chain.family2) == 7


def test_enumerate_loop_disk_single_labeling():
    c = loop_complex(2)
    family = enumerate_double_covers(c)
    assert len(family) == 1
    phi, cover, fm = family[0]
    assert verify_covering(fm).passed
    assert sorted(len(p.cones) for p in cover.pieces) == [2]


def test_enumerate_rejects_mirrors(chain):
    with pytest.raises(MirrorsPresent):
        enumerate_double_covers(chain.base)


def test_enumeration_deterministic(chain):
    again = enumerate_double_covers(chain.cover1)
    assert [phi.key() for phi, _c, _f in again] == [
        phi.key() for phi, _c, _f in chain.family1
    ]


# ---------------------------------------------------------------------------
# towers and torsion-free covers


def test_tower_genus_three_chain():
    tower = surface_over_disk_tower(3)
    assert len(tower.disk.cones) == 6
    assert piece_orbifold_euler(tower.surface) == Fraction(-8)
    assert piece_orbifold_euler(tower.annulus) == Fraction(-4)
    assert piece_orbifold_euler(tower.disk) == Fraction(-2)
    assert verify_covering(tower.upper).passed
    assert verify_covering(tower.lower).passed


def test_tower_genus_seven_ends_at_ten_cones():
    tower = surface_over_disk_tower(7)
    assert len(tower.disk.cones) == 10
    comp = compose(tower.upper, tower.lower)
    rep = verify_covering(comp)
    assert rep.passed and rep.degree == 4


def test_tower_rejects_genus_zero():
    with pytest.raises(BadGenus):
        surface_over_disk_tower(0)


def test_torsion_free_cover_structure(chain):
    hat, fhat = chain.y_hat, chain.y_hat_map
    rep = verify_covering(fhat)
    assert rep.passed and rep.degree == 4
    assert euler_characteristic(hat) == Fraction(-144)
    assert euler_characteristic(hat) == 4 * euler_characteristic(chain.y)
    genera = sorted((p.genus, len(p.boundary)) for p in hat.pieces)
    assert genera == [(3, 4)] * 8 + [(7, 4)] * 4
    assert len(hat.graph.components()) == 4


def test_torsion_free_cover_rejects_mirror_polygons(chain):
    with pytest.raises(UnsupportedPiece):
        torsion_free_cover(chain.base)


def test_torsion_free_cover_rejects_small_disks():
    with pytest.raises(UnsupportedPiece):
        torsion_free_cover(loop_complex(2))


# ---------------------------------------------------------------------------
# global properties


def test_every_constructed_cover_verifies(covering_maps):
    for name, fm in covering_maps:
        rep = verify_covering(fm)
        assert rep.passed, f"{name}: {rep.failures()[:2]}"
        assert euler_characteristic(fm.source) == fm.degree * euler_characteristic(
            fm.target
        ), name


def test_singular_functoriality(covering_maps):
    # the induced graph map of every verified cover is itself a covering
    for name, fm in covering_maps:
        assert covers.graph_covering_violations(fm) == [], name


def test_cover_singular_subspace_of_second_cover(chain):
    s = topological_form(singular_subspace(chain.cover2))
    # 4-cycle with two opposite sides doubled: 4 vertices, 6 edges, mult 4
    assert len(s.marks) == 4
    assert len(s.edges) == 6
    assert all(m == 4 for m in s.multiplicity.values())
