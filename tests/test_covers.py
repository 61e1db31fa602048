import copy
import itertools
import random
from dataclasses import FrozenInstanceError, replace
from functools import partial
from fractions import Fraction

import pytest

from orbicover import covers, orbicore, serialize, verify
from orbicover.covers import (
    BadGenus,
    CoveringMap,
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
    OrbicoverError,
    Piece,
    disk_with_cones,
    euler_characteristic,
    piece_orbifold_euler,
    singular_subspace,
    topological_form,
    wall_mark,
)

from helpers import identity_covering


def make_polygon(n):
    return branch_polygon(Branch(tuple(f"v{i}" for i in range(n))))


def loop_complex(n_cones):
    """One disk with cones attached along a single loop edge."""
    g = MarkedGraph(marks={"v": None})
    g.edges["e"] = ("v", "v")
    return Orbicomplex(
        pieces=[disk_with_cones("d", n_cones)],
        graph=g,
        attachments={("d", 0, 0): ("e", 1)},
    )


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
    f = chain.map1
    pid = f.source.pieces[0].id
    broken = replace(f, piece_map={**f.piece_map, pid: (f.piece_map[pid][0], 3)})
    rep = verify_covering(broken)
    assert not rep.passed
    failed = {c.condition for c in rep.failures()}
    assert "fiber_sums" in failed
    assert "piece_euler" in failed


def test_missing_segment_map_fails_boundary(chain):
    f = chain.map1
    key = sorted(f.segment_map)[0]
    broken = replace(f, segment_map={ref: steps for ref, steps in f.segment_map.items() if ref != key})
    rep = verify_covering(broken)
    assert not rep.passed
    assert any(c.condition == "boundary" for c in rep.failures())


def test_dangling_reference_raises(chain):
    # a piece_map entry, or a segment_map key naming no source piece or
    # circle: the map is refused as it is built
    f = chain.map1
    ref = sorted(f.segment_map)[0]
    for fields in (
        {"piece_map": {**f.piece_map, "ghost": ("nowhere", 1)}},
        {"segment_map": {**f.segment_map, ("ghost", 0, 0): f.segment_map[ref]}},
        {"segment_map": {**f.segment_map, (ref[0], 5, 0): f.segment_map[ref]}},
    ):
        with pytest.raises(covers.MismatchedComplexes):
            replace(f, **fields)


def test_built_map_cannot_change(chain):
    f = chain.map2
    with pytest.raises(FrozenInstanceError):
        f.piece_map = {}
    with pytest.raises(FrozenInstanceError):
        f.degree = 4
    for mapping in (f.vertex_map, f.edge_map, f.piece_map, f.segment_map, f.cone_fibers):
        key = min(mapping)
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
    for mapping in (f.edge_map, f.segment_map, f.cone_fibers):
        path = mapping[min(mapping)]
        with pytest.raises(TypeError):
            path[0] = path[0]
    assert copy.deepcopy(f) is f
    pid = min(f.piece_map)
    with pytest.raises(covers.MismatchedComplexes, match=rf"^piece_map '{pid}' -> 'ghost'$"):
        replace(f, piece_map={**f.piece_map, pid: ("ghost", 1)})

    # the caller's dicts and lists stay the caller's: editing them later
    # leaves the built map as it was checked
    c = loop_complex(2)
    path, steps, tokens = [("e", 1)], [(0, 0, 1)], [("cone", "d", 0)]
    tables = (
        {"v": "v"},
        {"e": path},
        {"d": ("d", 1)},
        {("d", 0, 0): steps},
        {("d", 0): tokens, ("d", 1): [("cone", "d", 1)]},
    )
    g = CoveringMap(c, c, 1, *tables)
    assert verify_covering(g).passed
    for table in tables:
        table["ghost"] = None
    path.append(("e", -1))
    steps[0] = (0, 0, -1)
    tokens.clear()
    assert (dict(g.vertex_map), dict(g.edge_map), dict(g.piece_map)) == (
        {"v": "v"}, {"e": (("e", 1),)}, {"d": ("d", 1)}
    )
    assert dict(g.segment_map) == {("d", 0, 0): ((0, 0, 1),)}
    assert dict(g.cone_fibers) == {("d", 0): (("cone", "d", 0),), ("d", 1): (("cone", "d", 1),)}
    assert verify_covering(g).passed


def test_map_built_with_list_steps_reads_like_tuples(chain):
    # steps and edge-path entries given as lists are read as tuples: the
    # report and the serialized bytes are those of the map itself
    f = chain.map1
    listed = replace(
        f,
        edge_map={e: [list(step) for step in path] for e, path in f.edge_map.items()},
        segment_map={ref: [list(step) for step in path] for ref, path in f.segment_map.items()},
    )
    assert str(verify_covering(listed)) == str(verify_covering(f))
    to_json = serialize.covering_map_to_json
    assert serialize.dumps(to_json(listed)) == serialize.dumps(to_json(f))


def _distinct_objects(values) -> tuple[int, int]:
    """(objects, distinct values) among ``values``."""
    values = list(values)
    return len({id(v) for v in values}), len(set(values))


@pytest.mark.parametrize("name", ["map1", "map2", "y_hat_map", "composite"])
def test_builders_hold_one_object_per_id_attachment_and_path(chain, name):
    # double_cover (map1 lifts polygons, map2 cone disks), torsion_free_cover
    # and compose each make one object per distinct value
    f = compose(chain.y_hat_map, chain.y_map) if name == "composite" else getattr(chain, name)
    edge_ids = {e: e for e in f.source.graph.edges}
    atts = f.source.attachments
    assert all(edge_ids[e] is e for e, _d in atts.values())
    assert all(edge_ids[e] is e for e in f.edge_map)
    keys = {ref: ref for ref in atts}
    assert all(keys[ref] is ref for ref in f.segment_map if ref in keys)
    for values in (
        atts.values(),
        f.edge_map.values(),
        f.segment_map.values(),
        [step for path in f.segment_map.values() for step in path],
        [p.boundary for p in f.source.pieces],
        [p.cones for p in f.source.pieces],
    ):
        objects, distinct = _distinct_objects(values)
        assert objects == distinct
    # a map rebuilt from the same tables keeps their path tuples
    g = replace(f)
    assert all(g.segment_map[ref] is path for ref, path in f.segment_map.items())
    assert all(g.edge_map[e] is path for e, path in f.edge_map.items())


def _segment_steps_at_minus_seven():
    # the -1 steps of a reflection double written as -7
    _piece, f = reflection_double(branch_polygon(Branch(("a", "b", "c", "d", "e"))))
    segment_map = {
        ref: [(ci, si, -7 if d == -1 else d) for ci, si, d in steps]
        for ref, steps in f.segment_map.items()
    }
    return replace(f, segment_map=segment_map)


def _loop_step_at_zero():
    # a disk beside an unattached loop, the loop sent to itself with step 0
    g = MarkedGraph(marks={"v": None}, edges={"e": ("v", "v")})
    f = identity_covering(Orbicomplex(pieces=[disk_with_cones("d", 2)], graph=g))
    return replace(f, edge_map={**f.edge_map, "e": [("e", 0)]})


@pytest.mark.parametrize("make, witness", [
    pytest.param(
        _segment_steps_at_minus_seven,
        ("boundary", "segment ('a.b.c.d.e.d', 0, 1): step (0, 0, -7) has direction -7, not 1 or -1"),
        id="segment-step",
    ),
    pytest.param(
        _loop_step_at_zero,
        ("graph_covering", "edge e: step ('e', 0) has direction 0, not 1 or -1"),
        id="edge-step",
    ),
])
def test_verifier_reports_step_direction_other_than_one(make, witness):
    # any direction but 1 used to be read as -1, so both maps passed
    report = verify_covering(make())
    assert not report.passed
    assert witness in [(c.condition, c.witness) for c in report.failures()]


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
    # both refusals of _require_polygon name the shape; a loop keeps the test id
    for piece in (disk_with_cones("d", 3), Piece("d", 0, ((FREE, FREE),)), Piece("d", 0, ((FREE, MIRROR, MIRROR),))):
        with pytest.raises(NotAPolygon) as exc:
            reflection_double(piece)
        assert str(exc.value) == (
            "piece d: not a reflection polygon (needs genus 0, no cones, "
            "one boundary circle [free, mirror^n, free] with n >= 1)"
        )


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
    assert cover.pieces == tuple(
        disk_with_cones(f"{p.id}.01", p.boundary[0].count(orbicore.MIRROR) - 1, n_segments=2)
        for p in chain.base.pieces
    )
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
    cover, f = double_cover(c, TwoTorsionLabeling(walls={"a": 1, "b": 1}))
    assert cover.graph.marks == {"W2.m": None}
    assert cover.graph.edges == {"c.W1": ("W2.m", "W2.m")}
    assert f.edge_map["c.W1"] == (("e", -1), ("e", 1))
    # each copy of the disk runs W2 -> W1 -> W2 as one segment
    assert [p.boundary for p in cover.pieces] == [((FREE,),), ((FREE,),)]
    assert f.segment_map[("d.0", 0, 0)] == ((0, 1, 1), (0, 0, 1))
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


def test_refusal_names_every_broken_relator_in_piece_order(chain):
    # unfold one end mirror of the last polygon and of the first, no wall
    first, last = chain.base.pieces[0], chain.base.pieces[-1]
    phi = TwoTorsionLabeling()
    expected = []
    for p in (last, first):
        ref, label = covers._mirror_wall_pairs(chain.base, p)[0]
        phi.mirrors[ref] = 1
        expected.insert(0, f"mirror {ref} disagrees with wall {label!r}")
    with pytest.raises(NotAHomomorphism) as exc:
        double_cover(chain.base, phi)
    assert str(exc.value) == "; ".join(expected)


def test_precondition_is_checked_before_the_relators(chain):
    phi = TwoTorsionLabeling(edges={sorted(chain.cover1.graph.edges)[1]: 1})
    with pytest.raises(NotAHomomorphism):
        double_cover(chain.cover1, phi)
    # the same labeling on a complex with an order-3 cone: the precondition wins
    p = chain.cover1.pieces[0]
    pieces = (replace(p, cones=(3,) + p.cones[1:]),) + chain.cover1.pieces[1:]
    c = replace(chain.cover1, pieces=pieces)
    with pytest.raises(NotADiskOrbifold):
        double_cover(c, phi)


def test_double_cover_visits_each_piece_once(chain, monkeypatch):
    # sheet offsets are computed once per piece and the mirror|wall pairs
    # once per polygon per double_cover call: no separate pass checks the
    # labeling
    calls = []
    for name in ("_sheet_offsets", "_mirror_wall_pairs"):
        def counted(*args, _name=name, _inner=getattr(covers, name)):
            calls.append(_name)
            return _inner(*args)
        monkeypatch.setattr(covers, name, counted)
    inner_double_cover = covers.double_cover

    def checked_double_cover(c, phi):
        calls.clear()
        out = inner_double_cover(c, phi)
        polygons = sum(p.has_mirrors for p in c.pieces)
        assert calls.count("_sheet_offsets") == len(c.pieces)
        assert calls.count("_mirror_wall_pairs") == polygons
        return out

    monkeypatch.setattr(covers, "double_cover", checked_double_cover)
    covers.davis_double_cover(chain.base)
    assert len(calls) == 2 * len(chain.base.pieces)
    assert len(covers.enumerate_double_covers(chain.cover1)) == len(chain.family1)


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


@pytest.mark.parametrize("walls", [("v1",), ("v2",), ("v3",), ("v1", "v2"), ("v1", "v3"), ("v2", "v3")])
def test_labeling_violations_exactly_when_double_cover_refuses(chain, walls):
    # unfold the walls with every mirror next to them: a polygon between
    # two unfolded walls would lift to an annulus with a circle of mirrors
    # only, which the labeling check must refuse rather than the builder
    phi = TwoTorsionLabeling(walls={w: 1 for w in walls})
    for p in chain.base.pieces:
        for ref, label in covers._mirror_wall_pairs(chain.base, p):
            if label in walls:
                phi.mirrors[ref] = 1
    if len(walls) == 2:
        with pytest.raises(NotAHomomorphism) as exc:
            double_cover(chain.base, phi)
        assert all("mirrors only" in problem for problem in str(exc.value).split("; "))
    else:
        _cover, f = double_cover(chain.base, phi)
        assert verify_covering(f).passed


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


@pytest.mark.parametrize("index", range(6))
def test_polygon_lift_rule(chain, index):
    # every nonempty set G of interior mirrors of one demo polygon, walls
    # folded: G not one run leaves a circle of mirrors only and is refused;
    # one run lifts to one disk with |G| - 1 cones and one circle on which
    # the two mirrors beside the run merge across the sheets
    p = chain.base.pieces[index]
    n = len(p.boundary[0]) - 2
    chi = euler_characteristic(chain.base)
    for r in range(1, n - 1):
        for glued in itertools.combinations(range(2, n), r):
            phi = TwoTorsionLabeling(mirrors={(p.id, 0, si): 1 for si in glued})
            if glued != tuple(range(glued[0], glued[-1] + 1)):
                with pytest.raises(NotAHomomorphism) as exc:
                    double_cover(chain.base, phi)
                assert str(exc.value) == f"polygon {p.id}: glued mirrors leave a lift of mirrors only"
                continue
            cover, f = double_cover(chain.base, phi)
            lift = cover.piece(f"{p.id}.01")
            assert lift.cones == (2,) * (len(glued) - 1), glued
            assert len(lift.boundary) == 1
            assert len(lift.boundary[0]) == 2 * (n + 2 - len(glued)) - 2, glued
            assert verify_covering(f).passed, glued
            assert euler_characteristic(cover) == 2 * chi


def test_polygon_lift_with_a_wrong_cone_count_fails_piece_euler(chain):
    # double_cover makes no χ check of its own: condition (2) of the
    # verifier catches a lifted polygon with one cone too few
    cover, f = double_cover(chain.base, all_ones_labeling(chain.base))
    p = chain.base.pieces[0]
    lift = cover.pieces_by_id[f"{p.id}.01"]
    bad = replace(lift, cones=lift.cones[1:])
    source = replace(cover, pieces=tuple(bad if q is lift else q for q in cover.pieces))
    report = verify_covering(replace(f, source=source))
    assert not report.passed
    chi = piece_orbifold_euler(bad)
    assert chi == 2 * piece_orbifold_euler(p) + Fraction(1, 2)
    assert [c.witness for c in report.checks if c.condition == "piece_euler"] == [
        f"piece {lift.id}: chi {chi} != 2 * chi({p.id})"
    ]
    assert verify_covering(f).passed


@pytest.mark.parametrize("k", range(1, 8))
def test_cone_disk_double_smooths_exactly_the_labeled_cones(k):
    # every nonempty set S of smoothed cones on a disk with k order-2 cones:
    # genus (|S| - 2 + |S| % 2) // 2, 2(k - |S|) cones, one boundary circle
    # of two laps when |S| is odd and one per sheet otherwise
    c = loop_complex(k)
    base = c.pieces[0]
    for size in range(1, k + 1):
        for smoothed in itertools.combinations(range(k), size):
            phi = TwoTorsionLabeling(edges={"e": size % 2}, cones={("d", j): 1 for j in smoothed})
            cover, f = double_cover(c, phi)
            piece = cover.pieces_by_id["d.01"]
            assert (piece.genus, len(piece.cones), len(piece.boundary)) == (
                (size - 2 + size % 2) // 2, 2 * (k - size), 2 - size % 2
            )
            assert piece_orbifold_euler(piece) == 2 * piece_orbifold_euler(base)
            smooth = {j for (_q, j), tokens in f.cone_fibers.items() if tokens[0][0] == "smooth"}
            assert smooth == set(smoothed)
            assert verify_covering(f).passed


@pytest.mark.parametrize("phi", [
    TwoTorsionLabeling(cones={("d", 0): 2}),
    TwoTorsionLabeling(edges={"e": 2}),  # used to raise KeyError
], ids=["cone", "edge"])
def test_double_cover_refuses_a_value_outside_z2(phi):
    with pytest.raises(NotAHomomorphism, match=r"^labeling values must be 0 or 1$"):
        double_cover(loop_complex(2), phi)


def test_double_cover_refuses_a_half_attached_disk():
    with pytest.raises(UnsupportedPiece, match=r"^piece d must be fully attached$"):
        double_cover(_half_attached_disk(), TwoTorsionLabeling(edges={"e": 1}))


def test_double_cover_refuses_an_odd_polygon_edge_word(chain):
    phi = all_ones_labeling(chain.base)
    phi.edges["e.v1"] = 1
    with pytest.raises(NotAHomomorphism) as exc:
        double_cover(chain.base, phi)
    assert str(exc.value).startswith("polygon v1-v2-0: boundary edge word has parity 1; ")


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
    assert [phi for phi, _c, _f in again] == [phi for phi, _c, _f in chain.family1]


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


def test_torsion_free_cover_rejects_a_half_attached_disk():
    g = MarkedGraph(marks={"v": None}, edges={"e": ("v", "v")})
    c = Orbicomplex(
        pieces=[disk_with_cones("d", 4, n_segments=2)], graph=g, attachments={("d", 0, 0): ("e", 1)}
    )
    with pytest.raises(UnsupportedPiece, match=r"^piece d: boundary circle not fully attached$"):
        torsion_free_cover(c)


def test_compose_refuses_maps_that_do_not_chain(chain):
    with pytest.raises(covers.MismatchedComplexes, match=r"^compose: f\.target is not g\.source$"):
        compose(chain.map2, chain.map2)


# ---------------------------------------------------------------------------
# global properties


def test_every_constructed_cover_verifies(covering_maps):
    for name, fm in covering_maps:
        rep = verify_covering(fm)
        assert rep.passed, f"{name}: {rep.failures()[:2]}"
        assert euler_characteristic(fm.source) == fm.degree * euler_characteristic(
            fm.target
        ), name


def _negated(seq, k):
    """``seq`` with the direction (last field) of item k negated."""
    item = seq[k]
    return seq[:k] + (item[:-1] + (-item[-1],),) + seq[k + 1:]


def _with_source_attachment(f, ref, att):
    return replace(f, source=replace(f.source, attachments={**f.source.attachments, ref: att}))


def _single_field_mutants(f):
    """Every single-field mutant of a covering map, by kind, each as a call
    that builds it: a mutant source complex is validated as it is built."""
    targets = sorted(f.target.graph.marks)
    return {
        "edge step": [
            partial(replace, f, edge_map={**f.edge_map, e: _negated(path, k)})
            for e, path in sorted(f.edge_map.items()) for k in range(len(path))
        ],
        "segment step": [
            partial(replace, f, segment_map={**f.segment_map, ref: _negated(steps, k)})
            for ref, steps in sorted(f.segment_map.items()) for k in range(len(steps))
        ],
        "cone token": [
            partial(replace, f, cone_fibers={**f.cone_fibers, key: toks[:k] + toks[k + 1:]})
            for key, toks in sorted(f.cone_fibers.items()) for k in range(len(toks))
        ],
        "vertex image": [
            partial(replace, f, vertex_map={**f.vertex_map, v: w})
            for v, image in sorted(f.vertex_map.items()) for w in targets if w != image
        ],
        "source attachment": [
            partial(_with_source_attachment, f, ref, (e, -d))
            for ref, (e, d) in sorted(f.source.attachments.items())
        ],
    }


@pytest.mark.parametrize("name", ["map1", "map2", "y_hat_map"])
def test_verifier_rejects_single_field_mutants(chain, name):
    # every mutant is kept, whatever the verifier says of it; one refused
    # as it is built (InvalidComplex) or by the verifier counts as caught
    rng = random.Random(0)
    tried = 0
    for kind, mutants in _single_field_mutants(getattr(chain, name)).items():
        for build in rng.sample(mutants, min(10, len(mutants))):
            tried += 1
            try:
                report = verify_covering(build())
            except OrbicoverError:
                continue
            assert not report.passed, f"{name}: a {kind} mutant passes"
    assert tried >= 30  # the first cover has no cone fibres


@pytest.mark.parametrize("kind", ["smooth", "cone"])
def test_verifier_reports_cone_token_with_non_integer_index(chain, kind):
    # a re-kinded ("smooth", piece, tag) token has a string index, and a
    # bool index is not a cone number either
    f = chain.map2
    key, toks = next(
        (key, toks) for key, toks in sorted(f.cone_fibers.items())
        if any(t[0] == kind for t in toks)
    )
    k = next(k for k, t in enumerate(toks) if t[0] == kind)
    bad = ("cone", toks[k][1], toks[k][2] if kind == "smooth" else False)
    mutant = replace(f, cone_fibers={**f.cone_fibers, key: toks[:k] + (bad,) + toks[k + 1:]})
    report = verify_covering(mutant)
    assert not report.passed
    assert f"cone ({key[0]},{key[1]}): bad token {bad}" in [c.witness for c in report.failures()]


@pytest.mark.parametrize("make_bad", [
    pytest.param(lambda pid: ("cone", pid), id="cone-short"),
    pytest.param(lambda pid: ("cone", [pid], 0), id="cone-list-piece"),
    pytest.param(lambda pid: ("smooth",), id="smooth-short"),
    pytest.param(lambda pid: ("smooth", [pid], "tag"), id="smooth-list-piece"),
])
def test_verifier_reports_malformed_cone_token(chain, make_bad):
    # tokens built in Python, which the JSON reader would refuse: each is
    # reported, none raises
    f = chain.map2
    key, toks = min(f.cone_fibers.items())
    bad = make_bad(toks[0][1])
    mutant = replace(f, cone_fibers={**f.cone_fibers, key: (bad,) + toks[1:]})
    report = verify_covering(mutant)
    assert not report.passed
    assert f"cone ({key[0]},{key[1]}): bad token {bad}" in [c.witness for c in report.failures()]


def _witness_mutants(chain):
    """(name, mutant, full report) for one mutant per kind of witness."""
    f1, f2 = chain.map1, chain.map2
    key, ref = ("v1-v2-0.01", 0), ("v1-v2-0.01.0", 0, 0)
    return [
        ("cone token dropped", replace(f2, cone_fibers={**f2.cone_fibers, key: f2.cone_fibers[key][1:]}), """\
FAIL degree=2
  fiber_sums: PASS
  piece_euler: PASS
  boundary: PASS
  cone_fibers: FAIL (cone (v1-v2-0.01,0): no preimage in v1-v2-0.01.0)
  cone_fibers: FAIL (piece v1-v2-0.01.0: 1 source cones unaccounted)
  graph_covering: PASS
  global_euler: PASS"""),
        ("edge sent to another edge", replace(f2, edge_map={**f2.edge_map, "c.w.v1.0": [("c.w.v2", 1)]}), """\
FAIL degree=2
  fiber_sums: PASS
  piece_euler: PASS
  boundary: FAIL (segment ('v1-v2-0.01.0', 0, 0): attachment image [('c.w.v1', 1)] != edge path [('c.w.v2', 1)])
  boundary: FAIL (segment ('v1-v2-1.01.0', 0, 0): attachment image [('c.w.v1', 1)] != edge path [('c.w.v2', 1)])
  boundary: FAIL (segment ('v1-v3-0.01.01', 0, 0): attachment image [('c.w.v1', 1)] != edge path [('c.w.v2', 1)])
  boundary: FAIL (segment ('v1-v3-1.01.01', 0, 0): attachment image [('c.w.v1', 1)] != edge path [('c.w.v2', 1)])
  cone_fibers: PASS
  graph_covering: FAIL (('v', 'hub.0.0'): target dart ('c.w.v1', 0) covered 0 times, expected 1)
  graph_covering: FAIL (('v', 'hub.0.0'): target dart ('c.w.v2', 0) covered 2 times, expected 1)
  graph_covering: FAIL (('v', 'hub.1.0'): target dart ('c.w.v1', 1) covered 0 times, expected 1)
  graph_covering: FAIL (('v', 'hub.1.0'): target dart ('c.w.v2', 1) covered 2 times, expected 1)
  graph_covering: FAIL (edge c.w.v1: covered 1 times, expected 2)
  graph_covering: FAIL (edge c.w.v2: covered 3 times, expected 2)
  global_euler: PASS"""),
        ("segment step negated", replace(f2, segment_map={**f2.segment_map, ref: [(0, 0, -1)]}), """\
FAIL degree=2
  fiber_sums: PASS
  piece_euler: PASS
  boundary: FAIL (segment ('v1-v2-0.01.0', 0, 0): attachment image [('c.w.v1', -1)] != edge path [('c.w.v1', 1)])
  boundary: FAIL (piece v1-v2-0.01.0 circle 0: fold at plain junction 0 of v1-v2-0.01)
  boundary: FAIL (piece v1-v2-0.01.0 circle 0: walk broken before step 1)
  boundary: FAIL (piece v1-v2-0.01.0 circle 0: fold at plain junction 0 of v1-v2-0.01)
  boundary: FAIL (piece v1-v2-0.01.0 circle 0: walk does not close)
  cone_fibers: PASS
  graph_covering: PASS
  global_euler: PASS"""),
        ("local degree lowered", replace(f1, piece_map={**f1.piece_map, "v1-v2-0.01": ("v1-v2-0", 1)}), """\
FAIL degree=2
  fiber_sums: FAIL (piece v1-v2-0: fiber sum 1 != degree 2)
  piece_euler: FAIL (piece v1-v2-0.01: chi -2 != 1 * chi(v1-v2-0))
  boundary: FAIL (target segment (v1-v2-0,0,0): covered 2, expected 1)
  boundary: FAIL (target mirror (v1-v2-0,0,1): boundary coverage 0 inconsistent with local degree 1)
  boundary: FAIL (target mirror (v1-v2-0,0,2): boundary coverage 0 inconsistent with local degree 1)
  boundary: FAIL (target mirror (v1-v2-0,0,3): boundary coverage 0 inconsistent with local degree 1)
  boundary: FAIL (target mirror (v1-v2-0,0,4): boundary coverage 0 inconsistent with local degree 1)
  boundary: FAIL (target mirror (v1-v2-0,0,5): boundary coverage 0 inconsistent with local degree 1)
  boundary: FAIL (target mirror (v1-v2-0,0,6): boundary coverage 0 inconsistent with local degree 1)
  boundary: FAIL (target mirror (v1-v2-0,0,7): boundary coverage 0 inconsistent with local degree 1)
  boundary: FAIL (target segment (v1-v2-0,0,8): covered 2, expected 1)
  cone_fibers: PASS
  graph_covering: PASS
  global_euler: PASS"""),
    ]


def test_verifier_witness_text(chain):
    # the whole report: every witness, grouped by condition in the order
    # the conditions are listed
    for name, mutant, expected in _witness_mutants(chain):
        assert str(verify_covering(mutant)) == expected, name


def _counted_full_walks(monkeypatch) -> list[str]:
    """The source pieces ``verify_covering`` walks in full, as it walks them."""
    walked = []
    full_walk = verify._piece_boundary_violations

    def counted(f, src_piece, *rest):
        walked.append(src_piece.id)
        return full_walk(f, src_piece, *rest)

    monkeypatch.setattr(verify, "_piece_boundary_violations", counted)
    return walked


def test_verifier_checks_attachments_of_a_clean_class(chain, monkeypatch):
    # v1-v2-1.01 is in the class that v1-v2-0.01 passes first; moving its
    # first segment onto another edge with the same ends (multiplicities
    # refilled) must give the report the full walk gives
    f = chain.map1
    atts = {**f.source.attachments, ("v1-v2-1.01", 0, 0): ("c.w.v3", 1)}
    graph = MarkedGraph(marks=f.source.graph.marks, edges=f.source.graph.edges)
    mutant = replace(f, source=replace(f.source, graph=graph, attachments=atts))
    walked = _counted_full_walks(monkeypatch)
    assert str(verify_covering(mutant)) == """\
FAIL degree=2
  fiber_sums: PASS
  piece_euler: PASS
  boundary: FAIL (segment ('v1-v2-1.01', 0, 0): attachment image [('e.v1', -1), ('e.v1', 1)] != edge path [('e.v3', -1), ('e.v3', 1)])
  cone_fibers: PASS
  graph_covering: PASS
  global_euler: PASS"""
    assert walked == ["v1-v2-0.01", "v1-v3-0.01"]


def _piece_class(f, p):
    """What condition (3) reads of a source piece, attachments apart."""
    q, local_degree = f.piece_map[p.id]
    paths = tuple(tuple(f.segment_map[(p.id, ci, si)]) for ci, si, _kind in p.segments())
    return (p.boundary, f.target.pieces_by_id[q].boundary, local_degree, paths)


def test_verifier_walks_each_piece_class_once(covering_maps, monkeypatch):
    walked = _counted_full_walks(monkeypatch)
    pieces = walks = 0
    for name, fm in covering_maps:
        walked.clear()
        assert verify_covering(fm).passed, name
        # one full walk per class: distinct classes, and all of them
        walked_classes = {_piece_class(fm, fm.source.pieces_by_id[pid]) for pid in walked}
        classes = {_piece_class(fm, p) for p in fm.source.pieces}
        assert len(walked) == len(walked_classes) == len(classes), name
        pieces += len(fm.source.pieces)
        walks += len(walked)
    assert (len(covering_maps), pieces, walks) == (14, 142, 36)


def _mutated(make_complex, **fields):
    """The identity covering of ``make_complex()`` with some fields replaced."""
    return replace(identity_covering(make_complex()), **fields)


def _half_attached_disk():
    # a disk of two segments, only the first attached along a loop
    g = MarkedGraph(marks={"v": None}, edges={"e": ("v", "v")})
    return Orbicomplex(
        pieces=[disk_with_cones("d", 0, n_segments=2)], graph=g, attachments={("d", 0, 0): ("e", 1)}
    )


def _circle_over_two_circles():
    # an annulus whose two-segment circle 0 maps its second segment to circle 1
    f = identity_covering(Orbicomplex(pieces=[Piece("p", 0, ((FREE, FREE), (FREE,)))]))
    return replace(f, segment_map={**f.segment_map, ("p", 0, 1): [(1, 0, 1)]})


def _cones_of_order_two_and_three():
    return Orbicomplex(pieces=[Piece("a", 0, ((FREE,),), (2,)), Piece("b", 0, ((FREE,),), (3,))])


def _wall_over_plain_point():
    return CoveringMap(
        source=Orbicomplex(graph=MarkedGraph(marks={"a": wall_mark("w")})),
        target=Orbicomplex(graph=MarkedGraph(marks={"b": None})),
        degree=1,
        vertex_map={"a": "b"},
    )


def _two_edges_over_one():
    src = MarkedGraph(
        marks={"a": None, "b1": None, "b2": None}, edges={"s1": ("a", "b1"), "s2": ("a", "b2")}
    )
    tgt = MarkedGraph(marks={"w": None, "x": None}, edges={"t": ("w", "x")})
    return CoveringMap(
        source=Orbicomplex(graph=src),
        target=Orbicomplex(graph=tgt),
        degree=2,
        vertex_map={"a": "w", "b1": "x", "b2": "x"},
        edge_map={"s1": [("t", 1)], "s2": [("t", 1)]},
    )


def _free_over_mirror():
    piece, f = reflection_double(make_polygon(3))
    return replace(f, segment_map={**f.segment_map, (piece.id, 0, 0): [(0, 1, 1)]})


_loop = partial(loop_complex, 2)  # one disk "d" with two cones on the loop e at v
_loop_cones = {("d", 0): [("cone", "d", 0)], ("d", 1): [("cone", "d", 1)]}


@pytest.mark.parametrize("make, condition, witness", [
    # a condition of None: building the map raises MismatchedComplexes
    pytest.param(partial(_mutated, _loop, vertex_map={"v": "v", "u": "v"}),
                 None, "vertex_map 'u' -> 'v'", id="vertex-map-reference"),
    pytest.param(partial(_mutated, _loop, edge_map={"e": [("e", 1)], "x": [("e", 1)]}),
                 None, "edge_map key 'x'", id="edge-map-key"),
    pytest.param(partial(_mutated, _loop, edge_map={"e": [("x", 1)]}),
                 None, "edge_map 'e' -> 'x'", id="edge-map-image"),
    pytest.param(partial(_mutated, _loop, piece_map={"d": ("ghost", 1)}),
                 None, "piece_map 'd' -> 'ghost'", id="piece-map-image"),
    pytest.param(partial(_mutated, _loop, segment_map={("d", 0, 5): [(0, 0, 1)]}),
                 None, "segment_map key ('d', 0, 5)", id="segment-map-key"),
    pytest.param(partial(_mutated, _loop, cone_fibers={("d", 2): [("cone", "d", 0)]}),
                 None, "cone_fibers key ('d', 2)", id="cone-fibers-key"),
    pytest.param(partial(_mutated, _loop, vertex_map={}),
                 "graph_covering", "vertex v has no image", id="vertex-no-image"),
    pytest.param(partial(_mutated, _loop, edge_map={}),
                 "graph_covering", "edge e has no image path", id="edge-no-image"),
    pytest.param(partial(_mutated, _loop, edge_map={"e": []}),
                 "graph_covering", "edge e: empty image path", id="edge-empty-path"),
    pytest.param(_wall_over_plain_point, "graph_covering",
                 "('v', 'a'): local order 2 does not divide target order 1", id="local-order"),
    pytest.param(_two_edges_over_one, "graph_covering", "('v', 'a'): target dart ('t', 0) covered 2 times, expected 1",
                 id="target-dart"),
    pytest.param(_two_edges_over_one, "graph_covering", "vertex w: fiber sum 1 != degree 2",
                 id="vertex-fiber-sum"),
    pytest.param(_free_over_mirror, "boundary", "segment ('v0.v1.v2.d', 0, 0): kind free over mirror",
                 id="kind-over"),
    pytest.param(partial(_mutated, _half_attached_disk,
                         segment_map={("d", 0, 0): [(0, 1, 1)], ("d", 0, 1): [(0, 1, 1)]}),
                 "boundary", "segment ('d', 0, 0): attached over unattached target segment",
                 id="attached-over-unattached"),
    pytest.param(partial(_mutated, _loop, edge_map={}),
                 "boundary", "segment ('d', 0, 0): attachment edge e unmapped", id="attachment-unmapped"),
    pytest.param(_circle_over_two_circles, "boundary", "piece p circle 0: image spans circles [0, 1]",
                 id="spans-circles"),
    pytest.param(partial(_mutated, _loop, piece_map={}),
                 "fiber_sums", "piece d: no image", id="piece-no-image"),
    pytest.param(partial(_mutated, _loop, piece_map={"d": ("d", 0)}),
                 "fiber_sums", "piece d: local degree 0", id="piece-local-degree"),
    pytest.param(partial(_mutated, _cones_of_order_two_and_three,
                         cone_fibers={("a", 0): [("cone", "b", 0)], ("b", 0): [("cone", "b", 0)]}),
                 "cone_fibers", "cone (a,0): order 3 does not divide 2", id="cone-order"),
    pytest.param(partial(_mutated, _loop, cone_fibers={**_loop_cones, ("d", 1): [("cone", "d", 0)]}),
                 "cone_fibers", "cone (d,1): source cone reused ('cone', 'd', 0)", id="cone-reused"),
    pytest.param(partial(_mutated, _loop, cone_fibers={**_loop_cones, ("d", 0): [("spin", "d", 0)]}),
                 "cone_fibers", "cone (d,0): bad token ('spin', 'd', 0)", id="cone-unknown-kind"),
    pytest.param(partial(_mutated, _loop, cone_fibers={**_loop_cones, ("d", 0): [("smooth", "ghost", "x")]}),
                 "cone_fibers", "cone (d,0): token from foreign piece ghost", id="cone-foreign-piece"),
])
def test_verifier_reaches_every_witness(make, condition, witness):
    # one hand-made mutant per witness line that no other test produces
    if condition is None:
        with pytest.raises(covers.MismatchedComplexes) as exc:
            make()
        assert str(exc.value) == witness
    else:
        assert (condition, witness) in [(c.condition, c.witness) for c in verify_covering(make()).failures()]


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
