import copy
import itertools
import json
import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbicover import covers, graphs, invariants, orbicore, serialize, towers, verify
from orbicover.graphs import (
    RAM2,
    MarkedGraph,
    graph_to_dot,
    iter_marked_graph_isomorphisms,
    mark_kind,
    marked_graph_isomorphism,
    ribbon_neighborhood,
    rotation_from_circuits,
    topological_form,
)
from orbicover.orbicore import (
    FREE,
    MIRROR,
    Orbicomplex,
    Piece,
    Violation,
    disk_with_cones,
    euler_characteristic,
    piece_orbifold_euler,
    singular_subspace,
    validate_complex,
)
from orbicover.pipeline import disjoint_copies

from oracles import (
    brute_force_graph_iso,
    is_marked_graph_isomorphism,
    random_marked_graph,
    random_orbicomplex,
    relabeled_copy,
    spanning_tree_counts,
    weighted_cell_euler,
)


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
    g = MarkedGraph(marks={"x": None, "y": None})
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


def test_validate_davis_complex_clean(chain, covering_maps):
    tower = {"base": chain.base} | {name: fm.source for name, fm in covering_maps}
    assert {name: validate_complex(c) for name, c in tower.items()} == {name: [] for name in tower}


def test_invariants_and_builders_do_not_revalidate(chain, covering_maps, monkeypatch):
    # each complex is validated once, when it is built: a builder or a
    # parser validates what it returns, and the verifier and the
    # invariants validate nothing; no layer looks a piece up by id
    calls = []
    piece_lookups = []

    def counting_validate(c):
        calls.append(c)
        return []

    def counting_piece(c, pid):
        piece_lookups.append(pid)
        return original_piece(c, pid)

    y = chain.y
    complex_text = serialize.dumps(serialize.orbicomplex_to_json(y))
    map_text = serialize.dumps(serialize.covering_map_to_json(chain.map1))

    def invariants_of_y():
        euler_characteristic(y)
        singular_subspace(y)
        invariants.fundamental_group_presentation(y)
        invariants.planar_normal_form(y)
        invariants.torsion_freeness(y)

    def verify_every_tower_map():
        for name, fm in covering_maps:
            assert verify.verify_covering(fm).passed, name

    steps = {
        "davis_double_cover": lambda: covers.davis_double_cover(chain.base),
        "double_cover": lambda: covers.double_cover(chain.cover1, chain.family1[0][0]),
        "enumerate_double_covers": lambda: covers.enumerate_double_covers(chain.cover1),
        "torsion_free_cover": lambda: towers.torsion_free_cover(y),
        "parse complex": lambda: serialize.orbicomplex_from_json(json.loads(complex_text)),
        "parse map": lambda: serialize.covering_map_from_json(json.loads(map_text)),
        "invariants": invariants_of_y,
        "verify_covering": verify_every_tower_map,
    }
    original_piece = Orbicomplex.piece
    monkeypatch.setattr(orbicore, "validate_complex", counting_validate)
    monkeypatch.setattr(Orbicomplex, "piece", counting_piece)
    counts = {}
    for name, step in steps.items():
        calls.clear()
        step()
        counts[name] = len(calls)
    assert counts == {
        "davis_double_cover": 1,
        "double_cover": 1,
        "enumerate_double_covers": 3,
        "torsion_free_cover": 1,
        "parse complex": 1,
        "parse map": 2,
        "invariants": 0,
        "verify_covering": 0,
    }
    assert piece_lookups == []


def test_built_complex_cannot_change(chain):
    c = chain.cover1
    with pytest.raises(FrozenInstanceError):
        c.attachments = {}
    with pytest.raises(FrozenInstanceError):
        c.graph.marks = {}
    ref = min(c.attachments)
    vertex, edge = min(c.graph.marks), min(c.graph.edges)
    for mapping, key in (
        (c.attachments, ref),
        (c.graph.marks, vertex),
        (c.graph.edges, edge),
        (c.graph.multiplicity, edge),
        (c.rotation, vertex),
    ):
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
    with pytest.raises(TypeError):
        c.rotation[vertex][0] = c.rotation[vertex][0]
    assert copy.deepcopy(c) is c
    e, d = c.attachments[ref]
    with pytest.raises(orbicore.InvalidComplex, match="BrokenAttachmentPath"):
        replace(c, attachments={**c.attachments, ref: (e, -d)})


def test_complex_copies_what_it_is_built_from():
    # the caller's dicts stay the caller's: editing them later leaves the
    # built complex as it was validated
    marks, edges = {"v": None}, {"e": ("v", "v")}
    attachments = {("d", 0, 0): ("e", 1)}
    c = Orbicomplex(
        pieces=[disk_with_cones("d", 2)],
        graph=MarkedGraph(marks=marks, edges=edges),
        attachments=attachments,
    )
    marks["w"] = None
    edges["e"] = ("v", "w")
    attachments[("d", 0, 0)] = ("e", -1)
    assert dict(c.graph.marks) == {"v": None}
    assert dict(c.graph.edges) == {"e": ("v", "v")}
    assert dict(c.graph.multiplicity) == {"e": 1}
    assert dict(c.attachments) == {("d", 0, 0): ("e", 1)}


def _refused_kinds(**fields) -> set[str]:
    """The violation kinds InvalidComplex names when the complex is built."""
    with pytest.raises(orbicore.InvalidComplex) as exc:
        Orbicomplex(**fields)
    return {part.split(":")[0] for part in str(exc.value).split("; ")}


def test_parse_refuses_invalid_complex():
    g = MarkedGraph(marks={"v": None}, edges={"e": ("v", "v")})
    c = Orbicomplex(pieces=[disk_with_cones("d", 1)], graph=g, attachments={("d", 0, 0): ("e", 1)})
    data = json.loads(serialize.dumps(serialize.orbicomplex_to_json(c)))
    data["attachments"][0]["edge"] = "nope"
    with pytest.raises(orbicore.InvalidComplex, match="DanglingAttachment"):
        serialize.orbicomplex_from_json(data)


def test_validate_dangling_attachment(chain):
    kinds = _refused_kinds(
        pieces=[disk_with_cones("d", 2)],
        graph=MarkedGraph(marks={"v": None}),
        attachments={("d", 0, 0): ("missing", 1)},
    )
    assert "DanglingAttachment" in kinds


def test_validate_mirror_attached():
    g = MarkedGraph(marks={"u": None, "v": None})
    g.edges["e"] = ("u", "v")
    g.multiplicity["e"] = 1
    kinds = _refused_kinds(
        pieces=[polygon_piece(3)],
        graph=g,
        attachments={("p", 0, 1): ("e", 1)},
    )
    assert "MirrorAttached" in kinds


def test_validate_wrong_multiplicity():
    g = MarkedGraph(marks={"v": None})
    g.edges["e"] = ("v", "v")
    g.multiplicity["e"] = 5
    kinds = _refused_kinds(
        pieces=[disk_with_cones("d", 2)],
        graph=g,
        attachments={("d", 0, 0): ("e", 1)},
    )
    assert "WrongMultiplicity" in kinds


def test_validate_unknown_segment_kind():
    kinds = _refused_kinds(pieces=[Piece(id="p", boundary=(("mirror", "mirorr", "free"),))])
    assert "UnknownSegmentKind" in kinds


@pytest.mark.parametrize("bad", ["edge", {"kind": "free"}], ids=["string", "unhashable"])
def test_validate_lists_each_unknown_segment_kind_once(bad):
    # the bad kind sits on the second circle of a valid annulus; an
    # unhashable kind is reported like any other
    with pytest.raises(orbicore.InvalidComplex) as exc:
        Orbicomplex(pieces=[
            Piece(id="d", boundary=(("mirror", "free", "mirror"),)),
            Piece(id="a", boundary=(("free",), ("free", bad, "free"))),
        ])
    assert str(exc.value) == str(Violation("UnknownSegmentKind", f"a circle 1 segment 1: {bad!r}"))


def test_validate_lists_attachment_violations_in_segment_order():
    # entered out of order, one failing attachment of each kind is listed
    # by its segment, before the multiplicities
    with pytest.raises(orbicore.InvalidComplex) as exc:
        Orbicomplex(
            pieces=[polygon_piece(3), disk_with_cones("d", 2, n_segments=2)],
            graph=MarkedGraph(marks={"u": None, "v": None}, edges={"e": ("u", "v")}),
            attachments={
                ("q", 0, 0): ("e", 1),
                ("p", 0, 2): ("e", 1),
                ("d", 0, 1): ("e", 0),
                ("d", 0, 0): ("nope", 1),
            },
        )
    assert str(exc.value).split("; ") == [
        "DanglingAttachment: ('d', 0, 0) -> 'nope'",
        "BadDirection: ('d', 0, 1) -> 0",
        "MirrorAttached: ('p', 0, 2)",
        "UnknownSegment: ('q', 0, 0)",
        "WrongMultiplicity: e: stored 3, attached 0",
    ]


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


def test_euler_matches_oracle_on_random_complexes():
    rng = random.Random(1)
    glued = seamed = 0
    for _ in range(300):
        c = random_orbicomplex(rng)
        assert validate_complex(c) == []
        chi = euler_characteristic(c)
        assert chi == weighted_cell_euler(c)
        for p in c.pieces:
            assert piece_orbifold_euler(p) == weighted_cell_euler(Orbicomplex(pieces=[p]))
        glued += len(c.attachments)
        # the seam term: what gluing adds beyond the bare graph and pieces
        bare = weighted_cell_euler(Orbicomplex(graph=MarkedGraph(c.graph.marks, c.graph.edges)))
        seamed += chi != bare + sum(weighted_cell_euler(Orbicomplex(pieces=[p])) for p in c.pieces)
    assert glued > 900  # most draws glue segments, not only bare pieces
    assert seamed > 100  # and many glue one beside a free segment left unattached


def test_euler_disk_glued_along_one_of_two_segments_is_a_circle():
    # segment 0 wraps a loop at a plain vertex, segment 1 stays free: the
    # disk with two boundary points identified, a circle up to homotopy
    g = MarkedGraph(marks={"v": None}, edges={"e": ("v", "v")})
    c = Orbicomplex(pieces=[disk_with_cones("d", 0, n_segments=2)], graph=g,
                    attachments={("d", 0, 0): ("e", 1)})
    assert euler_characteristic(c) == 0 == weighted_cell_euler(c)


def test_euler_evaluates_each_piece_shape_once(chain, monkeypatch):
    shapes = []

    def counted(p):
        shapes.append((p.genus, p.boundary, p.cones))
        return piece_orbifold_euler(p)

    monkeypatch.setattr(orbicore, "piece_orbifold_euler", counted)
    # a fresh complex: the session's y_hat may already carry its χ
    c = chain.y_hat
    y_hat = Orbicomplex(pieces=c.pieces, graph=c.graph, attachments=c.attachments, rotation=c.rotation)
    assert euler_characteristic(y_hat) == Fraction(-144)
    assert sorted(shapes) == sorted({(p.genus, p.boundary, p.cones) for p in y_hat.pieces})
    assert len(shapes) < len(y_hat.pieces)
    shapes.clear()
    assert euler_characteristic(y_hat) == Fraction(-144)
    assert shapes == []


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
    g = MarkedGraph(
        marks={"a": None, "b": None, "c": None},
        edges={"e1": ("a", "b"), "e2": ("b", "c")},
        multiplicity={"e1": 2, "e2": 2},
    )
    out = topological_form(g)
    assert len(out.marks) == 2 and len(out.edges) == 1
    assert set(next(iter(out.edges.values()))) == {"a", "c"}


def test_marked_tripod_unchanged():
    g = tripod()
    out = topological_form(g)
    assert sorted(out.marks) == sorted(g.marks)
    assert len(out.edges) == 3


def test_unequal_multiplicities_block_suppression():
    g = MarkedGraph(
        marks={"a": None, "b": None, "c": None},
        edges={"e1": ("a", "b"), "e2": ("b", "c")},
        multiplicity={"e1": 2, "e2": 3},
    )
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
        assert got is None or is_marked_graph_isomorphism(g, h, got)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_iso_finds_nothing_where_spanning_tree_counts_differ(rng):
    # relabelled copies count alike; moving one end of one edge often
    # changes the counts, and then no isomorphism may be found
    g = random_marked_graph(rng, 8)
    assert spanning_tree_counts(relabeled_copy(g, rng)) == spanning_tree_counts(g)
    h = relabeled_copy(g, rng)
    if h.edges:
        e = rng.choice(h.edge_ids())
        h.edges[e] = (h.edges[e][0], rng.choice(h.vertices()))
    if spanning_tree_counts(h) != spanning_tree_counts(g):
        assert marked_graph_isomorphism(g, h) is None


def test_spanning_tree_counts_separate_the_pairs_the_demo_accepts(chain):
    # a second, exact route to "not homeomorphic": the demo accepts exactly
    # the pairs of candidates whose singular subspaces count different
    # spanning trees, and so do the hats of the pair it picks
    sings = [topological_form(singular_subspace(cx)) for _phi, cx, _fm in chain.candidates]
    counts = [spanning_tree_counts(g) for g in sings]
    assert counts == [[168], [168], [384], [168], [96], [168]]
    pairs = list(itertools.combinations(range(len(sings)), 2))
    assert [(i, j) for i, j in pairs if counts[i] != counts[j]] == chain.pairs
    hats = [topological_form(singular_subspace(c)) for c in (chain.y_hat, chain.z_hat)]
    assert [spanning_tree_counts(g) for g in hats] == [[168] * 4, [384] * 4]


def test_iso_tells_apart_graphs_the_refinement_cannot():
    # two prisms with multiplicity 2 on a perfect matching: the three rungs,
    # or one rung and two triangle edges.  Every vertex has the same
    # refined signature in both; only the edge checks of the search see
    # that the multiplicity-1 edges form two triangles in one, a hexagon in
    # the other
    def prism(doubled):
        g = MarkedGraph(marks={v: None for v in ("a1", "a2", "a3", "b1", "b2", "b3")})
        pairs = [("a1", "a2"), ("a2", "a3"), ("a1", "a3"), ("b1", "b2"), ("b2", "b3"),
                 ("b1", "b3"), ("a1", "b1"), ("a2", "b2"), ("a3", "b3")]
        for k, (u, v) in enumerate(pairs):
            g.edges[f"e{k}"] = (u, v)
            g.multiplicity[f"e{k}"] = 2 if (u, v) in doubled else 1
        return g

    rungs = prism({("a1", "b1"), ("a2", "b2"), ("a3", "b3")})
    mixed = prism({("a1", "b1"), ("a2", "a3"), ("b2", "b3")})
    assert brute_force_graph_iso(rungs, mixed) is None
    assert marked_graph_isomorphism(rungs, mixed) is None
    got = marked_graph_isomorphism(mixed, relabeled_copy(mixed, random.Random(2)))
    assert got is not None


def _all_isos(g, h):
    """Every mapping the search yields, as sorted item tuples, in order."""
    def kinds(x):
        return {v: (mark_kind(m),) for v, m in x.marks.items()}

    return [tuple(sorted(m.items())) for m in iter_marked_graph_isomorphisms(g, kinds(g), h, kinds(h))]


def test_iso_search_yields_every_isomorphism_exactly_once():
    rng = random.Random(29)
    disconnected = 0
    for k in range(60):
        g = random_marked_graph(rng, 5)
        h = relabeled_copy(g, rng) if k % 2 == 0 else random_marked_graph(rng, 5)
        disconnected += len(g.components()) > 1
        got = _all_isos(g, h)
        v1 = g.vertices()
        want = {
            tuple(sorted(zip(v1, perm))) for perm in itertools.permutations(h.vertices())
            if is_marked_graph_isomorphism(g, h, dict(zip(v1, perm)))
        }
        assert len(got) == len(set(got))
        assert set(got) == want
    assert disconnected >= 20


def test_iso_search_counts_automorphisms_of_disjoint_thetas():
    # three thetas: 3! ways to match the copies, 2 to match each copy's ends
    g = disjoint_copies(theta_graph(), 3)
    got = _all_isos(g, relabeled_copy(g, random.Random(7)))
    assert len(got) == len(set(got)) == 48


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
    [(genus, circuits)] = ribbon_neighborhood(g, planar_cycle_rotation(g))
    assert genus == 0
    assert len(circuits) == 2


def test_theta_planar_rotation_gives_three_faces():
    g = theta_graph()
    rot = {
        "x": [("c1", 0), ("c2", 0), ("c3", 0)],
        "y": [("c1", 1), ("c3", 1), ("c2", 1)],
    }
    [(genus, circuits)] = ribbon_neighborhood(g, rot)
    assert (genus, len(circuits)) == (0, 3)


def test_theta_twisted_rotation_gives_torus():
    g = theta_graph()
    rot = {
        "x": [("c1", 0), ("c2", 0), ("c3", 0)],
        "y": [("c1", 1), ("c2", 1), ("c3", 1)],
    }
    [(genus, circuits)] = ribbon_neighborhood(g, rot)
    assert (genus, len(circuits)) == (1, 1)


def test_singular_graph_of_pair_cover_is_planar_with_six_faces(chain):
    # the derived rotation thickens the singular graph of either cover of the
    # counterexample pair to a genus-0 surface with six boundary circles
    for cx in (chain.y, chain.z):
        s = singular_subspace(cx)
        [(genus, circuits)] = ribbon_neighborhood(s, cx.rotation)
        assert (genus, len(circuits)) == (0, 6)


def test_ribbon_euler_formula_on_random_rotations():
    # a disconnected graph is answered per component; a lone vertex has no
    # face, so a graph with one is refused
    rng = random.Random(23)
    answered = disconnected = 0
    while answered < 40:
        g = random_marked_graph(rng, 6)
        darts_at = {}
        for d in g.darts():
            darts_at.setdefault(g.dart_tail(d), []).append(d)
        rot = {}
        for v, ds in darts_at.items():
            rng.shuffle(ds)
            rot[v] = ds
        if len(darts_at) < len(g.marks):
            with pytest.raises(graphs.MalformedRotation, match="inconsistent face count"):
                ribbon_neighborhood(g, rot)
            continue
        answered += 1
        comps = g.components()
        disconnected += len(comps) > 1
        result = ribbon_neighborhood(g, rot)
        assert len(result) == len(comps)
        for comp, (genus, circuits) in zip(comps, result):
            darts = sorted(d for v in comp for d in darts_at[v])
            walked = sorted((e, 0 if d == 1 else 1) for walk in circuits for e, d in walk)
            assert walked == darts
            assert len(comp) - len(darts) // 2 + len(circuits) == 2 - 2 * genus
            assert genus >= 0
    assert disconnected


def test_planar_normal_form_refuses_an_isolated_vertex(chain):
    def with_lone_vertex(c):
        graph = MarkedGraph({**c.graph.marks, "lone": None}, c.graph.edges, c.graph.multiplicity)
        return replace(c, graph=graph)

    y, z = with_lone_vertex(chain.y), with_lone_vertex(chain.z)
    with pytest.raises(graphs.MalformedRotation, match="V-E\\+F = 1"):
        invariants.planar_normal_form(y)
    # equal Euler characteristics, so the refusal is what leaves the
    # certificate out
    assert euler_characteristic(y) == euler_characteristic(z)
    assert invariants.homotopy_equivalence_certificate(y, z) is None


def test_planar_normal_form_walks_the_graph_once(chain, monkeypatch):
    # one search for the components and one rotation check, on the
    # attaching graph itself
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(MarkedGraph, "components", counted("components", MarkedGraph.components))
    monkeypatch.setattr(graphs, "check_rotation", counted("check_rotation", graphs.check_rotation))
    invariants.planar_normal_form(chain.y)
    assert sorted(calls) == ["check_rotation", "components"]


def test_malformed_rotation_rejected():
    g = theta_graph()
    with pytest.raises(graphs.MalformedRotation):
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
    [(genus, faces)] = ribbon_neighborhood(g, rot)
    assert (genus, len(faces)) == (0, 3)
    canon = {orbicore._canonical_cycle(w) for w in circuits}
    assert {orbicore._canonical_cycle(w) for w in faces} == canon


def test_rotation_from_circuits_rejects_nonorientable():
    g = theta_graph()
    # c1 used twice in the same direction by one circuit
    bad = [
        [("c1", 1), ("c1", 1)],
        [("c2", 1), ("c3", -1)],
        [("c2", 1), ("c3", -1)],
    ]
    assert rotation_from_circuits(g, bad) is None


def _path_graph():
    return MarkedGraph(marks={"x": None, "y": None, "z": None}, edges={"a": ("x", "y"), "b": ("y", "z")})


def _figure_eight():
    return MarkedGraph(marks={"v": None}, edges={"a": ("v", "v"), "b": ("v", "v")})


@pytest.mark.parametrize("make_graph, circuits", [
    pytest.param(
        theta_graph, [[("c1", 1), ("c2", -1)], [("c3", 1), ("zz", -1)], [("c2", 1), ("c3", -1)]],
        id="edge-not-in-graph",
    ),
    pytest.param(
        theta_graph, [[("c1", 1), ("c2", -1)], [("c3", 1), ("c1", -2)], [("c2", 1), ("c3", -1)]],
        id="direction-not-unit",
    ),
    # a is used in the same direction by both circuits and b in opposite
    # ones, so the circuits must be flipped relative to each other and not
    pytest.param(_figure_eight, [[("a", 1), ("b", 1)], [("a", 1), ("b", -1)]], id="orientation-conflict"),
    # a walk x -> y -> z and its reverse: after a at x the face turns at z
    pytest.param(_path_graph, [[("a", 1), ("b", 1)], [("b", -1), ("a", -1)]], id="walk-not-continuous"),
    # each loop side its own face: the darts at v form two cycles of two
    pytest.param(_figure_eight, [[("a", 1)], [("a", -1)], [("b", 1)], [("b", -1)]], id="vertex-split"),
])
def test_rotation_from_circuits_refusals(make_graph, circuits):
    assert rotation_from_circuits(make_graph(), circuits) is None


# ---------------------------------------------------------------------------
# DOT export


def test_dot_export_mentions_marks_and_multiplicities(chain):
    text = graph_to_dot(singular_subspace(chain.base))
    assert text.startswith("graph")
    assert "[2]" in text
    assert "x4" in text
