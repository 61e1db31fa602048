import copy
import random
import threading
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbicover import invariants
from orbicover.covers import all_ones_labeling
from orbicover.coxeter import DefiningGraph, GroupPresentation, racg_presentation
from orbicover.invariants import (
    AbelianInvariants,
    Disconnected,
    abelianization,
    compare_report,
    fundamental_group_presentation,
    homotopy_equivalence_certificate,
    normal_forms_isomorphic,
    planar_normal_form,
    smith_normal_form,
    torsion_freeness,
)
from orbicover.graphs import MarkedGraph
from orbicover.orbicore import Orbicomplex, disk_with_cones, euler_characteristic

from oracles import (
    brute_force_normal_form_iso,
    cellular_homology,
    random_normal_form,
    reidemeister_schreier_h1,
    relabeled_normal_form,
    snf_determinantal,
)


def loop_complex(n_cones):
    g = MarkedGraph(marks={"v": None})
    g.edges["e"] = ("v", "v")
    return Orbicomplex(
        pieces=[disk_with_cones("d", n_cones)],
        graph=g,
        attachments={("d", 0, 0): ("e", 1)},
    )


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_scalar():
    assert smith_normal_form([[2]]) == [2]


def test_snf_two_by_two():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]


def test_snf_identity():
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]


def test_snf_zero_matrix():
    assert smith_normal_form([[0, 0], [0, 0]]) == []


def test_snf_divisibility_chain_example():
    factors = smith_normal_form([[2, 0], [0, 3]])
    assert factors == [1, 6]


def test_snf_singleton_pass_never_grows_an_entry():
    # after the unit pivot, the pivot 5 leaves a 2 in the column of the
    # singleton -10*e_2; reducing it to 2 mod -10 = -8 would make the rounds
    # cycle, so the call runs on a thread with a time limit
    result = []
    m = [[2, 6, -6], [-1, 2, -1], [3, -1, 4]]
    worker = threading.Thread(target=lambda: result.append(smith_normal_form(m)), daemon=True)
    worker.start()
    worker.join(10)
    assert result == [[1, 1, 50]]


def _is_chain(factors):
    return all(d > 0 for d in factors) and all(b % a == 0 for a, b in zip(factors, factors[1:]))


@st.composite
def small_matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return [[draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def presentation_shaped(draw):
    """Rows 2*e_i (the s^2 relators) stacked with a few rows of entries in
    {-1, 0, 1} and some zero rows, in a drawn order."""
    cols = draw(st.integers(1, 25))
    twos = draw(st.lists(st.integers(0, cols - 1), max_size=cols, unique=True))
    rows = [[2 if j == i else 0 for j in range(cols)] for i in twos]
    rows += draw(st.lists(st.lists(st.integers(-1, 1), min_size=cols, max_size=cols), max_size=4))
    rows += [[0] * cols] * draw(st.integers(0, 2))
    return draw(st.permutations(rows)) if rows else [[0] * cols]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_matrices())
def test_snf_property_matches_determinantal_oracle(m):
    before = copy.deepcopy(m)
    got = smith_normal_form(m)
    assert m == before
    assert _is_chain(got)
    assert got == snf_determinantal(m)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(presentation_shaped())
def test_snf_property_presentation_shaped_matches_sympy(m):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    before = copy.deepcopy(m)
    got = smith_normal_form(m)
    assert m == before
    assert _is_chain(got)
    want = [abs(int(d)) for d in invariant_factors(Matrix(m), domain=ZZ) if d]
    assert got == want


@st.composite
def sparse_matrices(draw):
    """Up to 30x30, with between one and four drawn cells per row on
    average; the rows of a drawn leading block are doubled, so that the
    block has no unit pivot and its column clearing leaves remainders."""
    n_rows, n_cols = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    m = [[0] * n_cols for _ in range(n_rows)]
    cells = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), st.integers(-7, 7))
    for i, j, x in draw(st.lists(cells, min_size=n_rows, max_size=4 * n_rows)):
        m[i][j] = x
    for i in range(draw(st.integers(0, n_rows))):
        m[i] = [2 * x for x in m[i]]
    return m


@settings(max_examples=25, deadline=None, derandomize=True)
@given(sparse_matrices())
def test_snf_property_sparse_matches_sympy(m):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    got = smith_normal_form(m)
    assert _is_chain(got)
    want = [abs(int(d)) for d in invariant_factors(Matrix(m), domain=ZZ) if d]
    assert got == want


def random_connected_triangle_free(rng, n):
    """A random spanning tree on n vertices, plus random edges whose ends
    have no common neighbour."""
    names = [f"v{i}" for i in range(n)]
    nbrs = {v: set() for v in names}
    for i in range(1, n):
        u, v = names[i], names[rng.randrange(i)]
        nbrs[u].add(v)
        nbrs[v].add(u)
    for _ in range(n):
        u, v = rng.sample(names, 2)
        if v not in nbrs[u] and not nbrs[u] & nbrs[v]:
            nbrs[u].add(v)
            nbrs[v].add(u)
    edges = {tuple(sorted((u, v))) for u in names for v in nbrs[u]}
    return DefiningGraph.from_edges(names, sorted(edges))


def test_racg_abelianization_closed_form_on_random_graphs():
    # H_1 of a right-angled Coxeter group on V generators is (Z/2)^V
    rng = random.Random(7)
    for _ in range(12):
        g = random_connected_triangle_free(rng, rng.randint(2, 40))
        assert abelianization(racg_presentation(g)) == AbelianInvariants(0, (2,) * len(g.vertices))


def test_snf_agrees_with_determinantal_oracle():
    rng = random.Random(2024)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        got = smith_normal_form(m)
        want = snf_determinantal(m)
        assert got == want, (m, got, want)
        for a, b in zip(got, got[1:]):
            assert b % a == 0


# ---------------------------------------------------------------------------
# abelianization


def test_abelianization_involution():
    pres = GroupPresentation(("s",), ((("s", 1), ("s", 1)),))
    assert abelianization(pres) == AbelianInvariants(0, (2,))


def test_abelianization_racg_path():
    g = DefiningGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert abelianization(racg_presentation(g)) == AbelianInvariants(0, (2, 2, 2))


def test_abelianization_free_group():
    pres = GroupPresentation(tuple(f"g{i}" for i in range(9)), ())
    assert abelianization(pres) == AbelianInvariants(9, ())


def test_abelianization_keeps_zero_exponent_sums_out_of_its_rows(monkeypatch):
    # a stored zero would be the pivot of least |value| and divide by zero
    seen = []
    elimination = invariants._invariant_factors

    def recording(rows):
        seen.append(copy.deepcopy(rows))
        return elimination(rows)

    monkeypatch.setattr(invariants, "_invariant_factors", recording)
    commutator = GroupPresentation(("a", "b"), ((("a", 1), ("b", 1), ("a", -1), ("b", -1)),))
    assert abelianization(commutator) == AbelianInvariants(2, ())
    conjugate = GroupPresentation(("a", "b"), ((("a", 1), ("b", 1), ("a", -1)),))
    assert abelianization(conjugate) == AbelianInvariants(1, ())
    assert seen == [[{}], [{1: 1}]]


def test_abelian_invariants_text():
    assert str(AbelianInvariants(1, (2,))) == "Z x Z/2"
    assert str(AbelianInvariants(0, ())) == "0"


_LETTERS = ("a", "b", "c", "d")
_words = st.lists(st.tuples(st.sampled_from(_LETTERS), st.sampled_from((-2, -1, 1, 2))), max_size=8)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(_words, max_size=5))
def test_abelianization_matches_dense_smith_normal_form(relators):
    matrix = []
    for rel in relators:
        row = [0] * len(_LETTERS)
        for g, e in rel:
            row[_LETTERS.index(g)] += e
        matrix.append(row)
    factors = smith_normal_form(matrix)
    pres = GroupPresentation(_LETTERS, tuple(map(tuple, relators)))
    want = AbelianInvariants(len(_LETTERS) - len(factors), tuple(d for d in factors if d > 1))
    assert abelianization(pres) == want


# ---------------------------------------------------------------------------
# fundamental group presentations


def test_presentation_of_cone_disk_on_loop():
    c = loop_complex(3)
    pres = fundamental_group_presentation(c)
    assert len(pres.generators) == 1 + 3  # loop edge + cones
    ab = abelianization(pres)
    assert ab == AbelianInvariants(0, (2, 2, 2))


def test_presentation_of_davis_complex(chain):
    ab = abelianization(fundamental_group_presentation(chain.base))
    assert ab == AbelianInvariants(0, (2,) * 25)


def test_presentation_of_first_cover_abelianization(chain):
    ab = abelianization(fundamental_group_presentation(chain.cover1))
    assert ab == AbelianInvariants(0, (2,) * 24)


def test_presentation_disconnected_rejected():
    c = Orbicomplex(
        pieces=[disk_with_cones("a", 1), disk_with_cones("b", 1)],
    )
    with pytest.raises(Disconnected):
        fundamental_group_presentation(c)


def test_presentation_disconnected_before_partial_attachment():
    # piece "a" is partially attached and piece "b" floats free: the
    # component count is reported before any per-piece refusal
    g = MarkedGraph()
    g.marks["v"] = None
    g.edges["e"] = ("v", "v")
    c = Orbicomplex(
        pieces=[disk_with_cones("a", 1, n_segments=2), disk_with_cones("b", 1)],
        graph=g,
        attachments={("a", 0, 0): ("e", 1)},
    )
    with pytest.raises(Disconnected, match=r"^2 components$"):
        fundamental_group_presentation(c)
    with pytest.raises(Disconnected, match="partially attached"):
        fundamental_group_presentation(replace(c, pieces=c.pieces[:1]))


def test_reidemeister_schreier_h1_of_tower_double_covers(chain):
    # H_1 of each double cover of the tower, presented directly and
    # rewritten from its base's presentation over the two cosets
    covered = [(chain.base, all_ones_labeling(chain.base), chain.cover1)]
    covered += [(chain.cover1, phi, cx) for phi, cx, _f in chain.family1]
    covered += [(chain.cover2, phi, cx) for phi, cx, _f in chain.family2]
    for base, phi, cover in covered:
        h1 = abelianization(fundamental_group_presentation(cover))
        assert reidemeister_schreier_h1(base, phi) == h1


def test_presentation_size_matches_euler_for_torsion_free(chain):
    # the presentation complex has one vertex, a loop per generator and a
    # disk per relator, so its Euler characteristic equals the hat's
    for hat in (chain.y_hat, chain.z_hat):
        pres = fundamental_group_presentation(hat)
        assert len(pres.generators) - len(pres.relators) == 1 - euler_characteristic(hat) == 145


def test_cellular_h1_of_the_torsion_free_covers(chain):
    # H_1 from the cells, without the presentation; the cell count n0 - n1 + n2
    # is the Euler characteristic that the quarter rule computes
    for hat in (chain.y_hat, chain.z_hat):
        cells, b0, h1 = cellular_homology(hat)
        assert (cells, b0, h1) == ((32, 188, 12), 1, AbelianInvariants(152, ()))
        assert h1 == abelianization(fundamental_group_presentation(hat))
        assert cells[0] - cells[1] + cells[2] == euler_characteristic(hat)


# ---------------------------------------------------------------------------
# planar normal forms and certificates


def test_pair_normal_forms_match_expected_incidence(chain):
    for cx in (chain.y, chain.z):
        nf = planar_normal_form(cx)
        assert nf is not None
        assert sorted(nf.components) == [(0, 6)]
        face_loads = {}
        for key, faces in nf.pieces:
            n_cones = len(key[2])
            for face in faces:
                face_loads.setdefault(face, []).append(n_cones)
        loads = sorted(tuple(sorted(v)) for v in face_loads.values())
        assert loads == [(6, 6)] * 4 + [(10, 10)] * 2


def test_pair_normal_forms_isomorphic(chain):
    ny = planar_normal_form(chain.y)
    nz = planar_normal_form(chain.z)
    assert normal_forms_isomorphic(ny, nz) is not None


def _assert_normal_form_matching(n1, n2, matching):
    """Components and faces map bijectively, colour- and incidence-true, and
    carry the pieces of n1 onto those of n2."""
    comps, faces = matching["components"], matching["faces"]
    assert sorted(comps) == sorted(comps.values()) == list(range(len(n1.components)))
    assert all(n1.components[i] == n2.components[j] for i, j in comps.items())
    all_faces = [(i, f) for i, (_g, circles) in enumerate(n1.components) for f in range(circles)]
    assert sorted(faces) == all_faces
    assert sorted(faces.values()) == [
        (j, f) for j, (_g, circles) in enumerate(n2.components) for f in range(circles)
    ]
    assert all(j == comps[i] for (i, _f), (j, _g) in faces.items())
    mapped = sorted((key, tuple(sorted(faces[x] for x in fs))) for key, fs in n1.pieces)
    assert mapped == sorted(n2.pieces)


def test_normal_forms_isomorphic_agrees_with_brute_force():
    # half relabelled copies, half same components and piece types on
    # random faces
    rng = random.Random(23)
    found = 0
    for k in range(200):
        n1 = random_normal_form(rng)
        n2 = relabeled_normal_form(n1, rng) if k % 2 else random_normal_form(rng, like=n1)
        got = normal_forms_isomorphic(n1, n2)
        assert (got is None) == (brute_force_normal_form_iso(n1, n2) is None), (n1, n2)
        if got is not None:
            _assert_normal_form_matching(n1, n2, got)
            found += 1
    assert 100 < found < 200


def test_bad_rotation_makes_circuits_not_faces(chain):
    rot = {v: list(cyc) for v, cyc in chain.y.rotation.items()}
    v = sorted(rot)[0]
    assert len(rot[v]) == 3
    rot[v] = [rot[v][1], rot[v][0], rot[v][2]]
    assert planar_normal_form(replace(chain.y, rotation=rot)) is None


def test_certificate_for_pair(chain):
    assert homotopy_equivalence_certificate(chain.y, chain.z) is not None


def test_certificate_for_torsion_free_pair(chain):
    assert homotopy_equivalence_certificate(chain.y_hat, chain.z_hat) is not None


def test_certificate_refuses_different_euler(chain):
    assert homotopy_equivalence_certificate(chain.base, chain.cover1) is None


def test_certificate_implies_equal_abelianizations(chain):
    for a, b in ((chain.y, chain.z), (chain.y_hat, chain.z_hat)):
        if homotopy_equivalence_certificate(a, b) is not None:
            ab_a = abelianization(fundamental_group_presentation(a))
            ab_b = abelianization(fundamental_group_presentation(b))
            assert ab_a == ab_b


# ---------------------------------------------------------------------------
# torsion-freeness


def test_torsion_freeness_of_hat(chain):
    assert torsion_freeness(chain.y_hat) is True


def test_davis_has_torsion(chain):
    assert torsion_freeness(chain.base) is False


def test_first_cover_has_torsion(chain):
    assert torsion_freeness(chain.cover1) is False


# ---------------------------------------------------------------------------
# compare reports


def test_compare_pair(chain):
    report = compare_report(chain.y, chain.z)
    assert report["euler"][0] == report["euler"][1] == Fraction(-36)
    assert report["singular_iso"] == "no"
    assert report["abelianization"][0] == report["abelianization"][1]
    assert report["homotopy_certificate"] == "present"
    assert any("not homeomorphic" in v for v in report["verdicts"])
    assert any("homotopy equivalent" in v for v in report["verdicts"])


def test_compare_relabeled_first_cover(chain):
    from orbicover import serialize

    data = serialize.orbicomplex_to_json(chain.cover1)
    text = serialize.dumps(data)
    for old, new in (("v1", "a1"), ("v2", "a2"), ("v3", "a3")):
        text = text.replace(old, new)
    import json

    relabeled = serialize.orbicomplex_from_json(json.loads(text))
    report = compare_report(chain.cover1, relabeled)
    assert report["euler"][0] == report["euler"][1]
    assert report["singular_iso"] != "no"
    assert report["abelianization"][0] == report["abelianization"][1]


def test_compare_without_a_rotation_is_inconclusive(chain):
    # the Davis complex has no rotation system, so no planar normal form
    assert chain.base.rotation is None
    report = compare_report(chain.base, chain.base)
    assert report["homotopy_certificate"] == "inconclusive"
    assert report["verdicts"] == ["homotopy equivalence inconclusive", "singular subspaces homeomorphic"]


def test_compare_base_and_cover_differ(chain):
    report = compare_report(chain.base, chain.cover1)
    assert report["euler"] == (Fraction(-9, 2), Fraction(-9))
    assert report["homotopy_certificate"] == "absent"
    assert any("not homotopy equivalent" in v for v in report["verdicts"])
