"""Acceptance criteria gate.

One test per criterion, each printing a PASS/FAIL line; every tolerance is
exact rational equality (zero tolerance).  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import random
from fractions import Fraction

from orbicover import covers, invariants
from orbicover.coxeter import Branch, branch_polygon
from orbicover.invariants import AbelianInvariants
from orbicover.orbicore import (
    MIRROR,
    RAM2,
    MarkedGraph,
    disk_with_cones,
    euler_characteristic,
    marked_graph_isomorphism,
    piece_orbifold_euler,
    singular_subspace,
    topological_form,
)

from oracles import (
    brute_force_graph_iso,
    random_marked_graph,
    relabeled_copy,
    snf_determinantal,
    weighted_cell_euler,
)


def _criterion(name, description, fn):
    try:
        fn()
    except BaseException:
        print(f"{name} FAIL - {description}")
        raise
    print(f"{name} PASS - {description}")


def test_a1_davis_construction(chain):
    def run():
        c = chain.base
        mirror_counts = sorted(
            sum(1 for k in p.boundary[0] if k == MIRROR) for p in c.pieces
        )
        assert len(c.pieces) == 6
        assert mirror_counts == [5, 5, 5, 5, 7, 7]
        chi = euler_characteristic(c)
        assert chi == Fraction(-9, 2)
        assert chi == weighted_cell_euler(c)
        s = topological_form(singular_subspace(c))
        expected = MarkedGraph(marks={"c": None})
        for i in (1, 2, 3):
            expected.marks[f"l{i}"] = RAM2
            expected.edges[f"e{i}"] = (f"l{i}", "c")
            expected.multiplicity[f"e{i}"] = 4
        assert marked_graph_isomorphism(s, expected) is not None
        ab = invariants.abelianization(invariants.fundamental_group_presentation(c))
        assert ab == AbelianInvariants(0, (2,) * 25)

    _criterion(
        "A1",
        "Davis construction: 6 polygons {7,7,5,5,5,5}, chi=-9/2, marked tripod, (Z/2)^25",
        run,
    )


def test_a2_first_double_cover(chain):
    def run():
        rep = covers.verify_covering(chain.map1)
        assert rep.passed and rep.degree == 2
        chi = euler_characteristic(chain.cover1)
        assert chi == Fraction(-9)
        assert chi == 2 * euler_characteristic(chain.base)
        theta = MarkedGraph(marks={"x": None, "y": None})
        for i in (1, 2, 3):
            theta.edges[f"c{i}"] = ("x", "y")
            theta.multiplicity[f"c{i}"] = 4
        s = topological_form(singular_subspace(chain.cover1))
        assert marked_graph_isomorphism(s, theta) is not None

    _criterion(
        "A2",
        "first cover verifies at degree 2, chi=-9=2*(-9/2), theta-graph singular subspace",
        run,
    )


def test_a3_lemma_style_doubles():
    def run():
        for n in range(2, 13):
            p = branch_polygon(Branch(tuple(f"v{i}" for i in range(n))))
            cover, f = covers.reflection_double(p)
            rep = covers.verify_covering(f)
            assert rep.passed, (n, rep.failures()[:1])
            assert piece_orbifold_euler(cover) == 2 * piece_orbifold_euler(p)
            assert len(cover.cones) == n - 1
        for m in range(1, 9):
            p = disk_with_cones("d", m + 1)
            cover, f = covers.rotation_double(p)
            rep = covers.verify_covering(f)
            assert rep.passed, (m, rep.failures()[:1])
            smooth = [
                tok
                for toks in f.cone_fibers.values()
                for tok in toks
                if tok[0] == "smooth"
            ]
            assert len(smooth) == 1
            assert piece_orbifold_euler(cover) == 2 * piece_orbifold_euler(p)

    _criterion(
        "A3",
        "reflection doubles n=2..12 and rotation doubles m=1..8 verify with exact chi",
        run,
    )


def test_a4_counterexample_pair(chain):
    def run():
        n = len(chain.family2)
        assert n == 7 and n * (n - 1) // 2 <= 21
        assert len(chain.pairs) >= 1
        for cx in (chain.y, chain.z):
            assert euler_characteristic(cx) == Fraction(-36)
            census = sorted(len(p.cones) for p in cx.pieces)
            assert census == [6] * 8 + [10] * 4
        sy = topological_form(singular_subspace(chain.y))
        sz = topological_form(singular_subspace(chain.z))
        assert marked_graph_isomorphism(sy, sz) is None
        ny = invariants.planar_normal_form(chain.y)
        nz = invariants.planar_normal_form(chain.z)
        assert sorted(ny.components) == sorted(nz.components) == [(0, 6)]
        assert invariants.normal_forms_isomorphic(ny, nz) is not None
        ab_y = invariants.abelianization(invariants.fundamental_group_presentation(chain.y))
        ab_z = invariants.abelianization(invariants.fundamental_group_presentation(chain.z))
        assert ab_y == ab_z

    _criterion(
        "A4",
        "pair search finds covers with chi=-36, censuses {4xD2(10), 8xD2(6)}, "
        "non-homeomorphic singular subspaces, equal genus-0 six-circle normal forms",
        run,
    )


def test_a5_torsion_free_refinement(chain):
    def run():
        for cx, hat, fhat in (
            (chain.y, chain.y_hat, chain.y_hat_map),
            (chain.z, chain.z_hat, chain.z_hat_map),
        ):
            rep = covers.verify_covering(fhat)
            assert rep.passed and rep.degree == 4
            assert euler_characteristic(hat) == Fraction(-144)
            assert invariants.torsion_freeness(hat)
            sing_hat = topological_form(singular_subspace(hat))
            base_sing = singular_subspace(cx)
            four = MarkedGraph()
            for j in range(4):
                for v in base_sing.vertices():
                    four.marks[f"{v}#{j}"] = base_sing.marks[v]
                for e in base_sing.edge_ids():
                    u, v = base_sing.edges[e]
                    four.edges[f"{e}#{j}"] = (f"{u}#{j}", f"{v}#{j}")
                    four.multiplicity[f"{e}#{j}"] = base_sing.multiplicity.get(e, 0)
            assert marked_graph_isomorphism(sing_hat, topological_form(four)) is not None
            genus_of = {
                len(cx.piece(p.id[: -len(".hat")]).cones): p.genus for p in hat.pieces
            }
            assert genus_of == {6: 3, 10: 7}
        sy = topological_form(singular_subspace(chain.y_hat))
        sz = topological_form(singular_subspace(chain.z_hat))
        assert marked_graph_isomorphism(sy, sz) is None
        assert invariants.homotopy_equivalence_certificate(chain.y_hat, chain.z_hat) is not None
        assert len(covers.surface_over_disk_tower(3).disk.cones) == 6
        assert len(covers.surface_over_disk_tower(7).disk.cones) == 10

    _criterion(
        "A5",
        "torsion-free degree-4 covers: chi=-144, four singular copies, still not "
        "homeomorphic, certificate present, towers at g=3 and g=7",
        run,
    )


def test_a6_oracle_suites(covering_maps):
    def run():
        rng = random.Random(20240)
        for _ in range(200):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            assert invariants.smith_normal_form(m) == snf_determinantal(m)
        rng = random.Random(777)
        for k in range(100):
            g = random_marked_graph(rng, 7)
            h = relabeled_copy(g, rng) if k % 2 == 0 else random_marked_graph(rng, 7)
            assert (marked_graph_isomorphism(g, h) is None) == (
                brute_force_graph_iso(g, h) is None
            )
        for name, fm in covering_maps:
            rep = covers.verify_covering(fm)
            assert rep.passed, name
            assert euler_characteristic(fm.source) == fm.degree * euler_characteristic(
                fm.target
            ), name

    _criterion(
        "A6",
        "SNF vs determinantal oracle (200 matrices), isomorphism vs brute force "
        "(100 pairs), every constructed cover verifies with exact chi",
        run,
    )
