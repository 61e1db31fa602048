"""Closed forms and round trips over seeded defining graphs from
``oracles.random_branched_graph``, not only the demo graph.

For a right-angled Coxeter group W of a connected triangle-free graph with
V vertices and E edges: chi(W) = 1 - V/2 + E/4, H_1(W) = (Z/2)^V, and the
kernel of the all-ones map W -> Z/2 (the Davis double cover) has
H_1 = (Z/2)^(V-1)."""

import json
import random
from fractions import Fraction

import pytest

from orbicover import covers, coxeter, invariants, serialize, towers, verify
from orbicover.invariants import AbelianInvariants
from orbicover.orbicore import euler_characteristic

from oracles import cellular_homology, random_branched_graph, reidemeister_schreier_h1


def _h1(c):
    return invariants.abelianization(invariants.fundamental_group_presentation(c))


def _round_trips(to_json, from_json, x) -> bool:
    text = serialize.dumps(to_json(x))
    return serialize.dumps(to_json(from_json(json.loads(text)))) == text


@pytest.mark.parametrize("seed", range(12))
def test_davis_tower_of_a_generated_graph(seed):
    g = random_branched_graph(random.Random(seed))
    v, e = len(g.vertices), len(g.edges)
    base = coxeter.davis_orbicomplex(g)
    assert euler_characteristic(base) == 1 - Fraction(v, 2) + Fraction(e, 4)
    assert _h1(base) == AbelianInvariants(0, (2,) * v)

    cover, f_cover = covers.davis_double_cover(base)
    assert _h1(cover) == AbelianInvariants(0, (2,) * (v - 1))
    hat, f_hat = towers.torsion_free_cover(cover)
    maps = [f_cover, f_hat, towers.compose(f_hat, f_cover)]
    maps += [fm for _phi, _cx, fm in covers.enumerate_double_covers(cover)]
    for fm in maps:
        assert verify.verify_covering(fm).passed

    for c in (base, cover, hat):
        assert _round_trips(serialize.orbicomplex_to_json, serialize.orbicomplex_from_json, c)
    for fm in maps[:3]:
        assert _round_trips(serialize.covering_map_to_json, serialize.covering_map_from_json, fm)


@pytest.mark.parametrize("seed", range(12))
def test_reidemeister_schreier_h1_of_generated_double_covers(seed):
    # H_1 of the Davis cover and of each enumerated cover over it, presented
    # directly and rewritten from the base's presentation over two cosets
    base = coxeter.davis_orbicomplex(random_branched_graph(random.Random(seed)))
    cover, _f = covers.davis_double_cover(base)
    covered = [(base, covers.all_ones_labeling(base), cover)]
    covered += [(cover, phi, cx) for phi, cx, _fm in covers.enumerate_double_covers(cover)]
    for b, phi, x in covered:
        assert reidemeister_schreier_h1(b, phi) == _h1(x)


@pytest.mark.parametrize("seed", range(12))
def test_cellular_h1_of_a_generated_hat(seed):
    # the torsion-free degree-4 cover is a 2-complex: its cells give H_1 and
    # the Euler characteristic by a second route
    base = coxeter.davis_orbicomplex(random_branched_graph(random.Random(seed)))
    hat, _f = towers.torsion_free_cover(covers.davis_double_cover(base)[0])
    cells, b0, h1 = cellular_homology(hat)
    assert b0 == 1
    assert h1 == _h1(hat)
    assert cells[0] - cells[1] + cells[2] == euler_characteristic(hat)
