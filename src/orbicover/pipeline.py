"""End-to-end demo pipeline.

Builds the reflection orbicomplex of the built-in defining graph, climbs
the tower of double covers, searches for the pair of covers that share a
fundamental group but have non-homeomorphic singular subspaces, and pushes
both to torsion-free degree-4 covers.  ``tower_stages`` builds that tower
floor by floor; ``run_demo`` gates every stage on verify_covering and
exact invariants.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import coxeter, covers, graphs, invariants, orbicore, towers, verify
from .coxeter import DefiningGraph
from .graphs import RAM2, MarkedGraph
from .invariants import AbelianInvariants
from .orbicore import Orbicomplex
from .verify import CoveringMap


class DemoFailure(graphs.OrbicoverError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage
        self.message = message


def _check(stage: str, condition: bool, message: str) -> None:
    if not condition:
        raise DemoFailure(stage, message)


def census_display(c: Orbicomplex) -> list[list]:
    """[["D2(6 cones)", 2], ...] sorted; names by homeomorphism type."""
    counts: dict[str, int] = {}
    for p in c.pieces:
        if p.has_mirrors:
            n = sum(1 for _ci, _si, k in p.segments() if k == orbicore.MIRROR)
            name = f"polygon({n} mirrors)"
        elif p.genus == 0 and len(p.boundary) == 1:
            name = f"D2({len(p.cones)} cones)"
        else:
            name = f"S_{p.genus},{len(p.boundary)}"
        counts[name] = counts.get(name, 0) + 1
    return [[k, counts[k]] for k in sorted(counts)]


def cone_census(c: Orbicomplex) -> dict[int, int]:
    """Cone-count census of an all-disk complex."""
    out: dict[int, int] = {}
    for p in c.pieces:
        out[len(p.cones)] = out.get(len(p.cones), 0) + 1
    return out


def tripod_graph() -> MarkedGraph:
    g = MarkedGraph()
    g.marks["c"] = None
    for i in (1, 2, 3):
        g.marks[f"l{i}"] = RAM2
        g.edges[f"e{i}"] = (f"l{i}", "c")
        g.multiplicity[f"e{i}"] = 4
    return g


def theta_graph() -> MarkedGraph:
    g = MarkedGraph()
    g.marks["x"] = g.marks["y"] = None
    for i in (1, 2, 3):
        g.edges[f"c{i}"] = ("x", "y")
        g.multiplicity[f"c{i}"] = 4
    return g


def disjoint_copies(g: MarkedGraph, n: int) -> MarkedGraph:
    out = MarkedGraph()
    for j in range(n):
        for v in g.vertices():
            out.marks[f"{v}#{j}"] = g.marks[v]
        for e in g.edge_ids():
            u, v = g.edges[e]
            out.edges[f"{e}#{j}"] = (f"{u}#{j}", f"{v}#{j}")
            out.multiplicity[f"{e}#{j}"] = g.multiplicity.get(e, 0)
    return out


# stage selection rules; module constants so forced failures are testable
SECOND_COVER_CENSUS = {6: 8}
PAIR_TARGET_CENSUS = {10: 4, 6: 8}


def default_pair_predicate(sing_a, sing_b, nf_a, nf_b) -> bool:
    """Accept a pair iff the singular subspaces are non-isomorphic while the
    planar normal forms exist and agree."""
    if graphs.marked_graph_isomorphism(sing_a, sing_b) is not None:
        return False
    if nf_a is None or nf_b is None:
        return False
    return invariants.normal_forms_isomorphic(nf_a, nf_b) is not None


@dataclass
class Tower:
    """The demo's tower of covers, filled floor by floor by tower_stages.

    ``family1``/``family2`` and ``candidates`` hold (labeling, cover, map)
    triples and ``normal_forms`` the candidates' planar normal forms;
    ``pairs`` indexes into both, and Y, Z are the first pair.  The hats are
    the torsion-free degree-4 covers of Y and Z."""

    graph: DefiningGraph
    base: Orbicomplex = None
    cover1: Orbicomplex = None
    map1: CoveringMap = None
    family1: list = None
    cover2: Orbicomplex = None
    map2: CoveringMap = None
    family2: list = None
    candidates: list = None
    normal_forms: list = None
    pairs: list[tuple[int, int]] = None
    y: Orbicomplex = None
    y_map: CoveringMap = None
    z: Orbicomplex = None
    z_map: CoveringMap = None
    y_hat: Orbicomplex = None
    y_hat_map: CoveringMap = None
    z_hat: Orbicomplex = None
    z_hat_map: CoveringMap = None


def tower_stages() -> Iterator[tuple[str, Tower]]:
    """Build the tower, yielding (stage name, tower) after each floor.

    Raises DemoFailure when a selection rule picks nothing to build on."""
    t = Tower(coxeter.demo_defining_graph())
    t.base = coxeter.davis_orbicomplex(t.graph)
    yield "base", t

    # the double cover with theta-graph singular subspace
    t.cover1, t.map1 = covers.davis_double_cover(t.base)
    yield "first_cover", t

    # the one double cover whose pieces are all D2(6)
    t.family1 = covers.enumerate_double_covers(t.cover1)
    selected = [x for x in t.family1 if cone_census(x[1]) == SECOND_COVER_CENSUS]
    _check(
        "second_cover",
        len(selected) == 1,
        f"expected exactly one cover with census {SECOND_COVER_CENSUS}, "
        f"got {len(selected)}",
    )
    _phi, t.cover2, t.map2 = selected[0]
    yield "second_cover", t

    # homotopy-equivalent, non-homeomorphic pairs among its double covers
    t.family2 = covers.enumerate_double_covers(t.cover2)
    t.candidates = [x for x in t.family2 if cone_census(x[1]) == PAIR_TARGET_CENSUS]
    cxs = [cx for _phi, cx, _fm in t.candidates]
    sings = [graphs.topological_form(orbicore.singular_subspace(cx)) for cx in cxs]
    nfs = t.normal_forms = [invariants.planar_normal_form(cx) for cx in cxs]
    t.pairs = [
        (i, j)
        for i, j in itertools.combinations(range(len(cxs)), 2)
        if default_pair_predicate(sings[i], sings[j], nfs[i], nfs[j])
    ]
    _check("pair_search", bool(t.pairs), "no homotopy-equivalent non-homeomorphic pair found")
    i, j = t.pairs[0]
    _phi, t.y, t.y_map = t.candidates[i]
    _phi, t.z, t.z_map = t.candidates[j]
    yield "pair_search", t

    # torsion-free degree-4 covers of the pair
    t.y_hat, t.y_hat_map = towers.torsion_free_cover(t.y)
    t.z_hat, t.z_hat_map = towers.torsion_free_cover(t.z)
    yield "torsion_free", t


def build_tower() -> Tower:
    """The whole tower, every floor built."""
    for _stage, t in tower_stages():
        pass
    return t


def _base_stage(t: Tower) -> dict:
    pres = coxeter.racg_presentation(t.graph)
    branches = coxeter.branch_decomposition(t.graph)
    one_ended = coxeter.one_endedness_check(t.graph)
    _check("base", len(pres.generators) == 25, "expected 25 generators")
    _check("base", len(pres.relators) == 53, "expected 25 + 28 relators")
    _check(
        "base",
        sorted(b.n for b in branches) == [5, 5, 5, 5, 7, 7],
        "branch multiset should be {5,5,5,5,7,7}",
    )
    _check("base", one_ended, "defining graph should give a one-ended group")
    base = t.base
    chi = orbicore.euler_characteristic(base)
    _check("base", chi == Fraction(-9, 2), f"chi(base) = {chi}, expected -9/2")
    sing = graphs.topological_form(orbicore.singular_subspace(base))
    _check(
        "base",
        graphs.marked_graph_isomorphism(sing, tripod_graph()) is not None,
        "singular subspace should be the order-2-marked tripod",
    )
    ab = invariants.abelianization(invariants.fundamental_group_presentation(base))
    _check(
        "base",
        ab == AbelianInvariants(0, (2,) * 25),
        f"abelianization {ab}, expected (Z/2)^25",
    )
    return {
        "generators": len(pres.generators),
        "relators": len(pres.relators),
        "branches": sorted(b.n for b in branches),
        "one_ended": one_ended,
        "euler": str(chi),
        "pieces": census_display(base),
        "abelianization": str(ab),
    }


def _first_cover_stage(t: Tower) -> dict:
    rep1 = verify.verify_covering(t.map1)
    _check("first_cover", rep1.passed, f"verification failed: {rep1.failures()[:1]}")
    _check("first_cover", rep1.degree == 2, "expected degree 2")
    chi1 = orbicore.euler_characteristic(t.cover1)
    _check("first_cover", chi1 == Fraction(-9), f"chi = {chi1}, expected -9")
    _check(
        "first_cover",
        chi1 == 2 * orbicore.euler_characteristic(t.base),
        "chi multiplicativity failed",
    )
    sing1 = graphs.topological_form(orbicore.singular_subspace(t.cover1))
    _check(
        "first_cover",
        graphs.marked_graph_isomorphism(sing1, theta_graph()) is not None,
        "singular subspace should be the theta graph with multiplicity 4",
    )
    _check(
        "first_cover",
        cone_census(t.cover1) == {6: 2, 4: 4},
        f"piece census {cone_census(t.cover1)}, expected 2 x D2(6) + 4 x D2(4)",
    )
    return {
        "degree": 2,
        "euler": str(chi1),
        "pieces": census_display(t.cover1),
        "verified": True,
    }


def _second_cover_stage(t: Tower) -> dict:
    _check("second_cover", len(t.family1) == 3, f"expected 3 labelings, got {len(t.family1)}")
    rep2 = verify.verify_covering(t.map2)
    _check("second_cover", rep2.passed, f"verification failed: {rep2.failures()[:1]}")
    chi2 = orbicore.euler_characteristic(t.cover2)
    _check("second_cover", chi2 == Fraction(-18), f"chi = {chi2}, expected -18")
    return {
        "degree": 2,
        "labelings": len(t.family1),
        "euler": str(chi2),
        "pieces": census_display(t.cover2),
        "verified": True,
    }


def _pair_search_stage(t: Tower) -> dict:
    _check("pair_search", len(t.family2) == 7, f"expected 7 labelings, got {len(t.family2)}")
    for name, fm in (("Y", t.y_map), ("Z", t.z_map)):
        rep = verify.verify_covering(fm)
        _check("pair_search", rep.passed, f"{name} verification failed")
    chiy, chiz = orbicore.euler_characteristic(t.y), orbicore.euler_characteristic(t.z)
    _check("pair_search", chiy == chiz == Fraction(-36), f"chi = {chiy}, {chiz}, expected -36")
    ab_y = invariants.abelianization(invariants.fundamental_group_presentation(t.y))
    ab_z = invariants.abelianization(invariants.fundamental_group_presentation(t.z))
    _check("pair_search", ab_y == ab_z, f"abelianizations differ: {ab_y} vs {ab_z}")
    nf = t.normal_forms[t.pairs[0][0]]
    _check(
        "pair_search",
        sorted(nf.components) == [(0, 6)],
        f"normal form components {nf.components}, expected one genus-0 6-circle surface",
    )
    return {
        "labelings": len(t.family2),
        "candidates": len(t.candidates),
        "pairs_found": len(t.pairs),
        "euler": [str(chiy), str(chiz)],
        "pieces": census_display(t.y),
        "abelianization": str(ab_y),
        "normal_form_components": sorted(nf.components),
        "verdict": "homotopy equivalent, not homeomorphic",
    }


def _torsion_free_stage(t: Tower) -> dict:
    tower3 = towers.surface_over_disk_tower(3)
    tower7 = towers.surface_over_disk_tower(7)
    _check("torsion_free", len(tower3.disk.cones) == 6, "genus 3 tower should end at D2(6)")
    _check("torsion_free", len(tower7.disk.cones) == 10, "genus 7 tower should end at D2(10)")
    for tower in (tower3, tower7):
        for fm in (tower.upper, tower.lower):
            rep = verify.verify_covering(fm)
            _check("torsion_free", rep.passed, "tower covering failed verification")
        comp = towers.compose(tower.upper, tower.lower)
        repc = verify.verify_covering(comp)
        _check("torsion_free", repc.passed and repc.degree == 4, "tower composite not degree 4")

    sings = {}
    for name, cx, hat, fhat in (
        ("Y", t.y, t.y_hat, t.y_hat_map),
        ("Z", t.z, t.z_hat, t.z_hat_map),
    ):
        rep = verify.verify_covering(fhat)
        _check("torsion_free", rep.passed, f"{name}-hat verification failed")
        _check("torsion_free", rep.degree == 4, "expected degree 4")
        chih = orbicore.euler_characteristic(hat)
        _check("torsion_free", chih == Fraction(-144), f"chi = {chih}, expected -144")
        _check("torsion_free", invariants.torsion_freeness(hat), "cover is not torsion-free")
        genus_by_cones = {
            len(cx.pieces_by_id[fhat.piece_map[p.id][0]].cones): p.genus for p in hat.pieces
        }
        _check(
            "torsion_free",
            genus_by_cones == {6: 3, 10: 7},
            f"surface genera {genus_by_cones}, expected g=3 over D2(6), g=7 over D2(10)",
        )
        sings[name] = graphs.topological_form(orbicore.singular_subspace(hat))
        four_copies = graphs.topological_form(
            disjoint_copies(orbicore.singular_subspace(cx), 4)
        )
        _check(
            "torsion_free",
            graphs.marked_graph_isomorphism(sings[name], four_copies) is not None,
            f"singular subspace of {name}-hat should be 4 copies of singular({name})",
        )
    _check(
        "torsion_free",
        graphs.marked_graph_isomorphism(sings["Y"], sings["Z"]) is None,
        "torsion-free covers should still have non-homeomorphic singular subspaces",
    )
    cert = invariants.homotopy_equivalence_certificate(t.y_hat, t.z_hat)
    _check("torsion_free", cert is not None, "missing homotopy certificate for the hats")
    return {
        "degree": 4,
        "euler": str(Fraction(-144)),
        "pieces": census_display(t.y_hat),
        "towers": {"D2(6)": 3, "D2(10)": 7},
        "torsion_free": True,
        "homotopy_certificate": "present",
        "verdict": "homotopy equivalent, not homeomorphic, torsion-free",
    }


_STAGE_CHECKS = {
    "base": _base_stage,
    "first_cover": _first_cover_stage,
    "second_cover": _second_cover_stage,
    "pair_search": _pair_search_stage,
    "torsion_free": _torsion_free_stage,
}


def run_demo() -> dict:
    """Build the tower, asserting each stage's invariants as its floor is
    finished; returns the report.  Raises DemoFailure naming the first
    failed assertion.  A stage's timing covers its floor and its checks."""
    report: dict = {"stages": {}}
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    for stage, t in tower_stages():
        report["stages"][stage] = _STAGE_CHECKS[stage](t)
        now = time.perf_counter()
        timings[stage], t0 = now - t0, now
    report["timings"] = {k: round(v, 6) for k, v in timings.items()}
    return report
