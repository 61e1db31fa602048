"""The benchmark's workloads: the inputs each one builds from a seed, the
operation it times, and the check applied to every result.

An operation calls only orbicover's public functions, through their
modules.  A check compares the results with answers known in advance and
returns the mismatches; the list is empty when the operation is correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from orbicover import coxeter, covers, invariants, orbicore, pipeline, serialize
from orbicover.invariants import AbelianInvariants

import gen

GOLDEN_DEMO = Path(__file__).resolve().parent / "golden" / "demo_report.json"


def demo_report_text(report: dict) -> str:
    """The ``paper-demo --json`` bytes of a run_demo report: timings dropped."""
    return serialize.dumps({k: v for k, v in report.items() if k != "timings"})


# -- demo-pipeline ------------------------------------------------------


def demo_inputs(_seed: int) -> list[str]:
    # run_demo builds the paper's fixed input itself; the case is the
    # expected report
    return [GOLDEN_DEMO.read_text(encoding="utf-8")]


def demo_op(_golden: str) -> dict:
    return pipeline.run_demo()


def demo_check(golden: str, report: dict) -> list[str]:
    if demo_report_text(report) != golden:
        return ["run_demo report differs from the golden copy"]
    return []


# -- ladder-invariants --------------------------------------------------


def invariants_inputs(seed: int) -> list[gen.Case]:
    return gen.make_cases(gen.INVARIANTS_SPECS, seed)


def invariants_op(case: gen.Case) -> dict:
    g = case.graph
    pres = coxeter.racg_presentation(g)
    branches = coxeter.branch_decomposition(g)
    one_ended = coxeter.one_endedness_check(g)
    base = coxeter.davis_orbicomplex(g)
    euler = orbicore.euler_characteristic(base)
    sing = orbicore.singular_subspace(base)
    h1_base = invariants.abelianization(invariants.fundamental_group_presentation(base))
    cover, _f = covers.davis_double_cover(base)
    h1_cover = invariants.abelianization(invariants.fundamental_group_presentation(cover))
    return {
        "generators": len(pres.generators),
        "relators": len(pres.relators),
        "branch_lengths": tuple(sorted(b.n for b in branches)),
        "one_ended": one_ended,
        "euler": euler,
        "walls": sorted(v for v, m in sing.marks.items() if m == orbicore.RAM2),
        "hubs": [v for v, m in sing.marks.items() if m is None],
        "wall_multiplicities": tuple(sorted(sing.multiplicity.values())),
        "h1_base": h1_base,
        "h1_cover": h1_cover,
    }


def invariants_check(case: gen.Case, out: dict) -> list[str]:
    k = case.spec.essential
    expected = {
        "generators": case.vertices,
        "relators": case.vertices + case.edges,
        "branch_lengths": case.branch_lengths,
        "one_ended": case.one_ended,
        "euler": case.euler,
        "wall_multiplicities": case.wall_valences,
        "h1_base": AbelianInvariants(0, case.h1_base),
        "h1_cover": AbelianInvariants(0, case.h1_cover),
    }
    bad = [f"{key}: got {out[key]}, expected {want}" for key, want in expected.items() if out[key] != want]
    if len(out["walls"]) != k or len(out["hubs"]) != 1:
        bad.append(f"singular subspace: {len(out['walls'])} walls and {len(out['hubs'])} hubs, expected {k} and 1")
    return bad


# -- ladder-covers ------------------------------------------------------


def dump(f: covers.CoveringMap) -> str:
    """Write side of the serialize layer."""
    return serialize.dumps(serialize.covering_map_to_json(f))


def parse(text: str) -> covers.CoveringMap:
    """Read side of the serialize layer."""
    return serialize.covering_map_from_json(json.loads(text))


def covers_inputs(seed: int) -> list[gen.Case]:
    return gen.make_cases(gen.COVERS_SPECS, seed)


def covers_op(case: gen.Case) -> dict:
    base = coxeter.davis_orbicomplex(case.graph)
    cover, f_cover = covers.davis_double_cover(base)
    r_cover = covers.verify_covering(f_cover)
    hat, f_hat = covers.torsion_free_cover(cover)
    r_hat = covers.verify_covering(f_hat)
    composite = covers.compose(f_hat, f_cover)
    r_composite = covers.verify_covering(composite)
    text = dump(composite)
    parsed = parse(text)
    r_parsed = covers.verify_covering(parsed)
    return {
        "reports": {"cover": r_cover, "hat": r_hat, "composite": r_composite, "parsed": r_parsed},
        "euler": [orbicore.euler_characteristic(c) for c in (base, cover, hat)],
        "torsion_free": invariants.torsion_freeness(hat),
        "text": text,
        "parsed": parsed,
    }


def covers_check(case: gen.Case, out: dict) -> list[str]:
    bad = []
    degrees = {"cover": 2, "hat": 4, "composite": 8, "parsed": 8}
    for name, report in out["reports"].items():
        if not report.passed or report.degree != degrees[name]:
            bad.append(f"{name}: passed={report.passed}, degree {report.degree}, expected {degrees[name]}")
    want = [case.euler, 2 * case.euler, 8 * case.euler]
    if out["euler"] != want:
        bad.append(f"euler (base, cover, hat): got {out['euler']}, expected {want}")
    if not out["torsion_free"]:
        bad.append("torsion_freeness(hat) is False")
    if serialize.dumps(serialize.covering_map_to_json(out["parsed"])) != out["text"]:
        bad.append("serialize round trip is not byte-identical")
    return bad


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], list[Any]]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo-pipeline", demo_inputs, demo_op, demo_check),
        Workload("ladder-invariants", invariants_inputs, invariants_op, invariants_check),
        Workload("ladder-covers", covers_inputs, covers_op, covers_check),
    )
}
