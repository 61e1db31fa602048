"""Tests of the benchmark itself: its inputs, its checks and its tracing.

    python -m pytest -q bench/tests
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys

import pytest

import gen
import ops
import run
import spans
from orbicover import coxeter, orbicore

# small shapes so the library runs quickly; the same generator and checks
# as the workloads
SMALL_SPECS = (gen.Spec((3,), 6), gen.Spec((4,), 10), gen.Spec((2, 3), 9))


def adjacency(g):
    adj = {v: set() for v in g.vertices}
    for e in g.edges:
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)
    return adj


@pytest.mark.parametrize("spec", gen.INVARIANTS_SPECS + gen.COVERS_SPECS[:1] + SMALL_SPECS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generator_is_triangle_free_and_in_domain(spec, seed):
    case = gen.make_case(spec, random.Random(seed))
    g = case.graph
    adj = adjacency(g)
    assert not any(adj[a] & adj[b] for a, b in g.sorted_edges()), "triangle"
    essential = [v for v in g.vertices if len(adj[v]) >= 3]
    assert len(essential) == spec.essential
    assert all(len(adj[v]) >= 2 for v in g.vertices)
    assert not any(adj[v] & set(essential) for v in essential), "adjacent essential vertices"
    assert (case.vertices, case.edges) == (len(g.vertices), len(g.edges))
    branches = coxeter.branch_decomposition(g)
    assert len(branches) == spec.branches
    assert tuple(sorted(b.n for b in branches)) == case.branch_lengths
    assert all(5 <= n <= 7 for n in case.branch_lengths)


def test_generator_draws_every_seed():
    for seed in range(300):
        for specs in (gen.INVARIANTS_SPECS, gen.COVERS_SPECS, SMALL_SPECS):
            cases = gen.make_cases(specs, seed)
            assert [sum(c.wall_valences) for c in cases] == [2 * spec.branches for spec in specs]


def test_generator_is_seeded():
    a = gen.make_cases(gen.INVARIANTS_SPECS, 7)
    b = gen.make_cases(gen.INVARIANTS_SPECS, 7)
    c = gen.make_cases(gen.INVARIANTS_SPECS, 8)
    assert [x.graph for x in a] == [y.graph for y in b]
    assert [x.graph for x in a] != [y.graph for y in c]
    # sizes depend on the shape only, so timings stay comparable across seeds
    assert [(x.vertices, x.edges) for x in a] == [(y.vertices, y.edges) for y in c]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_library_matches_expected_answers(seed):
    for case in gen.make_cases(SMALL_SPECS, seed):
        assert ops.invariants_check(case, ops.invariants_op(case)) == []
        assert ops.covers_check(case, ops.covers_op(case)) == []


def test_cut_vertex_graphs_are_not_one_ended():
    for case in gen.make_cases(SMALL_SPECS, 1):
        assert coxeter.one_endedness_check(case.graph) == (len(case.spec.blocks) == 1)


def wrong(case, **changes):
    return dataclasses.replace(case, **changes)


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("ladder-invariants", lambda c: wrong(c, euler=c.euler + 1)),
        ("ladder-invariants", lambda c: wrong(c, one_ended=not c.one_ended)),
        ("ladder-invariants", lambda c: wrong(c, h1_cover=c.h1_base)),
        ("ladder-covers", lambda c: wrong(c, euler=2 * c.euler)),
        ("demo-pipeline", lambda text: text.replace('"-9/2"', '"-9/4"')),
    ],
)
def test_wrong_expected_value_counts_as_failed(workload, corrupt):
    w = ops.WORKLOADS[workload]
    case = ops.demo_inputs(0)[0] if workload == "demo-pipeline" else gen.make_case(SMALL_SPECS[0], random.Random(1))
    assert run.measure(w, [case], 0.0)["failed"] == 0
    bad = corrupt(case)
    assert bad != case
    assert run.measure(w, [bad], 0.0)["failed"] == 1


def test_raising_operation_counts_as_failed():
    def boom(_case):
        raise orbicore.OrbicoverError("boom")

    w = ops.Workload("boom", lambda seed: [None], boom, lambda case, out: [])
    result = run.measure(w, [None, None], 0.0, whole_passes=True)
    assert (len(result["samples"]), result["failed"]) == (2, 2)


def comparable(workload, out):
    if workload == "demo-pipeline":
        return ops.demo_report_text(out)
    if workload == "ladder-covers":
        return (
            out["text"],
            out["euler"],
            out["torsion_free"],
            {k: (r.passed, r.degree, [str(c) for c in r.checks]) for k, r in out["reports"].items()},
        )
    return out


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_traced_run_matches_untraced(workload):
    w = ops.WORKLOADS[workload]
    case = ops.demo_inputs(0)[0] if workload == "demo-pipeline" else gen.make_case(SMALL_SPECS[1], random.Random(2))
    originals = {attr: getattr(orbicore, attr) for attr in ("validate_complex", "euler_characteristic")}
    plain = w.op(case)
    tracer = spans.Tracer()
    tracer.install(extra_targets=[(ops, "dump", "serialize.dump"), (ops, "parse", "serialize.parse")])
    try:
        traced = w.op(case)
    finally:
        tracer.uninstall()
    assert comparable(workload, traced) == comparable(workload, plain)
    assert w.check(case, traced) == []
    assert {attr: getattr(orbicore, attr) for attr in originals} == originals
    totals = tracer.layer_totals()
    assert totals["orbicore.validate_complex"]["calls"] > 0
    # self times partition the root spans
    roots = sum(end - start for _n, start, end, parent, _op in tracer.spans if parent < 0)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(roots)


def test_by_name_imports_are_traced():
    from orbicover import covers, invariants

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert invariants.marked_graph_isomorphism is orbicore.marked_graph_isomorphism
        assert covers.euler_characteristic is orbicore.euler_characteristic
        assert covers.euler_characteristic.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(covers.euler_characteristic, "__wrapped__")


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = run.tail([float(i) for i in range(40)])
    assert (value, pct) == (29.0, 75.0)
    assert sum(1 for i in range(40) if i > value) == run.TAIL_BEYOND


def test_setup_probe_reports_import_split():
    rec = run.probe_setup("ladder-invariants", 1, importtime=True)
    assert rec["cases"] == len(gen.INVARIANTS_SPECS)
    assert 0 < rec["networkx_s"] < rec["orbicover_s"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "demo-pipeline", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_untraced_run_prints_detail_then_result():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "demo-pipeline", "--seed", "1", "--seconds", "1"],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    result = json.loads(result_line)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    assert detail_line.startswith("detail: ")
    detail = json.loads(detail_line[len("detail: "):])
    samples = detail["op_tail_s.samples"]
    assert samples == result["attempted"] - 1  # all but the untimed warm-up operation
    assert detail["op_tail_s.percentile"] == run.tail([float(i) for i in range(samples)])[1]
    assert detail["op.p50_s"] > 0 and detail["op.ops_per_s"] > 0
