"""orbicover benchmark: one closed-loop caller in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
workloads are defined in ``ops.py`` and their seeded inputs in ``gen.py``.
Every operation's result is checked; an operation that raises or fails its
check counts as failed.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
``op_tail_s`` (the highest percentile of operation time with ten samples
beyond it), ``setup_s`` (median, over fresh interpreters started between
slices of the timed window, of the time to import orbicover and build the
inputs) and ``peak_rss_mb``.  The line before the result, ``detail: {...}``,
carries the median operation time, the throughput, and the percentile and
sample count behind ``op_tail_s``; they are not on the result line, whose
metrics are exactly the end-to-end ones (see ``BASELINE.json`` for why the
median is not bounded).

``--trace 1`` measures the per-layer metrics: whole passes over the input
pool, so that call counts repeat exactly, alternating between untraced
passes and passes with every traced function wrapped (see ``spans.py``).
Spans are written as Chrome trace-event JSON to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import TRACED, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 12  # fresh interpreters per run; set-up reports their median
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
PIPELINE_STAGES = ("base", "first_cover", "second_cover", "pair_search", "torsion_free")


def measure(workload, cases, seconds: float, whole_passes: bool = False, tracer=None) -> dict:
    """Closed loop over ``cases`` until ``seconds`` of operation time have
    been spent (and, with ``whole_passes``, until the pool has been used a
    whole number of times).  Checks run outside the timed region."""
    samples: list[float] = []
    failed = 0
    stage_times: list[dict] = []
    i = 0
    while True:
        case = cases[i % len(cases)]
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        try:
            out = workload.op(case)
        except Exception:  # a failed operation is counted, not fatal
            out, problems = None, [traceback.format_exc()]
        else:
            problems = None
        samples.append(time.perf_counter() - t0)
        if problems is None:
            problems = workload.check(case, out)
            if isinstance(out, dict) and "timings" in out:  # run_demo's stage timings
                stage_times.append(out["timings"])
        if problems:
            failed += 1
            if failed == 1:
                sys.stderr.write(f"{workload.name}: operation {i} failed:\n  " + "\n  ".join(problems) + "\n")
        i += 1
        if sum(samples) >= seconds and (not whole_passes or i % len(cases) == 0):
            break
    return {"samples": samples, "failed": failed, "stage_times": stage_times}


def measure_probing(workload, cases, seconds: float, probe) -> tuple[dict, list[dict]]:
    """Untraced closed loop in SETUP_PROBES equal slices of operation time,
    with one set-up probe before each slice, so that set-up is sampled
    across the whole window as the operations are.  The pool of cases is
    rotated so that each slice continues where the last one stopped."""
    run = {"samples": [], "failed": 0, "stage_times": []}
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(probe())
        k = len(run["samples"]) % len(cases)
        one = measure(workload, cases[k:] + cases[:k], seconds / SETUP_PROBES)
        for key in run:
            run[key] += one[key]
    return run, setups


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def probe_setup(workload: str, seed: int, importtime: bool) -> dict:
    """Start one fresh interpreter that imports orbicover and builds the
    inputs.  Returns the wall time to its report, its in-process times and,
    with ``importtime``, the cumulative import time of networkx and
    orbicover from ``-X importtime``."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "setup_probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            if importtime:
                # -X importtime fills stderr; read both pipes together
                out, err = proc.communicate(timeout=120)
                line = out.splitlines()[0] if out else ""
            else:
                line = proc.stdout.readline()
                wall = time.perf_counter() - t0
                out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-2000:]}")
    rec = json.loads(line)
    if not importtime:
        rec["wall_s"] = wall
        return rec
    cumulative = {}
    for row in err.splitlines():
        parts = row.split("|")
        if row.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    rec["networkx_s"] = cumulative.get("networkx", 0.0)
    rec["orbicover_s"] = cumulative.get("orbicover", 0.0)
    return rec


def median_of(recs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in recs)


def central(samples: list[float]) -> dict:
    """Median operation time and operations per second of operation time,
    which have no bound (see ``BASELINE.json``)."""
    return {
        "op.p50_s": (statistics.median(samples), "s"),
        "op.ops_per_s": (len(samples) / sum(samples), "1/s"),
    }


def detail(samples: list[float]) -> dict:
    """What the untraced result line leaves out: the central metrics and
    the percentile and sample count behind ``op_tail_s``."""
    out = {name: value for name, (value, _unit) in central(samples).items()}
    out["op_tail_s.percentile"] = tail(samples)[1]
    out["op_tail_s.samples"] = len(samples)
    out["op_tail_s.beyond"] = min(len(samples) - 1, TAIL_BEYOND)
    return out


def end_to_end(run: dict, setup_s: float) -> dict:
    return {
        "op_tail_s": (tail(run["samples"])[0], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, cases, seconds: float, seed: int, setups: list[dict]) -> tuple[dict, list[dict]]:
    import ops

    # alternate untraced and traced passes, in ABBA order, so that drift in
    # the host's speed affects both sides alike
    plain = {"samples": [], "failed": 0, "stage_times": []}
    traced = {"samples": [], "failed": 0, "stage_times": []}
    tracer = Tracer()
    order = [(plain, False), (traced, True)]
    while sum(plain["samples"]) + sum(traced["samples"]) < seconds:
        for side, traced_pass in order:
            if traced_pass:
                tracer.install(extra_targets=[(ops, "dump", "serialize.dump"), (ops, "parse", "serialize.parse")])
            try:
                one = measure(workload, cases, 0.0, whole_passes=True, tracer=tracer if traced_pass else None)
            finally:
                tracer.uninstall()
            for key in side:
                side[key] += one[key]
        order.reverse()
    OUT.mkdir(exist_ok=True)
    tracer.write_chrome_trace(str(OUT / f"trace-{workload.name}-{seed}.json"))

    n = len(traced["samples"])
    totals = tracer.layer_totals()
    m: dict[str, tuple[float, str]] = {}
    for name in [f"{mod}.{fn}" for mod, fn in TRACED] + ["serialize.dump", "serialize.parse"]:
        agg = totals.get(name, {"calls": 0, "self_s": 0.0})
        m[f"{name}.calls"] = (agg["calls"] / n, "count")
        m[f"{name}.self_s"] = (agg["self_s"] / n, "s")
    for name, unit in (
        ("orbicore.Orbicomplex.piece.calls", "count"),
        ("invariants.smith_normal_form.entries", "count"),
        ("serialize.bytes", "B"),
    ):
        m[name] = (tracer.counts.get(name, 0) / n, unit)
    m["setup.import_networkx_s"] = (median_of(setups, "networkx_s"), "s")
    m["setup.import_orbicover_s"] = (
        statistics.median(r["orbicover_s"] - r["networkx_s"] for r in setups),
        "s",
    )
    m["setup.inputs_s"] = (median_of(setups, "inputs_s"), "s")
    for stage in PIPELINE_STAGES:
        times = [t[stage] for t in plain["stage_times"]]
        m[f"pipeline.{stage}.s"] = (statistics.median(times) if times else 0.0, "s")
    m.update(central(plain["samples"]))
    traced_p50 = statistics.median(traced["samples"])
    m["op.traced_p50_s"] = (traced_p50, "s")
    m["op.trace_overhead_s"] = (traced_p50 - m["op.p50_s"][0], "s")
    return m, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orbicover" / "__init__.py").is_file():
        sys.stderr.write(f"orbicover sources not found under {SRC}; run from a repository checkout\n")
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import ops

    if args.workload not in ops.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(ops.WORKLOADS)}\n")
        return 2
    workload = ops.WORKLOADS[args.workload]

    cases = workload.inputs(args.seed)
    warm = measure(workload, cases[:1], 0.0)  # one untimed operation, checked

    if args.trace:
        setups = [probe_setup(workload.name, args.seed, importtime=True) for _ in range(SETUP_PROBES)]
        metrics, runs = per_layer(workload, cases, args.seconds, args.seed, setups)
    else:
        run, setups = measure_probing(
            workload, cases, args.seconds, lambda: probe_setup(workload.name, args.seed, importtime=False)
        )
        metrics = end_to_end(run, median_of(setups, "wall_s"))
        runs = [run]
    runs.append(warm)
    attempted = sum(len(r["samples"]) for r in runs)
    failed = sum(r["failed"] for r in runs)

    print(f"workload {workload.name}  seed {args.seed}  cases {len(cases)}  "
          f"python {sys.version.split()[0]}  nproc {os.cpu_count()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit}")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.6f}")
    if not args.trace:
        print("detail: " + json.dumps(detail(runs[0]["samples"])))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
