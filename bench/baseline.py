"""Record a baseline: run every workload on several seeds and summarise.

    python3 bench/baseline.py [--out bench/BASELINE.json]

Runs ``run.py`` with tracing off once per workload and seed in SEEDS, then
REPEATS times on REPEAT_SEED alone, then once per workload with tracing on.
For each set it writes every end-to-end metric and every field of the
``detail:`` line with their values, median and quartiles.  The spread is the
distance between the first and third quartile as a share of the median: on
the seed set it mixes input variation with host noise, on the repeat set it
is host noise alone.  A later change is compared against the parent commit
with the same settings.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

NOTES = [
    "One closed-loop caller in one process; set-up is measured in fresh child interpreters.",
    "op.p50_s and op.ops_per_s are per-layer metrics (from the untraced passes of the traced run) and "
    "fields of the untraced runs' detail line, recorded below for both sets.  They carry no bound "
    "because on this shared host, whose speed drifts over minutes, their spread between runs reaches "
    "more than the largest allowed bound of 0.25 even on one fixed seed.",
    "fail_ratio is failed/attempted, carried by the result line's 'failed' and 'attempted' fields; it is 0 on every run here.",
    "The K_16 invariants rung and the K_32 covers rung are left out until one-endedness and Smith normal form "
    "stop being superlinear: today one operation there takes minutes (one-endedness alone takes 153 s at K_32).",
]


SEEDS = range(1, 11)
REPEAT_SEED, REPEATS = 1, 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of one run, and for an untraced run the fields of its
    ``detail:`` line as the key ``detail``."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("detail: "):
            result["detail"] = json.loads(line[len("detail: "):])
    return result


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def summarise(results: list[dict]) -> dict:
    out = {}
    for name, entry in results[0]["metrics"].items():
        out[name] = {"unit": entry["unit"], **summary([r["metrics"][name]["value"] for r in results])}
    for name in results[0]["detail"]:
        out[name] = summary([r["detail"][name] for r in results])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(BENCH / "BASELINE.json"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {
        "date": datetime.date.today().isoformat(),
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "processor": platform.processor() or platform.machine(),
        },
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "repeat_seed": REPEAT_SEED,
        "repeats": REPEATS,
        "notes": NOTES,
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        sets = {"across_seeds": list(SEEDS), f"seed_{REPEAT_SEED}_repeated": [REPEAT_SEED] * REPEATS}
        results = {}
        for set_name, seeds in sets.items():
            results[set_name] = []
            for seed in seeds:
                results[set_name].append(run_once(name, seed, spec["run_seconds"], 0))
                print(f"{name} {set_name} seed {seed}: " + ", ".join(
                    f"{k}={v:.4g}" for k, v in results[set_name][-1]["detail"].items()), flush=True)
        traced = run_once(name, REPEAT_SEED, spec["run_seconds"], 1)
        runs = [r for rs in results.values() for r in rs]
        report["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            **{set_name: summarise(rs) for set_name, rs in results.items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for name, data in report["workloads"].items():
        for set_name in sets:
            print(name, set_name, {k: round(v["spread"], 3) for k, v in data[set_name].items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
