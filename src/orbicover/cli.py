"""Command-line surface.

Exit codes: 0 success, 2 parse/schema failure, 3 precondition failure,
4 verification or demo-assertion failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import coxeter, covers, invariants, orbicore, pipeline, serialize
from .orbicore import OrbicoverError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str):
    try:
        return serialize.load_file(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise serialize.SchemaError(str(exc)) from exc


def cmd_racg(args) -> int:
    g = serialize.defining_graph_from_json(_load(args.graph))
    pres = coxeter.racg_presentation(g)
    one_ended = coxeter.one_endedness_check(g)
    branch_error = None
    branches = []
    try:
        branches = coxeter.branch_decomposition(g)
    except coxeter.NoEssentialVertices as exc:
        branch_error = str(exc)
    if args.json:
        payload = {
            "presentation": serialize.presentation_to_json(pres),
            "branches": [list(b.path) for b in branches],
            "branch_error": branch_error,
            "one_ended": one_ended,
        }
        _write(serialize.dumps(payload), args.out)
    else:
        lines = [
            f"generators: {len(pres.generators)}",
            f"relators: {len(pres.relators)}",
        ]
        if branch_error is None:
            lines.append(f"branches: {sorted(b.n for b in branches)}")
        else:
            lines.append(f"branch decomposition: none ({branch_error})")
        lines.append(f"one-ended: {'true' if one_ended else 'false'}")
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_PRECONDITION if branch_error else EXIT_OK


def cmd_davis(args) -> int:
    g = serialize.defining_graph_from_json(_load(args.graph))
    c = coxeter.davis_orbicomplex(g)
    _write(serialize.dumps(serialize.orbicomplex_to_json(c)), args.out)
    return EXIT_OK


def cmd_euler(args) -> int:
    c = serialize.orbicomplex_from_json(_load(args.complex))
    _write(str(orbicore.euler_characteristic(c)) + "\n", args.out)
    return EXIT_OK


def cmd_singular(args) -> int:
    c = serialize.orbicomplex_from_json(_load(args.complex))
    g = orbicore.singular_subspace(c)
    if args.dot:
        _write(orbicore.graph_to_dot(g), args.out)
    else:
        _write(serialize.dumps(serialize.marked_graph_to_json(g)), args.out)
    return EXIT_OK


def cmd_pi1(args) -> int:
    c = serialize.orbicomplex_from_json(_load(args.complex))
    pres = invariants.fundamental_group_presentation(c)
    if args.ab:
        ab = invariants.abelianization(pres)
        if args.json:
            _write(serialize.dumps(serialize.abelian_invariants_to_json(ab)), args.out)
        else:
            _write(str(ab) + "\n", args.out)
    else:
        _write(serialize.dumps(serialize.presentation_to_json(pres)), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    f = serialize.covering_map_from_json(_load(args.cover))
    report = covers.verify_covering(f)
    if args.json:
        _write(serialize.dumps(serialize.cover_report_to_json(report)), args.out)
    else:
        _write(str(report) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_covers(args) -> int:
    c = serialize.orbicomplex_from_json(_load(args.complex))
    family = covers.enumerate_double_covers(c)
    payload = []
    for phi, cover, _f in family:
        payload.append(
            {
                "labeling": {
                    "edges": {e: v for e, v in sorted(phi.edges.items()) if v},
                    "cones": [
                        {"piece": p, "cone": j}
                        for (p, j), v in sorted(phi.cones.items())
                        if v
                    ],
                },
                "euler": str(orbicore.euler_characteristic(cover)),
                "pieces": pipeline.census_display(cover),
            }
        )
    if args.json:
        _write(serialize.dumps(payload), args.out)
    else:
        lines = [f"{len(payload)} connected double covers"]
        for entry in payload:
            lines.append(f"  chi={entry['euler']}  pieces={entry['pieces']}")
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    c1 = serialize.orbicomplex_from_json(_load(args.a))
    c2 = serialize.orbicomplex_from_json(_load(args.b))
    rot1 = rot2 = None
    if args.rotations:
        data = _load(args.rotations)
        rot1 = serialize.rotation_from_json(data.get("a"))
        rot2 = serialize.rotation_from_json(data.get("b"))
    report = invariants.compare_report(c1, c2, rot1, rot2)
    if args.json:
        _write(serialize.dumps(serialize.compare_report_to_json(report)), args.out)
    else:
        lines = [
            f"euler: {report['euler'][0]} vs {report['euler'][1]}",
            f"singular subspaces isomorphic: {'no' if report['singular_iso'] == 'no' else 'yes'}",
            f"abelianizations: {report['abelianization'][0]} vs {report['abelianization'][1]}",
            f"homotopy certificate: {report['homotopy_certificate']}",
        ]
        lines.extend(f"verdict: {v}" for v in report["verdicts"])
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_paper_demo(args) -> int:
    try:
        report = pipeline.run_demo()
    except pipeline.DemoFailure as exc:
        sys.stderr.write(f"FAIL {exc}\n")
        return EXIT_VERIFY
    if args.json:
        payload = dict(report)
        if not args.timings:
            payload.pop("timings", None)
        _write(serialize.dumps(payload), args.out)
    else:
        lines = []
        for stage, data in report["stages"].items():
            summary = ", ".join(
                f"{k}={v}"
                for k, v in data.items()
                if k not in ("pieces", "abelianization")
            )
            lines.append(f"{stage}: PASS ({summary})")
        lines.append("all stages passed")
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbicover",
        description=(
            "Combinatorial 2-orbicomplexes, finite orbifold covers, and the "
            "invariants separating homeomorphism from homotopy equivalence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write output to a file")
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("racg", help="presentation, branches, one-endedness")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=cmd_racg)

    p = sub.add_parser("davis", help="build the reflection orbicomplex")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=cmd_davis)

    p = sub.add_parser("euler", help="exact orbifold Euler characteristic")
    p.add_argument("complex")
    common(p)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("singular", help="singular subspace (JSON or DOT)")
    p.add_argument("complex")
    p.add_argument("--dot", action="store_true", help="emit DOT text")
    common(p)
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("pi1", help="fundamental group presentation")
    p.add_argument("complex")
    p.add_argument("--ab", action="store_true", help="abelianization only")
    common(p)
    p.set_defaults(func=cmd_pi1)

    p = sub.add_parser("verify", help="verify a serialized covering map")
    p.add_argument("cover")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("covers", help="enumerate canonical double covers")
    p.add_argument("complex")
    common(p)
    p.set_defaults(func=cmd_covers)

    p = sub.add_parser("compare", help="invariant comparison of two complexes")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--rotations", help="JSON file with rotation systems {a, b}")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("paper-demo", help="run the full pipeline with assertions")
    p.add_argument("--timings", action="store_true", help="include timings in JSON")
    common(p)
    p.set_defaults(func=cmd_paper_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except serialize.SchemaError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except OrbicoverError as exc:
        sys.stderr.write(f"precondition failed: {exc}\n")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
