"""Covering maps between orbicomplexes and their verifier.

Covers are concrete combinatorial maps: graph vertices/edges map to
vertices/edge-paths (paths of length two realize the folding of an edge
over an unfolded reflection wall), pieces map with a local degree, boundary
segments map to segment paths, and cone fibers are listed explicitly.
A map's references are checked when it is built, the rest by ``verify_covering``.
The verifier reads only the complexes and the map, never the constructions
that build covers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional

from .graphs import OrbicoverError, local_order, reverse_dart, reverse_walk
from .orbicore import (
    FREE,
    MIRROR,
    Orbicomplex,
    Piece,
    SegRef,
    directed_ends,
    euler_characteristic,
    piece_orbifold_euler,
)


class MismatchedComplexes(OrbicoverError):
    pass


Step = tuple[int, int, int]  # (target circle, target segment, direction)


def _frozen(path) -> tuple:
    """``path`` as a tuple of tuples: itself when it is one already, so a
    path that a builder shares stays one object, else a frozen copy."""
    if type(path) is tuple and all(type(step) is tuple for step in path):
        return path
    return tuple(map(tuple, path))


@dataclass(frozen=True)
class CoveringMap:
    """Checked once, when built, and frozen; a dangling reference raises MismatchedComplexes."""

    source: Orbicomplex
    target: Orbicomplex
    degree: int
    vertex_map: Mapping[str, str] = field(default_factory=dict)
    edge_map: Mapping[str, tuple[tuple[str, int], ...]] = field(default_factory=dict)
    piece_map: Mapping[str, tuple[str, int]] = field(default_factory=dict)
    segment_map: Mapping[SegRef, tuple[Step, ...]] = field(default_factory=dict)
    cone_fibers: Mapping[tuple[str, int], tuple[tuple, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for name, table in (
            ("vertex_map", dict(self.vertex_map)),
            ("edge_map", {e: _frozen(path) for e, path in self.edge_map.items()}),
            ("piece_map", dict(self.piece_map)),
            ("segment_map", {ref: _frozen(path) for ref, path in self.segment_map.items()}),
            ("cone_fibers", {key: tuple(toks) for key, toks in self.cone_fibers.items()}),
        ):
            object.__setattr__(self, name, MappingProxyType(table))
        src_pieces, tgt_pieces = self.source.pieces_by_id, self.target.pieces_by_id
        for v, w in self.vertex_map.items():
            if v not in self.source.graph.marks or w not in self.target.graph.marks:
                raise MismatchedComplexes(f"vertex_map {v!r} -> {w!r}")
        for e, path in self.edge_map.items():
            if e not in self.source.graph.edges:
                raise MismatchedComplexes(f"edge_map key {e!r}")
            for te, _d in path:
                if te not in self.target.graph.edges:
                    raise MismatchedComplexes(f"edge_map {e!r} -> {te!r}")
        for p, (q, _l) in self.piece_map.items():
            if p not in src_pieces or q not in tgt_pieces:
                raise MismatchedComplexes(f"piece_map {p!r} -> {q!r}")
        for pid, ci, si in self.segment_map:
            boundary = src_pieces[pid].boundary if pid in src_pieces else ()
            if not (0 <= ci < len(boundary) and 0 <= si < len(boundary[ci])):
                raise MismatchedComplexes(f"segment_map key {(pid, ci, si)!r}")
        for (q, j) in self.cone_fibers:
            if q not in tgt_pieces or not 0 <= j < len(tgt_pieces[q].cones):
                raise MismatchedComplexes(f"cone_fibers key ({q!r}, {j})")

    def __deepcopy__(self, memo) -> "CoveringMap":
        return self


@dataclass(frozen=True)
class CheckResult:
    condition: str
    status: str
    witness: Optional[str] = None


@dataclass
class CoverReport:
    degree: int
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.status == "PASS" for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == "FAIL"]

    def __str__(self) -> str:
        head = "PASS" if self.passed else "FAIL"
        lines = [f"{head} degree={self.degree}"]
        for c in self.checks:
            w = f" ({c.witness})" if c.witness else ""
            lines.append(f"  {c.condition}: {c.status}{w}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# verification


def _junctions_of_step(t: int, step: Step) -> tuple[int, int]:
    """(start, end) junction indices of a step on a circle of t segments."""
    _ci, si, d = step
    if d == 1:
        return si, (si + 1) % t
    return (si + 1) % t, si


def _junction_kinds(circle: tuple[str, ...], j: int) -> tuple[str, str]:
    return circle[(j - 1) % len(circle)], circle[j % len(circle)]


def graph_covering_violations(f: CoveringMap) -> list[str]:
    """Condition: the induced map of attaching graphs is an orbifold graph
    covering (after canonical subdivision of folded source edges).

    At a source vertex of local order k' over a target vertex of order k,
    every target half-edge must have exactly k/k' preimages in the source
    star; order-2 marked targets may unfold through unmarked bivalent
    source points (local degree 2).
    """
    out: list[str] = []
    src, tgt = f.source.graph, f.target.graph
    for v in src.vertices():
        if v not in f.vertex_map:
            out.append(f"vertex {v} has no image")
    for e in src.edge_ids():
        if e not in f.edge_map:
            out.append(f"edge {e} has no image path")
    if out:
        return out

    # each point of the subdivided source graph: its key, the target vertex
    # under it, its local order and its star (the target darts its
    # half-edges hit); interior points of folded edges are plain
    points = {
        v: (("v", v), f.vertex_map[v], local_order(src.marks[v]), []) for v in src.vertices()
    }
    subdivisions = []

    def tgt_dart(edge: str, direction: int) -> tuple[str, int]:
        return (edge, 0 if direction == 1 else 1)

    for e in src.edge_ids():
        path = f.edge_map[e]
        u, v = src.edges[e]
        if not path:
            out.append(f"edge {e}: empty image path")
            continue
        bent = [step for step in path if step[1] not in (1, -1)]
        if bent:
            out += [f"edge {e}: step {step} has direction {step[1]}, not 1 or -1" for step in bent]
            continue
        # endpoint and concatenation consistency
        walk = [directed_ends(tgt, te, d) for te, d in path]
        if walk[0][0] != f.vertex_map[u]:
            out.append(f"edge {e}: path starts at {walk[0][0]}, not image of {u}")
        if walk[-1][1] != f.vertex_map[v]:
            out.append(f"edge {e}: path ends at {walk[-1][1]}, not image of {v}")
        for i in range(len(walk) - 1):
            if walk[i][1] != walk[i + 1][0]:
                out.append(f"edge {e}: image path broken at step {i}")
        points[u][3].append(tgt_dart(*path[0]))
        points[v][3].append(reverse_dart(tgt_dart(*path[-1])))
        for i in range(len(path) - 1):
            star = [reverse_dart(tgt_dart(*path[i])), tgt_dart(*path[i + 1])]
            subdivisions.append((("sub", e, i), walk[i][1], 1, star))
    if out:
        return out

    tgt_darts = tgt.darts_by_vertex()
    fibers: dict[str, list[int]] = {w: [] for w in tgt.vertices()}
    for key, w, order, star in [*points.values(), *subdivisions]:
        fibers[w].append(order)
        tgt_order = local_order(tgt.marks[w])
        if tgt_order % order != 0:
            out.append(f"{key}: local order {order} does not divide target order {tgt_order}")
            continue
        local_degree = tgt_order // order
        # every dart of the star leaves w, so these counts fix the star's size
        hits = Counter(star)
        for d in tgt_darts[w]:
            if hits[d] != local_degree:
                out.append(f"{key}: target dart {d} covered {hits[d]} times, expected {local_degree}")

    for w, fiber in fibers.items():
        total = sum(Fraction(local_order(tgt.marks[w]), order) for order in fiber)
        if total != f.degree:
            out.append(f"vertex {w}: fiber sum {total} != degree {f.degree}")
    # every target edge covered exactly `degree` times
    covered = Counter(te for path in f.edge_map.values() for te, _d in path)
    for te in tgt.edge_ids():
        hits = covered[te]
        if hits != f.degree:
            out.append(f"edge {te}: covered {hits} times, expected {f.degree}")
    return out


def _attachment_violations(f: CoveringMap) -> dict[SegRef, list[str]]:
    """Attachment commutation, in one pass over the source attachments: the
    target edges an attached segment's image path is attached along are the
    image of its own edge.  The failing segments, each with its messages."""
    out: dict[SegRef, list[str]] = {}
    for ref, (e, d) in f.source.attachments.items():
        path = f.segment_map.get(ref)
        if not path or ref[0] not in f.piece_map:
            continue  # condition (3) reports these without reading attachments
        tgt_pid = f.piece_map[ref[0]][0]
        problems, imgs = [], []
        for tci, tsi, sd in path:
            t_att = f.target.attachments.get((tgt_pid, tci, tsi))
            if t_att is not None:
                imgs.append((t_att[0], t_att[1] * sd))
            else:
                problems.append(f"segment {ref}: attached over unattached target segment")
        mapped = f.edge_map.get(e)
        if mapped is None:
            problems.append(f"segment {ref}: attachment edge {e} unmapped")
        else:
            want = list(mapped) if d == 1 else reverse_walk(mapped)
            if imgs != want:
                problems.append(f"segment {ref}: attachment image {imgs} != edge path {want}")
        if problems:
            out[ref] = problems
    return out


def _piece_boundary_violations(
    f: CoveringMap, src_piece: Piece, tgt_piece: Piece, attachment: Mapping[SegRef, list[str]]
) -> list[str]:
    """Condition (3) for one source piece, in full, with attachment
    commutation read from ``attachment``.  Every other check reads only the
    piece's class: its boundary, its target's boundary, its local degree and
    its segment-map paths."""
    out: list[str] = []
    pid, tgt_pid = src_piece.id, tgt_piece.id
    local_degree = f.piece_map[pid][1]

    coverage: Counter[tuple[int, int]] = Counter()

    for ci, circle in enumerate(src_piece.boundary):
        steps_all: list[Step] = []
        tgt_circles = set()
        prev_end = None
        for si, kind in enumerate(circle):
            ref = (pid, ci, si)
            path = f.segment_map.get(ref)
            if not path:
                out.append(f"segment {ref}: no image path")
                return out
            for step in path:
                tci, tsi, d = step
                if not (0 <= tci < len(tgt_piece.boundary)
                        and 0 <= tsi < len(tgt_piece.boundary[tci])):
                    out.append(f"segment {ref}: step {step} out of range")
                    return out
                if d not in (1, -1):
                    out.append(f"segment {ref}: step {step} has direction {d}, not 1 or -1")
                    return out
                tgt_circles.add(tci)
                tkind = tgt_piece.boundary[tci][tsi]
                if tkind != kind:
                    out.append(f"segment {ref}: kind {kind} over {tkind}")
                coverage[(tci, tsi)] += 1
            out += attachment.get(ref, ())
            steps_all.extend(path)
        if len(tgt_circles) > 1:
            out.append(f"piece {pid} circle {ci}: image spans circles {sorted(tgt_circles)}")
            continue
        tci = next(iter(tgt_circles))
        tt = len(tgt_piece.boundary[tci])
        # continuity (with folds only at mirror-adjacent junctions) and closure
        for i, step in enumerate(steps_all):
            start, end = _junctions_of_step(tt, step)
            if prev_end is not None and start != prev_end:
                out.append(f"piece {pid} circle {ci}: walk broken before step {i}")
            nxt = steps_all[(i + 1) % len(steps_all)]
            if nxt[2] != step[2]:  # fold
                j = end
                kinds = _junction_kinds(tgt_piece.boundary[tci], j)
                if MIRROR not in kinds:
                    out.append(
                        f"piece {pid} circle {ci}: fold at plain junction {j} of {tgt_pid}"
                    )
            prev_end = end
        first_start, _ = _junctions_of_step(tt, steps_all[0])
        if prev_end != first_start:
            out.append(f"piece {pid} circle {ci}: walk does not close")

    for ci, si, kind in tgt_piece.segments():
        hits = coverage[(ci, si)]
        if kind == FREE:
            if hits != local_degree:
                out.append(
                    f"target segment ({tgt_pid},{ci},{si}): covered {hits}, expected {local_degree}"
                )
        else:
            if hits > local_degree or (local_degree - hits) % 2 != 0:
                out.append(
                    f"target mirror ({tgt_pid},{ci},{si}): boundary coverage {hits} "
                    f"inconsistent with local degree {local_degree}"
                )
    return out


def verify_covering(f: CoveringMap) -> CoverReport:
    """Re-check every covering condition; PASS only if all hold.

    Conditions: (1) fiber sums over graph cells and pieces, (2) per-piece
    orbifold-Euler multiplicativity, (3) boundary compatibility of segment
    maps including attachment commutation and winding, (4) cone fibers,
    (5) the induced map of singular subspaces is an orbifold graph
    covering, (6) global Euler multiplicativity.  The complexes and the
    map's references were checked when built and cannot change.
    """
    src, tgt = f.source.pieces_by_id, f.target.pieces_by_id
    checks: list[CheckResult] = []

    def record(condition: str, violations: list[str]) -> None:
        if violations:
            for w in violations:
                checks.append(CheckResult(condition, "FAIL", w))
        else:
            checks.append(CheckResult(condition, "PASS"))

    # the source pieces over each target piece, in piece_map order
    over: dict[str, list[str]] = {q: [] for q in tgt}
    for spid, (q, _l) in f.piece_map.items():
        over[q].append(spid)
    shape_chi: dict[tuple, Fraction] = {}

    def chi(p: Piece) -> Fraction:
        shape = (p.genus, p.boundary, p.cones)
        if shape not in shape_chi:
            shape_chi[shape] = piece_orbifold_euler(p)
        return shape_chi[shape]

    # (1) fiber sums over pieces (graph cells are covered inside condition 5),
    # (2) per-piece Euler multiplicativity, (3) boundary compatibility: a
    # piece whose class an earlier piece passed needs only its attachments
    fiber_violations: list[str] = []
    euler_violations: list[str] = []
    boundary_violations: list[str] = []
    clean_classes: set[tuple] = set()
    attachment = _attachment_violations(f)
    for p in f.source.pieces:
        if p.id not in f.piece_map:
            fiber_violations.append(f"piece {p.id}: no image")
            continue
        q, local_degree = f.piece_map[p.id]
        if local_degree < 1:
            fiber_violations.append(f"piece {p.id}: local degree {local_degree}")
        lhs = chi(p)
        if lhs != local_degree * chi(tgt[q]):
            euler_violations.append(f"piece {p.id}: chi {lhs} != {local_degree} * chi({q})")
        refs = [(p.id, ci, si) for ci, si, _kind in p.segments()]
        key = (p.boundary, tgt[q].boundary, local_degree, tuple(map(f.segment_map.get, refs)))
        if key in clean_classes:
            if attachment:
                boundary_violations += [w for ref in refs for w in attachment.get(ref, ())]
            continue
        violations = _piece_boundary_violations(f, p, tgt[q], attachment)
        if not violations:
            clean_classes.add(key)
        boundary_violations += violations
    for q, spids in sorted(over.items()):
        total = sum(f.piece_map[spid][1] for spid in spids)
        if total != f.degree:
            fiber_violations.append(f"piece {q}: fiber sum {total} != degree {f.degree}")
    record("fiber_sums", fiber_violations)
    record("piece_euler", euler_violations)
    record("boundary", boundary_violations)

    # (4) cone fibers
    cone_violations = []
    used: dict[str, set[int]] = {p.id: set() for p in f.source.pieces}
    for q in f.target.pieces:
        for j, m in enumerate(q.cones):
            tokens = f.cone_fibers.get((q.id, j))
            if tokens is None:
                cone_violations.append(f"cone ({q.id},{j}): no fiber data")
                continue
            per_source: Counter[str] = Counter()
            for tok in tokens:
                if len(tok) != 3 or type(tok[1]) is not str:
                    cone_violations.append(f"cone ({q.id},{j}): bad token {tok}")
                elif tok[0] == "cone":
                    _kind, spid, sj = tok
                    if spid not in src or type(sj) is not int or not 0 <= sj < len(src[spid].cones):
                        cone_violations.append(f"cone ({q.id},{j}): bad token {tok}")
                        continue
                    mm = src[spid].cones[sj]
                    if m % mm != 0:
                        cone_violations.append(
                            f"cone ({q.id},{j}): order {mm} does not divide {m}"
                        )
                        continue
                    if sj in used[spid]:
                        cone_violations.append(f"cone ({q.id},{j}): source cone reused {tok}")
                    used[spid].add(sj)
                    per_source[spid] += m // mm
                elif tok[0] == "smooth":
                    spid = tok[1]
                    per_source[spid] += m
                else:
                    cone_violations.append(f"cone ({q.id},{j}): bad token {tok}")
            for spid, total in sorted(per_source.items()):
                if spid not in f.piece_map or f.piece_map[spid][0] != q.id:
                    cone_violations.append(f"cone ({q.id},{j}): token from foreign piece {spid}")
                    continue
                l = f.piece_map[spid][1]
                if total != l:
                    cone_violations.append(
                        f"cone ({q.id},{j}): fiber sum {total} in {spid} != local degree {l}"
                    )
            for spid in over[q.id]:
                if spid not in per_source:
                    cone_violations.append(f"cone ({q.id},{j}): no preimage in {spid}")
    for spid, seen in sorted(used.items()):
        # cones over corner reflectors of a mirror target piece are absorbed
        # by the chi bookkeeping and are not listed in cone_fibers
        if spid not in f.piece_map:
            continue
        if tgt[f.piece_map[spid][0]].has_mirrors:
            continue
        n = len(src[spid].cones)
        if len(seen) != n:
            cone_violations.append(f"piece {spid}: {n - len(seen)} source cones unaccounted")
    record("cone_fibers", cone_violations)

    # (5) induced graph covering
    record("graph_covering", graph_covering_violations(f))

    # (6) global Euler multiplicativity
    chi_s, chi_t = euler_characteristic(f.source), euler_characteristic(f.target)
    record(
        "global_euler",
        [] if chi_s == f.degree * chi_t else [f"chi {chi_s} != {f.degree} * {chi_t}"],
    )
    return CoverReport(degree=f.degree, checks=checks)
