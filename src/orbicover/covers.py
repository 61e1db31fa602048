"""Finite orbifold covering maps between orbicomplexes.

Covers are concrete combinatorial maps: graph vertices/edges map to
vertices/edge-paths (paths of length two realize the folding of an edge
over an unfolded reflection wall), pieces map with a local degree, boundary
segments map to segment paths, and cone fibers are listed explicitly.
``verify_covering`` re-checks all of it from scratch.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .orbicore import (
    FREE,
    MIRROR,
    MarkedGraph,
    Orbicomplex,
    OrbicoverError,
    Piece,
    SegRef,
    all_attachment_circuits,
    _canonical_cycle,
    directed_ends,
    disk_with_cones,
    is_wall,
    local_order,
    piece_orbifold_euler,
    euler_characteristic,
    recompute_multiplicities,
    require_valid,
    reverse_dart,
    reverse_walk,
    rotation_from_circuits,
    surface_with_boundary,
    wall_mark,
)


class MismatchedComplexes(OrbicoverError):
    pass


class NotAPolygon(OrbicoverError):
    pass


class NotADiskOrbifold(OrbicoverError):
    pass


class NotAHomomorphism(OrbicoverError):
    pass


class NotSurjective(OrbicoverError):
    pass


class MirrorsPresent(OrbicoverError):
    pass


class UnsupportedPiece(OrbicoverError):
    pass


class BadGenus(OrbicoverError):
    pass


Step = tuple[int, int, int]  # (target circle, target segment, direction)


@dataclass
class CoveringMap:
    source: Orbicomplex
    target: Orbicomplex
    degree: int
    vertex_map: dict[str, str] = field(default_factory=dict)
    edge_map: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    piece_map: dict[str, tuple[str, int]] = field(default_factory=dict)
    segment_map: dict[SegRef, list[Step]] = field(default_factory=dict)
    cone_fibers: dict[tuple[str, int], list[tuple]] = field(default_factory=dict)


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


def single_piece_complex(piece: Piece) -> Orbicomplex:
    return Orbicomplex(pieces=[piece], graph=MarkedGraph(), attachments={})


def identity_covering(c: Orbicomplex) -> CoveringMap:
    """The degree-1 covering of a complex by itself."""
    f = CoveringMap(
        source=c,
        target=c,
        degree=1,
        vertex_map={v: v for v in c.graph.marks},
        edge_map={e: [(e, 1)] for e in c.graph.edges},
        piece_map={p.id: (p.id, 1) for p in c.pieces},
    )
    for p in c.pieces:
        for ci, si, _kind in p.segments():
            f.segment_map[(p.id, ci, si)] = [(ci, si, 1)]
        for j in range(len(p.cones)):
            f.cone_fibers[(p.id, j)] = [("cone", p.id, j)]
    return f


# ---------------------------------------------------------------------------
# verification


def _check_references(
    f: CoveringMap, src_pieces: dict[str, Piece], tgt_pieces: dict[str, Piece]
) -> None:
    for v, w in f.vertex_map.items():
        if v not in f.source.graph.marks or w not in f.target.graph.marks:
            raise MismatchedComplexes(f"vertex_map {v!r} -> {w!r}")
    for e, path in f.edge_map.items():
        if e not in f.source.graph.edges:
            raise MismatchedComplexes(f"edge_map key {e!r}")
        for te, _d in path:
            if te not in f.target.graph.edges:
                raise MismatchedComplexes(f"edge_map {e!r} -> {te!r}")
    for p, (q, _l) in f.piece_map.items():
        if p not in src_pieces or q not in tgt_pieces:
            raise MismatchedComplexes(f"piece_map {p!r} -> {q!r}")
    for (q, j) in f.cone_fibers:
        if q not in tgt_pieces or not 0 <= j < len(tgt_pieces[q].cones):
            raise MismatchedComplexes(f"cone_fibers key ({q!r}, {j})")


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

    # star of each source vertex: target darts hit by its half-edges;
    # interior subdivision points of folded edges are extra (plain) vertices
    stars: dict[tuple, list[tuple[str, int]]] = {}

    def tgt_dart(edge: str, direction: int) -> tuple[str, int]:
        return (edge, 0 if direction == 1 else 1)

    for v in src.vertices():
        stars[("v", v)] = []
    for e in src.edge_ids():
        path = f.edge_map[e]
        u, v = src.edges[e]
        if not path:
            out.append(f"edge {e}: empty image path")
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
        stars[("v", u)].append(tgt_dart(*path[0]))
        stars[("v", v)].append(reverse_dart(tgt, tgt_dart(*path[-1])))
        for i in range(len(path) - 1):
            key = ("sub", e, i)
            stars[key] = [reverse_dart(tgt, tgt_dart(*path[i])), tgt_dart(*path[i + 1])]
    if out:
        return out

    tgt_darts = tgt.darts_by_vertex()
    fibers: dict[str, list[tuple]] = {w: [] for w in tgt.vertices()}
    for key, star in stars.items():
        if key[0] == "v":
            w = f.vertex_map[key[1]]
            order = local_order(src.marks[key[1]])
        else:
            e, i = key[1], key[2]
            te, d = f.edge_map[e][i]
            w = directed_ends(tgt, te, d)[1]
            order = 1
        fibers[w].append((key, order))
        tgt_order = local_order(tgt.marks[w])
        if tgt_order % order != 0:
            out.append(f"{key}: local order {order} does not divide target order {tgt_order}")
            continue
        local_degree = tgt_order // order
        w_darts = tgt_darts[w]
        for d in w_darts:
            hits = star.count(d)
            if hits != local_degree:
                out.append(f"{key}: target dart {d} covered {hits} times, expected {local_degree}")
        if len(star) != local_degree * len(w_darts):
            out.append(f"{key}: star size {len(star)} != {local_degree * len(w_darts)}")

    for w, fiber in fibers.items():
        total = sum(
            Fraction(local_order(tgt.marks[w]), order) for _key, order in fiber
        )
        if total != f.degree:
            out.append(f"vertex {w}: fiber sum {total} != degree {f.degree}")
    # every target edge covered exactly `degree` times
    covered = Counter(te for path in f.edge_map.values() for te, _d in path)
    for te in tgt.edge_ids():
        hits = covered[te]
        if hits != f.degree:
            out.append(f"edge {te}: covered {hits} times, expected {f.degree}")
    return out


def _piece_boundary_violations(f: CoveringMap, src_piece: Piece, tgt_piece: Piece) -> list[str]:
    out: list[str] = []
    pid, tgt_pid = src_piece.id, tgt_piece.id
    local_degree = f.piece_map[pid][1]

    coverage: dict[tuple[int, int], int] = {
        (ci, si): 0 for ci, si, _k in tgt_piece.segments()
    }

    for ci, circle in enumerate(src_piece.boundary):
        t = len(circle)
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
                tgt_circles.add(tci)
                tkind = tgt_piece.boundary[tci][tsi]
                if tkind != kind:
                    out.append(f"segment {ref}: kind {kind} over {tkind}")
                coverage[(tci, tsi)] += 1
            # attachment commutation
            s_att = f.source.attachments.get(ref)
            imgs = []
            for tci, tsi, d in path:
                t_att = f.target.attachments.get((tgt_pid, tci, tsi))
                if t_att is not None:
                    imgs.append((t_att[0], t_att[1] * d))
                elif kind == FREE and s_att is not None:
                    out.append(f"segment {ref}: attached over unattached target segment")
            if s_att is not None:
                e, d = s_att
                mapped = f.edge_map.get(e)
                if mapped is None:
                    out.append(f"segment {ref}: attachment edge {e} unmapped")
                else:
                    want = mapped if d == 1 else reverse_walk(mapped)
                    if imgs != want:
                        out.append(
                            f"segment {ref}: attachment image {imgs} != edge path {want}"
                        )
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
        prev_end = None

    for (ci, si), hits in sorted(coverage.items()):
        kind = tgt_piece.boundary[ci][si]
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
    covering, (6) global Euler multiplicativity.
    """
    require_valid(f.source)
    require_valid(f.target)
    src = {p.id: p for p in f.source.pieces}
    tgt = {q.id: q for q in f.target.pieces}
    _check_references(f, src, tgt)
    checks: list[CheckResult] = []

    def record(condition: str, violations: list[str]) -> None:
        if violations:
            for w in violations:
                checks.append(CheckResult(condition, "FAIL", w))
        else:
            checks.append(CheckResult(condition, "PASS"))

    # (1) fiber sums over pieces (graph cells are covered inside condition 5)
    fiber_violations: list[str] = []
    by_target: dict[str, int] = {q.id: 0 for q in f.target.pieces}
    for p in f.source.pieces:
        if p.id not in f.piece_map:
            fiber_violations.append(f"piece {p.id}: no image")
            continue
        q, local_degree = f.piece_map[p.id]
        if local_degree < 1:
            fiber_violations.append(f"piece {p.id}: local degree {local_degree}")
        by_target[q] += local_degree
    for q, total in sorted(by_target.items()):
        if total != f.degree:
            fiber_violations.append(f"piece {q}: fiber sum {total} != degree {f.degree}")
    record("fiber_sums", fiber_violations)

    # (2) per-piece Euler multiplicativity
    euler_violations = []
    for p in f.source.pieces:
        if p.id not in f.piece_map:
            continue
        q, local_degree = f.piece_map[p.id]
        lhs = piece_orbifold_euler(p)
        rhs = local_degree * piece_orbifold_euler(tgt[q])
        if lhs != rhs:
            euler_violations.append(f"piece {p.id}: chi {lhs} != {local_degree} * chi({q})")
    record("piece_euler", euler_violations)

    # (3) boundary compatibility
    boundary_violations = []
    for p in f.source.pieces:
        if p.id in f.piece_map:
            boundary_violations.extend(_piece_boundary_violations(f, p, tgt[f.piece_map[p.id][0]]))
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
            per_source: dict[str, Fraction] = {}
            for tok in tokens:
                if tok[0] == "cone":
                    _kind, spid, sj = tok
                    if spid not in src or not 0 <= sj < len(src[spid].cones):
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
                    per_source[spid] = per_source.get(spid, Fraction(0)) + Fraction(m, mm)
                elif tok[0] == "smooth":
                    spid = tok[1]
                    per_source[spid] = per_source.get(spid, Fraction(0)) + m
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
            for spid, (tq, l) in f.piece_map.items():
                if tq == q.id and spid not in per_source:
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


# ---------------------------------------------------------------------------
# Lemma-style doubles of single pieces


def _require_polygon(p: Piece) -> int:
    """Number of mirror segments of a branch polygon [free, mirror^n, free]."""
    if p.genus != 0 or p.cones or len(p.boundary) != 1:
        raise NotAPolygon(p.id)
    circle = p.boundary[0]
    n = len(circle) - 2
    if n < 1 or circle != (FREE,) + (MIRROR,) * n + (FREE,):
        raise NotAPolygon(p.id)
    return n


def reflection_double(p: Piece) -> tuple[Piece, CoveringMap]:
    """Unfold every mirror of a reflection polygon: the disk with n-1
    order-2 cone points double-covers the polygon with n mirror segments,
    corners descending to the cones."""
    n = _require_polygon(p)
    target = single_piece_complex(p)
    cover_piece = disk_with_cones(f"{p.id}.d", n - 1, n_segments=4)
    source = single_piece_complex(cover_piece)
    t_last = n + 1  # index of the second free segment downstairs
    segmap: dict[SegRef, list[Step]] = {
        (cover_piece.id, 0, 0): [(0, 0, 1)],
        (cover_piece.id, 0, 1): [(0, 0, -1)],
        (cover_piece.id, 0, 2): [(0, t_last, -1)],
        (cover_piece.id, 0, 3): [(0, t_last, 1)],
    }
    f = CoveringMap(
        source=source,
        target=target,
        degree=2,
        piece_map={cover_piece.id: (p.id, 2)},
        segment_map=segmap,
    )
    return cover_piece, f


def _require_cone_disk(p: Piece) -> int:
    if p.genus != 0 or len(p.boundary) != 1 or p.has_mirrors:
        raise NotADiskOrbifold(p.id)
    if any(m != 2 for m in p.cones):
        raise NotADiskOrbifold(f"{p.id}: cone orders {p.cones}")
    return len(p.cones)


def rotation_double(p: Piece) -> tuple[Piece, CoveringMap]:
    """Rotate a disk orbifold with m+1 order-2 cones by a half turn: the
    disk with 2m cones double-covers it, the fixed point descending to one
    cone (single smooth preimage), every other cone lifting twice."""
    k = _require_cone_disk(p)
    m = k - 1
    if m < 1:
        raise NotADiskOrbifold(f"{p.id}: needs at least 2 cones")
    t = len(p.boundary[0])
    target = single_piece_complex(p)
    cover_piece = disk_with_cones(f"{p.id}.r", 2 * m, n_segments=2 * t)
    source = single_piece_complex(cover_piece)
    segmap = {
        (cover_piece.id, 0, j): [(0, j % t, 1)] for j in range(2 * t)
    }
    fibers: dict[tuple[str, int], list[tuple]] = {
        (p.id, 0): [("smooth", cover_piece.id, "fix")]
    }
    for j in range(1, k):
        fibers[(p.id, j)] = [
            ("cone", cover_piece.id, 2 * (j - 1)),
            ("cone", cover_piece.id, 2 * (j - 1) + 1),
        ]
    f = CoveringMap(
        source=source,
        target=target,
        degree=2,
        piece_map={cover_piece.id: (p.id, 2)},
        segment_map=segmap,
        cone_fibers=fibers,
    )
    return cover_piece, f


# ---------------------------------------------------------------------------
# two-torsion labelings and the double covers they classify, the Davis cover
# (the all-ones labeling) among them


@dataclass
class TwoTorsionLabeling:
    """A homomorphism to Z/2 given by its values on the attaching-graph
    edges (implicitly zero on a spanning forest), cone generators, and
    wall/mirror generators.  Missing keys read as 0."""

    edges: dict[str, int] = field(default_factory=dict)
    cones: dict[tuple[str, int], int] = field(default_factory=dict)
    mirrors: dict[SegRef, int] = field(default_factory=dict)
    walls: dict[str, int] = field(default_factory=dict)

    def edge(self, e: str) -> int:
        return self.edges.get(e, 0)

    def cone(self, pid: str, j: int) -> int:
        return self.cones.get((pid, j), 0)

    def mirror(self, ref: SegRef) -> int:
        return self.mirrors.get(ref, 0)

    def wall(self, label: str) -> int:
        return self.walls.get(label, 0)

    def is_surjective(self) -> bool:
        return any(
            itertools.chain(
                self.edges.values(), self.cones.values(),
                self.mirrors.values(), self.walls.values(),
            )
        )

    def key(self) -> tuple:
        return tuple(
            tuple(sorted((k, v) for k, v in values.items() if v))
            for values in (self.edges, self.cones, self.mirrors, self.walls)
        )


def _circle_edge_parity(c: Orbicomplex, phi: TwoTorsionLabeling, p: Piece, ci: int) -> int:
    parity = 0
    for si, kind in enumerate(p.boundary[ci]):
        if kind == FREE:
            att = c.attachments.get((p.id, ci, si))
            if att is not None:
                parity ^= phi.edge(att[0])
    return parity


def _mirror_wall_pairs(c: Orbicomplex, p: Piece) -> list[tuple[SegRef, str]]:
    """(mirror segment, wall label) at each attached mirror|free junction."""
    out = []
    for ci, circle in enumerate(p.boundary):
        t = len(circle)
        for si, kind in enumerate(circle):
            if kind != MIRROR:
                continue
            for nb in ((si - 1) % t, (si + 1) % t):
                if circle[nb] != FREE:
                    continue
                ends = c.seg_endpoints((p.id, ci, nb))
                if ends is None:
                    continue
                junction_vertex = ends[1] if nb == (si - 1) % t else ends[0]
                mark = c.graph.marks.get(junction_vertex)
                if is_wall(mark):
                    out.append(((p.id, ci, si), mark[1]))
    return out


def _fully_attached(c: Orbicomplex, p: Piece) -> bool:
    return all(
        (p.id, ci, si) in c.attachments
        for ci, si, kind in p.segments()
        if kind == FREE
    )


def labeling_violations(c: Orbicomplex, phi: TwoTorsionLabeling) -> list[str]:
    """Relator conditions a two-torsion labeling must satisfy on ``c``.

    Boundary relations only bind fully glued circles; detached boundary
    imposes nothing.
    """
    out = []
    for p in c.pieces:
        if p.has_mirrors:
            for ref, label in _mirror_wall_pairs(c, p):
                if phi.mirror(ref) != phi.wall(label):
                    out.append(f"mirror {ref} disagrees with wall {label!r}")
            if _fully_attached(c, p):
                parity = _circle_edge_parity(c, phi, p, 0)
                if parity != 0:
                    out.append(f"polygon {p.id}: boundary edge word has parity 1")
        elif _fully_attached(c, p):
            total = 0
            for ci in range(len(p.boundary)):
                total ^= _circle_edge_parity(c, phi, p, ci)
            cone_sum = 0
            for j in range(len(p.cones)):
                cone_sum ^= phi.cone(p.id, j)
            if total != cone_sum:
                out.append(f"piece {p.id}: boundary parity {total} != cone parity {cone_sum}")
    return out


def all_ones_labeling(davis: Orbicomplex) -> TwoTorsionLabeling:
    """phi = 1 on every Coxeter generator (all walls and mirror segments)."""
    phi = TwoTorsionLabeling()
    for v, mark in davis.graph.marks.items():
        if is_wall(mark):
            phi.walls[mark[1]] = 1
    for p in davis.pieces:
        for ci, si, kind in p.segments():
            if kind == MIRROR:
                phi.mirrors[(p.id, ci, si)] = 1
    return phi


def _lift_vertex_names(c: Orbicomplex, phi: TwoTorsionLabeling) -> dict[tuple[str, int], str]:
    names = {}
    for v, mark in sorted(c.graph.marks.items()):
        if is_wall(mark) and phi.wall(mark[1]) == 1:
            names[(v, 0)] = names[(v, 1)] = f"{v}.m"
        else:
            names[(v, 0)] = f"{v}.0"
            names[(v, 1)] = f"{v}.1"
    return names


def _trace_polygon(circle: tuple[str, ...], glued: set[int]) -> list[list[tuple[int, int]]]:
    """Boundary circles of two polygon sheets glued along ``glued`` mirror
    segments, as lists of (segment index, sheet); sheet-1 stretches are
    traversed in reverse."""
    t = len(circle)
    frees = [k for k in range(t) if circle[k] == FREE]
    starts = [(k, s) for k in frees for s in (0, 1)]
    emitted: set[tuple[int, int]] = set()
    traces = []
    for start in starts:
        if start in emitted:
            continue
        walk = []
        state = start
        while True:
            walk.append(state)
            emitted.add(state)
            k, s = state
            step = 1 if s == 0 else -1
            k2 = (k + step) % t
            state = (k, 1 - s) if k2 in glued else (k2, s)
            if state == start:
                break
        traces.append(walk)
    leftovers = {
        (k, s)
        for k in range(t)
        for s in (0, 1)
        if k not in glued and (k, s) not in emitted
    }
    if leftovers:
        raise UnsupportedPiece(
            "polygon double cover has a boundary circle without free segments"
        )
    return traces


def _smoothed_walls(c: Orbicomplex, phi: TwoTorsionLabeling) -> dict[str, str]:
    """The unfolded walls that lift to no vertex, keyed by their one edge.

    A wall with phi = 1 and exactly one dart would lift to a bivalent plain
    point; the cover carries one edge through it instead.  When one edge
    joins two such walls, only the wall whose lift sorts first is smoothed.
    """
    darts = c.graph.darts_by_vertex()
    out: dict[str, str] = {}
    for v in sorted(c.graph.marks, key=lambda v: f"{v}.m"):
        mark = c.graph.marks[v]
        if is_wall(mark) and phi.wall(mark[1]) == 1 and len(darts[v]) == 1:
            out.setdefault(darts[v][0][0], v)
    return out


Segment = tuple[str, list[Step], Optional[tuple[str, int]]]  # kind, steps, attachment


def _join_at_walls(
    circle: list[Segment], joins: dict[tuple[str, int], tuple[str, int]]
) -> list[Segment]:
    """Merge each attached segment that runs into a smoothed wall with the
    attached segment after it; ``joins`` maps the attachment that runs into
    the wall to the merged segment's attachment.  The circle turns by one
    when its last and first segments merge, so no merged pair straddles
    index 0."""
    t = len(circle)
    starts = {
        i for i, (_kind, _steps, att) in enumerate(circle)
        if att in joins and circle[(i + 1) % t][2] is not None
    }
    offset = 1 if t - 1 in starts else 0
    out: list[Segment] = []
    i = 0
    while i < t:
        k = (offset + i) % t
        kind, steps, att = circle[k]
        if k in starts:
            out.append((kind, steps + circle[(k + 1) % t][1], joins[att]))
            i += 2
        else:
            out.append((kind, steps, att))
            i += 1
    return out


def double_cover(c: Orbicomplex, phi: TwoTorsionLabeling) -> tuple[Orbicomplex, CoveringMap]:
    """The degree-2 cover classified by a two-torsion labeling.

    Pieces must be reflection polygons or cone disks.  A piece whose
    boundary parity and cone/mirror values all vanish lifts to two disjoint
    copies; otherwise it lifts connectedly, with phi=0 cones duplicated,
    phi=1 cones smoothed, and mirrors glued across the sheets where phi=1.
    An unfolded wall with one edge downstairs lifts to no vertex: the two
    lifts of its edge form one edge ``c.<wall>``, which maps to a folded
    path of length two, and the piece segments that meet there merge.
    """
    problems = labeling_violations(c, phi)
    if problems:
        raise NotAHomomorphism("; ".join(problems))
    if not phi.is_surjective():
        raise NotSurjective("labeling is identically zero")
    for p in c.pieces:
        if p.has_mirrors:
            _require_polygon(p)
        else:
            _require_cone_disk(p)
        if not _fully_attached(c, p):
            raise UnsupportedPiece(f"piece {p.id} must be fully attached")

    names = _lift_vertex_names(c, phi)
    wall_of = _smoothed_walls(c, phi)
    smoothed = set(wall_of.values())
    graph = MarkedGraph()
    for v, mark in sorted(c.graph.marks.items()):
        if v in smoothed:
            continue
        if names[(v, 0)] == names[(v, 1)]:
            graph.marks[names[(v, 0)]] = None
        else:
            for s in (0, 1):
                if is_wall(mark):
                    graph.marks[names[(v, s)]] = wall_mark(f"{mark[1]}.{s}")
                else:
                    graph.marks[names[(v, s)]] = mark
    vertex_map = {name: v for (v, _s), name in names.items() if v not in smoothed}

    edge_map: dict[str, list[tuple[str, int]]] = {}
    joins: dict[tuple[str, int], tuple[str, int]] = {}
    for e, (u, v) in sorted(c.graph.edges.items()):
        lifts = [(names[(u, s)], names[(v, s ^ phi.edge(e))]) for s in (0, 1)]
        w = wall_of.get(e)
        if w is None:
            for s in (0, 1):
                graph.edges[f"{e}.{s}"] = lifts[s]
                edge_map[f"{e}.{s}"] = [(e, 1)]
            continue
        # one edge through the smoothed wall w: in along one lift, out along the other
        into = 1 if v == w else -1
        tail = 0 if into == 1 else 1
        graph.edges[f"c.{w}"] = (lifts[0][tail], lifts[1][tail])
        edge_map[f"c.{w}"] = [(e, into), (e, -into)]
        joins[(f"{e}.0", into)] = (f"c.{w}", 1)
        joins[(f"{e}.1", into)] = (f"c.{w}", -1)

    pieces: list[Piece] = []
    attachments: dict[SegRef, tuple[str, int]] = {}
    piece_map: dict[str, tuple[str, int]] = {}
    segmap: dict[SegRef, list[Step]] = {}
    cone_fibers: dict[tuple[str, int], list[tuple]] = {}

    def install(
        pid: str, base: Piece, genus: int, circles: list[list[Segment]],
        cones: tuple[int, ...], local_degree: int,
    ) -> Piece:
        circles = [_join_at_walls(circ, joins) for circ in circles]
        boundary = tuple(tuple(kind for kind, _steps, _att in circ) for circ in circles)
        piece = Piece(pid, genus, boundary, cones)
        pieces.append(piece)
        piece_map[pid] = (base.id, local_degree)
        for ci, circ in enumerate(circles):
            for si, (_kind, steps, att) in enumerate(circ):
                segmap[(pid, ci, si)] = steps
                if att is not None:
                    attachments[(pid, ci, si)] = att
        return piece

    for p in c.pieces:
        circle = p.boundary[0]
        t = len(circle)
        # sheet offset of junction j relative to junction 0
        h = [0] * (t + 1)
        for si in range(t):
            bump = 0
            if circle[si] == FREE:
                att = c.attachments.get((p.id, 0, si))
                if att is not None:
                    bump = phi.edge(att[0])
            h[si + 1] = h[si] ^ bump

        def lift(si: int, sheet: int, direction: int) -> Segment:
            """Segment si on ``sheet``, traversed in ``direction``."""
            att = c.attachments.get((p.id, 0, si))
            if att is not None:
                e, d = att
                tail_sheet = sheet ^ (h[si] if direction == 1 else h[si + 1])
                i = tail_sheet if d * direction == 1 else tail_sheet ^ phi.edge(e)
                att = (f"{e}.{i}", d * direction)
            return (circle[si], [(0, si, direction)], att)

        def lift_to_two_copies() -> None:
            for s in (0, 1):
                pid2 = f"{p.id}.{s}"
                install(pid2, p, 0, [[lift(si, s, 1) for si in range(t)]], p.cones, 1)
                for j in range(len(p.cones)):
                    cone_fibers.setdefault((p.id, j), []).append(("cone", pid2, j))

        if p.has_mirrors:
            glued = {
                si
                for si, kind in enumerate(circle)
                if kind == MIRROR and phi.mirror((p.id, 0, si)) == 1
            }
            if not glued:
                lift_to_two_copies()
                continue
            circles = []
            for trace in _trace_polygon(circle, glued):
                segments = [lift(si, s, 1 if s == 0 else -1) for si, s in trace]
                # a glued mirror is crossed on both sheets in a row: one segment
                circ: list[Segment] = []
                idx = 0
                while idx < len(trace):
                    seg = segments[idx]
                    if (
                        seg[0] == MIRROR
                        and idx + 1 < len(trace)
                        and trace[idx + 1][0] == trace[idx][0]
                    ):
                        seg = (MIRROR, seg[1] + segments[idx + 1][1], None)
                        idx += 1
                    circ.append(seg)
                    idx += 1
                circles.append(circ)
            n_cones = sum(1 for si in glued if (si + 1) % t in glued)
            cover = install(f"{p.id}.01", p, 0, circles, (2,) * n_cones, 2)
            # genus bookkeeping: two disks glued along arcs stay planar
            assert piece_orbifold_euler(cover) == 2 * piece_orbifold_euler(p), p.id
        else:
            k = len(p.cones)
            cone_vals = [phi.cone(p.id, j) for j in range(k)]
            parity = h[t]
            if parity == 0 and not any(cone_vals):
                lift_to_two_copies()
                continue
            pid2 = f"{p.id}.01"
            k0 = cone_vals.count(0)
            k1 = k - k0
            b2 = 1 if parity == 1 else 2
            genus2, rem = divmod(k1 - b2, 2)
            if rem or genus2 < 0:
                raise NotAHomomorphism(
                    f"piece {p.id}: inconsistent lift (parity {parity}, {k1} smoothed cones)"
                )
            sheets = [[lift(si, s, 1) for si in range(t)] for s in (0, 1)]
            # parity 1: one circle, two laps; parity 0: one circle per sheet
            circles = [sheets[0] + sheets[1]] if parity == 1 else sheets
            install(pid2, p, genus2, circles, (2,) * (2 * k0), 2)
            new_cone = 0
            for j, val in enumerate(cone_vals):
                if val == 0:
                    cone_fibers[(p.id, j)] = [
                        ("cone", pid2, new_cone),
                        ("cone", pid2, new_cone + 1),
                    ]
                    new_cone += 2
                else:
                    cone_fibers[(p.id, j)] = [("smooth", pid2, f"c{j}")]

    cover_cx = Orbicomplex(pieces=pieces, graph=graph, attachments=attachments)
    recompute_multiplicities(cover_cx)
    cover_cx.rotation = derive_rotation(cover_cx)
    f = CoveringMap(
        source=cover_cx,
        target=c,
        degree=2,
        vertex_map=vertex_map,
        edge_map=edge_map,
        piece_map=piece_map,
        segment_map=segmap,
        cone_fibers=cone_fibers,
    )
    return cover_cx, f


def davis_double_cover(davis: Orbicomplex) -> tuple[Orbicomplex, CoveringMap]:
    """The degree-2 cover of a Davis orbicomplex in which every polygon
    unfolds to a cone disk: the kernel of the all-ones labeling.

    The glued star unfolds to a two-vertex banana graph, ``hub.0`` and
    ``hub.1`` joined by one edge ``c.<wall>`` per reflection wall; the
    polygon p over a branch with n mirrors becomes the disk ``p.01`` with
    n-1 cones, whose boundary reads the edge of its first wall, then the
    edge of its last wall reversed, double-covering the two glued half-edges.
    """
    return double_cover(davis, all_ones_labeling(davis))


def derive_rotation(c: Orbicomplex) -> Optional[dict[str, list[tuple[str, int]]]]:
    """Canonical ribbon structure whose faces are the attachment circuits,
    when one exists (each distinct circuit counted once)."""
    if not c.graph.edges:
        return None
    if len(c.attachments) != sum(
        len(circle) for p in c.pieces for circle in p.boundary
    ):
        return None
    circuits = all_attachment_circuits(c)
    distinct: dict[tuple, list[tuple[str, int]]] = {}
    for _key, walk in sorted(circuits.items()):
        distinct.setdefault(_canonical_cycle(walk), walk)
    reps = [distinct[k] for k in sorted(distinct)]
    return rotation_from_circuits(c.graph, reps)


# ---------------------------------------------------------------------------
# enumeration of the canonical double-cover family


def enumerate_double_covers(
    c: Orbicomplex,
) -> list[tuple[TwoTorsionLabeling, Orbicomplex, CoveringMap]]:
    """All connected double covers in the canonical family: every nonzero
    labeling of the non-forest edges, completed on cones by the first-cone
    rule (parity-0 circles get all-zero cones, parity-1 circles smooth
    exactly the first cone)."""
    if any(p.has_mirrors for p in c.pieces):
        raise MirrorsPresent("canonical enumeration needs cone pieces only")
    for p in c.pieces:
        _require_cone_disk(p)
    forest = c.graph.spanning_forest()
    free_edges = [e for e in c.graph.edge_ids() if e not in forest]
    out = []
    for bits in itertools.product((0, 1), repeat=len(free_edges)):
        if not any(bits):
            continue
        phi = TwoTorsionLabeling(edges=dict(zip(free_edges, bits)))
        for p in c.pieces:
            if _circle_edge_parity(c, phi, p, 0) == 1:
                phi.cones[(p.id, 0)] = 1
        cover, f = double_cover(c, phi)
        out.append((phi, cover, f))
    return out


# ---------------------------------------------------------------------------
# surface towers and torsion-free covers


@dataclass
class SurfaceTower:
    surface: Piece
    annulus: Piece
    disk: Piece
    upper: CoveringMap   # surface -> annulus orbifold
    lower: CoveringMap   # annulus orbifold -> disk orbifold


def surface_over_disk_tower(genus: int) -> SurfaceTower:
    """The two rotation quotients S_{g,4} -> A(2g+2) -> D^2(g+3): first a
    half-turn pairing the four boundary circles with 2g+2 fixed points,
    then a half-turn of the annulus skewering its core in two plain points."""
    if genus < 1:
        raise BadGenus(f"needs genus >= 1, got {genus}")
    g = genus
    disk = disk_with_cones(f"disk.g{g}", g + 3)
    annulus = Piece(f"ann.g{g}", 0, ((FREE,), (FREE,)), (2,) * (2 * g + 2))
    surface = surface_with_boundary(f"surf.g{g}", g, 4)
    disk_cx = single_piece_complex(disk)
    annulus_cx = single_piece_complex(annulus)
    surface_cx = single_piece_complex(surface)

    lower = CoveringMap(
        source=annulus_cx,
        target=disk_cx,
        degree=2,
        piece_map={annulus.id: (disk.id, 2)},
        segment_map={
            (annulus.id, 0, 0): [(0, 0, 1)],
            (annulus.id, 1, 0): [(0, 0, 1)],
        },
        cone_fibers={},
    )
    for j in range(g + 1):
        lower.cone_fibers[(disk.id, j)] = [
            ("cone", annulus.id, 2 * j),
            ("cone", annulus.id, 2 * j + 1),
        ]
    for j in (g + 1, g + 2):
        lower.cone_fibers[(disk.id, j)] = [("smooth", annulus.id, f"axis{j}")]

    upper = CoveringMap(
        source=surface_cx,
        target=annulus_cx,
        degree=2,
        piece_map={surface.id: (annulus.id, 2)},
        segment_map={
            (surface.id, 0, 0): [(0, 0, 1)],
            (surface.id, 1, 0): [(0, 0, 1)],
            (surface.id, 2, 0): [(1, 0, 1)],
            (surface.id, 3, 0): [(1, 0, 1)],
        },
        cone_fibers={
            (annulus.id, j): [("smooth", surface.id, f"fix{j}")] for j in range(2 * g + 2)
        },
    )
    return SurfaceTower(surface, annulus, disk, upper, lower)


def torsion_free_cover(c: Orbicomplex) -> tuple[Orbicomplex, CoveringMap]:
    """The degree-4 cover with trivial stabilizers: the attaching graph
    lifts to four disjoint copies and each disk with k >= 4 order-2 cones
    lifts to the surface S_{k-3,4}, its four boundary circles attached to
    the four copies of the disk's attachment circuit."""
    for p in c.pieces:
        try:
            k = _require_cone_disk(p)
        except NotADiskOrbifold as exc:
            raise UnsupportedPiece(f"piece {p.id} is not a cone disk") from exc
        if k < 4:
            raise UnsupportedPiece(f"piece {p.id}: needs >= 4 cones, has {k}")
        if not _fully_attached(c, p):
            raise UnsupportedPiece(f"piece {p.id}: boundary circle not fully attached")

    graph = MarkedGraph()
    vertex_map, edge_map = {}, {}
    for j in range(4):
        for v in c.graph.vertices():
            graph.marks[f"{v}.{j}"] = c.graph.marks[v]
            vertex_map[f"{v}.{j}"] = v
        for e in c.graph.edge_ids():
            u, v = c.graph.edges[e]
            graph.edges[f"{e}.{j}"] = (f"{u}.{j}", f"{v}.{j}")
            edge_map[f"{e}.{j}"] = [(e, 1)]

    pieces, attachments = [], {}
    piece_map, segmap, cone_fibers = {}, {}, {}
    for p in c.pieces:
        k = len(p.cones)
        t = len(p.boundary[0])
        pid2 = f"{p.id}.hat"
        cover = Piece(pid2, k - 3, tuple((FREE,) * t for _ in range(4)), ())
        pieces.append(cover)
        piece_map[pid2] = (p.id, 4)
        for j in range(4):
            for si in range(t):
                e, d = c.attachments[(p.id, 0, si)]
                attachments[(pid2, j, si)] = (f"{e}.{j}", d)
                segmap[(pid2, j, si)] = [(0, si, 1)]
        for cj in range(k):
            cone_fibers[(p.id, cj)] = [
                ("smooth", pid2, f"s{cj}.0"),
                ("smooth", pid2, f"s{cj}.1"),
            ]

    cover_cx = Orbicomplex(pieces=pieces, graph=graph, attachments=attachments)
    recompute_multiplicities(cover_cx)
    if c.rotation is not None:
        cover_cx.rotation = {
            f"{v}.{j}": [(f"{e}.{j}", end) for e, end in cyc]
            for j in range(4)
            for v, cyc in c.rotation.items()
        }
    f = CoveringMap(
        source=cover_cx,
        target=c,
        degree=4,
        vertex_map=vertex_map,
        edge_map=edge_map,
        piece_map=piece_map,
        segment_map=segmap,
        cone_fibers=cone_fibers,
    )
    return cover_cx, f


# ---------------------------------------------------------------------------
# composition


def compose(f: CoveringMap, g: CoveringMap) -> CoveringMap:
    """Composite covering map for f: A -> B and g: B -> C.

    Smooth preimage tokens pull back generically (a smooth point of B that
    is not itself a branch value of f has local-degree many preimages in
    each piece over it); verify the result when in doubt.
    """
    if f.target is not g.source and f.target != g.source:
        raise MismatchedComplexes("compose: f.target is not g.source")

    def orient(path: list[tuple[str, int]], d: int) -> list[tuple[str, int]]:
        return path if d == 1 else reverse_walk(path)

    edge_map = {}
    for e, path in f.edge_map.items():
        out: list[tuple[str, int]] = []
        for be, d in path:
            out.extend(orient(g.edge_map[be], d))
        edge_map[e] = out

    def orient_steps(steps: list[Step], d: int) -> list[Step]:
        return steps if d == 1 else [(ci, si, -dd) for ci, si, dd in reversed(steps)]

    segment_map = {}
    for ref, steps in f.segment_map.items():
        pid = ref[0]
        bpid = f.piece_map[pid][0]
        out_steps: list[Step] = []
        for (bci, bsi, d) in steps:
            out_steps.extend(orient_steps(g.segment_map[(bpid, bci, bsi)], d))
        segment_map[ref] = out_steps

    piece_map = {}
    for pid, (bpid, l1) in f.piece_map.items():
        cpid, l2 = g.piece_map[bpid]
        piece_map[pid] = (cpid, l1 * l2)

    cone_fibers: dict[tuple[str, int], list[tuple]] = {}
    for (cpid, j), b_tokens in g.cone_fibers.items():
        out_tokens: list[tuple] = []
        for tok in b_tokens:
            if tok[0] == "cone":
                _k, bpid, bj = tok
                out_tokens.extend(f.cone_fibers.get((bpid, bj), []))
            else:
                _k, bpid, tag = tok
                for apid, (bp, l) in sorted(f.piece_map.items()):
                    if bp == bpid:
                        out_tokens.extend(
                            ("smooth", apid, f"{tag}.{i}") for i in range(l)
                        )
        cone_fibers[(cpid, j)] = out_tokens

    return CoveringMap(
        source=f.source,
        target=g.target,
        degree=f.degree * g.degree,
        vertex_map={v: g.vertex_map[w] for v, w in f.vertex_map.items()},
        edge_map=edge_map,
        piece_map=piece_map,
        segment_map=segment_map,
        cone_fibers=cone_fibers,
    )
