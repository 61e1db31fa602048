"""Lemma-style doubles of single pieces, and the preconditions on pieces
that the cover constructions share: a reflection polygon, a disk with
order-2 cones, a fully attached piece."""

from __future__ import annotations

from typing import Sequence

from .graphs import OrbicoverError
from .orbicore import FREE, MIRROR, Orbicomplex, Piece, SegRef, disk_with_cones
from .verify import CoveringMap, Step


class NotAPolygon(OrbicoverError):
    pass


class NotADiskOrbifold(OrbicoverError):
    pass


class UnsupportedPiece(OrbicoverError):
    pass


def _require_polygon(p: Piece) -> int:
    """Number of mirror segments of a branch polygon [free, mirror^n, free]."""
    msg = (
        f"piece {p.id}: not a reflection polygon (needs genus 0, no cones, "
        "one boundary circle [free, mirror^n, free] with n >= 1)"
    )
    if p.genus != 0 or p.cones or len(p.boundary) != 1:
        raise NotAPolygon(msg)
    circle = p.boundary[0]
    n = len(circle) - 2
    if n < 1 or circle != (FREE,) + (MIRROR,) * n + (FREE,):
        raise NotAPolygon(msg)
    return n


def _polygon_lift(n: int, glued: Sequence[int]) -> list[tuple[int, int]]:
    """The one boundary circle of two sheets of the polygon [free, mirror^n,
    free] glued along the run of mirrors glued[0]..glued[-1], as (segment,
    sheet) pairs; sheet 1 is traversed backwards."""
    a, b = glued[0], glued[-1]
    return (
        [(si, 0) for si in range(a)]
        + [(si, 1) for si in range(a - 1, -1, -1)]
        + [(si, 1) for si in range(n + 1, b, -1)]
        + [(si, 0) for si in range(b + 1, n + 2)]
    )


def reflection_double(p: Piece) -> tuple[Piece, CoveringMap]:
    """Unfold every mirror of a reflection polygon: the disk with n-1
    order-2 cone points double-covers the polygon with n mirror segments,
    corners descending to the cones."""
    n = _require_polygon(p)
    target = Orbicomplex(pieces=(p,))
    cover_piece = disk_with_cones(f"{p.id}.d", n - 1, n_segments=4)
    source = Orbicomplex(pieces=(cover_piece,))
    segmap: dict[SegRef, list[Step]] = {
        (cover_piece.id, 0, i): [(0, si, 1 - 2 * sheet)]
        for i, (si, sheet) in enumerate(_polygon_lift(n, range(1, n + 1)))
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
        raise NotADiskOrbifold(
            f"piece {p.id}: not a disk orbifold (needs genus 0, one boundary circle, no mirrors)"
        )
    if any(m != 2 for m in p.cones):
        raise NotADiskOrbifold(f"piece {p.id}: cone orders {p.cones} (needs order 2 only)")
    return len(p.cones)


def _cone_disk_double(
    base: Piece, pid: str, smoothed: Sequence[int]
) -> tuple[int, tuple[int, ...], dict[tuple[str, int], list[tuple]]]:
    """The connected double ``pid`` of a disk with order-2 cones, branched at
    the cones j with smoothed[j] = 1 (Riemann-Hurwitz): its genus, its cones
    and the cone fibres.  Each other cone lifts to the next two cones in
    order; the boundary lifts to one circle of two laps when an odd number
    of cones is smoothed, else to two circles."""
    k1 = sum(smoothed)
    fibers: dict[tuple[str, int], list[tuple]] = {}
    new_cone = 0
    for j, val in enumerate(smoothed):
        if val:
            fibers[(base.id, j)] = [("smooth", pid, f"c{j}")]
        else:
            fibers[(base.id, j)] = [("cone", pid, new_cone), ("cone", pid, new_cone + 1)]
            new_cone += 2
    return (k1 - 2 + k1 % 2) // 2, (2,) * new_cone, fibers


def rotation_double(p: Piece) -> tuple[Piece, CoveringMap]:
    """Rotate a disk orbifold with m+1 order-2 cones by a half turn: the
    disk with 2m cones double-covers it, the fixed point descending to one
    cone (single smooth preimage), every other cone lifting twice."""
    k = _require_cone_disk(p)
    if k < 2:
        raise NotADiskOrbifold(f"piece {p.id}: needs at least 2 cones")
    t = len(p.boundary[0])
    pid = f"{p.id}.r"
    genus, cones, fibers = _cone_disk_double(p, pid, [1] + [0] * (k - 1))
    cover_piece = Piece(pid, genus, ((FREE,) * (2 * t),), cones)
    f = CoveringMap(
        source=Orbicomplex(pieces=(cover_piece,)),
        target=Orbicomplex(pieces=(p,)),
        degree=2,
        piece_map={pid: (p.id, 2)},
        segment_map={(pid, 0, j): [(0, j % t, 1)] for j in range(2 * t)},
        cone_fibers=fibers,
    )
    return cover_piece, f


def _fully_attached(c: Orbicomplex, p: Piece) -> bool:
    return all(
        (p.id, ci, si) in c.attachments
        for ci, si, kind in p.segments()
        if kind == FREE
    )
