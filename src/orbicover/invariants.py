"""Fundamental-group presentations of orbicomplexes, abelianization via
Smith normal form, torsion-freeness, and the regular-neighborhood normal
form used to certify homotopy equivalence."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional

from .coxeter import GroupPresentation, Word
from .graphs import (
    MalformedRotation,
    MarkedGraph,
    OrbicoverError,
    is_wall,
    iter_marked_graph_isomorphisms,
    marked_graph_isomorphism,
    reverse_walk,
    ribbon_neighborhood,
    topological_form,
)
from .orbicore import (
    MIRROR,
    Orbicomplex,
    _canonical_cycle,
    attachment_circuit,
    euler_characteristic,
    singular_subspace,
)


class Disconnected(OrbicoverError):
    pass


@dataclass(frozen=True)
class AbelianInvariants:
    """H_1 as free rank plus invariant factors (each dividing the next)."""

    free_rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix, positive.

    Sparse elimination over {column: entry} rows (Havas and Majewski 1997),
    in rounds of two passes.  Unit pivots go first, from a worklist: each
    clears its column exactly and leaves as a 1.  Then each singleton row
    d*e_c clears the multiples of d from column c, reduces the column's
    entries larger than |d| mod d, and leaves as |d| once alone in it.
    When entries remain, one of least |value| (then row, then column)
    clears its column by row operations and, if then alone there, reduces
    its row mod itself by column operations, leaving an entry below the
    least |value| or a singleton.  The singleton pass makes no entry
    larger, so the rounds end.  The diagonal is regrouped by (gcd, lcm).
    """
    return _invariant_factors([{j: x for j, x in enumerate(row) if x} for row in matrix])


def _invariant_factors(sparse: list[dict[int, int]]) -> list[int]:
    """smith_normal_form of {column: nonzero entry} rows, which it consumes."""
    rows = dict(enumerate(sparse))
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)

    def clear_column(pi: int, pj: int) -> list[tuple[int, int]]:
        """Row operations by pivot (pi, pj) that leave only remainders in
        column pj: the entries they change that stay nonzero."""
        prow, changed = rows[pi], []
        p = prow[pj]
        for i in cols[pj] - {pi}:
            row = rows[i]
            q = row[pj] // p
            for j, x in prow.items():
                y = row.get(j, 0) - q * x
                if y:
                    cols[j].add(i)
                    row[j] = y
                    changed.append((i, j))
                elif j in row:
                    del row[j]
                    cols[j].discard(i)
        return changed

    diagonal = []
    while True:
        # unit pivots clear their columns exactly and leave as 1s
        units = [(i, j) for i, row in rows.items() for j, x in row.items() if x in (1, -1)]
        while units:
            pi, pj = units.pop()
            if rows.get(pi, {}).get(pj) in (1, -1):
                units += [(i, j) for i, j in clear_column(pi, pj) if rows[i][j] in (1, -1)]
                for j in rows.pop(pi):
                    cols[j].discard(pi)
                del cols[pj]
                diagonal.append(1)
        # a singleton row d*e_j clears the multiples of d from column j and
        # reduces its entries larger than |d| mod d, touching column j alone;
        # it leaves as |d| once it is alone in its column
        singles = [i for i, row in rows.items() if len(row) == 1]
        for pi in singles:
            if len(rows.get(pi, ())) == 1:
                [(pj, d)] = rows[pi].items()
                for i in cols[pj] - {pi}:
                    row = rows[i]
                    if not row[pj] % d:
                        del row[pj]
                        cols[pj].discard(i)
                        singles.append(i)
                    elif abs(row[pj]) > abs(d):
                        row[pj] %= d
                if cols[pj] == {pi}:
                    diagonal.append(abs(d))
                    del rows[pi], cols[pj]
        # an entry of least |value| clears its column by row operations;
        # alone there, it reduces its row mod itself by column operations
        least = min(((abs(x), i, j) for i, row in rows.items() for j, x in row.items()), default=None)
        if least is None:
            break
        _, pi, pj = least
        clear_column(pi, pj)
        if cols[pj] == {pi}:
            prow = rows[pi]
            p = prow[pj]
            for j in [j for j in prow if j != pj]:
                prow[j] %= p
                if not prow[j]:
                    del prow[j]
                    cols[j].discard(pi)
    chain: list[int] = []
    for d in sorted(diagonal):
        if chain and d % chain[-1]:
            for k, c in enumerate(chain):
                chain[k], d = gcd(c, d), lcm(c, d)
        chain.append(d)
    return chain


def abelianization(p: GroupPresentation) -> AbelianInvariants:
    """Invariant factors of the relator exponent-sum matrix, built as sparse
    rows with zero sums left out."""
    index = {g: i for i, g in enumerate(p.generators)}
    rows = []
    for rel in p.relators:
        row: dict[int, int] = {}
        for g, e in rel:
            j = index[g]
            row[j] = row.get(j, 0) + e
        rows.append({j: x for j, x in row.items() if x})
    factors = _invariant_factors(rows)
    torsion = tuple(d for d in factors if d > 1)
    return AbelianInvariants(len(p.generators) - len(factors), torsion)


# ---------------------------------------------------------------------------
# fundamental group presentations


def _free_reduce(word: list[tuple[str, int]]) -> Word:
    out: list[tuple[str, int]] = []
    for g, e in word:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def fundamental_group_presentation(c: Orbicomplex) -> GroupPresentation:
    """Orbifold fundamental group of a connected complex.

    Generators: non-forest attaching-graph edges, one involution per wall,
    and per piece its mirror-segment reflections, cone rotations, handle
    pairs, and (for multi-circle pieces) boundary connectors.  Relators:
    squares, right-angle corner relators along mirror chains, wall
    identifications conjugated by the attachment path, and one boundary
    relation per piece.  A deterministic subset of connectors is declared
    trivial so the presentation spans all graph components, which keeps the
    presentation complex Euler-equivalent to the orbicomplex.
    """
    comps, forest = c.graph._search()
    attachments = c.attachments
    pieces = sorted(c.pieces, key=lambda q: q.id)

    gens: list[str] = []
    relators: list[Word] = []

    edge_gen = {}
    for e in c.graph.edge_ids():
        if e not in forest:
            edge_gen[e] = f"e[{e}]"
            gens.append(edge_gen[e])

    wall_gen = {}
    for v in c.graph.vertices():
        mark = c.graph.marks[v]
        if is_wall(mark):
            name = f"w[{mark[1]}]"
            wall_gen[mark[1]] = name
            gens.append(name)
            relators.append(((name, 1), (name, 1)))

    # connectivity: each circle joins its piece to the graph component of
    # its first attached segment; a later circle that merges is a tree connector
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    parent = list(range(len(comps) + len(pieces)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree_connectors: set[tuple[str, int]] = set()
    for node, p in enumerate(pieces, len(comps)):
        for ci, circle in enumerate(p.boundary):
            for si in range(len(circle)):
                ends = c.seg_endpoints((p.id, ci, si))
                if ends is not None:
                    root, other = find(node), find(comp_of[ends[0]])
                    if root != other:
                        parent[other] = root
                        if ci:
                            tree_connectors.add((p.id, ci))
                    break
    roots = {find(i) for i in range(len(parent))}
    if len(roots) > 1:
        raise Disconnected(f"{len(roots)} components")

    for p in pieces:
        boundary: list[tuple[str, int]] = []
        connectors = []
        free = attached = 0
        for ci, circle in enumerate(p.boundary):
            # the circle's edge letters, cut[si] of them before segment si
            word: list[tuple[str, int]] = []
            cut = []
            mirror_name = {}
            for si, kind in enumerate(circle):
                cut.append(len(word))
                if kind == MIRROR:
                    name = f"s[{p.id}:{ci}:{si}]"
                    mirror_name[si] = name
                    gens.append(name)
                    relators.append(((name, 1), (name, 1)))
                    continue
                free += 1
                att = attachments.get((p.id, ci, si))
                if att is not None:
                    attached += 1
                    if att[0] in edge_gen:
                        word.append((edge_gen[att[0]], att[1]))

            t = len(circle)
            for si in range(t):
                sj = (si + 1) % t
                if circle[si] == MIRROR and circle[sj] == MIRROR:
                    a, b = mirror_name[si], mirror_name[sj]
                    relators.append(((a, 1), (b, 1), (a, 1), (b, 1)))
                elif circle[si] != circle[sj]:
                    # mirror|free junction: the mirror is conjugate to its wall
                    mirror, free_si, end = (si, sj, 0) if circle[si] == MIRROR else (sj, si, 1)
                    ends = c.seg_endpoints((p.id, ci, free_si))
                    if ends is not None:
                        wall = wall_gen[c.graph.marks[ends[end]][1]]
                        conj = word[:cut[sj]]
                        rel = [(mirror_name[mirror], 1)] + conj + [(wall, -1)] + reverse_walk(conj)
                        relators.append(_free_reduce(rel))
            if ci and (p.id, ci) not in tree_connectors:
                name = f"t[{p.id}:{ci}]"
                connectors.append(name)
                word = [(name, 1)] + word + [(name, -1)]
            boundary += word

        for j, m in enumerate(p.cones):
            name = f"x[{p.id}:{j}]"
            gens.append(name)
            relators.append(tuple((name, 1) for _ in range(m)))

        handles: list[tuple[str, int]] = []
        for i in range(p.genus):
            a, b = f"a[{p.id}:{i}]", f"b[{p.id}:{i}]"
            gens.extend((a, b))
            handles += [(a, 1), (b, 1), (a, -1), (b, -1)]
        gens += connectors

        if p.has_mirrors:
            if p.cones:
                raise OrbicoverError(
                    f"piece {p.id}: presentations of mirrored pieces with cones "
                    "are not supported"
                )
            if attached == free:
                relators.append(_free_reduce(boundary))
            continue
        # the boundary relation identifies the glued boundary loops with the
        # cone/handle product; it only exists when every circle is glued
        # (a detached disk orbifold is a free product of its cone groups)
        if attached < free:
            if attached:
                raise Disconnected(
                    f"piece {p.id}: partially attached pieces unsupported"
                )
            continue
        boundary += handles + [(f"x[{p.id}:{j}]", -1) for j in reversed(range(len(p.cones)))]
        relators.append(_free_reduce(boundary))

    relators = [r for r in relators if r]
    return GroupPresentation(tuple(gens), tuple(relators))


# ---------------------------------------------------------------------------
# planar normal forms


@dataclass(frozen=True)
class NormalForm:
    """Regular-neighborhood data of the singular subspace: surface
    components with their boundary-circle counts, plus the bipartite
    incidence between neighborhood circles and attached piece types."""

    components: tuple[tuple[int, int], ...]  # (genus, circle count) per component
    pieces: tuple[tuple[tuple, tuple[tuple[int, int], ...]], ...]
    # each entry: ((genus, circle count, sorted cone orders), tuple of
    # (component, face) per boundary circle); every circle is free


def planar_normal_form(c: Orbicomplex) -> Optional[NormalForm]:
    """Thicken the singular subspace along the complex's rotation system and
    match every attachment circuit to a boundary face; None when some
    circuit is not a face of the ribbon structure."""
    if c.rotation is None:
        raise MalformedRotation("no rotation system available")
    # the singular subspace has the attaching graph's vertices and edges
    comps = ribbon_neighborhood(c.graph, c.rotation)
    face_lookup = {
        _canonical_cycle(walk): (idx, fi)
        for idx, (_genus, circuits) in enumerate(comps)
        for fi, walk in enumerate(circuits)
    }

    entries = []
    for p in sorted(c.pieces, key=lambda q: q.id):
        faces = []
        for ci in range(len(p.boundary)):
            walk = attachment_circuit(c.attachments, p, ci)
            if walk is None:
                raise MalformedRotation(
                    f"piece {p.id} circle {ci} is not a fully attached free circle"
                )
            face = face_lookup.get(_canonical_cycle(walk))
            if face is None:
                return None
            faces.append(face)
        key = (p.genus, len(p.boundary), tuple(sorted(p.cones)))
        entries.append((key, tuple(sorted(faces))))
    components = tuple((genus, len(circuits)) for genus, circuits in comps)
    return NormalForm(components, tuple(sorted(entries)))


def _incidence_graph(n: NormalForm) -> tuple[MarkedGraph, dict[str, tuple], dict[str, tuple]]:
    """A normal form as a coloured multigraph: a vertex per component, face
    and piece; an edge from each face to its component, and one from each
    piece per boundary circle to its face.  Returns the graph, the vertex
    colours, and per component or face vertex its part of a matching and
    its cell there."""
    g = MarkedGraph()
    colours: dict[str, tuple] = {}
    cells: dict[str, tuple] = {}

    def vertex(v: str, colour: tuple) -> str:
        g.marks[v], colours[v] = None, colour
        return v

    for i, (genus, circles) in enumerate(n.components):
        comp = vertex(f"c{i}", (0, genus, circles))
        cells[comp] = ("components", i)
        for f in range(circles):
            face = vertex(f"f{i}.{f}", (1,))
            cells[face] = ("faces", (i, f))
            g.edges[face] = (face, comp)
    for k, (key, faces) in enumerate(n.pieces):
        piece = vertex(f"p{k}", (2, key))
        for ci, (i, f) in enumerate(faces):
            g.edges[f"{piece}.{ci}"] = (piece, f"f{i}.{f}")
    return g, colours, cells


def normal_forms_isomorphic(n1: NormalForm, n2: NormalForm) -> Optional[dict]:
    """A bijection of components and of faces under which the pieces, with
    their types and face incidences, correspond; None if there is none.

    Returned as ``{"components": {i: j}, "faces": {(i, f): (j, g)}}``.
    """
    g1, colours1, cells1 = _incidence_graph(n1)
    g2, colours2, cells2 = _incidence_graph(n2)
    vmap = next(iter_marked_graph_isomorphisms(g1, colours1, g2, colours2), None)
    if vmap is None:
        return None
    matching: dict[str, dict] = {"components": {}, "faces": {}}
    for v, (part, cell) in cells1.items():
        matching[part][cell] = cells2[vmap[v]][1]
    return matching


def homotopy_equivalence_certificate(c1: Orbicomplex, c2: Orbicomplex) -> Optional[dict]:
    """Certificate of homotopy equivalence via equal planar normal forms.

    None means inconclusive (or, when Euler characteristics differ,
    genuinely inequivalent); a certificate implies isomorphic orbifold
    fundamental groups.
    """
    if euler_characteristic(c1) != euler_characteristic(c2):
        return None
    try:
        n1 = planar_normal_form(c1)
        n2 = planar_normal_form(c2)
    except MalformedRotation:
        return None
    if n1 is None or n2 is None:
        return None
    matching = normal_forms_isomorphic(n1, n2)
    if matching is None:
        return None
    return {"normal_form": n1, "matching": matching}


def torsion_freeness(c: Orbicomplex) -> bool:
    """True iff every local group is trivial: no cones, no mirror segments,
    no marked graph vertices."""
    if any(p.cones or p.has_mirrors for p in c.pieces):
        return False
    return all(m is None for m in c.graph.marks.values())


# ---------------------------------------------------------------------------
# comparison reports


def compare_report(c1: Orbicomplex, c2: Orbicomplex) -> dict:
    """Invariant comparison: Euler characteristics, singular-subspace
    homeomorphism verdict, abelianizations, homotopy certificate."""
    chi1, chi2 = euler_characteristic(c1), euler_characteristic(c2)
    s1 = topological_form(singular_subspace(c1))
    s2 = topological_form(singular_subspace(c2))
    iso = marked_graph_isomorphism(s1, s2)

    ab1 = abelianization(fundamental_group_presentation(c1))
    ab2 = abelianization(fundamental_group_presentation(c2))

    verdicts = []
    if chi1 != chi2:
        certificate_status = "absent"
        verdicts.append("not homotopy equivalent (Euler characteristics differ)")
    else:
        cert = homotopy_equivalence_certificate(c1, c2)
        if cert is not None:
            certificate_status = "present"
            verdicts.append("homotopy equivalent (equal planar normal forms)")
        else:
            certificate_status = "inconclusive"
            verdicts.append("homotopy equivalence inconclusive")
    if iso is None:
        verdicts.append("not homeomorphic (singular subspaces non-isomorphic)")
    else:
        verdicts.append("singular subspaces homeomorphic")
    if ab1 != ab2:
        verdicts.append("fundamental groups non-isomorphic (abelianizations differ)")

    return {
        "euler": (chi1, chi2),
        "singular_iso": iso if iso is not None else "no",
        "abelianization": (ab1, ab2),
        "homotopy_certificate": certificate_status,
        "verdicts": verdicts,
    }
