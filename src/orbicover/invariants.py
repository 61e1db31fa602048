"""Fundamental-group presentations of orbicomplexes, abelianization via
Smith normal form, torsion-freeness, and the regular-neighborhood normal
form used to certify homotopy equivalence."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .coxeter import GroupPresentation, Word
from .covers import spanning_forest
from .orbicore import (
    FREE,
    MIRROR,
    MalformedRotation,
    Orbicomplex,
    OrbicoverError,
    _canonical_cycle,
    attachment_circuit,
    is_wall,
    euler_characteristic,
    marked_graph_isomorphism,
    require_valid,
    reverse_walk,
    ribbon_neighborhood,
    singular_subspace,
    topological_form,
)


class Disconnected(OrbicoverError):
    pass


@dataclass(frozen=True)
class AbelianInvariants:
    """H_1 as free rank plus invariant factors (each dividing the next)."""

    free_rank: int
    torsion: tuple[int, ...]

    def two_rank(self) -> int:
        return self.free_rank + sum(1 for d in self.torsion if d % 2 == 0)

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Exact arbitrary-precision arithmetic; returns only the nonzero diagonal
    entries, normalized positive.
    """
    a = [list(map(int, row)) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    factors: list[int] = []
    t = 0
    while t < rows and t < cols:
        # pivot: the nonzero entry of least absolute value in the submatrix
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]

        dirty = False
        for i in range(t + 1, rows):
            q = a[i][t] // a[t][t]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            if a[i][t]:
                dirty = True
        for j in range(t + 1, cols):
            q = a[t][j] // a[t][t]
            if q:
                for row in a:
                    row[j] -= q * row[t]
            if a[t][j]:
                dirty = True
        if dirty:
            continue
        # divisibility sweep: fold a bad entry into the pivot row
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            continue
        factors.append(a[t][t])
        t += 1
    return factors


def _exponent_matrix(p: GroupPresentation) -> list[list[int]]:
    """One row per relator: its exponent sum on each generator."""
    index = {g: i for i, g in enumerate(p.generators)}
    matrix = []
    for rel in p.relators:
        row = [0] * len(p.generators)
        for g, e in rel:
            row[index[g]] += e
        matrix.append(row)
    return matrix


def abelianization(p: GroupPresentation) -> AbelianInvariants:
    """Invariant factors of the relator exponent-sum matrix."""
    matrix = _exponent_matrix(p)
    if not matrix:
        return AbelianInvariants(len(p.generators), ())
    factors = smith_normal_form(matrix)
    torsion = tuple(d for d in factors if d > 1)
    return AbelianInvariants(len(p.generators) - len(factors), torsion)


def presentation_betti(p: GroupPresentation) -> tuple[int, int]:
    """(rank H_1, rank H_2) of the presentation 2-complex."""
    matrix = _exponent_matrix(p)
    rank = len(smith_normal_form(matrix)) if matrix else 0
    return (len(p.generators) - rank, len(p.relators) - rank)


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
    require_valid(c)
    forest = spanning_forest(c.graph)

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

    def omega(ref) -> list[tuple[str, int]]:
        att = c.attachments.get(ref)
        if att is None:
            return []
        e, d = att
        if e in edge_gen:
            return [(edge_gen[e], d)]
        return []

    # connectivity over graph components plus piece connectors
    comps = c.graph.components()
    comp_of = {}
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    parent = list(range(len(comps) + len(c.pieces)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[ry] = rx
        return True

    def circle_anchor_comp(pid: str, ci: int) -> Optional[int]:
        p = c.piece(pid)
        for si in range(len(p.boundary[ci])):
            ends = c.seg_endpoints((pid, ci, si))
            if ends is not None:
                return comp_of[ends[0]]
        return None

    tree_connectors: set[tuple[str, int]] = set()
    for pi, p in enumerate(sorted(c.pieces, key=lambda q: q.id)):
        node = len(comps) + pi
        for ci in range(len(p.boundary)):
            a = circle_anchor_comp(p.id, ci)
            if a is None:
                continue
            if union(node, a) and ci > 0:
                tree_connectors.add((p.id, ci))
    roots = {find(i) for i in range(len(parent))}
    if len(roots) > 1:
        raise Disconnected(f"{len(roots)} components")

    for p in sorted(c.pieces, key=lambda q: q.id):
        circle_words = []
        fully_attached = True
        for ci, circle in enumerate(p.boundary):
            t = len(circle)
            pref: list[list[tuple[str, int]]] = [[]]
            for si in range(t):
                pref.append(pref[si] + omega((p.id, ci, si)))
                if circle[si] == FREE and (p.id, ci, si) not in c.attachments:
                    fully_attached = False
            circle_words.append(pref[t])

            # mirror generators, squares, corner relators, wall identifications
            mirror_name = {}
            for si, kind in enumerate(circle):
                if kind == MIRROR:
                    name = f"s[{p.id}:{ci}:{si}]"
                    mirror_name[si] = name
                    gens.append(name)
                    relators.append(((name, 1), (name, 1)))
            for si in range(t):
                sj = (si + 1) % t
                if circle[si] == MIRROR and circle[sj] == MIRROR:
                    a, b = mirror_name[si], mirror_name[sj]
                    relators.append(((a, 1), (b, 1), (a, 1), (b, 1)))
                elif circle[si] != circle[sj]:
                    # mirror|free junction: the mirror is conjugate to its wall
                    mirror, free, end = (si, sj, 0) if circle[si] == MIRROR else (sj, si, 1)
                    ends = c.seg_endpoints((p.id, ci, free))
                    if ends is not None:
                        wall = wall_gen[c.graph.marks[ends[end]][1]]
                        conj = pref[sj]
                        rel = [(mirror_name[mirror], 1)] + conj + [(wall, -1)] + reverse_walk(conj)
                        relators.append(_free_reduce(rel))

        cone_names = []
        for j, m in enumerate(p.cones):
            name = f"x[{p.id}:{j}]"
            cone_names.append(name)
            gens.append(name)
            relators.append(tuple((name, 1) for _ in range(m)))

        handle_names = []
        for i in range(p.genus):
            an, bn = f"a[{p.id}:{i}]", f"b[{p.id}:{i}]"
            handle_names.append((an, bn))
            gens.extend((an, bn))

        connector = {}
        for ci in range(1, len(p.boundary)):
            if (p.id, ci) in tree_connectors:
                connector[ci] = None
            else:
                name = f"t[{p.id}:{ci}]"
                connector[ci] = name
                gens.append(name)

        if p.has_mirrors:
            if p.cones:
                raise OrbicoverError(
                    f"piece {p.id}: presentations of mirrored pieces with cones "
                    "are not supported"
                )
            if fully_attached:
                rel = _free_reduce(circle_words[0])
                if rel:
                    relators.append(rel)
            continue
        # the boundary relation identifies the glued boundary loops with the
        # cone/handle product; it only exists when every circle is glued
        # (a detached disk orbifold is a free product of its cone groups)
        if not fully_attached:
            if any(c.attachments.get((p.id, ci2, si2)) is not None
                   for ci2, si2, _k in p.segments()):
                raise Disconnected(
                    f"piece {p.id}: partially attached pieces unsupported"
                )
            continue
        word: list[tuple[str, int]] = []
        for ci, w in enumerate(circle_words):
            if ci == 0:
                word += w
            else:
                tname = connector.get(ci)
                if tname is None:
                    word += w
                else:
                    word += [(tname, 1)] + w + [(tname, -1)]
        for an, bn in handle_names:
            word += [(an, 1), (bn, 1), (an, -1), (bn, -1)]
        word += reverse_walk([(x, 1) for x in cone_names])
        relators.append(_free_reduce(word))

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
    # each entry: (piece type key, tuple of (component, face) per boundary circle)


def planar_normal_form(
    c: Orbicomplex, rotation: Optional[dict] = None
) -> Optional[NormalForm]:
    """Thicken the singular subspace along a rotation system and match every
    attachment circuit to a boundary face; None when some circuit is not a
    face of the ribbon structure."""
    require_valid(c)
    rot = rotation if rotation is not None else c.rotation
    if rot is None:
        raise MalformedRotation("no rotation system available")
    sing = singular_subspace(c)
    comps = sing.components()
    comp_data = []
    face_lookup: dict[tuple, tuple[int, int]] = {}
    for idx, comp in enumerate(comps):
        sub = sing.induced(comp)
        sub_rot = {v: rot[v] for v in sorted(comp) if v in rot}
        genus, circuits = ribbon_neighborhood(sub, sub_rot)
        comp_data.append((genus, len(circuits)))
        for fi, walk in enumerate(circuits):
            face_lookup[_canonical_cycle(walk)] = (idx, fi)

    entries = []
    for p in sorted(c.pieces, key=lambda q: q.id):
        faces = []
        for ci in range(len(p.boundary)):
            walk = attachment_circuit(c, p.id, ci)
            if walk is None:
                raise MalformedRotation(
                    f"piece {p.id} circle {ci} is not a fully attached free circle"
                )
            face = face_lookup.get(_canonical_cycle(walk))
            if face is None:
                return None
            faces.append(face)
        entries.append((p.census_key(), tuple(sorted(faces))))
    return NormalForm(tuple(comp_data), tuple(sorted(entries)))


def normal_forms_isomorphic(n1: NormalForm, n2: NormalForm) -> Optional[dict]:
    """A label-preserving isomorphism of the bipartite incidence structures,
    or None."""
    if sorted(n1.components) != sorted(n2.components):
        return None
    if sorted(k for k, _f in n1.pieces) != sorted(k for k, _f in n2.pieces):
        return None

    comps1 = list(range(len(n1.components)))
    comps2 = list(range(len(n2.components)))

    def backtrack_components():
        pools: dict[tuple, list[int]] = {}
        for j in comps2:
            pools.setdefault(n2.components[j], []).append(j)

        def rec(i, acc):
            if i == len(comps1):
                yield dict(acc)
                return
            key = n1.components[i]
            for j in list(pools.get(key, [])):
                pools[key].remove(j)
                acc[i] = j
                yield from rec(i + 1, acc)
                del acc[i]
                pools[key].append(j)

        yield from rec(0, {})

    pieces2_by_type: dict[tuple, list[int]] = {}
    for idx, (key, _faces) in enumerate(n2.pieces):
        pieces2_by_type.setdefault(key, []).append(idx)

    for comp_map in backtrack_components():
        face_map: dict[tuple[int, int], tuple[int, int]] = {}
        used2: set[int] = set()

        def piece_rec(i):
            if i == len(n1.pieces):
                return True
            key, faces1 = n1.pieces[i]
            for idx2 in pieces2_by_type.get(key, []):
                if idx2 in used2:
                    continue
                _key2, faces2 = n2.pieces[idx2]
                for perm in itertools.permutations(faces2):
                    trial = {}
                    ok = True
                    for fa, fb in zip(faces1, perm):
                        if comp_map[fa[0]] != fb[0]:
                            ok = False
                            break
                        known = face_map.get(fa, trial.get(fa))
                        if known is None:
                            if fb in face_map.values() or fb in trial.values():
                                ok = False
                                break
                            trial[fa] = fb
                        elif known != fb:
                            ok = False
                            break
                    if not ok:
                        continue
                    face_map.update(trial)
                    used2.add(idx2)
                    if piece_rec(i + 1):
                        return True
                    used2.discard(idx2)
                    for k in trial:
                        face_map.pop(k, None)
            return False

        if piece_rec(0):
            return {"components": dict(comp_map), "faces": dict(face_map)}
    return None


def homotopy_equivalence_certificate(
    c1: Orbicomplex,
    c2: Orbicomplex,
    rotation1: Optional[dict] = None,
    rotation2: Optional[dict] = None,
) -> Optional[dict]:
    """Certificate of homotopy equivalence via equal planar normal forms.

    None means inconclusive (or, when Euler characteristics differ,
    genuinely inequivalent); a certificate implies isomorphic orbifold
    fundamental groups.
    """
    if euler_characteristic(c1) != euler_characteristic(c2):
        return None
    try:
        n1 = planar_normal_form(c1, rotation1)
        n2 = planar_normal_form(c2, rotation2)
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
    require_valid(c)
    if any(p.cones or p.has_mirrors for p in c.pieces):
        return False
    return all(m is None for m in c.graph.marks.values())


# ---------------------------------------------------------------------------
# comparison reports


def compare_report(
    c1: Orbicomplex,
    c2: Orbicomplex,
    rotation1: Optional[dict] = None,
    rotation2: Optional[dict] = None,
) -> dict:
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
        cert = homotopy_equivalence_certificate(c1, c2, rotation1, rotation2)
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
