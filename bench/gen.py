"""Seeded defining graphs for the benchmark, with their expected answers.

A graph is built from a support multigraph on k essential vertices: each
support pair is joined by 2 or 3 branches, and each branch is a path of 5 to
7 vertices whose interior vertices have valence 2.  Branch paths have at
least five vertices, so no two essential vertices are adjacent, the graph is
triangle-free, and every polygon of the Davis complex unfolds to a disk with
at least four cones (the precondition of ``torsion_free_cover``).

Every graph of one workload has the same number of branches and the same
multiset of branch lengths, so its vertex and edge counts depend only on k.
The seed chooses the support graph, which pairs carry a third branch, which
branch gets which length, and the vertex names.  Keeping the size fixed
keeps operation times comparable from seed to seed while the structure
varies.

The expected answers are closed forms for right-angled Coxeter groups W of
connected triangle-free graphs with V vertices and E edges:

* chi(W) = 1 - V/2 + E/4;
* H_1(W) = (Z/2)^V;
* H_1 of the kernel of the all-ones map W -> Z/2 (the Davis double cover)
  is (Z/2)^(V-1): Reidemeister-Schreier over the transversal {1, s_0}
  gives generators x_i = s_i s_0 with x_0 = 1 and relators (x_i x_j^-1)^2
  per edge, whose abelianization is Z^(V-1) modulo 2(x_i - x_j), and the
  differences along a spanning tree form a basis;
* W is one-ended iff no clique separates the graph.  A support that is
  2-connected has no separating clique; two blocks glued at a cut vertex
  are separated by that vertex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from orbicover.coxeter import DefiningGraph

BRANCH_LENGTHS = (5, 6, 7)


@dataclass(frozen=True)
class Spec:
    """Shape of one generated graph: blocks of the support glued at one
    shared vertex (one block means a 2-connected support), and the number
    of branches."""

    blocks: tuple[int, ...]
    branches: int

    @property
    def essential(self) -> int:
        return sum(self.blocks) - (len(self.blocks) - 1)


@dataclass(frozen=True)
class Case:
    """A generated graph with the answers the library must reproduce."""

    graph: DefiningGraph
    spec: Spec
    vertices: int
    edges: int
    euler: Fraction
    h1_base: tuple[int, ...]
    h1_cover: tuple[int, ...]
    one_ended: bool
    branch_lengths: tuple[int, ...]
    wall_valences: tuple[int, ...]


def _block_support(rng: random.Random, nodes: list[int], pairs: int) -> list[tuple[int, int]]:
    """A 2-connected simple graph on ``nodes`` with ``pairs`` edges: a random
    Hamiltonian cycle plus random chords (a single edge for two nodes)."""
    if len(nodes) == 2:
        return [tuple(nodes)]
    order = nodes[:]
    rng.shuffle(order)
    cycle = {tuple(sorted((order[i], order[(i + 1) % len(order)]))) for i in range(len(order))}
    chords = [p for p in combinations(sorted(nodes), 2) if p not in cycle]
    rng.shuffle(chords)
    return sorted(cycle) + chords[: pairs - len(cycle)]


def _pair_range(size: int) -> tuple[int, int]:
    return (1, 1) if size == 2 else (size, size * (size - 1) // 2)


def make_case(spec: Spec, rng: random.Random) -> Case:
    """Draw one graph of the given shape from ``rng``."""
    b = spec.branches
    # support pairs: at least ceil(b/3) so 3 branches a pair suffice, at
    # most what leaves every pair 2 branches and a two-node block's pair 3
    ranges = [_pair_range(s) for s in spec.blocks]
    two_node = spec.blocks.count(2)
    lo = max(-(-b // 3), sum(r[0] for r in ranges))
    hi = min((b - two_node) // 2, sum(r[1] for r in ranges))
    if lo > hi:
        raise ValueError(f"no support for {spec}")
    total = rng.randint(lo, hi)
    # split the pair count over blocks within each block's range
    per_block = [r[0] for r in ranges]
    spare = [i for i, r in enumerate(ranges) for _ in range(r[1] - r[0])]
    rng.shuffle(spare)
    for i in spare[: total - sum(per_block)]:
        per_block[i] += 1

    support: list[tuple[int, int]] = []
    forced: list[int] = []  # a two-node block needs 3 branches for valence 3
    start = 0
    for size, pairs in zip(spec.blocks, per_block):
        nodes = list(range(start, start + size))
        if size == 2:
            forced.append(len(support))
        support += _block_support(rng, nodes, pairs)
        start += size - 1  # the last node of a block is the first of the next

    counts = [2] * len(support)
    free = [i for i in range(len(support)) if i not in forced]
    for i in forced + rng.sample(free, b - 2 * len(support) - len(forced)):
        counts[i] = 3
    lengths = [BRANCH_LENGTHS[i % len(BRANCH_LENGTHS)] for i in range(b)]
    rng.shuffle(lengths)

    k = spec.essential
    nv = k
    edges: list[tuple[int, int]] = []
    it = iter(lengths)
    for (u, w), c in zip(support, counts):
        for _ in range(c):
            n = next(it)
            path = [u, *range(nv, nv + n - 2), w]
            nv += n - 2
            edges += zip(path, path[1:])
    perm = list(range(nv))
    rng.shuffle(perm)
    names = [f"v{perm[i]:04d}" for i in range(nv)]
    graph = DefiningGraph.from_edges(names, [(names[u], names[w]) for u, w in edges])

    valence = [0] * k
    for (u, w), c in zip(support, counts):
        valence[u] += c
        valence[w] += c
    return Case(
        graph=graph,
        spec=spec,
        vertices=nv,
        edges=len(edges),
        euler=1 - Fraction(nv, 2) + Fraction(len(edges), 4),
        h1_base=(2,) * nv,
        h1_cover=(2,) * (nv - 1),
        one_ended=len(spec.blocks) == 1,
        branch_lengths=tuple(sorted(lengths)),
        wall_valences=tuple(sorted(valence)),
    )


# Sizes are chosen so that one operation takes about 0.3 s on a 2.1 GHz
# Xeon, which gives about a hundred operations per run: enough for the tail
# percentile to have ten samples beyond it well above the median.

# One graph per shape and pass: three 2-connected supports and two
# cut-vertex graphs (6 and 7 essential vertices), 18 branches each.
INVARIANTS_SPECS = (
    Spec((5,), 18),
    Spec((6,), 18),
    Spec((7,), 18),
    Spec((2, 5), 18),
    Spec((4, 4), 18),
)

# 14 to 18 essential vertices, 90 branches (polygons) each.
COVERS_SPECS = tuple(Spec((k,), 90) for k in range(14, 19))


def make_cases(specs: tuple[Spec, ...], seed: int) -> list[Case]:
    """One case per spec, all drawn from one generator seeded by ``seed``."""
    rng = random.Random(seed)
    return [make_case(spec, rng) for spec in specs]
