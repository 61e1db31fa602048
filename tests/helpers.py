"""Small builders that only the tests use."""

from orbicover.coxeter import DefiningGraph
from orbicover.orbicore import Orbicomplex
from orbicover.verify import CoveringMap


def identity_covering(c: Orbicomplex) -> CoveringMap:
    """The degree-1 covering of a complex by itself."""
    return CoveringMap(
        source=c,
        target=c,
        degree=1,
        vertex_map={v: v for v in c.graph.marks},
        edge_map={e: [(e, 1)] for e in c.graph.edges},
        piece_map={p.id: (p.id, 1) for p in c.pieces},
        segment_map={
            (p.id, ci, si): [(ci, si, 1)] for p in c.pieces for ci, si, _kind in p.segments()
        },
        cone_fibers={(p.id, j): [("cone", p.id, j)] for p in c.pieces for j in range(len(p.cones))},
    )


def defining_graph_to_json(g: DefiningGraph) -> dict:
    return {
        "vertices": g.sorted_vertices(),
        "edges": [list(e) for e in g.sorted_edges()],
    }
