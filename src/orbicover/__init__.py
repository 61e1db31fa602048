"""orbicover: combinatorial 2-orbicomplexes, finite orbifold covers, and
the invariants that separate homeomorphism from homotopy equivalence."""

from .graphs import (
    RAM2,
    MalformedRotation,
    MarkedGraph,
    OrbicoverError,
    graph_to_dot,
    marked_graph_isomorphism,
    ribbon_neighborhood,
    rotation_from_circuits,
    topological_form,
    wall_mark,
)
from .orbicore import (
    FREE,
    MIRROR,
    InvalidComplex,
    Orbicomplex,
    Piece,
    Violation,
    disk_with_cones,
    euler_characteristic,
    piece_orbifold_euler,
    singular_subspace,
    surface_with_boundary,
    validate_complex,
)
from .coxeter import (
    Branch,
    DefiningGraph,
    GroupPresentation,
    NoEssentialVertices,
    branch_decomposition,
    branch_polygon,
    davis_orbicomplex,
    demo_defining_graph,
    one_endedness_check,
    racg_presentation,
)
from .verify import CoverReport, CoveringMap, verify_covering
from .towers import (
    compose,
    reflection_double,
    rotation_double,
    surface_over_disk_tower,
    torsion_free_cover,
)
from .covers import (
    TwoTorsionLabeling,
    all_ones_labeling,
    davis_double_cover,
    double_cover,
    enumerate_double_covers,
)
from .invariants import (
    AbelianInvariants,
    NormalForm,
    abelianization,
    compare_report,
    fundamental_group_presentation,
    homotopy_equivalence_certificate,
    planar_normal_form,
    torsion_freeness,
)
from .pipeline import run_demo

__version__ = "0.1.0"
