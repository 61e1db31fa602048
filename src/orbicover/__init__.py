"""orbicover: combinatorial 2-orbicomplexes, finite orbifold covers, and
the invariants that separate homeomorphism from homotopy equivalence."""

from .orbicore import (
    FREE,
    MIRROR,
    RAM2,
    InvalidComplex,
    MalformedRotation,
    MarkedGraph,
    Orbicomplex,
    OrbicoverError,
    Piece,
    Violation,
    disk_with_cones,
    euler_characteristic,
    graph_to_dot,
    marked_graph_isomorphism,
    piece_orbifold_euler,
    ribbon_neighborhood,
    rotation_from_circuits,
    singular_subspace,
    surface_with_boundary,
    topological_form,
    validate_complex,
    wall_mark,
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
from .covers import (
    CoveringMap,
    CoverReport,
    TwoTorsionLabeling,
    all_ones_labeling,
    compose,
    davis_double_cover,
    double_cover,
    enumerate_double_covers,
    reflection_double,
    rotation_double,
    surface_over_disk_tower,
    torsion_free_cover,
    verify_covering,
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
