"""Pushing the counterexample to torsion-free fundamental groups.

A surface of genus g with four boundary circles quotients twice by
half-turns down to a disk with g+3 cone points; running that tower in
reverse lifts every cone disk of the pair to a surface over four copies of
the singular graph.  The degree-4 covers have torsion-free fundamental
groups, stay homotopy equivalent, and still are not homeomorphic.
"""

from orbicover import (
    euler_characteristic,
    homotopy_equivalence_certificate,
    marked_graph_isomorphism,
    singular_subspace,
    surface_over_disk_tower,
    topological_form,
    torsion_freeness,
    verify_covering,
)
from orbicover.pipeline import build_tower

# the two rotation quotients of the relevant surfaces
for genus in (3, 7):
    tower = surface_over_disk_tower(genus)
    print(
        f"S_{genus},4 -> annulus({len(tower.annulus.cones)} cones) -> "
        f"D2({len(tower.disk.cones)}): verified "
        f"{verify_covering(tower.upper).passed and verify_covering(tower.lower).passed}"
    )

# the pair and its torsion-free covers, from the pipeline's tower
t = build_tower()
for name, cx, hat, cover_map in (
    ("first", t.y, t.y_hat, t.y_hat_map),
    ("second", t.z, t.z_hat, t.z_hat_map),
):
    report = verify_covering(cover_map)
    print(f"\n{name} cover lifts to degree {report.degree}: verified {report.passed}")
    print(f"  chi = {euler_characteristic(hat)} = 4 * {euler_characteristic(cx)}")
    print(f"  torsion-free: {torsion_freeness(hat)}")
    print(f"  pieces: {sorted((p.genus, len(p.boundary)) for p in hat.pieces)}")
    print(f"  graph components: {len(hat.graph.components())} (four copies of the singular graph)")

still_noniso = marked_graph_isomorphism(
    topological_form(singular_subspace(t.y_hat)),
    topological_form(singular_subspace(t.z_hat)),
) is None
print(f"\nsingular subspaces still non-isomorphic: {still_noniso}")
print(f"homotopy certificate: {homotopy_equivalence_certificate(t.y_hat, t.z_hat) is not None}")
