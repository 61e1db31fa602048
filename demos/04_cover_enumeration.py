"""Enumerating double covers via labelings over Z/2.

A double cover of a cone-disk complex is classified by a homomorphism of
its orbifold fundamental group onto Z/2: values on the attaching-graph
edges off a spanning forest, completed on cone generators.  Each piece
lifts to two copies (trivial boundary monodromy, no smoothed cones) or to
one connected piece with cones duplicated or smoothed.
"""

from orbicover import euler_characteristic, verify_covering
from orbicover.pipeline import build_tower, census_display

tower = build_tower()

print("double covers of the unfolded complex (theta graph has rank 2):")
for phi, cover, cover_map in tower.family1:
    on = sorted(e for e, v in phi.edges.items() if v)
    print(
        f"  phi=1 on {on}: chi={euler_characteristic(cover)}, "
        f"pieces={census_display(cover)}, verified={verify_covering(cover_map).passed}"
    )

# exactly one labeling turns every piece into a six-cone disk; that cover
# is the next floor of the tower
assert all(len(p.cones) == 6 for p in tower.cover2.pieces)

print(f"\nits double covers (rank-3 graph, 7 labelings):")
for phi, cover, cover_map in tower.family2:
    print(f"  chi={euler_characteristic(cover)}, pieces={census_display(cover)}")
