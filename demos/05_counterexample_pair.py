"""Two covers with the same fundamental group that are not homeomorphic.

Among the double covers of the second floor of the tower, several share
the piece census {4 x D2(10), 8 x D2(6)} but have non-isomorphic singular
subspaces.  Thickening the singular graph in the plane gives a genus-0
surface with six boundary circles carrying the same piece incidence for
all of them, so any two are homotopy equivalent: homeomorphism fails while
the fundamental groups agree.
"""

from orbicover import compare_report, planar_normal_form
from orbicover.pipeline import build_tower

tower = build_tower()
print(f"{len(tower.family2)} covers, {len(tower.candidates)} with census 4 x D2(10) + 8 x D2(6)")
print(f"{len(tower.pairs)} pairs are homotopy equivalent but not homeomorphic")

y, z = tower.y, tower.z
report = compare_report(y, z)
print(f"\neuler characteristics: {report['euler'][0]} vs {report['euler'][1]}")
print(f"singular subspaces isomorphic: {'no' if report['singular_iso'] == 'no' else 'yes'}")
print(f"abelianizations equal: {report['abelianization'][0] == report['abelianization'][1]}")
print(f"homotopy certificate: {report['homotopy_certificate']}")
for verdict in report["verdicts"]:
    print(f"  {verdict}")

nf = planar_normal_form(y)
print(f"\nnormal form: components {list(nf.components)} "
      "(one genus-0 surface with six boundary circles)")
