"""Nijenhuis and (relative) Rota-Baxter operators, found and cross-checked.

Run with:  python3 demos/04_nijenhuis_rota_baxter.py
"""

from fractions import Fraction

from homlie import (Mat, fixture_b, induced_structures, is_nijenhuis, is_rota_baxter,
                    nijenhuis_report, search_nijenhuis, search_relative_rb,
                    search_rota_baxter)
from homlie.structures import bracket_action_on_abelian, check_representation

B = fixture_b()

# Bounded grid search over the twist commutant (integer entries).  Once per
# search, the pointwise identity and the Maurer-Cartan equation of the
# matching graded bracket are proved to have the same zeros on the commutant.
nij = search_nijenhuis(B)
print(f"Nijenhuis operators with entries in {{-1, 0, 1}} on the 3-dim fixture: {len(nij)}")
sample = next(m for m in nij if not m.is_zero() and m != Mat.identity(3))
print("one of them:")
for row in sample.rows:
    print("  ", tuple(str(x) for x in row))
report = nijenhuis_report(B, sample)
print("full verification battery:", "all passed" if report.ok else report.failed())

rb1 = search_rota_baxter(B, 1)
print()
print(f"weight-1 Rota-Baxter operators over the same grid: {len(rb1)}")
print("scalar family: -lambda * identity is always one:",
      all(is_rota_baxter(B, Mat.identity(3).scale(-Fraction(l)), l) for l in (0, 1, 2)))

# Relative operators live on an action; here the algebra acts by its bracket
# on an abelianized copy of itself.
act = bracket_action_on_abelian(B)
rel = search_relative_rb(act, 1)
print()
print(f"relative weight-1 operators for the action on the abelianized copy: {len(rel)}")
R = next(m for m in rel if not m.is_zero())
induced, module = induced_structures(act, R, 1)
print("a nonzero one induces a twisted bracket on the acted space;")
print("  induced structure is a Hom-Lie algebra and the acting space is a module:",
      check_representation(module))
pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)]
for i, j in pairs:
    val = induced.bracket(induced.space.basis_vec(i), induced.space.basis_vec(j))
    if not val.is_zero():
        print(f"  induced bracket [h{i+1}, h{j+1}] = {tuple(str(x) for x in val.entries)}")
