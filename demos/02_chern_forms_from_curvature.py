"""Chern, Segre, and Schur forms computed from pointwise curvature data.

Run with:  python3 demos/02_chern_forms_from_curvature.py
"""

import numpy as np

from chernweil import (chern_form, chern_form_oracle, dual_nakano_sample,
                       generalized_schur_form, griffiths_certificate,
                       griffiths_energy, griffiths_minimum, schur_form,
                       segre_form, total_chern_forms, validate, wedge)

# a random dual-Nakano semipositive curvature point on C^3, rank 3
point = dual_nakano_sample(n=3, r=3, seed=7)
print("Hermitian-symmetry violations:", validate(point))

# two independently coded routes to the same Chern forms
chern = total_chern_forms(point)
for k in range(4):
    gap = (chern[k] - chern_form_oracle(point, k)).max_abs()
    print(f"c_{k}: route gap {gap:.2e}, real: {chern[k].is_real()}")

# Segre forms invert the total Chern form degree by degree
s2 = segre_form(point, 2, chern)
resid = s2 + wedge(chern[1], segre_form(point, 1, chern)) + chern[2]
print("\nseries inversion residual at degree 2:", resid.max_abs())

# the Schur form S_(2,1,0) both as a Chern determinant and as a
# generalized Schur determinant in Segre forms
via_chern = schur_form(point, (2, 1, 0), chern)
via_segre = generalized_schur_form(point, (-2, 1, 4))
print("S_(2,1,0) route gap:", (via_chern - via_segre).max_abs())

# Griffiths energies: semipositive families stay nonnegative.  An exact
# certificate (one eigenvalue problem) proves it when the point is
# (dual) Nakano semipositive; the multistart search is the fallback
v = np.array([1.0, 0.5j, 0.0])
tau = np.array([0.0, 1.0, -1.0j])
print("\nenergy at a probe:", griffiths_energy(point, v, tau))
print("certificate (kind, lambda_min):", griffiths_certificate(point))
report = griffiths_minimum(point)
print("minimum over unit vectors:", report.min_value, "->", report.status)
