"""Robustness of asymmetry and coherence, with their game identities.

A state that is not invariant under a finite group of unitaries is a
resource; its robustness is the least noise making it invariant.  The
same triangle as for measurements holds: the robustness equals the best
advantage in the orbit discrimination game and sets the accessible
min-information of the orbit ensemble.
"""

import math

import numpy as np

from povmrobust import (
    acc_min_info_ensemble,
    dephasing_group,
    is_symmetric,
    min_error_guess_value,
    orbit_ensemble,
    roa,
    roc,
    twirl,
)
from povmrobust.discrimination import random_density_matrix

plus = np.full((2, 2), 0.5, dtype=complex)
group = dephasing_group(2)

print("the balanced superposition under phase averaging:")
print("  symmetric?", is_symmetric(plus, group))
print("  its twirl:\n", np.round(twirl(plus, group).real, 3))
report = roa(plus, group)
print(f"  robustness of asymmetry  : {report.value:.6f}")
print(f"  orbit game advantage     : {report.game_advantage:.6f}  (= 1 + value)")
print(f"  reached by the witness   : {1 + report.lower:.6f}  ({report.witness.outcomes} outcomes)")
print(f"  accessible min-info      : {report.min_info:.6f} bits (= log2(1 + value))")
print()

print("coherence is the dephasing special case:")
print(f"  qubit balanced superposition : {roc(plus).value:.6f}")
qutrit = np.full((3, 3), 1.0 / 3.0, dtype=complex)
print(f"  qutrit uniform superposition : {roc(qutrit).value:.6f}  (caps at d - 1)")
print(f"  diagonal state               : {roc(np.diag([0.7, 0.3]).astype(complex)).value:.2e}")
print()

rho = random_density_matrix(3, np.random.default_rng(99))
g3 = dephasing_group(3)
report = roa(rho, g3)
orbit = orbit_ensemble(rho, g3)
print("random qutrit state, identities cross-checked by independent solvers:")
print(f"  1 + value                  = {1 + report.value:.8f}")
print(f"  |H| * optimal guessing     = {g3.order * min_error_guess_value(orbit):.8f}")
print(f"  log2(1 + value)            = {math.log2(1 + report.value):.8f}")
print(f"  accessible min-info(orbit) = {acc_min_info_ensemble(orbit):.8f}")
