"""How robust is a measurement before noise makes it useless?

Builds a few qubit measurements, evaluates their robustness, and unpacks
the certificates: the optimal primal weights, the dual states, and the
explicit pseudo-mixture that wipes the measurement out with the least
possible noise.
"""

import numpy as np

from povmrobust import (
    depolarize_povm,
    projective_povm,
    rom,
    rom_report,
    trivial_povm,
    uniform_noise_mixture,
    verify_pseudo_mixture,
)
from povmrobust.selftest import qubit_sic, qubit_trine

z = projective_povm(np.eye(2))
print("sharp qubit measurement      R =", rom(z))
print("trine (3 outcomes)           R =", rom(qubit_trine()))
print("symmetric 4-outcome          R =", rom(qubit_sic()))
print("coin flip in a box           R =", rom(trivial_povm([0.5, 0.5], 2)))
print()

print("Depolarizing the sharp measurement, step by step:")
for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"  noise weight {eta:4.2f}  ->  R = {rom(depolarize_povm(z, eta)):.4f}")
print()

report = rom_report(z)
print("Certificates for the sharp measurement:")
print("  primal weights (element norms):", report.primal_weights)
print("  dual state for outcome 0:\n", np.round(report.dual_states[0], 6))
mix = report.pseudo_mixture
print(f"  optimal pseudo-mixture: weight r = {mix.r:.4f}, outcome law q = {mix.q}")
print("  noise element for outcome 0:\n", np.round(mix.noise.elements[0], 6))
print("  decomposition verified:",
      verify_pseudo_mixture(z, mix.noise, mix.q, mix.r))
print()

noise, q, r = uniform_noise_mixture(z)
print(f"The always-available mixture needs r = {r} (never better than d - 1):")
mixed = (z.elements + r * noise.elements) / (1.0 + r)
deviation = np.abs(mixed - q[:, None, None] * np.eye(2)).max()
assert deviation <= 1e-9
print(f"  verified: (M_a + r N_a) / (1 + r) deviates from q(a) I by {deviation:.1e}")
