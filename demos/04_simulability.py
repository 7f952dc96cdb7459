"""Can one measurement fake another by relabeling outcomes?

Post-processing simulability is a linear feasibility question.  When it
fails, the package does not just say no: it produces a discrimination
game on which the target measurement strictly beats anything built from
the source, and verifies the gap numerically.
"""

import numpy as np

from povmrobust import (
    StochasticMap,
    is_simulable,
    p_guess_with_measurement,
    post_process,
    projective_povm,
    random_povm,
    random_stochastic_map,
    rom,
)

z = projective_povm(np.eye(2))
x = projective_povm(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))

merged = post_process(z, StochasticMap(np.ones((2, 1))))
print("sharp measurement -> merged single outcome:",
      is_simulable(z, merged).verdict)

m = random_povm(3, 5, seed=31)
target = post_process(m, random_stochastic_map(5, 3, seed=32))
result = is_simulable(m, target)
print("random measurement -> one of its own post-processings:",
      result.verdict, f"(reconstruction residual {result.residual:.1e})")
print()

result = is_simulable(z, x)
print("sharp Z basis -> sharp X basis:", result.verdict)
print(f"  witness game gap: {result.gap:.4f}")
e = result.witness
print("  on that game, target wins "
      f"{p_guess_with_measurement(e, x):.4f} vs {p_guess_with_measurement(e, z):.4f}")
print("  witness state 0:\n", np.round(e.states[0], 4))
print()

print("exact verdicts, each negative one with its verified witness game:")
print("  Z -> merged:", is_simulable(z, merged).verdict)
print("  Z -> X     :", is_simulable(z, x).verdict)
print("  X -> Z     :", is_simulable(x, z).verdict)
print()

print("robustness can only drop along simulations:")
print(f"  R(source) = {rom(m):.4f}  >=  R(target) = {rom(target):.4f}")
