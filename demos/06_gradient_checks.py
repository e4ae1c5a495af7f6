"""
Finite-difference gradient verification
=======================================

Every analytic gradient in the package is checked against central
differences: the naming head through the min-over-faces loss, the
self-attention encoder, the co-attention decoder, and the full model
end to end. The runner samples random shapes and reports the worst
relative error per parameter tensor.
"""

import numpy as np

from charqa import nn
from charqa.harness import grad_check

reports = grad_check("all", tolerance=1e-4, n_configs=3, seed=0)
for rep in reports:
    worst = max(rep.worst.values())
    print(f"{rep.component:<12} {'PASS' if rep.passed else 'FAIL'}  "
          f"worst {worst:.2e} over {len(rep.worst)} tensors")

# The machinery underneath: probe a few entries per tensor, nudge by
# +/- 1e-5, compare the slope against the claimed gradient.
rng = np.random.default_rng(7)
w = rng.standard_normal((3, 4))
c = rng.standard_normal((3, 4))
params = {"w": w}

errors, _ = nn.check_gradients(lambda: float(np.sum(params["w"] * c)),
                            params, {"w": c})
print(f"\nlinear probe, correct gradient:   max rel err {errors['w']:.2e}")

wrong = c.copy()
wrong[0, 0] += 0.01
errors, _ = nn.check_gradients(lambda: float(np.sum(params["w"] * c)),
                            params, {"w": wrong})
print(f"linear probe, corrupted gradient: max rel err {errors['w']:.2e}")

full = next(r for r in reports if r.component == "full")
print("\nfull-model worst errors by block:")
for prefix, err in sorted(full.prefix_summary().items()):
    print(f"  {prefix:<8} {err:.2e}")
