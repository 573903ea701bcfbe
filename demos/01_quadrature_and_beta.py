"""Quadrature with divergence detection, and the Euler Beta function.

The integrator is one tanh-sinh rule: its nodes crowd both endpoints, so
an integrable endpoint singularity costs a few dozen evaluations (27/40
below to within 1e-12 in 53), and a power law fitted at the endpoint reads
non-integrable growth as DIVERGENT instead of a large junk number.  The
Beta function routes through log-Gamma and reports DIVERGENT for a
non-positive second argument, matching the defining integral.
"""

import numpy as np

from randerslab import adaptive_integrate, beta_fn, gauss_legendre

rule = gauss_legendre(5)
print("Gauss-Legendre(5) nodes:  ", np.round(rule.nodes, 6))
print("weights sum (measure of [-1,1]):", rule.weights.sum())

res = adaptive_integrate(lambda s: s**2 * (1 - s) ** (-1 / 3), 0.0, 1.0)
print("\nint_0^1 s^2 (1-s)^(-1/3) ds")
print("  tanh-sinh:", res.value, f"({res.evaluations} evaluations)")
print("  closed form B(3, 2/3) = 27/40 =", 27 / 40)
print("  via Gamma:", beta_fn(3, 2 / 3))

res = adaptive_integrate(lambda s: s**6 * (1 - s) ** (-4 / 3), 0.0, 1.0)
print("\nint_0^1 s^6 (1-s)^(-4/3) ds ->", res.value)

print("\nBeta function on the borderline:")
for y in [1 / 3, 0.0, -1 / 3]:
    print(f"  B(7, {y:+.3f}) =", beta_fn(7, y))
