"""The radial quasilinear problem on a Randers-perturbed hyperbolic plane:
coercivity constants, the parameter interval of the three-solution setup,
and the multi-start search that exhibits the zero and a nontrivial
critical point of the energy.

Takes a few seconds at the default resolution.
"""

import numpy as np

from randerslab import bonanno_parameters, example_problem, multi_start_solve
from randerslab.pde import (
    coercivity_constant,
    energy_along_ray,
    find_transition_lambda,
    finsler_ball_volume,
    grid_doubling_check,
    mckean_bound,
    replace_lambda,
)

problem = example_problem()
print("instance: d = 2 hyperbolic plane (curvature -2.25), p = 3.5, |beta| <= 0.2")
print("spectral-gap bound:", mckean_bound(problem.dim, problem.kappa, problem.p))
print(
    "coercivity constant c(d, a, p, kappa):",
    coercivity_constant(problem.dim, problem.randers.beta_sup, problem.p, problem.kappa),
)

bp = bonanno_parameters(problem, s0=1.0, big_r=1.5, small_r=0.5)
print("\nthree-solution setup (ramp witness with s0=1, R=1.5, r=0.5):")
print(f"  Phi(u1) = {bp.phi_u1:.4f}, J(u1) = {bp.j_u1:.6f}")
print(f"  sub-level threshold rho0 = {bp.rho0:.3e}")
print(f"  interval endpoint a_bar = {bp.a_bar:.4f} (strict inequalities hold: {bp.hypotheses_hold})")
for radius in (0.5, 1.5):
    print(f"  dV_F volume of the forward ball of radius {radius}: {finsler_ball_volume(problem, radius):.6f}")

print("\ncoercivity: energy along the ray t * tent ->")
prob5 = replace_lambda(problem, 5.0)
shape = np.clip(1.0 - problem.grid / 1.5, 0.0, 1.0)
shape[-1] = 0.0
for t, e in zip([1, 8, 64, 512], energy_along_ray(prob5, shape, [1, 8, 64, 512])):
    print(f"  t = {t:4d}: E = {e:.4g}")

lam_t = find_transition_lambda(problem, min(200.0, bp.a_bar))
lam = min(2.0 * lam_t, bp.a_bar)
print(f"\nnegative-energy threshold near lambda = {lam_t:.4f}; solving at lambda = {lam:.4f}")
report = multi_start_solve(problem, [lam])[0]
print(f"  {report.n_converged}/{report.n_starts} starts converged, {report.n_distinct} distinct critical points:")
for profile, e_val, g_norm in zip(report.profiles, report.energies, report.gradient_norms):
    sup = float(np.max(np.abs(profile.values)))
    check = grid_doubling_check(replace_lambda(problem, lam), profile.values)
    print(
        f"    E = {e_val:+.6f}   max u = {sup:.4f}   |grad| = {g_norm:.2e}"
        f"   (after grid doubling: {check.gradient_norm:.2e})"
    )
