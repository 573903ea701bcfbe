"""The Randers layer: asymmetric norms, the polar transform, reversibility,
and the Funk model where the drift saturates.
"""

import numpy as np

from randerslab import (
    BetaProfile,
    FunkModel,
    RandersStructure,
    SpaceForm,
    eikonal_residual,
    finsler_gradient,
    finsler_norm,
    funk_distance,
    polar_transform,
    RadialProfile,
    reversibility,
    volume_density,
)
from randerslab.randers import global_reversibility
from randerslab.sobolev import sobolev_norms

structure = RandersStructure(SpaceForm(3, -1.0), BetaProfile("tanh", 0.4))
x = np.array([0.3, 0.1, 0.0])
y = np.array([1.0, 0.0, 0.0])

print("asymmetry of the Randers norm at", x)
print("  F(x, +y) =", finsler_norm(structure, x, y))
print("  F(x, -y) =", finsler_norm(structure, x, -y))
print("  reversibility r_F(x) =", reversibility(structure, x))
print("  volume density (1-|b|^2)^((d+1)/2) =", volume_density(structure, x))

du = np.array([0.4, -0.7, 0.2])
grad = finsler_gradient(structure, x, du)
fstar = polar_transform(structure, x, du)
print("\nLegendre-transform gradient identities:")
print("  du(grad)     =", float(du @ grad), " = F*(x, du)^2 =", fstar**2)
print("  F(x, grad)   =", finsler_norm(structure, x, grad), " = F*(x, du) =", fstar)

grid = np.linspace(0.0, 1.5, 401)
tent = RadialProfile(grid, np.clip(1.0 - grid / 1.5, 0.0, 1.0), structure)
norms = sobolev_norms(tent, structure, 2.5, qs=(2.0, 4.0))
print("\nW^{1,2.5} energy of the tent 1 - r/1.5, as p-th powers:")
print("  Finsler:    int F*(x, Du)^p dV_F + int |u|^p dV_F =", norms.w1p_finsler)
print("  Riemannian: int |grad u|^p dv_g + int |u|^p dv_g   =", norms.w1p_riemann)
print(f"  ||u||_2 = {norms.lq[2.0]:.6f}, ||u||_4 = {norms.lq[4.0]:.6f}, ||u||_inf = {norms.linf}")

funk = FunkModel(3)
print("\nFunk model: r_F =", global_reversibility(funk))
print("distance to the rim blows up:")
for r in [0.5, 0.9, 0.99, 0.999]:
    print(f"  |x| = {r:6}: d_F(0, x) = {funk_distance(3, np.array([r, 0, 0])):.4f}")

rng = np.random.default_rng(0)
worst = 0.0
for _ in range(300):
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    point = rng.uniform(0.05, 0.95) * direction
    worst = max(worst, eikonal_residual(funk, np.zeros(3), point))
print("\nmax |F*(x, D d_F(0, x)) - 1| over 300 sample points:", worst)
