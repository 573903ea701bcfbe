"""Isometry orbits and geodesic ball packings: the counts blow up with the
distance from the fixed point, which is the numerical face of the Sobolev
compactness mechanism on these spaces.
"""

import numpy as np

from randerslab import GroupAction, MatrixPoint, SpaceForm, packing_count
from randerslab.orbits import (
    FULL_ROTATION,
    PRODUCT_ROTATION,
    coercivity_probe,
    expansion_profile,
    orbit_hausdorff_matrix,
    orbit_hausdorff_product_spheres,
    spherical_cap_count,
    tangent_packing_lower_bound,
)

rotation = GroupAction(FULL_ROTATION)
euclid = SpaceForm(2, 0.0)

print("disjoint unit balls on circles of growing radius (flat plane):")
for row in expansion_profile(rotation, euclid, 1.0, np.geomspace(10, 1000, 5)):
    print(
        f"  |y| = {row['distance']:8.2f}: {row['count']:5d} balls"
        f"   (count / pi|y| = {row['count'] / (np.pi * row['distance']):.4f})"
    )

print("\ncoerciveness (Skrzypczak-Tintarev): no orbit of diameter <= 1 far out")
for radius in [10.0, 100.0, 1000.0]:
    rep = coercivity_probe(rotation, euclid, 1.0, radius)
    print(
        f"  shell d in [{radius / 2:g}, {radius:g}]: smallest orbit diameter"
        f" {rep.min_diameter:.2f}, orbit of diameter <= 1 found: {rep.small_orbit_found}"
    )

hyp = SpaceForm(2, -1.0)
print("\nthe same near the rim of the curvature -1 disk:")
for chart in [0.9, 0.99, 0.999]:
    rep = packing_count(rotation, hyp, np.array([chart, 0.0]), 1.0)
    norm = rep.count * (1 - chart**2) / chart
    print(f"  |y| = {chart}: {rep.count:5d} balls   count (1-|y|^2)/|y| = {norm:.3f}")

product = GroupAction(PRODUCT_ROTATION, (2, 2))
print("\ntorus orbits of a two-block rotation group in R^4 (rho = 30):")
for t in [10.0, 100.0, 1000.0]:
    y = np.array([t, 0.0, t, 0.0]) / np.sqrt(2.0)
    rep = packing_count(product, SpaceForm(4, 0.0), y, 30.0)
    print(f"  t = {t:6}: {rep.count} balls")

print("\ntangent-space lower bound vs the exact circle count:")
angles = [np.pi / 2] * 6  # pairwise angles of four orthogonal rays
print("  bound with 4 rays at right angles, rho=1, t=2:", tangent_packing_lower_bound(angles, 1.0, 2.0))
print("  cap-covering estimate, d=3, rho=1, t=100:", spherical_cap_count(3, 1.0, 100.0))

print("\norbit measures behind the linear-growth hypothesis:")
m = orbit_hausdorff_matrix(MatrixPoint.diagonal(100.0))
print(f"  matrix cone at diag(100, 0.01): curve length {m.length:.4f} >= pi * {m.distance_to_identity:.4f}")
p = orbit_hausdorff_product_spheres([2, 2], np.array([1.0, 0.0, 1.0, 0.0]))
print(f"  product of circles: measure {p.measure:.4f} >= bound {p.lower_bound:.4f} (m_G = {p.m_g})")
