"""Isometry-orbit machinery: sampling, geodesic ball packing, orbit measures.

Three enumerated actions are supported:

- FULL_ROTATION: the orthogonal group fixing the origin of a SpaceForm; the
  orbit of y is the geodesic sphere through y.
- PRODUCT_ROTATION: O(d_1) x ... x O(d_k) acting blockwise on Euclidean
  R^d; the orbit of y is a product of spheres with radii |y_i|.
- MATRIX_CONJUGATION: SO(2) acting by conjugation on the determinant-one
  positive cone P(2, R)_1 with its trace metric.

packing_count reports a certified number of mutually disjoint geodesic
rho-balls centered on an orbit: the exact angular count where the orbit is
a circle, otherwise a deterministic greedy walk whose result is a lower
bound.  Every report carries its centers and is verified pairwise.

The threshold 2 rho is a fixed Euclidean chord threshold on every orbit
packed here: a FULL_ROTATION orbit keeps one chart radius r, so in the
Poincare ball d = acosh(1 + 2|x-y|^2 / (1-r^2)^2) / k; product orbits are
Euclidean; on a conjugation orbit det = 1 and the trace is constant, so
tr(X^-1 Y) = 2 + |X-Y|_F^2 / 2 (Cayley-Hamilton) and (a, sqrt2 b, c) carries
the Frobenius norm.  The greedy walks and the certificate search a
scipy.spatial.cKDTree of that embedding and measure the pairs it returns
with the exact distance formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .modelspace import (
    EUCLIDEAN,
    POINCARE_BALL,
    SpaceForm,
    geodesic_distance,
    s_c,
    sphere_area,
)

__all__ = [
    "FULL_ROTATION",
    "PRODUCT_ROTATION",
    "MATRIX_CONJUGATION",
    "GREEDY",
    "ANGULAR_EXACT",
    "GroupAction",
    "MatrixPoint",
    "PackingReport",
    "CoercivityReport",
    "orbit_sample",
    "packing_count",
    "expansion_profile",
    "orbit_diameter",
    "coercivity_probe",
    "tangent_packing_lower_bound",
    "spherical_cap_count",
    "orbit_hausdorff_product_spheres",
    "orbit_hausdorff_matrix",
    "matrix_distance",
]

FULL_ROTATION = "FULL_ROTATION"
PRODUCT_ROTATION = "PRODUCT_ROTATION"
MATRIX_CONJUGATION = "MATRIX_CONJUGATION"

GREEDY = "GREEDY"
ANGULAR_EXACT = "ANGULAR_EXACT"

_WALK_SUBDIVISION = 20  # greedy walk step is rho / this
_MAX_WALK = 500_000
_MAX_CENTERS = 200_000
_CHORD_SLACK = 1e-9  # relative room for rounding between chords and exact distances


@dataclass(frozen=True)
class GroupAction:
    """An enumerated compact isometry action."""

    kind: str
    blocks: tuple = ()

    def __post_init__(self):
        if self.kind not in (FULL_ROTATION, PRODUCT_ROTATION, MATRIX_CONJUGATION):
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind == PRODUCT_ROTATION:
            blocks = tuple(int(b) for b in self.blocks)
            if len(blocks) < 1 or any(b < 2 for b in blocks):
                raise ValueError("product rotation blocks must all have dim >= 2")
            object.__setattr__(self, "blocks", blocks)
        elif self.blocks:
            raise ValueError(f"{self.kind} takes no blocks")


@dataclass(frozen=True)
class MatrixPoint:
    """Element of P(2, R)_1: symmetric positive definite with det = 1."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.a <= 0 or self.c <= 0:
            raise ValueError("diagonal entries must be positive")
        # relative to |X|_F^2 / 2, which is 1 at the identity: rounding moves
        # ac - b^2 in proportion to the size of the entries
        scale = 0.5 * (self.a * self.a + 2.0 * self.b * self.b + self.c * self.c)
        if abs(self.a * self.c - self.b * self.b - 1.0) > 1e-10 * scale:
            raise ValueError(
                f"determinant constraint violated: ac - b^2 = {self.a*self.c - self.b**2}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.b, self.c]])

    @property
    def eigenvalues(self):
        tr = self.a + self.c
        disc = math.sqrt(max(0.0, (self.a - self.c) ** 2 + 4.0 * self.b**2))
        return (tr + disc) / 2.0, (tr - disc) / 2.0

    @classmethod
    def diagonal(cls, lam: float) -> "MatrixPoint":
        if not (lam > 0 and math.isfinite(lam) and math.isfinite(1.0 / lam)):
            raise ValueError(f"lambda and 1/lambda must be positive and finite, got {lam}")
        return cls(a=lam, b=0.0, c=1.0 / lam)

    @classmethod
    def identity(cls) -> "MatrixPoint":
        return cls(1.0, 0.0, 1.0)


def matrix_distance(x: MatrixPoint, y: MatrixPoint) -> float:
    """Trace-metric distance on P(2, R)_1: sqrt(sum log^2 eig(X^-1 Y)).

    For determinant-one pairs the eigenvalues are e^(+-mu), so the distance
    collapses to sqrt(2) * arcosh(tr(X^-1 Y)/2).
    """
    tr = x.c * y.a - 2.0 * x.b * y.b + x.a * y.c
    return math.sqrt(2.0) * math.acosh(max(1.0, tr / 2.0))


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def _conjugate(x: MatrixPoint, theta: float) -> MatrixPoint:
    m = _rotation(theta) @ x.matrix @ _rotation(theta).T
    return MatrixPoint(a=m[0, 0], b=m[0, 1], c=m[1, 1])


def _sphere_points(d: int, n: int) -> np.ndarray:
    """n deterministic, roughly uniform unit vectors in R^d."""
    if d == 1:
        return np.array([[1.0 if k % 2 == 0 else -1.0] for k in range(n)])
    if d == 2:
        thetas = 2.0 * math.pi * np.arange(n) / n
        return np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    if d == 3:
        # Fibonacci spiral
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        k = np.arange(n)
        z = 1.0 - 2.0 * (k + 0.5) / n
        phi = 2.0 * math.pi * k / golden
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    # Kronecker low-discrepancy sequence pushed through the normal inverse CDF
    from scipy.special import ndtri

    primes = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])[:d]
    k = np.arange(1, n + 1)[:, None]
    seq = np.mod(k * np.sqrt(primes)[None, :], 1.0)
    seq = np.clip(seq, 1e-12, 1.0 - 1e-12)
    pts = ndtri(seq)
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    return pts / np.maximum(norms, 1e-300)


def orbit_sample(action: GroupAction, y, n: int, space: Optional[SpaceForm] = None):
    """n deterministic points on the orbit of y (uniform parameter grids)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if action.kind == MATRIX_CONJUGATION:
        thetas = 2.0 * math.pi * np.arange(n) / n
        return [_conjugate(y, float(t)) for t in thetas]
    y = np.asarray(y, dtype=float)
    if action.kind == FULL_ROTATION:
        r = float(np.linalg.norm(y))
        if r == 0.0:
            return np.zeros((n, y.size))
        if y.size == 2:
            thetas = 2.0 * math.pi * np.arange(n) / n
            cos, sin = np.cos(thetas), np.sin(thetas)
            return np.stack(
                [cos * y[0] - sin * y[1], sin * y[0] + cos * y[1]], axis=1
            )
        return r * _sphere_points(y.size, n)
    blocks = action.blocks
    if sum(blocks) != y.size:
        raise ValueError(f"blocks {blocks} do not partition a vector of size {y.size}")
    out = np.zeros((n, y.size))
    offset = 0
    for j, bdim in enumerate(blocks):
        yj = y[offset : offset + bdim]
        rj = float(np.linalg.norm(yj))
        if rj > 0.0:
            # offset each block's grid deterministically to avoid aligned seams
            pts = _sphere_points(bdim, n)
            shift = (j * 7919) % n
            out[:, offset : offset + bdim] = rj * np.roll(pts, shift, axis=0)
        offset += bdim
    return out


def _orbit_metric(action, space, points):
    """Chord embedding of orbit points and their exact distance, as
    (emb, chord, key, dist): points at most d apart lie within chord(d) in
    emb, rounding included; points i and j are dist(key(i, j)) apart, and key
    grows with it.  key broadcasts over index arrays and dist is elementwise.
    sinh is capped where the chord already spans the orbit.
    """
    if action.kind == MATRIX_CONJUGATION:
        a, b, c = np.array([[p.a, p.b, p.c] for p in points]).T
        # |X-Y|_F^2 = 2 (tr(X^-1 Y) - 2) + (tr X - tr Y)^2, up to the det drift
        drift = float(np.ptp(a + c)) ** 2 + 1e-9 * float(np.max(a * a + 2.0 * b * b + c * c))
        return (
            np.stack([a, math.sqrt(2.0) * b, c], axis=1),
            lambda d: math.sqrt(
                8.0 * math.sinh(min(d / math.sqrt(8.0), 300.0)) ** 2 * (1.0 + _CHORD_SLACK) + drift
            ),
            lambda i, j: c[i] * a[j] - 2.0 * b[i] * b[j] + a[i] * c[j],  # tr(X_i^-1 X_j)
            lambda x: math.sqrt(2.0) * np.arccosh(np.maximum(1.0, x / 2.0)),
        )
    pts = np.asarray(points, dtype=float)

    def diff2(i, j):
        return ((pts[i] - pts[j]) ** 2).sum(axis=-1)

    if space is None or space.model == EUCLIDEAN:
        return pts, lambda d: d * (1.0 + _CHORD_SLACK), diff2, np.sqrt
    k = math.sqrt(-space.curvature)
    one_minus = 1.0 - np.einsum("ij,ij->i", pts, pts)
    top = float(np.max(one_minus)) + 1e-15  # its rounding is absolute, a few 1e-16
    return (
        pts,
        lambda d: top * math.sqrt(math.sinh(min(k * d / 2, 300.0)) ** 2 * (1 + _CHORD_SLACK) + 1e-15),
        lambda i, j: 2.0 * diff2(i, j) / (one_minus[i] * one_minus[j]),
        lambda x: np.arccosh(np.maximum(1.0, 1.0 + x)) / k,
    )


def _pairwise_min_distance(action, space, centers) -> float:
    """Smallest pairwise distance among centers, certified with a kd-tree.

    The nearest-neighbour chords give a pair whose exact distance bounds the
    minimum from above; query_pairs collects every pair within the chord of
    that bound, and the exact formula measures those.
    """
    from scipy.spatial import cKDTree

    if len(centers) < 2:
        return math.inf
    emb, chord, key, dist = _orbit_metric(action, space, centers)
    tree = cKDTree(emb)
    nearest = tree.query(emb, k=2)[1][:, 1]
    bound = float(dist(key(np.arange(len(emb)), nearest).min()))
    pairs = tree.query_pairs(chord(bound), output_type="ndarray")
    return float(dist(key(pairs[:, 0], pairs[:, 1]).min()))


@dataclass(frozen=True)
class PackingReport:
    """Certified family of disjoint geodesic rho-balls centered on an orbit."""

    y: object
    rho: float
    count: int
    centers: object
    method: str
    fixed_point: bool = False
    min_pairwise_distance: float = math.inf

    def verify(self, action: GroupAction, space: Optional[SpaceForm]) -> None:
        """Recompute the pairwise-disjointness certificate; raises on failure."""
        _certified(action, space, self.y, self.rho, self.centers, self.method)


def _certified(action, space, y, rho, centers, method) -> PackingReport:
    """Report on centers after one pass of the pairwise certificate; raises on failure."""
    dmin = _pairwise_min_distance(action, space, centers)
    if dmin < 2.0 * rho - 1e-12:
        raise RuntimeError(f"packing certificate violated: min distance {dmin} < 2 rho")
    return PackingReport(y, rho, len(centers), centers, method, min_pairwise_distance=dmin)


def _circle_centers(space: SpaceForm, y, rho: float) -> np.ndarray:
    """Most equally spaced points, starting at y, on the geodesic circle
    through y (dimension 2) with pair distance >= 2 rho."""
    r_orbit = geodesic_distance(space, np.zeros(2), y)
    if r_orbit < rho:
        count = 1
    else:
        if space.model == EUCLIDEAN:
            phi_min = 2.0 * math.asin(min(1.0, rho / r_orbit))
        else:
            k = math.sqrt(-space.curvature)
            s, r = k * r_orbit, k * rho
            cos_phi = (math.cosh(s) ** 2 - math.cosh(2.0 * r)) / math.sinh(s) ** 2
            phi_min = math.acos(max(-1.0, min(1.0, cos_phi)))
        count = max(1, int(math.floor(2.0 * math.pi / phi_min)))
    thetas = 2.0 * math.pi * np.arange(count) / count
    base = math.atan2(y[1], y[0])
    circle = np.stack([np.cos(base + thetas), np.sin(base + thetas)], axis=1)
    return float(np.linalg.norm(y)) * circle


def _chart_radius(space: SpaceForm, geodesic_radius: float) -> float:
    if space.model == EUCLIDEAN:
        return geodesic_radius
    k = math.sqrt(-space.curvature)
    return math.tanh(k * geodesic_radius / 2.0)


def _greedy_walk(action, space, points, rho) -> list:
    """Indices a greedy pass over points accepts: each candidate in order,
    unless closer than 2 rho to an accepted one.  Such pairs lie within the
    chord of 2 rho, so after each acceptance a kd-tree ball query gathers the
    later candidates it may block and the exact distance decides.
    """
    from scipy.spatial import cKDTree

    emb, chord, key, dist = _orbit_metric(action, space, points)
    tree = cKDTree(emb, balanced_tree=False)  # sliding-midpoint splits build faster
    radius = chord(2.0 * rho)
    blocked = bytearray(len(emb))
    flags = np.frombuffer(blocked, dtype=bool)  # writable view of blocked
    accepted = []
    i = 0
    while i >= 0:
        accepted.append(i)
        near = np.asarray(tree.query_ball_point(emb[i], radius), dtype=np.intp)
        later = near[near > i]
        later = later[~flags[later]]
        flags[later[dist(key(later, i)) < 2.0 * rho]] = True
        i = blocked.find(0, i + 1)  # next unblocked candidate, -1 past the end
    return accepted


def _sphere_walk(space, y, rho):
    """Greedy walk over a deterministic spiral on the orbit sphere (dim >= 3)."""
    y = np.asarray(y, dtype=float)
    d = y.size
    r_orbit = geodesic_distance(space, np.zeros(d), y)
    radius_scale = s_c(space.curvature, r_orbit)
    step = rho / _WALK_SUBDIVISION
    area = sphere_area(d) * radius_scale ** (d - 1)
    n_steps = int(min(_MAX_WALK, max(256, math.ceil(area / step ** (d - 1)))))
    pts = float(np.linalg.norm(y)) * _sphere_points(d, n_steps)
    return pts[_greedy_walk(GroupAction(FULL_ROTATION), space, pts, rho)]


def _product_block_counts(space, y, blocks, rho):
    """Per-block packing counts whose product grid is automatically disjoint.

    Any two grid points differ in at least one block by a full angular step,
    which alone contributes chord >= 2 rho, so the ambient distance clears
    the threshold regardless of the other blocks.
    """
    counts, block_centers = [], []
    offset = 0
    for bdim in blocks:
        yj = np.asarray(y, dtype=float)[offset : offset + bdim]
        rj = float(np.linalg.norm(yj))
        if rj == 0.0:
            counts.append(1)
            block_centers.append(np.zeros((1, bdim)))
        else:
            walk = _circle_centers if bdim == 2 else _sphere_walk
            centers = walk(SpaceForm(bdim, 0.0), yj, rho)
            block_centers.append(centers)
            counts.append(len(centers))
        offset += bdim
    return counts, block_centers


def packing_count(
    action: GroupAction,
    space: Optional[SpaceForm],
    y,
    rho: float,
) -> PackingReport:
    """Number of mutually disjoint geodesic rho-balls centered on the orbit.

    A full-rotation circle (dimension 2) gets the exact count of equally
    spaced centers from the closed-form spacing (ANGULAR_EXACT).  Every
    other orbit gets a greedy walk over a fine orbit parametrization, whose
    count is a certified lower bound (GREEDY); a product orbit takes the
    product grid of its per-block packings.

    After each acceptance the walk blocks the later candidates that a kd-tree
    ball query finds within the chord of 2 rho and the exact distance
    confirms; the certificate measures exactly the near-minimal pairs the
    tree returns, once per report, and raises below 2 rho.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")

    if action.kind == MATRIX_CONJUGATION:
        return _packing_matrix(action, y, rho)

    y = np.asarray(y, dtype=float)
    if action.kind == FULL_ROTATION:
        if space is None:
            raise ValueError("full rotation needs an ambient space")
        if space.model == POINCARE_BALL:
            space.point(y)  # chart validation
        if float(np.linalg.norm(y)) == 0.0:
            return PackingReport(y, rho, 1, np.zeros((1, y.size)), GREEDY, fixed_point=True)
        if y.size == 2:
            return _certified(action, space, y, rho, _circle_centers(space, y, rho), ANGULAR_EXACT)
        return _certified(action, space, y, rho, _sphere_walk(space, y, rho), GREEDY)

    # PRODUCT_ROTATION on Euclidean space
    if space is not None and space.model != EUCLIDEAN:
        raise ValueError("product rotations act on Euclidean space")
    if sum(action.blocks) != y.size:
        raise ValueError(f"blocks {action.blocks} do not partition y of size {y.size}")
    if float(np.linalg.norm(y)) == 0.0:
        return PackingReport(y, rho, 1, np.zeros((1, y.size)), GREEDY, fixed_point=True)
    counts, block_centers = _product_block_counts(space, y, action.blocks, rho)
    total = int(np.prod(counts))
    if total > _MAX_CENTERS:
        raise ValueError(
            f"packing materializes {total} centers; increase rho for a desk-scale run"
        )
    grids = np.meshgrid(*[np.arange(c) for c in counts], indexing="ij")
    centers = np.concatenate(
        [block_centers[j][g.ravel()] for j, g in enumerate(grids)], axis=1
    )
    return _certified(action, space, y, rho, centers, GREEDY)


def _packing_matrix(action, y: MatrixPoint, rho: float) -> PackingReport:
    if abs(y.a - 1.0) < 1e-12 and abs(y.b) < 1e-12 and abs(y.c - 1.0) < 1e-12:
        return PackingReport(y, rho, 1, [y], GREEDY, fixed_point=True)
    # conjugation orbit is a closed curve of period pi
    probe = [
        matrix_distance(_conjugate(y, t), _conjugate(y, t + 1e-4)) / 1e-4
        for t in np.linspace(0.0, math.pi, 64)
    ]
    speed = max(max(probe), 1e-12)
    n_steps = int(min(_MAX_WALK, max(128, math.ceil(math.pi * speed / (rho / _WALK_SUBDIVISION)))))
    thetas = math.pi * np.arange(n_steps) / n_steps
    pts = [_conjugate(y, float(t)) for t in thetas]
    accepted = [pts[i] for i in _greedy_walk(action, None, pts, rho)]
    return _certified(action, None, y, rho, accepted, GREEDY)


def expansion_profile(
    action: GroupAction,
    space: SpaceForm,
    rho: float,
    radii: Sequence[float],
):
    """Packing counts along a geodesic ray from the origin.

    radii are chart radii of the sampled points; each row records the
    geodesic distance from the origin, rho, the packing count, and the
    counting method.  The table is the machine-readable artifact for
    checking that counts blow up with distance.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValueError("radii must be non-empty")
    if np.any(np.diff(radii) < 0):
        raise ValueError("radii must be non-decreasing")
    rows = []
    dim = space.dim if action.kind != PRODUCT_ROTATION else sum(action.blocks)
    for r in radii:
        y = np.zeros(dim)
        if action.kind == PRODUCT_ROTATION:
            # spread the radius across the first coordinate of every block
            offset = 0
            for bdim in action.blocks:
                y[offset] = r / math.sqrt(len(action.blocks))
                offset += bdim
        else:
            y[0] = r
        report = packing_count(action, space, y, rho)
        rows.append(
            {
                "distance": geodesic_distance(space, np.zeros(dim), y),
                "rho": rho,
                "count": report.count,
                "method": report.method,
            }
        )
    return rows


def orbit_diameter(action: GroupAction, space: Optional[SpaceForm], y, n: int = 10_000) -> float:
    """Max pairwise geodesic distance over a dense deterministic orbit sample."""
    pts = orbit_sample(action, y, n, space=space)
    if action.kind == MATRIX_CONJUGATION:
        arr = np.array([[p.a, p.b, p.c] for p in pts])
        a, b, c = arr[:, 0], arr[:, 1], arr[:, 2]
        # tr(X_i^-1 X_j) = c_i a_j - 2 b_i b_j + a_i c_j, in blocks of rows
        # so that no n x n array is formed
        step = max(1, 2**20 // len(arr))
        blocks = [slice(i, i + step) for i in range(0, len(arr), step)]
        top = max(float((c[r, None] * a - 2.0 * (b[r, None] * b) + a[r, None] * c).max()) for r in blocks)
        return math.sqrt(2.0) * math.acosh(max(1.0, top / 2.0))
    pts = np.asarray(pts, dtype=float)
    best = 0.0
    chunk = max(1, int(4e7 // max(len(pts), 1)))
    hyper = space is not None and space.model == POINCARE_BALL
    if hyper:
        one_minus = 1.0 - np.einsum("ij,ij->i", pts, pts)
        k = math.sqrt(-space.curvature)
    sq = np.einsum("ij,ij->i", pts, pts)
    for start in range(0, len(pts), chunk):
        stop = min(len(pts), start + chunk)
        # |a-b|^2 via the Gram identity, clipped at zero
        diff2 = np.maximum(sq[start:stop, None] + sq[None, :] - 2.0 * (pts[start:stop] @ pts.T), 0.0)
        if not hyper:
            best = max(best, math.sqrt(float(diff2.max())))
        else:
            denom = one_minus[start:stop, None] * one_minus[None, :]
            best = max(
                best,
                float(np.arccosh(np.maximum(1.0, 1.0 + 2.0 * diff2 / denom)).max()) / k,
            )
    return best


@dataclass(frozen=True)
class CoercivityReport:
    """Numeric probe of whether {x : diam orbit(x) <= t} reaches a radius shell."""

    threshold: float
    search_radius: float
    min_diameter: float
    witness: Optional[np.ndarray]

    @property
    def small_orbit_found(self) -> bool:
        return self.witness is not None


def coercivity_probe(
    action: GroupAction,
    space: SpaceForm,
    t: float,
    search_radius: float,
) -> CoercivityReport:
    """Search the shell d(x0, x) in [R/2, R] for points with small orbits:
    32 directions at 5 radii, each orbit sampled at 512 points."""
    if not t > 0 or not search_radius > 0:
        raise ValueError("t and search_radius must be positive")
    dim = space.dim if action.kind != PRODUCT_ROTATION else sum(action.blocks)
    dirs = _sphere_points(dim, 32)
    best = math.inf
    witness = None
    for frac in np.linspace(0.5, 1.0, 5):
        geo = frac * search_radius
        chart = _chart_radius(space, geo)
        for u in dirs:
            x = chart * u
            diam = orbit_diameter(action, space, x, n=512)
            if diam < best:
                best = diam
                if diam <= t:
                    witness = x
    return CoercivityReport(t, search_radius, best, witness)


def tangent_packing_lower_bound(angles: Sequence[float], rho: float, t: float) -> int:
    """Largest n with t >= t_n, where t_n = rho / sin(alpha_min(n)/2).

    angles lists the pairwise angles between rays in the order the pairs
    appear as rays are introduced: (1,2), (1,3), (2,3), (1,4), ...  Centers
    placed t out along the rays carry n disjoint rho-balls once t passes
    t_n, and the bound tends to infinity with t for any fixed family of
    positive pairwise angles.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.size == 0:
        raise ValueError("angles must be non-empty")
    if np.any(angles <= 0) or np.any(angles > math.pi):
        raise ValueError("angles must lie in (0, pi]")
    if not rho > 0 or not t >= 0:
        raise ValueError("rho must be positive and t non-negative")
    n_rays = int((1 + math.isqrt(1 + 8 * angles.size)) // 2)
    best = 1  # t_1 = 0, a single ball always fits
    for n in range(2, n_rays + 1):
        n_pairs = n * (n - 1) // 2
        if n_pairs > angles.size:
            break
        alpha_min = float(np.min(angles[:n_pairs]))
        t_n = rho / math.sin(alpha_min / 2.0)
        if t >= t_n:
            best = n
    return best


def spherical_cap_count(d: int, rho: float, t: float) -> float:
    """Cap-covering estimate: sphere area / area of a cap of radius 2 rho/t.

    A cap of angular radius theta <= pi/2 covers the fraction
    I_{sin^2 theta}((d-1)/2, 1/2) / 2 of the sphere S^(d-1), a regularised
    incomplete Beta; a wider cap covers one minus the share of its
    complement, which has the same sin^2 theta.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not t > rho:
        raise ValueError(f"need t > rho, got t={t}, rho={rho}")
    from scipy.special import betainc

    theta = 2.0 * rho / t  # below 2 < pi, as t > rho
    share = 0.5 * float(betainc(0.5 * (d - 1), 0.5, math.sin(theta) ** 2))
    return 1.0 / (share if theta <= math.pi / 2.0 else 1.0 - share)


@dataclass(frozen=True)
class ProductSpheresMeasure:
    measure: float
    lower_bound: float
    m_g: float

    @property
    def holds(self) -> bool:
        return self.measure >= self.lower_bound - 1e-12 * max(1.0, self.measure)


def simplex_min_exponent_sum(blocks: Sequence[int]) -> float:
    """min of sum z_i^(d_i - 1) over the simplex sum z_i = 1, z_i >= 0.

    The objective is convex, so the minimiser is its KKT point: a block with
    e_i = d_i - 1 > 1 takes z_i = (mu / e_i)^(1 / (e_i - 1)), which grows
    with the multiplier mu, and the blocks with e_i = 1 share whatever mass
    is left once mu reaches their constant slope 1.  mu is bisected down to
    the smallest float whose mass reaches 1.
    """
    exps = [int(b) - 1 for b in blocks]
    if not exps or min(exps) < 1:
        raise ValueError("blocks must all have dimension >= 2")
    curved = [e for e in exps if e > 1]

    def shares(mu):
        return [(mu / e) ** (1.0 / (e - 1)) for e in curved]

    # the mass reaches 1 by mu = max e_i, where that block alone takes z = 1;
    # blocks with e_i = 1 take mass only at mu = 1, so they cap the bracket
    lo, hi = 0.0, 1.0 if 1 in exps else float(max(curved))
    if sum(shares(hi)) >= 1.0:
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (lo, mid) if sum(shares(mid)) >= 1.0 else (mid, hi)
    z = shares(hi)
    rest = 1.0 - sum(z) if 1 in exps else 0.0
    return sum(zi**e for zi, e in zip(z, curved)) + max(0.0, rest)


def orbit_hausdorff_product_spheres(blocks: Sequence[int], y) -> ProductSpheresMeasure:
    """Orbit measure of y under a product of rotation groups.

    The measure is the sum over active blocks of (unit-sphere area) times
    |y_i|^(d_i - 1); the lower bound is 2 pi m_G |y| with m_G the simplex
    minimum above.  Note the summed form: a product of sphere measures
    might be expected for a product orbit, but the sum is what the bound
    below consumes, and it is what this function reports.
    """
    blocks = [int(b) for b in blocks]
    if any(b < 2 for b in blocks):
        raise ValueError("blocks must all have dimension >= 2")
    y = np.asarray(y, dtype=float)
    if sum(blocks) != y.size:
        raise ValueError(f"blocks {blocks} do not partition y of size {y.size}")
    norm_y = float(np.linalg.norm(y))
    if norm_y == 0.0:
        raise ValueError("y must be non-zero")
    measure = 0.0
    offset = 0
    for bdim in blocks:
        rj = float(np.linalg.norm(y[offset : offset + bdim]))
        if rj > 0.0:
            measure += sphere_area(bdim) * rj ** (bdim - 1)
        offset += bdim
    m_g = simplex_min_exponent_sum(blocks)
    lower = 2.0 * math.pi * m_g * norm_y
    result = ProductSpheresMeasure(measure=measure, lower_bound=lower, m_g=m_g)
    if norm_y >= 1.0 and not result.holds:
        raise RuntimeError(
            f"orbit measure {measure} fell below its bound {lower} at |y| = {norm_y}"
        )
    return result


@dataclass(frozen=True)
class MatrixOrbitMeasure:
    length: float
    distance_to_identity: float
    kappa_check: bool


def orbit_hausdorff_matrix(y: MatrixPoint) -> MatrixOrbitMeasure:
    """Length of the rotation-orbit curve through y and the comparison
    length >= pi * d(I, y) in the trace metric.

    The orbit curve is theta -> y @ rotation(theta), whose speed in the
    Frobenius norm is the constant ||y||_F, giving length 2 pi ||y||_F.
    """
    frob = math.sqrt(y.a**2 + 2.0 * y.b**2 + y.c**2)
    length = 2.0 * math.pi * frob
    lam1, lam2 = y.eigenvalues
    dist = math.sqrt(math.log(lam1) ** 2 + math.log(lam2) ** 2)
    return MatrixOrbitMeasure(
        length=length,
        distance_to_identity=dist,
        kappa_check=length >= math.pi * dist - 1e-12,
    )
