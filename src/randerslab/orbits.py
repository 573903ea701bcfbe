"""Isometry-orbit machinery: geodesic ball packing and orbit measures.

Three enumerated actions are supported:

- FULL_ROTATION: the orthogonal group fixing the origin of a SpaceForm; the
  orbit of y is the geodesic sphere through y.
- PRODUCT_ROTATION: O(d_1) x ... x O(d_k) acting blockwise on Euclidean
  R^d; the orbit of y is a product of spheres with radii |y_i|.
- MATRIX_CONJUGATION: SO(2) acting by conjugation on the determinant-one
  positive cone P(2, R)_1 with its trace metric.

packing_count reports a certified number of mutually disjoint geodesic
rho-balls centered on an orbit: the exact angular count where the orbit is
a circle (ANGULAR_EXACT), otherwise a deterministic greedy walk whose
result is a lower bound (GREEDY); a product orbit takes the product grid
of its blocks' packings.  Every report carries its centers and is verified
pairwise.

The threshold 2 rho is a fixed Euclidean chord threshold on every orbit
packed here: a FULL_ROTATION orbit keeps one chart radius r, so in the
Poincare ball d = acosh(1 + 2|x-y|^2 / (1-r^2)^2) / k; product orbits are
Euclidean; on a conjugation orbit det = 1 and the trace is constant, so
tr(X^-1 Y) = 2 + |X-Y|_F^2 / 2 (Cayley-Hamilton) and (a, sqrt2 b, c) carries
the Frobenius norm.  The greedy walk (_greedy_walk) blocks, after each
acceptance, the later candidates within that chord whose exact distance is
below 2 rho.  Its caller hands it the source of those chord balls:

- a 2-sphere (a whole orbit or a product 3-block): _lattice_balls reads
  each ball off the Fibonacci spiral, whose candidates a _SpiralWindow
  builds range by range into one buffer that holds a ball window, not
  the whole spiral;
- a conjugation orbit: _angle_balls reads each ball off the angle grid;
- a sphere of dimension >= 4, whose Kronecker points have no order to read
  a ball off: _tree_balls searches one lean scipy.spatial.cKDTree of its
  candidates, all built at once.

Every pair of the centers is certified once per report with the exact
distance formulas (_certified):

- a product grid by its blocks (_product_min_distance), as its minimum is
  the least block minimum;
- every other report, ANGULAR_EXACT circles included, by the close pairs
  of its embedding (_pairwise_min_distance): from a cell list where it has
  at most 3 columns, and from a kd-tree of the centres on a sphere of
  dimension >= 4, whose walk has loaded scipy.spatial already.

Only those spheres import scipy.spatial.
"""

from __future__ import annotations

import itertools
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
        tr, disc = self.a + self.c, math.hypot(self.a - self.c, 2.0 * self.b)
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


def _conjugates(x: MatrixPoint, thetas) -> np.ndarray:
    """(a, b, c) rows of R x R^T for R = [[cos t, sin t], [-sin t, cos t]],
    one per angle t.  The stdlib cos and sin keep every row bit for bit
    equal to one 2x2 conjugation; numpy's may round differently."""
    ts = np.asarray(thetas, dtype=float).tolist()
    cos = np.fromiter(map(math.cos, ts), float, count=len(ts))
    sin = np.fromiter(map(math.sin, ts), float, count=len(ts))
    rot = np.stack([cos, sin, -sin, cos], axis=1).reshape(-1, 2, 2)
    m = rot @ x.matrix @ rot.transpose(0, 2, 1)
    return np.stack([m[:, 0, 0], m[:, 0, 1], m[:, 1, 1]], axis=1)


def _sphere_points(d: int, n: int) -> np.ndarray:
    """n deterministic, roughly uniform unit vectors in R^d, d >= 4: the
    Kronecker low-discrepancy sequence on the square roots of the first d
    primes, pushed through the normal inverse CDF."""
    from scipy.special import ndtri

    primes = list(itertools.islice(
        (p for p in itertools.count(2) if all(p % q for q in range(2, math.isqrt(p) + 1))), d
    ))
    k = np.arange(1, n + 1)[:, None]
    seq = np.mod(k * np.sqrt(primes)[None, :], 1.0)
    seq = np.clip(seq, 1e-12, 1.0 - 1e-12)
    pts = ndtri(seq)
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    return pts / np.maximum(norms, 1e-300)


def _spiral_rows(n: int, start: int, out: np.ndarray) -> np.ndarray:
    """Rows start, start + 1, ... of the Fibonacci spiral of n points on the
    unit 2-sphere (as many as out has), written into out and returned.

    Point k is (r cos phi, r sin phi, z) with z = 1 - 2 (k + 1/2) / n,
    phi = 2 pi k / golden and r = sqrt(max(0, 1 - z^2)), written one rounded
    operation at a time; the middle column holds r until it is scaled by
    sin phi, and phi's buffer takes sin phi once cos phi is written.  Each
    row goes through the same operations whatever the range, so any range
    is bit for bit those rows of _spiral_rows(n, 0, ...), the range [0, n).
    """
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    x, r, z = out.T
    phi = np.arange(start, start + len(out), dtype=float)
    np.add(phi, 0.5, out=z)
    z *= 2.0
    z /= n
    np.subtract(1.0, z, out=z)
    phi *= 2.0 * math.pi
    phi /= golden
    np.multiply(z, z, out=r)
    np.subtract(1.0, r, out=r)
    np.maximum(0.0, r, out=r)
    np.sqrt(r, out=r)
    np.cos(phi, out=x)
    x *= r
    np.sin(phi, out=phi)
    r *= phi
    return out


def _orbit_metric(action, space, points):
    """Chord embedding of orbit points and their exact distance, as
    (emb, chord, key, dist): points at most d apart lie within chord(d) in
    emb, rounding included; points i and j are dist(key(i, j)) apart, and key
    grows with it.  key broadcasts over index arrays and dist is elementwise.
    sinh is capped where the chord already spans the orbit.
    """
    if action.kind == MATRIX_CONJUGATION:
        a, b, c = np.asarray(points, dtype=float).T
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
    cols = pts.T  # strided views, one per coordinate
    one_minus = top = None
    if space is not None and space.model != EUCLIDEAN:
        one_minus = 1.0 - np.einsum("ij,ij->i", pts, pts)
        top = float(np.max(one_minus)) + 1e-15  # its rounding is absolute, a few 1e-16
    chord, dist = _chart_scale(space, top)
    return pts, chord, lambda i, j: _chart_key(cols, one_minus, i, j), dist


def _chart_scale(space, top):
    """chord and dist of _orbit_metric for points of R^d (space None or
    Euclidean) or of a Poincare chart, where top bounds 1 - |p|^2 of
    every point, rounding included."""
    if space is None or space.model == EUCLIDEAN:
        return lambda d: d * (1.0 + _CHORD_SLACK), np.sqrt
    k = math.sqrt(-space.curvature)
    return (
        lambda d: top * math.sqrt(math.sinh(min(k * d / 2, 300.0)) ** 2 * (1 + _CHORD_SLACK) + 1e-15),
        lambda x: np.arccosh(np.maximum(1.0, 1.0 + x)) / k,
    )


def _chart_key(cols, one_minus, i, j):
    """key of _orbit_metric for rows i and j of the points whose coordinate
    columns are cols: |p_i - p_j|^2 in R^d (one_minus None), and
    2 |p_i - p_j|^2 / ((1 - |p_i|^2) (1 - |p_j|^2)) on a Poincare chart,
    where one_minus holds 1 - |p|^2 per row."""
    # summed column by column, left to right, with no whole rows gathered
    total = (cols[0][i] - cols[0][j]) ** 2
    for col in cols[1:]:
        total += (col[i] - col[j]) ** 2
    return total if one_minus is None else 2.0 * total / (one_minus[i] * one_minus[j])


def _pairwise_min_distance(action, space, centers) -> float:
    """Smallest pairwise distance among centers.

    The exact distance of consecutive rows bounds the minimum from above
    (B; the walks emit their centers in walk order and a circle in angle
    order, so some consecutive rows lie close).  Every pair at most B
    apart lies within chord(B) in the embedding, so the minimum is that of
    the pairs within chord(B), each measured with the exact key as rows
    i < j: the conjugation key rounds differently the other way round.  An
    embedding of at most 3 columns takes those pairs from a cell list
    (_cell_pairs).  A wider one, the points of a sphere of dimension >= 4,
    takes them from a kd-tree (_tree_pairs): cells over some of its
    columns would gather every pair that only the other columns set apart.
    """
    n = len(centers)
    if n < 2:
        return math.inf
    emb, chord, key, dist = _orbit_metric(action, space, centers)
    rows = np.arange(n)
    bound = float(dist(key(rows[:-1], rows[1:]).min()))
    if bound == 0.0:
        return bound
    pairs = _cell_pairs if emb.shape[1] <= 3 else _tree_pairs
    i, j = pairs(emb, chord(bound))
    return float(dist(key(i, j).min()))


def _cell_pairs(emb, radius):
    """Every pair of rows of an embedding of at most 3 columns that lie
    within radius, as index arrays i < j, and some pairs farther apart.

    This is the fixed-radius cell list of Bentley, Stanat and Williams
    (Inf. Process. Lett. 6 (1977) 209-212): such a pair lies in the same
    or in adjacent cubic cells of side radius.  Each cell is joined with
    itself and with its (3^k - 1) / 2 neighbours of positive offset, found
    by searchsorted on the sorted int64 cell codes; the three cells along
    the last axis hold consecutive codes and make one range of rows.
    """
    n, k = emb.shape
    rows = np.arange(n)
    # the floor of 2^-18 of the largest coordinate keeps the cells per axis,
    # so every code, within int64, and each quotient within 2^-34 of its
    # exact value; the 1e-9 then keeps the quotients of two coordinates at
    # most radius apart less than one cell apart
    side = max(radius, 2.0**-18 * float(np.abs(emb).max())) * (1.0 + 1e-9)
    cells = np.floor(emb / side).astype(np.int64)
    cells -= cells.min(axis=0) - 1  # from 1, so that each neighbour's index is >= 0
    weights = (int(cells.max()) + 2) ** np.arange(k - 1, -1, -1, dtype=np.int64)
    codes = cells @ weights
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    # one range per lead offset of the first k - 1 axes; at lead 0 it runs
    # from the row after each one through the next cell along the last axis
    starts, stops = [], []
    for lead in itertools.product((-1, 0, 1), repeat=k - 1):
        if lead >= (0,) * (k - 1):
            mid = codes + int(np.dot(lead, weights[:-1]))
            starts.append(rows + 1 if not any(lead) else codes.searchsorted(mid - 1, "left"))
            stops.append(codes.searchsorted(mid + 1, "right"))
    start, counts = np.concatenate(starts), np.concatenate(stops)
    counts -= start
    first = np.repeat(np.tile(rows, len(starts)), counts)
    second = np.arange(counts.sum()) + np.repeat(start - (np.cumsum(counts) - counts), counts)
    i, j = order[first], order[second]
    return np.minimum(i, j), np.maximum(i, j)


def _tree_pairs(emb, radius):
    """Every pair of rows of emb that lie within radius, as index arrays
    i < j, from one kd-tree of the rows (query_pairs).  Only an embedding
    of 4 or more columns comes here, whose walk loaded scipy.spatial
    already (_tree_balls)."""
    from scipy.spatial import cKDTree

    pairs = cKDTree(emb).query_pairs(radius, output_type="ndarray")
    return pairs[:, 0], pairs[:, 1]


@dataclass(frozen=True)
class PackingReport:
    """Certified family of disjoint geodesic rho-balls centered on an orbit;
    centers has one row per ball, (a, b, c) on a conjugation orbit."""

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


def _first_rows(rows) -> np.ndarray:
    """Index of the first appearance of each distinct row, in row order."""
    order = np.lexsort(rows.T)  # stable: each run of equal rows starts at its first
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    return np.sort(order[new])


def _product_min_distance(action, centers) -> float:
    """Smallest pairwise distance among centers of a product orbit, from
    the certificates of its blocks.

    Repeated rows are refused.  A pair's key sums its squared differences
    column by column, so the columns of the blocks where the pair agrees add
    exact zeros, and rounded addition is monotone: the key of a pair is at
    least that of each block where it differs, and equal to it where it
    differs in that block alone.  So the minimum is that over the blocks
    with at least 2 distinct rows of each block's own certificate
    (_pairwise_min_distance): a lower bound for any set without repeated
    rows, and the minimum itself, bit for bit, on a full product grid.
    Each block's distinct rows are taken in the order of their first
    appearance, which is walk order on a grid.
    """
    centers = np.asarray(centers, dtype=float)
    if len(_first_rows(centers)) < len(centers):
        raise RuntimeError("packing certificate: repeated centers")
    dmin, offset = math.inf, 0
    for bdim in action.blocks:
        block = centers[:, offset : offset + bdim]
        offset += bdim
        first = _first_rows(block)
        if len(first) > 1:
            dmin = min(dmin, _pairwise_min_distance(action, None, block[first]))
    return dmin


def _certified(action, space, y, rho, centers, method) -> PackingReport:
    """Report on centers after one pass of the pairwise certificate: the
    block certificates on a product orbit, _pairwise_min_distance on every
    other; raises on failure."""
    if action.kind == PRODUCT_ROTATION:
        dmin = _product_min_distance(action, centers)
    else:
        dmin = _pairwise_min_distance(action, space, centers)
    if dmin < 2.0 * rho - 1e-12:
        raise RuntimeError(f"packing certificate violated: min distance {dmin} < 2 rho")
    return PackingReport(y, rho, len(centers), centers, method, min_pairwise_distance=dmin)


def _too_many(count) -> ValueError:
    return ValueError(f"packing materializes {count} centers; increase rho for a desk-scale run")


def _circle_centers(space: SpaceForm, y, rho: float) -> np.ndarray:
    """Most equally spaced points, starting at y, on the geodesic circle
    through y (dimension 2) with pair distance >= 2 rho; raises ValueError
    before any array is built if they number more than _MAX_CENTERS."""
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
        turns = 2.0 * math.pi / phi_min if phi_min > 0.0 else math.inf
        if turns >= _MAX_CENTERS + 1:  # floor(turns) > _MAX_CENTERS
            raise _too_many(math.floor(turns) if math.isfinite(turns) else "infinitely many")
        count = max(1, int(math.floor(turns)))
    thetas = 2.0 * math.pi * np.arange(count) / count
    base = math.atan2(y[1], y[0])
    circle = np.stack([np.cos(base + thetas), np.sin(base + thetas)], axis=1)
    return float(np.linalg.norm(y)) * circle


def _chart_radius(space: SpaceForm, geodesic_radius: float) -> float:
    if space.model == EUCLIDEAN:
        return geodesic_radius
    k = math.sqrt(-space.curvature)
    return math.tanh(k * geodesic_radius / 2.0)


def _tree_balls(emb, radius):
    """Later members of each chord ball of radius, from one kd-tree of the
    candidates emb, whose Kronecker points have no order to read a ball off.

    The tree is built on the embedding without copying it (every embedding
    here is C-contiguous), with sliding-midpoint splits into wide leaves
    that are left uncompacted, which builds fastest.  Each ball comes back
    as an index array: the "j" column of a one-point tree's
    sparse_distance_matrix against the candidate tree, with no Python list
    of indices in between.  That one-point tree costs some 15 us per
    acceptance.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(emb, leafsize=128, balanced_tree=False, compact_nodes=False, copy_data=False)

    def later_ball(i):
        near = cKDTree(emb[i : i + 1]).sparse_distance_matrix(tree, radius, output_type="ndarray")["j"]
        return near[near > i]

    return later_ball


def _greedy_walk(n, rho, later_ball, key, dist) -> list:
    """Indices a greedy pass over n candidates accepts: each candidate in
    order, unless closer than 2 rho to an accepted one.  Raises ValueError
    at the first acceptance past _MAX_CENTERS.

    key and dist are those of the candidates' _orbit_metric: candidates i
    and j lie dist(key(i, j)) apart.  later_ball(i), called once per
    acceptance in walk order, gives an index array of later candidates
    (j > i) that holds every later member of the chord ball chord(2 rho)
    of i, as pairs closer than 2 rho lie within that chord; extra
    candidates cost time only, as the exact distance decides.  The
    unblocked ones among them whose exact distance is below 2 rho are
    blocked.  Each pair is keyed as (accepted, later), the order of the
    certificate's i < j, so the walk keeps no pair the certificate reads
    below 2 rho (the conjugation key rounds differently the other way
    round).
    """
    blocked = bytearray(n)
    flags = np.frombuffer(blocked, dtype=bool)  # writable view of blocked
    accepted = []
    i = 0
    while i >= 0:
        accepted.append(i)
        if len(accepted) > _MAX_CENTERS:
            raise _too_many(f"more than {_MAX_CENTERS}")
        later = later_ball(i)
        later = later[~flags[later]]
        flags[later[dist(key(i, later)) < 2.0 * rho]] = True
        i = blocked.find(0, i + 1)  # next unblocked candidate, -1 past the end
    return accepted


def _lattice_balls(spiral, radius):
    """Later candidates that may lie in each chord ball, read off the
    Fibonacci spiral of a _SpiralWindow; no tree is built.

    With c = radius (1 + 1e-12), the later members j > i of the chord ball
    of i pass two checks:

    - index window: every rounded step of z is monotone, so z never
      increases with the index, and |z_i - z_j| <= |p_i - p_j|; so j < e,
      the first index with z_e < z_i - c (the absolute term 1e-15 s in the
      threshold, for the spiral's scale s, covers the rounding of z_i - c).
      Sooner: |p_i - p_j| >= |(rho_i - rho_j, z_i - z_j)|, the meridian chord
      2 s sin((theta_j - theta_i) / 2) of the polar angle theta, which grows
      with the index; so, unless the arc theta_i + T, T = 2 asin(min(1,
      c' / (2 s))), passes the south pole, j < the first e with z_e <
      s cos(theta_i + T) = z_i cos T - rho_i sin T.  Each row's (rho, z) is
      within 1e-15 s of radius s (r^2 is 1 - z^2 rounded, so r's error near a
      pole cancels z's) and the threshold rounds by under 2e-15 s, so
      c' = c + 4e-15 s and the threshold drops by 4e-15 s, which c's 1e-12
      relative pad does not cover where c << s; rho_i is r s, from z by the
      spiral's operations (acos(z / s) loses 1e-8 rad near a pole);
    - golden-angle offset: with rho the ring radius hypot(x, y),
      |p_i - p_j| >= 2 sqrt(rho_i rho_j) |sin((phi_i - phi_j) / 2)|, and
      phi_j - phi_i = 2 pi m / golden for the offset m = j - i.  rho is
      concave in z, so on the window it is at least rho_min, the smaller
      ring radius of i and e - 1, and the centred fraction of m / golden
      is at most h = asin(c / (2 sqrt(rho_i rho_min))) / pi + 1e-8; the
      1e-8 covers the rounding of the spiral's angles (about 1e-9 rad at
      k = 5e5).  Where c >= 2 sqrt(rho_i rho_min), near the poles, the
      whole window is taken.

    z steps by 2 s / n and each rounded z is within 1e-15 s of its exact
    value, so a window holds fewer than W = int(c n / (2 s) + 2) later
    candidates (or all of them, W = n - 1).  The offsets 1..W are sorted by
    their centred fraction once, so each ball is two searchsorted calls and
    one slice, clipped to the window.  The window end is found on the
    closed-form z of the spiral (_SpiralWindow.z), a step or two from its
    linear estimate: no array with an entry per candidate is made.  The
    rows of each window are held in the spiral's buffer of
    W + W // 4 + 1 rows, which slides at most once per W / 4 candidates
    and moves at most W rows when it does.
    """
    n, scale = spiral.n, spiral.r
    reach = radius * (1.0 + 1e-12)
    pad = 1e-15 * scale
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    width = int(min(n - 1, reach * n / (2.0 * scale) + 2.0))
    fractions = np.arange(1, width + 1) / golden
    fractions -= np.rint(fractions)
    offsets = np.argsort(fractions, kind="stable")
    fractions = fractions[offsets]
    offsets += 1
    spiral.open(width + width // 4 + 1)
    x, y, _ = spiral.cols
    z = spiral.z
    turn = 2.0 * math.asin(min(1.0, (reach + 4.0 * pad) / (2.0 * scale)))
    cos_turn, sin_turn = math.cos(turn), math.sin(turn)

    def window_end(i):
        # the first e > i with -z_e > t = pad + reach - z_i, or the meridian
        # t if smaller, or n: -z never decreases with the index, so stepping
        # from the closed-form estimate finds it in a step or two
        u = 1.0 - (i + 0.5) * 2.0 / n
        z_i, rho_i = u * scale, math.sqrt(max(0.0, 1.0 - u * u)) * scale
        t = pad + reach - z_i
        if rho_i * cos_turn + z_i * sin_turn > 0.0:
            t = min(t, 4.0 * pad + rho_i * sin_turn - z_i * cos_turn)
        e = min(n, max(i + 1, math.ceil(((t / scale + 1.0) * n - 1.0) / 2.0)))
        while e > i + 1 and t < -z(e - 1):
            e -= 1
        while e < n and not t < -z(e):
            e += 1
        return e

    def later_ball(i):
        end = window_end(i)
        base = spiral.accept(i, end)
        rho_i = math.hypot(x[i - base], y[i - base])
        bound = 2.0 * math.sqrt(rho_i * min(rho_i, math.hypot(x[end - 1 - base], y[end - 1 - base])))
        if reach >= bound:
            return np.arange(i + 1, end)
        h = math.asin(reach / bound) / math.pi + 1e-8
        later = offsets[fractions.searchsorted(-h, "left") : fractions.searchsorted(h, "right")] + i
        return later[later < end]

    return later_ball


class _SpiralWindow:
    """The candidates of a 2-sphere walk, the Fibonacci spiral
    _spiral_rows(n, 0, ...) scaled by r, held as the rows [base, top) of one
    buffer instead of all at once.

    Its ball source sizes the buffer (open) and, at each acceptance i, asks
    for the rows [i, end) of that ball's index window (accept).  Where end
    passes top, the buffer slides to start at i: it moves the overlap
    [i, top) to its front and builds only the rows after it with
    _spiral_rows, so each candidate is built at most once, and one blocked
    before a window reached it never.  A window longer than the buffer
    raises IndexError; _lattice_balls sizes the buffer past the longest.
    Row i is copied out as it is accepted; centers() gives those rows.

    chord, key and dist are the walk's, as _orbit_metric gives them for the
    whole spiral: key takes candidates by their index on the spiral and
    measures their buffer rows, with 1 - |p|^2 kept per buffer row on a
    Poincare chart.  There the chord is scaled by 1 - r^2 + 1e-14,
    not by the largest 1 - |p|^2 of the candidates plus 1e-15: on the
    spiral every 1 - |p|^2 rounds to within a few ulps of 1 - r^2 (at most
    6e-16 for n up to 500,000), and a wider fetch costs time only.
    """

    def __init__(self, space, n, r):
        self.n, self.r = n, r
        self.base = self.top = 0
        self.rows = np.empty((0, 3))
        self.one_minus = None if space.model == EUCLIDEAN else np.empty(0)
        self.accepted = bytearray()
        self.chord, self.dist = _chart_scale(space, None if self.one_minus is None else 1.0 - r * r + 1e-14)

    def z(self, k):
        """z of candidate k in closed form, bit for bit its buffer row's."""
        return (1.0 - (k + 0.5) * 2.0 / self.n) * self.r

    def open(self, length):
        """Allocate a buffer of length rows (at most n); cols are its
        coordinate columns."""
        self.rows = np.empty((min(length, self.n), 3))
        self.cols = self.rows.T
        if self.one_minus is not None:
            self.one_minus = np.empty(len(self.rows))

    def accept(self, i, end):
        """Hold the rows [i, end), sliding the buffer if end passes top,
        copy out row i and return base."""
        if end > self.top:
            keep, old = max(0, self.top - i), i - self.base
            # moved as one dimension, which numpy copies in place where the
            # ranges overlap; rows of 3 would go through a temporary copy
            flat = self.rows.reshape(-1)
            flat[: 3 * keep] = flat[3 * old : 3 * (old + keep)]
            self.base, self.top = i, min(self.n, i + len(self.rows))
            new = self.rows[keep : self.top - i]
            _spiral_rows(self.n, i + keep, new)
            new *= self.r
            if self.one_minus is not None:
                self.one_minus[:keep] = self.one_minus[old : old + keep]
                fresh = self.one_minus[keep : self.top - i]
                np.einsum("ij,ij->i", new, new, out=fresh)
                np.subtract(1.0, fresh, out=fresh)
        self.accepted += self.rows[i - self.base].tobytes()
        return self.base

    def key(self, i, j):
        return _chart_key(self.cols, self.one_minus, i - self.base, j - self.base)

    def centers(self) -> np.ndarray:
        return np.frombuffer(self.accepted).reshape(-1, 3)


def _angle_balls(emb, radius):
    """Later candidates that may lie in each chord ball of a conjugation
    walk, read off the angle order of _conjugation_candidates; no tree is
    built.

    Candidate k is the first row conjugated by the angle pi k / n.
    Conjugation fixes the trace and turns (a - c, 2b) by twice the angle on
    a circle of radius delta = hypot(a - c, 2b), so candidates m indices
    apart lie sqrt(2) delta |sin(pi m / n)| apart in the (a, sqrt2 b, c)
    embedding.  The later members of the ball of i are thus the window
    (i, i + w] and, past the wrap, [i + n - w, n), where w is the largest
    gap whose chord is within the radius.  delta is taken from the first
    row itself, not from MatrixPoint.eigenvalues, whose smaller root
    cancels.  The candidates' rounding, a few ulps of the entries, is
    covered by a pad of 1e-12 (a + c) on the radius and one more index
    on w.
    """
    n = len(emb)
    a, b_scaled, c = (float(v) for v in emb[0])
    spread = math.sqrt(2.0) * math.hypot(a - c, math.sqrt(2.0) * b_scaled)
    reach = radius + 1e-12 * (a + c)
    w = n if reach >= spread else int(n / math.pi * math.asin(reach / spread)) + 1

    def later_ball(i):
        wrap = i + n - w
        if wrap <= i + w + 1:  # the two ends meet: every later candidate
            return np.arange(i + 1, n)
        near = np.arange(i + 1, min(n, i + w + 1))
        return near if wrap >= n else np.concatenate([near, np.arange(wrap, n)])

    return later_ball


def _sphere_walk(space, y, rho):
    """Greedy walk over a deterministic spiral on the orbit sphere (dim >= 3):
    the Fibonacci spiral of a 2-sphere, held a window at a time, or the
    Kronecker points of a higher sphere, built at once."""
    y = np.asarray(y, dtype=float)
    n, r = _walk_size(space, y, rho), float(np.linalg.norm(y))
    if y.size == 3:
        spiral = _SpiralWindow(space, n, r)
        _greedy_walk(n, rho, _lattice_balls(spiral, spiral.chord(2.0 * rho)), spiral.key, spiral.dist)
        return spiral.centers()
    pts = _sphere_points(y.size, n)
    pts *= r
    emb, chord, key, dist = _orbit_metric(GroupAction(FULL_ROTATION), space, pts)
    return pts[_greedy_walk(n, rho, _tree_balls(emb, chord(2.0 * rho)), key, dist)]


def _walk_size(space, y, rho) -> int:
    """The number of candidates of a sphere walk on the orbit sphere through
    y: one point per cell of side rho / _WALK_SUBDIVISION of its area, at
    least 256 and at most _MAX_WALK."""
    d = y.size
    r_orbit = geodesic_distance(space, np.zeros(d), y)
    radius_scale = s_c(space.curvature, r_orbit)
    step = rho / _WALK_SUBDIVISION
    try:
        cells = sphere_area(d) * radius_scale ** (d - 1) / step ** (d - 1)
    except ZeroDivisionError:  # the cell underflows to 0
        cells = math.inf
    except OverflowError:  # a float power out of range raises; take logs
        log_cells = math.log(sphere_area(d)) + (d - 1) * (math.log(radius_scale) - math.log(step))
        cells = math.exp(min(log_cells, 700.0))
    return int(max(256, math.ceil(min(cells, _MAX_WALK))))


def _product_block_centers(y, blocks, rho):
    """Per-block packings whose product grid is automatically disjoint.

    Any two grid points differ in at least one block by a full angular step,
    which alone contributes chord >= 2 rho, so the ambient distance clears
    the threshold regardless of the other blocks.
    """
    block_centers = []
    offset = 0
    for bdim in blocks:
        yj = np.asarray(y, dtype=float)[offset : offset + bdim]
        if float(np.linalg.norm(yj)) == 0.0:
            block_centers.append(np.zeros((1, bdim)))
        else:
            walk = _circle_centers if bdim == 2 else _sphere_walk
            block_centers.append(walk(SpaceForm(bdim, 0.0), yj, rho))
        offset += bdim
    return block_centers


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
    product grid of its per-block packings.  A packing of more than
    _MAX_CENTERS centers raises ValueError: a circle or a product grid
    before any center is built, a walk at its first acceptance past the
    cap.  The certificate runs once per report and raises below 2 rho; the
    module docstring sets out the walks' ball sources and the certificates.
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
    block_centers = _product_block_centers(y, action.blocks, rho)
    total = math.prod(len(c) for c in block_centers)
    if total > _MAX_CENTERS:
        raise _too_many(total)
    grids = np.meshgrid(*[np.arange(len(c)) for c in block_centers], indexing="ij")
    centers = np.concatenate(
        [block_centers[j][g.ravel()] for j, g in enumerate(grids)], axis=1
    )
    return _certified(action, space, y, rho, centers, GREEDY)


def _packing_matrix(action, y: MatrixPoint, rho: float) -> PackingReport:
    if abs(y.a - 1.0) < 1e-12 and abs(y.b) < 1e-12 and abs(y.c - 1.0) < 1e-12:
        return PackingReport(y, rho, 1, np.array([[y.a, y.b, y.c]]), GREEDY, fixed_point=True)
    pts = _conjugation_candidates(y, rho)
    emb, chord, key, dist = _orbit_metric(action, None, pts)
    accepted = _greedy_walk(len(pts), rho, _angle_balls(emb, chord(2.0 * rho)), key, dist)
    return _certified(action, None, y, rho, pts[accepted], GREEDY)


def _conjugation_candidates(y: MatrixPoint, rho: float) -> np.ndarray:
    """The (a, b, c) rows a conjugation walk runs over: the orbit, a closed
    curve of period pi and constant speed sqrt(2) (l1 - l2) for eigenvalues
    l1 >= l2, at equal angles whose steps are rho / _WALK_SUBDIVISION long,
    at least 128 and at most _MAX_WALK of them."""
    lam1, lam2 = y.eigenvalues
    speed = math.sqrt(2.0) * (lam1 - lam2)
    n_steps = int(min(_MAX_WALK, max(128, math.ceil(math.pi * speed / (rho / _WALK_SUBDIVISION)))))
    return _conjugates(y, math.pi * np.arange(n_steps) / n_steps)


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
    dim = space.dim if action.kind != PRODUCT_ROTATION else sum(action.blocks)
    with np.errstate(over="ignore"):
        # chords and exact keys square distances of up to 2r, and a sphere
        # walk is sized by the orbit's area, of order r^(dim - 1)
        huge = ~(np.isfinite((2.0 * radii) ** 2) & np.isfinite(np.abs(radii) ** (dim - 1)))
    if huge.any():
        raise ValueError(f"radius {radii[huge][0]} is out of range: (2 r)^2 and r^(dim - 1) must be finite")
    if np.any(np.diff(radii) < 0):
        raise ValueError("radii must be non-decreasing")
    rows = []
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


def orbit_diameter(action: GroupAction, space: Optional[SpaceForm], y) -> float:
    """Diameter of the orbit of y: twice its distance from the fixed point.

    Each group fixes a point (the origin, or I on the cone) and acts by
    isometries, so the orbit lies on the sphere about it through y.  That
    sphere holds the antipode of y (-y, or y^-1 = (c, -b, a), the
    quarter-turn conjugate), and the geodesic to it runs through the fixed
    point.  On the cone d(I, y) = sqrt(2) log l1 for the larger eigenvalue
    l1; the smaller is 1 / l1, as det = 1.
    """
    if action.kind == MATRIX_CONJUGATION:
        return 2.0 * math.sqrt(2.0) * math.log(max(1.0, y.eigenvalues[0]))  # det drift may put l1 below 1
    y = np.asarray(y, dtype=float)
    if action.kind == PRODUCT_ROTATION and sum(action.blocks) != y.size:
        raise ValueError(f"blocks {action.blocks} do not partition y of size {y.size}")
    if space is None:
        return 2.0 * float(np.linalg.norm(y))
    return 2.0 * geodesic_distance(space, np.zeros(y.size), y)


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
    """Smallest orbit diameter on the shell d(x0, x) in [R/2, R].

    An orbit's diameter is 2 d(x0, x) (orbit_diameter), so the smallest is
    R, on the inner sphere; the witness is that sphere's point on the first
    axis, present when R <= t; a witness the chart cannot hold (R/2 past
    the rim's float resolution) raises.  Conjugation orbits are refused.
    """
    if action.kind == MATRIX_CONJUGATION:
        raise ValueError("coercivity_probe takes rotation actions on a SpaceForm")
    if not t > 0 or not search_radius > 0:
        raise ValueError("t and search_radius must be positive")
    witness = None
    if search_radius <= t:
        witness = np.zeros(space.dim if action.kind != PRODUCT_ROTATION else sum(action.blocks))
        witness[0] = _chart_radius(space, search_radius / 2.0)
        space.point(witness)
    return CoercivityReport(t, search_radius, search_radius, witness)


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
    conjugation_length: float


def orbit_hausdorff_matrix(y: MatrixPoint) -> MatrixOrbitMeasure:
    """Length of the rotation-orbit curve through y and the comparison
    length >= pi * d(I, y) in the trace metric.

    The orbit curve is theta -> y @ rotation(theta), whose speed in the
    Frobenius norm is the constant ||y||_F, giving length 2 pi ||y||_F.
    conjugation_length is that of the conjugation orbit theta -> R y R^T
    over its period pi, with speed sqrt(2) (l1 - l2) for eigenvalues l1 >= l2.
    """
    frob = math.sqrt(y.a**2 + 2.0 * y.b**2 + y.c**2)
    length = 2.0 * math.pi * frob
    lam1, lam2 = y.eigenvalues
    dist = math.sqrt(math.log(lam1) ** 2 + math.log(lam2) ** 2)
    return MatrixOrbitMeasure(
        length=length,
        distance_to_identity=dist,
        kappa_check=length >= math.pi * dist - 1e-12,
        conjugation_length=math.sqrt(2.0) * math.pi * (lam1 - lam2),
    )
