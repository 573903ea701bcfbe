"""Bit-identity guards for the radial discretisation.

The reference functions below are the radial cell quadratures, per-cell
interpolants, trapezoid nodal weights and Randers densities exactly as they
were written inline in pde, modelspace, rearrange and sobolev before those
modules shared numerics.cell_nodes, RadialProfile.cell_values and
randers.radial_density.  They are reference implementations: every value
the package computes from the shared helpers must equal them bit for bit.
"""

import math

import numpy as np
import pytest

from randerslab.modelspace import (
    SpaceForm,
    area_factor,
    comparison_volume,
    cumulative_ball_volumes,
    unit_ball_volume,
)
from randerslab.numerics import gauss_legendre
from randerslab.pde import example_problem
from randerslab.randers import BetaProfile, RandersStructure, radial_conorm
from randerslab.rearrange import RadialProfile, gradient_lp_norm, lq_norm, tent_profile
from randerslab.sobolev import sobolev_norms


def _ref_cumulative_ball_volumes(space, radii):
    rule = gauss_legendre(8)
    mid = 0.5 * (radii[:-1] + radii[1:])[:, None]
    half = 0.5 * np.diff(radii)[:, None]
    xs = mid + half * rule.nodes[None, :]
    vals = area_factor(space, xs)
    shells = (half * vals * rule.weights[None, :]).sum(axis=1)
    out = np.zeros_like(radii)
    out[1:] = np.cumsum(shells)
    return out


def _ref_disc(problem):
    """PDEProblem._build as it was written inline, with the kernel factors,
    the lumped mass and the forward distance that were built apart from it."""
    base = problem.randers.base
    d = base.dim
    c = (d - 1) * problem.kappa / 2.0
    xi = np.linspace(0.0, 1.0, problem.n_cells + 1)
    r = -np.log1p(xi * (math.exp(-c * problem.r_max) - 1.0)) / c
    r[0], r[-1] = 0.0, problem.r_max
    dr = np.diff(r)
    mid = 0.5 * (r[:-1] + r[1:])
    b_mid = np.asarray(problem.randers.beta(mid), dtype=float)
    rise, fall = 1.0 + b_mid, 1.0 - b_mid
    d_rise, d_fall = 1.0 / rise, -1.0 / fall
    b_node = np.asarray(problem.randers.beta(r), dtype=float)
    dens_mid = (1.0 - b_mid**2) ** ((d + 1) / 2.0)
    dens_node = (1.0 - b_node**2) ** ((d + 1) / 2.0)
    shell_g = np.diff(_ref_cumulative_ball_volumes(base, r))
    vol_f = dens_mid * shell_g
    area_node = np.asarray(area_factor(base, r), dtype=float)
    af_node = dens_node * area_node
    trap = np.zeros(r.size)
    trap[:-1] += 0.5 * dr
    trap[1:] += 0.5 * dr
    alpha_node = np.asarray(problem.alpha(r), dtype=float)
    jw = trap * alpha_node * af_node
    return {
        "r": r,
        "dr": dr,
        "b_mid": b_mid,
        "vol_f": vol_f,
        "shell_g": shell_g,
        "trap_area_g": trap * area_node,
        "jw": jw,
        "alpha_l1": float(jw.sum()),
        "rise": rise,
        "fall": fall,
        "d_rise": d_rise,
        "d_fall": d_fall,
        "d_rise2": d_rise**2,
        "d_fall2": d_fall**2,
        "dr2": dr**2,
        "mass": trap * area_node + 1e-300,
        "tau": _ref_forward_distance(problem, r, dr),
    }


def _ref_forward_distance(problem, r, dr):
    rule = gauss_legendre(8)
    mid = 0.5 * (r[:-1] + r[1:])[:, None]
    half = 0.5 * dr[:, None]
    rs = mid + half * rule.nodes[None, :]
    vals = 1.0 + np.asarray(problem.randers.beta(rs), dtype=float)
    cell = (half * rule.weights[None, :] * vals).sum(axis=1)
    out = np.zeros_like(r)
    out[1:] = np.cumsum(cell)
    return out


def _ref_lq_norm(u, q):
    if q == math.inf:
        return float(np.max(np.abs(u.values)))
    rule = gauss_legendre(4)
    mid = 0.5 * (u.grid[:-1] + u.grid[1:])[:, None]
    half = 0.5 * np.diff(u.grid)[:, None]
    rs = mid + half * rule.nodes[None, :]
    frac = (rs - u.grid[:-1, None]) / np.diff(u.grid)[:, None]
    uu = u.values[:-1, None] + frac * np.diff(u.values)[:, None]
    area = area_factor(u.space, rs)
    integral = float(np.sum(half * rule.weights[None, :] * np.abs(uu) ** q * area))
    return integral ** (1.0 / q)


def _ref_gradient_lp_norm(u, p):
    slopes = np.diff(u.values) / np.diff(u.grid)
    rule = gauss_legendre(4)
    mid = 0.5 * (u.grid[:-1] + u.grid[1:])[:, None]
    half = 0.5 * np.diff(u.grid)[:, None]
    rs = mid + half * rule.nodes[None, :]
    area = area_factor(u.space, rs)
    shell = (half * rule.weights[None, :] * area).sum(axis=1)
    return float(np.sum(np.abs(slopes) ** p * shell)) ** (1.0 / p)


def _ref_w1p_powers(u, structure, p):
    """(w1p_finsler, w1p_riemann) of sobolev_norms as it was written inline."""
    space = u.space
    slopes = np.diff(u.values) / np.diff(u.grid)
    rule = gauss_legendre(4)
    mid = 0.5 * (u.grid[:-1] + u.grid[1:])[:, None]
    half = 0.5 * np.diff(u.grid)[:, None]
    rs = mid + half * rule.nodes[None, :]
    frac = (rs - u.grid[:-1, None]) / np.diff(u.grid)[:, None]
    uu = u.values[:-1, None] + frac * np.diff(u.values)[:, None]
    area = area_factor(space, rs)

    def pieces(b_mid, dens):
        weighted = area * dens
        shell = (half * rule.weights[None, :] * weighted).sum(axis=1)
        conorms = radial_conorm(b_mid, slopes)
        grad_pow = float(np.sum(np.abs(conorms) ** p * shell))
        func_pow = float(np.sum(half * rule.weights[None, :] * np.abs(uu) ** p * weighted))
        return grad_pow + func_pow

    riemann = pieces(np.zeros(slopes.size), np.ones_like(rs))
    if isinstance(structure, RandersStructure) and structure.beta_sup > 0:
        b = structure.beta(rs)
        dens = (1.0 - b * b) ** ((structure.dim + 1) / 2.0)
        finsler = pieces(structure.beta(0.5 * (u.grid[:-1] + u.grid[1:])), dens)
    else:
        finsler = riemann
    return finsler, riemann


@pytest.mark.parametrize("n_cells", [256, 1024])
def test_pde_discretisation_is_bit_identical(n_cells):
    problem = example_problem(n_cells=n_cells)
    ref = _ref_disc(problem)
    disc = problem.disc
    assert set(disc) == set(ref)
    for key, value in ref.items():
        assert np.array_equal(disc[key], value), key


def _randers(dim, curvature, beta_sup):
    return RandersStructure(SpaceForm(dim, curvature), BetaProfile("tanh", beta_sup))


def _uneven_tent(structure, radius, n):
    """Tent on a graded grid: cells of unequal width exercise the interpolant."""
    xi = np.linspace(0.0, 1.0, n + 1)
    grid = radius * xi**1.5
    return RadialProfile(grid=grid, values=1.0 - grid / radius, ambient=structure)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("shape", ["tent", "uneven"])
def test_radial_norms_are_bit_identical(dim, shape):
    structure = _randers(dim, -1.0, 0.6)
    if shape == "tent":
        u = tent_profile(structure, 1.3, height=0.8, n=512)
    else:
        u = _uneven_tent(structure, 1.3, 300)
    space = u.space
    assert np.array_equal(
        cumulative_ball_volumes(space, u.grid), _ref_cumulative_ball_volumes(space, u.grid)
    )
    for q in (1.5, 2.0, 4.5, math.inf):
        assert lq_norm(u, q) == _ref_lq_norm(u, q)
    for p in (1.5, 2.0, 3.5):
        assert gradient_lp_norm(u, p) == _ref_gradient_lp_norm(u, p)
    for p in (1.5, 2.0, 3.5):
        norms = sobolev_norms(u, structure, p, qs=(2.0, 4.0))
        assert (norms.w1p_finsler, norms.w1p_riemann) == _ref_w1p_powers(u, structure, p)
        assert norms.lq == {q: _ref_lq_norm(u, q) for q in (2.0, 4.0)}


@pytest.mark.parametrize("dim", [2, 3])
def test_plain_space_form_has_unit_density(dim):
    # a Randers structure with beta = 0 gives the Riemannian energy on both sides
    space = SpaceForm(dim, -1.0)
    u = tent_profile(space, 1.0, n=128)
    assert lq_norm(u, 3.0) == _ref_lq_norm(u, 3.0)
    flat = RandersStructure(space, BetaProfile())
    norms = sobolev_norms(u, flat, 2.5)
    assert norms.w1p_finsler == norms.w1p_riemann == _ref_w1p_powers(u, flat, 2.5)[1]


def _ref_comparison_volume(c, d, rho):
    k = math.sqrt(-c)
    panels = max(4, int(math.ceil(k * rho)))
    rule = gauss_legendre(32)
    edges = np.linspace(0.0, rho, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs, ws = 0.5 * (lo + hi) + 0.5 * (hi - lo) * rule.nodes, 0.5 * (hi - lo) * rule.weights
        total += float(ws @ (np.sinh(k * xs) / k) ** (d - 1))
    return d * unit_ball_volume(d) * total


@pytest.mark.parametrize("c, d, rho", [(-1.0, 2, 0.5), (-1.0, 3, 2.0), (-2.25, 4, 7.0), (-0.3, 5, 30.0)])
def test_comparison_volume_moves_by_ulps_only(c, d, rho):
    # the panels are summed in one pass now, not panel by panel
    assert comparison_volume(c, d, rho) == pytest.approx(_ref_comparison_volume(c, d, rho), rel=2e-15)
