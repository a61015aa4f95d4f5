"""Per-time-slice obstacle solver: the direct route to the flow.

For every time t the time-integrated pressure W(.,t) >= 0 solves the obstacle
problem  Delta W = (1 - u_init) on {W > 0}  with Dirichlet data p*t across the
slot boundary and W = 0 on the farfield band.  Slices are self-contained, so
any time can be solved directly, warm-started from a neighbor, or bisected
against to locate topology events.

The solver is projected red-black SOR on the face-flux discretization; the
operator is a symmetric M-matrix, so projected SOR converges for any
relaxation factor in (0, 2).  The factor is re-tuned during the iteration to
the measured width of the active set.  W vanishes outside a compact wet
region, so every slice, cold or warm, sweeps a window that regrows until
the complementarity residual on it and its one-cell ring meets tol.

The radial oracle used in tests and reports lives here too: for a unit-ball
slot, constant data p and constant initial enthalpy lam < 1, the free
boundary radius R(t) solves a scalar equation solved by bracketing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EnvelopeError, SolverError
from .fbdiag import active_mask_from, boundary_faces
from .stencil import _box_residual, _nearest_index, build_stencil

#: cells a slice's first window reaches beyond its source; a leaking window
#: regrows by twice this.  On the radial h = 1/64 ten-slice warm chain, pad
#: 4 takes 15 kernel calls, 3,601 sweeps and 110.4 M traced cell updates,
#: pad 6 12, 3,063 and 102.3 M, pad 8 11, 2,892 and 103.4 M, and pad 12 11,
#: 2,849 and 113.7 M.  Pads 4 and 6 also raise the h = 1/32 chain's sweeps
#: per slice from 145 to about 151
SLICE_WINDOW_PAD = 8

#: the radial oracle's bracket gives up beyond this radius
ORACLE_R_MAX = 1e3


@dataclass
class BaiocchiPotential:
    """Converged slice: W, its active mask, and the residual achieved.

    ``sweeps`` includes the coarse corrections, which ``corrections``
    counts, in fine-sweep equivalents.  ``box`` is the box of the solve
    (:attr:`SolveRecord.box`): W is zero off it, and it is None only where
    W is zero everywhere.
    """

    t: float
    w: np.ndarray
    active_mask: np.ndarray
    residual: float
    sweeps: int
    corrections: int = 0
    box: tuple = None

    def max_w(self):
        return float(self.w.max())


def solve_slice(scenario, t, warm=None, stencil=None):
    """Solve the obstacle problem at time t by projected red-black SOR.

    Returns a :class:`BaiocchiPotential` whose every FLUID cell satisfies
    min(-Delta_h W + (1 - u_init) - slot load, W) within ``stencil.SOLVE_TOL``.
    Raises :class:`SolverError`, naming t, on non-convergence, a NaN
    residual included, and :class:`EnvelopeError`, naming t, if the
    converged W is positive on a farfield clearance cell.

    The slice is :meth:`FaceStencil.solve` with u = u_init and (shift,
    coupling, load) = (0, 1, t), from zero or from ``warm``'s W, read on
    ``warm.box`` alone (a start with no box starts cold).  Its window holds
    the slot, the support of that start and the FLUID cells whose load is
    within one cell width of zero (a patch near saturation that the flow is
    about to reach), padded by ``SLICE_WINDOW_PAD`` cells and grown by
    twice that until the complementarity residual on it and its one-cell
    ring is within tol.
    W stays zero outside the box, and beyond the first window the load
    -(1 - u_init) is negative, so every cell beyond the ring already
    satisfies complementarity: the window changes which cells are swept,
    not the converged W, and ``residual`` is the whole grid's.
    """
    if not 0 <= t < np.inf:
        raise ConfigError("slice time must be nonnegative and finite")
    st = stencil if stencil is not None else build_stencil(scenario)
    grid = scenario.grid

    w = np.zeros(grid.shape)
    if t == 0.0:
        return BaiocchiPotential(t=0.0, w=w, active_mask=np.zeros(grid.shape, bool),
                                 residual=0.0, sweeps=0)
    support = None if warm is None else warm.box
    if support is not None:
        w[support] = warm.w[support]
    try:
        record = st.solve(w, scenario.u_init, 0.0, 1.0, t,
                          pad=SLICE_WINDOW_PAD, support=support)
    except (SolverError, EnvelopeError) as exc:
        raise exc.at(f"obstacle slice at t={t:g}") from exc
    return BaiocchiPotential(t=float(t), w=w,
                             active_mask=active_mask_from(w, grid),
                             residual=record.residual, sweeps=record.sweeps,
                             corrections=record.corrections, box=record.box)


def complementarity_report(scenario, slice_, stencil=None):
    """Cellwise residuals of the converged slice (for invariant tests)."""
    st = stencil if stencil is not None else build_stencil(scenario)
    grid = scenario.grid
    box = st.interior
    # the slice's problem, posed on the whole grid (the index ...)
    diag, rhs = st.pose(scenario.u_init, 0.0, 1.0, slice_.t, ...)
    pde, max_comp = _box_residual(slice_.w, diag, rhs, box, grid.fluid,
                                  coupling=1.0, h=grid.h)
    return {
        "min_w": float(slice_.w[grid.fluid].min()),
        "max_comp": max_comp,
        "max_product": float(np.abs((pde * slice_.w[box])[grid.fluid[box]]).max()),
    }


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def recover_pressure(slice_lo, slice_hi):
    """Pressure slice from two nearby potentials: (W(t+dt) - W(t)) / dt.

    Forward differences on purpose: the pressure can jump upward in time at
    topology changes, so a centered difference would smear the jump across
    both sides.
    """
    dt = slice_hi.t - slice_lo.t
    if dt <= 0:
        raise ConfigError("need slice_hi.t > slice_lo.t")
    return (slice_hi.w - slice_lo.w) / dt


def mass_balance_check(scenario, slice_, stencil=None):
    """Compare the weighted active area with the slot flux of W.

    At convergence the integral of (1 - u_init) over the active set equals
    the inward slot-face flux of W up to O(h * free boundary size).
    """
    st = stencil if stencil is not None else build_stencil(scenario)
    grid = scenario.grid
    weighted = float(((1.0 - scenario.u_init) * slice_.active_mask).sum()
                     * grid.cell_volume)
    flux = st.slot_influx(slice_.w, load_scale=slice_.t)
    discrepancy = abs(weighted - flux)
    rel = discrepancy / max(weighted, flux, np.finfo(float).tiny)
    return {"weighted_area": weighted, "slot_flux": flux,
            "discrepancy": discrepancy, "relative": rel}


def cross_validate(mesa_limit, slices, scenario):
    """Agreement report between the sweep route and the slice route.

    For each solved slice, compares the time-integrated sweep temperature
    with W in sup norm and the two active masks in Hausdorff cell distance.
    Uniqueness of the limit problem makes both routes target the same object.
    """
    fluid = scenario.grid.fluid
    rows = []
    for sl in slices:
        w_mesa = mesa_limit.w_integral_at(sl.t)
        if w_mesa is None:
            continue
        gap = float(np.abs((w_mesa - sl.w))[fluid].max())
        max_w = max(sl.max_w(), np.finfo(float).tiny)
        mesa_mask = mesa_limit.active_mask_at(sl.t)
        rows.append({
            "t": sl.t,
            "supgap_w": gap,
            "supgap_rel": gap / max_w,
            "max_w": max_w,
            "hausdorff_cells": hausdorff_cells(mesa_mask, sl.active_mask),
        })
    return rows


def hausdorff_cells(mask_a, mask_b):
    """Symmetric Hausdorff distance between two masks, in cell units."""
    if not mask_a.any() and not mask_b.any():
        return 0.0
    if not mask_a.any() or not mask_b.any():
        return float("inf")
    return math.sqrt(max(_farthest_sq_distance(mask_a, mask_b),
                         _farthest_sq_distance(mask_b, mask_a)))


def _farthest_sq_distance(mask_a, mask_b):
    """Largest squared distance from a cell of A to its nearest cell of B,
    an exact integer."""
    outside = np.argwhere(mask_a & ~mask_b)
    if outside.shape[0] == 0:
        return 0
    cells = np.argwhere(mask_b)
    nearest = cells[_nearest_index(outside, cells)]
    return int(((outside - nearest) ** 2).sum(axis=1).max())


# ---------------------------------------------------------------------------
# radial oracle
# ---------------------------------------------------------------------------

def radial_fb_equation(R, n=2, lam=0.0):
    """Left side of the radial free-boundary equation (equals t at radius R)."""
    R = np.asarray(R, dtype=float)
    if n == 2:
        core = 0.5 * R ** 2 * np.log(R) - 0.25 * (R ** 2 - 1.0)
    elif n == 3:
        core = (1.0 - R ** 2) / 6.0 + (R ** 3 / 3.0) * (1.0 - 1.0 / R)
    else:
        raise ConfigError("radial oracle supports n in {2, 3}")
    return (1.0 - lam) * core


def radial_fb_radius(t, n=2, lam=0.0):
    """Free-boundary radius for slot B_1, p = 1, u_init = lam, by bracketing."""
    if not (0 <= lam < 1):
        raise ConfigError("radial oracle needs lam in [0, 1)")
    if t <= 0:
        return 1.0
    # deferred: only this oracle uses scipy.optimize, and no CLI command does
    from scipy import optimize

    f = lambda R: radial_fb_equation(R, n=n, lam=lam) - t
    hi = 2.0
    while f(hi) < 0:
        hi *= 2.0
        if hi > ORACLE_R_MAX:
            raise ConfigError("radial oracle bracket exceeded ORACLE_R_MAX")
    return float(optimize.brentq(f, 1.0 + 1e-14, hi, xtol=1e-13))


def radial_w_profile(r, R, n=2, lam=0.0):
    """Oracle W profile on [1, R]: quadratic plus the radial harmonic tail."""
    r = np.asarray(r, dtype=float)
    if n == 2:
        w = (r ** 2 - R ** 2) / 4.0 - (R ** 2 / 2.0) * np.log(r / R)
    elif n == 3:
        w = (r ** 2 - R ** 2) / 6.0 + (R ** 3 / 3.0) * (1.0 / r - 1.0 / R)
    else:
        raise ConfigError("radial oracle supports n in {2, 3}")
    return (1.0 - lam) * np.where(r <= R, w, 0.0)


def fb_radius_stats(active_mask, grid, center):
    """(min, median, max) radius of free-boundary face midpoints in a mask."""
    pts = boundary_faces(active_mask, grid)
    if pts.shape[0] == 0:
        return (0.0, 0.0, 0.0)
    r = np.linalg.norm(pts - np.asarray(center), axis=1)
    return (float(r.min()), float(np.median(r)), float(r.max()))


def contact_time(scenario, patch_mask, t_lo, t_hi, tol_t, stencil=None):
    """Bisect for the first slice time whose active set meets ``patch_mask``.

    Requires ``tol_t`` > 0, ``t_lo`` < ``t_hi``, the patch inactive at
    ``t_lo`` and active at ``t_hi``.  Solves are warm-started from the
    lower bracket, which approaches the answer monotonically from below.
    Bisection ends early once the bracket is two adjacent doubles.
    """
    if not (tol_t > 0 and t_lo < t_hi):
        raise ConfigError("contact_time needs tol_t > 0 and t_lo < t_hi")
    st = stencil if stencil is not None else build_stencil(scenario)
    lo_slice = solve_slice(scenario, t_lo, stencil=st)
    hi_active = solve_slice(scenario, t_hi, stencil=st)
    if np.any(lo_slice.active_mask & patch_mask):
        raise ConfigError("patch already active at t_lo")
    if not np.any(hi_active.active_mask & patch_mask):
        raise ConfigError("patch not active at t_hi")
    lo, hi = t_lo, t_hi
    mid = 0.5 * (lo + hi)
    while hi - lo > tol_t and lo < mid < hi:
        sl = solve_slice(scenario, mid, warm=lo_slice, stencil=st)
        if np.any(sl.active_mask & patch_mask):
            hi = mid
        else:
            lo = mid
            lo_slice = sl
        mid = 0.5 * (lo + hi)
    return mid
