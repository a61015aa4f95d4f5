"""Diffusivity sweep m -> infinity and the structure of its limit.

Temperatures increase cellwise with m, so the sweep checks that monotonicity
exactly (a violation beyond solver noise indicates a discretization fault),
takes the last level as the limiting pressure V with the gap to the previous
level recorded as the committed tail error, and materializes the limit
enthalpy: 1 on a nondecreasing plateau region Q(t), untouched initial data
elsewhere.  Q(t) uses the first-crossing convention tau(x) < t, realized on
the grid by thresholding the last-level enthalpy at 1 - h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stefan
from .errors import ConfigError, SolverError
from .fbdiag import _time_index, active_mask_from
from .stencil import _box_neighbor_sum, build_stencil

#: cellwise slack for exact monotone structure across the sweep; the sweep
#: tolerance amplified by operator conditioning and accumulated over steps
MONOTONE_SWEEP_TOL = 1e-7


@dataclass
class MesaLimit:
    """Limit data of one sweep: lists hold one array per snapshot time.

    The arrays are the last level's; ``tail_gap`` holds, per snapshot, the
    largest cellwise temperature gap to the level before it.  ``dt`` is the
    step every level ran with; ``w_integrals`` are the last level's W^n, the
    backward-Euler sums of :class:`stefan.RunResult`.
    """

    m_list: tuple
    dt: float
    times: list
    u_raw: list               # raw last-level enthalpy arrays
    q_masks: list
    tail_gap: list
    w_integrals: list         # last-level W^n, the discrete Baiocchi transform
    pressure: list            # last-level temperatures: the limiting pressures V
    t_limit: np.ndarray       # last-level first active time: step midpoints
    grid: object
    u_init: np.ndarray

    @property
    def u_inf(self):
        """Projected representation: 1 on Q, u_init off Q."""
        return [np.where(q, 1.0, self.u_init) for q in self.q_masks]

    def w_integral_at(self, t):
        i = _time_index(self.times, t)
        return None if i is None else self.w_integrals[i]

    def active_mask_at(self, t):
        i = _time_index(self.times, t)
        return None if i is None else active_mask_from(self.pressure[i],
                                                       self.grid)


def sweep(scenario, snapshot_times, dt=None):
    """Run every diffusivity in the scenario and form the limit fields.

    Requires at least three strictly increasing m values and at least one
    snapshot time; the level list, the snapshot times and dt are validated
    before any level runs.  The levels share the step length and the
    stencil and march together, each step taken by every level in m order
    from a Richardson start out of the two levels below it
    (:func:`stefan._march`), so snapshots align cellwise.  Each level's
    temperatures are checked to be nondecreasing in m against the level
    before it at every snapshot, as soon as it has stepped there: only the
    last level, and the gap of the last pair, reach the limit.
    """
    m_list = scenario.m_list
    if len(m_list) < 3:
        raise ConfigError("the sweep needs at least 3 diffusivity values")
    if not snapshot_times:
        raise ConfigError("the sweep needs at least one snapshot time")
    snapshot_times, dt = stefan._check_times(scenario, snapshot_times, dt)
    tail_gap = []

    def check(k, below, theta):
        worst = float((below - theta).max())
        if worst > MONOTONE_SWEEP_TOL:
            raise SolverError(
                f"temperature not monotone in m between m={m_list[k - 1]:g} "
                f"and m={m_list[k]:g} (violation {worst:.3e}); this "
                "indicates a discretization fault")
        if k == len(m_list) - 1:
            tail_gap.append(float(np.abs(below - theta).max()))

    result = stefan._march(scenario, m_list, snapshot_times, dt,
                           build_stencil(scenario), check)

    grid = scenario.grid
    u_raw = result.u_fields
    q_masks = [grid.fluid & (u >= 1.0 - grid.h) for u in u_raw]
    for earlier, later in zip(q_masks, q_masks[1:]):
        if np.any(earlier & ~later):
            raise SolverError("plateau region not nested in time")

    return MesaLimit(
        m_list=m_list, dt=dt, times=list(result.times), u_raw=u_raw,
        q_masks=q_masks, tail_gap=tail_gap, w_integrals=result.w_integrals,
        pressure=result.theta_fields, t_limit=result.first_theta_time,
        grid=grid, u_init=scenario.u_init)


def representation_check(limit, scenario, tol=None):
    """Check the two-value structure of the limit enthalpy.

    Reports, per snapshot, the :func:`stefan.essential_range_check` fraction
    of the raw last-level enthalpy, which must vanish under refinement.
    Nestedness of Q in time is enforced by :func:`sweep`, and ``u_inf`` is
    chi_Q + u_init * (1 - chi_Q) by definition, so neither is re-checked.
    """
    tol = tol if tol is not None else 5.0 * scenario.grid.h
    intermediate = [
        stefan.essential_range_check(u_raw, scenario.u_init, limit.m_list[-1],
                                     tol, scenario.max_datum,
                                     scenario.grid)["fraction"]
        for u_raw in limit.u_raw]
    return {"tol": tol, "intermediate_fraction": intermediate}


def harmonicity_check(pressure, active_mask, grid, interior_margin=2,
                      slot_margin=2):
    """Max discrete Laplacian of the limiting pressure inside the region.

    Cells are kept only ``interior_margin`` cells inside the active set and
    ``slot_margin`` cells away from the slot, where the pressure should be
    harmonic up to O(M/m + h).  An empty interior is reported, not an error.
    """
    from scipy import ndimage   # deferred: no solve path loads scipy
    region = ndimage.binary_erosion(active_mask, iterations=interior_margin)
    region &= ~ndimage.binary_dilation(grid.slot, iterations=slot_margin)
    region &= grid.fluid
    if not region.any():
        return {"max_residual": 0.0, "cells": 0, "empty": True}
    lap = _laplacian(pressure, grid.h)
    return {"max_residual": float(np.abs(lap[region]).max()),
            "cells": int(region.sum()), "empty": False}


def _laplacian(values, h):
    """2n-point Laplacian, zero beyond the array edge."""
    padded = np.pad(values, 1)
    box = tuple(slice(1, s + 1) for s in values.shape)
    lap = _box_neighbor_sum(padded, box) - 2.0 * values.ndim * values
    return lap / (h * h)


def detachment_ok(active_mask, grid):
    """True when the active set contains the full 1-cell collar of the slot."""
    from scipy import ndimage   # deferred: no solve path loads scipy
    collar = ndimage.binary_dilation(grid.slot, iterations=1) & grid.fluid
    return bool(np.all(active_mask[collar]))
