"""Diffusivity sweep m -> infinity and the structure of its limit.

The sweep is :func:`stefan.run` over the scenario's levels: they march
together, temperatures are checked to increase cellwise with m (a violation
beyond solver noise indicates a discretization fault), and the last level
is the limit, its temperatures the limiting pressure V, with the gap to the
previous level recorded as the committed tail error.  The limit enthalpy is
1 on a nondecreasing plateau region Q(t) and untouched initial data
elsewhere.  Q(t) uses the first-crossing convention tau(x) < t, realized on
the grid by thresholding the last-level enthalpy at 1 - h.
"""

from __future__ import annotations

import numpy as np

from . import stefan
from .errors import ConfigError, SolverError
from .stencil import _box_neighbor_sum


def sweep(scenario, snapshot_times, dt=None, stencil=None):
    """Run every diffusivity in the scenario and return the limit.

    Requires at least three levels and at least one snapshot time; the
    levels, the snapshot times and dt are validated before any level runs.
    The levels are one :func:`stefan.run` (``stencil`` is passed to it): they
    share the step length and the stencil, so snapshots align cellwise, and
    each level is checked to be nondecreasing in m against the level before
    it at every snapshot.  Returns the run's :class:`stefan.RunResult`, its
    plateau regions ``q_masks`` checked to be nested in time.
    """
    if len(scenario.m_list) < 3:
        raise ConfigError("the sweep needs at least 3 diffusivity values")
    if not snapshot_times:
        raise ConfigError("the sweep needs at least one snapshot time")
    result = stefan.run(scenario, scenario.m_list, snapshot_times, dt=dt,
                        stencil=stencil)
    for earlier, later in zip(result.q_masks, result.q_masks[1:]):
        if np.any(earlier & ~later):
            raise SolverError("plateau region not nested in time")
    return result


def representation_check(limit, scenario, tol=None):
    """Check the two-value structure of the limit enthalpy.

    Reports, per snapshot, the :func:`stefan.essential_range_check` fraction
    of the raw last-level enthalpy, which must vanish under refinement.
    Nestedness of Q in time is enforced by :func:`sweep`, and ``u_inf`` is
    chi_Q + u_init * (1 - chi_Q) by definition, so neither is re-checked.
    """
    tol = tol if tol is not None else 5.0 * scenario.grid.h
    intermediate = [
        stefan.essential_range_check(u, scenario.u_init, limit.m, tol,
                                     scenario.max_datum,
                                     scenario.grid)["fraction"]
        for u in limit.u_fields]
    return {"tol": tol, "intermediate_fraction": intermediate}


def harmonicity_check(pressure, active_mask, grid):
    """Max discrete Laplacian of the limiting pressure inside the region.

    Cells are kept only two cells inside the active set and two cells away
    from the slot, where the pressure should be harmonic up to O(M/m + h).
    An empty interior is reported, not an error.
    """
    from scipy import ndimage   # deferred: no solve path loads scipy
    region = ndimage.binary_erosion(active_mask, iterations=2)
    region &= ~ndimage.binary_dilation(grid.slot, iterations=2)
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
