"""Canonical scenario constructors used by tests, reports, and examples.

All of them build on a unit-ball slot with constant pressure data and choose
the grid margin from the constant-speed propagation envelope at the time
horizon, so runs can never legitimately reach the farfield band.
"""

from __future__ import annotations

import numpy as np

from .geometry import (BAND_CLEARANCE, Scenario, SlotGeometry, build_grid,
                       radial_u_init)

DEFAULT_M_LIST = (16, 32, 64, 128, 256, 512, 1024)
#: cells from the envelope to the box edge: band 2, clearance, slack 2
_MARGIN_CELLS = 2 + BAND_CLEARANCE + 2
#: how far below its plateau an initial enthalpy still counts as the patch
_PATCH_TOL = 1e-9


def _margin_for(rho_fit, envelope_radius, h):
    margin = envelope_radius + _MARGIN_CELLS * h - rho_fit
    return float(np.ceil(margin / h) * h)


def _scenario(geometry, h, envelope_radius, u_breakpoints, p, t_max, m_list):
    _, rho_fit = geometry.bounding_center_radius()
    margin = _margin_for(rho_fit, envelope_radius, h)
    grid = build_grid(geometry, h, margin, required_radius=envelope_radius)
    if u_breakpoints is None:
        u = np.zeros(grid.shape)
    else:
        u = radial_u_init(grid, geometry, u_breakpoints)
    p_samples = np.full(geometry.boundary_samples.shape[0], float(p))
    return Scenario(geometry=geometry, grid=grid, u_init=u,
                    p_samples=p_samples, t_max=t_max, m_list=tuple(m_list))


def radial_scenario(h=1 / 64, lam=0.0, patch_radius=2.6, p=1.0, t_max=0.5,
                    m_list=DEFAULT_M_LIST, n=2):
    """Unit-ball slot, constant pressure, constant initial enthalpy lam.

    For lam > 0 the initial data sits on a compact disk of ``patch_radius``
    so the envelope stays finite; the disk is wide enough that the free
    boundary never leaves it before ``t_max`` in the default setups.
    """
    center = (0.0,) * n
    geometry = SlotGeometry.ball(center, 1.0, sample_spacing=h / 2)
    if lam > 0.0:
        rho = max(1.0, patch_radius / 2.0)
        breakpoints = [(0.0, lam), (patch_radius, lam),
                       (patch_radius + 2 * h, 0.0)]
    else:
        rho = 1.0
        breakpoints = None
    envelope = 2.0 * rho + p * t_max / rho
    return _scenario(geometry, h, envelope, breakpoints, p, t_max, m_list)


def sandwich_scenario(h=1 / 64, k=1.0, t_max=0.2, m_list=(256, 512, 1024)):
    """Unit annulus of saturated initial data around the slot.

    Initial enthalpy 1 on 1 <= r <= 2, so the whole annulus turns diffusive
    immediately and the free boundary starts from radius 2 with a speed
    sandwiched between the certified barrier speeds.
    """
    geometry = SlotGeometry.ball((0.0, 0.0), 1.0, sample_spacing=h / 2)
    envelope = 2.0 + k * t_max
    breakpoints = [(0.0, 0.0), (1.0 - 1e-9, 0.0), (1.0, 1.0), (2.0, 1.0),
                   (2.0 + 1e-9, 0.0)]
    return _scenario(geometry, h, envelope, breakpoints, k, t_max, m_list)


def annulus_scenario(h=1 / 32, eps_patch=0.0, ramp=0.1, t_max=3.2,
                     m_list=(16, 32, 64, 128, 256), p=1.0):
    """The time-discontinuity counter-example: a saturated annulus 3 <= r <= 5.

    The initial enthalpy ramps from 0 to 1 - eps_patch across ``ramp`` and is
    constant on the patch.  Once the moving front reaches the patch inner
    edge, the active region jumps across the whole patch in a single step
    and the recovered pressure jumps upward in time.
    """
    if not (0.0 <= eps_patch <= 1.0):
        raise ValueError("eps_patch must lie in [0, 1]")
    geometry = SlotGeometry.ball((0.0, 0.0), 1.0, sample_spacing=h / 2)
    top = 1.0 - eps_patch
    breakpoints = [(0.0, 0.0), (3.0 - ramp, 0.0), (3.0, top), (5.0, top),
                   (5.0 + ramp, 0.0)]
    rho = max(1.0, (5.0 + ramp) / 2.0)
    envelope = 2.0 * rho + p * t_max / rho
    return _scenario(geometry, h, envelope, breakpoints, p, t_max, m_list)


def annulus_patch_mask(scenario):
    """Cells of the saturated patch (initial enthalpy at its max plateau)."""
    top = float(scenario.u_init.max())
    return scenario.grid.fluid & (scenario.u_init >= top - _PATCH_TOL)


def two_slot_scenario(h=1 / 16, p=1.0, t_max=0.2, m_list=(16, 64, 256),
                      separation=3.0, radius=0.5):
    """Two disjoint ball slots; exercises multi-component injection."""
    c = separation / 2.0
    geometry = SlotGeometry.union_of_balls(
        [(-c, 0.0), (c, 0.0)], [radius, radius], sample_spacing=h / 2)
    _, rho_fit = geometry.bounding_center_radius()
    envelope = 2.0 * rho_fit + p * t_max / rho_fit
    return _scenario(geometry, h, envelope, None, p, t_max, m_list)
