"""Shared fixtures: cheap unit-test scenarios plus the big acceptance runs.

The expensive session fixtures (the h=1/64 sweep, the annulus contact hunt)
are lazy: only the acceptance module requests them, so unit-test runs stay
fast.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from mesahs import baiocchi, mesa, scenarios, stefan, stencil
from mesahs.fbdiag import active_cut
from mesahs.geometry import SlotGeometry, Scenario, build_grid, radial_u_init
from mesahs.stencil import FaceStencil, build_stencil


def mini_annulus_scenario(h=1 / 16, width=0.08, m_list=(16, 64, 256),
                          t_max=0.3):
    """Small-patch analogue of the jump counter-example for cheap tests."""
    geometry = SlotGeometry.ball((0.0, 0.0), 1.0, sample_spacing=h / 2)
    breakpoints = [(0.0, 0.0), (1.5 - width, 0.0), (1.5, 1.0), (2.0, 1.0),
                   (2.0 + width, 0.0)]
    rho = max(1.0, (2.0 + width) / 2.0)
    envelope = 2.0 * rho + t_max / rho
    margin = envelope + 7 * h - 1.0
    grid = build_grid(geometry, h, margin, required_radius=envelope)
    u = radial_u_init(grid, geometry, breakpoints)
    p = np.ones(geometry.boundary_samples.shape[0])
    return Scenario(geometry=geometry, grid=grid, u_init=u, p_samples=p,
                    t_max=t_max, m_list=m_list)


def recorded_sweep(scenario, snapshot_times, **kwargs):
    """``mesa.sweep`` and what each of its levels did, as (limit, {m: run}).

    The sweep keeps only its last level; tests that compare levels read the
    records taken here from every level's steps: ``run.theta_fields`` holds
    the temperature of each step that ends on a snapshot time, and
    ``run.first_theta_time`` the midpoint of the step in which a cell first
    passes the step's active cut.  Those midpoints are not the sweep's own
    first times, which read a cell's arrival from W's quadratic growth
    where its load is positive; they serve only to compare levels
    (``test_crossings_tighten_with_m``).
    """
    runs = {}
    advance = stefan._advance
    times = [float(t) for t in snapshot_times]

    def recorded(st, u, theta, m, dt, support):
        out = advance(st, u, theta, m, dt, support)
        run = runs.setdefault(m, SimpleNamespace(
            t=0.0, theta_fields=[],
            first_theta_time=np.full(theta.shape, np.inf)))
        t, run.t = run.t, run.t + dt
        first = run.first_theta_time
        first[(theta > active_cut(theta)) & ~np.isfinite(first)] = (
            0.5 * (t + run.t))
        i = len(run.theta_fields)
        if i < len(times) and abs(run.t - times[i]) <= 1e-13:
            run.theta_fields.append(theta.copy())
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stefan, "_advance", recorded)
        limit = mesa.sweep(scenario, snapshot_times, **kwargs)
    return limit, runs


def grid_box(view, box, grid_array=None):
    """A kernel call's ``box`` on ``view``, a frame of ``grid_array`` (by
    default the array ``view`` is a view of), in grid coordinates."""
    grid_array = view.base if grid_array is None else grid_array
    offset = (view.ctypes.data - grid_array.ctypes.data) // view.itemsize
    origin = np.unravel_index(offset, grid_array.shape)
    return tuple(slice(s.start + int(o), s.stop + int(o))
                 for s, o in zip(box, origin))


def record_solves(mp):
    """The list of every ``FaceStencil.solve`` from now on, as it runs.

    Each entry holds the problem as given, copied at call time (``values``,
    ``u``, ``shift``, ``coupling``, ``load``, ``pad``, ``support``: a step
    updates u in place after its solve), the solved field ``solved``, the
    ``record`` and ``first``, the box of the solve's first kernel call in
    grid coordinates.
    """
    solves = []
    solve, kernel = FaceStencil.solve, stencil.projected_sor

    def solving(self, values, u, shift, coupling, load, pad, support):
        call = SimpleNamespace(values=values.copy(), u=np.array(u),
                               shift=shift, coupling=coupling, load=load,
                               pad=pad, support=support, target=values,
                               first=None)
        solves.append(call)
        call.record = solve(self, values, u, shift, coupling, load, pad,
                            support)
        call.solved, call.target = values.copy(), None
        return call.record

    def sweeping(values, diag, rhs, box, *args, **kwargs):
        call = solves[-1]
        if call.first is None:
            call.first = grid_box(values, box, call.target)
        return kernel(values, diag, rhs, box, *args, **kwargs)

    mp.setattr(FaceStencil, "solve", solving)
    mp.setattr(stencil, "projected_sor", sweeping)
    return solves


def interior_solves(mp):
    """Make the first window of every solve from now on the interior box:
    the reference solve.  Returns :func:`record_solves`'s list, with which
    the caller asserts that each solve's first kernel call ran there."""
    mp.setattr(FaceStencil, "first_window", lambda self, *args: self.interior)
    return record_solves(mp)


@pytest.fixture(scope="session")
def radial_coarse():
    return scenarios.radial_scenario(h=1 / 16, t_max=0.3, m_list=(16, 64, 256))


@pytest.fixture(scope="session")
def radial_coarse_stencil(radial_coarse):
    return build_stencil(radial_coarse)


@pytest.fixture(scope="session")
def mini_annulus():
    return mini_annulus_scenario()


# ---------------------------------------------------------------------------
# acceptance-scale fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def radial64():
    """The headline scenario: unit-ball slot, p = 1, empty initial data."""
    return scenarios.radial_scenario(h=1 / 64, t_max=0.5)


@pytest.fixture(scope="session")
def radial64_sweep(radial64):
    """Full diffusivity sweep at h=1/64 with wall time recorded.

    ``thetas`` holds every level's snapshot temperatures, by m.
    """
    times = [round(0.05 * k, 10) for k in range(1, 11)]
    start = time.time()
    limit, runs = recorded_sweep(radial64, snapshot_times=times)
    return {"limit": limit, "seconds": time.time() - start, "times": times,
            "thetas": {m: r.theta_fields for m, r in runs.items()}}


@pytest.fixture(scope="session")
def radial64_slices(radial64):
    """Obstacle slices at the comparison times, warm-started in order.

    Times 0.1/0.3/0.5 are equally spaced for the convexity check; 0.25 is the
    oracle-match time.  The first solve is timed cold for the runtime
    criterion.
    """
    st = build_stencil(radial64)
    start = time.time()
    first = baiocchi.solve_slice(radial64, 0.25, stencil=st)
    cold_seconds = time.time() - start
    slices = {0.25: first}
    warm = None
    for t in (0.1, 0.3, 0.5):
        warm = baiocchi.solve_slice(radial64, t, warm=warm, stencil=st)
        slices[t] = warm
    return {"slices": slices, "stencil": st, "cold_seconds": cold_seconds}


@pytest.fixture(scope="session")
def sandwich_run():
    scenario = scenarios.sandwich_scenario(h=1 / 64, k=1.0, t_max=0.2)
    result = stefan.run(scenario, 1024, snapshot_times=[0.05, 0.1, 0.15, 0.2])
    return {"scenario": scenario, "result": result}


@pytest.fixture(scope="session")
def annulus_jump():
    """Obstacle-route bracketing of the annulus contact event."""
    scenario = scenarios.annulus_scenario(h=1 / 32)
    patch = scenarios.annulus_patch_mask(scenario)
    st = build_stencil(scenario)
    solves = []
    solve_slice = baiocchi.solve_slice

    def recorded(*args, **kwargs):
        solves.append(solve_slice(*args, **kwargs))
        return solves[-1]

    with pytest.MonkeyPatch.context() as mp:
        # every slice solve, the bisection's included
        mp.setattr(baiocchi, "solve_slice", recorded)
        t_star = baiocchi.contact_time(scenario, patch, t_lo=2.0, t_hi=3.2,
                                       tol_t=2e-3, stencil=st)
        delta, dt_v = 0.01, 0.01
        pre = baiocchi.solve_slice(scenario, t_star - delta, stencil=st)
        pre2 = baiocchi.solve_slice(scenario, t_star - delta + dt_v,
                                    warm=pre, stencil=st)
        post = baiocchi.solve_slice(scenario, t_star + delta, warm=pre,
                                    stencil=st)
        post2 = baiocchi.solve_slice(scenario, t_star + delta + dt_v,
                                     warm=post, stencil=st)
    return {"scenario": scenario, "patch": patch, "t_star": t_star,
            "pre": pre, "post": post,
            "v_pre": baiocchi.recover_pressure(pre, pre2),
            "v_post": baiocchi.recover_pressure(post, post2),
            "delta": delta, "solves": solves}


@pytest.fixture(scope="session")
def lambda_slices():
    """Obstacle slice series for lam = 0 and lam = 0.5 radial scenarios."""
    out = {}
    times = [0.1, 0.2, 0.3, 0.4, 0.5]
    for lam in (0.0, 0.5):
        sc = scenarios.radial_scenario(h=1 / 32, lam=lam, t_max=0.5)
        st = build_stencil(sc)
        slices, warm = [], None
        for t in times:
            warm = baiocchi.solve_slice(sc, t, warm=warm, stencil=st)
            slices.append(warm)
        out[lam] = {"scenario": sc, "slices": slices, "times": times}
    return out
