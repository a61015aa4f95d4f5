"""Implicit enthalpy solver for the diffusivity-m approximating problem.

The conserved per-cell quantity is the enthalpy u; the diffusing quantity is
the temperature m*(u - 1)_+, which carries Dirichlet data p across the slot
boundary.  Each backward-Euler step is a complementarity problem in the
temperature: a cell is either frozen (u < 1, temperature 0) or diffusive
(temperature m*(u - 1)), and the operator (1/m + dt * A) with the face-flux
Laplacian A is a symmetric M-matrix, so the step's solution is unique and
the solve may start from any temperature: the start changes the sweep
count, never the answer.  A run starts each step from the temperature
rebuilt from its enthalpy; the levels of an m-sweep march together and
also start from an extrapolation of the levels below them.
:meth:`FaceStencil.solve` sweeps a window around the cells that can be
active within the step, regrown until the complementarity residual on it
and its one-cell ring meets tol, so the window never changes the converged
answer.

The free-boundary condition is implicit in the conservative form and never
imposed separately.  A step is conservative by construction: the enthalpy
update is dt times the net face flux of the solved temperature, so the
total enthalpy gain equals the slot influx recorded in the step log up to
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EnvelopeError, SolverError
from .fbdiag import active_cut
from .stencil import SolveRecord, _union, build_stencil

#: per-step slack allowed on cellwise time-monotonicity of u
MONOTONE_STEP_TOL = 1e-8
#: cellwise slack for exact monotone structure across the levels of a march;
#: the solve tolerance amplified by operator conditioning and accumulated
#: over steps
MONOTONE_SWEEP_TOL = 1e-7
#: most steps one run may take, far above any run in the package (the finest
#: on the refinement ladder, dt = h/16 at h = 1/128 to t = 0.5, takes 1,024):
#: a dt so small that t + dt rounds to t would otherwise never end
MAX_STEPS = 2 ** 20


def _diffusivity(m):
    """``m`` as a float; raises ConfigError unless it is positive and finite."""
    m = float(m)
    if not 0.0 < m < np.inf:
        raise ConfigError(f"diffusivity m must be positive and finite, "
                          f"got {m:g}")
    return m


def default_dt(scenario):
    """Default step h / max(max_datum, 1): about one cell of front motion.

    In the mesa limit the backward-Euler sum W^n solves the obstacle
    problem at t_n for any dt, so the sweep route's accuracy is bounded by
    the O(1/m) route gap, not by the step length.  The front speed is
    bounded by the sup of the pressure data, so a step moves the front about
    one cell, and the time functions resolve to one step; for p == 0 there
    is no evolution and any step works.
    """
    m_datum = scenario.max_datum
    return scenario.grid.h / max(m_datum, 1.0)


@dataclass
class RunResult:
    """Snapshots and diagnostics of the last level of one enthalpy run.

    ``m_list`` holds the run's diffusivities in the order they march; ``m``
    is the last.  ``u_fields``, ``theta_fields``, ``w_integrals`` and
    ``tail_gap`` hold one entry per entry of ``times``: ``tail_gap`` is the
    largest cellwise temperature gap between the last two levels (0.0 with
    one level).  ``first_theta_time`` holds, per cell, the midpoint
    of the step in which the temperature first passed
    :func:`~mesahs.fbdiag.active_cut` of that step's temperature (inf if
    it never did).
    ``w_integrals`` holds the backward-Euler sums W^n = sum_k dt_k theta^k,
    the discrete Baiocchi transform of the run: the steps telescope to
    u^n - u_init = -A_h W^n + t_n * slot_load on FLUID, up to rounding, for
    any dt.  ``step_log`` holds one row per step:
    (step, t, slot influx, cumulative influx, sweeps, final residual, cells
    of the solve's box, its last window and ring, residual checks, box
    regrowths, coarse corrections); ``mass_error`` is the gap between the
    total enthalpy gain and the last cumulative influx.
    """

    m_list: tuple
    dt: float
    times: list
    u_fields: list
    theta_fields: list
    w_integrals: list       # backward-Euler sums of dt * temperature
    first_theta_time: np.ndarray
    tail_gap: list
    mass_error: float
    step_log: list

    @property
    def m(self):
        return self.m_list[-1]

    @property
    def steps(self):
        return len(self.step_log)


@dataclass(frozen=True)
class StepRecord(SolveRecord):
    """The step's :class:`~mesahs.stencil.SolveRecord` and ``drop``, its
    largest enthalpy decrease on a FLUID cell (at most ``MONOTONE_STEP_TOL``).
    """

    drop: float = 0.0


def _advance(st, u, theta, m, dt, support):
    """One conservative implicit step of length ``dt`` from (u, theta).

    The step is :meth:`FaceStencil.solve` with (shift, coupling, load) =
    (1/m, dt, dt) and ``support`` as that solve takes it, from ``theta``:
    the solution is unique, so that start affects only the sweep count.
    ``theta`` and ``u`` are updated in place; no array is larger than the
    solve's frame.  Returns the step's slot influx, the solver's final
    residual and sweep count, and its whole :class:`StepRecord`.  The
    temperature is zero outside the record's box, and ``u`` changes only
    inside it.
    """
    grid = st.grid
    # the record's box is the window and its one-cell ring: the update
    # below credits the ring with the flux out of the window, and beyond
    # the ring no flux moves.  Pad 2: the default step moves the front about
    # one cell, and a leaking window regrows by 2 * pad = 4 cells
    record = st.solve(theta, u, 1.0 / m, dt, dt, pad=2, support=support)

    box = record.box
    fluid = grid.fluid[box]
    theta_box = theta[box]
    u_box = u[box]
    nb = st.neighbor_sum(theta, box)
    # the conservative update: the gain is dt times the net face flux, so the
    # steps telescope to the discrete Baiocchi identity up to rounding; on
    # diffusive cells it equals 1 + theta/m up to the step's equation
    # residual, which may exceed tol where 0 < theta <= tol
    u_new = u_box + dt * (nb + st.slot_load[box] - st.diag[box] * theta_box)

    # cells outside the box keep their enthalpy: they drop by 0
    drop = float(np.max(u_box - u_new, where=fluid, initial=0.0))
    if drop > MONOTONE_STEP_TOL:
        raise SolverError(
            f"enthalpy decreased by {drop:.3e} in one step; "
            "monotone structure violated")

    np.copyto(u_box, u_new, where=fluid)
    return (st.slot_influx(theta) * dt, record.residual, record.sweeps,
            StepRecord(**vars(record), drop=drop))


@dataclass
class _Level:
    """One diffusivity of a march.

    ``u`` is its enthalpy on ``box``, the box its steps have touched;
    outside it the enthalpy is the initial one.  ``c`` is the Richardson
    factor of its start, and ``drop`` the sum of its steps' largest
    enthalpy drops since the last snapshot.
    """

    m: float
    c: float = 0.0
    box: tuple = None
    u: np.ndarray = None
    drop: float = 0.0


def _swap(u, held, level, u_start):
    """Move the shared enthalpy buffer ``u`` from ``held`` to ``level``.

    ``held`` takes back its enthalpy on its box, where ``u`` returns to
    ``u_start``, the enthalpy every level starts from; ``level`` lends its
    own to ``u``.
    """
    if held.box is not None:
        b = held.box
        held.u = u[b].copy()
        u[b] = u_start[b]
    if level.box is not None:
        u[level.box] = level.u
        level.u = None


def _start(theta, level, u, below=None, below2=None):
    """Write a level's start on a box into its view ``theta``.

    Off FLUID, and off the level's box, u is at most u_init <= 1, so the
    rebuilt temperature m * (u - 1)_+ is zero there.  ``below`` and
    ``below2`` are the temperatures of the levels below, if any.
    """
    np.maximum(level.m * (u - 1.0), 0.0, out=theta)
    if below is not None:
        if below2 is not None:
            below = below + level.c * (below - below2)
        np.maximum(theta, below, out=theta)


def _not_monotone(drop):
    return SolverError(f"u not monotone between snapshots (drop {drop:.2e})")


def _march(scenario, m_list, snapshot_times, dt, st):
    """Advance the levels ``m_list`` through the same steps, in m order.

    Each step time is reached by every level in turn.  Level k starts its
    step from the larger of m_k * (u_k - 1)_+, its temperature rebuilt
    from its enthalpy, and the Richardson guess
    max(theta_(k-1) + c_k * (theta_(k-1) - theta_(k-2)), 0) of the two
    levels below it at the same step, with c_k = (m_k - m_(k-1)) /
    (m_(k-1) - m_(k-2)) * m_(k-2) / m_k: the 1/m law of the temperatures,
    1/2 when m doubles.  The second level takes theta_1 alone, the first
    no guess.  Each step's solution is unique, so the start moves only
    rounding and sweep counts.

    A level keeps only its enthalpy, on the box its steps have touched.
    One full-grid enthalpy and three temperature buffers (the level being
    stepped and the two below it) serve every step, and only the last level
    keeps first times, W^n, a step log and snapshot copies.  Cellwise
    time-monotonicity of u is asserted at every step and between
    snapshots: the last level compares its consecutive snapshots, a lower
    level the sum of its steps' largest drops.  As soon as level k >= 1 has
    stepped onto a snapshot time its temperature is checked to be
    nondecreasing in m against level k - 1, up to ``MONOTONE_SWEEP_TOL``;
    the last pair's largest gap is the snapshot's ``tail_gap``, and a
    snapshot reached without a step repeats the last one (0.0 before any).
    Returns the last level's :class:`RunResult`.
    """
    grid = scenario.grid
    u_start = np.where(grid.fluid | grid.farfield, scenario.u_init, 0.0)
    u = u_start.copy()
    levels = [_Level(m) for m in m_list]
    for k in range(2, len(levels)):
        m_a, m_b, m_c = (lv.m for lv in levels[k - 2:k + 1])
        levels[k].c = (m_c - m_b) / (m_b - m_a) * m_a / m_c
    thetas = [np.zeros(grid.shape) for _ in levels[:3]]
    wet = [None] * len(thetas)      # the box outside which a buffer is zero
    held, top = levels[0], levels[-1]   # held: whose enthalpy u holds
    nowhere = (slice(0, 0),) * grid.n   # the box of a level yet to step

    first_theta = np.full(grid.shape, np.inf)
    w_accum = np.zeros(grid.shape)
    times, u_fields, theta_fields, w_integrals, step_log = [], [], [], [], []
    tail_gap, gap = [], 0.0
    cumulative = 0.0

    t, steps = 0.0, 0
    for target in snapshot_times:
        # a step within 1e-13 of the target is stretched to land on it; a
        # target within 1e-13 of the time reached is recorded at that time,
        # so every snapshot time is the sum of the steps taken to reach it
        while t < target - 1e-13:
            snap = target - t <= dt + 1e-13
            dt_step = target - t if snap else dt
            t_end = target if snap else t + dt_step
            steps += 1
            for k, level in enumerate(levels):
                if level is not held:
                    _swap(u, held, level, u_start)
                    held = level
                theta = thetas[k % 3]
                if wet[k % 3] is not None:
                    theta[wet[k % 3]] = 0.0
                # the guess is zero outside the box of the level below
                span = _union(level.box, wet[(k - 1) % 3] if k else None)
                if span is not None:
                    below = [thetas[(k - j) % 3][span]
                             for j in range(1, min(k, 2) + 1)]
                    _start(theta[span], level, u[span], *below)
                try:
                    influx, residual, sweeps, record = _advance(
                        st, u, theta, level.m, dt_step, span)
                except (SolverError, EnvelopeError) as exc:
                    raise exc.at(f"m={level.m:g}, step {steps} to "
                                 f"t={t_end:g}") from exc
                level.box = _union(level.box, record.box)
                wet[k % 3] = box = record.box
                if level is top:
                    cumulative += influx
                    step_log.append((steps, t_end, influx, cumulative, sweeps,
                                     residual,
                                     math.prod(s.stop - s.start for s in box),
                                     record.checks, record.regrowths,
                                     record.corrections))
                    # the step changed theta and u inside its box only
                    theta_box = theta[box]
                    w_accum[box] += dt_step * theta_box
                    first = first_theta[box]
                    first[(theta_box > active_cut(theta_box))
                          & ~np.isfinite(first)] = 0.5 * (t + t_end)
                else:
                    level.drop += record.drop
                if snap and k:
                    # both temperatures are zero off their boxes
                    pair = _union(box, wet[(k - 1) % 3])
                    diff = thetas[(k - 1) % 3][pair] - theta[pair]
                    worst = float(diff.max())
                    if worst > MONOTONE_SWEEP_TOL:
                        raise SolverError(
                            f"temperature not monotone in m between "
                            f"m={levels[k - 1].m:g} and m={level.m:g} "
                            f"(violation {worst:.3e}); this indicates a "
                            "discretization fault")
                    if level is top:
                        gap = float(np.abs(diff).max())
                    del diff    # not held through the next levels' steps
            t = t_end
        for level in levels[:-1]:
            if level.drop > MONOTONE_STEP_TOL:
                raise _not_monotone(level.drop).at(f"m={level.m:g}")
            level.drop = 0.0
        # u is u_start off the last level's box, where it drops by 0
        b = top.box or nowhere
        drop = float(np.max((u_fields[-1] if u_fields else u_start)[b] - u[b],
                            where=grid.fluid[b], initial=0.0))
        if drop > MONOTONE_STEP_TOL:
            raise _not_monotone(drop).at(f"m={top.m:g}")
        times.append(t)
        u_fields.append(u.copy())
        theta_fields.append(thetas[(len(levels) - 1) % 3].copy())
        w_integrals.append(w_accum.copy())
        tail_gap.append(gap)

    b = top.box or nowhere
    gain = float(np.sum(u[b] - u_start[b], where=grid.fluid[b]))
    gain *= grid.cell_volume
    return RunResult(m_list=m_list, dt=dt, times=times, u_fields=u_fields,
                     theta_fields=theta_fields, w_integrals=w_integrals,
                     first_theta_time=first_theta, tail_gap=tail_gap,
                     mass_error=abs(gain - cumulative), step_log=step_log)


def run(scenario, m, snapshot_times, dt=None, stencil=None):
    """March the m-problem through ``snapshot_times`` and collect fields.

    ``m`` is one diffusivity or a strictly increasing sequence of them, each
    positive and finite; the levels march together (:func:`_march`) and the
    result is the last level's.  Snapshot times must be sorted within
    [0, t_max]; the step length shrinks to land on each exactly, and a
    snapshot time within 1e-13 of the time already reached is recorded at
    that time.  The levels, the times and dt (the default if None) are
    validated before any step; a bad one raises ConfigError.  Cellwise
    time-monotonicity, and monotonicity in m across levels, are asserted
    as the levels march, and the run aborts if temperature ever reaches the
    farfield clearance.  Returns a :class:`RunResult`.
    """
    m_list = tuple(map(_diffusivity, np.atleast_1d(m)))
    if not m_list or any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ConfigError("diffusivities must be a non-empty, strictly "
                          "increasing sequence")
    snapshot_times = [float(t) for t in snapshot_times]
    if not all(0.0 <= t <= scenario.t_max + 1e-12 for t in snapshot_times):
        raise ConfigError("snapshot times must lie within [0, t_max]")
    if any(b < a for a, b in zip(snapshot_times, snapshot_times[1:])):
        raise ConfigError("snapshot times must be sorted")
    dt = float(dt) if dt is not None else default_dt(scenario)
    if not 0 < dt < np.inf:
        raise ConfigError("dt must be positive and finite")
    steps = max(snapshot_times, default=0.0) / dt
    if not steps <= MAX_STEPS:
        raise ConfigError(f"dt={dt:g} takes {steps:.3g} steps, more than "
                          f"the bound of {MAX_STEPS:,}")
    st = stencil if stencil is not None else build_stencil(scenario)
    return _march(scenario, m_list, snapshot_times, dt, st)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def essential_range_check(u, u_init, m, tol, max_datum, grid):
    """Fraction of FLUID cells outside {u_init(x)} union [1-tol, 1+M/m+tol].

    ``u`` is an enthalpy array.  The limit structure forbids values strictly
    between the initial data and the unit plateau; on a grid only an
    O(h)-wide transition ring may offend, so the fraction must vanish under
    refinement.
    """
    fluid = grid.fluid
    near_init = np.abs(u - u_init) <= tol
    in_plateau = (u >= 1.0 - tol) & (u <= 1.0 + max_datum / m + tol)
    offending = fluid & ~(near_init | in_plateau)
    count = int(offending.sum())
    cells = np.argwhere(offending)[:1000]
    return {
        "fraction": count / max(int(fluid.sum()), 1),
        "count": count,
        "offending_cells": cells,
        "tol": float(tol),
        "upper": 1.0 + max_datum / m + tol,
    }


def weak_form_residual(times, u_arrays, theta_arrays, grid, phi_t, phi_lap):
    """Discrete space-time pairing of the conservation law with a test bump.

    For a smooth bump compactly supported in the open fluid region and in
    (0, t_end) the pairing of (phi_t, u) plus (lap phi, theta) telescopes to
    boundary terms that all vanish, so the sum decays like O(h + dt).
    """
    coords = grid.center_arrays()
    fluid = grid.fluid
    total = 0.0
    for k in range(1, len(times)):
        dt = times[k] - times[k - 1]
        contrib = (phi_t(coords, times[k]) * u_arrays[k]
                   + phi_lap(coords, times[k]) * theta_arrays[k])
        total += dt * float(contrib[fluid].sum()) * grid.cell_volume
    return total
