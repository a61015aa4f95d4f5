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
from .fbdiag import _time_index, active_cut, active_mask_from
from .geometry import diffusivities
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


def default_dt(scenario):
    """Default step 2h / max(max_datum, 1): about two cells of front motion.

    In the mesa limit the backward-Euler sum W^n solves the obstacle
    problem at t_n for any dt, so the sweep route's accuracy is bounded by
    the O(1/m) route gap, not by the step length.  The front speed is
    bounded by the sup of the pressure data, so a step moves the front about
    two cells.  The time functions stay sharper than one step: a cell with
    positive load reads its arrival from W's quadratic growth over the
    next step (:class:`RunResult`), and the contact record keeps its
    tolerance at one cell's time, :attr:`Scenario.cell_time
    <mesahs.geometry.Scenario.cell_time>`.  For p == 0 there is no
    evolution and any step works.
    """
    return 2.0 * scenario.cell_time


#: the columns of ``RunResult.step_log``, in the order of each row
STEP_LOG_COLUMNS = ("step", "t", "influx", "cumulative", "sweeps", "residual",
                    "box_cells", "checks", "regrowths", "corrections")


@dataclass
class RunResult:
    """Snapshots and diagnostics of the last level of one enthalpy run.

    ``m_list`` holds the run's diffusivities in the order they march; ``m``
    is the last.  In a sweep (:func:`mesa.sweep`) that level is the limit:
    its temperatures are the limiting pressures V.  ``u_fields``,
    ``theta_fields``, ``w_integrals``, ``q_masks`` and ``tail_gap`` hold
    one entry per entry of ``times``: ``tail_gap`` is the largest cellwise
    temperature gap between the last two levels (0.0 with one level), and
    ``q_masks`` the plateau region Q, the FLUID cells with u >= 1 - h.
    ``first_theta_time`` holds, per cell, the arrival time of the
    temperature: the step in which it first passed
    :func:`~mesahs.fbdiag.active_cut` of that step's temperature brackets
    it (inf if it never did).  A cell with positive load reads it from W's
    quadratic growth over the next step (:func:`_arrival`); a zero-load
    cell (:attr:`Scenario.zero_load <mesahs.geometry.Scenario.zero_load>`),
    which floods at once, and a cell first active in the run's last step
    keep the step's midpoint.
    ``w_integrals`` holds the backward-Euler sums W^n = sum_k dt_k theta^k,
    the discrete Baiocchi transform of the run: the steps telescope to
    u^n - u_init = -A_h W^n + t_n * slot_load on FLUID, up to rounding, for
    any dt.  ``step_log`` holds one row per step, its columns named by
    :data:`STEP_LOG_COLUMNS`: the slot influx, the cells of the solve's box
    (its last window and ring) and the solve's residual checks, box
    regrowths and coarse corrections among them; ``mass_error`` is the gap
    between the total enthalpy gain and the last cumulative influx.
    """

    m_list: tuple
    dt: float
    times: list
    u_fields: list
    theta_fields: list
    w_integrals: list       # backward-Euler sums of dt * temperature
    q_masks: list
    first_theta_time: np.ndarray
    tail_gap: list
    mass_error: float
    step_log: list
    grid: object
    u_init: np.ndarray

    @property
    def m(self):
        return self.m_list[-1]

    @property
    def steps(self):
        return len(self.step_log)

    @property
    def u_inf(self):
        """Projected representation: 1 on Q, u_init off Q."""
        return [np.where(q, 1.0, self.u_init) for q in self.q_masks]

    def w_integral_at(self, t):
        i = _time_index(self.times, t)
        return None if i is None else self.w_integrals[i]

    def active_mask_at(self, t):
        i = _time_index(self.times, t)
        return None if i is None else active_mask_from(self.theta_fields[i],
                                                       self.grid)


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
    # the ring no flux moves.  Pad 2, and a leaking window regrows by
    # 2 * pad = 4 cells: the default step moves the front about two cells,
    # and on compare's sweep at h = 1/32 pads 2, 3 and 4 take 4, 2 and 1
    # regrowths but 78.9, 81.1 and 83.7 million cell updates
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

    ``u`` is its enthalpy on ``box``, the box its steps have touched, at
    first the stencil's ``slot_box``; outside it the enthalpy is the
    initial one.  ``c`` is the Richardson factor of its start, and ``drop``
    the sum of its steps' largest enthalpy drops since the last snapshot.
    """

    m: float
    box: tuple
    u: np.ndarray
    c: float = 0.0
    drop: float = 0.0


def _swap(u, held, level, u_init):
    """Move the shared enthalpy buffer ``u`` from ``held`` to ``level``.

    ``held`` takes back its enthalpy on its box, where ``u`` returns to
    ``u_init``, the enthalpy every level starts from; ``level`` lends its
    own to ``u``.
    """
    b = held.box
    held.u = u[b].copy()
    u[b] = u_init[b]
    u[level.box] = level.u
    level.u = None


def _arrival(w_n, w_next, t_before, t_n, t_next):
    """Arrival times of cells first active in the step from ``t_before`` to
    ``t_n``, read from their backward-Euler sums ``w_n`` at ``t_n`` (positive)
    and ``w_next`` at ``t_next``.

    Near a moving front the obstacle solution grows like
    W = a * (t - tau)^2 from the arrival tau, its C^{1,1} regularity and
    nondegeneracy: with s = sqrt(W^(n+1) / W^n), tau = (s * t_n - t_(n+1))
    / (s - 1), clipped to the step.  W that did not grow (s = 1) reads as
    the step's start.
    """
    s = np.sqrt(w_next / w_n)
    with np.errstate(divide="ignore"):
        tau = (s * t_n - t_next) / (s - 1.0)
    return np.clip(tau, t_before, t_n)


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

    Every level starts from ``scenario.u_init`` and keeps only its
    enthalpy, on the box its steps have touched.  One full-grid enthalpy
    and two temperature buffers serve every step: level k steps in buffer
    k mod 2, which still holds level k - 2's temperature, so its guess is
    formed before that buffer is zeroed.  Every box, a level's and the one
    outside which a buffer is zero, starts at the stencil's ``slot_box``,
    which every solve's box holds.  Only the last level keeps first times,
    W^n, Q, a step log and snapshot copies.  Cellwise
    time-monotonicity of u is asserted at every step and between
    snapshots: the last level compares its consecutive snapshots, a lower
    level the sum of its steps' largest drops.  As soon as level k >= 1 has
    stepped onto a snapshot time its temperature is checked to be
    nondecreasing in m against level k - 1, up to ``MONOTONE_SWEEP_TOL``;
    the last pair's largest gap is the snapshot's ``tail_gap``, and a
    snapshot reached without a step repeats the last one (0.0 before any).
    Returns the last level's :class:`RunResult`.
    """
    grid, u_init, zero_load = scenario.grid, scenario.u_init, scenario.zero_load
    u = u_init.copy()
    levels = [_Level(m, st.slot_box, u_init[st.slot_box]) for m in m_list]
    for k in range(2, len(levels)):
        m_a, m_b, m_c = (lv.m for lv in levels[k - 2:k + 1])
        levels[k].c = (m_c - m_b) / (m_b - m_a) * m_a / m_c
    thetas = [np.zeros(grid.shape) for _ in levels[:2]]
    wet = [st.slot_box] * len(thetas)   # the box outside which a buffer is 0
    held, top = levels[0], levels[-1]   # held: whose enthalpy u holds

    first_theta = np.full(grid.shape, np.inf)
    w_accum = np.zeros(grid.shape)
    times, u_fields, theta_fields, w_integrals, step_log = [], [], [], [], []
    q_masks, tail_gap, gap = [], [], 0.0
    cumulative = 0.0

    # t_prev and mid: the start and the midpoint of the last step taken
    t, t_prev, mid, steps = 0.0, 0.0, np.nan, 0
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
                    _swap(u, held, level, u_init)
                    held = level
                theta = thetas[k % 2]
                # the guess is zero off the box of the level below
                span = _union(level.box, wet[(k - 1) % 2]) if k else level.box
                guess = thetas[(k - 1) % 2][span] if k else None
                if k >= 2:
                    # theta still holds level k - 2's temperature
                    guess = guess + level.c * (guess - theta[span])
                theta[wet[k % 2]] = 0.0
                # off FLUID, and off the level's box, u <= u_init <= 1: the
                # rebuilt temperature m * (u - 1)_+ is zero there
                start = theta[span]
                np.maximum(level.m * (u[span] - 1.0), 0.0, out=start)
                if k:
                    np.maximum(start, guess, out=start)
                del guess   # not held through the step
                try:
                    influx, residual, sweeps, record = _advance(
                        st, u, theta, level.m, dt_step, span)
                except (SolverError, EnvelopeError) as exc:
                    raise exc.at(f"m={level.m:g}, step {steps} to "
                                 f"t={t_end:g}") from exc
                level.box = _union(level.box, record.box)
                wet[k % 2] = box = record.box
                if level is top:
                    cumulative += influx
                    step_log.append((steps, t_end, influx, cumulative, sweeps,
                                     residual,
                                     math.prod(s.stop - s.start for s in box),
                                     record.checks, record.regrowths,
                                     record.corrections))
                    # the step changed theta and u inside its box only
                    theta_box = theta[box]
                    w_box = w_accum[box]
                    first = first_theta[box]
                    # the cells first active in the previous step, still at
                    # its midpoint, read their arrival from W^n and W^(n+1);
                    # zero-load cells flood at once and keep the midpoint
                    fresh = (first == mid) & ~zero_load[box]
                    w_old = w_box[fresh]
                    w_box += dt_step * theta_box
                    first[fresh] = _arrival(w_old, w_box[fresh], t_prev, t,
                                            t_end)
                    mid = 0.5 * (t + t_end)
                    first[(theta_box > active_cut(theta_box))
                          & ~np.isfinite(first)] = mid
                else:
                    level.drop += record.drop
                if snap and k:
                    # both temperatures are zero off their boxes
                    pair = _union(box, wet[(k - 1) % 2])
                    diff = thetas[(k - 1) % 2][pair] - theta[pair]
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
            t_prev, t = t, t_end
        for level in levels[:-1]:
            if level.drop > MONOTONE_STEP_TOL:
                raise _not_monotone(level.drop).at(f"m={level.m:g}")
            level.drop = 0.0
        # u is u_init off the last level's box, where it drops by 0
        b = top.box
        drop = float(np.max((u_fields[-1] if u_fields else u_init)[b] - u[b],
                            where=grid.fluid[b], initial=0.0))
        if drop > MONOTONE_STEP_TOL:
            raise _not_monotone(drop).at(f"m={top.m:g}")
        times.append(t)
        u_fields.append(u.copy())
        theta_fields.append(thetas[(len(levels) - 1) % 2].copy())
        w_integrals.append(w_accum.copy())
        q_masks.append(grid.fluid & (u >= 1.0 - grid.h))
        tail_gap.append(gap)

    b = top.box
    gain = float(np.sum(u[b] - u_init[b], where=grid.fluid[b]))
    gain *= grid.cell_volume
    return RunResult(m_list=m_list, dt=dt, times=times, u_fields=u_fields,
                     theta_fields=theta_fields, w_integrals=w_integrals,
                     q_masks=q_masks, first_theta_time=first_theta,
                     tail_gap=tail_gap, mass_error=abs(gain - cumulative),
                     step_log=step_log, grid=grid, u_init=u_init)


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
    m_list = diffusivities(np.atleast_1d(m))
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
