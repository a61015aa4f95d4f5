"""Face-based discretization data shared by the grid solvers.

Both grid solvers discretize the Laplacian with 2n face fluxes per cell.
Interior faces use the plain (v_nb - v_i)/h gradient; faces that cross the
slot boundary use one-sided interpolation to the sampled boundary point at
distance d <= h from the cell center, which keeps the operator an M-matrix
and makes the total update conservative.  Farfield neighbors act as
homogeneous Dirichlet cells at distance h.

The precomputed arrays here are pure geometry: per-cell diagonal weights,
slot-face weights, and the Dirichlet load carried across slot faces.  Field
arrays are kept exactly zero outside FLUID so that neighbor sums need no
masking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EnvelopeError, SolverError

#: slot-face interpolation distances are clamped away from zero for stability
MIN_FACE_FRACTION = 0.05
#: bisection steps that locate a slot-face crossing, to 2**-40 of a cell
_CROSSING_BISECTIONS = 40
#: point-sample pairs per block of the nearest-sample search: its memory
#: stays bounded whatever the slot's size
_NEAREST_SEARCH_PAIRS = 2 ** 18


def _shifted(mask, axis, step):
    """``out[i] = mask[i + step]`` along ``axis`` (step = +-1), zero-filled."""
    out = np.zeros_like(mask)
    src = [slice(None)] * mask.ndim
    dst = [slice(None)] * mask.ndim
    tail, head = slice(1, None), slice(None, -1)
    src[axis], dst[axis] = (tail, head) if step > 0 else (head, tail)
    out[tuple(dst)] = mask[tuple(src)]
    return out


def _box_neighbor_sum(values, box):
    """Sum of the 2n face-neighbor values of every cell of a box.

    The box must keep one cell of padding inside the array.  The summation
    order (axis by axis, the -1 neighbor first) is fixed: every caller gets
    bit-identical sums.
    """
    out = None
    for axis in range(values.ndim):
        for step in (-1, 1):
            src = tuple(slice(s.start + step, s.stop + step) if a == axis else s
                        for a, s in enumerate(box))
            if out is None:
                out = values[src].copy()
            else:
                out += values[src]
    return out


#: the complementarity tolerance of every solve: the limit is unique, so both
#: routes meet one residual.  ``stefan.MONOTONE_STEP_TOL`` and
#: ``stefan.MONOTONE_SWEEP_TOL`` are calibrated to it
SOLVE_TOL = 1e-10


def _sweep_budget(grid):
    """Sweeps one solve may spend over all its kernel calls."""
    return max(2000, int(50 * np.sqrt(np.count_nonzero(grid.fluid))))


def _union(a, b):
    """Bounding box of two boxes, either of which may be None."""
    if a is None or b is None:
        return b if a is None else a
    return tuple(slice(min(x.start, y.start), max(x.stop, y.stop))
                 for x, y in zip(a, b))


def _within(box, frame):
    """``box`` in the coordinates of ``frame``, a box that holds it."""
    return tuple(slice(s.start - f.start, s.stop - f.start)
                 for s, f in zip(box, frame))


@dataclass(frozen=True)
class SolveRecord:
    """What one :meth:`FaceStencil.solve` did.

    ``sweeps`` counts SOR sweeps and coarse corrections at their cost in
    fine-sweep equivalents, ``checks`` the residual checks of every kernel
    call.  ``box``, the last window and its one-cell ring, holds every cell
    the solve may change; ``residual`` over it is the whole interior's,
    unless ``stopped``: the caller's test ended the solve on a converged
    window, and ``residual`` is that window's.
    """

    residual: float
    sweeps: int
    box: tuple
    checks: int
    regrowths: int
    corrections: int
    stopped: bool = False


@dataclass(frozen=True)
class FaceStencil:
    """Per-cell coefficients for the face-flux Laplacian on one scenario.

    Immutable, its arrays read-only: one stencil is shared by every solve
    of a run, the sweep's and the slices', and :meth:`pose` hands the
    kernel views of ``diag``.
    """

    grid: object
    diag: np.ndarray        # sum over faces of 1/(h*d_f)
    slot_coef: np.ndarray   # sum over slot faces of 1/(h*d_f)
    slot_load: np.ndarray   # sum over slot faces of p_f/(h*d_f)
    budget: int = 0         # sweeps per solve, :func:`_sweep_budget`
    near_box: tuple = None  # slot and FLUID near saturation, build_stencil

    def __post_init__(self):
        for array in (self.diag, self.slot_coef, self.slot_load):
            array.setflags(write=False)

    @property
    def h(self):
        return self.grid.h

    @property
    def interior(self):
        """The box of every cell off the grid's one-cell edge."""
        return tuple(slice(1, s - 1) for s in self.grid.shape)

    def neighbor_sum(self, values, box):
        """Sum of neighbor values / h^2 over the 2n faces, on a sub-box.

        ``values`` must be zero outside FLUID; the box must keep one cell of
        padding inside the array (guaranteed for any box of FLUID cells).
        """
        return _box_neighbor_sum(values, box) / (self.h * self.h)

    @functools.cached_property
    def slot_box(self):
        """A box that holds every FLUID cell with a slot face.

        Never empty: the grid keeps FLUID cells between the slot and the
        farfield band, so the slot's outermost cell has a FLUID neighbour.
        Every :meth:`solve`'s box holds it: each :meth:`first_window`
        holds it, a window with a ``stop`` test included.
        """
        return self.window_box(self.slot_coef > 0, 0)

    def slot_influx(self, values, load_scale=1.0):
        """Net flux through slot faces into the fluid, per unit time.

        For field v with Dirichlet data scale*p on the slot boundary this is
        sum over slot faces of h^(n-1) * (scale*p_f - v_i)/d_f.
        """
        g = self.grid
        box = self.slot_box
        contrib = (load_scale * self.slot_load[box]
                   - self.slot_coef[box] * values[box])
        return float(contrib[g.fluid[box]].sum()) * g.cell_volume

    def window_box(self, source_mask, pad, origin=None):
        """Bounding box of a mask grown by ``pad`` cells; None if empty.

        ``origin`` is the box the mask was cut from, by default the grid.
        """
        if not source_mask.any():
            return None
        box = []
        for axis in range(self.grid.n):
            other = tuple(a for a in range(self.grid.n) if a != axis)
            idx = np.nonzero(source_mask.any(axis=other))[0]
            at = origin[axis].start if origin else 0
            box.append(slice(at + idx[0], at + idx[-1] + 1))
        return self.grow_box(tuple(box), pad)

    def grow_box(self, box, cells):
        return tuple(slice(max(1, s.start - cells),
                           min(size - 1, s.stop + cells))
                     for s, size in zip(box, self.grid.shape))

    def pose(self, u, shift, coupling, load, box):
        """The problem of :meth:`solve` on a box: its diagonal shift +
        coupling*diag and its right-hand side (u - 1) + load*slot_load."""
        diag = self.diag[box]
        if (shift, coupling) != (0.0, 1.0):
            # a slice solves on diag itself: a copy would only add memory
            diag = shift + coupling * diag
        return diag, (u[box] - 1.0) + load * self.slot_load[box]

    def first_window(self, values, pad, support):
        """The first box of :meth:`solve`: the positive ``values``, read on
        the box of ``support`` and ``slot_box`` alone, and ``slot_box``,
        grown by ``pad``.  Every cell whose rhs is positive lies in it: it
        is a positive start or has a slot face, so beyond the ring of a
        converged box every FLUID cell has residual 0.  A solve without a
        ``stop`` test adds ``near_box`` grown by ``pad``, the patches near
        saturation that the flow is about to reach; a solve with one, which
        asks whether the smaller problem already settles its question, does
        not."""
        region = _union(support, self.slot_box)
        return self.grow_box(
            _union(self.window_box(values[region] > 0, 0, region),
                   self.slot_box), pad)

    def _frame(self, box):
        """``box`` grown by 2 cells, room for its ring and the ring's halo,
        from even coordinates: :func:`projected_sor` picks the colour it
        sweeps first by coordinate parity in the array it is given."""
        return tuple(slice(max(0, s.start - 2) & -2, min(n, s.stop + 2))
                     for s, n in zip(box, self.grid.shape))

    def solve(self, values, u, shift, coupling, load, pad, support,
              stop=None):
        """Projected SOR for (shift + coupling*A) v = (u - 1) + load*L, v >= 0.

        A is the face Laplacian and L the slot load: a step of the m-problem
        is (shift, coupling, load) = (1/m, dt, dt), an obstacle slice (0, 1,
        t) with u = u_init.  Solves in place from ``values`` >= 0, zero off
        FLUID.  ``support`` is a box off which ``values`` is zero and u is
        u_init on FLUID (None for a cold start): the box of the solve(s)
        that made ``values``, or of a warm slice's start.  The first box is
        :meth:`first_window` and ``near_box`` grown by ``pad``, ``pad`` the
        caller's estimate of the front's travel in cells, and each box is
        posed on its :meth:`_frame` alone.  A converged box ends the solve
        when the complementarity residual on it and its one-cell ring is
        within ``SOLVE_TOL``: beyond the ring a FLUID cell has no positive
        load and zero neighbours, so residual 0, and the solution is
        unique.
        Otherwise the box grows by ``2 * pad`` cells per side, clipped at
        the interior.  One sweep ``budget`` covers every kernel call.

        ``stop``, if given, is called as ``stop(values, box)`` after every
        converged kernel call, before its ring is checked; if it returns
        true the solve ends there, its record ``stopped``.  The box's
        values then solve the problem with zero Dirichlet data around the
        box, within tol: below the whole problem's solution, by the
        comparison principle of M-matrix complementarity problems, which is
        what a caller's test may rely on.  The first window of such a solve
        is :meth:`first_window` alone, without ``near_box``.  Without
        ``stop`` the solve is unchanged.

        Returns a :class:`SolveRecord`.  Raises :class:`ValueError`
        if ``pad`` < 1, :class:`SolverError`, with the residual history of
        every call, unless residual <= ``SOLVE_TOL`` (never true of a NaN),
        and :class:`EnvelopeError` if the converged field is positive on a
        farfield clearance cell (``Grid.near_band``).
        """
        if not pad >= 1:
            # a zero step would regrow the same box forever
            raise ValueError(f"window pad must be at least 1, got {pad}")
        g = self.grid
        box = self.first_window(values, pad, support)
        if stop is None:
            box = _union(box, self.grow_box(self.near_box, pad))
        history, sweeps, regrowths, corrections = [], 0, 0, 0
        while True:
            frame = self._frame(box)
            diag, rhs = self.pose(u, shift, coupling, load, frame)
            view, fluid = values[frame], g.fluid[frame]
            res, used, hist = projected_sor(
                view, diag, rhs, _within(box, frame), fluid,
                coupling=coupling, tol=SOLVE_TOL,
                max_sweeps=self.budget - sweeps, h=self.h)
            sweeps += used
            history += hist
            corrections += hist.corrections
            if not res <= SOLVE_TOL:
                raise SolverError(
                    f"projected SOR did not reach tol={SOLVE_TOL:g} within "
                    f"{self.budget} sweeps on box "
                    f"{[(int(s.start), int(s.stop)) for s in box]} "
                    f"(last residual {res:.3e})", residual_history=history)
            ring = self.grow_box(box, 1)
            stopped = stop is not None and bool(stop(values, box))
            if stopped:
                break
            _, res = _box_residual(view, diag, rhs, _within(ring, frame),
                                   fluid, coupling, self.h)
            if res <= SOLVE_TOL:
                break
            box = self.grow_box(box, 2 * pad)
            regrowths += 1
        # the field is zero off the ring box, so this reads every cell
        if np.any(values[ring] > 0.0, where=g.near_band[ring]):
            raise EnvelopeError(
                "solution reached the farfield clearance; the truncated "
                "domain is too small for this horizon (enlarge the grid "
                "margin)")
        return SolveRecord(residual=res, sweeps=sweeps, box=ring,
                           checks=len(history), regrowths=regrowths,
                           corrections=corrections, stopped=stopped)


def build_stencil(scenario):
    """Precompute face coefficients for a scenario's grid and slot data."""
    grid = scenario.grid
    geom = scenario.geometry
    fluid = grid.fluid
    open_nb = fluid | grid.farfield

    interior_count = np.zeros(grid.shape)
    slot_coef = np.zeros(grid.shape)
    slot_load = np.zeros(grid.shape)
    h = grid.h

    for axis in range(grid.n):
        for step in (-1, 1):
            interior_count += _shifted(open_nb, axis, step)
            slot_nb = fluid & _shifted(grid.slot, axis, step)
            if not slot_nb.any():
                continue
            cells = np.argwhere(slot_nb)
            a = grid.cell_centers(cells)
            b = a.copy()
            b[:, axis] += step * h
            frac = _crossing_fraction(geom, a, b)
            d = np.clip(frac, MIN_FACE_FRACTION, 1.0) * h
            cross = a + frac[:, None] * (b - a)
            p_face = _nearest_sample_values(geom, scenario.p_samples, cross)
            flat = np.ravel_multi_index(cells.T, grid.shape)
            np.add.at(slot_coef.ravel(), flat, 1.0 / (h * d))
            np.add.at(slot_load.ravel(), flat, p_face / (h * d))

    diag = interior_count / (h * h) + slot_coef
    st = FaceStencil(grid=grid, diag=diag, slot_coef=slot_coef,
                     slot_load=slot_load, budget=_sweep_budget(grid))
    # the cells that can turn active within a solve from zero data: their
    # load is within one cell width of zero, the width clamped to [1e-3, 0.5]
    near = fluid & (scenario.u_init - 1.0 >= -min(0.5, max(h, 1e-3)))
    return replace(st, near_box=st.window_box(grid.slot | near, 0))


def _crossing_fraction(geom, outside_pts, inside_pts):
    """Fraction along (outside -> inside) where the slot boundary is crossed."""
    lo = np.zeros(outside_pts.shape[0])
    hi = np.ones(outside_pts.shape[0])
    for _ in range(_CROSSING_BISECTIONS):
        mid = 0.5 * (lo + hi)
        pts = outside_pts + mid[:, None] * (inside_pts - outside_pts)
        is_in = geom.signed_distance(pts) < 0
        hi = np.where(is_in, mid, hi)
        lo = np.where(is_in, lo, mid)
    return 0.5 * (lo + hi)


def _nearest_index(points, samples):
    """Index of the sample nearest to each point, the first of any tie.

    Points are searched in blocks of at most ``_NEAREST_SEARCH_PAIRS``
    point-sample pairs, so memory stays bounded whatever the sample count.
    """
    index = np.empty(points.shape[0], dtype=np.intp)
    chunk = max(1, _NEAREST_SEARCH_PAIRS // samples.shape[0])
    for start in range(0, points.shape[0], chunk):
        block = points[start:start + chunk]
        d2 = ((block[:, None, :] - samples[None, :, :]) ** 2).sum(axis=2)
        index[start:start + chunk] = np.argmin(d2, axis=1)
    return index


def _nearest_sample_values(geom, p_samples, points):
    return p_samples[_nearest_index(points, geom.boundary_samples)]


def omega_for_width(width):
    """SOR factor tuned to a Laplace problem of the given width in cells."""
    omega = 2.0 / (1.0 + np.sin(np.pi / max(float(width), 4.0)))
    return float(np.clip(omega, 1.5, 1.995))


def active_width_cells(active):
    """Area-over-boundary thickness estimate of the active set, in cells.

    For an annular active set of thickness w this returns roughly w; the SOR
    factor tuned to it beats one tuned to the bounding box, because the
    obstacle pins the field to zero beyond the free boundary.
    """
    count = int(np.count_nonzero(active))
    if count == 0:
        return 8.0
    # each axis has two boundary faces per active cell, less two per pair of
    # adjacent active cells along it
    boundary = 0
    for axis in range(active.ndim):
        lo = tuple(slice(None, -1) if a == axis else slice(None)
                   for a in range(active.ndim))
        hi = tuple(slice(1, None) if a == axis else slice(None)
                   for a in range(active.ndim))
        pairs = int(np.count_nonzero(active[lo] & active[hi]))
        boundary += 2 * (count - pairs)
    return max(8.0, 2.0 * count / max(boundary / 2, 1))


# ---------------------------------------------------------------------------
# projected SOR kernel
# ---------------------------------------------------------------------------

#: fewest and most sweeps between two residual checks; the geometric
#: schedule grows from the fewest to the most
_MIN_CHECK_GAP = 2
_MAX_CHECK_GAP = 30


def _box_residual(values, diag, rhs, box, fluid, coupling, h):
    """Equation residual diag*v - coupling*sum(nb)/h^2 - rhs on a box.

    Also returns the max complementarity residual |min(residual, v)| over
    the FLUID cells of the box: the number the kernel compares with tol.
    """
    # every temporary is box-sized: scale and reuse the neighbor sum in place
    nb = _box_neighbor_sum(values, box)
    nb *= coupling / (h * h)
    pde = diag[box] * values[box] - nb - rhs[box]
    comp = np.abs(np.minimum(pde, values[box], out=nb), out=nb)
    return pde, float(np.max(comp, where=fluid[box], initial=0.0))


def projected_sor(values, diag, rhs, box, fluid, coupling, tol, max_sweeps,
                  h):
    """Red-black projected SOR for  diag*v - coupling*sum(nb)/h^2 = rhs, v >= 0.

    The zero rule: ``values`` must be >= 0 on the box and exactly zero
    outside it and on every non-FLUID cell, so v = 0 around the box is the
    problem's Dirichlet condition, and ``rhs`` and ``diag`` are read on the
    box's FLUID cells only.  ``values`` is updated in place and keeps the
    rule.  :meth:`FaceStencil.solve`, the one caller in the package, builds
    its boxes so, and it is the one place where a residual above tol, or a
    NaN, becomes a :class:`SolverError`.  The relaxation factor is re-tuned
    at every residual check to the measured active-set width (the obstacle
    pins everything beyond the free boundary, so that width controls the
    slowest mode).  Convergence is max complementarity residual
    min(equation residual, v) <= tol over FLUID cells of the box; it is
    checked at most ``max_sweeps`` sweeps in, so no more sweeps than that
    are run, and the first non-finite residual ends the solve.  Checks come
    at sweeps 0 and 4, then where :func:`_check_gap` places them.  Returns
    (residual, sweeps, history), the history a list of (sweeps, residual)
    checks whose ``corrections`` attribute counts the coarse corrections.

    From the first check at which :func:`_engages` finds SOR too slow for
    the box, every check that does not end the call applies one truncated
    coarse correction (:class:`mesahs.coarse.Correction`) to the checked
    values, and the next check comes ``_SMOOTHING_SWEEPS`` sweeps later
    with omega held.  A correction counts as :func:`_correction_cost`
    sweeps, in ``sweeps`` and against ``max_sweeps``, and runs only when
    it and the smoothing sweeps fit.  A call that never engages runs the
    plain SOR path below.

    For the length of one call the box and its one-cell halo live in a
    flat layout whose extents past the first axis are rounded up to odd.
    Every stride is then odd, so a cell's colour is the parity of its flat
    index, and the layout splits into one contiguous array per colour: the
    face neighbour at flat step s (+-stride) of colour-c entry q is entry
    q + (s + 2c - 1)/2 of the other colour.  Each colour sweeps one target
    range against 2n neighbour ranges at fixed offsets, the globally even
    colour first, and holds the fused coefficients a =
    omega*coupling/(h^2*diag) and b = omega*rhs/diag, recomputed whenever
    omega changes.  One update is sum(nb)*a + b + (1 - omega)*v, projected
    on v >= 0: 9 ufunc calls in 2-D, none a division, and a sweep is two
    updates.  The other entries a range crosses (non-FLUID box cells, the
    halo, row-end padding) are laid out with rhs = 0 and diag = inf, so
    their a = b = 0 and each update leaves them at +0.0.  The strided
    reference in the tests does the same floating-point operations in the
    same order on every box cell, and the result is bit-identical to it.
    ``values`` is written back, by interleaving the two colours, before
    every residual check, and the kernel returns only at a check; a
    corrected box is split into the colours as at the call's start.
    """
    ext = tuple(slice(s.start - 1, s.stop + 1) for s in box)
    extents = [s.stop - s.start for s in ext]
    shape = tuple(extents[:1] + [e | 1 for e in extents[1:]])
    strides = [math.prod(shape[a + 1:]) for a in range(len(shape))]
    inner = tuple(slice(0, e) for e in extents)
    boxed = tuple(slice(1, e - 1) for e in extents)

    def layout(array, fill, where=True):
        """``array`` on the halo-grown box, in the flat layout."""
        flat = np.full(shape, fill)
        np.copyto(flat[inner], array[ext], where=where)
        return flat.reshape(-1)

    colours = tuple(layout(values, 0.0)[c::2].copy() for c in (0, 1))
    # the FLUID cells of the box, the only entries the sweeps move
    live = np.zeros(extents, dtype=bool)
    live[boxed] = fluid[box]
    # flat indices of the first and the last box cell
    first = sum(strides)
    last = sum((e - 2) * s for e, s in zip(extents, strides))
    even = sum(s.start for s in ext) % 2
    targets = []
    for c in (even, 1 - even):
        span = slice((first - c + 1) // 2, (last - c) // 2 + 1)
        tv = colours[c][span]
        if tv.size == 0:
            continue
        nbs = [colours[1 - c][span.start + o:span.stop + o]
               for o in ((step * s + 2 * c - 1) // 2
                         for s in strides for step in (-1, 1))]
        targets.append((c, span, tv, np.zeros(tv.size), np.zeros(tv.size),
                        nbs))
    box_view = values[box]

    history = _History()
    sweeps = 0
    geometric = _MIN_CHECK_GAP
    omega = None
    cost = _correction_cost(box_view.size)
    correction = None
    engaged = corrected = False
    while True:
        flat = np.empty(math.prod(shape))
        flat[0::2], flat[1::2] = colours
        box_view[...] = flat.reshape(shape)[boxed]
        del flat
        pde, res = _box_residual(values, diag, rhs, box, fluid, coupling, h)
        history.append((sweeps, res))
        if res <= tol or sweeps >= max_sweeps or not np.isfinite(res):
            return res, sweeps, history
        engaged = engaged or _engages(history, cost)
        corrected = engaged and sweeps + cost + _SMOOTHING_SWEEPS <= max_sweeps
        if corrected:
            if correction is None:
                # deferred: calls that never correct never load it
                from .coarse import Correction
                correction = Correction(box_view.shape)
            correction.stage(box_view, pde, fluid[box], diag[box],
                             coupling / (h * h))
        del pde
        if corrected:
            if correction.apply(box_view):
                # split as at the start, the zero rule holding
                flat = layout(values, 0.0)
                for c, colour in enumerate(colours):
                    colour[...] = flat[c::2]
                del flat
            sweeps += cost
            history.corrections += 1
        # once corrections run, the sweeps between them only smooth: they
        # keep the factor of the last plain check
        tuned = (omega if corrected and omega
                 else omega_for_width(active_width_cells(box_view > 0)))
        if tuned != omega:
            omega = tuned
            # computed afresh, never rescaled: rescaling compounds rounding;
            # rhs and diag are staged one at a time
            flat = layout(rhs, 0.0, where=live)
            for c, span, _, _, b, _ in targets:
                b[...] = flat[c::2][span]
            del flat
            flat = layout(diag, np.inf, where=live)
            for c, span, _, a, b, _ in targets:
                a[...] = flat[c::2][span]
                b *= omega
                b /= a
                np.divide(omega * (coupling / (h * h)), a, out=a)
            del flat
        geometric = min(int(geometric * 1.5) + 1, _MAX_CHECK_GAP)
        gap = (_SMOOTHING_SWEEPS if corrected
               else _check_gap(history, tol, geometric))
        check_at = min(sweeps + gap, max_sweeps)
        _sweep_ranges(targets, omega, check_at - sweeps)
        sweeps = check_at


class _History(list):
    """The residual checks of one kernel call, as (sweeps, residual) pairs.

    ``corrections`` counts the coarse corrections that ran at them.
    """

    corrections = 0


def _check_gap(history, tol, geometric):
    """Sweeps from the last residual check in ``history`` to the next one.

    From the third check on, while the last two residuals are finite,
    positive and falling and tol > 0, the next check goes where their rate
    predicts tol is met, within [``_MIN_CHECK_GAP``, ``_MAX_CHECK_GAP``].
    Otherwise it is the ``geometric`` gap.
    """
    if len(history) >= 3 and tol > 0:
        (s0, r0), (s1, r1) = history[-2:]
        if 0.0 < r1 < r0 < math.inf and tol / r1 > 0.0 and r1 / r0 < 1.0:
            due = math.log(tol / r1) * (s1 - s0) / math.log(r1 / r0)
            return min(max(_MIN_CHECK_GAP, math.ceil(due)), _MAX_CHECK_GAP)
    return geometric


def _sweep_ranges(targets, omega, count):
    """``count`` red-black sweeps over the colour ranges of :func:`projected_sor`.

    The update buffer lives only here: the residual check between two calls
    sets the kernel's memory peak.
    """
    scratch = np.empty(max(t[2].size for t in targets))
    for _ in range(count):
        for _, _, tv, av, bv, nbs in targets:
            # sum(nb)*a + b + (1 - omega)*v, the neighbours summed in the
            # order of the residual
            cand = scratch[:tv.size]
            np.add(nbs[0], nbs[1], out=cand)
            for other in nbs[2:]:
                cand += other
            cand *= av
            cand += bv
            tv *= 1.0 - omega
            tv += cand
            np.maximum(tv, 0.0, out=tv)


# ---------------------------------------------------------------------------
# where the truncated coarse correction (mesahs.coarse) runs
# ---------------------------------------------------------------------------

#: decades of residual one correction and its smoothing sweeps buy (1.2 to
#: 1.4 on the saturated annulus), and the SOR sweeps that smooth after a
#: correction before the next check
_CORRECTION_DECADES = 1.4
_SMOOTHING_SWEEPS = 6
#: the cost model of :func:`_correction_cost`: per cell, a correction
#: costs ``_CORRECTION_SWEEPS`` sweeps, and each call of either carries a
#: fixed overhead worth this many cells
_CORRECTION_SWEEPS = 30
_CORRECTION_OVERHEAD = 11000
_SWEEP_OVERHEAD = 5000


def _engages(history, cost):
    """Whether coarse corrections pay from this check on.

    They do where SOR's sweeps per decade of residual, times the decades
    one correction buys, exceed a correction's ``cost`` in sweeps.  The
    rate is measured over the last two check intervals, not one: the
    max-norm residual of one interval can stall or jump.  False before the
    fourth check, so that the rate never reaches back to check 0: at the
    default step of two cells the first interval of a step's solve is a
    start transient (residual 1.0, 1.9, 0.6 at sweeps 0, 4 and 11 on
    compare's lowest level), on which the third check would start 45-sweep
    corrections that cost more than they save.  False too unless both residuals are finite and
    positive and the later one is smaller.  On the annulus, engaging from
    the first, second or third check, 2-30 CG steps per correction and
    other correction settings were all measured no faster (ROADMAP item 4
    has the counts); its solves and the obstacle slices first engage at the
    fifth check.
    """
    if len(history) < 4:
        return False
    (s0, r0), (s1, r1) = history[-3], history[-1]
    if not 0.0 < r1 < r0 < math.inf:
        return False
    return (s1 - s0) / math.log10(r0 / r1) * _CORRECTION_DECADES > cost


def _correction_cost(cells):
    """One correction on a box of ``cells`` cells, in fine-sweep equivalents.

    Deterministic, so counts and hashes repeat.  Fitted to wall times on a
    2-core Xeon with numpy 2.4: about 30 sweeps on the 336^2 annulus box,
    40 on a 120^2 box and 55 on a 50^2 box, where numpy's per-call overhead
    dominates both.
    """
    return math.ceil(_CORRECTION_SWEEPS * (cells + _CORRECTION_OVERHEAD)
                     / (cells + _SWEEP_OVERHEAD))
