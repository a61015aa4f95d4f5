"""Face stencil and the projected SOR kernel against a dense-solve oracle."""

import dataclasses
import functools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy import ndimage

import mesahs.coarse
import mesahs.stencil
from mesahs import mesa, stefan
from mesahs.baiocchi import SLICE_WINDOW_PAD, solve_slice
from mesahs.errors import SolverError
from mesahs.geometry import Scenario, SlotGeometry, build_grid
from mesahs.scenarios import (annulus_scenario, radial_scenario,
                              two_slot_scenario)
from mesahs.stefan import MONOTONE_SWEEP_TOL
from mesahs.stencil import (SOLVE_TOL, FaceStencil,
                            _box_neighbor_sum, _box_residual,
                            _nearest_sample_values,
                            _shifted, _sweep_budget,
                            active_width_cells, build_stencil,
                            omega_for_width, projected_sor)

from conftest import grid_box, interior_solves, record_solves


@pytest.fixture(scope="module")
def tiny():
    sc = radial_scenario(h=1 / 8, t_max=0.2, m_list=(8, 16, 32))
    return sc, build_stencil(sc)


# ---------------------------------------------------------------------------
# window bookkeeping against the binary-dilation reference
# ---------------------------------------------------------------------------

def _dilation_window_box(mask, pad):
    """Bounding box of the dilated mask, clipped one cell inside the grid."""
    dilated = ndimage.binary_dilation(mask, iterations=pad)
    if not dilated.any():
        return None
    box = []
    for axis, size in enumerate(mask.shape):
        other = tuple(a for a in range(mask.ndim) if a != axis)
        idx = np.nonzero(dilated.any(axis=other))[0]
        box.append(slice(max(1, idx[0]), min(size - 1, idx[-1] + 1)))
    return tuple(box)


def _shifted_active_width(active):
    """Area-over-boundary width counting each boundary face with 2n shifts."""
    count = int(active.sum())
    if count == 0:
        return 8.0
    boundary = 0
    for axis in range(active.ndim):
        for step in (-1, 1):
            boundary += int((active & ~_shifted(active, axis, step)).sum())
    return max(8.0, 2.0 * count / max(boundary / 2, 1))


@hst.composite
def _window_case(draw):
    shape = tuple(draw(hst.lists(hst.integers(3, 12), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    mask = rng.random(shape) < draw(hst.sampled_from((0.0, 0.01, 0.05, 0.3)))
    box = []
    for n in shape:
        start = draw(hst.integers(1, n - 2))
        box.append(slice(start, draw(hst.integers(start + 1, n - 1))))
    grid = SimpleNamespace(shape=shape, n=len(shape))
    zeros = np.zeros(shape)
    st = FaceStencil(grid=grid, diag=zeros, slot_coef=zeros, slot_load=zeros)
    return st, mask, draw(hst.integers(1, 4)), tuple(box)


def _all_at_once_nearest(geom, p_samples, points):
    """The nearest-sample search over every point in one block."""
    samples = geom.boundary_samples
    d2 = ((points[:, None, :] - samples[None, :, :]) ** 2).sum(axis=2)
    return p_samples[np.argmin(d2, axis=1)]


def _rounded_square_scenario(h=1 / 12):
    geom = SlotGeometry.rounded_polygon(
        [(-0.6, -0.6), (0.6, -0.6), (0.6, 0.6), (-0.6, 0.6)],
        rounding=0.3, sample_spacing=h / 2)
    grid = build_grid(geom, h, margin=1.8)
    return Scenario(geometry=geom, grid=grid, u_init=np.zeros(grid.shape),
                    p_samples=np.ones(geom.boundary_samples.shape[0]),
                    t_max=0.2, m_list=(8, 16, 32))


class TestStencilGeometry:
    @pytest.mark.parametrize("build", [
        pytest.param(lambda: radial_scenario(h=1 / 16, t_max=0.3), id="radial"),
        pytest.param(lambda: radial_scenario(h=1 / 8, t_max=1 / 6, n=3),
                     id="radial-3d"),
        pytest.param(lambda: annulus_scenario(h=1 / 16), id="annulus"),
        pytest.param(lambda: two_slot_scenario(h=1 / 16), id="two-slot"),
        pytest.param(_rounded_square_scenario, id="rounded-polygon"),
    ])
    def test_fluid_diagonal_holds_every_face(self, build):
        # every FLUID cell has 2n faces, each to a FLUID or FARFIELD cell
        # (weight 1/h^2) or across the slot (1/(h*d) with d <= h), so no
        # FLUID cell is ever isolated
        sc = build()
        st = build_stencil(sc)
        grid = sc.grid
        floor = 2 * grid.n / grid.h ** 2
        assert np.all(st.diag[grid.fluid] >= floor * (1 - 1e-12))
        assert np.any(st.diag[grid.fluid] > floor * (1 + 1e-12))

    def test_stencil_cannot_be_written(self, tiny):
        # one stencil serves every solve of a run, and pose hands the
        # kernel views of its diagonal: neither its arrays nor its fields
        # change in place
        _, st = tiny
        for array in (st.diag, st.slot_coef, st.slot_load):
            with pytest.raises(ValueError, match="read-only"):
                array[1, 1] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            st.budget = 1

    def test_neighbor_sum_matches_manual(self, tiny):
        sc, st = tiny
        rng = np.random.default_rng(7)
        v = np.where(sc.grid.fluid, rng.random(sc.grid.shape), 0.0)
        box = st.interior
        got = st.neighbor_sum(v, box)
        h2 = sc.grid.h ** 2
        want = (v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2] + v[1:-1, 2:]) / h2
        assert np.allclose(got, want)

    def test_slot_faces_have_shorter_distances(self, tiny):
        sc, st = tiny
        # slot-adjacent coefficients exceed the plain face weight 1/h^2
        h2 = sc.grid.h ** 2
        touched = st.slot_coef > 0
        assert touched.any()
        assert np.all(st.slot_coef[touched] >= 1.0 / h2 - 1e-9)
        # the Dirichlet load scales with the (constant) pressure samples
        assert np.allclose(st.slot_load[touched],
                           st.slot_coef[touched] * sc.max_datum)

    def test_crossing_distance_analytic_ball(self):
        # rebuild every slot-face coefficient from the exact segment-circle
        # intersection and compare with the bisection-based stencil
        sc = radial_scenario(h=0.125, t_max=0.1, m_list=(8, 16, 32))
        st = build_stencil(sc)
        grid = sc.grid
        h = grid.h
        expected = np.zeros(grid.shape)
        centers = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
        r = np.linalg.norm(centers, axis=-1)
        for axis in range(2):
            for step in (-1, 1):
                nb_r = np.roll(r, -step, axis=axis)
                faces = grid.fluid & (np.roll(grid.mask, -step, axis=axis) == 1)
                for i, j in np.argwhere(faces):
                    a = centers[i, j]
                    b = a.copy()
                    b[axis] += step * h
                    # |a + s (b - a)| = 1, quadratic in s
                    d = b - a
                    qa = d @ d
                    qb = 2 * a @ d
                    qc = a @ a - 1.0
                    s = (-qb + np.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
                    if not (0 <= s <= 1):
                        s = (-qb - np.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
                    expected[i, j] += 1.0 / (h * max(s, 0.05) * h)
        assert np.allclose(st.slot_coef, expected, rtol=1e-6)

    @pytest.mark.parametrize("pairs", (1, 700, 2 ** 18))
    @pytest.mark.parametrize("n", (2, 3))
    def test_blocked_nearest_search_matches_one_block(self, monkeypatch,
                                                      pairs, n):
        # any block size picks the same sample as the all-at-once search,
        # ties included: the probes hold every sample and every midpoint
        geom = SlotGeometry.ball((0.25,) * n, 1.0, sample_spacing=0.1)
        samples = geom.boundary_samples
        rng = np.random.default_rng(n)
        p_samples = rng.random(samples.shape[0])
        points = np.concatenate([
            samples, 0.5 * (samples[:-1] + samples[1:]),
            rng.uniform(-1.5, 2.0, (300, n))])
        monkeypatch.setattr(mesahs.stencil, "_NEAREST_SEARCH_PAIRS", pairs)
        got = _nearest_sample_values(geom, p_samples, points)
        want = _all_at_once_nearest(geom, p_samples, points)
        assert got.tobytes() == want.tobytes()

    def test_nearest_search_memory_is_bounded(self):
        # 31,416 samples around a 222^2 grid of 0.39 MB arrays: all slot
        # faces of one direction in a single block would need about 150 MB;
        # the bounded blocks peak near 9.4 MB
        geom = SlotGeometry.ball((0.0, 0.0), 100.0)
        grid = build_grid(geom, 1.0, 10.0)
        count = geom.boundary_samples.shape[0]
        sc = Scenario(geometry=geom, grid=grid, u_init=np.zeros(grid.shape),
                      p_samples=np.linspace(0.0, 1.0, count), t_max=1.0,
                      m_list=(8,))
        tracemalloc.start()
        try:
            build_stencil(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    @settings(max_examples=200, deadline=None)
    @given(_window_case())
    def test_window_box_and_ring(self, case):
        st, mask, pad, box = case
        assert st.window_box(mask, pad) == _dilation_window_box(mask, pad)
        # the ring a solve checks: the box dilated by one cell
        inside = np.zeros(mask.shape, dtype=bool)
        inside[box] = True
        assert st.grow_box(box, 1) == _dilation_window_box(inside, 1)

    def test_active_width_annulus(self):
        mask = np.zeros((64, 64), dtype=bool)
        yy, xx = np.indices(mask.shape)
        r = np.hypot(yy - 32, xx - 32)
        mask[(r >= 10) & (r <= 16)] = True
        width = active_width_cells(mask)
        assert 4 <= width <= 14

    @settings(max_examples=100, deadline=None)
    @given(shape=hst.lists(hst.integers(1, 12), min_size=1, max_size=3),
           fill=hst.sampled_from((0.0, 0.05, 0.5, 0.9, 1.0)),
           seed=hst.integers(0, 2 ** 32 - 1))
    def test_active_width_matches_shifted_reference(self, shape, fill, seed):
        active = np.random.default_rng(seed).random(shape) < fill
        assert active_width_cells(active) == _shifted_active_width(active)


# ---------------------------------------------------------------------------
# the strided red-black kernel, kept as the bit-identity reference
# ---------------------------------------------------------------------------

def _strided_plan(box, n):
    plans = []
    for bits in range(1 << n):
        parity = [(bits >> a) & 1 for a in range(n)]
        target = tuple(slice(s.start + parity[a], s.stop, 2)
                       for a, s in enumerate(box))
        counts = [len(range(t.start, t.stop, 2)) for t in target]
        if any(c == 0 for c in counts):
            continue
        neighbors = []
        for axis in range(n):
            for step in (-1, 1):
                neighbors.append(tuple(
                    slice(t.start + step, t.start + step + 2 * counts[a] - 1, 2)
                    if a == axis else t
                    for a, t in enumerate(target)))
        color = (sum(parity) + sum(s.start for s in box)) % 2
        plans.append((color, target, neighbors))
    return plans


def _strided_residual(values, diag, rhs, box, fluid, coupling, h):
    nb = None
    for axis in range(values.ndim):
        for step in (-1, 1):
            src = tuple(slice(s.start + step, s.stop + step) if a == axis else s
                        for a, s in enumerate(box))
            nb = values[src].copy() if nb is None else nb + values[src]
    nb *= coupling / (h * h)
    pde = diag[box] * values[box] - nb - rhs[box]
    comp = np.abs(np.minimum(pde, values[box], out=nb), out=nb)
    return float(comp[fluid[box]].max())


def _strided_check_gap(history, tol, geometric):
    """Sweeps to the next check: where the last two residuals' rate says
    tol is due, from the third check on, else the geometric gap."""
    if len(history) >= 3 and tol > 0:
        (s0, r0), (s1, r1) = history[-2:]
        if 0.0 < r1 < r0 < math.inf and tol / r1 > 0.0 and r1 / r0 < 1.0:
            due = math.log(tol / r1) * (s1 - s0) / math.log(r1 / r0)
            return min(max(2, math.ceil(due)), 30)
    return geometric


class _StridedHistory(list):
    """The reference's (sweeps, residual) checks; it runs no correction."""

    corrections = 0


def _strided_projected_sor(values, diag, rhs, box, fluid, coupling, tol,
                           max_sweeps, h=1.0, geometric_only=False):
    """Red-black projected SOR on strided views of the whole array.

    The update is sum(nb)*a + b + (1 - omega)*v with a = omega*coupling /
    (h^2*diag) and b = omega*rhs/diag on FLUID cells and a = b = 0 off
    them, recomputed whenever omega changes.  ``values`` must be zero off
    FLUID, and the update keeps it so.  ``geometric_only`` keeps every check
    on the geometric schedule.
    """
    inv_h2 = coupling / (h * h)
    views = [(color, values[target], fluid[target], diag[target],
              rhs[target], [values[nb] for nb in neighbors])
             for color, target, neighbors in _strided_plan(box, values.ndim)]
    history = _StridedHistory()
    sweeps = 0
    check_at = 0
    geometric = 2
    omega = None
    while True:
        if sweeps >= check_at:
            res = _strided_residual(values, diag, rhs, box, fluid, coupling, h)
            history.append((sweeps, res))
            if res <= tol or sweeps >= max_sweeps or not np.isfinite(res):
                return res, sweeps, history
            tuned = omega_for_width(_shifted_active_width(values[box] > 0))
            if tuned != omega:
                omega = tuned
                # diag is read on FLUID cells only, as in the kernel
                coefs = [(np.divide(omega * inv_h2, dv, where=fv,
                                    out=np.zeros(dv.shape)),
                          np.divide(rv * omega, dv, where=fv,
                                    out=np.zeros(dv.shape)))
                         for _, _, fv, dv, rv, _ in views]
            geometric = min(int(geometric * 1.5) + 1, 30)
            gap = (geometric if geometric_only
                   else _strided_check_gap(history, tol, geometric))
            check_at = min(sweeps + gap, max_sweeps)
        for want in (0, 1):
            for (color, tv, _, _, _, nbs), (a, b) in zip(views, coefs):
                if color != want:
                    continue
                nb = nbs[0].copy()
                for other in nbs[1:]:
                    nb += other
                cand = nb * a + b
                cand += (1.0 - omega) * tv
                np.maximum(cand, 0.0, out=cand)
                tv[:] = cand
        sweeps += 1


def _bits(x):
    return np.float64(x).tobytes()


def _outside_zeroed(values, box):
    """``values`` with every entry outside ``box`` set to zero."""
    out = np.zeros_like(values)
    out[box] = values[box]
    return out


@hst.composite
def _sor_case(draw):
    """A random 1-3D complementarity problem on a random box.

    The diagonal dominates the coupling as in the real operators; the load
    is arbitrary off FLUID, infinities and NaN included.  The start values
    are zero outside the box, as the kernel requires.
    """
    n = draw(hst.integers(1, 3))
    shape = tuple(draw(hst.lists(hst.integers(3, (13, 11, 7)[n - 1]),
                                 min_size=n, max_size=n)))
    box = []
    for size in shape:
        start = draw(hst.integers(1, size - 2))
        box.append(slice(start, draw(hst.integers(start + 1, size - 1))))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    fluid = rng.random(shape) < draw(hst.sampled_from((0.3, 0.8, 1.0)))
    fluid[tuple(s.start for s in box)] = True   # solves run on FLUID boxes
    h = draw(hst.sampled_from((1.0, 0.125, 1 / 24)))
    coupling = draw(hst.sampled_from((1.0, 0.01)))
    diag = (2 * n * coupling / h ** 2) * rng.uniform(1.0, 1.5, shape)
    diag += draw(hst.sampled_from((0.0, 1.0 / 16)))
    diag[~fluid] = rng.uniform(0.5, 2.0, (~fluid).sum())
    scale = rng.uniform(-1.0, 1.0)
    rhs = rng.uniform(-1.0, 1.0, shape) + scale
    rhs[~fluid] = draw(hst.floats())
    box = tuple(box)
    values = np.where(fluid & (rng.random(shape) < 0.5),
                      rng.exponential(1.0, shape), 0.0)
    values = _outside_zeroed(values, box)
    return values, dict(diag=diag, rhs=rhs, box=box, fluid=fluid,
                        coupling=coupling, tol=draw(hst.sampled_from(
                            (1e-12, 1e-6, 1e-2))),
                        max_sweeps=draw(hst.sampled_from((1, 7, 50))), h=h)


@hst.composite
def _padded_case(draw):
    """A random problem and a box grown by non-FLUID cells on some faces.

    The arrays get a 3-cell frame so the grown box keeps its halo inside
    them; the frame and the added cells are non-FLUID, zero in ``values``
    and carry an arbitrary load.
    """
    values, kwargs = draw(_sor_case())
    n = values.ndim
    frame = 3
    off_load = draw(hst.floats())
    values = np.pad(values, frame)
    kwargs = dict(kwargs,
                  diag=np.pad(kwargs["diag"], frame, constant_values=1.0),
                  rhs=np.pad(kwargs["rhs"], frame, constant_values=off_load),
                  fluid=np.pad(kwargs["fluid"], frame),
                  box=tuple(slice(s.start + frame, s.stop + frame)
                            for s in kwargs["box"]))
    # cells added below and above the box on each axis, on one face at least
    grow = draw(hst.lists(hst.integers(0, frame - 1), min_size=2 * n,
                          max_size=2 * n).filter(any))
    big = tuple(slice(s.start - grow[2 * a], s.stop + grow[2 * a + 1])
                for a, s in enumerate(kwargs["box"]))
    added = np.zeros(values.shape, dtype=bool)
    added[big] = True
    added[kwargs["box"]] = False
    kwargs["fluid"][added] = False
    values[added] = 0.0
    return values, kwargs, big


def _nan_load_case():
    shape = (9, 10)
    fluid = np.ones(shape, dtype=bool)
    fluid[0] = fluid[:, -1] = False
    rhs = np.full(shape, 0.5)
    rhs[4, 5] = np.nan
    box = (slice(1, 8), slice(2, 9))
    values = _outside_zeroed(np.where(fluid, 0.25, 0.0), box)
    return values, dict(diag=np.full(shape, 4.5), rhs=rhs, box=box,
                        fluid=fluid, coupling=1.0, tol=1e-10, max_sweeps=50,
                        h=1.0)


def _edge_case(shape, box):
    """A problem whose every interior cell is FLUID, solved on ``box``.

    Every box cell starts nonzero; the FLUID cells just outside the box
    start at zero, and the kernel's flat ranges cross some of them: they
    must stay zero.
    """
    rng = np.random.default_rng(len(shape) + sum(s.start for s in box))
    fluid = np.zeros(shape, dtype=bool)
    fluid[tuple(slice(1, size - 1) for size in shape)] = True
    values = _outside_zeroed(np.where(fluid, rng.exponential(1.0, shape),
                                      0.0), box)
    return values, dict(diag=2 * len(shape) * rng.uniform(1.0, 1.5, shape),
                        rhs=rng.uniform(-1.0, 1.0, shape), box=box,
                        fluid=fluid, coupling=1.0, tol=1e-12, max_sweeps=50,
                        h=1.0)


class TestProjectedSorKernel:
    def _dense_oracle(self, st, grid, rhs, coupling):
        """Assemble the operator and solve the unconstrained system densely."""
        fluid_idx = np.argwhere(grid.fluid)
        index = {tuple(c): k for k, c in enumerate(fluid_idx)}
        n = len(fluid_idx)
        A = np.zeros((n, n))
        b = np.zeros(n)
        h2 = grid.h ** 2
        for k, (i, j) in enumerate(fluid_idx):
            A[k, k] = st.diag[i, j] * 1.0
            b[k] = rhs[i, j]
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nb = (i + di, j + dj)
                if nb in index:
                    A[k, index[nb]] = -coupling / h2
        # diag includes the face weights already scaled for coupling=1 use
        return fluid_idx, np.linalg.solve(A, b)

    def test_kernel_matches_dense_solve_unconstrained(self):
        # pure diffusion with strong source: solution strictly positive, so
        # the projection is inactive and PSOR must agree with a dense solve
        sc = radial_scenario(h=1 / 6, t_max=0.1, m_list=(8, 16, 32))
        st = build_stencil(sc)
        grid = sc.grid
        rhs = st.slot_load * 0.5 + 0.2
        w = np.zeros(grid.shape)
        box = st.interior
        res, sweeps, _ = projected_sor(w, st.diag, rhs, box, grid.fluid,
                                       coupling=1.0, tol=1e-12,
                                       max_sweeps=20000, h=grid.h)
        assert res <= 1e-12
        fluid_idx, x = self._dense_oracle(st, grid, rhs, coupling=1.0)
        got = np.array([w[i, j] for i, j in fluid_idx])
        assert np.all(x > 0)
        assert np.max(np.abs(got - x)) < 1e-8

    def test_kernel_pins_nonfluid_to_zero(self, tiny):
        sc, st = tiny
        grid = sc.grid
        rhs = np.ones(grid.shape)   # positive load off FLUID too
        w = np.zeros(grid.shape)
        box = st.interior
        projected_sor(w, st.diag, rhs, box, grid.fluid, coupling=1.0,
                      tol=1e-10, max_sweeps=20000, h=grid.h)
        assert np.all(w[~grid.fluid] == 0.0)
        assert np.all(w >= 0.0)

    @pytest.mark.parametrize("max_sweeps", [1, 7, 50])
    def test_sweeps_never_exceed_max(self, tiny, max_sweeps):
        sc, st = tiny
        grid = sc.grid
        rhs = st.slot_load * 0.25 - 0.6
        box = st.interior
        w = np.zeros(grid.shape)
        res, sweeps, history = projected_sor(
            w, st.diag, rhs, box, grid.fluid, coupling=1.0, tol=1e-14,
            max_sweeps=max_sweeps, h=grid.h)
        assert res > 1e-14
        assert sweeps == max_sweeps
        assert history[-1][0] == sweeps

    @settings(max_examples=25, deadline=None)
    @given(seed=hst.integers(0, 2 ** 32 - 1), enthalpy_step=hst.booleans(),
           off_fluid=hst.floats(allow_nan=False, allow_infinity=False))
    def test_kernel_properties_on_random_loads(self, tiny, seed,
                                               enthalpy_step, off_fluid):
        # nonnegativity, pinning, convergence and the comparison principle:
        # a larger load on FLUID never gives a smaller solution, whatever
        # finite values the load holds elsewhere
        sc, st = tiny
        grid = sc.grid
        rng = np.random.default_rng(seed)
        if enthalpy_step:
            dt = rng.uniform(1e-3, 0.1)
            diag, coupling = 1.0 / rng.uniform(1.0, 1e3) + dt * st.diag, dt
        else:
            diag, coupling = st.diag, 1.0
        rhs_lo = rng.uniform(-1.0, 1.0, grid.shape)
        raise_load = rng.random(grid.shape) < 0.5
        rhs_hi = rhs_lo + raise_load * rng.exponential(0.5, grid.shape)
        rhs_lo[~grid.fluid] = off_fluid
        rhs_hi[~grid.fluid] = rng.uniform(-1e300, 1e300, (~grid.fluid).sum())
        box = st.interior
        solved = []
        for rhs in (rhs_lo, rhs_hi):
            v = np.zeros(grid.shape)
            res, _, _ = projected_sor(v, diag, rhs, box, grid.fluid,
                                      coupling=coupling, tol=1e-10,
                                      max_sweeps=20000, h=grid.h)
            assert res <= 1e-10
            assert np.all(v >= 0.0)
            assert np.all(v[~grid.fluid] == 0.0)
            solved.append(v)
        assert np.all(solved[0] <= solved[1] + 1e-8)

    @settings(max_examples=150, deadline=None)
    @given(_sor_case())
    @example(_nan_load_case())
    # one cell thick along each axis in turn, and along all of them
    @example(_edge_case((7, 9), (slice(3, 4), slice(2, 8))))
    @example(_edge_case((9, 7), (slice(2, 8), slice(3, 4))))
    @example(_edge_case((5, 6), (slice(2, 3), slice(3, 4))))
    @example(_edge_case((5, 7, 6), (slice(2, 3), slice(1, 6), slice(2, 5))))
    @example(_edge_case((7, 5, 6), (slice(1, 6), slice(2, 3), slice(2, 5))))
    @example(_edge_case((6, 7, 5), (slice(2, 5), slice(1, 6), slice(2, 3))))
    @example(_edge_case((5, 5, 5), (slice(2, 3), slice(2, 3), slice(2, 3))))
    # from the first interior cell, with odd and even extents
    @example(_edge_case((12,), (slice(1, 8),)))
    @example(_edge_case((8, 9), (slice(1, 6), slice(1, 5))))
    @example(_edge_case((10, 10), (slice(1, 5), slice(1, 8))))
    @example(_edge_case((9, 10), (slice(2, 6), slice(3, 8))))
    @example(_edge_case((8, 7, 9), (slice(1, 6), slice(1, 5), slice(2, 8))))
    # even halo-grown extents past the first axis, so every row of the
    # layout ends in a padding entry; then odd ones, which need none
    @example(_edge_case((9, 10), (slice(2, 6), slice(3, 7))))
    @example(_edge_case((8, 8, 9), (slice(1, 5), slice(2, 6), slice(3, 7))))
    @example(_edge_case((9, 10), (slice(2, 7), slice(3, 8))))
    @example(_edge_case((8, 9, 9), (slice(1, 6), slice(2, 7), slice(1, 4))))
    @example(_edge_case((11,), (slice(2, 9),)))
    def test_kernel_matches_strided_reference(self, case):
        # the two-colour kernel must reproduce the strided sweep bit for bit:
        # values everywhere, sweeps, residual history and final residual
        values, kwargs = case
        want = values.copy()
        ref = _strided_projected_sor(want, **kwargs)
        got = projected_sor(values, **kwargs)
        assert values.tobytes() == want.tobytes()
        assert got[1] == ref[1]
        assert _bits(got[0]) == _bits(ref[0])
        assert ([(s, _bits(r)) for s, r in got[2]]
                == [(s, _bits(r)) for s, r in ref[2]])

    @settings(max_examples=150, deadline=None)
    @given(_padded_case())
    def test_kernel_ignores_non_fluid_padding(self, case):
        # colours are global parities, so a box grown by non-FLUID cells
        # must give the same bits: values everywhere, sweeps, residual
        # history and final residual
        values, kwargs, big = case
        padded = values.copy()
        want = projected_sor(values, **kwargs)
        got = projected_sor(padded, **dict(kwargs, box=big))
        assert padded.tobytes() == values.tobytes()
        assert got[1] == want[1]
        assert _bits(got[0]) == _bits(want[0])
        assert ([(s, _bits(r)) for s, r in got[2]]
                == [(s, _bits(r)) for s, r in want[2]])

    def test_slice_memory_stays_pinned(self, radial_coarse,
                                       radial_coarse_stencil):
        # peak traced allocation of one cold obstacle slice, in grid
        # arrays: W, its active mask and the kernel's box-sized colour
        # arrays, coefficients and residual check.  Pinned at the measured
        # 4.04 rounded up
        sc, st = radial_coarse, radial_coarse_stencil
        solve_slice(sc, 0.2, stencil=st)
        tracemalloc.start()
        try:
            solve_slice(sc, 0.2, stencil=st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peak /= sc.grid.fluid.size * 8
        assert peak <= 4.1, f"peak {peak:.2f} grid arrays"


def _flooding_step(sc):
    """One m = 256, dt = 0.3 enthalpy step from u_init, as the problem
    (u, shift, coupling, load) of :meth:`FaceStencil.solve`.

    On the empty radial scenario the load is near zero only on slot-face
    cells, so the first window is the slot's, while the step's temperature
    spreads far beyond it.
    """
    m, dt = 256.0, 0.3
    return sc.u_init, 1.0 / m, dt, dt


def _interior_residual(st, values, u, shift, coupling, load):
    """:func:`_box_residual` on the interior box of the problem of
    :meth:`FaceStencil.solve`, posed on the whole grid."""
    diag = shift + coupling * st.diag
    rhs = (u - 1.0) + load * st.slot_load
    return _box_residual(values, diag, rhs, st.interior, st.grid.fluid,
                         coupling, st.h)


class TestCheckSchedule:
    # sweeps of the radial h = 1/16 runs and slice chain; the geometric
    # schedule measured 1,157, 1,183, 1,183 and 225 sweeps on them, the
    # placed checks 966, 977, 982 and 191
    TIMES = (0.1, 0.2, 0.3)

    @pytest.fixture(scope="class")
    def radial(self):
        sc = radial_scenario(h=1 / 16, t_max=0.3)
        return sc, build_stencil(sc)

    @staticmethod
    def _sweeps(radial, m):
        sc, st = radial
        if m is not None:
            res = stefan.run(sc, m, TestCheckSchedule.TIMES, stencil=st)
            return sum(row[4] for row in res.step_log)
        total, warm = 0, None
        for t in TestCheckSchedule.TIMES:
            warm = solve_slice(sc, t, warm=warm, stencil=st)
            total += warm.sweeps
        return total

    @pytest.mark.parametrize("m", (16, 64, 1024, None))
    def test_placed_checks_beat_the_geometric_schedule(self, radial, m,
                                                       monkeypatch):
        # m = None is the warm-started slice chain
        placed = self._sweeps(radial, m)
        monkeypatch.setattr(mesahs.stencil, "projected_sor", functools.partial(
            _strided_projected_sor, geometric_only=True))
        geometric = self._sweeps(radial, m)
        assert placed <= 0.9 * geometric


def _energy_change(before, after, pde, fluid, diag, kappa):
    """E(after) - E(before) for E = v.Av/2 - rhs.v, from the residual
    pde = A before - rhs on the box: d.pde + d.Ad/2 with d = after - before,
    which is zero outside the box."""
    d = np.where(fluid, after - before, 0.0)
    padded = np.pad(d, 1)
    nb = _box_neighbor_sum(padded, tuple(slice(1, e + 1) for e in d.shape))
    first = float((d * np.where(fluid, pde, 0.0)).sum())
    return first + 0.5 * float((d * (diag * d - kappa * nb)).sum()), first


class TestCoarseCorrection:
    # with the engage rule forced on, every check of every kernel call runs
    # a correction: the solve must still meet the tolerance, stay >= 0 and
    # match the SOR-only solve, and no correction may raise the energy

    @staticmethod
    def _solve(solve, corrections):
        """``solve()`` with a correction at every check, and the energy
        change and first-order term of each correction in ``corrections``;
        then ``solve()`` with none.  Returns both results."""
        cls = mesahs.coarse.Correction
        stage, apply = cls.stage, cls.apply
        staged = []

        def staging(self, v, pde, fluid, diag, kappa):
            staged.append((v.copy(), pde.copy(), fluid, diag, kappa))
            return stage(self, v, pde, fluid, diag, kappa)

        def applying(self, v):
            changed = apply(self, v)
            before, pde, fluid, diag, kappa = staged.pop()
            corrections.append(_energy_change(before, v, pde, fluid, diag,
                                              kappa))
            return changed

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mesahs.stencil, "_engages", lambda history, cost: True)
            mp.setattr(cls, "stage", staging)
            mp.setattr(cls, "apply", applying)
            corrected = solve()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mesahs.stencil, "_engages",
                       lambda history, cost: False)
            plain = solve()
        return corrected, plain

    @staticmethod
    def _check(corrected, plain, corrections):
        assert corrected.residual <= SOLVE_TOL
        # a solve that sweeps at all corrects at its first check
        assert corrected.corrections == len(corrections)
        assert (len(corrections) > 0) == (plain.sweeps > 0)
        assert plain.corrections == 0
        assert corrected.w.min() >= 0.0
        assert np.abs(corrected.w - plain.w).max() <= MONOTONE_SWEEP_TOL
        for change, first in corrections:
            assert change <= 1e-9 * abs(first)

    @settings(max_examples=25, deadline=None)
    @given(p=hst.floats(0.0, 1.0, exclude_min=True), t=hst.floats(0.02, 0.3),
           patch=hst.booleans(), warm=hst.booleans())
    def test_forced_corrections_keep_the_solution(self, radial_coarse,
                                                  mini_annulus, p, t, patch,
                                                  warm):
        base = mini_annulus if patch else radial_coarse
        sc = dataclasses.replace(base,
                                 p_samples=np.full_like(base.p_samples, p))
        st = build_stencil(sc)
        start = solve_slice(sc, t / 2, stencil=st) if warm else None
        corrections = []
        corrected, plain = self._solve(
            lambda: solve_slice(sc, t, warm=start, stencil=st), corrections)
        self._check(corrected, plain, corrections)

    def test_forced_corrections_in_3d(self):
        sc = radial_scenario(n=3, h=1 / 8, t_max=0.2, m_list=(8, 16, 32))
        st = build_stencil(sc)
        corrections = []
        corrected, plain = self._solve(
            lambda: solve_slice(sc, 0.2, stencil=st), corrections)
        self._check(corrected, plain, corrections)

    def test_compare_level_never_corrects(self):
        # the engage rule on the compare scenario: at h = 1/32 and the
        # two-cell step SOR needs 5-18 sweeps per decade from the fourth
        # check on, on boxes 70 to 122 cells wide; 1.4 decades of that is
        # at most 25 sweeps, below a correction's cost of 40-49
        sc = radial_scenario(h=1 / 32, t_max=0.5)
        res = stefan.run(sc, 1024,
                         [round(0.05 * k, 10) for k in range(1, 11)])
        assert res.steps > 0
        assert sum(row[9] for row in res.step_log) == 0

    def test_engage_rule_waits_for_the_fourth_check(self):
        # compare's lowest level at the two-cell step: over checks 0-2 the
        # rate reads the start transient (1.0, 1.9, 0.6), which would
        # engage at cost 45; from the fourth check on the rate no longer
        # reaches back to check 0
        engages = mesahs.stencil._engages
        assert not engages([(0, 1.0), (4, 1.9), (11, 0.6)], 45)
        # the annulus's solves first engage at the fifth check, as before
        annulus = [(0, 6.2e4), (4, 3.1e3), (11, 1.1e2), (41, 2.3e1),
                   (71, 1.0e1)]
        assert not engages(annulus[:4], 32)
        assert engages(annulus, 32)

    def test_annulus_contact_corrects_every_solve(self, annulus_jump):
        # the saturated annulus at h = 1/32 needs 37-70 SOR sweeps per
        # decade, so every solve of its contact bisection corrects
        solves = annulus_jump["solves"]
        assert len(solves) > 4
        assert all(sl.corrections > 0 for sl in solves)
        assert all(sl.residual <= SOLVE_TOL for sl in solves)

    def test_pre_contact_patch_dust_stays_below_the_cut(self, annulus_jump):
        # before contact, corrections leave W of 1e-27 to 2e-13 on the free
        # zero-load patch cells, where SOR alone leaves exact zeros at
        # t* - 0.01; that dust must stay far below the relative cut of 1e-8
        # with which contact_time tells a wet patch from a dry one.  The
        # slice at t* itself is left out: the patch is wetting there (W of
        # 1.7e-8, as with SOR alone), just under the cut
        patch = annulus_jump["patch"]
        dry = [sl for sl in annulus_jump["solves"]
               if sl.t < annulus_jump["t_star"]
               and not np.any(sl.active_mask & patch)]
        assert len(dry) >= 6
        for sl in dry:
            assert sl.w[patch].max() <= 1e-12 * sl.w.max()


class TestFlexibleCG:
    # the one Krylov routine of the coarse correction, on the system staged
    # from a 64 x 60 box: a ring of FLUID cells with v = 0 and a negative
    # residual, so every FLUID cell is free.  The hierarchy has a fine level,
    # one K-cycle level and a coarsest level

    @staticmethod
    def _staged(check):
        """``check(correction)`` with the work vectors of a correction staged
        on the box allocated."""
        shape = (64, 60)
        i, j = np.indices(shape)
        r2 = (i - 31.5) ** 2 + (j - 29.5) ** 2
        fluid = (r2 < 29 ** 2) & (r2 > 6 ** 2)
        correction = mesahs.coarse.Correction(shape)
        assert len(correction.levels) == 3
        v = np.zeros(shape)
        correction.stage(v, np.full(shape, -1.0), fluid, np.full(shape, 4.0),
                         1.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mesahs.coarse.Correction, "_step",
                       lambda self, v: check(self))
            return correction.apply(v)

    @staticmethod
    def _ones(level):
        """A right-hand side of 1 on the level's cells with a coupling."""
        return (level.diag > 0.0).astype(np.float32)

    def test_jacobi_steps_solve_the_coarsest_level(self):
        # as many steps as free cells cut the true residual below 1e-4 of
        # its start, in float32
        def check(correction):
            level = correction.levels[-1]
            rhs = self._ones(level)
            np.copyto(level.rhs, rhs)
            mesahs.coarse._fcg(level, level.rhs, level.c1,
                               int((rhs > 0).sum()),
                               lambda r, z: np.multiply(level.inv, r, out=z))
            res = rhs - level.matvec(level.c1, np.zeros_like(rhs))
            return np.linalg.norm(res) / np.linalg.norm(rhs)

        assert self._staged(check) < 1e-4

    def test_kcycle_directions_are_conjugate(self):
        # each direction is A-conjugate to the one before it, to float32
        # rounding, though the K-cycle changes from step to step
        def check(correction):
            fine = correction.levels[0]
            directions = []

            def precondition(r, z):
                directions.append(fine.p.copy())
                correction._cycle(0, r, z)

            mesahs.coarse._fcg(fine, fine.res, fine.d, 4, precondition)
            directions.append(fine.p.copy())
            products = [fine.matvec(p, np.zeros_like(p)).astype(float)
                        for p in directions[1:]]
            return directions[1:], products

        directions, products = self._staged(check)
        assert len(directions) == 4
        for k in range(1, 4):
            cross = abs(float(directions[k] @ products[k - 1]))
            scale = math.sqrt(float(directions[k] @ products[k])
                              * float(directions[k - 1] @ products[k - 1]))
            assert cross <= 1e-6 * scale

    def test_ratio_one_stops_after_the_first_step(self):
        # with ratio 1 the second step runs only while the first left more
        # than the whole residual, so two steps give the bits of one.  The
        # system's solution is 1 on every cell with a coupling: on a
        # right-hand side of ones instead the first step raises the residual
        def check(correction):
            level = correction.levels[1]
            rhs = level.matvec(self._ones(level), np.zeros(level.size,
                                                            np.float32))
            runs = []
            for steps, ratio in ((1, None), (2, 1.0), (2, None)):
                np.copyto(level.rhs, rhs)
                mesahs.coarse._fcg(
                    level, level.rhs, level.c1, steps,
                    lambda r, z: correction._cycle(1, r, z), ratio)
                runs.append((level.c1.copy(), level.rhs.copy()))
            return rhs, runs

        rhs, (one, stopped, two) = self._staged(check)
        assert np.linalg.norm(one[1]) < np.linalg.norm(rhs)
        assert all(np.array_equal(a, b) for a, b in zip(one, stopped))
        assert not np.array_equal(one[0], two[0])


class TestSweepBudget:
    @settings(max_examples=60, deadline=None)
    @given(hst.lists(hst.integers(3, 80), min_size=2, max_size=3),
           hst.integers(0, 2 ** 32 - 1), hst.floats(0.0, 1.0))
    def test_budget_counts_fluid_cells_only(self, shape, seed, share):
        # 50 sweeps per square root of the FLUID cell count, at least 2000;
        # a wider grid with the same FLUID cells gets the same budget
        fluid = np.random.default_rng(seed).random(shape) < share
        budget = _sweep_budget(SimpleNamespace(fluid=fluid,
                                               shape=tuple(shape)))
        assert budget == max(2000, int(50 * math.sqrt(fluid.sum())))
        wide = np.pad(fluid, 40)
        assert _sweep_budget(SimpleNamespace(fluid=wide,
                                             shape=wide.shape)) == budget

    def test_benchmark_grids(self):
        # the benchmark's 174^2, 334^2 and 422^2 grids; their largest
        # single solves take 202, 527 and 489 sweeps
        grids = (radial_scenario(h=1 / 32, t_max=0.5).grid,
                 radial_scenario(h=1 / 64, t_max=0.5).grid,
                 annulus_scenario(h=1 / 32).grid)
        assert [_sweep_budget(g) for g in grids] == [8011, 15492, 20706]


class TestSolveDriver:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        # (sweeps, history, box) of every kernel call the driver makes
        calls = []
        kernel = mesahs.stencil.projected_sor

        def recorded(values, diag, rhs, box, *args, **kwargs):
            result = kernel(values, diag, rhs, box, *args, **kwargs)
            calls.append((result[1], result[2], grid_box(values, box)))
            return result

        monkeypatch.setattr(mesahs.stencil, "projected_sor", recorded)
        return calls

    def test_regrowth_reaches_interior_solution(self, radial_coarse,
                                                radial_coarse_stencil,
                                                kernel_calls, monkeypatch):
        sc, st = radial_coarse, radial_coarse_stencil
        problem = _flooding_step(sc)
        # with no load near zero beyond the slot the first box is the
        # slot's, padded by one cell
        small = st.window_box(sc.grid.slot, pad=1)
        theta = np.zeros(sc.grid.shape)
        record = st.solve(theta, *problem, 1, None)
        assert len(kernel_calls) > 1 and record.box != small
        # the record's residual is the whole interior's, bit for bit
        _, residual = _interior_residual(st, theta, *problem)
        assert record.residual == residual <= SOLVE_TOL
        assert record.sweeps == sum(used for used, _, _ in kernel_calls)
        assert record.checks == sum(len(history)
                                    for _, history, _ in kernel_calls)
        assert record.regrowths == len(kernel_calls) - 1
        assert record.corrections == sum(history.corrections
                                         for _, history, _ in kernel_calls)
        solves = interior_solves(monkeypatch)
        ref = np.zeros(sc.grid.shape)
        st.solve(ref, *problem, 1, None)
        assert [call.first for call in solves] == [st.interior]
        assert np.abs(theta - ref).max() <= MONOTONE_SWEEP_TOL

    @staticmethod
    def _assert_grows_by_twice_the_pad(st, boxes, pad):
        # each regrowth widens every side by 2 * pad cells, clipped at the
        # interior
        for box, grown in zip(boxes, boxes[1:]):
            for old, new, edge in zip(box, grown, st.interior):
                assert new.start == max(edge.start, old.start - 2 * pad)
                assert new.stop == min(edge.stop, old.stop + 2 * pad)

    def test_regrowth_step_is_twice_the_pad(self, radial_coarse,
                                            radial_coarse_stencil,
                                            kernel_calls):
        # the pad-1 flooding step and a cold pad-8 slice at t = 0.3, which
        # leaks its first window once
        sc, st = radial_coarse, radial_coarse_stencil
        st.solve(np.zeros(sc.grid.shape), *_flooding_step(sc), 1, None)
        step_boxes = [box for _, _, box in kernel_calls]
        kernel_calls.clear()
        solve_slice(sc, 0.3, stencil=st)
        slice_boxes = [box for _, _, box in kernel_calls]
        assert len(step_boxes) > 1 and len(slice_boxes) > 1
        self._assert_grows_by_twice_the_pad(st, step_boxes, 1)
        self._assert_grows_by_twice_the_pad(st, slice_boxes,
                                            SLICE_WINDOW_PAD)

    @pytest.mark.parametrize("pad", (0, math.nan))
    def test_pad_below_one_is_rejected(self, radial_coarse,
                                       radial_coarse_stencil, kernel_calls,
                                       pad):
        # a zero step would regrow the same box forever at 0 sweeps a call
        sc, st = radial_coarse, radial_coarse_stencil
        with pytest.raises(ValueError, match="pad"):
            st.solve(np.zeros(sc.grid.shape), *_flooding_step(sc), pad, None)
        assert kernel_calls == []

    def test_one_budget_covers_every_regrowth(self, radial_coarse,
                                              radial_coarse_stencil,
                                              kernel_calls):
        # a budget one sweep past every call but the last of a converging
        # solve runs out after the regrowths, in that last call
        sc, st = radial_coarse, radial_coarse_stencil
        st.solve(np.zeros(sc.grid.shape), *_flooding_step(sc), 1, None)
        assert len(kernel_calls) > 1
        budget = sum(used for used, _, _ in kernel_calls[:-1]) + 1
        kernel_calls.clear()
        short = dataclasses.replace(st, budget=budget)
        # the box is written in plain integers, not numpy scalar reprs
        with pytest.raises(SolverError,
                           match=r"on box \[\(\d+, \d+\)") as err:
            short.solve(np.zeros(sc.grid.shape), *_flooding_step(sc), 1, None)
        assert "np.int64" not in str(err.value)
        assert len(kernel_calls) > 1
        assert sum(used for used, _, _ in kernel_calls) <= budget
        assert err.value.residual_history == [
            check for _, history, _ in kernel_calls for check in history]


class TestWindowRule:
    # the first window holds the positive start and the slot's box, and
    # without a stop test the patches near saturation; on random data,
    # with a saturated patch or without and cold or warm, a positive load
    # ends positive and the regrown window gives the interior-box answer.
    # At p = 0 the window is the slot's box grown by the pad
    @staticmethod
    def _windowed_and_full(st, solve):
        """``solve()`` on the first window and regrown, then on the interior
        box; with the kernel boxes of the windowed solve."""
        boxes = []
        kernel = mesahs.stencil.projected_sor

        def recorded(values, diag, rhs, box, *args, **kwargs):
            boxes.append(grid_box(values, box))
            return kernel(values, diag, rhs, box, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mesahs.stencil, "projected_sor", recorded)
            windowed = solve()
        with pytest.MonkeyPatch.context() as mp:
            solves = interior_solves(mp)
            full = solve()
        assert [call.first for call in solves] == [st.interior]
        return windowed, full, boxes

    @settings(max_examples=30, deadline=None)
    @given(p=hst.floats(0.0, 1.0, exclude_min=True), t=hst.floats(0.01, 0.3),
           patch=hst.booleans(), warm=hst.booleans(),
           m=hst.sampled_from((16.0, 256.0)))
    @example(p=0.0, t=0.3, patch=False, warm=False, m=256.0)
    @example(p=0.0, t=0.3, patch=True, warm=True, m=256.0)
    def test_positive_load_ends_positive_and_window_is_exact(
            self, radial_coarse, mini_annulus, p, t, patch, warm, m):
        base = mini_annulus if patch else radial_coarse
        sc = dataclasses.replace(base,
                                 p_samples=np.full_like(base.p_samples, p))
        st = build_stencil(sc)
        grid = sc.grid
        u = np.where(grid.fluid | grid.farfield, sc.u_init, 0.0)
        slice_start = solve_slice(sc, t / 2, stencil=st) if warm else None
        step_start = np.zeros(grid.shape)
        if warm:
            stefan._advance(st, u.copy(), step_start, m, t / 2, None)

        def step():
            theta = step_start.copy()
            stefan._advance(st, u.copy(), theta, m, t, st.interior)
            return theta

        cases = (
            (lambda: solve_slice(sc, t, warm=slice_start, stencil=st).w,
             st.slot_load * t - (1.0 - sc.u_init)),
            (step, (u - 1.0) + t * st.slot_load))
        for solve, load in cases:
            windowed, full, boxes = self._windowed_and_full(st, solve)
            assert np.all(windowed[grid.fluid & (load > SOLVE_TOL)] > 0)
            assert np.abs(windowed - full).max() <= MONOTONE_SWEEP_TOL
            if p == 0.0 and not patch:
                # no load is positive, none near zero: nothing flows and
                # one kernel call sweeps the slot's window
                assert not windowed.any()
                slot_window = st.grow_box(st.slot_box, SLICE_WINDOW_PAD)
                assert len(boxes) == 1 and all(
                    s.start <= b.start and b.stop <= s.stop
                    for b, s in zip(boxes[0], slot_window))


class TestZeroRule:
    # the kernel's precondition holds by construction: after every
    # FaceStencil.solve the field is exactly zero outside the record's box
    # and on every non-FLUID cell, and the window is exact: the record's
    # residual is the whole interior's, bit for bit
    @settings(max_examples=40, deadline=None)
    @given(p=hst.floats(0.0, 1.0, exclude_min=True), t=hst.floats(0.01, 0.3),
           share=hst.floats(0.1, 0.9), patch=hst.booleans(),
           m=hst.sampled_from((16.0, 256.0)))
    def test_field_is_zero_outside_the_box(self, radial_coarse, mini_annulus,
                                           p, t, share, patch, m):
        base = mini_annulus if patch else radial_coarse
        sc = dataclasses.replace(base,
                                 p_samples=np.full_like(base.p_samples, p))
        st = build_stencil(sc)
        grid = sc.grid
        with pytest.MonkeyPatch.context() as mp:
            solves = record_solves(mp)
            # a cold slice, a warm one from it, and one enthalpy step
            start = solve_slice(sc, share * t, stencil=st)
            solve_slice(sc, t, warm=start, stencil=st)
            u = np.where(grid.fluid | grid.farfield, sc.u_init, 0.0)
            stefan._advance(st, u, np.zeros(grid.shape), m, t, None)
        assert len(solves) == 3
        for call in solves:
            off_box = np.ones(grid.shape, dtype=bool)
            off_box[call.record.box] = False
            assert np.all(call.solved[off_box | ~grid.fluid] == 0.0)
            # u as the solve was given it: the step updates it afterwards
            _, residual = _interior_residual(st, call.solved, call.u,
                                             call.shift, call.coupling,
                                             call.load)
            assert call.record.residual == residual <= SOLVE_TOL


class TestSupportContract:
    # a solve reads its first-window rule on the caller's support and the
    # slot's box alone: outside the support the start is zero and u is
    # u_init on FLUID, and the first kernel box is the rule read on the
    # whole grid, on every step of two sweeps and every slice of a chain
    @staticmethod
    def _check(sc, st, solves):
        g = sc.grid
        near = -min(0.5, max(g.h, 1e-3))
        for call in solves:
            outside = np.ones(g.shape, dtype=bool)
            if call.support is not None:
                outside[call.support] = False
            assert not call.values[outside].any()
            assert np.array_equal(call.u[outside & g.fluid],
                                  sc.u_init[outside & g.fluid])
            load = (call.u - 1.0) + call.load * st.slot_load
            rule = g.slot | (call.values > 0) | (g.fluid & (load >= near))
            assert call.first == st.window_box(rule, call.pad)
            # the march starts every box at the slot's box: each solve's
            # box holds it
            assert all(r.start <= s.start and s.stop <= r.stop
                       for r, s in zip(call.record.box, st.slot_box))

    @pytest.mark.parametrize("two_slot", [False, True],
                             ids=["mini-annulus", "two-slot"])
    def test_every_step_of_a_sweep(self, mini_annulus, two_slot):
        # the mini-annulus sweep floods its saturated patch by t = 0.3
        sc = two_slot_scenario(h=1 / 16) if two_slot else mini_annulus
        times = [0.1, 0.2] if two_slot else [0.1, 0.2, 0.3]
        with pytest.MonkeyPatch.context() as mp:
            solves = record_solves(mp)
            lim = mesa.sweep(sc, times, stencil=build_stencil(sc))
        assert len(solves) == lim.steps * len(sc.m_list)
        if not two_slot:
            patch = sc.grid.fluid & (sc.u_init >= 1.0)
            assert not np.any(solves[0].u[patch] > 1.0)
            assert np.all(lim.u_fields[-1][patch] > 1.0)
        self._check(sc, build_stencil(sc), solves)

    @pytest.mark.parametrize("two_slot", [False, True],
                             ids=["mini-annulus", "two-slot"])
    def test_every_slice_of_a_warm_chain(self, mini_annulus, two_slot):
        # each warm slice's support is the box of the active cells of the
        # slice before it; the two-slot chain crosses the merger of its wet
        # regions, between t = 0.70 and 0.75
        if two_slot:
            sc = two_slot_scenario(h=1 / 16, t_max=1.0)
            times = (0.2, 0.4, 0.6, 0.7, 0.75, 0.8, 1.0)
        else:
            sc = mini_annulus
            times = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
        st = build_stencil(sc)
        slices = []
        with pytest.MonkeyPatch.context() as mp:
            solves = record_solves(mp)
            for t in times:
                slices.append(solve_slice(sc, t, warm=slices[-1] if slices
                                          else None, stencil=st))
        assert len(solves) == len(times)
        assert solves[0].support is None
        assert all(call.support == st.window_box(sl.active_mask, 0)
                   for call, sl in zip(solves[1:], slices))
        if two_slot:
            parts = [ndimage.label(sl.active_mask)[1] for sl in slices]
            assert parts[times.index(0.7)] == 2
            assert parts[times.index(0.75)] == 1
        self._check(sc, st, solves)


# ---------------------------------------------------------------------------
# grid primitives against an np.pad reference
# ---------------------------------------------------------------------------

def _pad_shift(values, axis, step):
    """values[i + step] along axis, zero beyond the edge, via np.pad."""
    padded = np.pad(values, 1)
    return padded[tuple(slice(1 + step, 1 + step + n) if a == axis
                        else slice(1, 1 + n)
                        for a, n in enumerate(values.shape))]


@hst.composite
def _array_and_box(draw):
    shape = draw(hst.lists(hst.integers(3, 9), min_size=1, max_size=3))
    seed = draw(hst.integers(0, 2 ** 32 - 1))
    values = np.random.default_rng(seed).standard_normal(shape)
    box = []
    for n in shape:
        start = draw(hst.integers(1, n - 2))
        box.append(slice(start, draw(hst.integers(start + 1, n - 1))))
    return values, tuple(box)


class TestGridPrimitives:
    @settings(max_examples=60, deadline=None)
    @given(_array_and_box(), hst.data())
    def test_shifted_matches_pad_reference(self, array_box, data):
        values, _ = array_box
        axis = data.draw(hst.integers(0, values.ndim - 1))
        step = data.draw(hst.sampled_from((-1, 1)))
        assert np.array_equal(_shifted(values, axis, step),
                              _pad_shift(values, axis, step))
        mask = values > 0
        assert np.array_equal(_shifted(mask, axis, step),
                              _pad_shift(mask, axis, step))

    @settings(max_examples=60, deadline=None)
    @given(_array_and_box())
    def test_box_neighbor_sum_matches_pad_reference(self, array_box):
        values, box = array_box
        ref = 0.0
        for axis in range(values.ndim):
            for step in (-1, 1):
                ref = ref + _pad_shift(values, axis, step)
        assert np.array_equal(_box_neighbor_sum(values, box), ref[box])
