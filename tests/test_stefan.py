"""Enthalpy solver: conservation, monotone structure, containment, limits."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import ndimage

import mesahs.stefan as stefan
from mesahs import barriers, scenarios
from mesahs.errors import ConfigError, EnvelopeError, SolverError
from mesahs.stefan import MONOTONE_SWEEP_TOL, temperature
from mesahs.stencil import SOLVE_TOL, build_stencil

from conftest import interior_solves, mini_annulus_scenario


class TestTemperature:
    def test_values(self):
        assert temperature(1.5, 2.0) == pytest.approx(1.0)
        assert temperature(0.7, 64.0) == 0.0
        for m, big_m in ((8.0, 3.0), (1024.0, 1.0)):
            assert temperature(1.0 + big_m / m, m) == pytest.approx(big_m)

    def test_nonpositive_m_rejected(self):
        # non-finite m too, and by the run as well as the conversion
        sc = scenarios.radial_scenario(h=1 / 8, t_max=0.1, m_list=(8, 16, 32))
        for m in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ConfigError):
                temperature(1.2, m)
            with pytest.raises(ConfigError, match="diffusivity"):
                stefan.run(sc, m, snapshot_times=[0.1])


@pytest.fixture(scope="module")
def small():
    sc = scenarios.radial_scenario(h=1 / 12, t_max=0.3, m_list=(8, 32, 128))
    return sc, build_stencil(sc)


def p_zero_scenario(h=1 / 10):
    sc = scenarios.radial_scenario(h=h, t_max=0.3, m_list=(8, 32, 128))
    zero_p = np.zeros_like(sc.p_samples)
    return dataclasses.replace(sc, p_samples=zero_p)


class TestNoEvolution:
    def test_zero_pressure_means_no_motion(self):
        sc = p_zero_scenario()
        res = stefan.run(sc, 32, snapshot_times=[0.0, 0.1, 0.3])
        fl = sc.grid.fluid
        for u in res.u_fields:
            assert np.array_equal(u[fl], sc.u_init[fl])
        assert [row[2:4] for row in res.step_log] == [(0.0, 0.0)] * res.steps

    def test_zero_pressure_with_saturated_patch(self):
        sc = p_zero_scenario()
        u = sc.u_init.copy()
        center, _ = sc.geometry.bounding_center_radius()
        r = sc.grid.radius_from(center)
        u[sc.grid.fluid & (r > 1.5) & (r < 2.0)] = 1.0
        sc = dataclasses.replace(sc, u_init=u)
        res = stefan.run(sc, 32, snapshot_times=[0.2])
        assert np.array_equal(res.u_fields[-1][sc.grid.fluid],
                              sc.u_init[sc.grid.fluid])


def one_step(sc, u, m, dt, st):
    """A run of a single implicit step of length dt from enthalpy u."""
    return stefan.run(dataclasses.replace(sc, u_init=u), m, [dt], dt=dt,
                      stencil=st)


class TestSingleStep:
    def test_step_is_conservative(self, small):
        sc, st = small
        res = one_step(sc, sc.u_init, 32.0, 0.01, st)
        assert res.steps == 1
        influx = res.step_log[0][2]
        gain = (float((res.u_fields[-1] - sc.u_init)[sc.grid.fluid].sum())
                * sc.grid.cell_volume)
        assert gain == pytest.approx(influx, abs=1e-10 * sc.grid.fluid.sum())
        assert influx > 0

    def test_nan_residual_is_not_converged(self, small):
        sc, st = small
        load = st.slot_load.copy()
        load[tuple(np.argwhere(load > 0)[0])] = np.nan
        bad = dataclasses.replace(st, slot_load=load)
        with pytest.raises(SolverError) as err:
            one_step(sc, sc.u_init, 32.0, 0.01, bad)
        # the first residual check is already NaN and ends the solve
        assert err.value.residual_history[-1][0] == 0

    def test_dt_validation(self, small):
        sc, st = small
        # an infinite dt is no step; at 1e-300, t + dt rounds to t and the
        # run would never end, so the step-count bound rejects it
        for dt in (0.0, -0.01, np.nan, np.inf, 1e-300):
            with pytest.raises(ConfigError):
                stefan.run(sc, 32.0, [0.01], dt=dt, stencil=st)

    def test_comparison_principle_random_pairs(self, small):
        sc, st = small
        rng = np.random.default_rng(11)
        grid = sc.grid
        center, _ = sc.geometry.bounding_center_radius()
        interior = grid.fluid & ~grid.near_band & \
            (grid.radius_from(center) < 2.2)
        for trial in range(3):
            base = rng.random(grid.shape) * 0.9
            base = ndimage.uniform_filter(base, size=3)
            u1 = np.where(interior, base, 0.0)
            u2 = np.minimum(u1 + np.where(interior, 0.3 * rng.random(grid.shape), 0.0), 1.0)
            r1 = one_step(sc, u1, 64.0, 0.005, st).u_fields[-1]
            r2 = one_step(sc, u2, 64.0, 0.005, st).u_fields[-1]
            assert np.all(r1[grid.fluid] <= r2[grid.fluid] + 1e-8)


def test_step_solution_does_not_depend_on_its_start(radial_coarse,
                                                   radial_coarse_stencil):
    # (1/m + dt*A) is an M-matrix, so each step's complementarity problem
    # has one solution and the starting temperature changes only the sweep
    # count; two solves within tol of it differ by at most 2*m*tol, since
    # the inverse has infinity norm at most m
    sc, st = radial_coarse, radial_coarse_stencil
    m = 64.0
    mid = stefan.run(sc, m, [0.15], stencil=st)
    thetas = []
    for start in (mid.theta_fields[-1], np.zeros(sc.grid.shape)):
        theta = start.copy()
        out = stefan._advance(st, mid.u_fields[-1].copy(), theta, m, mid.dt,
                              st.interior)
        assert out[2] > 0
        thetas.append(theta)
    assert thetas[0].max() > 0.0
    assert np.abs(thetas[0] - thetas[1]).max() <= 2 * m * SOLVE_TOL


def test_step_on_a_small_box_allocates_no_grid_array():
    # the first step of a long-horizon run solves on about 6 % of a 204^2
    # grid: the step poses its problem on the box's frame and touches
    # nothing else, so its traced peak, about ten box arrays (0.58 grid
    # arrays), stays below one grid array; a diagonal and a load posed on
    # the whole grid would take two alone
    sc = scenarios.radial_scenario(h=1 / 16, t_max=4.0)
    st = build_stencil(sc)
    grid = sc.grid
    u = np.where(grid.fluid | grid.farfield, sc.u_init, 0.0)
    theta = np.zeros(grid.shape)
    tracemalloc.start()
    try:
        record = stefan._advance(st, u, theta, 256.0, grid.h, None)[3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid_array = theta.nbytes
    assert math.prod(s.stop - s.start for s in record.box) < 0.1 * theta.size
    assert peak < grid_array, f"peak {peak / grid_array:.2f} grid arrays"


class TestRun:
    def test_snapshot_zero_exact(self, small):
        sc, st = small
        res = stefan.run(sc, 32, snapshot_times=[0.0, 0.05], stencil=st)
        assert np.array_equal(res.u_fields[0][sc.grid.fluid],
                              sc.u_init[sc.grid.fluid])

    def test_monotone_in_time_and_bounded(self, small):
        sc, st = small
        res = stefan.run(sc, 128, snapshot_times=[0.05, 0.1, 0.2], stencil=st)
        fl = sc.grid.fluid
        for a, b in zip(res.u_fields, res.u_fields[1:]):
            assert np.all(b[fl] >= a[fl] - 1e-8)
        for u in res.u_fields:
            assert u[fl].min() >= 0.0
            assert u[fl].max() <= 1.0 + sc.max_datum / 128 + 1e-8
        for theta in res.theta_fields:
            assert theta[fl].min() >= 0.0
            assert theta[fl].max() <= sc.max_datum + 1e-8

    def test_mass_balance_across_run(self, small):
        sc, st = small
        res = stefan.run(sc, 64, snapshot_times=[0.2], stencil=st)
        budget = 1e-10 * sc.grid.fluid.sum() * res.steps
        assert res.mass_error <= budget

    def test_mass_error_reads_the_step_log(self, small):
        # the cumulative column is the running sum of the influx column, in
        # step order, and mass_error is its gap to the total gain, bit for
        # bit; quarter-cell steps give the log more than a handful of rows
        sc, st = small
        res = stefan.run(sc, 32, snapshot_times=[0.05, 0.1],
                         dt=sc.grid.h / 4, stencil=st)
        assert res.steps == len(res.step_log) > 5
        assert [row[0] for row in res.step_log] == list(range(1, res.steps + 1))
        cumulative = 0.0
        for row in res.step_log:
            cumulative += row[2]
            assert row[3] == cumulative
        gain = (float((res.u_fields[-1] - sc.u_init)[sc.grid.fluid].sum())
                * sc.grid.cell_volume)
        assert res.mass_error == abs(gain - res.step_log[-1][3])

    def test_positivity_set_inside_envelope_support(self, small):
        sc, st = small
        env = barriers.supersolution_envelope(sc)
        res = stefan.run(sc, 64, snapshot_times=[0.05, 0.1], stencil=st)
        center, _ = sc.geometry.bounding_center_radius()
        r = sc.grid.radius_from(center)
        prev = None
        for t, theta in zip(res.times, res.theta_fields):
            active = theta > 0
            assert active.any()
            assert r[active].max() <= env.radius(t) + 2 * sc.grid.h
            # radius-increasing annulus around the slot
            collar = ndimage.binary_dilation(sc.grid.slot) & sc.grid.fluid
            assert np.all(active[collar])
            if prev is not None:
                assert not np.any(prev & ~active)
            prev = active

    def test_unsorted_snapshots_rejected(self, small):
        sc, st = small
        with pytest.raises(ConfigError):
            stefan.run(sc, 32, snapshot_times=[0.2, 0.1], stencil=st)

    def test_one_level_is_a_list_of_one(self, small):
        # one diffusivity is a march of one level: no pair, so no tail gap
        sc, st = small
        res = stefan.run(sc, 32, snapshot_times=[0.0, 0.05], stencil=st)
        assert res.m_list == (32.0,) and res.m == 32.0
        assert res.tail_gap == [0.0, 0.0]

    @pytest.mark.parametrize("m_list", [[], [16, 16], [32, 16],
                                        [16, np.inf]],
                             ids=["empty", "repeated", "decreasing",
                                  "infinite"])
    def test_bad_level_list_takes_no_step(self, small, monkeypatch, m_list):
        sc, st = small

        def step(*args):
            raise AssertionError("a level stepped before validation")

        monkeypatch.setattr(stefan, "_advance", step)
        with pytest.raises(ConfigError):
            stefan.run(sc, m_list, snapshot_times=[0.05], stencil=st)

    def test_nonconvergence_raises_with_history(self, small):
        sc, st = small
        with pytest.raises(SolverError) as err:
            stefan.run(sc, 32, snapshot_times=[0.05],
                       stencil=dataclasses.replace(st, budget=2))
        assert err.value.residual_history

    def test_nonconvergence_names_m_step_and_time(self, small):
        # within 36 sweeps the short first step, to t = 0.001, converges
        # and the second, to t = 0.011, does not
        sc, st = small
        with pytest.raises(SolverError,
                           match=r"^m=32, step 2 to t=0\.011: ") as err:
            stefan.run(sc, 32, snapshot_times=[0.001, 0.05], dt=0.01,
                       stencil=dataclasses.replace(st, budget=36))
        assert err.value.residual_history[-1][0] == 36

    def test_envelope_abort_on_tight_domain(self):
        # a legal grid whose margin is too small for the horizon: the run
        # must abort before contaminating the farfield band
        from mesahs.geometry import Scenario, SlotGeometry, build_grid
        h = 1 / 10
        geom = SlotGeometry.ball((0.0, 0.0), 1.0, sample_spacing=h / 2)
        grid = build_grid(geom, h, margin=0.8)
        sc = Scenario(geometry=geom, grid=grid,
                      u_init=np.zeros(grid.shape),
                      p_samples=np.full(geom.boundary_samples.shape[0], 4.0),
                      t_max=2.0, m_list=(8, 16, 32))
        with pytest.raises(EnvelopeError, match=r"^m=32, step \d+ to t="):
            stefan.run(sc, 32, snapshot_times=[2.0])


class TestWindowIndependence:
    # dt=None steps at the default length, with no regrowth; one step of
    # 0.3 floods the patch and outgrows its first window
    @pytest.mark.parametrize("dt", [None, 0.3])
    def test_full_box_run_matches_windowed_run(self, mini_annulus,
                                               monkeypatch, dt):
        # the window and its regrowth may change sweep counts, never the
        # converged fields: solving every step on the whole interior box
        # must agree to the sweep tolerance, across the patch flooding too
        sc = mini_annulus
        st = build_stencil(sc)
        times = [0.1, 0.2, 0.3] if dt is None else [0.3]
        windowed = stefan.run(sc, 256, times, dt=dt, stencil=st)
        solves = interior_solves(monkeypatch)
        full = stefan.run(sc, 256, times, dt=dt, stencil=st)
        assert full.steps == windowed.steps == len(solves)
        assert all(call.first == st.interior for call in solves)
        for name in ("theta_fields", "u_fields", "w_integrals"):
            for a, b in zip(getattr(windowed, name), getattr(full, name)):
                assert np.abs(a - b).max() <= MONOTONE_SWEEP_TOL


class TestBaiocchiIdentity:
    @settings(max_examples=20, deadline=None)
    @given(annulus=hst.booleans(), log2_m=hst.floats(2.0, 11.0),
           dt_over_h=hst.floats(0.125, 2.0),
           times=hst.lists(hst.floats(0.0, 0.3), min_size=1, max_size=4))
    def test_w_is_discrete_baiocchi_transform(self, radial_coarse,
                                              mini_annulus, annulus, log2_m,
                                              dt_over_h, times):
        # backward Euler telescopes: u^n - u_init = -A_h W^n + t_n*slot_load
        # on FLUID for W^n = sum dt_k theta^k; each step's enthalpy update is
        # dt times the net face flux of its temperature, so it adds rounding
        # only: a few ulps of dt*diag*theta, below 1e-12 on these grids (the
        # constitutive update 1 + theta/m added its equation residual, which
        # exceeds tol on cells with 0 < theta <= tol)
        sc = mini_annulus if annulus else radial_coarse
        st = build_stencil(sc)
        result = stefan.run(sc, 2.0 ** log2_m, sorted(times),
                            dt=dt_over_h * sc.grid.h, stencil=st)
        fluid = sc.grid.fluid
        interior = st.interior
        for t, u, w in zip(result.times, result.u_fields, result.w_integrals):
            a_w = st.diag * w
            a_w[interior] -= st.neighbor_sum(w, interior)
            gap = np.abs(u - sc.u_init + a_w - t * st.slot_load)[fluid].max()
            assert gap <= (result.steps + 1) * 1e-12


class TestThreeDimensions:
    def test_3d_run_contained_and_conservative(self):
        sc = scenarios.radial_scenario(h=1 / 6, t_max=0.1, m_list=(8, 16, 32),
                                       n=3)
        res = stefan.run(sc, 16, snapshot_times=[0.05, 0.1])
        fl = sc.grid.fluid
        assert res.mass_error <= 1e-10 * fl.sum() * res.steps
        th = res.theta_fields[-1]
        assert th.max() <= sc.max_datum + 1e-8
        env = barriers.supersolution_envelope(sc)
        center, _ = sc.geometry.bounding_center_radius()
        r = sc.grid.radius_from(center)
        assert r[th > 0].max() <= env.radius(0.1) + 2 * sc.grid.h


class TestPatchContact:
    def test_patch_holds_then_floods(self):
        # quarter-cell steps, so contact (t = 0.125) comes more than 5 in
        sc = mini_annulus_scenario(h=1 / 16)
        res = stefan.run(sc, 256, snapshot_times=[0.3], dt=sc.grid.h / 4)
        patch = sc.grid.fluid & (sc.u_init >= 1.0)
        t_first = res.first_theta_time[patch]
        assert np.all(np.isfinite(t_first))
        t_contact = t_first.min()
        assert t_contact > 5 * res.dt
        # the whole patch turns diffusive within a step of first contact
        assert t_first.max() - t_first.min() <= res.dt + 1e-12


class TestEssentialRange:
    def test_initial_field_clean(self, small):
        sc, _ = small
        rep = stefan.essential_range_check(sc.u_init, sc.u_init, 64.0,
                                           tol=0.05, max_datum=sc.max_datum,
                                           grid=sc.grid)
        assert rep["fraction"] == 0.0

    def test_saturated_field_clean(self, small):
        sc, _ = small
        rep = stefan.essential_range_check(np.ones(sc.grid.shape), sc.u_init,
                                           64.0, tol=0.05,
                                           max_datum=sc.max_datum,
                                           grid=sc.grid)
        assert rep["fraction"] == 0.0

    def test_transition_ring_is_thin(self, small):
        sc, st = small
        res = stefan.run(sc, 128, snapshot_times=[0.2], stencil=st)
        rep = stefan.essential_range_check(res.u_fields[-1], sc.u_init, 128.0,
                                           tol=0.05, max_datum=sc.max_datum,
                                           grid=sc.grid)
        assert 0.0 < rep["fraction"] < 0.08
        assert len(rep["offending_cells"]) == rep["count"]


class TestWeakFormResidual:
    @staticmethod
    def _bump(center, rho, t0, tau):
        def phi_t(coords, t):
            space = 1.0
            for c, x in zip(center, coords):
                space = space * np.maximum(1 - ((x - c) / rho) ** 2, 0.0) ** 3
            s = (t - t0) / tau
            dwin = 3 * np.maximum(1 - s ** 2, 0.0) ** 2 * (-2 * s / tau)
            return space * dwin

        def phi_lap(coords, t):
            s = (t - t0) / tau
            win = np.maximum(1 - s ** 2, 0.0) ** 3
            parts = []
            for c, x in zip(center, coords):
                q = np.maximum(1 - ((x - c) / rho) ** 2, 0.0)
                parts.append((q, (x - c)))
            lap = 0.0
            for i, (qi, xi) in enumerate(parts):
                other = 1.0
                for j, (qj, _) in enumerate(parts):
                    if j != i:
                        other = other * qj ** 3
                d2 = (-6 * qi ** 2 / rho ** 2
                      + 24 * qi * xi ** 2 / rho ** 4)
                lap = lap + other * d2
            return lap * win
        return phi_t, phi_lap

    def test_pairing_vanishes_at_first_order(self):
        # the pairing decays like O(h + dt) but oscillates with the phase of
        # the free boundary against the grid, so assert a uniform first-order
        # envelope over three resolutions plus overall decay
        totals = {}
        for h in (1 / 8, 1 / 16, 1 / 32):
            sc = scenarios.radial_scenario(h=h, t_max=0.2, m_list=(8, 16, 32))
            dt = h / 8
            # a snapshot at every step: the times the run itself reaches
            t, step_times = 0.0, []
            while t < 0.2 - 1e-13:
                t += min(dt, 0.2 - t)
                step_times.append(t)
            res = stefan.run(sc, 32.0, snapshot_times=step_times, dt=dt)
            assert res.steps == len(res.times)
            times = res.times
            u_arrays = res.u_fields
            th_arrays = res.theta_fields
            worst = 0.0
            # bump boxes must avoid the slot: nearest box corner stays at
            # radius > 1 for all three centers
            for center in [(1.6, 0.0), (0.0, 1.6), (-1.3, 1.3)]:
                phi_t, phi_lap = self._bump(center, rho=0.5, t0=0.1, tau=0.08)
                val = stefan.weak_form_residual(times, u_arrays, th_arrays,
                                                sc.grid, phi_t, phi_lap)
                worst = max(worst, abs(val))
            totals[h] = worst
            assert worst <= 0.05 * (h + dt)
        assert totals[1 / 32] <= totals[1 / 8]
