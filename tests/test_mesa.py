"""Diffusivity sweep: monotone limits, representation, harmonic pressure."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import mesahs.stencil
from mesahs import baiocchi, mesa, scenarios, stefan
from mesahs.errors import ConfigError, SolverError
from mesahs.stefan import MONOTONE_STEP_TOL, MONOTONE_SWEEP_TOL
from mesahs.stencil import build_stencil

from conftest import mini_annulus_scenario, recorded_sweep


@pytest.fixture(scope="module")
def coarse_levels():
    """The coarse sweep and every level's snapshot temperatures, by m."""
    sc = scenarios.radial_scenario(h=1 / 12, t_max=0.3, m_list=(16, 64, 256))
    lim, runs = recorded_sweep(sc, snapshot_times=[0.1, 0.2, 0.3])
    return sc, lim, {m: r.theta_fields for m, r in runs.items()}


@pytest.fixture(scope="module")
def coarse_sweep(coarse_levels):
    sc, lim, _ = coarse_levels
    return sc, lim


class TestSweep:
    def test_needs_three_levels(self):
        sc = scenarios.radial_scenario(h=1 / 12, t_max=0.2, m_list=(16, 64, 256))
        sc = dataclasses.replace(sc, m_list=(16, 64))
        with pytest.raises(ConfigError):
            mesa.sweep(sc, snapshot_times=[0.1])

    def test_temperature_monotone_in_m(self, coarse_levels):
        sc, _, thetas = coarse_levels
        for m_lo, m_hi in zip(sc.m_list, sc.m_list[1:]):
            for a, b in zip(thetas[m_lo], thetas[m_hi]):
                assert float((a - b).max()) <= MONOTONE_SWEEP_TOL

    def test_active_sets_nested_in_m_and_t(self, coarse_levels):
        sc, lim, thetas = coarse_levels
        for m_lo, m_hi in zip(lim.m_list, lim.m_list[1:]):
            for a, b in zip(thetas[m_lo], thetas[m_hi]):
                cut_a = a > 1e-8 * max(a.max(), 1e-300)
                cut_b = b > 1e-8 * max(b.max(), 1e-300)
                # beyond-noise violations only
                bad = cut_a & ~cut_b & (a - b > MONOTONE_SWEEP_TOL)
                assert not bad.any()
        for earlier, later in zip(lim.q_masks, lim.q_masks[1:]):
            assert not np.any(earlier & ~later)

    def test_pressure_monotone_in_time(self, coarse_sweep):
        sc, lim = coarse_sweep
        fl = sc.grid.fluid
        for a, b in zip(lim.theta_fields, lim.theta_fields[1:]):
            assert np.all(b[fl] >= a[fl] - 1e-8)

    def test_tail_gap_recorded(self, coarse_sweep):
        _, lim = coarse_sweep
        assert len(lim.tail_gap) == len(lim.times)
        assert all(np.isfinite(g) and g >= 0 for g in lim.tail_gap)

    def test_sweep_is_the_run_of_its_levels(self, coarse_sweep):
        # the limit is stefan.run over the scenario's levels, bit for bit,
        # and keeps that run's record: its step log and its mass error,
        # which stays at rounding level
        sc, lim = coarse_sweep
        run = stefan.run(sc, sc.m_list, lim.times)
        assert lim.m_list == run.m_list == sc.m_list
        for name in ("dt", "times", "tail_gap", "step_log", "mass_error"):
            assert getattr(lim, name) == getattr(run, name)
        for name in ("u_fields", "theta_fields", "w_integrals"):
            for a, b in zip(getattr(lim, name), getattr(run, name)):
                assert np.array_equal(a, b)
        assert np.array_equal(lim.first_theta_time, run.first_theta_time)
        influx = lim.step_log[-1][3]
        assert influx > 1.0
        assert lim.mass_error <= 1e-13 * influx

    def test_snapshot_without_a_step_repeats_the_gap(self):
        # a snapshot within 1e-13 of the time reached takes no step: the
        # levels stand as they were, and so does the gap of the last pair
        sc = scenarios.radial_scenario(h=1 / 10, t_max=0.1,
                                       m_list=(8, 16, 32))
        lim = mesa.sweep(sc, snapshot_times=[0.0, 0.1, 0.1])
        assert lim.times == [0.0, 0.1, 0.1]
        assert lim.tail_gap[0] == 0.0
        assert lim.tail_gap[1] == lim.tail_gap[2] > 0.0

    def test_detachment_at_every_snapshot(self, coarse_sweep):
        sc, lim = coarse_sweep
        for t in lim.times:
            assert mesa.detachment_ok(lim.active_mask_at(t), sc.grid)

    def test_w_integral_progression(self, coarse_sweep):
        sc, lim = coarse_sweep
        fl = sc.grid.fluid
        for a, b in zip(lim.w_integrals, lim.w_integrals[1:]):
            assert np.all(b[fl] >= a[fl] - 1e-12)
        assert lim.w_integral_at(0.2) is not None
        assert lim.w_integral_at(0.123) is None

    def test_zero_pressure_limit_is_trivial(self):
        sc = scenarios.radial_scenario(h=1 / 10, t_max=0.2, m_list=(8, 16, 32))
        sc = dataclasses.replace(sc, p_samples=np.zeros_like(sc.p_samples))
        lim = mesa.sweep(sc, snapshot_times=[0.1, 0.2])
        fl = sc.grid.fluid
        for v in lim.theta_fields:
            assert np.all(v[fl] == 0.0)
        for q in lim.q_masks:
            assert not q.any()
        for u in lim.u_inf:
            assert np.array_equal(u[fl], sc.u_init[fl])
        # both routes produce identically zero potentials
        slices = [baiocchi.solve_slice(sc, t) for t in (0.1, 0.2)]
        rows = baiocchi.cross_validate(lim, slices, sc)
        assert all(r["supgap_w"] == 0.0 for r in rows)
        assert all(r["hausdorff_cells"] == 0.0 for r in rows)

    @pytest.mark.parametrize("doctored_m, next_m", [(8, 16), (16, 32),
                                                    (32, 64)],
                             ids=["first", "middle", "last"])
    def test_doctored_sweep_detected(self, monkeypatch, doctored_m, next_m):
        # each adjacent pair is checked, and against the right level: a
        # doubled level fails only the pair it opens
        sc = scenarios.radial_scenario(h=1 / 10, t_max=0.1,
                                       m_list=(8, 16, 32, 64))
        advance = stefan._advance

        def doctored(st, u, theta, m, dt, support):
            out = advance(st, u, theta, m, dt, support)
            if m == doctored_m:
                # larger than anything the higher level gives
                theta *= 2.0
            return out

        monkeypatch.setattr(stefan, "_advance", doctored)
        with pytest.raises(SolverError, match="monotone in m") as err:
            mesa.sweep(sc, snapshot_times=[0.1])
        assert f"between m={doctored_m} and m={next_m} " in str(err.value)

    @pytest.mark.parametrize("share, raises", [(0.4, False), (0.6, True)])
    def test_lower_level_drops_add_up_between_snapshots(self, monkeypatch,
                                                        share, raises):
        # a lower level keeps no enthalpy snapshot: the largest drops of
        # its steps, each one within MONOTONE_STEP_TOL, may add up to at
        # most that tolerance between two snapshots; here two steps of 0.1
        sc = scenarios.radial_scenario(h=1 / 10, t_max=0.2,
                                       m_list=(8, 16, 32))
        advance = stefan._advance

        def dropping(st, u, theta, m, dt, support):
            influx, residual, sweeps, record = advance(st, u, theta, m, dt,
                                                       support)
            if m == 16:
                record = dataclasses.replace(record,
                                             drop=share * MONOTONE_STEP_TOL)
            return influx, residual, sweeps, record

        monkeypatch.setattr(stefan, "_advance", dropping)
        if not raises:
            mesa.sweep(sc, snapshot_times=[0.2])
            return
        with pytest.raises(SolverError, match="m=16: u not monotone "
                                              "between snapshots"):
            mesa.sweep(sc, snapshot_times=[0.2])

    @pytest.mark.parametrize("share, raises", [(0.4, False), (0.6, True)])
    def test_last_level_compares_its_snapshots(self, monkeypatch, share,
                                               raises):
        # the last level compares consecutive enthalpy snapshots: lowering
        # every FLUID cell of each step's box by share * MONOTONE_STEP_TOL
        # passes every step's own check, and the two steps to t = 0.2 add up
        sc = scenarios.radial_scenario(h=1 / 10, t_max=0.2,
                                       m_list=(8, 16, 32))
        advance = stefan._advance

        def lowering(st, u, theta, m, dt, support):
            out = advance(st, u, theta, m, dt, support)
            if m == 32:
                box = out[3].box
                u[box] -= np.where(st.grid.fluid[box],
                                   share * MONOTONE_STEP_TOL, 0.0)
            return out

        monkeypatch.setattr(stefan, "_advance", lowering)
        if not raises:
            mesa.sweep(sc, snapshot_times=[0.2])
            return
        with pytest.raises(SolverError, match="m=32: u not monotone "
                                              "between snapshots"):
            mesa.sweep(sc, snapshot_times=[0.2])

    def test_continuation_changes_no_answer(self, radial_coarse,
                                            radial_coarse_stencil):
        # every step's solution is unique, so the levels' Richardson starts
        # move only rounding: the last level matches a run of its m alone
        times = [0.1, 0.2, 0.3]
        lim = mesa.sweep(radial_coarse, times)
        alone = stefan.run(radial_coarse, radial_coarse.m_list[-1], times,
                           stencil=radial_coarse_stencil)
        assert lim.times == alone.times
        for a, b in zip(lim.w_integrals + lim.theta_fields,
                        alone.w_integrals + alone.theta_fields):
            assert np.abs(a - b).max() <= MONOTONE_SWEEP_TOL

    def test_keeps_only_the_last_level(self):
        # the limit holds the last level alone: u, theta and W and a
        # boolean q mask per snapshot, and first times; no array of an earlier
        # level is kept, and only the last level copies u and W at all
        sc = scenarios.radial_scenario(h=1 / 16, t_max=0.3)
        times = [0.1, 0.2, 0.3]
        assert len(sc.m_list) == 7
        tracemalloc.start()
        try:
            lim = mesa.sweep(sc, times)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grid_array = np.zeros(sc.grid.shape).nbytes
        assert held <= (4 * len(times) + 4) * grid_array
        assert peak <= 26 * grid_array, (
            f"peak {peak / grid_array:.2f} grid arrays")
        assert len(lim.theta_fields) == len(times)


class TestRouteGap:
    # with W the exact backward-Euler sum, W^n solves the slice route's
    # obstacle problem up to the O(p/m) temperature on the active set, for
    # any dt: the gap falls like 1/m and does not follow the step length
    @pytest.mark.parametrize("annulus", [False, True],
                             ids=["radial", "mini-annulus"])
    def test_gap_falls_like_one_over_m_for_any_dt(self, radial_coarse,
                                                  mini_annulus, annulus):
        sc = mini_annulus if annulus else radial_coarse
        h, t = sc.grid.h, 0.25
        sl = baiocchi.solve_slice(sc, t)

        def gap(m, dt):
            level_sc = dataclasses.replace(sc, m_list=(m / 4, m / 2, m))
            lim = mesa.sweep(level_sc, snapshot_times=[t], dt=dt)
            return baiocchi.cross_validate(lim, [sl], sc)[0]["supgap_rel"]

        gaps = [gap(m, h / 4) for m in (64, 256, 1024)]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.5 <= coarse / fine <= 4.5
        assert abs(gap(1024, h) / gaps[-1] - 1.0) < 0.1

    @pytest.mark.parametrize("case", ["radial", "mini-annulus", "sandwich",
                                      "two-slot"])
    def test_default_dt_keeps_the_gap_of_quarter_cell_steps(self, case):
        # the default step is chosen by the route gap: at no snapshot and no
        # m may it let the gap grow past that of quarter-cell steps
        sc, times = {
            "radial": (scenarios.radial_scenario(h=1 / 16, t_max=0.5),
                       [0.1, 0.25, 0.5]),
            "mini-annulus": (mini_annulus_scenario(h=1 / 16), [0.1, 0.2, 0.3]),
            "sandwich": (scenarios.sandwich_scenario(h=1 / 16, t_max=0.2),
                         [0.05, 0.1, 0.2]),
            "two-slot": (scenarios.two_slot_scenario(h=1 / 16, t_max=0.2),
                         [0.05, 0.1, 0.2]),
        }[case]
        st = build_stencil(sc)
        slices, sl = [], None
        for t in times:
            sl = baiocchi.solve_slice(sc, t, warm=sl, stencil=st)
            slices.append(sl)
        fluid = sc.grid.fluid

        def gaps(m, dt):
            res = stefan.run(sc, m, times, dt=dt, stencil=st)
            return [np.abs(w - s.w)[fluid].max() / s.max_w()
                    for w, s in zip(res.w_integrals, slices)]

        assert stefan.default_dt(sc) == sc.grid.h
        for m in (16, 1024):
            for quarter, default in zip(gaps(m, sc.grid.h / 4), gaps(m, None)):
                assert default <= 1.1 * quarter


class TestTimeFunctions:
    def test_patch_has_zero_unit_time_but_late_theta(self):
        sc = mini_annulus_scenario(h=1 / 16, m_list=(16, 64, 256))
        lim = mesa.sweep(sc, snapshot_times=[0.3])
        patch = sc.grid.fluid & (sc.u_init >= 1.0)
        assert np.all(lim.first_theta_time[patch] > 0.0)

    def test_contact_reading_ignores_solver_dust(self, mini_annulus):
        # coarse corrections may leave sub-tolerance temperature on the
        # saturated patch before contact; the first patch time is the
        # midpoint of the step in which the patch first passes the active
        # cut, the same with corrections forced on, and within half a step
        # of the slices' contact time
        sc = mini_annulus
        patch = sc.grid.fluid & (sc.u_init >= 1.0)
        firsts = []
        for engage in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                if engage:
                    mp.setattr(mesahs.stencil, "_engages",
                               lambda history, cost: True)
                lim = mesa.sweep(sc, snapshot_times=[0.1, 0.2, 0.3])
            firsts.append(float(lim.first_theta_time[patch].min()))
        t_contact = baiocchi.contact_time(sc, patch, t_lo=0.0, t_hi=sc.t_max,
                                          tol_t=lim.dt)
        assert firsts[0] == firsts[1]
        assert abs(firsts[0] - t_contact) <= lim.dt / 2

    def test_crossings_tighten_with_m(self):
        sc = scenarios.radial_scenario(h=1 / 12, t_max=0.3, m_list=(16, 64, 256))
        lim, runs = recorded_sweep(sc, snapshot_times=[0.3])
        t16 = runs[16].first_theta_time
        t256 = runs[256].first_theta_time
        both = np.isfinite(t16) & np.isfinite(t256)
        assert np.all(t256[both] <= t16[both] + lim.times[-1] * 1e-12 + 1e-12)


class TestRepresentation:
    def test_projected_field_and_nestedness(self, coarse_sweep):
        sc, lim = coarse_sweep
        rep = mesa.representation_check(lim, sc)
        assert all(f < 0.05 for f in rep["intermediate_fraction"])

    def test_uniform_half_data_two_valued(self):
        sc = scenarios.radial_scenario(h=1 / 12, lam=0.5, patch_radius=2.0,
                                       t_max=0.2, m_list=(64, 256, 1024))
        lim = mesa.sweep(sc, snapshot_times=[0.2])
        rep = mesa.representation_check(lim, sc, tol=0.1)
        assert rep["intermediate_fraction"][0] < 0.03
        # restrict to the uniform-data region: beyond the compact patch the
        # initial data is 0 by construction
        half_region = sc.grid.fluid & (sc.u_init == 0.5)
        u = lim.u_fields[0][half_region]
        near_half = np.abs(u - 0.5) <= 0.1
        near_one = np.abs(u - 1.0) <= 0.1
        # intermediate values live on the O(h)-wide transition ring, whose
        # share of the region scales like perimeter * h / area
        assert (near_half | near_one).mean() >= 1.0 - sc.grid.h


class TestHarmonicity:
    def test_empty_mask_reported(self, coarse_sweep):
        sc, _ = coarse_sweep
        rep = mesa.harmonicity_check(np.zeros(sc.grid.shape),
                                     np.zeros(sc.grid.shape, bool), sc.grid)
        assert rep["empty"]

    def test_zero_field_zero_residual(self, coarse_sweep):
        sc, lim = coarse_sweep
        rep = mesa.harmonicity_check(np.zeros(sc.grid.shape),
                                     lim.active_mask_at(0.3), sc.grid)
        assert not rep["empty"]
        assert rep["max_residual"] == 0.0

    def test_residual_small_inside(self, coarse_sweep):
        sc, lim = coarse_sweep
        rep = mesa.harmonicity_check(lim.theta_fields[-1],
                                     lim.active_mask_at(0.3), sc.grid)
        assert not rep["empty"]
        assert rep["max_residual"] <= 2.0 * (1.0 / 256 + sc.grid.h)

    def test_slot_margin_insensitive(self, coarse_sweep):
        sc, lim = coarse_sweep
        r2 = mesa.harmonicity_check(lim.theta_fields[-1],
                                    lim.active_mask_at(0.3),
                                    sc.grid, slot_margin=2)
        r3 = mesa.harmonicity_check(lim.theta_fields[-1],
                                    lim.active_mask_at(0.3),
                                    sc.grid, slot_margin=3)
        assert r3["max_residual"] <= r2["max_residual"] + 1e-12

    def test_refinement_improves_residual(self):
        res = {}
        for h, m_top in ((1 / 12, 256), (1 / 24, 1024)):
            sc = scenarios.radial_scenario(h=h, t_max=0.2,
                                           m_list=(m_top // 4, m_top // 2, m_top))
            lim = mesa.sweep(sc, snapshot_times=[0.2])
            rep = mesa.harmonicity_check(lim.theta_fields[-1],
                                         lim.active_mask_at(0.2), sc.grid)
            res[h] = rep["max_residual"]
        assert res[1 / 24] <= res[1 / 12] * 1.1
