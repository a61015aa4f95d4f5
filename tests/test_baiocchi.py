"""Obstacle-slice solver against the radial oracle and its exact structure."""

import dataclasses
import math
import re
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import mesahs.stencil
from mesahs import baiocchi, scenarios
from mesahs.errors import ConfigError, EnvelopeError, SolverError
from mesahs.stefan import MONOTONE_SWEEP_TOL
from mesahs.stencil import SOLVE_TOL, build_stencil

from conftest import interior_solves, mini_annulus_scenario

#: the ten times of the radial warm chain, as in the compare workload
CHAIN_TIMES = [round(0.05 * k, 10) for k in range(1, 11)]


def _record_kernel_calls(monkeypatch):
    """List that gets (sweeps, box) of every kernel call from now on."""
    calls = []
    kernel = mesahs.stencil.projected_sor

    def recorded(values, diag, rhs, box, *args, **kwargs):
        result = kernel(values, diag, rhs, box, *args, **kwargs)
        calls.append((result[1], box))
        return result

    monkeypatch.setattr(mesahs.stencil, "projected_sor", recorded)
    return calls


def _box_cells(box):
    return math.prod(s.stop - s.start for s in box)


def _chain(sc, st, starts=None):
    """Slices of the chain and the kernel calls of each.

    Each slice is warm-started from the one before it.  Given ``starts``,
    a chain of slices, every slice is instead solved on the interior box,
    the first cold and each later one from the slice of ``starts`` before
    it: the reference.
    """
    slices, calls = [], []
    with pytest.MonkeyPatch.context() as mp:
        if starts is not None:
            solves = interior_solves(mp)
        recorded = _record_kernel_calls(mp)
        for k, t in enumerate(CHAIN_TIMES):
            warm = slices[-1] if slices else None
            if starts is not None:
                warm = starts[k - 1] if k else None
            slices.append(baiocchi.solve_slice(sc, t, warm=warm, stencil=st))
            calls.append(recorded[:])
            recorded.clear()
    if starts is not None:
        assert [call.first for call in solves] == [st.interior] * len(slices)
    return slices, calls


@pytest.fixture(scope="module")
def radial32_chains():
    sc = scenarios.radial_scenario(h=1 / 32, t_max=0.5)
    st = build_stencil(sc)
    windowed = _chain(sc, st)
    return {"scenario": sc, "stencil": st, "windowed": windowed,
            "reference": _chain(sc, st, starts=windowed[0])}


class TestRadialOracle:
    def test_quarter_time_radius_is_sqrt_e(self):
        # the 2D free-boundary equation at t=1/4 is solved exactly by sqrt(e)
        R = baiocchi.radial_fb_radius(0.25, n=2, lam=0.0)
        assert R == pytest.approx(math.sqrt(math.e), abs=1e-10)
        assert baiocchi.radial_fb_equation(math.sqrt(math.e)) == pytest.approx(0.25)

    def test_3d_sixth_time_radius_is_three_halves(self):
        # in 3D the equation at t=1/6 is solved exactly by R=1.5
        assert baiocchi.radial_fb_equation(1.5, n=3) == pytest.approx(1 / 6)
        assert baiocchi.radial_fb_radius(1 / 6, n=3) == pytest.approx(1.5, abs=1e-10)

    def test_radius_grows_with_lam(self):
        r0 = baiocchi.radial_fb_radius(0.25, lam=0.0)
        r5 = baiocchi.radial_fb_radius(0.25, lam=0.5)
        assert r5 > r0
        # the scaled equation: (1 - lam) * f(R) = t
        assert baiocchi.radial_fb_equation(r5, lam=0.5) == pytest.approx(0.25)

    def test_profile_boundary_conditions(self):
        for n in (2, 3):
            for lam in (0.0, 0.4):
                t = 0.25 if n == 2 else 1 / 6
                R = baiocchi.radial_fb_radius(t, n=n, lam=lam)
                w1 = baiocchi.radial_w_profile(1.0, R, n=n, lam=lam)
                assert w1 == pytest.approx(t, rel=1e-10)
                assert baiocchi.radial_w_profile(R, R, n=n, lam=lam) == pytest.approx(0.0, abs=1e-12)

    def test_profile_solves_poisson(self):
        R = baiocchi.radial_fb_radius(0.25)
        f = lambda r: baiocchi.radial_w_profile(r, R, n=2, lam=0.3)
        d, r0 = 1e-5, 1.3
        lap = (f(r0 + d) - 2 * f(r0) + f(r0 - d)) / d ** 2 \
            + (f(r0 + d) - f(r0 - d)) / (2 * d) / r0
        assert lap == pytest.approx(0.7, abs=1e-5)


class TestSolveSlice:
    def test_zero_time_slice(self, radial_coarse, radial_coarse_stencil):
        st = radial_coarse_stencil
        seed = baiocchi.solve_slice(radial_coarse, 0.1, stencil=st)
        assert seed.max_w() > 0.0
        for warm in (None, seed):   # W(0) = 0 whatever the warm start
            sl = baiocchi.solve_slice(radial_coarse, 0.0, warm=warm, stencil=st)
            assert np.all(sl.w == 0.0)
            assert not sl.active_mask.any()

    def test_fb_radius_matches_oracle(self, radial_coarse, radial_coarse_stencil):
        sc = radial_coarse
        sl = baiocchi.solve_slice(sc, 0.25, stencil=radial_coarse_stencil)
        center, _ = sc.geometry.bounding_center_radius()
        lo, med, hi = baiocchi.fb_radius_stats(sl.active_mask, sc.grid, center)
        R = baiocchi.radial_fb_radius(0.25)
        assert abs(med - R) <= 2 * sc.grid.h

    def test_w_profile_matches_oracle(self, radial_coarse, radial_coarse_stencil):
        sc = radial_coarse
        sl = baiocchi.solve_slice(sc, 0.25, stencil=radial_coarse_stencil)
        R = baiocchi.radial_fb_radius(0.25)
        center, _ = sc.geometry.bounding_center_radius()
        r = sc.grid.radius_from(center)
        sel = sc.grid.fluid & (r <= R + 1.0)
        oracle = baiocchi.radial_w_profile(np.maximum(r, 1.0), R)
        gap = np.abs(sl.w - oracle)[sel].max()
        assert gap <= 0.05 * sl.max_w()

    def test_complementarity_invariants(self, radial_coarse, radial_coarse_stencil):
        sl = baiocchi.solve_slice(radial_coarse, 0.2,
                                  stencil=radial_coarse_stencil)
        rep = baiocchi.complementarity_report(radial_coarse, sl,
                                              stencil=radial_coarse_stencil)
        assert rep["min_w"] >= 0.0
        assert rep["max_comp"] == sl.residual
        assert rep["max_comp"] <= 1e-9
        assert rep["max_product"] <= 1e-9

    def test_monotone_convex_bounded_in_time(self, radial_coarse,
                                             radial_coarse_stencil):
        sc, st = radial_coarse, radial_coarse_stencil
        t1, t2, t3 = 0.1, 0.2, 0.3
        s1 = baiocchi.solve_slice(sc, t1, stencil=st)
        s2 = baiocchi.solve_slice(sc, t2, warm=s1, stencil=st)
        s3 = baiocchi.solve_slice(sc, t3, warm=s2, stencil=st)
        fl = sc.grid.fluid
        tol = 1e-8
        assert np.all(s1.w[fl] <= s2.w[fl] + tol)
        assert np.all(s2.w[fl] <= s3.w[fl] + tol)
        assert not np.any(s1.active_mask & ~s2.active_mask)
        assert not np.any(s2.active_mask & ~s3.active_mask)
        # convexity on the equally spaced triple
        assert np.all(s2.w[fl] <= 0.5 * (s1.w[fl] + s3.w[fl]) + tol)
        # difference bound by the pressure sup
        diff = (s3.w - s1.w)[fl]
        assert diff.min() >= -tol
        assert diff.max() <= (t3 - t1) * sc.max_datum + tol

    def test_warm_start_does_not_change_answer(self, radial_coarse,
                                               radial_coarse_stencil):
        sc, st = radial_coarse, radial_coarse_stencil
        cold = baiocchi.solve_slice(sc, 0.25, stencil=st)
        seed = baiocchi.solve_slice(sc, 0.1, stencil=st)
        warm = baiocchi.solve_slice(sc, 0.25, warm=seed, stencil=st)
        assert np.max(np.abs(cold.w - warm.w)) <= 1e-7

    def test_nan_residual_is_not_converged(self, radial_coarse,
                                           radial_coarse_stencil):
        st = radial_coarse_stencil
        load = st.slot_load.copy()
        load[tuple(np.argwhere(load > 0)[0])] = np.nan
        bad = dataclasses.replace(st, slot_load=load)
        with pytest.raises(SolverError) as err:
            baiocchi.solve_slice(radial_coarse, 0.1, stencil=bad)
        # the first residual check is already NaN and ends the solve
        assert err.value.residual_history[-1][0] == 0

    def test_nonconvergence_names_the_time(self, radial_coarse,
                                           radial_coarse_stencil):
        st = dataclasses.replace(radial_coarse_stencil, budget=3)
        with pytest.raises(SolverError,
                           match=r"^obstacle slice at t=0\.2: ") as err:
            baiocchi.solve_slice(radial_coarse, 0.2, stencil=st)
        assert err.value.residual_history[-1][0] == 3

    def test_active_set_at_the_band_is_envelope_error(
            self, radial_coarse, radial_coarse_stencil):
        # the grid is sized for t_max = 0.3; by t = 2 the free boundary
        # reaches the farfield clearance, cold or warm-started
        st = radial_coarse_stencil
        below = baiocchi.solve_slice(radial_coarse, 1.0, stencil=st)
        assert not np.any(below.active_mask & radial_coarse.grid.near_band)
        for warm in (None, below):
            with pytest.raises(EnvelopeError, match=r"^obstacle slice at "
                               r"t=2: .*farfield clearance"):
                baiocchi.solve_slice(radial_coarse, 2.0, warm=warm,
                                     stencil=st)

    def test_first_slice_positive_on_the_clearance_is_envelope_error(
            self, radial_coarse, radial_coarse_stencil):
        # bisect for the first t whose converged W is positive on a
        # clearance cell: the slice just below holds W = 0 on every one of
        # them, and the slice at that t raises, cold or warm, however small
        # W is there (the active-set cut 1e-8 * max W once let it pass)
        sc, st = radial_coarse, radial_coarse_stencil

        def slice_or_error(t, warm):
            try:
                return baiocchi.solve_slice(sc, t, warm=warm, stencil=st)
            except EnvelopeError as exc:
                return exc

        lo, hi = 0.3, 4.0
        below = slice_or_error(lo, None)
        assert isinstance(slice_or_error(hi, below), EnvelopeError)
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            found = slice_or_error(mid, below)
            if isinstance(found, EnvelopeError):
                hi = mid
            else:
                lo, below = mid, found
        assert not np.any(below.w[sc.grid.near_band] > 0)
        assert below.max_w() > 1.0
        for warm in (None, below):
            with pytest.raises(EnvelopeError, match=(
                    rf"^obstacle slice at t={re.escape(f'{hi:g}')}: "
                    r".*farfield clearance")):
                baiocchi.solve_slice(sc, hi, warm=warm, stencil=st)

    def test_negative_time_rejected(self, radial_coarse):
        with pytest.raises(ConfigError):
            baiocchi.solve_slice(radial_coarse, -0.1)

    def test_3d_slice_matches_oracle(self):
        from mesahs.scenarios import radial_scenario
        sc = radial_scenario(h=1 / 8, t_max=1 / 6, m_list=(8, 16, 32), n=3)
        sl = baiocchi.solve_slice(sc, 1 / 6)
        center, _ = sc.geometry.bounding_center_radius()
        _, med, _ = baiocchi.fb_radius_stats(sl.active_mask, sc.grid, center)
        assert abs(med - 1.5) <= 2 * sc.grid.h

    def test_polygon_slot_slice(self):
        from scipy import ndimage
        from mesahs.geometry import Scenario, SlotGeometry, build_grid
        h = 1 / 12
        geom = SlotGeometry.rounded_polygon(
            [(-0.6, -0.6), (0.6, -0.6), (0.6, 0.6), (-0.6, 0.6)],
            rounding=0.3, sample_spacing=h / 2)
        grid = build_grid(geom, h, margin=1.8)
        sc = Scenario(geometry=geom, grid=grid,
                      u_init=np.zeros(grid.shape),
                      p_samples=np.ones(geom.boundary_samples.shape[0]),
                      t_max=0.2, m_list=(8, 16, 32))
        sl = baiocchi.solve_slice(sc, 0.15)
        rep = baiocchi.complementarity_report(sc, sl)
        assert rep["max_comp"] <= 1e-9
        collar = ndimage.binary_dilation(grid.slot) & grid.fluid
        assert np.all(sl.active_mask[collar])
        bal = baiocchi.mass_balance_check(sc, sl)
        assert bal["relative"] <= 0.10


class TestSliceWindow:
    # every slice solves on a window around the slot and its start, grown
    # until its ring meets tol; the reference solves every slice on the
    # interior box

    def test_chain_matches_reference_on_smaller_boxes(self, radial32_chains):
        slices, calls = radial32_chains["windowed"]
        ref_slices, ref_calls = radial32_chains["reference"]
        sc, st = radial32_chains["scenario"], radial32_chains["stencil"]
        # bit identity below needs SOR alone: boxes that corrected would
        # aggregate different blocks and agree only within tol
        assert all(sl.corrections == 0 for sl in slices + ref_slices)
        interior = _box_cells(st.interior)
        assert all(_box_cells(box) < interior
                   for slice_calls in calls for _, box in slice_calls)
        # the cold first slice ends in its first window, with the sweeps of
        # the reference, and its residual is the whole interior's
        assert len(calls[0]) == 1
        assert calls[0][0][0] == ref_calls[0][0][0] == 71
        assert (baiocchi.complementarity_report(sc, slices[0], stencil=st)
                ["max_comp"] == slices[0].residual)
        assert (np.abs(slices[0].w - ref_slices[0].w).max()
                <= MONOTONE_SWEEP_TOL)
        # every warm slice solves the reference's problem: same sweeps,
        # same bits
        for sl, ref, slice_calls, ref_slice_calls in zip(
                slices[1:], ref_slices[1:], calls[1:], ref_calls[1:]):
            assert np.array_equal(sl.w, ref.w)
            assert ([used for used, _ in slice_calls]
                    == [used for used, _ in ref_slice_calls])

    def test_chain_work_stays_windowed(self, radial32_chains):
        # box cells x sweeps over the chain's kernel calls: 21.2 M against
        # 42.8 M on the interior box, so a silent fallback to the whole box
        # fails here, with no wall-clock noise
        _, calls = radial32_chains["windowed"]
        _, ref_calls = radial32_chains["reference"]
        work = sum(used * _box_cells(box)
                   for slice_calls in calls for used, box in slice_calls)
        full = sum(used * _box_cells(box)
                   for slice_calls in ref_calls for used, box in slice_calls)
        assert work <= 0.7 * full

    def test_far_behind_warm_start_regrows_to_the_reference(
            self, radial32_chains, monkeypatch):
        sc, st = radial32_chains["scenario"], radial32_chains["stencil"]
        seed = baiocchi.solve_slice(sc, 0.05, stencil=st)
        calls = _record_kernel_calls(monkeypatch)
        sl = baiocchi.solve_slice(sc, 0.5, warm=seed, stencil=st)
        assert len(calls) > 1
        rep = baiocchi.complementarity_report(sc, sl, stencil=st)
        assert rep["max_comp"] == sl.residual <= SOLVE_TOL
        solves = interior_solves(monkeypatch)
        ref = baiocchi.solve_slice(sc, 0.5, warm=seed, stencil=st)
        assert [call.first for call in solves] == [st.interior]
        assert np.abs(sl.w - ref.w).max() <= MONOTONE_SWEEP_TOL

    def test_cold_slice_regrows_in_few_calls(self, radial64, monkeypatch):
        # a leaking window grows by 2 * SLICE_WINDOW_PAD cells: the cold
        # h = 1/64 slice at t = 0.5 takes 4 kernel calls (13 at 4 cells)
        sc = radial64
        st = build_stencil(sc)
        calls = _record_kernel_calls(monkeypatch)
        sl = baiocchi.solve_slice(sc, 0.5, stencil=st)
        assert 1 < len(calls) <= 4
        rep = baiocchi.complementarity_report(sc, sl, stencil=st)
        assert rep["max_comp"] == sl.residual <= SOLVE_TOL
        solves = interior_solves(monkeypatch)
        ref = baiocchi.solve_slice(sc, 0.5, stencil=st)
        assert [call.first for call in solves] == [st.interior]
        assert np.abs(sl.w - ref.w).max() <= MONOTONE_SWEEP_TOL

    def test_patch_near_saturation_is_in_the_first_window(self, mini_annulus,
                                                          monkeypatch):
        # warm-started before contact and solved after it: the saturated
        # patch lies inside the first window, so the solve needs no regrowth
        sc = mini_annulus
        st = build_stencil(sc)
        patch = sc.grid.fluid & (sc.u_init >= 1.0 - 1e-9)
        pre = baiocchi.solve_slice(sc, 0.08, stencil=st)
        assert not np.any(pre.active_mask & patch)
        calls = _record_kernel_calls(monkeypatch)
        post = baiocchi.solve_slice(sc, 0.12, warm=pre, stencil=st)
        assert np.any(post.active_mask & patch)
        assert len(calls) == 1
        assert _box_cells(calls[0][1]) < _box_cells(st.interior)
        solves = interior_solves(monkeypatch)
        ref = baiocchi.solve_slice(sc, 0.12, warm=pre, stencil=st)
        assert [call.first for call in solves] == [st.interior]
        assert np.array_equal(post.w, ref.w)

    def test_warm_slice_on_a_small_box_allocates_under_two_grid_arrays(self):
        # the slice at t = 0.1 of a long-horizon radial grid (204^2) starts
        # from t = 0.05 and reads that start on its box alone: its traced
        # peak, about 1.67 grid arrays, is the new W and its active mask
        # plus box-sized work; a start copied over the whole grid and a
        # first-window rule read on the interior would take it past two
        sc = scenarios.radial_scenario(h=1 / 16, t_max=4.0)
        st = build_stencil(sc)
        start = baiocchi.solve_slice(sc, 0.05, stencil=st)
        tracemalloc.start()
        try:
            sl = baiocchi.solve_slice(sc, 0.1, warm=start, stencil=st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peak /= sl.w.nbytes
        assert _box_cells(sl.box) < 0.1 * sl.w.size
        assert peak < 2.0, f"peak {peak:.2f} grid arrays"


class TestMassBalance:
    def test_zero_at_time_zero(self, radial_coarse, radial_coarse_stencil):
        sl = baiocchi.solve_slice(radial_coarse, 0.0,
                                  stencil=radial_coarse_stencil)
        rep = baiocchi.mass_balance_check(radial_coarse, sl,
                                          stencil=radial_coarse_stencil)
        assert rep["weighted_area"] == 0.0
        assert rep["slot_flux"] == pytest.approx(0.0, abs=1e-12)

    def test_radial_balance(self, radial_coarse, radial_coarse_stencil):
        sl = baiocchi.solve_slice(radial_coarse, 0.25,
                                  stencil=radial_coarse_stencil)
        rep = baiocchi.mass_balance_check(radial_coarse, sl,
                                          stencil=radial_coarse_stencil)
        # weighted area should be near pi (R^2 - 1)
        R = baiocchi.radial_fb_radius(0.25)
        assert rep["weighted_area"] == pytest.approx(np.pi * (R ** 2 - 1), rel=0.1)
        assert rep["relative"] <= 0.08

    def test_two_slot_balance_improves_under_refinement(self):
        from mesahs.scenarios import two_slot_scenario
        rels = []
        for h in (1 / 8, 1 / 16):
            sc = two_slot_scenario(h=h, t_max=0.2)
            sl = baiocchi.solve_slice(sc, 0.2)
            rep = baiocchi.mass_balance_check(sc, sl)
            rels.append(rep["relative"])
        assert rels[1] <= rels[0]
        assert rels[1] <= 0.10


class TestRecoverPressure:
    def test_nonnegative_and_bounded(self, radial_coarse, radial_coarse_stencil):
        sc, st = radial_coarse, radial_coarse_stencil
        a = baiocchi.solve_slice(sc, 0.2, stencil=st)
        b = baiocchi.solve_slice(sc, 0.21, warm=a, stencil=st)
        v = baiocchi.recover_pressure(a, b)
        fl = sc.grid.fluid
        assert v[fl].min() >= -1e-6
        assert v[fl].max() <= sc.max_datum * 1.05

    def test_early_pressure_near_slot_data(self, radial_coarse,
                                           radial_coarse_stencil):
        sc, st = radial_coarse, radial_coarse_stencil
        zero = baiocchi.solve_slice(sc, 0.0, stencil=st)
        dt = 0.05
        nxt = baiocchi.solve_slice(sc, dt, stencil=st)
        v = baiocchi.recover_pressure(zero, nxt)
        assert v[sc.grid.fluid].max() == pytest.approx(sc.max_datum, rel=0.4)

    def test_recovered_pressure_harmonic_inside(self, radial_coarse,
                                                radial_coarse_stencil):
        from mesahs import mesa
        sc, st = radial_coarse, radial_coarse_stencil
        a = baiocchi.solve_slice(sc, 0.25, stencil=st)
        b = baiocchi.solve_slice(sc, 0.26, warm=a, stencil=st)
        v = baiocchi.recover_pressure(a, b)
        rep = mesa.harmonicity_check(v, a.active_mask, sc.grid)
        assert rep["max_residual"] <= 1e-4

    def test_wrong_order_rejected(self, radial_coarse, radial_coarse_stencil):
        a = baiocchi.solve_slice(radial_coarse, 0.2,
                                 stencil=radial_coarse_stencil)
        with pytest.raises(ConfigError):
            baiocchi.recover_pressure(a, a)

    def test_jump_across_patch_contact(self):
        sc = mini_annulus_scenario()
        st = build_stencil(sc)
        patch = sc.grid.fluid & (sc.u_init >= 1.0 - 1e-9)
        t_star = baiocchi.contact_time(sc, patch, t_lo=0.05, t_hi=0.3,
                                       tol_t=2e-3, stencil=st)
        d = 0.01
        pre = baiocchi.solve_slice(sc, t_star - d, stencil=st)
        pre2 = baiocchi.solve_slice(sc, t_star - d / 2, warm=pre, stencil=st)
        post = baiocchi.solve_slice(sc, t_star + d, warm=pre, stencil=st)
        post2 = baiocchi.solve_slice(sc, t_star + 1.5 * d, warm=post, stencil=st)
        v_pre = baiocchi.recover_pressure(pre, pre2)
        v_post = baiocchi.recover_pressure(post, post2)
        jump = (v_post - v_pre)[sc.grid.fluid]
        assert jump.max() >= 0.2   # discontinuous-in-time pressure


class TestContactTime:
    def test_preconditions(self, radial_coarse, radial_coarse_stencil):
        patch = np.zeros(radial_coarse.grid.shape, dtype=bool)
        patch[2, 2] = True   # inside the farfield clearance, never active
        with pytest.raises(ConfigError):
            baiocchi.contact_time(radial_coarse, patch, 0.05, 0.25, 1e-3,
                                  stencil=radial_coarse_stencil)

    def test_patch_active_at_t_lo_is_config_error(self, radial_coarse,
                                                  radial_coarse_stencil):
        sc, st = radial_coarse, radial_coarse_stencil
        patch = baiocchi.solve_slice(sc, 0.1, stencil=st).active_mask
        assert patch.any()
        with pytest.raises(ConfigError, match="patch already active at t_lo"):
            baiocchi.contact_time(sc, patch, 0.1, 0.25, 1e-3, stencil=st)

    @pytest.mark.parametrize("t_lo, t_hi, tol_t", [
        (0.001, 0.3, 0.0), (0.001, 0.3, -1e-3), (0.001, 0.3, math.nan),
        (0.3, 0.3, 1e-3), (0.3, 0.001, 1e-3), (math.nan, 0.3, 1e-3)])
    def test_bad_bracket_or_tolerance_solves_nothing(self, monkeypatch, t_lo,
                                                     t_hi, tol_t):
        # a NaN tolerance used to return the bracket's midpoint unbisected,
        # and a zero one never ended
        solves = []
        monkeypatch.setattr(baiocchi, "solve_slice",
                            lambda *args, **kwargs: solves.append(args))
        with pytest.raises(ConfigError, match="tol_t > 0 and t_lo < t_hi"):
            baiocchi.contact_time(None, np.ones((3, 3), dtype=bool), t_lo,
                                  t_hi, tol_t, stencil=object())
        assert solves == []

    def test_bisection_ends_at_adjacent_doubles(self, monkeypatch):
        # a tolerance below the spacing of doubles at t* must still end: the
        # bracket stops shrinking once its ends are adjacent
        t_star = 0.1505
        patch = np.ones((3, 3), dtype=bool)
        solves = []

        def solve_slice(scenario, t, warm=None, stencil=None):
            solves.append(t)
            if len(solves) > 200:
                raise AssertionError("bisection did not end")
            return SimpleNamespace(active_mask=np.full(patch.shape,
                                                       t >= t_star))

        monkeypatch.setattr(baiocchi, "solve_slice", solve_slice)
        t = baiocchi.contact_time(None, patch, 0.001, 0.3, 1e-300,
                                  stencil=object())
        assert np.nextafter(t_star, 0.0) <= t <= t_star
        assert len(solves) < 70


def _edt_hausdorff(mask_a, mask_b):
    """The Hausdorff distance from scipy's exact distance transform."""
    from scipy import ndimage
    d_to_b = ndimage.distance_transform_edt(~mask_b)
    d_to_a = ndimage.distance_transform_edt(~mask_a)
    return float(max(d_to_b[mask_a].max(), d_to_a[mask_b].max()))


@hst.composite
def _mask_pair(draw):
    """Two non-empty random 1-3D masks of one shape."""
    n = draw(hst.integers(1, 3))
    shape = tuple(draw(hst.lists(hst.integers(1, (40, 14, 7)[n - 1]),
                                 min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    masks = []
    for _ in range(2):
        mask = rng.random(shape) < draw(hst.sampled_from((0.02, 0.3, 0.9)))
        mask[tuple(rng.integers(0, size) for size in shape)] = True
        masks.append(mask)
    return masks


class TestHausdorff:
    @settings(max_examples=300, deadline=None)
    @given(_mask_pair(), hst.sampled_from((1, 5, 2 ** 18)))
    def test_matches_exact_distance_transform(self, masks, pairs):
        # the edge-cell search gives scipy's exact EDT distance bit for bit,
        # whatever the block size of the nearest-cell search
        with mock.patch.object(mesahs.stencil, "_NEAREST_SEARCH_PAIRS", pairs):
            got = baiocchi.hausdorff_cells(*masks)
        assert got == _edt_hausdorff(*masks)

    def test_identical_masks(self):
        m = np.zeros((10, 10), dtype=bool)
        m[3:6, 3:6] = True
        assert baiocchi.hausdorff_cells(m, m) == 0.0

    def test_one_cell_offset(self):
        a = np.zeros((10, 10), dtype=bool)
        b = np.zeros((10, 10), dtype=bool)
        a[3:6, 3:6] = True
        b[3:7, 3:6] = True
        assert baiocchi.hausdorff_cells(a, b) == 1.0

    def test_empty_conventions(self):
        e = np.zeros((5, 5), dtype=bool)
        f = e.copy()
        f[2, 2] = True
        assert baiocchi.hausdorff_cells(e, e) == 0.0
        assert baiocchi.hausdorff_cells(e, f) == float("inf")
