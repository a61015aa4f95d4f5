"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The expensive fixtures
(the h=1/64 sweep, the annulus contact bracketing) are shared session-wide;
every tolerance is pinned here, not computed from the results.
"""

import numpy as np
import pytest

from mesahs import baiocchi, barriers, fbdiag, scenarios, stefan
from mesahs.mesa import MONOTONE_SWEEP_TOL

H64 = 1 / 64


def verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


class TestCriterion1RadialOracle:
    def test_fb_radius_matches_bisection_oracle(self, radial64,
                                                radial64_slices):
        sl = radial64_slices["slices"][0.25]
        seconds = radial64_slices["cold_seconds"]
        R = baiocchi.radial_fb_radius(0.25)
        assert R == pytest.approx(1.65, abs=0.005)
        center, _ = radial64.geometry.bounding_center_radius()
        _, med, _ = baiocchi.fb_radius_stats(sl.active_mask, radial64.grid,
                                             center)
        gap = abs(med - R)
        balance = baiocchi.mass_balance_check(
            radial64, sl, stencil=radial64_slices["stencil"])
        ok = gap <= 2 * H64 and seconds < 30.0 and balance["relative"] <= 0.05
        verdict(1, "radial oracle match", ok,
                f"|R_grid - R_oracle| = {gap:.4f} <= 2h = {2 * H64:.4f}, "
                f"mass balance {balance['relative']:.2%} <= 5%, "
                f"solve time {seconds:.1f}s < 30s")


class TestCriterion2RouteEquivalence:
    def test_sweep_vs_obstacle(self, radial64, radial64_sweep,
                               radial64_slices):
        limit = radial64_sweep["limit"]
        # 0.3 was solved for the convexity check; the stated times are below
        slices = [radial64_slices["slices"][t] for t in (0.1, 0.25, 0.5)]
        rows = baiocchi.cross_validate(limit, slices, radial64)
        assert len(rows) == 3
        worst_rel = max(r["supgap_rel"] for r in rows)
        worst_h = max(r["hausdorff_cells"] for r in rows)
        seconds = radial64_sweep["seconds"]
        ok = worst_rel <= 0.05 and worst_h <= 2.0 and seconds < 600.0
        verdict(2, "route equivalence", ok,
                f"max sup gap {worst_rel:.2%} <= 5%, max Hausdorff "
                f"{worst_h:.1f} <= 2 cells, sweep {seconds:.0f}s < 600s")


class TestCriterion3MonotoneStructure:
    def test_exact_monotone_structure(self, radial64, radial64_sweep,
                                      radial64_slices):
        limit = radial64_sweep["limit"]
        thetas = radial64_sweep["thetas"]
        fl = radial64.grid.fluid
        checks = []

        # time-monotonicity of the enthalpy at the last level
        for a, b in zip(limit.u_fields, limit.u_fields[1:]):
            checks.append(float((a - b)[fl].max()) <= 1e-8)
        # m-monotonicity of the temperature, every adjacent pair, every time
        for m_lo, m_hi in zip(limit.m_list, limit.m_list[1:]):
            for a, b in zip(thetas[m_lo], thetas[m_hi]):
                checks.append(float((a - b).max()) <= MONOTONE_SWEEP_TOL)
        # nestedness of active sets in t and in m (beyond solver noise)
        for t_lo, t_hi in zip(limit.times, limit.times[1:]):
            a = limit.active_mask_at(t_lo)
            b = limit.active_mask_at(t_hi)
            checks.append(not np.any(a & ~b))
        # temperature bounds
        big_m = radial64.max_datum
        for m in limit.m_list:
            for th in thetas[m]:
                checks.append(th.min() >= 0.0 and th.max() <= big_m + 1e-8)
        # obstacle side: W >= 0, nondecreasing and convex in t, diff bound
        s = radial64_slices["slices"]
        w1, w2, w3 = s[0.1].w[fl], s[0.3].w[fl], s[0.5].w[fl]
        checks.append(float(min(w1.min(), w2.min(), w3.min())) >= 0.0)
        checks.append(np.all(w1 <= w2 + 1e-8) and np.all(w2 <= w3 + 1e-8))
        checks.append(bool(np.all(w2 <= 0.5 * (w1 + w3) + 1e-8)))
        diff = w3 - w1
        checks.append(diff.max() <= (0.5 - 0.1) * big_m + 1e-8)
        ok = all(checks)
        verdict(3, "exact monotone structure", ok,
                f"{sum(checks)}/{len(checks)} cellwise structure checks hold")


class TestCriterion4Sandwich:
    def test_front_between_barrier_speeds(self, sandwich_run):
        sc = sandwich_run["scenario"]
        result = sandwich_run["result"]
        bounds = barriers.derivative_bounds(2)
        sub = barriers.subsolution_speed(2, sc.max_datum, 0.01, bounds=bounds)
        ell, ell_sub, h = sc.max_datum, sub.ell_sub, sc.grid.h
        center, _ = sc.geometry.bounding_center_radius()
        ok = True
        detail = []
        for t, theta in zip(result.times, result.theta_fields):
            mask = fbdiag.active_mask_from(theta, sc.grid)
            pts = fbdiag.boundary_faces(mask, sc.grid)
            r = np.linalg.norm(pts - center, axis=1)
            lo = 2 + ell_sub * t - 2 * h
            hi = 2 + ell * t + 2 * h
            ok = ok and lo <= r.min() and r.max() <= hi
            detail.append(f"t={t:g}: [{r.min():.3f}, {r.max():.3f}] in "
                          f"[{lo:.3f}, {hi:.3f}]")
        verdict(4, "barrier sandwich", ok, "; ".join(detail))


class TestCriterion5AnnulusJump:
    def test_area_jump_and_pressure_jump(self, annulus_jump):
        sc = annulus_jump["scenario"]
        fl = sc.grid.fluid
        cell = sc.grid.cell_volume
        area_pre = annulus_jump["pre"].active_mask.sum() * cell
        area_post = annulus_jump["post"].active_mask.sum() * cell
        jump = area_post - area_pre
        expected = np.pi * (5.0 ** 2 - 3.0 ** 2)
        area_ok = abs(jump - expected) <= 0.10 * expected

        v_pre = annulus_jump["v_pre"]
        v_post = annulus_jump["v_post"]
        dv = (v_post - v_pre)[fl]
        pre_max = v_pre[fl].max()
        # pressure jumps by >= 50% of its own pre-contact value at cells
        # where the jump is also a significant fraction of the global scale
        significant = dv >= 0.05 * pre_max
        relative = dv >= 0.5 * np.maximum(v_pre[fl], 1e-12)
        cells = int((significant & relative).sum())
        global_ratio = dv.max() / pre_max
        ok = area_ok and cells > 0
        verdict(5, "counter-example jump", ok,
                f"|A| jump {jump:.1f} vs {expected:.1f} "
                f"({jump / expected:.2%} of target, within 10%), "
                f"{cells} cells jump >= 50% of their pre-contact value "
                f"(global max jump = {global_ratio:.2f} of pre-contact max)")


class TestCriterion6EssentialRange:
    def test_fraction_halves_under_refinement(self, radial64, radial64_sweep):
        tol = 0.05
        fracs = {}
        coarse = scenarios.radial_scenario(h=1 / 32, t_max=0.25,
                                           m_list=(256, 512, 1024))
        res32 = stefan.run(coarse, 1024, snapshot_times=[0.25])
        rep32 = stefan.essential_range_check(
            res32.u_fields[-1], coarse.u_init, 1024, tol=tol,
            max_datum=coarse.max_datum, grid=coarse.grid)
        fracs[32] = rep32["fraction"]

        limit = radial64_sweep["limit"]
        idx = limit.times.index(0.25)
        rep64 = stefan.essential_range_check(
            limit.u_fields[idx], radial64.u_init, 1024, tol=tol,
            max_datum=radial64.max_datum, grid=radial64.grid)
        fracs[64] = rep64["fraction"]
        ratio = fracs[64] / fracs[32]
        ok = 0.25 <= ratio <= 0.75
        verdict(6, "essential-range collapse", ok,
                f"fraction(h=1/64)/fraction(h=1/32) = {ratio:.3f} in "
                f"[0.25, 0.75] (fractions {fracs[32]:.4f} -> {fracs[64]:.4f})")


class TestCriterion7MeasureContinuity:
    def test_slope_ratio_follows_lambda_law(self, lambda_slices):
        slopes = {}
        for lam, bundle in lambda_slices.items():
            series = fbdiag.extract_regions(bundle["slices"],
                                            bundle["scenario"])
            growth = fbdiag.measure_continuity(series, lam)
            slopes[lam] = [r["slope"] for r in growth["rows"]]
        ratios = [b / a for a, b in zip(slopes[0.0], slopes[0.5])]
        ok = all(abs(r - 2.0) <= 0.6 for r in ratios)
        verdict(7, "measure-continuity scaling", ok,
                "slope ratios lam=0.5 vs lam=0: "
                + ", ".join(f"{r:.2f}" for r in ratios) + " (target 2 +- 0.6)")


class TestCriterion8BarrierSuite:
    def test_all_barrier_examples_and_signs(self):
        checks = []
        checks.append(barriers.annulus_harmonic(1.5, 3, 1.0, 0.0)
                      == pytest.approx(1 / 3))
        checks.append(barriers.annulus_harmonic_outer_slope(3, 1.0, 0.0)
                      == pytest.approx(-0.5))
        checks.append(barriers.annulus_harmonic_outer_slope(2, 1.0, 0.0)
                      == pytest.approx(1 / (2 * np.log(0.5))))
        for n in (2, 3):
            for beta in np.linspace(0, 1, 5):
                du = barriers.annulus_harmonic_outer_slope(n, 1e6, beta)
                dv = barriers.annulus_poisson_outer_slope(n, 1e6, beta)
                checks.append(abs(du + 1 / (1 + beta)) < 1e-3)
                checks.append(abs(dv - n * (1 + beta)) < 1e-3)
        for n in (2, 3):
            b = barriers.derivative_bounds(n)
            checks.append(b.gamma2 > 0 and b.gamma3 > 0)
            for alpha in np.logspace(0, 6, 120):
                for beta in np.linspace(0, 1, 21):
                    checks.append(
                        barriers.annulus_harmonic_outer_slope(n, alpha, beta) < 0)
                    checks.append(
                        barriers.annulus_poisson_outer_slope(n, alpha, beta) > 0)
        ok = all(checks)
        verdict(8, "barrier unit suite", ok,
                f"{sum(checks)}/{len(checks)} evaluator examples, limits, "
                "and scan sign claims hold exactly")


class TestCriterion9CaccioppoliUniformity:
    def test_energy_ratio_uniform_in_m(self, radial64, radial64_sweep):
        limit = radial64_sweep["limit"]
        theta_by_m = {m: radial64_sweep["thetas"][m] for m in (64, 256, 1024)}
        rep = fbdiag.energy_estimate_check(theta_by_m, limit.times,
                                           radial64.grid, center=(1.7, 0.0),
                                           r=0.3, R=0.6)
        ok = rep["spread"] < 2.0
        verdict(9, "energy-estimate uniformity", ok,
                "ratios " + ", ".join(f"m={m:g}: {v:.4f}"
                                      for m, v in sorted(rep["ratios"].items()))
                + f"; spread {rep['spread']:.3f} < 2")
