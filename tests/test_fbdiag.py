"""Free-boundary extraction, classification oracles, growth and energy."""

import math

import numpy as np
import pytest

from mesahs import baiocchi, fbdiag, scenarios
from mesahs.errors import ConfigError
from mesahs.fbdiag import RegionSeries, boundary_faces, min_diameter
from mesahs.stencil import build_stencil

from conftest import mini_annulus_scenario, recorded_sweep


class TestMinDiameter:
    def test_empty_set(self):
        assert min_diameter(np.zeros((0, 2))) == 0.0

    def test_unit_segment(self):
        pts = np.stack([np.linspace(0, 1, 200), np.zeros(200)], axis=1)
        assert min_diameter(pts) <= 1e-12

    def test_unit_disk(self):
        g = np.arange(-1, 1.0001, 0.05)
        xx, yy = np.meshgrid(g, g)
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
        assert min_diameter(pts) == pytest.approx(2.0, abs=0.06)

    def test_right_triangle_altitude(self):
        # 3-4-5 triangle: the smallest width is the altitude onto the
        # hypotenuse, 2 * area / 5 = 2.4; brute-force directions agree
        corners = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
        edges = []
        for a, b in ((0, 1), (1, 2), (2, 0)):
            t = np.linspace(0, 1, 400)[:, None]
            edges.append(corners[a] + t * (corners[b] - corners[a]))
        pts = np.concatenate(edges)
        md = min_diameter(pts, n_directions=64)
        assert md == pytest.approx(2.4, abs=0.02)
        brute = min(
            float(np.ptp(pts @ [np.cos(a), np.sin(a)]))
            for a in np.linspace(0, np.pi, 4096, endpoint=False))
        assert md >= brute - 1e-12
        assert md <= brute * 1.01

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(3)
        big = rng.random((300, 2))
        small = big[:100]
        assert min_diameter(small) <= min_diameter(big) + 1e-12

    def test_3d_sphere_width(self):
        k = np.arange(2000) + 0.5
        phi = np.arccos(1 - 2 * k / 2000)
        th = np.pi * (1 + 5 ** 0.5) * k
        pts = np.stack([np.sin(phi) * np.cos(th), np.sin(phi) * np.sin(th),
                        np.cos(phi)], axis=1)
        assert min_diameter(pts, n_directions=128) == pytest.approx(2.0, abs=0.05)


@pytest.fixture(scope="module")
def radial_series(radial_coarse, radial_coarse_stencil):
    slices = []
    warm = None
    for t in (0.1, 0.2, 0.3):
        warm = baiocchi.solve_slice(radial_coarse, t, warm=warm,
                                    stencil=radial_coarse_stencil)
        slices.append(warm)
    return fbdiag.extract_regions(slices, radial_coarse)


class TestExtractRegions:
    def test_empty_at_time_zero(self, radial_coarse, radial_coarse_stencil):
        sl = baiocchi.solve_slice(radial_coarse, 0.0,
                                  stencil=radial_coarse_stencil)
        series = fbdiag.extract_regions([sl], radial_coarse)
        assert not series.masks[0].any()
        assert series.fb_points[0].shape[0] == 0
        assert series.weighted_measures[0] == 0.0

    def test_radial_fb_is_a_circle(self, radial_coarse, radial_series):
        R = baiocchi.radial_fb_radius(0.3)
        center, _ = radial_coarse.geometry.bounding_center_radius()
        pts = radial_series.fb_points[-1]
        r = np.linalg.norm(pts - center, axis=1)
        assert np.all(np.abs(r - R) <= 2 * radial_coarse.grid.h)

    def test_weighted_measure_tracks_area(self, radial_coarse, radial_series):
        R = baiocchi.radial_fb_radius(0.3)
        assert radial_series.weighted_measures[-1] == pytest.approx(
            np.pi * (R ** 2 - 1), rel=0.1)

    def test_fb_excludes_slot_faces(self, radial_coarse, radial_series):
        center, _ = radial_coarse.geometry.bounding_center_radius()
        r = np.linalg.norm(radial_series.fb_points[0] - center, axis=1)
        assert r.min() > 1.0 + radial_coarse.grid.h

    def test_non_nested_series_rejected(self, radial_coarse):
        a = np.zeros(radial_coarse.grid.shape, bool)
        b = a.copy()
        a[20, 20] = True
        b[22, 22] = True
        with pytest.raises(ConfigError):
            fbdiag.extract_regions([a, b], radial_coarse, times=[0.1, 0.2])

    def test_disconnected_plateau_components(self):
        # before contact the saturated-enthalpy region has two components:
        # the collar grown from the slot and the untouched patch
        from mesahs import mesa
        sc = mini_annulus_scenario(h=1 / 16, m_list=(16, 64, 256))
        lim = mesa.sweep(sc, snapshot_times=[0.05, 0.3])
        pre = lim.q_masks[0]
        post = lim.q_masks[1]
        assert fbdiag.component_count(pre) == 2
        assert fbdiag.component_count(post) == 1


class TestClassifyPoint:
    def _series_from_mask(self, scenario, mask, t=0.1):
        return RegionSeries(times=[t], masks=[mask],
                            fb_points=[boundary_faces(mask, scenario.grid)],
                            weighted_measures=[0.0], measures=[0.0],
                            grid=scenario.grid)

    def test_half_plane_is_regular_for_every_threshold(self, radial_coarse):
        grid = radial_coarse.grid
        x = grid.center_arrays()[0] + np.zeros(grid.shape)
        mask = grid.fluid & (x < 2.0)
        series = self._series_from_mask(radial_coarse, mask)
        h = grid.h
        point = (2.0, 0.5 * h)
        # the largest ball that stays off the farfield band: a 16h ball
        # reaches it, and a scan left with 2 radii is unresolved
        r_list = [4 * h, 6 * h, 8 * h]
        for delta in (h / min(r_list), 0.1, 0.5):
            rep = fbdiag.classify_point(series, point, 0.1, r_list,
                                        delta_reg=delta)
            assert rep.classification == "regular"
            assert max(abs(x - 0.5) for x in rep.density_ratios) <= 0.02

    def test_synthetic_cusp(self, radial_coarse):
        grid = radial_coarse.grid
        coords = grid.center_arrays()
        x = coords[0] + np.zeros(grid.shape)
        y = coords[1] + np.zeros(grid.shape)
        tip = (1.2, 0.8)
        wedge = (x > tip[0]) & (np.abs(y - tip[1])
                                <= np.maximum(x - tip[0], 0.0) ** 1.5)
        mask = grid.fluid & ~wedge
        series = self._series_from_mask(radial_coarse, mask)
        rep = fbdiag.classify_point(series, tip, 0.1, [0.3, 0.55, 1.0])
        assert rep.classification == "cusp-suspect"
        # oracle: rasterize the continuum wedge-in-ball finely and take its
        # width; the grid estimate may lose up to a cell on each side
        h = grid.h
        for r, ratio in zip(rep.radii, rep.md_ratios):
            s = np.arange(0.0, r, 0.004)
            xx, yy = np.meshgrid(s, np.arange(-r, r, 0.004))
            keep = (xx ** 2 + yy ** 2 <= r ** 2) & (np.abs(yy) <= xx ** 1.5) \
                & (xx > 0)
            pts = np.stack([xx[keep], yy[keep]], axis=1)
            oracle = min_diameter(pts, n_directions=256) / r
            assert abs(ratio - oracle) <= (2 * h + 0.01) / r

    def test_radial_fb_point_regular(self, radial_coarse, radial_series):
        pts = radial_series.fb_points[-1]
        pick = pts[np.argmin(np.abs(pts[:, 1]) - 0)]
        h = radial_coarse.grid.h
        rep = fbdiag.classify_point(radial_series, pick, 0.3,
                                    [4 * h, 8 * h, 12 * h])
        assert rep.classification == "regular"

    def test_point_near_slot_unresolved(self, radial_coarse, radial_series):
        rep = fbdiag.classify_point(radial_series, (1.01, 0.0), 0.3,
                                    [0.3, 0.6, 1.2])
        assert rep.classification == "unresolved"
        assert any("exclusion" in n for n in rep.notes)

    @pytest.mark.parametrize("radii", [[3.0, 4.0, 5.0], [0.5, 0.6, 1e300]])
    def test_too_few_radii_left_after_the_trim(self, radial_series, radii):
        # radii whose balls reach the farfield band are dropped; with fewer
        # than 3 left there is no scan to classify on
        pts = radial_series.fb_points[-1]
        pick = pts[np.argmin(np.abs(pts[:, 1]))]
        rep = fbdiag.classify_point(radial_series, pick, 0.3, radii)
        assert rep.classification == "unresolved"
        assert len(rep.radii) < 3
        assert rep.density_ratios == rep.md_ratios == []
        assert any("farfield" in note for note in rep.notes)

    def test_point_off_the_grid_is_config_error(self, radial_series):
        with pytest.raises(ConfigError, match="outside the grid"):
            fbdiag.classify_point(radial_series, (100.0, 100.0), 0.3,
                                  [0.3, 0.4, 0.5])

    def test_scan_requirements(self, radial_coarse, radial_series):
        h = radial_coarse.grid.h
        with pytest.raises(ConfigError):
            fbdiag.classify_point(radial_series, (2.0, 0.0), 0.3, [4 * h, 8 * h])
        with pytest.raises(ConfigError):
            fbdiag.classify_point(radial_series, (2.0, 0.0), 0.3,
                                  [h, 2 * h, 4 * h])


class TestMeasureContinuity:
    def test_zero_pressure_zero_growth(self, radial_coarse):
        mask = np.zeros(radial_coarse.grid.shape, bool)
        series = fbdiag.extract_regions([mask, mask], radial_coarse,
                                        times=[0.1, 0.2])
        growth = fbdiag.measure_continuity(series, 0.0)
        assert growth["max_slope"] == 0.0
        assert not growth["vacuous"]

    def test_vacuous_flag_for_saturated_data(self, radial_coarse):
        mask = np.zeros(radial_coarse.grid.shape, bool)
        series = fbdiag.extract_regions([mask, mask], radial_coarse,
                                        times=[0.1, 0.2])
        assert fbdiag.measure_continuity(series, 1.0)["vacuous"]

    @pytest.mark.parametrize("times", [[0.1, 0.1], [0.2, 0.1]])
    def test_times_must_increase(self, radial_coarse, times):
        mask = np.zeros(radial_coarse.grid.shape, bool)
        series = fbdiag.extract_regions([mask, mask], radial_coarse,
                                        times=times)
        with pytest.raises(ConfigError):
            fbdiag.measure_continuity(series, 0.0)

    def test_radial_growth_slopes_finite(self, radial_series):
        growth = fbdiag.measure_continuity(radial_series, 0.0)
        assert all(np.isfinite(r["slope"]) for r in growth["rows"])
        assert growth["max_slope"] > 0

    def test_saturated_patch_contact_spikes_and_is_flagged(self):
        # crossing the contact time of a saturated patch produces a growth
        # spike; the theoretical bound says nothing there (lambda = 1), which
        # the report flags instead of asserting
        sc = mini_annulus_scenario(h=1 / 16)
        st = build_stencil(sc)
        patch = sc.grid.fluid & (sc.u_init >= 1.0)
        t_star = baiocchi.contact_time(sc, patch, 0.05, 0.3, 2e-3, stencil=st)
        times = [t_star - 0.04, t_star - 0.02, t_star + 0.02, t_star + 0.04]
        slices, warm = [], None
        for t in times:
            warm = baiocchi.solve_slice(sc, t, warm=warm, stencil=st)
            slices.append(warm)
        series = fbdiag.extract_regions(slices, sc)
        growth = fbdiag.measure_continuity(series, sc.lambda_bound)
        slopes = [r["slope"] for r in growth["rows"]]
        assert growth["vacuous"]
        assert slopes[1] > 5 * max(slopes[0], slopes[2])


class TestEnergy:
    def test_constant_field_has_zero_gradient_side(self, radial_coarse):
        theta = np.where(radial_coarse.grid.fluid, 0.7, 0.0)
        # away from the slot the constant field has zero discrete gradient
        rep = fbdiag.energy_ratio([theta], [0.1], radial_coarse.grid,
                                  center=(2.0, 0.0), r=0.2, R=0.4)
        assert rep["ratio"] <= 1e-10

    def test_balls_touching_slot_rejected(self, radial_coarse):
        theta = np.zeros(radial_coarse.grid.shape)
        with pytest.raises(ConfigError):
            fbdiag.energy_ratio([theta], [0.1], radial_coarse.grid,
                                center=(1.2, 0.0), r=0.2, R=0.5)
        # NaN radii are rejected too, not scored as a ratio of 0
        for r, R in ((math.nan, 0.4), (0.2, math.nan)):
            with pytest.raises(ConfigError):
                fbdiag.energy_ratio([theta], [0.1], radial_coarse.grid,
                                    center=(2.0, 0.0), r=r, R=R)

    def test_sweep_ratios_uniform(self):
        sc = scenarios.radial_scenario(h=1 / 12, t_max=0.3, m_list=(16, 64, 256))
        lim, runs = recorded_sweep(sc, snapshot_times=[0.1, 0.2, 0.3])
        theta_by_m = {m: r.theta_fields for m, r in runs.items()}
        rep = fbdiag.energy_estimate_check(theta_by_m, lim.times,
                                           sc.grid, center=(1.6, 0.0),
                                           r=0.25, R=0.5)
        assert rep["spread"] < 2.0
        assert all(v >= 0 for v in rep["ratios"].values())
