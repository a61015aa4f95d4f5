"""Slot geometry, grid classification, scenario validation and files."""

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp
from scipy import ndimage
from scipy.spatial import ConvexHull

from mesahs import barriers, scenarios
from mesahs.errors import ConfigError, EnvelopeError
from mesahs.geometry import (BAND_CLEARANCE, FARFIELD, FLUID,
                             MAX_BOUNDARY_SAMPLES, MAX_GRID_CELLS, SLOT,
                             Grid, Scenario, SlotGeometry, _polygon_distance,
                             build_grid, load_scenario, radial_u_init)

from conftest import mini_annulus_scenario


#: a polygon slot that is valid with any positive, finite rounding
_SQUARE = [(-0.6, -0.6), (0.6, -0.6), (0.6, 0.6), (-0.6, 0.6)]


def _ray_cast_contains(points, vertices):
    """Reference point-in-polygon test: a point is inside when the ray from
    it towards +x crosses an odd number of edges."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(points.shape[0], dtype=bool)
    for (x0, y0), (x1, y1) in zip(vertices, np.roll(vertices, -1, axis=0)):
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (x < xi)
    return inside


class TestSlotGeometry:
    def test_ball_normals_unit_and_outward(self):
        geom = SlotGeometry.ball((0.5, -0.25), 1.5, sample_spacing=0.05)
        r = np.linalg.norm(geom.boundary_samples - [0.5, -0.25], axis=1)
        assert np.allclose(r, 1.5, atol=1e-12)

    def test_ball_3d_samples_on_sphere(self):
        geom = SlotGeometry.ball((0.0, 0.0, 0.0), 1.0, sample_spacing=0.2)
        r = np.linalg.norm(geom.boundary_samples, axis=1)
        assert np.allclose(r, 1.0, atol=1e-12)

    def test_overlapping_balls_rejected(self):
        with pytest.raises(ConfigError):
            SlotGeometry.union_of_balls([(0, 0), (1, 0)], [0.6, 0.6])

    def test_signed_distance_ball(self):
        geom = SlotGeometry.ball((0.0, 0.0), 1.0)
        d = geom.signed_distance(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]]))
        assert d[0] == pytest.approx(-1.0)
        assert d[1] == pytest.approx(1.0)
        assert abs(d[2]) < 1e-12

    def test_rounded_polygon_contains(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        geom = SlotGeometry.rounded_polygon(square, rounding=0.2,
                                            sample_spacing=0.05)
        inside = geom.contains(np.array([[0.5, 0.5], [1.15, 0.5], [-0.3, -0.3]]))
        assert inside.tolist() == [True, True, False]
        # corner region is rounded: the sharp-corner point is outside
        assert not geom.contains(np.array([[1.19, 1.19]]))[0]

    @pytest.mark.parametrize("vertices, rounding", [
        pytest.param(_SQUARE, float("nan"), id="nan-rounding"),
        pytest.param(_SQUARE, float("inf"), id="inf-rounding"),
        pytest.param([(0, 0), (1, float("nan")), (0, 1)], 0.2,
                     id="nan-vertex"),
        pytest.param([(0, 0), (float("inf"), 0), (0, 1)], 0.2,
                     id="inf-vertex"),
        pytest.param([(0, 0), (1e308, 0), (0, 1e308)], 0.2,
                     id="area-overflow"),
    ])
    def test_non_finite_polygon_rejected(self, vertices, rounding):
        with pytest.raises(ConfigError, match="finite"):
            SlotGeometry.rounded_polygon(vertices, rounding)

    @pytest.mark.parametrize("center, radius", [
        pytest.param((0.0, 0.0), float("nan"), id="nan-radius"),
        pytest.param((0.0, 0.0), float("inf"), id="inf-radius"),
        pytest.param((float("nan"), 0.0), 1.0, id="nan-center"),
        pytest.param((0.0, float("inf")), 1.0, id="inf-center"),
        pytest.param((0.0, 0.0, float("-inf")), 1.0, id="inf-center-3d"),
        pytest.param((0.0, 0.0), 1e308, id="huge-radius"),
        pytest.param((0.0, 0.0, 0.0), 1e308, id="huge-radius-3d"),
    ])
    def test_non_finite_ball_rejected(self, center, radius):
        with pytest.raises(ConfigError, match="finite"):
            SlotGeometry.ball(center, radius)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: SlotGeometry.ball((0.0, 0.0), 1e12),
                     id="ball-2d-1e12"),
        pytest.param(lambda: SlotGeometry.ball((0.0, 0.0), 1e100),
                     id="ball-2d-1e100"),
        pytest.param(lambda: SlotGeometry.ball((0.0, 0.0, 0.0), 1e6),
                     id="ball-3d-1e6"),
        pytest.param(lambda: SlotGeometry.rounded_polygon(
            [(0, 0), (1e12, 0), (0, 1e12)], 0.1), id="polygon-1e12"),
        pytest.param(lambda: SlotGeometry.rounded_polygon(
            _SQUARE, 1e12), id="polygon-huge-rounding"),
    ])
    def test_huge_slot_rejected_before_sampling(self, make):
        # petabytes of samples: the count is checked before any allocation
        with pytest.raises(ConfigError, match="boundary samples exceed"):
            make()

    def test_sample_bound_is_exact(self):
        # ceil(2*pi*r) samples at unit spacing: r = 159154.9 needs 10**6 of
        # them, r = 159155 one more
        assert MAX_BOUNDARY_SAMPLES == 10 ** 6
        geom = SlotGeometry.ball((0.0, 0.0), 159154.9, sample_spacing=1.0)
        assert geom.boundary_samples.shape[0] == MAX_BOUNDARY_SAMPLES
        with pytest.raises(ConfigError, match="boundary samples exceed"):
            SlotGeometry.ball((0.0, 0.0), 159155.0, sample_spacing=1.0)

    @pytest.mark.parametrize("bend", (1e-14, 0.0, -1e-14))
    def test_near_straight_vertex_adds_no_arc(self, bend):
        # an inward bend within the convexity tolerance is a straight vertex,
        # not a corner arc of nearly 2*pi (125 more samples)
        geom = SlotGeometry.rounded_polygon(
            [[0, 0], [1, bend], [2, 0], [1, 1]], 0.2, sample_spacing=0.01)
        assert geom.boundary_samples.shape[0] == 613

    @pytest.mark.parametrize("seed", range(4))
    def test_polygon_sign_matches_a_ray_cast(self, seed):
        # inside is left of every edge, which the validated convexity makes
        # the ray cast's answer: random hulls on random points, and the
        # square on a lattice that runs along its edge lines
        rng = np.random.default_rng(seed)
        hull = ConvexHull(rng.normal(size=(12, 2)))
        polygons = [hull.points[hull.vertices], _SQUARE]
        lattice = np.mgrid[-1:1:41j, -1:1:41j].reshape(2, -1).T
        for vertices, points in zip(polygons, [
                rng.uniform(-3.0, 3.0, size=(4000, 2)), lattice]):
            vertices = SlotGeometry.rounded_polygon(vertices, 0.1).centers
            d = _polygon_distance(points, vertices)
            far = np.abs(d) > 1e-9
            assert np.count_nonzero(far) > 0.9 * len(points)
            assert np.array_equal(d[far] < 0.0,
                                  _ray_cast_contains(points[far], vertices))

    def test_nonconvex_polygon_rejected(self):
        vertices = [(0, 0), (2, 0), (1, 0.2), (0, 2)]
        with pytest.raises(ConfigError):
            SlotGeometry.rounded_polygon(vertices, rounding=0.1)


def _band_reference(shape, width):
    """Cells less than ``width`` cells from an edge, by per-axis distance."""
    idx = np.indices(shape)
    dist = [np.minimum(i, size - 1 - i) for i, size in zip(idx, shape)]
    return np.min(dist, axis=0) < width


class _CellSlot:
    """Stub slot made of whole unit cells of the box [-half, half]^n.

    With h = 1 and margin = half, :func:`build_grid` puts cell i of the box
    at the center -half + i + 0.5, so its slot mask is exactly ``cells``.
    """

    def __init__(self, cells):
        self.cells = cells
        self.n = cells.ndim

    def bounding_center_radius(self):
        return np.zeros(self.n), 0.0

    def contains(self, points):
        idx = np.floor(points + self.cells.shape[0] / 2).astype(int)
        return self.cells[tuple(idx.T)]


@hst.composite
def _dims_and_band(draw, max_side):
    n = draw(hst.sampled_from((2, 3)))
    return n, draw(hst.integers(2, 5)), max_side[n]


class TestBandFrames:
    """The band and every mask grown from it are frames of the box."""

    @settings(max_examples=200, deadline=None)
    @given(data=hst.data())
    def test_near_band_is_the_dilated_band(self, data):
        n, band_cells, max_side = data.draw(_dims_and_band({2: 16, 3: 9}))
        shape = tuple(data.draw(hst.lists(hst.integers(1, max_side),
                                          min_size=n, max_size=n)))
        slot = data.draw(hnp.arrays(bool, shape))
        mask = np.where(slot, SLOT, FLUID).astype(np.int8)
        mask[_band_reference(shape, band_cells)] = FARFIELD
        grid = Grid(h=1.0, lo=np.zeros(n), shape=shape, mask=mask,
                    band_cells=band_cells)
        reference = ndimage.binary_dilation(
            grid.farfield, iterations=BAND_CLEARANCE) & grid.fluid
        assert np.array_equal(grid.near_band, reference)
        assert grid.near_band is grid.near_band
        with pytest.raises(ValueError):
            grid.near_band[(0,) * n] = True

    @settings(max_examples=300, deadline=None)
    @given(data=hst.data())
    def test_build_grid_matches_dilation_reference(self, data):
        # verdicts and masks of build_grid against the slot grown by
        # scipy.ndimage, on slots of one or two boxes of whole cells
        n, band_cells, max_half = data.draw(_dims_and_band({2: 10, 3: 6}))
        half = data.draw(hst.integers(1, max_half))
        shape = (2 * half,) * n
        cells = np.zeros(shape, dtype=bool)
        for _ in range(data.draw(hst.integers(1, 2))):
            lo = [data.draw(hst.integers(0, s - 1)) for s in shape]
            hi = [data.draw(hst.integers(a + 1, s)) for a, s in zip(lo, shape)]
            cells[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
        band = _band_reference(shape, band_cells)
        grown = ndimage.binary_dilation(
            cells, iterations=band_cells + BAND_CLEARANCE)
        if np.any(cells & band):
            verdict = "reaches the farfield band"
        elif np.any(grown & band):
            verdict = "too close to the farfield band"
        else:
            verdict = None
        if verdict is not None:
            with pytest.raises(ConfigError, match=verdict):
                build_grid(_CellSlot(cells), 1.0, half, band_cells=band_cells)
            return
        grid = build_grid(_CellSlot(cells), 1.0, half, band_cells=band_cells)
        assert np.array_equal(grid.slot, cells)
        assert np.array_equal(grid.farfield, band)
        assert np.array_equal(grid.near_band, ndimage.binary_dilation(
            band, iterations=BAND_CLEARANCE) & grid.fluid)


class TestBuildGrid:
    def test_unit_ball_cell_counts(self):
        geom = SlotGeometry.ball((0.0, 0.0), 1.0, sample_spacing=0.05)
        grid = build_grid(geom, h=0.1, margin=4.0)
        counts = grid.counts()
        assert counts["slot"] * grid.h ** 2 == pytest.approx(np.pi, abs=0.15)
        # farfield band present on every edge
        assert np.all(grid.mask[0, :] == FARFIELD)
        assert np.all(grid.mask[:, -1] == FARFIELD)
        # partition: every cell has exactly one role
        assert set(np.unique(grid.mask)) == {FLUID, SLOT, FARFIELD}
        assert sum(counts[k] for k in ("fluid", "slot", "farfield")) == counts["total"]

    def test_two_disjoint_slots_two_components(self):
        geom = SlotGeometry.union_of_balls([(-1.5, 0), (1.5, 0)], [0.5, 0.5],
                                           sample_spacing=0.05)
        grid = build_grid(geom, h=0.125, margin=2.0)
        _, ncomp = ndimage.label(grid.slot)
        assert ncomp == 2

    def test_margin_below_envelope_rejected_with_requirement(self, radial_coarse):
        env = barriers.supersolution_envelope(radial_coarse)
        need = float(env.radius(radial_coarse.t_max))
        with pytest.raises(EnvelopeError, match="margin >="):
            build_grid(radial_coarse.geometry, h=1 / 16, margin=1.0,
                       required_radius=need)
        build_grid(radial_coarse.geometry, h=1 / 16, margin=need + 0.5,
                   required_radius=need)

    @pytest.mark.parametrize("n, h, margin", [
        (2, 0.1, 1e6), (2, 1e-300, 1e10), (3, 0.01, 3.0)])
    def test_huge_grid_rejected_before_allocation(self, n, h, margin):
        # 4e14 cells, more than a double can count, and 5.1e8 cells in 3-D:
        # the count is checked before any grid array exists
        geom = SlotGeometry.ball((0.0,) * n, 1.0)
        with pytest.raises(ConfigError, match=r"cells exceed the bound of "
                           f"{MAX_GRID_CELLS:,}"):
            build_grid(geom, h, margin)

    def test_fluid_cells_have_all_neighbors(self):
        geom = SlotGeometry.ball((0.0, 0.0), 1.0, sample_spacing=0.05)
        grid = build_grid(geom, h=0.125, margin=1.5)
        fluid = grid.fluid
        assert not fluid[0, :].any() and not fluid[-1, :].any()
        assert not fluid[:, 0].any() and not fluid[:, -1].any()

    def test_role_masks_are_cached_and_read_only(self, radial_coarse):
        grid = radial_coarse.grid
        for name, role in (("fluid", FLUID), ("slot", SLOT),
                           ("farfield", FARFIELD)):
            mask = getattr(grid, name)
            assert getattr(grid, name) is mask
            assert np.array_equal(mask, grid.mask == role)
            with pytest.raises(ValueError):
                mask[0, 0] = not mask[0, 0]


#: a small instance of every constructor in mesahs.scenarios, and of the
#: test suite's mini-annulus, with the largest initial enthalpy it sets
_CONSTRUCTED = [
    pytest.param(lambda: scenarios.radial_scenario(
        h=1 / 8, t_max=0.2, m_list=(8, 16, 32)), 0.0, id="radial_scenario"),
    pytest.param(lambda: scenarios.radial_scenario(
        h=1 / 8, lam=0.5, patch_radius=2.0, t_max=0.2, m_list=(8, 16, 32)),
        0.5, id="radial_scenario-lam"),
    pytest.param(lambda: scenarios.sandwich_scenario(h=1 / 8), 1.0,
                 id="sandwich_scenario"),
    pytest.param(lambda: scenarios.annulus_scenario(
        h=1 / 8, t_max=0.5, m_list=(8, 16, 32)), 1.0, id="annulus_scenario"),
    pytest.param(lambda: scenarios.annulus_scenario(
        h=1 / 8, eps_patch=0.25, t_max=0.5, m_list=(8, 16, 32)), 0.75,
        id="annulus_scenario-eps"),
    pytest.param(lambda: scenarios.two_slot_scenario(), 0.0,
                 id="two_slot_scenario"),
    pytest.param(lambda: mini_annulus_scenario(h=1 / 8), 1.0,
                 id="mini_annulus_scenario"),
]


class TestScenario:
    def test_u_init_range_enforced(self, radial_coarse):
        bad = radial_coarse.u_init.copy()
        bad[bad.shape[0] // 2, bad.shape[1] // 2] = 1.5
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            Scenario(geometry=radial_coarse.geometry, grid=radial_coarse.grid,
                     u_init=bad, p_samples=radial_coarse.p_samples,
                     t_max=0.3, m_list=(16, 64))

    def test_u_init_near_band_rejected(self, radial_coarse):
        bad = radial_coarse.u_init.copy()
        bad[1, 1] = 0.5
        with pytest.raises(ConfigError, match="compactly supported"):
            Scenario(geometry=radial_coarse.geometry, grid=radial_coarse.grid,
                     u_init=bad, p_samples=radial_coarse.p_samples,
                     t_max=0.3, m_list=(16, 64))

    def test_negative_pressure_rejected(self, radial_coarse):
        p = radial_coarse.p_samples.copy()
        p[0] = -1.0
        with pytest.raises(ConfigError):
            Scenario(geometry=radial_coarse.geometry, grid=radial_coarse.grid,
                     u_init=radial_coarse.u_init, p_samples=p,
                     t_max=0.3, m_list=(16, 64))

    def test_m_list_must_increase(self, radial_coarse):
        with pytest.raises(ConfigError):
            Scenario(geometry=radial_coarse.geometry, grid=radial_coarse.grid,
                     u_init=radial_coarse.u_init,
                     p_samples=radial_coarse.p_samples,
                     t_max=0.3, m_list=(64, 16))

    def test_coarse_boundary_sampling_rejected(self):
        geom = SlotGeometry.ball((0.0, 0.0), 1.0, sample_spacing=0.5)
        grid = build_grid(geom, h=0.125, margin=1.5)
        with pytest.raises(ConfigError, match="sample spacing"):
            Scenario(geometry=geom, grid=grid, u_init=np.zeros(grid.shape),
                     p_samples=np.ones(geom.boundary_samples.shape[0]),
                     t_max=0.3, m_list=(16, 64))

    def test_slot_values_are_stored_as_zero(self, radial_coarse):
        # SLOT values are ignored: the march starts from u_init as stored
        grid = radial_coarse.grid
        raw = np.where(grid.slot, 1.0, radial_coarse.u_init)
        sc = dataclasses.replace(radial_coarse, u_init=raw)
        assert not sc.u_init[grid.slot].any()
        assert np.array_equal(sc.u_init[~grid.slot], raw[~grid.slot])
        assert raw[grid.slot].all()    # the caller's array is not touched

    def test_immutable_arrays(self, radial_coarse):
        with pytest.raises(ValueError):
            radial_coarse.u_init[0, 0] = 0.5

    @pytest.mark.parametrize("make, top", _CONSTRUCTED)
    def test_lambda_is_the_largest_initial_enthalpy(self, make, top):
        sc = make()
        assert sc.lambda_bound == float(sc.u_init.max()) == top

    def test_every_constructor_is_covered(self):
        made = {p.id.split("-")[0] for p in _CONSTRUCTED}
        assert made - {"mini_annulus_scenario"} == {
            name for name in dir(scenarios)
            if name.endswith("_scenario") and not name.startswith("_")}


class TestAnnulusScenario:
    def test_default_profile(self):
        sc = scenarios.annulus_scenario(h=1 / 16, t_max=0.5, m_list=(8, 16, 32))
        center, _ = sc.geometry.bounding_center_radius()
        r = sc.grid.radius_from(center)
        fluid = sc.grid.fluid
        inner = fluid & (r < 2.85)
        assert np.all(sc.u_init[inner] == 0.0)
        plateau = fluid & (r > 3.1) & (r < 4.9)
        assert np.allclose(sc.u_init[plateau], 1.0)

    def test_query_at_r4(self):
        for eps in (0.0, 0.25):
            sc = scenarios.annulus_scenario(h=1 / 16, eps_patch=eps,
                                            t_max=0.5, m_list=(8, 16, 32))
            center, _ = sc.geometry.bounding_center_radius()
            r = sc.grid.radius_from(center)
            cell = np.unravel_index(np.argmin(np.abs(r - 4.0)), r.shape)
            assert sc.u_init[cell] == pytest.approx(1.0 - eps)

    def test_full_eps_gives_zero_data(self):
        sc = scenarios.annulus_scenario(h=1 / 16, eps_patch=1.0, t_max=0.5,
                                        m_list=(8, 16, 32))
        assert np.all(sc.u_init == 0.0)


#: small valid scenario files for the fuzzed loader
_VALID_SPECS = (
    {"dimension": 2,
     "slot": {"centers": [[0.0, 0.0]], "radii": [1.0]},
     "grid": {"h": 0.25, "margin": 2.0, "band_cells": 2},
     "u_init": {"kind": "radial",
                "breakpoints": [[0.0, 0.0], [1.5, 0.0], [1.6, 1.0],
                                [1.8, 1.0], [1.9, 0.0]]},
     "p": {"kind": "constant", "value": 1.0},
     "t_max": 0.25, "m_list": [8, 16, 32], "lambda": 1.0},
    {"dimension": 2,
     "slot": {"kind": "polygon-with-rounded-corners",
              "centers": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
              "rounding": 0.25},
     "grid": {"h": 0.25, "margin": 2.0},
     "u_init": {"kind": "constant", "value": 0.0},
     "p": {"kind": "constant", "value": 2.0},
     "t_max": 0.5, "m_list": [16, 64, 256], "lambda": 0.0},
)

#: replacement values: wrong types and shapes, non-finite and negative numbers
#: (no large finite numbers, which would only ask for a huge grid)
_SWAPPED_VALUES = (None, True, "x", [], {}, [1.0, 2.0], [[1.0], [2.0, 3.0]],
                   float("nan"), float("inf"), float("-inf"), -1.0, 0.0, -2)


def _spec_paths(node, prefix=()):
    """Key paths of every node of a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _spec_paths(child, prefix + (key,))


class TestScenarioFiles:
    def _write(self, path, spec):
        path.write_text(json.dumps(spec))
        return path

    def test_round_trip_radial(self, tmp_path):
        spec = {
            "dimension": 2,
            "slot": {"centers": [[0.0, 0.0]], "radii": [1.0]},
            "grid": {"h": 0.125, "margin": 2.0},
            "u_init": {"kind": "radial",
                       "breakpoints": [[0.0, 0.3], [1.8, 0.3], [2.0, 0.0]]},
            "p": {"kind": "constant", "value": 2.0},
            "t_max": 0.25, "m_list": [16, 64], "lambda": 0.3,
        }
        sc = load_scenario(self._write(tmp_path / "s.json", spec))
        assert sc.max_datum == 2.0
        assert sc.lambda_bound == 0.3
        assert sc.grid.h == 0.125
        center, _ = sc.geometry.bounding_center_radius()
        r = sc.grid.radius_from(center)
        inside = sc.grid.fluid & (r < 1.7)
        assert np.allclose(sc.u_init[inside], 0.3)

    def test_raster_round_trip(self, tmp_path):
        spec = {
            "dimension": 2,
            "slot": {"centers": [[0.0, 0.0]], "radii": [1.0]},
            "grid": {"h": 0.25, "margin": 2.0},
            "u_init": {"kind": "constant", "value": 0.0},
            "p": {"kind": "constant", "value": 1.0},
            "t_max": 0.25, "m_list": [16, 64],
        }
        base = load_scenario(self._write(tmp_path / "base.json", spec))
        u = np.zeros(base.grid.shape)
        u[base.grid.shape[0] // 2 + 6, base.grid.shape[1] // 2] = 0.75
        raw = tmp_path / "u.bin"
        raw.write_bytes(np.ascontiguousarray(u, dtype="<f8").tobytes())
        spec["u_init"] = {"kind": "raster", "path": "u.bin",
                          "shape": list(base.grid.shape)}
        sc = load_scenario(self._write(tmp_path / "raster.json", spec))
        assert sc.u_init.max() == 0.75
        assert (sc.u_init > 0).sum() == 1

    def test_positive_constant_rejected(self, tmp_path):
        spec = {
            "dimension": 2,
            "slot": {"centers": [[0.0, 0.0]], "radii": [1.0]},
            "grid": {"h": 0.25, "margin": 2.0},
            "u_init": {"kind": "constant", "value": 0.5},
            "p": {"kind": "constant", "value": 1.0},
            "t_max": 0.25, "m_list": [16, 64],
        }
        with pytest.raises(ConfigError, match="compactly"):
            load_scenario(self._write(tmp_path / "bad.json", spec))

    def test_pressure_samples_follow_the_boundary(self, tmp_path):
        spec = copy.deepcopy(_VALID_SPECS[0])
        count = SlotGeometry.ball((0.0, 0.0), 1.0).boundary_samples.shape[0]
        values = np.linspace(1.0, 2.0, count)
        spec["p"] = {"kind": "samples", "values": values.tolist()}
        sc = load_scenario(self._write(tmp_path / "p.json", spec))
        assert np.array_equal(sc.p_samples, values)
        assert sc.max_datum == 2.0
        spec["p"]["values"] = values[1:].tolist()
        with pytest.raises(ConfigError, match="boundary sample count"):
            load_scenario(self._write(tmp_path / "short.json", spec))

    @pytest.mark.parametrize("slot", [
        pytest.param({"centers": [[0.0, 0.0]], "radii": [0.25]}, id="ball"),
        pytest.param({"kind": "polygon-with-rounded-corners",
                      "centers": [[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]],
                      "rounding": 0.05}, id="rounded-polygon"),
    ])
    def test_fine_grid_resamples_the_slot(self, tmp_path, slot):
        # the default boundary spacing 0.02 exceeds h: the loader halves h
        h = 0.0125
        spec = {"dimension": 2, "slot": slot,
                "grid": {"h": h, "margin": 0.3},
                "u_init": {"kind": "constant", "value": 0.0},
                "p": {"kind": "constant", "value": 1.0},
                "t_max": 0.1, "m_list": [8, 16, 32]}
        sc = load_scenario(self._write(tmp_path / "fine.json", spec))
        coarse = (SlotGeometry.ball((0.0, 0.0), 0.25) if "radii" in slot else
                  SlotGeometry.rounded_polygon(slot["centers"], 0.05))
        geom = sc.geometry
        assert geom.sample_spacing == h / 2
        assert (geom.kind, geom.n) == (coarse.kind, coarse.n)
        assert np.array_equal(geom.centers, coarse.centers)
        assert np.array_equal(geom.radii, coarse.radii)
        assert geom.boundary_samples.shape[0] > coarse.boundary_samples.shape[0]
        gaps = np.linalg.norm(np.diff(geom.boundary_samples, axis=0), axis=1)
        assert gaps.max() <= h
        assert np.allclose(geom.signed_distance(geom.boundary_samples), 0.0,
                           atol=1e-12)

    def test_missing_key_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(self._write(tmp_path / "broken.json", {"dimension": 2}))

    @settings(max_examples=300, deadline=None)
    @given(data=hst.data())
    def test_fuzzed_file_loads_or_is_config_error(self, tmp_path_factory,
                                                  data):
        # any mix of dropped keys and swapped values either loads or fails
        # with a ConfigError/EnvelopeError, never with another exception
        spec = copy.deepcopy(data.draw(hst.sampled_from(_VALID_SPECS)))
        for _ in range(data.draw(hst.integers(1, 3))):
            path = data.draw(hst.sampled_from(list(_spec_paths(spec))))
            value = copy.deepcopy(data.draw(hst.sampled_from(_SWAPPED_VALUES)))
            if not path:
                spec = value
                continue
            parent = spec
            for key in path[:-1]:
                parent = parent[key]
            if data.draw(hst.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        target = tmp_path_factory.getbasetemp() / "fuzzed.json"
        target.write_text(json.dumps(spec))
        try:
            sc = load_scenario(target)
        except (ConfigError, EnvelopeError):
            return
        assert isinstance(sc, Scenario)

    def test_content_hash_stable(self, radial_coarse):
        assert radial_coarse.content_hash() == radial_coarse.content_hash()


class TestRadialProfile:
    def test_breakpoints_must_increase(self, radial_coarse):
        with pytest.raises(ConfigError):
            radial_u_init(radial_coarse.grid, radial_coarse.geometry,
                          [(1.0, 0.0), (0.5, 1.0)])
