"""Slot geometry, exterior-domain grids, and run scenarios.

All solvers in this package operate on a uniform Cartesian truncation of the
exterior of an injection slot D.  Cells are classified by role:

* ``SLOT`` -- cell center lies inside D; carries Dirichlet pressure data,
* ``FLUID`` -- the evolving exterior cells,
* ``FARFIELD`` -- a frozen band (>= 2 cells) at the edge of the box where the
  fields keep their initial values.  Runs abort if activity ever reaches
  within two cells of this band, so the truncation never pollutes a valid run.

A :class:`Scenario` bundles a slot, a grid, initial enthalpy samples in
[0, 1], nonnegative pressure samples on the slot boundary (positive data is
what drives the evolution; zero data is legal and static), a time horizon
and a diffusivity sweep list.  Scenarios are immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, EnvelopeError

FLUID = 0
SLOT = 1
FARFIELD = 2

#: FLUID cells that must separate activity from the band; the slot keeps
#: ``band_cells + BAND_CLEARANCE`` FLUID cells from it
BAND_CLEARANCE = 2

#: most boundary samples a slot may take, checked before any is allocated;
#: far above the few thousand of any scenario in the package
MAX_BOUNDARY_SAMPLES = 10 ** 6

#: most cells a grid may hold, checked before any grid array is allocated;
#: far above the 1,294^2 (about 1.7 M) cells of the finest grid in use
MAX_GRID_CELLS = 2 ** 24


def _as_float_array(x, shape_hint=None):
    a = np.asarray(x, dtype=float)
    if shape_hint is not None and a.shape != shape_hint:
        raise ConfigError(f"expected shape {shape_hint}, got {a.shape}")
    return a


# ---------------------------------------------------------------------------
# slot geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlotGeometry:
    """The injection slot D with its sampled boundary.

    ``kind`` is one of ``ball``, ``union-of-balls``,
    ``polygon-with-rounded-corners`` (2D, convex).  ``centers`` holds ball
    centers or polygon vertices, ``radii`` the ball radii or the single
    corner-rounding radius.  ``boundary_samples`` are ordered points on the
    slot boundary; their spacing must not exceed the grid spacing (checked
    at scenario construction).
    """

    kind: str
    centers: np.ndarray
    radii: np.ndarray
    boundary_samples: np.ndarray
    sample_spacing: float

    # -- constructors -------------------------------------------------------

    @classmethod
    def ball(cls, center, radius, sample_spacing=0.02):
        return cls.union_of_balls([center], [radius], sample_spacing)

    @classmethod
    def union_of_balls(cls, centers, radii, sample_spacing=0.02):
        centers = np.atleast_2d(_as_float_array(centers))
        radii = np.atleast_1d(_as_float_array(radii))
        if centers.shape[0] != radii.shape[0]:
            raise ConfigError("need one radius per ball center")
        if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(radii))):
            raise ConfigError("slot ball centers and radii must be finite")
        if np.any(radii <= 0):
            raise ConfigError("slot radii must be positive")
        n = centers.shape[1]
        if n not in (2, 3):
            raise ConfigError("only 2D and 3D slots are supported")
        for i in range(len(radii)):
            for j in range(i + 1, len(radii)):
                gap = np.linalg.norm(centers[i] - centers[j])
                if gap <= radii[i] + radii[j]:
                    raise ConfigError("slot balls must be pairwise disjoint")
        pts = _sample_balls(centers, radii, sample_spacing)
        kind = "ball" if len(radii) == 1 else "union-of-balls"
        return cls(kind, centers, radii, pts, sample_spacing)

    @classmethod
    def rounded_polygon(cls, vertices, rounding, sample_spacing=0.02):
        """Convex 2D polygon dilated by a corner-rounding radius."""
        vertices = np.atleast_2d(_as_float_array(vertices))
        if vertices.shape[1] != 2:
            raise ConfigError("rounded polygons are 2D only")
        if vertices.shape[0] < 3:
            raise ConfigError("polygon needs at least 3 vertices")
        if not np.all(np.isfinite(vertices)):
            raise ConfigError("polygon vertices must be finite")
        rounding = float(rounding)
        if not 0 < rounding < np.inf:
            raise ConfigError(
                "corner rounding radius must be positive and finite")
        with np.errstate(over="ignore", invalid="ignore"):
            area = _signed_area(vertices)
        if not np.isfinite(area):
            raise ConfigError("polygon area must be finite; the vertices are "
                              "too large")
        if area < 0:
            vertices = vertices[::-1]
        if not _is_convex(vertices):
            raise ConfigError("only convex polygons are supported")
        pts = _sample_rounded_polygon(vertices, rounding, sample_spacing)
        return cls("polygon-with-rounded-corners", vertices,
                   np.array([rounding]), pts, sample_spacing)

    # -- queries ------------------------------------------------------------

    @property
    def n(self):
        return self.centers.shape[1]

    def signed_distance(self, points):
        """Negative inside D, positive outside; vectorized over points."""
        points = np.atleast_2d(points)
        if self.kind in ("ball", "union-of-balls"):
            d = np.full(points.shape[0], np.inf)
            for c, r in zip(self.centers, self.radii):
                d = np.minimum(d, np.linalg.norm(points - c, axis=1) - r)
            return d
        return _polygon_distance(points, self.centers) - float(self.radii[0])

    def contains(self, points):
        return self.signed_distance(points) < 0.0

    def bounding_center_radius(self):
        """Center and radius of a ball that contains the whole slot."""
        lo = self.boundary_samples.min(axis=0)
        hi = self.boundary_samples.max(axis=0)
        c = 0.5 * (lo + hi)
        rho = float(np.linalg.norm(self.boundary_samples - c, axis=1).max())
        return c, rho

    def to_dict(self):
        return {"kind": self.kind, "centers": self.centers.tolist(),
                "radii": self.radii.tolist()}


def _sample_balls(centers, radii, spacing):
    pts = []
    n = centers.shape[1]
    with np.errstate(over="ignore"):
        counts = np.ceil(2 * np.pi * radii / spacing if n == 2
                         else 4 * np.pi * radii * radii / spacing ** 2)
    if not np.all(np.isfinite(counts)):
        raise ConfigError("slot radius too large: sample count not finite")
    counts = np.maximum(counts, 8 if n == 2 else 32)
    _check_sample_count(counts.sum())
    for c, r, count in zip(centers, radii, counts.astype(int)):
        if n == 2:
            ang = 2 * np.pi * np.arange(count) / count
            nu = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        else:
            nu = _fibonacci_sphere(count)
        pts.append(c + r * nu)
    return np.concatenate(pts)


def _check_sample_count(count):
    if not count <= MAX_BOUNDARY_SAMPLES:
        raise ConfigError(
            f"slot too large: {count:.3g} boundary samples exceed the bound "
            f"of {MAX_BOUNDARY_SAMPLES:,}")


def _fibonacci_sphere(count):
    k = np.arange(count) + 0.5
    phi = np.arccos(1 - 2 * k / count)
    theta = np.pi * (1 + np.sqrt(5.0)) * k
    return np.stack([np.sin(phi) * np.cos(theta),
                     np.sin(phi) * np.sin(theta),
                     np.cos(phi)], axis=1)


def _signed_area(v):
    x, y = v[:, 0], v[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def _is_convex(v):
    e = np.roll(v, -1, axis=0) - v
    cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    return bool(np.all(cross > -1e-12 * np.abs(cross).max()))

def _polygon_distance(points, vertices):
    """Signed distance from each point to the boundary of the convex,
    counter-clockwise polygon ``vertices``: negative inside, where a point
    lies left of every edge."""
    d = np.full(points.shape[0], np.inf)
    inside = np.ones(points.shape[0], dtype=bool)
    m = len(vertices)
    for i in range(m):
        a = vertices[i]
        b = vertices[(i + 1) % m]
        ab = b - a
        ap = points - a
        denom = float(ab @ ab)
        t = np.clip((ap @ ab) / denom, 0.0, 1.0)
        proj = a + t[:, None] * ab
        d = np.minimum(d, np.linalg.norm(points - proj, axis=1))
        inside &= ab[0] * ap[:, 1] - ab[1] * ap[:, 0] > 0.0
    return np.where(inside, -d, d)


def _sample_rounded_polygon(vertices, rounding, spacing):
    pts = []
    m = len(vertices)
    edges = np.roll(vertices, -1, axis=0) - vertices
    lengths = np.linalg.norm(edges, axis=1)
    tangents = edges / lengths[:, None]
    # CCW polygon: outward normal is the tangent rotated by -90 degrees
    out = np.stack([tangents[:, 1], -tangents[:, 0]], axis=1)
    # corner arc i, at the end vertex of edge i, turns from normal i to i+1;
    # a turn above pi bends inward within _is_convex's tolerance: no arc
    a0 = np.arctan2(out[:, 1], out[:, 0])
    sweeps = (np.roll(a0, -1) - a0) % (2 * np.pi)
    sweeps[sweeps > np.pi] = 0.0
    with np.errstate(over="ignore"):
        edge_counts = np.maximum(2, np.ceil(lengths / spacing))
        arc_counts = np.maximum(1, np.ceil(sweeps * rounding / spacing))
    _check_sample_count(edge_counts.sum() + arc_counts.sum())
    edge_counts, arc_counts = edge_counts.astype(int), arc_counts.astype(int)
    for i, count in enumerate(edge_counts):
        t = (np.arange(count) + 0.5) / count
        seg = vertices[i] + t[:, None] * edges[i]
        pts.append(seg + rounding * out[i])
        count = arc_counts[i]
        ang = a0[i] + sweeps[i] * (np.arange(count) + 0.5) / count
        nu = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        pts.append(vertices[(i + 1) % m] + rounding * nu)
    return np.concatenate(pts)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered Cartesian grid with per-cell roles."""

    h: float
    lo: np.ndarray
    shape: tuple
    mask: np.ndarray
    band_cells: int = 2

    def __post_init__(self):
        self.mask.setflags(write=False)

    @property
    def n(self):
        return len(self.shape)

    @property
    def cell_volume(self):
        return self.h ** self.n

    # each role mask is computed once per grid and shared by every reader,
    # so it is read-only: an in-place write raises instead of corrupting it
    @cached_property
    def fluid(self):
        return _read_only(self.mask == FLUID)

    @cached_property
    def slot(self):
        return _read_only(self.mask == SLOT)

    @cached_property
    def farfield(self):
        return _read_only(self.mask == FARFIELD)

    @cached_property
    def near_band(self):
        """FLUID cells within BAND_CLEARANCE cells of the farfield band."""
        return _read_only(_frame(self.shape, self.band_cells + BAND_CLEARANCE)
                          & self.fluid)

    def axes(self):
        return [self.lo[i] + (np.arange(self.shape[i]) + 0.5) * self.h
                for i in range(self.n)]

    def center_arrays(self):
        """Broadcastable coordinate arrays for every cell center."""
        axes = self.axes()
        return np.meshgrid(*axes, indexing="ij", sparse=True)

    def radius_from(self, center):
        coords = self.center_arrays()
        r2 = np.zeros(self.shape)
        for i, x in enumerate(coords):
            r2 = r2 + (x - center[i]) ** 2
        return np.sqrt(r2)

    def cell_centers(self, indices):
        """Centers for an (k, n) integer index array."""
        indices = np.atleast_2d(indices)
        return self.lo + (indices + 0.5) * self.h

    def counts(self):
        return {"fluid": int(np.count_nonzero(self.fluid)),
                "slot": int(np.count_nonzero(self.slot)),
                "farfield": int(np.count_nonzero(self.farfield)),
                "total": int(np.prod(self.shape))}


def _read_only(array):
    array.setflags(write=False)
    return array


def _frame(shape, width):
    """Cells within ``width`` cells of the array edge.  The band is the frame
    of width ``band_cells``, and k face-wise dilations of the frame of width
    b give the frame of width b + k, so every mask grown from it is a frame."""
    frame = np.ones(shape, dtype=bool)
    frame[tuple(slice(width, size - width) for size in shape)] = False
    return frame


def build_grid(geometry, h, margin, band_cells=2, required_radius=None):
    """Classify a symmetric box around the slot into SLOT/FLUID/FARFIELD.

    ``margin`` is the distance from the slot's bounding ball to the box edge.
    A box of more than ``MAX_GRID_CELLS`` cells is a :class:`ConfigError`,
    raised before any array is allocated.
    The slot must keep ``band_cells + BAND_CLEARANCE`` FLUID cells from the
    band, else :class:`ConfigError`; activity later keeps only
    ``BAND_CLEARANCE`` (``Grid.near_band``).  If ``required_radius`` is
    given (a propagation-envelope radius measured from the slot's bounding
    center), the box must contain that ball with ``band_cells +
    BAND_CLEARANCE`` cells to spare, otherwise an :class:`EnvelopeError`
    reports the margin that would suffice.
    """
    h = float(h)
    if not 0 < h < np.inf:
        raise ConfigError("grid spacing h must be positive and finite")
    if not 0 <= margin < np.inf:
        raise ConfigError("grid margin must be nonnegative and finite")
    if band_cells < 2:
        raise ConfigError("farfield band must be at least 2 cells wide")
    center, rho = geometry.bounding_center_radius()
    half_cells = np.ceil((rho + margin) / h)
    cells = (2.0 * half_cells) ** geometry.n
    if not cells <= MAX_GRID_CELLS:
        raise ConfigError(f"grid too large: {cells:.3g} cells exceed the "
                          f"bound of {MAX_GRID_CELLS:,}")
    half_cells = int(half_cells)
    half = half_cells * h
    if required_radius is not None:
        usable = half - (band_cells + BAND_CLEARANCE) * h
        if required_radius > usable:
            need = required_radius + (band_cells + BAND_CLEARANCE) * h - rho
            need = np.ceil(need / h) * h
            raise EnvelopeError(
                f"margin {margin:g} leaves usable radius {usable:g} < "
                f"required envelope radius {required_radius:g}; "
                f"use margin >= {need:g}")
    n = geometry.n
    shape = (2 * half_cells,) * n
    lo = np.asarray(center, dtype=float) - half

    mask = np.zeros(shape, dtype=np.int8)
    band = _frame(shape, band_cells)
    axes = [lo[i] + (np.arange(shape[i]) + 0.5) * h for i in range(n)]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    inside = geometry.contains(centers.reshape(-1, n)).reshape(shape)
    mask[band] = FARFIELD
    mask[inside & ~band] = SLOT
    if np.any(inside & band):
        raise ConfigError("slot reaches the farfield band; increase margin")
    if not np.any(mask == SLOT):
        raise ConfigError("grid too coarse: no cell center falls inside the slot")
    # band_cells + BAND_CLEARANCE FLUID cells between the band and the slot
    if np.any(_frame(shape, 2 * band_cells + BAND_CLEARANCE) & (mask == SLOT)):
        raise ConfigError("slot too close to the farfield band; increase margin")
    return Grid(h=h, lo=lo, shape=shape, mask=mask, band_cells=band_cells)


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------

def diffusivities(m_list):
    """The levels ``m_list`` as a tuple of floats; ConfigError unless there is
    one at least, each positive and finite, in strictly increasing order."""
    m = tuple(float(x) for x in m_list)
    if not m or not all(0.0 < x < np.inf for x in m) or any(
            b <= a for a, b in zip(m, m[1:])):
        raise ConfigError("each diffusivity m must be positive and finite, "
                          f"and the levels strictly increasing; got {list(m)}")
    return m


@dataclass(frozen=True)
class Scenario:
    """Immutable bundle of slot, grid, initial data, and sweep parameters.

    ``u_init`` holds per-cell initial enthalpy in [0, 1] over the full grid
    shape (values on SLOT cells are ignored: they are stored as 0); it must
    vanish on and near the farfield band.  ``p_samples`` holds nonnegative
    pressure data aligned with ``geometry.boundary_samples``.  ``m_list``
    holds the sweep's levels, checked by :func:`diffusivities`.  What the
    data imply is derived from them, never stated: ``lambda_bound``,
    ``zero_load`` and ``cell_time``.
    """

    geometry: SlotGeometry
    grid: Grid
    u_init: np.ndarray
    p_samples: np.ndarray
    t_max: float
    m_list: tuple

    def __post_init__(self):
        g = self.grid
        u = _as_float_array(self.u_init, g.shape)
        p = np.atleast_1d(_as_float_array(self.p_samples))
        if p.shape[0] != self.geometry.boundary_samples.shape[0]:
            raise ConfigError("need one pressure sample per boundary sample")
        if np.any(~np.isfinite(p)) or np.any(p < 0):
            raise ConfigError("pressure samples must be finite and >= 0")
        if np.any(~np.isfinite(u)) or np.any(u < 0) or np.any(u > 1):
            raise ConfigError("u_init must take values in [0, 1]")
        outer = g.farfield | g.near_band
        if np.any(u[outer] > 0):
            raise ConfigError(
                "u_init must be compactly supported away from the farfield band")
        if not 0 < self.t_max < np.inf:
            raise ConfigError("t_max must be positive and finite")
        m = diffusivities(self.m_list)
        if self.geometry.sample_spacing > g.h + 1e-12:
            raise ConfigError(
                "boundary sample spacing exceeds grid spacing; sample the "
                "slot at a spacing of at most h")
        u = np.where(g.slot, 0.0, u)
        u.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "u_init", u)
        object.__setattr__(self, "p_samples", p)
        object.__setattr__(self, "m_list", m)

    @property
    def max_datum(self):
        """Sup of the pressure data over the slot boundary."""
        return float(self.p_samples.max())

    @property
    def lambda_bound(self):
        """The uniform bound u_init <= lambda: the largest initial enthalpy.
        Free-boundary regularity is proven for lambda < 1."""
        return float(self.u_init.max())

    @cached_property
    def zero_load(self):
        """FLUID cells saturated from the start, u_init >= 1 - 1e-9: their
        obstacle load 1 - u_init vanishes, so they flood at once (read-only)."""
        return _read_only(self.grid.fluid & (self.u_init >= 1.0 - 1e-9))

    @property
    def cell_time(self):
        """Time the front takes to cross one cell, h / max(max_datum, 1):
        the front speed is bounded by the sup of the pressure data."""
        return self.grid.h / max(self.max_datum, 1.0)

    def support_radius(self):
        """Radius (about the slot center) of the support of u_init."""
        center, _ = self.geometry.bounding_center_radius()
        supp = (self.u_init > 0) & self.grid.fluid
        if not np.any(supp):
            return 0.0
        return float(self.grid.radius_from(center)[supp].max()) + 0.5 * self.grid.h

    def content_hash(self):
        blob = json.dumps({
            "slot": self.geometry.to_dict(),
            "h": self.grid.h, "lo": self.grid.lo.tolist(),
            "shape": list(self.grid.shape),
            "u": hashlib.sha256(np.ascontiguousarray(self.u_init).tobytes()).hexdigest(),
            "p": hashlib.sha256(np.ascontiguousarray(self.p_samples).tobytes()).hexdigest(),
            "t_max": self.t_max, "m_list": list(self.m_list),
            "lambda": self.lambda_bound}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def radial_u_init(grid, geometry, breakpoints):
    """Piecewise-linear radial profile about the slot center.

    ``breakpoints`` is a sorted [(r, value), ...] list; the profile is
    constant before the first and after the last breakpoint.
    """
    bp = np.atleast_2d(_as_float_array(breakpoints))
    if bp.shape[1] != 2 or np.any(np.diff(bp[:, 0]) <= 0):
        raise ConfigError("breakpoints must be [(r, value), ...] with increasing r")
    center, _ = geometry.bounding_center_radius()
    r = grid.radius_from(center)
    u = np.interp(r, bp[:, 0], bp[:, 1])
    u[grid.farfield] = 0.0   # Scenario zeroes the slot
    return u


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def _geometry_from_dict(d, spacing):
    kind = d.get("kind")
    if kind not in (None, "ball", "union-of-balls",
                    "polygon-with-rounded-corners"):
        raise ConfigError(f"unknown slot kind {kind!r}")
    centers = d["centers"]
    if kind == "polygon-with-rounded-corners" or (
            kind is None and "rounding" in d):
        return SlotGeometry.rounded_polygon(centers, d["rounding"], spacing)
    return SlotGeometry.union_of_balls(centers, d["radii"], spacing)


def load_scenario(path):
    """Build a Scenario from its JSON description (see README for schema)."""
    path = Path(path)
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:   # JSON and text decoding included
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        n = int(spec["dimension"])
        h = float(spec["grid"]["h"])
        # the default boundary spacing, or h/2 on grids finer than it
        geometry = _geometry_from_dict(spec["slot"],
                                       h / 2 if 0 < h < 0.02 else 0.02)
        if geometry.n != n:
            raise ConfigError("slot dimension does not match 'dimension'")
        grid = build_grid(geometry, h, float(spec["grid"]["margin"]),
                          band_cells=int(spec["grid"].get("band_cells", 2)))
        u = _u_init_from_dict(spec["u_init"], grid, geometry, path.parent)
        p = _p_from_dict(spec["p"], geometry)
        return Scenario(geometry=geometry, grid=grid, u_init=u, p_samples=p,
                        t_max=float(spec["t_max"]),
                        m_list=tuple(spec["m_list"]))
    except KeyError as exc:
        raise ConfigError(f"scenario file missing key {exc}") from exc
    except (AttributeError, IndexError, OSError, OverflowError, TypeError,
            ValueError) as exc:
        # a value of the wrong type, shape or size, or an unreadable raster
        raise ConfigError(f"malformed scenario file {path}: {exc}") from exc


def _u_init_from_dict(d, grid, geometry, base_dir):
    kind = d["kind"]
    if kind == "constant":
        value = float(d["value"])
        if value != 0.0:
            raise ConfigError(
                "constant u_init must be 0 (positive constants are not "
                "compactly supported); use a radial profile instead")
        return np.zeros(grid.shape)
    if kind == "radial":
        return radial_u_init(grid, geometry, d["breakpoints"])
    if kind == "raster":
        shape = tuple(d["shape"])
        raw = np.fromfile(base_dir / d["path"], dtype="<f8")
        if raw.size != int(np.prod(shape)):
            raise ConfigError("raster u_init size does not match its shape")
        u = raw.reshape(shape)
        if shape != grid.shape:
            raise ConfigError(
                f"raster u_init shape {shape} does not match grid {grid.shape}")
        u = u.copy()
        u[grid.farfield] = 0.0   # Scenario zeroes the slot
        return u
    raise ConfigError(f"unknown u_init kind {kind!r}")


def _p_from_dict(d, geometry):
    count = geometry.boundary_samples.shape[0]
    if d["kind"] == "constant":
        return np.full(count, float(d["value"]))
    if d["kind"] == "samples":
        values = _as_float_array(d["values"])
        if values.shape[0] != count:
            raise ConfigError(
                "p samples must match the geometry's boundary sample count")
        return values
    raise ConfigError(f"unknown p kind {d['kind']!r}")

