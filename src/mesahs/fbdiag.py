"""Free-boundary extraction, point classification, and growth diagnostics.

The free boundary at a time is the set of face midpoints between active and
inactive FLUID cells, excluding faces on the slot boundary.  Point
classification is a finite-radius surrogate for the regular/cusp dichotomy:
at a regular point the active set fills half of every small ball, while at a
cusp the inactive set inside the ball is thin relative to the ball radius.
Limits are not computable on a grid, so reports always carry the raw
per-radius numbers next to the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import _fibonacci_sphere
from .stencil import _shifted

#: relative cutoff used to turn nonnegative fields into active masks
ACTIVE_REL_THRESHOLD = 1e-8

#: default half-density tolerance for the regular verdict
DEFAULT_DELTA_REG = 0.1

#: free-boundary points closer than this many cells to the slot are not
#: classified (the inactive set convention is ambiguous against the slot)
SLOT_EXCLUSION_CELLS = 4


@dataclass
class RegionSeries:
    """Active masks over time with their free boundaries and measures."""

    times: list
    masks: list
    fb_points: list           # per time: (k, n) free-boundary face midpoints
    weighted_measures: list   # per time: integral of (1 - u_init) over the mask
    measures: list            # per time: plain Lebesgue measure of the mask
    grid: object

    def index_of(self, t):
        i = _time_index(self.times, t)
        if i is None:
            raise ConfigError(f"no series entry at t={t:g}")
        return i


def _time_index(times, t):
    """Index of the snapshot time matching ``t`` to 1e-12, or None."""
    for i, s in enumerate(times):
        if abs(s - t) <= 1e-12:
            return i
    return None


@dataclass
class FBPointReport:
    """Classification record for one free-boundary point."""

    point: np.ndarray
    t: float
    radii: list
    density_ratios: list
    md_ratios: list
    classification: str
    delta_reg: float
    notes: list = field(default_factory=list)


def active_cut(values):
    """The value a nonnegative field must exceed to be active: a share
    ``ACTIVE_REL_THRESHOLD`` of its largest value (positive for a zero
    field)."""
    return ACTIVE_REL_THRESHOLD * max(float(values.max()), np.finfo(float).tiny)


def active_mask_from(values, grid):
    """Active mask of a nonnegative field by a scale-relative cutoff."""
    return (values > active_cut(values)) & grid.fluid


def boundary_faces(mask, grid):
    """Face midpoints between mask cells and inactive FLUID cells.

    Faces against the slot are part of the fixed boundary, not the free one,
    and are excluded.
    """
    pts = []
    inactive = grid.fluid & ~mask
    for axis in range(grid.n):
        for step in (-1, 1):
            faces = mask & _shifted(inactive, axis, step)
            if not faces.any():
                continue
            centers = grid.cell_centers(np.argwhere(faces))
            centers[:, axis] += 0.5 * step * grid.h
            pts.append(centers)
    if not pts:
        return np.zeros((0, grid.n))
    return np.unique(np.concatenate(pts), axis=0)


def extract_regions(fields, scenario, times=None):
    """Build a :class:`RegionSeries` from pressure/potential fields or masks.

    ``fields`` may hold arrays, objects with ``.w`` (obstacle slices), or
    boolean masks, whose True FLUID cells the same cut keeps; ``times``
    defaults to the fields' own ``.t`` attributes.
    """
    grid = scenario.grid
    masks, fb, wmeas, meas = [], [], [], []
    resolved_times = []
    for i, item in enumerate(fields):
        values = getattr(item, "w", item)
        t = getattr(item, "t", None)
        if times is not None:
            t = times[i]
        if t is None:
            raise ConfigError("extract_regions needs times for bare arrays")
        mask = active_mask_from(values, grid)
        masks.append(mask)
        fb.append(boundary_faces(mask, grid))
        wmeas.append(float(((1.0 - scenario.u_init) * mask).sum())
                     * grid.cell_volume)
        meas.append(float(mask.sum()) * grid.cell_volume)
        resolved_times.append(float(t))
    for a, b in zip(masks, masks[1:]):
        if np.any(a & ~b):
            raise ConfigError("region series is not nested in time")
    return RegionSeries(times=resolved_times, masks=masks, fb_points=fb,
                        weighted_measures=wmeas, measures=meas, grid=grid)


def component_count(mask):
    """Number of face-connected components of a boolean mask."""
    from scipy import ndimage   # deferred: no solve path loads scipy
    _, count = ndimage.label(mask)
    return int(count)


# ---------------------------------------------------------------------------
# pointwise classification
# ---------------------------------------------------------------------------

def min_diameter(points, n_directions=64):
    """Smallest width of a point set over sampled directions.

    The width in a direction is the spread of the projections; the result
    over-estimates the true minimum diameter by at most 1/cos(pi/K) in 2D.
    An empty set has width 0.
    """
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return 0.0
    if points.ndim != 2:
        raise ConfigError("points must be a (k, n) array")
    n = points.shape[1]
    if n == 2:
        ang = np.pi * np.arange(n_directions) / n_directions
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    elif n == 3:
        # a width is even in the direction, so a hemisphere suffices: the
        # first half of a Fibonacci sphere of twice the points
        dirs = _fibonacci_sphere(2 * n_directions)[:n_directions]
    else:
        raise ConfigError("min_diameter supports 2D and 3D point sets")
    proj = points @ dirs.T
    widths = proj.max(axis=0) - proj.min(axis=0)
    return float(widths.min())


def classify_point(series, point, t, r_list, delta_reg=DEFAULT_DELTA_REG,
                   n_directions=64):
    """Classify one free-boundary point as regular / cusp-suspect / unresolved.

    Regular: the active-cell density in every scanned ball is within
    ``delta_reg`` of one half and the deviation does not grow as the radius
    shrinks (up to cell quantization).  Cusp-suspect: the minimum diameter of
    the inactive set inside the ball, relative to the radius, strictly
    decreases across the scan.  The verdict is deterministic given the
    thresholds; raw ratios are always reported.  Radii whose ball reaches
    the farfield band are dropped, and a point left with fewer than 3 is
    unresolved, with a note.  A point off the grid raises
    :class:`ConfigError`.
    """
    grid = series.grid
    idx = series.index_of(t)
    mask = series.masks[idx]
    point = np.asarray(point, dtype=float)
    if point.shape != (grid.n,) or not np.all(np.isfinite(point)):
        raise ConfigError(f"a point needs {grid.n} finite coordinates, got "
                          f"{point.tolist()}")
    r_list = sorted(float(r) for r in r_list)
    if not all(0 < r < np.inf for r in r_list):
        raise ConfigError(f"scan radii must be finite and positive: {r_list}")
    if len(r_list) < 3:
        raise ConfigError("need at least 3 scan radii")
    if min(r_list) < 4 * grid.h - 1e-12:
        raise ConfigError("scan radii must be at least 4 grid cells")
    hi = grid.lo + np.asarray(grid.shape) * grid.h
    if np.any(point < grid.lo) or np.any(point > hi):
        raise ConfigError(f"point {point.tolist()} lies outside the grid "
                          f"[{grid.lo.tolist()}, {hi.tolist()}]")

    notes = []
    slot_pts = grid.cell_centers(np.argwhere(grid.slot))
    if slot_pts.size and np.linalg.norm(slot_pts - point, axis=1).min() \
            < SLOT_EXCLUSION_CELLS * grid.h:
        return FBPointReport(point=point, t=t, radii=r_list,
                             density_ratios=[], md_ratios=[],
                             classification="unresolved", delta_reg=delta_reg,
                             notes=["within slot exclusion zone"])

    r_grid = grid.radius_from(point)
    half = max(r_list)
    if np.any((r_grid <= half) & grid.farfield):
        kept = [r for r in r_list
                if not np.any((r_grid <= r) & grid.farfield)]
        notes.append(f"scan trimmed at the farfield band: {len(kept)} of "
                     f"{len(r_list)} radii left")
        r_list = kept
        if len(r_list) < 3:
            return FBPointReport(point=point, t=t, radii=r_list,
                                 density_ratios=[], md_ratios=[],
                                 classification="unresolved",
                                 delta_reg=delta_reg, notes=notes)

    ratios, md_ratios = [], []
    for r in r_list:
        ball = r_grid <= r
        total = int((ball & (grid.fluid | grid.slot)).sum())
        active = int((ball & mask).sum())
        ratios.append(active / max(total, 1))
        inactive_pts = grid.cell_centers(np.argwhere(ball & grid.fluid & ~mask))
        md_ratios.append(min_diameter(inactive_pts, n_directions) / r)

    classification = "unresolved"
    dev = [abs(rho - 0.5) for rho in ratios]
    quant = [2.0 * grid.h / r for r in r_list]
    shrink_ok = all(dev[i] <= dev[i + 1] + quant[i]
                    for i in range(len(r_list) - 1))
    if all(d <= delta_reg for d in dev) and shrink_ok:
        classification = "regular"
    elif all(md_ratios[i] < md_ratios[i + 1] - 1e-12
             for i in range(len(r_list) - 1)):
        classification = "cusp-suspect"
    return FBPointReport(point=point, t=t, radii=r_list,
                         density_ratios=ratios, md_ratios=md_ratios,
                         classification=classification, delta_reg=delta_reg,
                         notes=notes)


# ---------------------------------------------------------------------------
# growth and energy diagnostics
# ---------------------------------------------------------------------------

def measure_continuity(series):
    """Incremental growth rate of the active region between snapshot pairs.

    Reports |A(t) \\ A(s)| / (t - s) for consecutive pairs and the max slope.
    """
    if len(series.times) < 2:
        raise ConfigError("need at least 2 times for growth slopes")
    if not all(s < t for s, t in zip(series.times, series.times[1:])):
        raise ConfigError("growth slopes need strictly increasing times, got "
                          f"{series.times}")
    rows = []
    cell = series.grid.cell_volume
    for (s, a), (t, b) in zip(zip(series.times, series.masks),
                              zip(series.times[1:], series.masks[1:])):
        grown = float((b & ~a).sum()) * cell
        rows.append({"s": s, "t": t, "increment": grown,
                     "slope": grown / (t - s)})
    return {"rows": rows, "max_slope": max(r["slope"] for r in rows)}


def energy_ratio(theta_arrays, times, grid, center, r, R):
    """Interior gradient energy against the scale-weighted outer mass.

    Returns (integral over time of the squared gradient on B_r) * (R - r)^2
    divided by (integral over time of the squared field on B_R); bounded
    uniformly in the diffusivity.  Balls must stay clear of the slot.
    """
    if not 0 < r < R < np.inf:
        raise ConfigError(f"need 0 < r < R < inf, got r={r}, R={R}")
    r_grid = grid.radius_from(center)
    inner = (r_grid <= r)
    outer = (r_grid <= R)
    if np.any(outer & grid.slot):
        raise ConfigError("energy balls must not intersect the slot")
    if np.any(outer & grid.farfield):
        raise ConfigError("outer energy ball reaches the farfield band")

    def grad_sq(theta):
        g = np.zeros_like(theta)
        for axis in range(theta.ndim):
            d = (_shifted(theta, axis, 1)
                 - _shifted(theta, axis, -1)) / (2 * grid.h)
            g += d * d
        return g

    num_slices = [float(grad_sq(th)[inner].sum()) * grid.cell_volume
                  for th in theta_arrays]
    den_slices = [float((th * th)[outer].sum()) * grid.cell_volume
                  for th in theta_arrays]
    num = np.trapezoid(num_slices, times) if len(times) > 1 else num_slices[0]
    den = np.trapezoid(den_slices, times) if len(times) > 1 else den_slices[0]
    if den <= 0:
        return {"ratio": 0.0, "numerator": num, "denominator": den}
    return {"ratio": num * (R - r) ** 2 / den, "numerator": num,
            "denominator": den}


def energy_estimate_check(theta_by_m, times, grid, center, r, R):
    """Energy ratios across a diffusivity sweep; uniformity is the content."""
    ratios = {m: energy_ratio(arrs, times, grid, center, r, R)["ratio"]
              for m, arrs in theta_by_m.items()}
    vals = [v for v in ratios.values() if v > 0]
    spread = (max(vals) / min(vals)) if vals else 1.0
    return {"ratios": ratios, "spread": spread}
