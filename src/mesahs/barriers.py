"""Closed-form radial comparison profiles and the bounds they certify.

Two families of annulus profiles on B_{1+alpha+beta} \\ B_alpha (alpha >= 1,
0 <= beta <= 1) do all the work:

* the harmonic profile, 1 on the inner sphere and 0 on the outer sphere,
* the Poisson profile with constant source 2n, vanishing on both spheres.

Their outer-boundary radial slopes stay in strictly signed bands that do not
depend on alpha or beta; those four constants feed a lower bound on the free
boundary speed.  A separate linear-in-r supersolution gives the constant
upper speed used for domain truncation.  The slope bands are certified
numerically by a dense parameter scan padded with the observed grid
variation, anchored by the exact slopes in the alpha -> infinity limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "annulus_harmonic", "annulus_poisson",
    "annulus_harmonic_outer_slope", "annulus_poisson_outer_slope",
    "outer_slope_limits", "derivative_bounds", "SlopeBounds",
    "supersolution_profile", "supersolution_interior_terms",
    "supersolution_envelope", "Envelope",
    "subsolution_speed", "Subsolution",
]


#: nodes of the certifying scan: log alpha up to the max, uniform beta
_SCAN_ALPHA, _SCAN_BETA, _SCAN_ALPHA_MAX = 200, 50, 1e6
#: nodes of the scan that bounds the correction's time derivative
_M_SCAN_ALPHA, _M_SCAN_BETA, _M_SCAN_R = 20, 40, 60


def _check_params(n, alpha, beta):
    if n not in (2, 3):
        raise ConfigError("annulus profiles support n in {2, 3} only")
    if np.any(np.asarray(alpha) < 1) or np.any((np.asarray(beta) < 0)
                                               | (np.asarray(beta) > 1)):
        raise ConfigError("need alpha >= 1 and beta in [0, 1]")


def _annulus_radii(r, n, alpha, beta):
    """Validated radii and the outer radius 1+alpha+beta of a profile."""
    _check_params(n, alpha, beta)
    r = np.asarray(r, dtype=float)
    outer = 1.0 + alpha + beta
    if np.any(r < alpha - 1e-12) or np.any(r > outer + 1e-12):
        raise ConfigError("r outside the annulus [alpha, 1+alpha+beta]")
    return r, outer


def annulus_harmonic(r, n, alpha, beta):
    """Harmonic annulus profile: 1 at r=alpha, 0 at r=1+alpha+beta."""
    r, outer = _annulus_radii(r, n, alpha, beta)
    if n == 2:
        return np.log(r / outer) / np.log(alpha / outer)
    return (r ** (2 - n) - outer ** (2 - n)) / (alpha ** (2 - n) - outer ** (2 - n))


def annulus_poisson(r, n, alpha, beta):
    """Annulus profile with Laplacian 2n, zero on both boundary spheres."""
    r, outer = _annulus_radii(r, n, alpha, beta)
    if n == 2:
        return (r ** 2 - alpha ** 2) + (np.log(r / alpha)
                                        * (alpha ** 2 - outer ** 2)
                                        / np.log(outer / alpha))
    return (r ** 2 - alpha ** 2) + ((alpha ** 2 - outer ** 2)
                                    * (r ** (2 - n) - alpha ** (2 - n))
                                    / (outer ** (2 - n) - alpha ** (2 - n)))


def annulus_harmonic_outer_slope(n, alpha, beta):
    """Radial slope of the harmonic profile at the outer sphere (negative)."""
    _check_params(n, alpha, beta)
    outer = 1.0 + alpha + beta
    if n == 2:
        return 1.0 / (outer * np.log(alpha / outer))
    return ((2 - n) * outer ** (1 - n)
            / (alpha ** (2 - n) - outer ** (2 - n)))


def annulus_poisson_outer_slope(n, alpha, beta):
    """Radial slope of the Poisson profile at the outer sphere (positive)."""
    _check_params(n, alpha, beta)
    outer = 1.0 + alpha + beta
    if n == 2:
        return 2 * outer + (alpha ** 2 - outer ** 2) / (outer * np.log(outer / alpha))
    return 2 * outer + ((n - 2) * outer ** (1 - n) * (outer ** 2 - alpha ** 2)
                        / (outer ** (2 - n) - alpha ** (2 - n)))


def outer_slope_limits(n, beta):
    """Exact alpha -> infinity limits of the two outer slopes."""
    return -1.0 / (1.0 + beta), n * (1.0 + beta)


@dataclass(frozen=True)
class SlopeBounds:
    """Certified sign-definite bands for the outer slopes.

    -gamma1 <= harmonic slope <= -gamma2 < 0 < gamma3 <= Poisson slope <= gamma4,
    uniformly over alpha >= 1 and beta in [0, 1].
    """

    n: int
    gamma1: float
    gamma2: float
    gamma3: float
    gamma4: float
    scan_alpha: int
    scan_beta: int
    pad: float


def derivative_bounds(n):
    """Scan the (alpha, beta) strip and certify the outer-slope bands.

    The scan covers a log grid in alpha up to 1e6 plus the exact limiting
    slopes, and pads the extrema by the largest variation between adjacent
    scan nodes.  Any sign violation anywhere in the scan is an error.
    """
    alphas = np.logspace(0.0, np.log10(_SCAN_ALPHA_MAX), _SCAN_ALPHA)
    betas = np.linspace(0.0, 1.0, _SCAN_BETA)
    A, B = np.meshgrid(alphas, betas, indexing="ij")
    du = annulus_harmonic_outer_slope(n, A, B)
    dv = annulus_poisson_outer_slope(n, A, B)
    lim_u, lim_v = outer_slope_limits(n, betas)
    if np.any(du >= 0) or np.any(lim_u >= 0):
        raise ConfigError("harmonic outer slope lost its negative sign in scan")
    if np.any(dv <= 0) or np.any(lim_v <= 0):
        raise ConfigError("Poisson outer slope lost its positive sign in scan")

    du_all = np.concatenate([du.ravel(), lim_u])
    dv_all = np.concatenate([dv.ravel(), lim_v])
    pad = max(_max_grid_step(du), _max_grid_step(dv))
    gamma1 = float(-du_all.min() + pad)
    gamma2 = float(-du_all.max() - pad)
    gamma3 = float(dv_all.min() - pad)
    gamma4 = float(dv_all.max() + pad)
    if gamma2 <= 0 or gamma3 <= 0:
        raise ConfigError("slope band collapsed after padding; refine the scan")
    return SlopeBounds(n=n, gamma1=gamma1, gamma2=gamma2, gamma3=gamma3,
                       gamma4=gamma4, scan_alpha=_SCAN_ALPHA, scan_beta=_SCAN_BETA,
                       pad=float(pad))


def _max_grid_step(values):
    steps = [np.abs(np.diff(values, axis=a)).max() for a in range(values.ndim)]
    return max(steps)


# ---------------------------------------------------------------------------
# constant-speed supersolution (upper envelope)
# ---------------------------------------------------------------------------

def supersolution_profile(r, t, k, m, ell):
    """Linear-in-r supersolution enthalpy on the canonical rescaled domain.

    Defined for r >= 1: the value is 1 + k(2 - r + ell*t)/(m(1 + ell*t)) on
    [1, 2 + ell*t] and 0 beyond the moving front.
    """
    r = np.asarray(r, dtype=float)
    front = 2.0 + ell * t
    val = 1.0 + k * (2.0 - r + ell * t) / (m * (1.0 + ell * t))
    return np.where(r <= front, val, 0.0)


def supersolution_interior_terms(n, k, m, ell, r, t):
    """Diffusion and time-derivative terms of the supersolution, pointwise.

    Returns (m * Laplacian of the temperature part, time derivative); the
    profile is a local supersolution exactly when the first is <= the second.
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    lhs = k * (1 - n) / (r * (1.0 + ell * t))
    rhs = k * ell * (r - 1.0) / (m * (1.0 + ell * t) ** 2)
    return lhs, rhs


@dataclass(frozen=True)
class Envelope:
    """Constant-speed outer bound on the free boundary, original coordinates.

    The scenario is translated/rescaled so the slot fits in the unit ball and
    the initial support in the ball of radius 2; the front then moves with
    the rescaled speed equal to the sup of the pressure data.
    """

    center: np.ndarray
    rho: float
    k: float
    speed_rescaled: float

    def radius(self, t):
        return 2.0 * self.rho + self.k * np.asarray(t, dtype=float) / self.rho

    def to_dict(self):
        return {"center": self.center.tolist(), "rho": self.rho, "k": self.k,
                "speed_rescaled": self.speed_rescaled}


def supersolution_envelope(scenario):
    """Envelope radius function for a scenario.

    The smallest admissible rescaled speed satisfies the front-flux check
    k/(1 + ell*t) <= ell at t = 0, i.e. ell = k with k the (rescale-invariant)
    sup of the pressure data.
    """
    center, rho_fit = scenario.geometry.bounding_center_radius()
    supp = scenario.support_radius()
    rho = max(rho_fit, 0.5 * supp)
    k = scenario.max_datum
    return Envelope(center=np.asarray(center, dtype=float), rho=float(rho),
                    k=k, speed_rescaled=k)


# ---------------------------------------------------------------------------
# positive lower bound on the front speed
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subsolution:
    """Certified positive front speed and the diffusivity it needs.

    ``ell_sub`` is the speed of a moving-front subsolution built from the two
    annulus profiles; valid once the diffusivity exceeds ``m_min`` so that
    the profile's time derivative drops below its interior source.
    """

    n: int
    k: float
    eps: float
    ell_sub: float
    m_min: float
    bounds: SlopeBounds


def subsolution_speed(n, k, eps, bounds=None):
    """Front speed lower bound from the certified slope bands.

    ``eps`` is the interior source of the correction profile relative to k;
    it must be small enough that the combined outer slope stays below
    -(gamma2*k - eps*k*gamma4/(2n)).  The speed is half that margin, exactly
    linear in k.
    """
    if not 0 < k < np.inf:
        raise ConfigError("slot datum k must be positive and finite")
    if not 0 <= eps < np.inf:
        raise ConfigError("eps must be nonnegative and finite")
    if bounds is None:
        bounds = derivative_bounds(n)
    margin = bounds.gamma2 - eps * bounds.gamma4 / (2 * n)
    if margin <= 0:
        raise ConfigError(
            f"eps={eps:g} too large: correction slope eps*gamma4/(2n)="
            f"{eps * bounds.gamma4 / (2 * n):g} cancels the harmonic slope "
            f"bound gamma2={bounds.gamma2:g}")
    ell_sub = 0.5 * margin * k
    m_min = _required_diffusivity(n, eps, ell_sub, bounds)
    return Subsolution(n=n, k=float(k), eps=float(eps), ell_sub=float(ell_sub),
                       m_min=float(m_min), bounds=bounds)


def _required_diffusivity(n, eps, ell, bounds):
    """Smallest m with sup |profile time derivative| <= interior source.

    The scaled time derivative m * w_t = ell * k * d/dbeta [harmonic +
    (eps/2n) Poisson] is independent of m; the source is eps * k.
    """
    if eps == 0.0:
        return np.inf
    db = 1e-5
    worst = 0.0
    for alpha in np.logspace(0, 3, _M_SCAN_ALPHA):
        for beta in np.linspace(db, 1 - db, _M_SCAN_BETA):
            outer = 1 + alpha + beta - db
            r = np.linspace(alpha + 1e-9, outer, _M_SCAN_R)
            def combo(b):
                return (annulus_harmonic(r, n, alpha, b)
                        + eps / (2 * n) * annulus_poisson(r, n, alpha, b))
            dbeta = (combo(beta + db) - combo(beta - db)) / (2 * db)
            worst = max(worst, float(np.abs(dbeta).max()))
    return ell * worst / eps
