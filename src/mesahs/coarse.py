"""Truncated coarse correction for the projected SOR kernel.

Where projected SOR converges slowly, :func:`mesahs.stencil.projected_sor`
applies a :class:`Correction` at its residual checks, after the truncated
nonsmooth Newton multigrid of Graeser & Kornhuber (2009, J. Comput. Math.
27).  Cells where v = 0 and the residual is positive are frozen; on the
others the correction takes a few steps of preconditioned CG on the linear
system, with an aggregation K-cycle (Notay 2010, ETNA 37) as the
preconditioner.  Each coarse level sums the diagonal and the face couplings
between free cells over 2^n-cell blocks: the Galerkin operator of
piecewise-constant prolongation.  The step is projected onto v >= 0 and
scaled by the exact line search of the quadratic energy, so no correction
raises the energy.

The linear algebra runs in float32 on flat layouts with a one-cell halo,
and every reduction is numpy's pairwise sum, never BLAS, so every run gives
the same bits.  The kernel imports this module on its first correction:
runs whose boxes never need one do not load it.
"""

from __future__ import annotations

import math

import numpy as np

#: damping of the Jacobi smoother on every level
_JACOBI = 2.0 / 3.0
#: a level of at most this many cells is the coarsest; it is solved by
#: ``_COARSEST_STEPS`` steps of Jacobi-preconditioned CG
_COARSEST_CELLS = 500
_COARSEST_STEPS = 5
#: the first ``_K_LEVELS`` coarse levels take a second K-cycle step when the
#: first left more than ``_K_RATIO`` of their residual (Notay's t)
_K_LEVELS = 1
_K_RATIO = 0.25
#: preconditioned CG steps of one correction
_PCG_STEPS = 3


def _axis_slice(ndim, axis, part):
    """Index that applies ``part`` along ``axis`` and keeps every other axis."""
    return tuple(part if a == axis else slice(None) for a in range(ndim))


def _halves(ndim, axis):
    """The even and the odd cells along ``axis``."""
    return (_axis_slice(ndim, axis, slice(0, None, 2)),
            _axis_slice(ndim, axis, slice(1, None, 2)))


class _Level:
    """One level of the aggregation hierarchy in a flat float32 layout.

    The level's cells fill an array of even extents ``inner`` inside a
    one-cell halo, and every vector is a flat array of that halo-grown
    shape, so the face neighbour at flat step s of entry q is entry q + s.
    Halo, padding and frozen entries have zero diagonal and couplings, and
    every vector stays zero on the halo.  The fine level couples each pair
    of free face neighbours by one; a coarse level keeps in ``up[a]`` the
    coupling of each cell to its +1 neighbour along axis a.  The
    coefficients live as long as the kernel call, the work vectors only
    while a correction runs, so no residual check holds them.
    """

    def __init__(self, inner, fine):
        self.inner = inner
        self.grown = tuple(e + 2 for e in inner)
        self.size = math.prod(self.grown)
        self.steps = [math.prod(self.grown[a + 1:])
                      for a in range(len(inner))]
        self.span = slice(self.steps[0], self.size - self.steps[0])
        self.cells = tuple(slice(1, -1) for _ in inner)
        self.diag = np.zeros(self.size, np.float32)
        self.inv = np.zeros(self.size, np.float32)
        self.free = np.zeros(self.size, bool) if fine else None
        self.up = [] if fine else [np.zeros(self.size, np.float32)
                                   for _ in inner]
        self.names = ()

    def allocate(self, names, parts=False):
        """Zeroed work vectors ``names``; with ``parts``, the block-sum
        buffers too: the shapes of a block sum that halves the axes from the
        last to the first, which a prolongation doubles back in reverse."""
        for name in names:
            setattr(self, name, np.zeros(self.size, np.float32))
        self.names += names
        if parts:
            self.parts = [np.empty(tuple(e // 2 if a >= j else e
                                         for a, e in enumerate(self.inner)),
                                   np.float32)
                          for j in range(1, len(self.inner))]
            self.names += ("parts",)

    def release(self):
        """Drop every work vector."""
        for name in self.names:
            delattr(self, name)
        self.names = ()

    def view(self, vector):
        """The cells of a flat vector, as an ``inner``-shaped view."""
        return vector.reshape(self.grown)[self.cells]

    def matvec(self, x, out):
        """out = A x on the span; x must be zero off free cells."""
        span = self.span
        lo, hi = span.start, span.stop
        o = out[span]
        np.multiply(self.diag[span], x[span], out=o)
        if self.free is not None:
            for step in self.steps:
                for s in (-step, step):
                    o -= x[lo + s:hi + s]
            o *= self.free[span]
            return out
        t = self.tmp[span]
        for step, up in zip(self.steps, self.up):
            np.multiply(up[span], x[lo + step:hi + step], out=t)
            o -= t
            np.multiply(up[lo - step:hi - step], x[lo - step:hi - step],
                        out=t)
            o -= t
        return out

    def dot(self, a, b):
        """Pairwise-summed a.b (no BLAS, so every run gives the same bits);
        ``work`` is its scratch."""
        np.multiply(a, b, out=self.work)
        return float(self.work.sum())

    def restrict(self, x, coarse):
        """Block sums of ``x`` into ``coarse.rhs``."""
        src = self.view(x)
        n = len(self.inner)
        for axis in reversed(range(n)):
            dst = (self.parts[axis - 1] if axis else
                   coarse.view(coarse.rhs)[_block_slice(self.inner)])
            even, odd = _halves(n, axis)
            np.add(src[even], src[odd], out=dst)
            src = dst

    def prolong_add(self, coarse, xc, z):
        """z += the coarse vector ``xc`` copied to every cell of its block,
        on free cells only on the fine level.  Overwrites ``work``."""
        src = coarse.view(xc)[_block_slice(self.inner)]
        n = len(self.inner)
        full = self.work[:math.prod(self.inner)].reshape(self.inner)
        for axis in range(n):
            dst = self.parts[axis] if axis < n - 1 else full
            for half in _halves(n, axis):
                dst[half] = src
            src = dst
        if self.free is not None:
            full *= self.view(self.free)
        self.view(z)[...] += full


def _block_slice(inner):
    """The cells of a coarse level that aggregate the blocks of ``inner``."""
    return tuple(slice(0, e // 2) for e in inner)


def _block_sum(x, axes):
    """Sums of ``x`` over pairs of cells along each of ``axes``."""
    for axis in axes:
        even, odd = _halves(x.ndim, axis)
        x = x[even] + x[odd]
    return x


class Correction:
    """Truncated coarse correction of one projected-SOR box.

    Cells where v = 0 and the residual is positive are frozen; on the rest
    the correction solves the linear system by preconditioned CG, with an
    aggregation K-cycle (Notay 2010, ETNA 37) whose levels sum the diagonal
    and the face couplings of 2^n-cell blocks (the Galerkin operator of
    piecewise-constant prolongation) as preconditioner.  The Newton step is
    projected onto v >= 0 and scaled by the exact line search of the
    quadratic energy, so the energy never rises.  The linear algebra runs
    in float32, scaled by 1/kappa so free neighbours couple by one; the
    step is added to v in float64.
    """

    def __init__(self, shape):
        self.box = tuple(slice(0, e) for e in shape)
        inner = tuple(e + e % 2 for e in shape)
        self.levels = [_Level(inner, fine=True)]
        while math.prod(inner) > _COARSEST_CELLS and min(inner) >= 4:
            inner = tuple(e // 2 + e // 2 % 2 for e in inner)
            self.levels.append(_Level(inner, fine=False))
        self.free = None

    def stage(self, v, pde, fluid, diag, kappa):
        """Freeze cells and stage the right-hand side from the residual.

        ``v``, ``pde``, ``fluid`` and ``diag`` are the box's; ``kappa`` is
        coupling/h^2.  The levels are rebuilt only when the free set
        changed.  ``pde`` is not read after this, so the caller can drop it
        before :meth:`apply` allocates the work vectors.
        """
        free = fluid & ~((v == 0.0) & (pde > 0.0))
        fine = self.levels[0]
        if self.free is None or not np.array_equal(free, self.free):
            self.free = free
            fine.free.fill(False)
            fine.view(fine.free)[self.box] = free
            self._load(fine.diag, diag, 1.0 / kappa)
            self._coarsen()
        fine.allocate(("res",))
        self._load(fine.res, pde, -1.0 / kappa)

    def apply(self, v):
        """Correct the staged box values ``v`` in place; whether v changed."""
        last = len(self.levels) - 1
        for k, level in enumerate(self.levels):
            if k == 0:
                names = ("z", "p", "d", "work")
            elif k == last:
                names = ("rhs", "c1", "z", "p", "work", "tmp")
            else:
                names = (("rhs", "c1", "v1", "rt", "work", "tmp")
                         + (("c2", "v2") if k <= _K_LEVELS else ()))
            level.allocate(names, parts=True)
        try:
            return self._step(v)
        finally:
            for level in self.levels:
                level.release()

    def _load(self, array, source, scale):
        """``array`` = scale * ``source`` on the free cells, 0 elsewhere."""
        fine = self.levels[0]
        array.fill(0.0)
        np.copyto(fine.view(array)[self.box], source, where=self.free,
                  casting="unsafe")
        array *= np.float32(scale)

    @staticmethod
    def _pcg(level, res, x, steps, precondition):
        """x = ``steps`` preconditioned CG steps on A x = res from x = 0.

        ``res`` ends as the residual; ``level.z`` holds the preconditioned
        residual, and A p once p is formed.
        """
        z, p, work = level.z, level.p, level.work
        x.fill(0.0)
        rz_prev = None
        for _ in range(steps):
            precondition(res, z)
            rz = level.dot(res, z)
            if rz_prev is None:
                np.copyto(p, z)
            else:
                p *= np.float32(rz / rz_prev)
                p += z
            level.matvec(p, z)
            pz = level.dot(p, z)
            if not (pz > 0.0 and rz > 0.0):
                break
            alpha = np.float32(rz / pz)
            np.multiply(p, alpha, out=work)
            x += work
            z *= alpha
            res -= z
            rz_prev = rz
        return x

    def _step(self, v):
        """The CG step on the staged system, projected and line-searched
        into ``v``; whether v changed."""
        fine = self.levels[0]
        res, z, p, d = fine.res, fine.z, fine.p, fine.d
        self._pcg(fine, res, d, _PCG_STEPS,
                  lambda r, out: self._cycle(0, r, out))

        # the step to max(v + d, 0) is max(d, -v); the exact line search of
        # the energy along it needs its curvature and its slope, the
        # gradient's component along it: the gradient is -(res + A d)
        e = z
        e.fill(0.0)
        step = fine.view(e)[self.box]
        np.negative(v, out=step, casting="unsafe")
        np.maximum(step, fine.view(d)[self.box], out=step)
        fine.matvec(e, p)
        curvature = fine.dot(e, p)
        fine.matvec(d, p)
        slope = -fine.dot(e, res) - fine.dot(e, p)
        if not (curvature > 0.0 and slope < 0.0):
            return False
        step *= np.float32(min(1.0, -slope / curvature))
        v += step
        # float32 rounding of -v may overshoot zero by an ulp
        np.maximum(v, 0.0, out=v)
        return True

    def _coarsen(self):
        """Galerkin levels: block sums of the diagonal and the couplings."""
        n = len(self.box)
        for fine, coarse in zip(self.levels, self.levels[1:]):
            diag = coarse.view(coarse.diag)
            block = _block_slice(fine.inner)
            diag.fill(0.0)
            diag[block] = _block_sum(fine.view(fine.diag), range(n))
            for axis in range(n):
                even, odd = _halves(n, axis)
                others = [a for a in range(n) if a != axis]
                if fine.up:
                    up = fine.view(fine.up[axis])
                    inside, across = up[even], up[odd]
                else:
                    free = fine.view(fine.free)
                    inside = (free[even] & free[odd]).astype(np.float32)
                    across = np.zeros_like(inside)
                    head = _axis_slice(n, axis, slice(0, -1))
                    tail = _axis_slice(n, axis, slice(1, None))
                    across[head] = free[odd][head] & free[even][tail]
                diag[block] -= 2.0 * _block_sum(inside, others)
                coarse_up = coarse.view(coarse.up[axis])
                coarse_up.fill(0.0)
                coarse_up[block] = _block_sum(across, others)
        for level in self.levels:
            level.inv.fill(0.0)
            np.divide(_JACOBI, level.diag, out=level.inv,
                      where=level.diag > 0.0)

    def _cycle(self, k, r, z):
        """z = the K-cycle's approximation to A_k^-1 r (Jacobi alone on a
        hierarchy of one level)."""
        level = self.levels[k]
        work = level.work
        np.multiply(level.inv, r, out=z)
        if k == len(self.levels) - 1:
            return z
        level.matvec(z, work)
        np.subtract(r, work, out=work)
        coarse = self.levels[k + 1]
        level.restrict(work, coarse)
        level.prolong_add(coarse, self._krylov(k + 1), z)
        level.matvec(z, work)
        np.subtract(r, work, out=work)
        work *= level.inv
        z += work
        return z

    def _krylov(self, k):
        """One or two flexible CG steps on level k's ``rhs``, from zero."""
        level = self.levels[k]
        r = level.rhs
        if k == len(self.levels) - 1:
            return self._pcg(level, r, level.c1, _COARSEST_STEPS,
                             lambda res, out: np.multiply(level.inv, res,
                                                          out=out))
        c1, v1 = self._cycle(k, r, level.c1), level.v1
        level.matvec(c1, v1)
        rho1 = level.dot(c1, v1)
        if not rho1 > 0.0:
            c1.fill(0.0)
            return c1
        a1 = level.dot(c1, r)
        rt = level.rt
        np.multiply(v1, np.float32(a1 / rho1), out=rt)
        np.subtract(r, rt, out=rt)
        if k <= _K_LEVELS and (level.dot(rt, rt)
                               > _K_RATIO ** 2 * level.dot(r, r)):
            c2, v2 = self._cycle(k, rt, level.c2), level.v2
            level.matvec(c2, v2)
            gamma = level.dot(c2, v1)
            rho2 = level.dot(c2, v2) - gamma * gamma / rho1
            if rho2 > 0.0:
                a2 = level.dot(c2, rt)
                c1 *= np.float32(a1 / rho1 - gamma * a2 / (rho1 * rho2))
                c2 *= np.float32(a2 / rho2)
                c1 += c2
                return c1
        c1 *= np.float32(a1 / rho1)
        return c1
