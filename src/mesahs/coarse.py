"""Truncated coarse correction for the projected SOR kernel.

Where projected SOR converges slowly, :func:`mesahs.stencil.projected_sor`
applies a :class:`Correction` at its residual checks, after the truncated
nonsmooth Newton multigrid of Graeser & Kornhuber (2009, J. Comput. Math.
27).  Cells where v = 0 and the residual is positive are frozen; on the
others the correction takes a few steps of flexible CG on the linear
system, with an aggregation K-cycle (Notay 2010, ETNA 37) as the
preconditioner.  One flexible CG routine serves every level: the K-cycle
changes from step to step, which flexible CG allows.  Each coarse level
sums the diagonal and the face couplings between free cells over 2^n-cell
blocks: the Galerkin operator of piecewise-constant prolongation.  The
step is projected onto v >= 0 and scaled by the exact line search of the
quadratic energy, so no correction raises the energy.

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
#: ``_COARSEST_STEPS`` steps of Jacobi-preconditioned flexible CG
_COARSEST_CELLS = 500
_COARSEST_STEPS = 5
#: the first ``_K_LEVELS`` coarse levels take a second flexible CG step when
#: the first left more than ``_K_RATIO`` of their residual (Notay's t)
_K_LEVELS = 1
_K_RATIO = 0.25
#: flexible CG steps of one correction
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

    def allocate(self, names):
        """Zeroed work vectors ``names``."""
        for name in names:
            setattr(self, name, np.zeros(self.size, np.float32))
        self.names += names

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

    def prolong_add(self, coarse, xc, z):
        """z += the coarse vector ``xc`` copied to every cell of its block,
        on free cells only on the fine level.  Doubles one axis at a time,
        the last into ``work``."""
        src = coarse.view(xc)[_block_slice(self.inner)]
        n = len(self.inner)
        for axis in range(n):
            shape = tuple(2 * e if a == axis else e
                          for a, e in enumerate(src.shape))
            dst = (self.work[:math.prod(shape)].reshape(shape)
                   if axis == n - 1 else np.empty(shape, np.float32))
            for half in _halves(n, axis):
                dst[half] = src
            src = dst
        if self.free is not None:
            src *= self.view(self.free)
        self.view(z)[...] += src


def _block_slice(inner):
    """The cells of a coarse level that aggregate the blocks of ``inner``."""
    return tuple(slice(0, e // 2) for e in inner)


def _block_sum(x, axes):
    """Sums of ``x`` over pairs of cells along each of ``axes``."""
    for axis in axes:
        even, odd = _halves(x.ndim, axis)
        x = x[even] + x[odd]
    return x


def _fcg(level, res, x, steps, precondition, ratio=None):
    """x = ``steps`` flexible CG steps, FCG(1), on A x = res from x = 0.

    Each direction is the preconditioned residual ``precondition(res, z)``
    made A-conjugate to the previous direction, so the preconditioner may
    change from step to step (Notay 2010, ETNA 37); the step length is
    p.res / p.Ap.  With ``ratio``, a step after the first runs only while
    |res| > ratio |res_0|.  ``res`` ends as the residual; ``level.z``,
    ``level.p``, ``level.q`` and ``level.work`` are overwritten.
    """
    z, p, q, work = level.z, level.p, level.q, level.work
    x.fill(0.0)
    if ratio is not None:
        least = ratio * ratio * level.dot(res, res)
    for step in range(steps):
        if step and ratio is not None and not level.dot(res, res) > least:
            break
        precondition(res, z)
        if step:
            np.multiply(p, np.float32(level.dot(z, q) / pq), out=work)
            np.subtract(z, work, out=p)
        else:
            np.copyto(p, z)
        level.matvec(p, q)
        pq = level.dot(p, q)
        if not pq > 0.0:
            break
        alpha = np.float32(level.dot(p, res) / pq)
        np.multiply(p, alpha, out=work)
        x += work
        np.multiply(q, alpha, out=work)
        res -= work
    return x


class Correction:
    """Truncated coarse correction of one projected-SOR box.

    Cells where v = 0 and the residual is positive are frozen; on the rest
    the correction solves the linear system by flexible CG, with an
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
        for k, level in enumerate(self.levels):
            level.allocate(("d", "z", "p", "q", "work") if k == 0 else
                           ("rhs", "c1", "tmp", "z", "p", "q", "work"))
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

    def _step(self, v):
        """The CG step on the staged system, projected and line-searched
        into ``v``; whether v changed."""
        fine = self.levels[0]
        res, z, p, d = fine.res, fine.z, fine.p, fine.d
        _fcg(fine, res, d, _PCG_STEPS, lambda r, out: self._cycle(0, r, out))

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
        coarse.view(coarse.rhs)[_block_slice(level.inner)] = _block_sum(
            level.view(work), reversed(range(len(level.inner))))
        level.prolong_add(coarse, self._krylov(k + 1), z)
        level.matvec(z, work)
        np.subtract(r, work, out=work)
        work *= level.inv
        z += work
        return z

    def _krylov(self, k):
        """Level k's ``rhs`` solved from zero into ``c1`` by flexible CG with
        the K-cycle (Jacobi alone on the coarsest level): ``_COARSEST_STEPS``
        steps on the coarsest level, up to two on the first ``_K_LEVELS``,
        one on the rest."""
        level = self.levels[k]
        steps, ratio = ((_COARSEST_STEPS, None) if k == len(self.levels) - 1
                        else (2, _K_RATIO) if k <= _K_LEVELS else (1, None))
        return _fcg(level, level.rhs, level.c1, steps,
                    lambda r, out: self._cycle(k, r, out), ratio)
