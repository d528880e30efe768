"""Dense bivariate evaluation: the numeric core shared by the solver and the oracle.

A bivariate polynomial is held as a ``(dx+1, dy+1)`` complex coefficient
array C, so that its values at the points (x_i, y_i) are

    p(x_i, y_i) = sum_ab C[a, b] x_i^a y_i^b = (X C * Y).sum(axis=1)

with X, Y the power matrices of the x and y coordinates.  Residuals,
Jacobians and whole grids of points then cost a few array products, and
Newton runs on all points at once.  Exact evaluation stays with
:meth:`MultiPoly.evaluate`.
"""

from __future__ import annotations

import numpy as np

from .poly import MultiPoly


def _powers(values: np.ndarray, count: int) -> np.ndarray:
    """values[:, None] ** [0, 1, ..., count-1]."""
    return values[:, None] ** np.arange(count)[None, :]


class DensePoly:
    """A bivariate polynomial as a dense coefficient array ``coeffs[a, b]`` of x^a y^b."""

    __slots__ = ("coeffs", "abs_coeffs")

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.abs_coeffs = np.abs(self.coeffs)

    @classmethod
    def from_poly(cls, poly: MultiPoly) -> "DensePoly":
        if poly.n != 2:
            raise ValueError("bivariate polynomials only")
        dx = max((e[0] for e in poly.terms), default=0)
        dy = max((e[1] for e in poly.terms), default=0)
        c = np.zeros((dx + 1, dy + 1), dtype=complex)
        for (a, b), v in poly.terms.items():
            c[a, b] = complex(v)
        return cls(c)

    def reversed(self) -> "DensePoly":
        """x^d y^d p(1/x, 1/y) for d the total degree: the polynomial in reciprocal coordinates."""
        nz = np.argwhere(self.coeffs != 0)
        d = int(nz.sum(axis=1).max()) if len(nz) else 0
        c = np.zeros((d + 1, d + 1), dtype=complex)
        dx, dy = self.coeffs.shape
        c[:dx, :dy] = self.coeffs
        return DensePoly(c[::-1, ::-1])

    def values_and_gradient(self, xs, ys):
        """(p, dp/dx, dp/dy) at each point (xs[i], ys[i])."""
        xs, ys = np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex)
        dx, dy = self.coeffs.shape
        xp, yp = _powers(xs, dx), _powers(ys, dy)
        # derivative powers: column a holds a x^(a-1)
        dxp = np.zeros_like(xp)
        dxp[:, 1:] = xp[:, :-1] * np.arange(1, dx)
        dyp = np.zeros_like(yp)
        dyp[:, 1:] = yp[:, :-1] * np.arange(1, dy)
        xc = xp @ self.coeffs
        return (xc * yp).sum(axis=1), ((dxp @ self.coeffs) * yp).sum(axis=1), (xc * dyp).sum(axis=1)

    def residual(self, xs, ys) -> np.ndarray:
        """|p(x, y)| / sum_ab |C[a, b]| |x|^a |y|^b at each point: a relative backward error."""
        xs, ys = np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex)
        dx, dy = self.coeffs.shape
        num = np.abs(((_powers(xs, dx) @ self.coeffs) * _powers(ys, dy)).sum(axis=1))
        den = ((_powers(np.abs(xs), dx) @ self.abs_coeffs) * _powers(np.abs(ys), dy)).sum(axis=1)
        return num / np.where(den > 0.0, den, 1.0)

    def residual_grid(self, xs, ys) -> np.ndarray:
        """The residual of :meth:`residual` at every (xs[i], ys[j]), shape (len(xs), len(ys))."""
        xs, ys = np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex)
        dx, dy = self.coeffs.shape
        xp, yp = _powers(xs, dx), _powers(ys, dy)
        num = np.abs(xp @ self.coeffs @ yp.T)
        den = np.abs(xp) @ self.abs_coeffs @ np.abs(yp).T
        den[den == 0.0] = 1.0
        return num / den


def residual(p: DensePoly, q: DensePoly, xs, ys) -> np.ndarray:
    """Normalized residual of the system: the larger of the two at each point."""
    return np.maximum(p.residual(xs, ys), q.residual(xs, ys))


def jacobian_step(p: DensePoly, q: DensePoly, xs, ys):
    """Newton corrections (dx, dy) on the 2x2 Jacobian at each point, with det J
    and its row scale max(|p_x|, |p_y|) * max(|q_x|, |q_y|).

    The row scale bounds |det J| up to a factor 2 and scales with p and q
    as det J does, so ``|det| / jscale`` is a scale-invariant singularity
    measure.  Where det J vanishes the corrections are inf or NaN; callers
    decide from ``det`` and ``jscale`` which points to step.
    """
    f1, p_x, p_y = p.values_and_gradient(xs, ys)
    f2, q_x, q_y = q.values_and_gradient(xs, ys)
    det = p_x * q_y - p_y * q_x
    jscale = np.maximum(np.abs(p_x), np.abs(p_y)) * np.maximum(np.abs(q_x), np.abs(q_y))
    with np.errstate(divide="ignore", invalid="ignore"):
        step_x = (f1 * q_y - f2 * p_y) / det
        step_y = (f2 * p_x - f1 * q_x) / det
    return step_x, step_y, det, jscale
