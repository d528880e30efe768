"""Independent bivariate root oracle: hidden-variable resultant method.

Deliberately separate from the eigenvalue pipeline (shared machinery is
limited to basic linear algebra), so agreement between the two carries
evidence.  The resultant of p and q with respect to y is computed by
evaluation and interpolation of the Sylvester determinant at d1*d2 + 1
nodes on the unit circle (an FFT recovers the coefficients exactly and
keeps every root of the resultant equally well conditioned, which real
interval nodes do not once the degree grows); its roots, the companion
matrix eigenvalues of the interpolated resultant, are the x candidates,
each completed by the nearest common y root and polished by a local
Newton iteration.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import dense
from .dense import DensePoly
from .poly import COMPLEX, MultiPoly
from .roots import RootSet

# not called here (the dense evaluator computes the residuals), but stays
# bound: the benchmark's layer tracer (perfbench/tracer.py) patches it
from .roots import normalized_residual  # noqa: F401


class PositiveDimensionalError(ValueError):
    """p and q share a factor: the solution set is not finite."""


def _as_complex(p: MultiPoly) -> MultiPoly:
    return p if p.kind == COMPLEX else p.to_complex()


def _y_coefficients(p: MultiPoly):
    """List indexed by the y exponent; each item maps x exponent -> coeff."""
    out = [dict() for _ in range(int(max((e[1] for e in p.terms), default=0)) + 1)]
    for (a, b), c in p.terms.items():
        out[b][a] = complex(c)
    return out


def _eval_x(coeffs: dict, x0: complex) -> complex:
    return sum(c * x0**a for a, c in coeffs.items())


def sylvester_matrix(p_coeffs, q_coeffs, x0: complex) -> np.ndarray:
    """Numeric Sylvester matrix of p(x0, .) and q(x0, .) in y."""
    u = [_eval_x(c, x0) for c in p_coeffs][::-1]  # descending in y
    v = [_eval_x(c, x0) for c in q_coeffs][::-1]
    m1, m2 = len(u) - 1, len(v) - 1
    size = m1 + m2
    s = np.zeros((size, size), dtype=complex)
    for i in range(m2):
        s[i, i : i + m1 + 1] = u
    for i in range(m1):
        s[m2 + i, i : i + m2 + 1] = v
    return s


def resultant_values(p: MultiPoly, q: MultiPoly, nodes):
    """Sylvester determinants at the nodes, plus each matrix's inverse condition.

    A shared factor of p and q puts a kernel vector in the Sylvester
    matrix at every x, so min sigma_min/sigma_max over the nodes staying
    at rounding level is the degeneracy signal (determinant magnitudes
    cannot be thresholded stably at large sizes).
    """
    pc, qc = _y_coefficients(p), _y_coefficients(q)
    values, conds = [], []
    for x0 in nodes:
        s = sylvester_matrix(pc, qc, x0)
        values.append(np.linalg.det(s))
        svals = np.linalg.svd(s, compute_uv=False)
        conds.append(float(svals[-1] / svals[0]) if svals[0] > 0.0 else 0.0)
    return np.array(values), np.array(conds)


def _poly_roots(coeffs_desc: np.ndarray) -> np.ndarray:
    """Roots of a dense univariate polynomial, tolerating tiny leading coeffs."""
    c = np.asarray(coeffs_desc, dtype=complex)
    scale = np.max(np.abs(c)) if c.size else 0.0
    if scale == 0.0:
        return np.array([], dtype=complex)
    keep = np.abs(c) > 1e-13 * scale
    first = int(np.argmax(keep))
    c = c[first:]
    if len(c) <= 1:
        return np.array([], dtype=complex)
    return np.roots(c)


def _newton(p: DensePoly, q: DensePoly, xs, ys, iters: int = 12):
    """Plain Newton on all points at once; a point stops at a vanishing
    Jacobian determinant or once its step falls to rounding level."""
    xs = np.array(xs, dtype=complex)
    ys = np.array(ys, dtype=complex)
    active = np.ones(len(xs), dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(iters):
            idx = np.flatnonzero(active)
            if not len(idx):
                break
            dx, dy, det, _ = dense.jacobian_step(p, q, xs[idx], ys[idx])
            # NaN determinants keep stepping, as a scalar comparison would
            singular = np.abs(det) < 1e-300
            active[idx[singular]] = False
            idx, dx, dy = idx[~singular], dx[~singular], dy[~singular]
            xs[idx] -= dx
            ys[idx] -= dy
            small = np.abs(dx) + np.abs(dy) < 1e-15 * (1.0 + np.abs(xs[idx]) + np.abs(ys[idx]))
            active[idx[small]] = False
    return xs, ys


def _rotate_vars(p: MultiPoly, c: float, s: float) -> MultiPoly:
    gx = MultiPoly.make(2, {(1, 0): complex(c), (0, 1): complex(-s)}, COMPLEX)
    gy = MultiPoly.make(2, {(1, 0): complex(s), (0, 1): complex(c)}, COMPLEX)
    return p.compose([gx, gy])


def oracle_roots(p: MultiPoly, q: MultiPoly, tol: float = 1e-8, seed: int = 0) -> RootSet:
    """All isolated roots of p = q = 0 via the resultant companion route.

    Degenerate leading coefficients trigger a random rotation of the
    (x, y) plane (logged); a vanishing resultant raises
    :class:`PositiveDimensionalError`.
    """
    if p.n != 2 or q.n != 2:
        raise ValueError("the oracle handles bivariate systems only")
    p0, q0 = _as_complex(p), _as_complex(q)
    if p0.is_zero() or q0.is_zero():
        raise ValueError("zero polynomial input")
    d1, d2 = int(p0.degree()), int(q0.degree())
    if d1 == 0 or d2 == 0:
        return RootSet(roots=(), residuals=(), multiplicities=(), status="ok", reduced_size=None)
    p0d, q0d = DensePoly.from_poly(p0), DensePoly.from_poly(q0)
    count = d1 * d2
    rng = random.Random(seed)
    log: list[str] = []
    best: tuple | None = None

    for attempt in range(4):
        if attempt == 0:
            pw, qw, rot = p0, q0, None
        else:
            theta = rng.uniform(0.3, math.pi - 0.3)
            c, s = math.cos(theta), math.sin(theta)
            pw, qw, rot = _rotate_vars(p0, c, s), _rotate_vars(q0, c, s), (c, s)
            log.append(f"rotation attempt {attempt}: theta={theta:.4f}")
        ydeg_p = max((e[1] for e in pw.terms), default=0)
        ydeg_q = max((e[1] for e in qw.terms), default=0)
        if ydeg_p == 0 or ydeg_q == 0:
            log.append("degenerate y-degree, rotating")
            continue
        node_count = count + 1
        nodes = np.exp(2j * np.pi * np.arange(node_count) / node_count)
        values, conds = resultant_values(pw, qw, nodes)
        if float(np.max(conds)) <= 1e-12:
            raise PositiveDimensionalError("the resultant vanishes identically: p and q share a factor")
        coeffs = np.fft.fft(values) / node_count  # ascending resultant coefficients
        top = float(np.max(np.abs(coeffs)))
        if abs(coeffs[count]) <= 1e-11 * top and attempt < 3:
            log.append("resultant leading coefficient degenerate, rotating")
            continue
        x_candidates = _poly_roots(coeffs[::-1])

        pc, qc = _y_coefficients(pw), _y_coefficients(qw)
        start_x, start_y = [], []
        for x0 in x_candidates:
            # rescale y by the magnitude of x to flatten the coefficient
            # range of the univariate slices (crucial for outlying roots)
            s = max(1.0, abs(x0))
            yp = s * _poly_roots(np.array([_eval_x(c, x0) * s**b for b, c in enumerate(pc)][::-1]))
            yq = s * _poly_roots(np.array([_eval_x(c, x0) * s**b for b, c in enumerate(qc)][::-1]))
            if len(yp) == 0 or len(yq) == 0:
                continue
            dist = np.abs(yp[:, None] - yq[None, :])
            i, j = np.unravel_index(int(np.argmin(dist)), dist.shape)
            start_x.append(x0)
            start_y.append((yp[i] + yq[j]) / 2.0)
        found = list(zip(*_newton(DensePoly.from_poly(pw), DensePoly.from_poly(qw), start_x, start_y)))
        if rot is not None:
            c, s = rot
            found = [(c * x - s * y, s * x + c * y) for x, y in found]
        found = [(complex(x), complex(y)) for x, y in found]
        roots = _dedup(found, tol)
        residuals = dense.residual(p0d, q0d, [x for x, _ in roots], [y for _, y in roots]).tolist()
        result = (roots, residuals)
        if best is None or len(roots) > len(best[0]):
            best = result
        if len(roots) == count:
            break

    roots, residuals = best if best is not None else ((), ())
    mult = _multiplicities(roots, tol)
    status = "ok" if len(roots) == count else "partial"
    return RootSet(
        roots=tuple(roots),
        residuals=tuple(residuals),
        multiplicities=tuple(mult),
        status=status,
        reduced_size=None,
        retries=0,
        log=tuple(log),
    )


def _dedup(points, tol: float):
    out: list[tuple[complex, complex]] = []
    for x, y in points:
        dup = False
        for ox, oy in out:
            scale = 1.0 + abs(ox) + abs(oy)
            if abs(x - ox) + abs(y - oy) < tol * scale:
                dup = True
                break
        if not dup:
            out.append((x, y))
    return out


def _multiplicities(points, tol: float):
    mult = []
    for x, y in points:
        count = 0
        for ox, oy in points:
            scale = 1.0 + abs(ox) + abs(oy)
            if abs(x - ox) + abs(y - oy) < 10 * tol * scale:
                count += 1
        mult.append(count)
    return mult
