"""Bivariate system solving via a two-parameter eigenvalue problem.

Pipeline: specialise determinantal representations of p and q at their
coefficients, form the Kronecker operator-determinant matrices

    Delta0 = A1 (x) B2 - A2 (x) B1
    Delta1 = A2 (x) B0 - A0 (x) B2
    Delta2 = A0 (x) B1 - A1 (x) B0,

extract the common regular part of the singular pencils
(Delta1 - x Delta0, Delta2 - y Delta0) by a rank-revealing staircase
reduction, and read the roots off simultaneously triangularized
quotients.  A random plane rotation of the pair (p, q) leaves the roots
unchanged and is used as a retry heuristic when a rank decision is too
close to call.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg

from . import dense
from .biaffine import UniformRep, sparse_cells
from .construct import construct
from .dense import DensePoly
from .poly import COMPLEX, MultiPoly
from .roots import RootSet

# The numeric path calls neither the exact specialisation nor the scalar
# residual, but both names stay bound here: the benchmark's layer tracer
# (perfbench/tracer.py) patches them in this module.
from .biaffine import specialize  # noqa: F401
from .roots import normalized_residual  # noqa: F401

#: solver refuses beyond this degree by default (Delta size (2d-1)^2)
DEGREE_CAP = 20


class RankDecisionAmbiguous(RuntimeError):
    """A singular-value gap fell below the safety factor."""


class NoRegularPart(RuntimeError):
    """The staircase reduction deleted everything."""


class CommutationFailure(RuntimeError):
    """The reduced quotients do not commute to tolerance."""


@dataclass(frozen=True)
class TwoParamProblem:
    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    b0: np.ndarray
    b1: np.ndarray
    b2: np.ndarray

    @property
    def sizes(self) -> tuple[int, int]:
        return self.a0.shape[0], self.b0.shape[0]


@dataclass(frozen=True)
class DeltaTriple:
    d0: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    log: tuple = ()

    @property
    def shape(self):
        return self.d0.shape

    @cached_property
    def scale(self) -> float:
        """Pencil scale: the largest spectral norm of the three matrices."""
        return max(
            float(np.linalg.norm(self.d0, 2)),
            float(np.linalg.norm(self.d1, 2)),
            float(np.linalg.norm(self.d2, 2)),
            1e-300,
        )


@lru_cache(maxsize=64)
def _cached_rep(d: int, method: str) -> UniformRep:
    return construct(2, d, method)


@lru_cache(maxsize=64)
def _cached_tensor(d: int, method: str):
    """Float coefficient tensor of ``_cached_rep(d, method)``.

    Returns (index, base, tensor): ``index`` maps a coefficient exponent
    to its column, and the stacked matrices (A0, A1, A2) of the
    specialisation at a coefficient vector c are ``base + tensor @ c``,
    reshaped to ``base.shape`` = (3, size, size).  In the constructed
    representations each of the three parts of an entry (constant, x and
    y coefficient) takes at most one c_alpha, so each row of ``tensor``
    has at most one nonzero and the product rounds exactly as the exact
    :func:`specialize` converted to floats does.
    """
    rep = _cached_rep(d, method)
    size = rep.size
    index = {alpha: k for k, alpha in enumerate(rep.malpha)}
    base = np.zeros((3, size, size))
    tensor = np.zeros((3, size, size, len(index)))
    for i, row in enumerate(rep.m0):
        for j, f in enumerate(row):
            base[:, i, j] = (f.constant, *f.linear)
    for alpha, cells in sparse_cells(rep):
        k = index[alpha]
        for i, j, f in cells:
            tensor[:, i, j, k] = (f.constant, *f.linear)
    tensor = tensor.reshape(3 * size * size, len(index))
    # shared by every caller through the cache
    base.flags.writeable = tensor.flags.writeable = False
    return index, base, tensor


def _coefficient_matrices(p: MultiPoly, d: int, method: str):
    """(A0, A1, A2) with det(A0 + x A1 + y A2) = p under ``_cached_rep(d, method)``."""
    if p.degree() > d:
        raise ValueError(f"degree overflow: polynomial degree {p.degree()} exceeds d={d}")
    index, base, tensor = _cached_tensor(d, method)
    c = np.zeros(len(index), dtype=complex)
    for alpha, v in p.terms.items():
        k = index.get(alpha)
        if k is not None:
            c[k] = v
    mats = base + (tensor @ c.real).reshape(base.shape)
    imag = (tensor @ c.imag).reshape(base.shape)
    if imag.any():
        mats = mats + 1j * imag
    return tuple(mats)


def to_two_param(p: MultiPoly, q: MultiPoly, method: str = "minunif", degrees=None) -> TwoParamProblem:
    """Specialise representations of p and q; real inputs give real matrices.

    ``degrees`` overrides the degree bounds (to embed a polynomial in a
    larger representation than its actual degree requires).
    """
    if p.n != 2 or q.n != 2:
        raise ValueError("bivariate systems only")
    if p.is_zero() or q.is_zero():
        raise ValueError("zero polynomial input")
    pw = p if p.kind == COMPLEX else p.to_complex()
    qw = q if q.kind == COMPLEX else q.to_complex()
    if degrees is None:
        degrees = (max(int(pw.degree()), 0), max(int(qw.degree()), 0))
    a0, a1, a2 = _coefficient_matrices(pw, degrees[0], method)
    b0, b1, b2 = _coefficient_matrices(qw, degrees[1], method)
    return TwoParamProblem(a0, a1, a2, b0, b1, b2)


def build_deltas(tp: TwoParamProblem) -> DeltaTriple:
    """The three Kronecker operator determinants."""
    d0 = np.kron(tp.a1, tp.b2) - np.kron(tp.a2, tp.b1)
    d1 = np.kron(tp.a2, tp.b0) - np.kron(tp.a0, tp.b2)
    d2 = np.kron(tp.a0, tp.b1) - np.kron(tp.a1, tp.b0)
    return DeltaTriple(d0, d1, d2)


# -- staircase reduction ------------------------------------------------------


def _numeric_rank(svals: np.ndarray, size: int, scale: float, tol: float | None, gap_ratio: float, log: list, label: str) -> int:
    if len(svals) == 0:
        return 0
    # threshold anchored to the norm of the original pencil: all the
    # transforms are unitary, so true zeros stay at eps * scale even in
    # submatrices whose own largest singular value has shrunk
    threshold = tol * scale if tol is not None else np.finfo(float).eps * size * scale
    r = int(np.sum(svals > threshold))
    if 0 < r < len(svals):
        edge = float(svals[r])
        gap = float(svals[r - 1]) / edge if edge > 0.0 else np.inf
        if gap < gap_ratio:
            log.append(f"{label}: ambiguous rank {r} of {len(svals)} (gap {gap:.2e} < {gap_ratio:.0e})")
            raise RankDecisionAmbiguous(log[-1])
    else:
        edge = 0.0
    log.append(f"{label}: rank {r}/{len(svals)}, sigma_r={float(svals[r - 1]) if r else 0.0:.3e}, next={edge:.3e}")
    return r


def staircase(dt: DeltaTriple, tol: float | None = None, gap_ratio: float = 1e3, max_steps: int = 400) -> DeltaTriple:
    """Extract the common regular part of the two singular pencils.

    Alternates column and row compressions: kernel directions of Delta0
    are dropped together with the rows spanned by the action of Delta1
    and Delta2 on them (dually for the left kernel), until Delta0 is
    square and numerically nonsingular.  Every rank decision is logged;
    a singular-value gap below ``gap_ratio`` raises
    :class:`RankDecisionAmbiguous` so the caller can retry on a rotated
    system.
    """
    d0, d1, d2 = dt.d0, dt.d1, dt.d2
    size0 = max(d0.shape)
    scale = dt.scale
    log: list[str] = list(dt.log)
    for step in range(max_steps):
        m, n = d0.shape
        if m == 0 or n == 0:
            raise NoRegularPart("staircase emptied the pencil")
        u, svals, vh = np.linalg.svd(d0)
        r = _numeric_rank(svals, size0, scale, tol, gap_ratio, log, f"step {step} delta0[{m}x{n}]")
        if r == m == n:
            return DeltaTriple(d0, d1, d2, tuple(log))
        if r < n:
            # column compression: kernel of Delta0, then drop the rows in
            # which Delta1/Delta2 act on that kernel
            v1 = vh[:r].conj().T
            v2 = vh[r:].conj().T
            w = np.hstack([d1 @ v2, d2 @ v2])
            uw, ws, _ = np.linalg.svd(w)
            s = _numeric_rank(ws, size0, scale, tol, gap_ratio, log, f"step {step} action[{w.shape[0]}x{w.shape[1]}]")
            u2 = uw[:, s:]
            d0 = u2.conj().T @ d0 @ v1
            d1 = u2.conj().T @ d1 @ v1
            d2 = u2.conj().T @ d2 @ v1
        else:
            # row compression: left kernel of Delta0, dual construction
            u1 = u[:, :r]
            u2 = u[:, r:]
            w = np.vstack([u2.conj().T @ d1, u2.conj().T @ d2])
            _, ws, wvh = np.linalg.svd(w)
            s = _numeric_rank(ws, size0, scale, tol, gap_ratio, log, f"step {step} coaction[{w.shape[0]}x{w.shape[1]}]")
            v2 = wvh[s:].conj().T
            d0 = u1.conj().T @ d0 @ v2
            d1 = u1.conj().T @ d1 @ v2
            d2 = u1.conj().T @ d2 @ v2
    raise NoRegularPart("staircase failed to terminate")


def commutator_defect(dt: DeltaTriple) -> float:
    """Scaled norm of [Delta0^-1 Delta1, Delta0^-1 Delta2] on the reduced triple."""
    g1 = np.linalg.solve(dt.d0, dt.d1)
    g2 = np.linalg.solve(dt.d0, dt.d2)
    comm = g1 @ g2 - g2 @ g1
    scale = max(1.0, float(np.linalg.norm(g1) * np.linalg.norm(g2)))
    return float(np.linalg.norm(comm)) / scale


# -- commuting eigenvalue extraction ------------------------------------------


def solve_commuting(dt: DeltaTriple, commute_tol: float = 1e-6, seed: int = 0):
    """Joint eigenvalues of the commuting quotients of a regular triple.

    A single unitary similarity (the Schur basis of Delta0^-1 Delta1)
    triangularizes both quotients; x comes from the first diagonal, y
    from the transformed second quotient.  Clustered x eigenvalues are
    handled by re-triangularizing a random separating combination of the
    two quotients, which keeps the x/y readout consistent pairwise.
    """
    g1 = np.linalg.solve(dt.d0, dt.d1).astype(complex)
    g2 = np.linalg.solve(dt.d0, dt.d2).astype(complex)
    size = g1.shape[0]
    if size == 0:
        return np.array([]), np.array([])

    t1, qmat = scipy.linalg.schur(g1, output="complex")
    s2 = qmat.conj().T @ g2 @ qmat
    xs = np.diag(t1)
    scale_x = max(1.0, float(np.max(np.abs(xs))))
    clustered = any(
        abs(xs[i] - xs[j]) < 1e-7 * scale_x for i in range(size) for j in range(i + 1, size)
    )
    defect = _lower_defect(s2)
    if not clustered and defect <= commute_tol:
        return xs, np.diag(s2)

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(4):
        theta = rng.uniform(0.15, 1.4)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        _, qmat = scipy.linalg.schur(g1 + theta * phase * g2, output="complex")
        r1 = qmat.conj().T @ g1 @ qmat
        r2 = qmat.conj().T @ g2 @ qmat
        defect = max(_lower_defect(r1), _lower_defect(r2))
        if best is None or defect < best[0]:
            best = (defect, np.diag(r1).copy(), np.diag(r2).copy())
        if defect <= commute_tol:
            break
    defect, xs, ys = best
    if defect > commute_tol:
        raise CommutationFailure(f"simultaneous triangularization defect {defect:.2e} exceeds {commute_tol:.0e}")
    return xs, ys


def _lower_defect(t: np.ndarray) -> float:
    strict_lower = np.tril(t, -1)
    return float(np.linalg.norm(strict_lower)) / max(1.0, float(np.linalg.norm(t)))


# -- rotation heuristic, refinement, driver ------------------------------------


def rotate_system(p: MultiPoly, q: MultiPoly, seed: int = 0):
    """Replace (p, q) by (c p + s q, -s p + c q) with random c^2 + s^2 = 1.

    The root set is unchanged (the combination is invertible) and so is
    the conditioning of the roots; only the staircase rank decisions see
    a different matrix.
    """
    rng = random.Random(seed)
    theta = rng.uniform(0.2, math.pi - 0.2)
    c, s = math.cos(theta), math.sin(theta)
    pw = p if p.kind == COMPLEX else p.to_complex()
    qw = q if q.kind == COMPLEX else q.to_complex()
    return pw.scale(c) + qw.scale(s), pw.scale(-s) + qw.scale(c), (c, s)


def _polish(p: DensePoly, q: DensePoly, xs, ys, best, iters: int):
    """Newton on all points at once.

    Per point, a step is kept only if the residual does not rise; a
    rejected step, a non-finite point or a singular Jacobian stops that
    point.  Returns the points, their residuals and a boolean mask of
    the points stopped at a singular Jacobian.
    """
    xs = np.array(xs, dtype=complex)
    ys = np.array(ys, dtype=complex)
    best = np.array(best, dtype=float)
    singular = np.zeros(len(xs), dtype=bool)
    active = np.ones(len(xs), dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(max(0, iters)):
            active &= np.isfinite(np.abs(xs)) & np.isfinite(np.abs(ys))
            idx = np.flatnonzero(active)
            if not len(idx):
                break
            step_x, step_y, det, jscale = dense.jacobian_step(p, q, xs[idx], ys[idx])
            # the comparison is phrased so that NaN and an underflowed
            # threshold both stop the point
            floor = 1e-12 * jscale
            regular = (np.abs(det) > floor) & (floor > 0.0)
            singular[idx[~regular]] = True
            active[idx[~regular]] = False
            idx, step_x, step_y = idx[regular], step_x[regular], step_y[regular]
            nx, ny = xs[idx] - step_x, ys[idx] - step_y
            cand = dense.residual(p, q, nx, ny)
            keep = cand <= best[idx]
            xs[idx[keep]], ys[idx[keep]], best[idx[keep]] = nx[keep], ny[keep], cand[keep]
            active[idx[~keep]] = False
    return xs, ys, best, singular


def refine(roots: RootSet, p: MultiPoly, q: MultiPoly, iters: int = 5) -> RootSet:
    """Newton polish on the 2x2 Jacobian, on all roots at once; steps are
    accepted only if the residual does not increase, and singular-Jacobian
    roots are kept unrefined (flagged in the log, in root order).

    Large roots are additionally polished in reciprocal coordinates
    (u, v) = (1/x, 1/y) on the degree-reversed polynomials, where the
    evaluation is well conditioned; whichever residual is smaller wins.
    """
    pd, qd = DensePoly.from_poly(p), DensePoly.from_poly(q)
    xs = np.array([complex(x) for x, _ in roots.roots], dtype=complex)
    ys = np.array([complex(y) for _, y in roots.roots], dtype=complex)
    xs, ys, best, singular = _polish(pd, qd, xs, ys, roots.residuals, iters)
    notes = list(roots.log)
    notes += [
        f"root ({complex(xs[i]):.3g},{complex(ys[i]):.3g}): singular Jacobian, left unrefined"
        for i in np.flatnonzero(singular)
    ]
    with np.errstate(all="ignore"):
        far = np.flatnonzero(
            (best > 1e-12) & (np.abs(xs) > 2.0) & (np.abs(xs) < 1e12) & (np.abs(ys) > 2.0) & (np.abs(ys) < 1e12)
        )
    if len(far):
        pr, qr = pd.reversed(), qd.reversed()
        u, v = 1.0 / xs[far], 1.0 / ys[far]
        u, v, _, _ = _polish(pr, qr, u, v, dense.residual(pr, qr, u, v), iters + 4)
        back = (u != 0) & (v != 0)
        far, u, v = far[back], u[back], v[back]
        cand = dense.residual(pd, qd, 1.0 / u, 1.0 / v)
        win = cand < best[far]
        xs[far[win]], ys[far[win]], best[far[win]] = 1.0 / u[win], 1.0 / v[win], cand[win]
    return RootSet(
        roots=tuple((complex(x), complex(y)) for x, y in zip(xs, ys)),
        residuals=tuple(float(r) for r in best),
        multiplicities=roots.multiplicities,
        status=roots.status,
        reduced_size=roots.reduced_size,
        retries=roots.retries,
        log=tuple(notes),
        failure=roots.failure,
    )


def _closeness(xs: np.ndarray, ys: np.ndarray, tol: float) -> np.ndarray:
    """close[i, j]: |x_i - x_j| + |y_i - y_j| < tol * (1 + |x_j| + |y_j|)."""
    dist = np.abs(xs[:, None] - xs[None, :])
    dist += np.abs(ys[:, None] - ys[None, :])
    return dist < tol * (1.0 + np.abs(xs) + np.abs(ys))[None, :]


def _dedup_roots(pairs, tol: float = 1e-7):
    """Keep one representative per root cluster (best residual first).

    Greedy in order of residual: a point is dropped when it lies within
    ``tol`` (relative to the kept point) of a point already kept.
    """
    order = sorted(range(len(pairs)), key=lambda i: pairs[i][1])
    if not order:
        return []
    pts = np.array([pairs[i][0] for i in order], dtype=complex)
    close = _closeness(pts[:, 0], pts[:, 1], tol)
    alive = np.ones(len(order), dtype=bool)
    kept = []
    for i in range(len(order)):
        if alive[i]:
            kept.append(pairs[order[i]])
            alive &= ~close[:, i]
    return kept


def _multiplicity_estimates(points, tol: float = 1e-6):
    """Per point, how many points (itself included) lie within ``tol`` of it."""
    if not len(points):
        return ()
    pts = np.array(points, dtype=complex)
    return tuple(int(c) for c in _closeness(pts[:, 0], pts[:, 1], tol).sum(axis=1))


# -- rank-completing fallback for deep staircase failures ----------------------

#: shifts tried before the shift-and-invert step gives up
SHIFT_DRAWS = 4
#: smallest accepted reciprocal condition number (1-norm) of the shifted pencil
SHIFT_RCOND = 1e-8
#: scale of the random redrawn shifts.  The shifted Delta pencils are
#: conditioned alike for every phase of sigma but lose conditioning fast
#: with |sigma| beyond 1: measured on the perturbed x pencils of degree-12
#: to 15 systems, rcond is about 1e-7 for |sigma| <= 1, 1e-9 at 1.3 and
#: 1e-13 at 2.2
SHIFT_SCALE = 0.25


def _conditioned_shift(a: np.ndarray, b: np.ndarray, shifts):
    """The first sigma of ``shifts`` with a well-conditioned a - sigma b, and its LU.

    A shift on or near an eigenvalue of the pencil, or a large one for
    the Delta pencils (see ``SHIFT_SCALE``), makes a - sigma b nearly
    singular, and the inverted matrix built on it loses accuracy.  The reciprocal condition number is estimated
    by LAPACK gecon from the LU, at O(n^2) cost; a shift below
    ``SHIFT_RCOND`` is never used.  Raises :class:`NoRegularPart` when no
    shift qualifies.
    """
    for sigma in shifts:
        s = a - sigma * b
        anorm = np.linalg.norm(s, 1)
        with warnings.catch_warnings():
            # an exactly singular shift is caught by the condition estimate
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(s, overwrite_a=True, check_finite=False)
        (gecon,) = scipy.linalg.get_lapack_funcs(("gecon",), (lu,))
        rcond, info = gecon(lu, anorm, norm="1")
        # phrased so that a NaN estimate is rejected
        if info == 0 and rcond >= SHIFT_RCOND:
            return sigma, (lu, piv)
    raise NoRegularPart(f"no shift left the pencil conditioned (rcond >= {SHIFT_RCOND:.0e})")


def _completed_pencil_eigs(da: np.ndarray, d0: np.ndarray, scale: float, rng) -> np.ndarray:
    """Finite regular eigenvalues of the singular pencil (da - lambda d0).

    The pencil is regularized by a random rank-completing perturbation of
    rank k = size - (normal rank); eigenvalues belonging to the original
    pencil are recognized by their left/right eigenvectors being
    orthogonal to the perturbation ranges.  k = 0 (a regular pencil)
    takes the same path with an empty perturbation.

    The perturbed pencil (A, B) is solved by shift and invert instead of
    the QZ algorithm: for a random shift sigma with S = A - sigma B well
    conditioned (see :func:`_conditioned_shift`), the standard
    eigenproblem of M = S^-1 B has the eigenvalues mu = 1/(lambda - sigma),
    the pencil's right eigenvectors, and left eigenvectors w for which
    S^-H w are the pencil's.  Infinite eigenvalues of the pencil show up as
    mu at rounding level, |mu| <= n eps ||M||_F, and are dropped.
    """
    size = da.shape[0]
    rho = 0
    for _ in range(2):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        svals = np.linalg.svd(da - lam * d0, compute_uv=False)
        rho = max(rho, int(np.sum(svals > np.finfo(float).eps * size * scale)))
    k = size - rho
    u = np.linalg.qr(rng.standard_normal((size, k)) + 1j * rng.standard_normal((size, k)))[0]
    v = np.linalg.qr(rng.standard_normal((size, k)) + 1j * rng.standard_normal((size, k)))[0]
    tau = 0.1 * scale
    amp = rng.uniform(0.5, 1.5, k) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k))
    amp2 = rng.uniform(0.5, 1.5, k) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k))
    da_p = da + tau * (u * amp) @ v.conj().T
    d0_p = d0 + tau * (u * amp2) @ v.conj().T
    # the last rank probe is tried first, at no extra draw; redraws stay
    # small (SHIFT_SCALE)
    shifts = itertools.chain(
        [lam],
        (SHIFT_SCALE * complex(rng.standard_normal(), rng.standard_normal()) for _ in range(SHIFT_DRAWS - 1)),
    )
    sigma, lu = _conditioned_shift(da_p, d0_p, shifts)
    # each n x n input is released as soon as it is used, so that at most
    # two of them are alive next to the eig workspace
    del da_p
    m = scipy.linalg.lu_solve(lu, d0_p, overwrite_b=True, check_finite=False)
    del d0_p
    mu_floor = size * np.finfo(float).eps * np.linalg.norm(m)
    mu, wl, vr = scipy.linalg.eig(m, left=True, right=True, overwrite_a=True, check_finite=False)
    del m
    vl = scipy.linalg.lu_solve(lu, wl, trans=2, overwrite_b=True, check_finite=False)
    s_right = np.linalg.norm(v.conj().T @ vr, axis=0) / np.linalg.norm(vr, axis=0)
    s_left = np.linalg.norm(u.conj().T @ vl, axis=0) / np.linalg.norm(vl, axis=0)
    keep = (np.abs(mu) > mu_floor) & (np.maximum(s_right, s_left) < 1e-6)
    return sigma + 1.0 / mu[keep]


def _rank_completed_roots(p: MultiPoly, q: MultiPoly, dt: DeltaTriple, expected: int, seed: int):
    """Root candidates from two regularized singular pencils.

    The x (resp. y) candidates contain all root coordinates, possibly
    along with extra regular eigenvalues that the common reduction of
    the pair would have removed; each x is therefore paired with its
    best-residual y, polished by Newton, and gated on the residual, so
    spurious candidates drop out instead of being counted.
    """
    rng = np.random.default_rng(seed)
    xs = _completed_pencil_eigs(dt.d1.astype(complex), dt.d0.astype(complex), dt.scale, rng)
    ys = _completed_pencil_eigs(dt.d2.astype(complex), dt.d0.astype(complex), dt.scale, rng)
    if len(xs) < expected or len(ys) < expected:
        raise NoRegularPart(f"rank completion found {len(xs)} x and {len(ys)} y candidates, expected >= {expected}")
    res = np.maximum(DensePoly.from_poly(p).residual_grid(xs, ys), DensePoly.from_poly(q).residual_grid(xs, ys))
    pairs = [(complex(xs[i]), complex(ys[j])) for i, j in enumerate(np.argmin(res, axis=1))]
    pairs += [(complex(xs[i]), complex(ys[j])) for j, i in enumerate(np.argmin(res, axis=0))]
    return pairs


def solve(
    p: MultiPoly,
    q: MultiPoly,
    method: str = "minunif",
    tol: float | None = None,
    gap_ratio: float = 1e3,
    retries: int = 3,
    refine_iters: int = 5,
    seed: int = 0,
    commute_tol: float = 1e-6,
    degree_cap: int = DEGREE_CAP,
) -> RootSet:
    """Full pipeline: representations -> Delta pencils -> staircase -> roots.

    On an ambiguous rank decision (or a commutation failure) the system
    is rotated and retried up to ``retries`` times; after the budget the
    best partial result is returned with a machine-readable failure
    note rather than raising.
    """
    if p.n != 2 or q.n != 2:
        raise ValueError("bivariate systems only")
    if p.is_zero() or q.is_zero():
        raise ValueError("zero polynomial input")
    d1 = max(int(p.degree()), 0)
    d2 = max(int(q.degree()), 0)
    if max(d1, d2) > degree_cap:
        raise ValueError(f"degree {max(d1, d2)} exceeds the solver cap {degree_cap} (override degree_cap to force)")
    expected = d1 * d2
    if expected == 0:
        return RootSet((), (), (), status="ok", reduced_size=0, retries=0)

    # unit coefficient norm keeps the pencil scale (and therefore the rank
    # thresholds) independent of the input scaling; the roots are unchanged
    def _unit(poly: MultiPoly) -> MultiPoly:
        w = poly if poly.kind == COMPLEX else poly.to_complex()
        norm = math.sqrt(sum(abs(c) ** 2 for c in w.terms.values()))
        return w.scale(1.0 / norm)

    pd, qd = DensePoly.from_poly(p), DensePoly.from_poly(q)
    work = (_unit(p), _unit(q))
    attempts: list[RootSet] = []
    failure = None
    pencil_size = (2 * d1 - 1) * (2 * d2 - 1)
    if tol is not None:
        ladder = ((tol, gap_ratio),)
    elif pencil_size > 600:
        # very large pencils: one strict pass, then hand over to the
        # rank-completing fallback instead of burning minutes of ladders
        ladder = ((None, gap_ratio), (1e-11, 1.0))
    else:
        # escalate the rank threshold first; as a last resort accept the
        # threshold cut without the gap veto and let the Bezout-count,
        # commutation, and residual gates below validate the reduction
        ladder = ((None, gap_ratio), (3e-13, gap_ratio), (1e-11, gap_ratio), (1e-11, 1.0), (1e-9, 1.0))
    effective_retries = min(retries, 1) if pencil_size > 600 else retries
    for attempt in range(max(1, effective_retries + 1)):
        tp = None
        try:
            tp = to_two_param(work[0], work[1], method=method)
            dt = build_deltas(tp)
        except np.linalg.LinAlgError as exc:
            failure = f"attempt {attempt}: {exc}"
        if tp is not None:
            for level, (step_tol, step_gap) in enumerate(ladder):
                try:
                    reduced = staircase(dt, tol=step_tol, gap_ratio=step_gap)
                    log = list(reduced.log)
                    if level:
                        log.append(f"rank ladder level {level}: tol={step_tol}, gap_ratio={step_gap}")
                    defect = commutator_defect(reduced)
                    log.append(f"reduced size {reduced.shape[0]}, commutator defect {defect:.3e}")
                    if reduced.shape[0] != expected:
                        raise NoRegularPart(f"reduced size {reduced.shape[0]} != Bezout count {expected}")
                    if defect > commute_tol:
                        raise CommutationFailure(f"commutator defect {defect:.2e}")
                    xs, ys = solve_commuting(reduced, commute_tol=commute_tol, seed=seed + attempt)
                    pairs = [(complex(x), complex(y)) for x, y in zip(xs, ys)]
                    rs = RootSet(
                        roots=tuple(pairs),
                        residuals=tuple(dense.residual(pd, qd, xs, ys).tolist()),
                        multiplicities=_multiplicity_estimates(pairs),
                        status="ok" if len(pairs) == expected else "partial",
                        reduced_size=reduced.shape[0],
                        retries=attempt,
                        log=tuple(log),
                    )
                    rs = refine(rs, p, q, iters=refine_iters)
                    attempts.append(rs)
                    if len(rs) == expected:
                        return rs
                except (RankDecisionAmbiguous, NoRegularPart, CommutationFailure, np.linalg.LinAlgError) as exc:
                    failure = f"attempt {attempt}: {exc}"
        if attempt < effective_retries:
            rotated_p, rotated_q, _ = rotate_system(work[0], work[1], seed=seed + 17 * (attempt + 1))
            work = (rotated_p, rotated_q)

    # deep staircase failure: regularize the two singular pencils directly by
    # rank-completing perturbations and pair the recovered x and y values
    for attempt in range(2):
        base = (_unit(p), _unit(q))
        if attempt:
            base = rotate_system(base[0], base[1], seed=seed + 977)[:2]
        try:
            dt = build_deltas(to_two_param(base[0], base[1], method=method))
            pairs = _rank_completed_roots(base[0], base[1], dt, expected, seed + attempt)
        except (NoRegularPart, np.linalg.LinAlgError) as exc:
            failure = f"rank completion: {exc}"
            continue
        pxs, pys = np.array(pairs).T
        rs = RootSet(
            roots=tuple(pairs),
            residuals=tuple(dense.residual(pd, qd, pxs, pys).tolist()),
            multiplicities=(1,) * len(pairs),
            status="ok",
            reduced_size=expected,
            retries=retries,
            log=("staircase exhausted; rank-completing perturbation fallback",),
        )
        rs = refine(rs, p, q, iters=max(refine_iters, 10))
        # a second, longer polish for stragglers only (near-multiple roots
        # converge slowly)
        close = [i for i, res in enumerate(rs.residuals) if 1e-9 <= res < 1e-3]
        if close:
            sub = RootSet(
                roots=tuple(rs.roots[i] for i in close),
                residuals=tuple(rs.residuals[i] for i in close),
                multiplicities=(1,) * len(close),
            )
            sub = refine(sub, p, q, iters=60)
            merged_roots = list(rs.roots)
            merged_res = list(rs.residuals)
            for pos, i in enumerate(close):
                merged_roots[i] = sub.roots[pos]
                merged_res[i] = sub.residuals[pos]
            rs = RootSet(roots=tuple(merged_roots), residuals=tuple(merged_res), multiplicities=rs.multiplicities, log=rs.log)
        # near-multiple roots plateau around sqrt(eps), far above machine
        # precision but far below the ~1e-1 residuals of spurious pairs
        survivors = _dedup_roots(
            [(r, res) for r, res in zip(rs.roots, rs.residuals) if res < 1e-6]
        )
        roots = tuple(r for r, _ in survivors)
        cleaned = RootSet(
            roots=roots,
            residuals=tuple(res for _, res in survivors),
            multiplicities=_multiplicity_estimates(roots),
            status="ok" if len(survivors) == expected else "partial",
            reduced_size=expected,
            retries=retries,
            log=("staircase exhausted; rank-completing perturbation fallback",),
        )
        if len(survivors) == expected:
            return cleaned
        attempts.append(cleaned)
    if attempts:
        best = max(attempts, key=len)
        return RootSet(
            roots=best.roots,
            residuals=best.residuals,
            multiplicities=best.multiplicities,
            status="partial",
            reduced_size=best.reduced_size,
            retries=retries,
            log=best.log,
            failure=failure or f"recovered {len(best)} of {expected} roots",
        )
    return RootSet((), (), (), status="failed", reduced_size=None, retries=retries, failure=failure)
