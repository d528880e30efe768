"""Lifting scalar representations to matrix polynomials.

Replacing every coefficient symbol c_alpha by a k x k matrix C_alpha
turns the N x N scalar representation into the Nk x Nk block matrix
``M0 (x) I_k + sum_alpha M_alpha (x) C_alpha``.  Its determinant equals
det(sum_alpha x^alpha C_alpha) whenever the scalar representation admits
unimodular Q, Z with QMZ triangular, diagonal (1, ..., 1, p, 1, ..., 1);
the explicit bivariate families do (``witness_check`` builds and checks
Q and Z exactly).  Lifting an arbitrary representation is permitted but
flagged as unwarranted: a representation padded with a skew block is a
counterexample once the C_alpha stop commuting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .biaffine import (
    SYMBOLIC_CAP,
    UniformRep,
    generic_poly_bigring,
    make_rep,
    rep_det_bigring,
    symbolic_det,
)
from .poly import (
    RATIONAL,
    AffineForm,
    Exponent,
    MultiPoly,
    enumerate_monomials,
    gradedlex_key,
    scalar_from_json,
    scalar_to_json,
)


class FamilyNotSupported(ValueError):
    """witness_check only covers the explicit bivariate families."""


@dataclass(frozen=True, eq=False)
class MatrixPoly:
    """P = sum_alpha x^alpha C_alpha with k x k scalar coefficient matrices."""

    n: int
    d: int
    k: int
    terms: dict

    @staticmethod
    def make(n: int, d: int, k: int, terms) -> "MatrixPoly":
        clean = {}
        for alpha, mat in terms.items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != n or sum(alpha) > d:
                raise ValueError(f"exponent {alpha} out of range for (n={n}, d={d})")
            rows = tuple(tuple(row) for row in mat)
            if len(rows) != k or any(len(r) != k for r in rows):
                raise ValueError("coefficient matrices must be k x k")
            if any(v != 0 for row in rows for v in row):
                clean[alpha] = rows
        return MatrixPoly(n, d, k, clean)

    def coefficient(self, alpha: Exponent):
        zero = tuple((Fraction(0),) * self.k for _ in range(self.k))
        return self.terms.get(tuple(alpha), zero)

    def evaluate(self, point) -> np.ndarray:
        out = np.zeros((self.k, self.k), dtype=complex)
        for alpha, mat in self.terms.items():
            scale = 1.0 + 0.0j
            for x, e in zip(point, alpha):
                if e:
                    scale *= complex(x) ** e
            out += scale * np.array([[complex(v) for v in row] for row in mat])
        return out

    def evaluate_exact(self, point) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.k for _ in range(self.k)]
        for alpha, mat in self.terms.items():
            scale = Fraction(1)
            for x, e in zip(point, alpha):
                if e:
                    scale *= Fraction(x) ** e
            for i in range(self.k):
                for j in range(self.k):
                    out[i][j] += scale * Fraction(mat[i][j])
        return out

    def det_poly(self) -> MultiPoly:
        """det(P) as an exact polynomial in x (rational coefficients)."""
        entries = [[MultiPoly.zero(self.n) for _ in range(self.k)] for _ in range(self.k)]
        for alpha, mat in self.terms.items():
            for i in range(self.k):
                for j in range(self.k):
                    if mat[i][j]:
                        entries[i][j] = entries[i][j] + MultiPoly.monomial(self.n, alpha, Fraction(mat[i][j]))
        return symbolic_det(entries, cap=None)


@dataclass(frozen=True)
class LiftResult:
    matrix: tuple
    warranted: bool
    n: int
    d: int
    k: int

    @property
    def size(self) -> int:
        return len(self.matrix)


def lift(rep: UniformRep, P: MatrixPoly) -> LiftResult:
    """Block substitution M0 (x) I_k + sum M_alpha (x) C_alpha.

    Warranted (determinant guaranteed to equal det(P)) only for the
    families with a triangularization witness; other lifts are returned
    with ``warranted=False``.
    """
    if (rep.n, rep.d) != (P.n, P.d):
        raise ValueError(f"dimension mismatch: rep is (n={rep.n}, d={rep.d}), P is (n={P.n}, d={P.d})")
    n, k, size = rep.n, P.k, rep.size
    blocks = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            base = rep.m0[i][j]
            cells = [[AffineForm.zero(n) for _ in range(k)] for _ in range(k)]
            for s in range(k):
                cells[s][s] = base
            blocks[i][j] = cells
    for alpha, mat in rep.malpha.items():
        c_mat = P.terms.get(alpha)
        if c_mat is None:
            continue
        for i in range(size):
            for j in range(size):
                f = mat[i][j]
                if f.is_zero():
                    continue
                cells = blocks[i][j]
                for s in range(k):
                    for t in range(k):
                        if c_mat[s][t]:
                            cells[s][t] = cells[s][t] + f.scale(Fraction(c_mat[s][t]))
    big = []
    for i in range(size):
        for s in range(k):
            row = []
            for j in range(size):
                row.extend(blocks[i][j][s])
            big.append(tuple(row))
    warranted = bool(rep.meta.get("witness"))
    return LiftResult(tuple(big), warranted, n, rep.d, k)


def evaluate_form_matrix(matrix, point) -> np.ndarray:
    """Numeric evaluation of a matrix of affine forms at a point."""
    size = len(matrix)
    out = np.empty((size, size), dtype=complex)
    for i in range(size):
        for j in range(size):
            out[i, j] = complex(matrix[i][j].evaluate(point))
    return out


def evaluate_form_matrix_exact(matrix, point):
    return [[f.evaluate([Fraction(x) for x in point]) for f in row] for row in matrix]


# -- the triangularization witness -------------------------------------------


def _poly_matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    n = a[0][0].n
    zero = MultiPoly.zero(n)
    out = [[zero] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k].is_zero():
                continue
            for j in range(cols):
                if not b[k][j].is_zero():
                    out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def _witness_blocks(rep: UniformRep):
    family = rep.meta.get("family")
    if family not in ("repjan", "minunif") or rep.d < 1:
        raise FamilyNotSupported(f"no triangularization witness for family {family!r}")
    m1 = rep.meta["v_size"]
    m2 = rep.meta["w_size"]
    return m1, m2


def witness_check(rep: UniformRep, verbose: bool = False) -> bool:
    """Exhibit det(M) = p via unimodular triangularization, exactly.

    Builds Q (upper-triangular in powers of y), Z (lower-triangular in
    powers of x) and signed permutations P_L, P_R, all of determinant 1,
    such that P_L Q M Z P_R is lower-triangular with diagonal
    (1, ..., 1, p, 1, ..., 1).  Everything is checked symbolically in
    the combined (x, c) ring.
    """
    m1, m2 = _witness_blocks(rep)
    size = rep.size
    exps = enumerate_monomials(rep.n, rep.d)
    nvars = rep.n + len(exps)
    zero = MultiPoly.zero(nvars)
    one = MultiPoly.constant(nvars, 1)

    def xpow(e: int) -> MultiPoly:
        return MultiPoly.monomial(nvars, (e,) + (0,) * (nvars - 1), 1)

    def ypow(e: int) -> MultiPoly:
        return MultiPoly.monomial(nvars, (0, e) + (0,) * (nvars - 2), 1)

    # Q = blockdiag(I, upper-triangular y-powers); Z = blockdiag(lower x-powers, I)
    q = [[zero] * size for _ in range(size)]
    z = [[zero] * size for _ in range(size)]
    for i in range(m1 - 1):
        q[i][i] = one
    for i in range(m2):
        for j in range(i, m2):
            q[m1 - 1 + i][m1 - 1 + j] = ypow(j - i)
    for i in range(m1):
        for j in range(i + 1):
            z[i][j] = xpow(i - j)
    for i in range(m2 - 1):
        z[m1 + i][m1 + i] = one
    # triangular with unit diagonal, hence det(Q) = det(Z) = 1
    assert all(q[i][i].equals(one) and z[i][i].equals(one) for i in range(size))

    c_index = {alpha: pos for pos, alpha in enumerate(exps)}
    from .biaffine import _bigring_entry

    m = [[_bigring_entry(rep, i, j, c_index) for j in range(size)] for i in range(size)]
    t = _poly_matmul(_poly_matmul(q, m), z)

    # permutations sinking p to the diagonal
    top = list(range(m1 - 1))
    row_order = ([top[-1]] + top[:-1] if top else []) + list(range(m1 - 1, size))
    col_order = list(range(size))
    col_order[0], col_order[m1 - 1] = col_order[m1 - 1], col_order[0]
    tp = [[t[r][c] for c in col_order] for r in row_order]

    sign_l = _perm_sign(row_order)
    sign_r = _perm_sign(col_order)
    p_pos = m1 - 1
    generic = generic_poly_bigring(rep.n, rep.d)

    # diagonal signs t_i with T'[i][i] = t_i * target_i
    t_diag = []
    for i in range(size):
        entry = tp[i][i]
        target = generic if i == p_pos else one
        if entry.equals(target):
            t_diag.append(1)
        elif entry.equals(-target):
            t_diag.append(-1)
        else:
            return False
    # F, E in {+-1}^size with F_i E_i = t_i, det(F) = sign(P_L), det(E) = sign(P_R)
    prod_t = 1
    for v in t_diag:
        prod_t *= v
    if prod_t != sign_l * sign_r:
        return False
    f = list(t_diag)
    e = [1] * size
    if _prod(f) != sign_l:
        f[0], e[0] = -f[0], -e[0]
    if _prod(f) != sign_l or _prod(e) != sign_r:
        return False

    for i in range(size):
        for j in range(size):
            entry = tp[i][j].scale(f[i] * e[j])
            if j > i and not entry.is_zero():
                return False
            if i == j:
                target = generic if i == p_pos else one
                if not entry.equals(target):
                    return False
    if verbose:
        print(f"witness: size={size}, p at diagonal position {p_pos}, P_L sign {sign_l}, P_R sign {sign_r}")
    return True


def _perm_sign(order) -> int:
    seen = [False] * len(order)
    sign = 1
    for i in range(len(order)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


# -- the skew padding counterexample -----------------------------------------


def skew_pad(rep: UniformRep, alpha: Exponent, beta: Exponent) -> UniformRep:
    """Pad with the 4x4 skew block: det gains the factor 1 + c_a c_b - c_b c_a.

    The factor is 1 for scalars, so the padded representation is still
    valid; after lifting with non-commuting coefficient matrices the
    determinants genuinely differ.
    """
    alpha, beta = tuple(alpha), tuple(beta)
    n, size = rep.n, rep.size
    if alpha == beta:
        raise ValueError("need two distinct exponents")
    big = size + 4
    zero = AffineForm.zero(n)
    one = AffineForm.const(n, 1)

    def padded(small, corner):
        out = [[zero] * big for _ in range(big)]
        for i in range(size):
            for j in range(size):
                out[i][j] = small[i][j]
        for (i, j), v in corner.items():
            out[size + i][size + j] = one.scale(v)
        return out

    m0 = padded(rep.m0, {(0, 3): 1, (1, 2): 1, (2, 1): -1, (3, 0): -1, (3, 3): 1})
    empty = [[zero] * size for _ in range(size)]
    malpha = {}
    for gamma in enumerate_monomials(n, rep.d):
        small = rep.malpha.get(gamma, empty)
        corner = {}
        if gamma == alpha:
            corner = {(0, 1): 1, (1, 0): -1}
        elif gamma == beta:
            corner = {(0, 2): 1, (2, 0): -1}
        malpha[gamma] = padded(small, corner)
    meta = dict(rep.meta)
    meta.update({"family": "skew-pad", "witness": False})
    return make_rep(n, rep.d, m0, malpha, meta)


# -- JSON --------------------------------------------------------------------


def matrixpoly_to_json(P: MatrixPoly) -> dict:
    terms = []
    for alpha in sorted(P.terms, key=gradedlex_key):
        mat = P.terms[alpha]
        terms.append({"exp": list(alpha), "mat": [[scalar_to_json(v) for v in row] for row in mat]})
    return {"n": P.n, "d": P.d, "k": P.k, "terms": terms}


def matrixpoly_from_json(obj: dict) -> MatrixPoly:
    terms = {}
    for t in obj.get("terms", []):
        terms[tuple(t["exp"])] = [[scalar_from_json(v) for v in row] for row in t["mat"]]
    return MatrixPoly.make(int(obj["n"]), int(obj["d"]), int(obj["k"]), terms)
