from __future__ import annotations

import math

import numpy as np
import pytest

from detrep.poly import COMPLEX, MultiPoly
from detrep.roots import RootSet, normalized_residual, rootset_from_json, rootset_to_csv, rootset_to_json
from detrep.twopareig import (
    build_deltas,
    commutator_defect,
    refine,
    rotate_system,
    solve,
    solve_commuting,
    staircase,
    to_two_param,
)

from conftest import pairing_distance, random_full_system


def _poly(terms):
    return MultiPoly.make(2, {k: complex(v) for k, v in terms.items()}, COMPLEX)


CIRCLE = _poly({(2, 0): 1, (0, 2): 1, (0, 0): -1})
LINE = _poly({(1, 0): 1, (0, 1): -1})


def test_to_two_param_sizes():
    p, _ = random_full_system(4, seed=1)
    tp = to_two_param(p, p)
    assert tp.sizes == (7, 7)
    lin = _poly({(1, 0): 1, (0, 1): 1, (0, 0): -3})
    tp = to_two_param(lin, lin)
    assert tp.sizes == (1, 1)
    p12, q12 = random_full_system(12, seed=2)
    tp = to_two_param(p12, q12)
    assert tp.sizes == (23, 23)


def test_to_two_param_real_matrices_for_real_input():
    p, q = random_full_system(3, seed=5, real=True)
    tp = to_two_param(p, q)
    for m in (tp.a0, tp.a1, tp.a2, tp.b0, tp.b1, tp.b2):
        assert m.dtype.kind == "f"


def test_to_two_param_determinant_identity():
    p, q = random_full_system(3, seed=8)
    tp = to_two_param(p, q)
    for _ in range(5):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(2)
        det = np.linalg.det(tp.a0 + x * tp.a1 + y * tp.a2)
        assert abs(det - complex(p.evaluate((x, y)))) < 1e-8 * max(1.0, abs(det))


def test_to_two_param_rejects_zero():
    with pytest.raises(ValueError):
        to_two_param(MultiPoly.zero(2, COMPLEX), LINE)


def test_build_deltas_linear_cramer():
    p = _poly({(1, 0): 1, (0, 1): 1, (0, 0): -3})
    q = _poly({(1, 0): 1, (0, 1): -1, (0, 0): -1})
    dt = build_deltas(to_two_param(p, q))
    assert dt.d0.shape == (1, 1)
    assert np.allclose([dt.d0[0, 0], dt.d1[0, 0], dt.d2[0, 0]], [-2, -4, -2])


def test_build_deltas_identity_toy():
    eye = np.eye(3)
    zero = np.zeros((3, 3))
    from detrep.twopareig import TwoParamProblem

    tp = TwoParamProblem(zero, eye, zero, zero, zero, eye)
    dt = build_deltas(tp)
    assert np.allclose(dt.d0, np.eye(9))


def test_raw_pencil_singular_for_nontrivial_sizes():
    p, q = random_full_system(4, seed=3)
    dt = build_deltas(to_two_param(p, q))
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = complex(rng.standard_normal(), rng.standard_normal())
        r = np.linalg.matrix_rank(dt.d1 - x * dt.d0)
        assert r < dt.d0.shape[0]


def test_staircase_already_regular_identity():
    from detrep.twopareig import DeltaTriple

    rng = np.random.default_rng(1)
    d0 = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
    dt = DeltaTriple(d0, rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
    red = staircase(dt)
    assert red.shape == (4, 4)
    assert np.allclose(red.d0, d0)


def test_staircase_circle_line_natural_degrees():
    dt = build_deltas(to_two_param(CIRCLE, LINE))
    assert dt.d0.shape == (3, 3)
    red = staircase(dt)
    assert red.shape == (2, 2)
    assert commutator_defect(red) < 1e-10
    xs, ys = solve_commuting(red)
    r = math.sqrt(0.5)
    assert sorted(np.round(xs.real, 9)) == sorted(np.round([-r, r], 9))
    assert len(red.log) > 0


def test_staircase_circle_line_embedded_degree_two():
    # the line embedded in a degree-2 representation: 9x9 pencils whose
    # regular part still carries exactly the two finite roots
    dt = build_deltas(to_two_param(CIRCLE, LINE, degrees=(2, 2)))
    assert dt.d0.shape == (9, 9)
    red = staircase(dt)
    assert red.shape == (2, 2)
    xs, ys = solve_commuting(red)
    r = math.sqrt(0.5)
    assert sorted(np.round(xs.real, 9)) == sorted(np.round([-r, r], 9))
    assert sorted(np.round(ys.real, 9)) == sorted(np.round([-r, r], 9))


def test_staircase_generic_reduction_size():
    p, q = random_full_system(4, seed=10)
    red = staircase(build_deltas(to_two_param(p, q)))
    assert red.shape == (16, 16)
    assert commutator_defect(red) < 1e-8


def test_kronecker_eigenvector_identity():
    # at a root, (Delta1 - x Delta0)(u kron v) = 0
    p, q = random_full_system(3, seed=6)
    rs = solve(p, q)
    x, y = rs.roots[0]
    tp = to_two_param(p, q)
    a = tp.a0 + x * tp.a1 + y * tp.a2
    b = tp.b0 + x * tp.b1 + y * tp.b2
    _, _, vh = np.linalg.svd(a)
    u = vh[-1].conj()
    _, _, vh = np.linalg.svd(b)
    v = vh[-1].conj()
    w = np.kron(u, v)
    dt = build_deltas(tp)
    for lhs in (dt.d1 - x * dt.d0, dt.d2 - y * dt.d0):
        assert np.linalg.norm(lhs @ w) < 1e-10 * np.linalg.norm(lhs)


def test_solve_linear_pair():
    p = _poly({(1, 0): 1, (0, 1): 1, (0, 0): -3})
    q = _poly({(1, 0): 1, (0, 1): -1, (0, 0): -1})
    rs = solve(p, q)
    assert len(rs) == 1
    x, y = rs.roots[0]
    assert abs(x - 2) < 1e-12 and abs(y - 1) < 1e-12


def test_solve_circle_line():
    rs = solve(CIRCLE, LINE)
    assert rs.status == "ok" and len(rs) == 2
    assert rs.reduced_size == 2
    got = sorted((round(x.real, 9), round(y.real, 9)) for x, y in rs.roots)
    r = round(math.sqrt(0.5), 9)
    assert got == [(-r, -r), (r, r)]
    assert rs.max_residual() < 1e-10


def test_solve_hyperbola():
    p = _poly({(1, 1): 1, (0, 0): -1})
    q = _poly({(1, 0): 1, (0, 1): 1, (0, 0): -3})
    rs = solve(p, q)
    xs = sorted(x.real for x, _ in rs.roots)
    assert np.allclose(xs, [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_solve_matches_oracle(d):
    from detrep.oracle import oracle_roots

    for seed, real in ((3, True), (4, False)):
        p, q = random_full_system(d, seed=500 * d + seed, real=real)
        rs = solve(p, q, seed=seed)
        assert rs.status == "ok"
        assert len(rs) == d * d
        assert rs.max_residual() < 1e-8
        osr = oracle_roots(p, q)
        assert pairing_distance(rs.roots, osr.roots) < 1e-6


def test_rotation_preserves_roots():
    p, q = random_full_system(3, seed=13)
    pr, qr, (c, s) = rotate_system(p, q, seed=5)
    assert abs(c * c + s * s - 1) < 1e-12
    rs1 = solve(p, q)
    rs2 = solve(pr, qr)
    assert pairing_distance(rs1.roots, rs2.roots) < 1e-8


def test_rotation_identity_coefficients():
    p, q = random_full_system(2, seed=14)
    pr, qr, (c, s) = rotate_system(p, q, seed=0)
    combo = p.to_complex().scale(c) + q.to_complex().scale(s)
    assert pr.equals(combo, rel_tol=1e-12)


def test_retry_fixture_found_by_fuzzing():
    # this real degree-6 pair needs at least one rotation retry, then succeeds
    p, q = random_full_system(6, seed=9022, real=True)
    q, _ = random_full_system(6, seed=9522, real=True)
    rs = solve(p, q, seed=0)
    assert rs.status == "ok" and len(rs) == 36
    assert rs.retries >= 1


def test_refine_exact_root_unchanged():
    rs = solve(CIRCLE, LINE)
    again = refine(rs, CIRCLE, LINE, iters=5)
    assert pairing_distance(rs.roots, again.roots) < 1e-12


def test_refine_perturbed_root_quadratic_convergence():
    r = math.sqrt(0.5)
    start = RootSet(
        roots=((complex(r + 1e-4), complex(r + 1e-4)),),
        residuals=(normalized_residual(CIRCLE, LINE, complex(r + 1e-4), complex(r + 1e-4)),),
        multiplicities=(1,),
    )
    out = refine(start, CIRCLE, LINE, iters=3)
    assert out.residuals[0] < 1e-12


def test_refine_singular_jacobian_flagged():
    # double root of p = x^2, q = y: the Jacobian is singular at (0, 0),
    # so the root is returned unrefined with a note
    p = _poly({(2, 0): 1})
    q = _poly({(0, 1): 1})
    start = RootSet(roots=((0j, 0j),), residuals=(0.0,), multiplicities=(1,))
    out = refine(start, p, q, iters=5)
    assert out.roots == ((0j, 0j),)
    assert any("singular Jacobian" in line for line in out.log)


def test_solve_rejects_zero_and_cap():
    with pytest.raises(ValueError):
        solve(MultiPoly.zero(2, COMPLEX), LINE)
    p, q = random_full_system(2, seed=2)
    with pytest.raises(ValueError, match="cap"):
        solve(p, q, degree_cap=1)


def test_solve_constant_input():
    rs = solve(_poly({(0, 0): 3}), LINE)
    assert len(rs) == 0 and rs.status == "ok"


def test_rootset_json_schema_and_csv():
    rs = solve(CIRCLE, LINE)
    obj = rootset_to_json(rs)
    assert set(obj) == {"roots", "reduced_size", "retries", "status"}
    assert set(obj["roots"][0]) == {"x_re", "x_im", "y_re", "y_im", "residual"}
    back = rootset_from_json(obj)
    assert pairing_distance(back.roots, rs.roots) < 1e-12
    csv_text = rootset_to_csv(rs)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "x_re,x_im,y_re,y_im,residual"
    assert len(lines) == 3


def test_rank_log_present():
    rs = solve(CIRCLE, LINE)
    assert any("rank" in line for line in rs.log)


def test_pencil_scale_computed_once_per_triple():
    p, q = random_full_system(4, seed=10)
    dt = build_deltas(to_two_param(p, q))
    expected = max(float(np.linalg.norm(m, 2)) for m in (dt.d0, dt.d1, dt.d2))
    assert dt.scale == expected
    assert "scale" in dt.__dict__
    # the rank ladder re-runs the staircase on one triple: same result each time
    first, again = staircase(dt), staircase(dt)
    assert first.log == again.log
    assert np.array_equal(first.d0, again.d0)
