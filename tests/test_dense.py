"""The vectorised numeric core: coefficient tensor, dense evaluator, batched Newton."""

from __future__ import annotations

import importlib
import importlib.util
import os

import numpy as np
import pytest

from detrep.biaffine import specialize
from detrep.construct import METHODS, InapplicableMethod
from detrep.dense import DensePoly
from detrep.poly import COMPLEX, MultiPoly
from detrep.roots import RootSet, normalized_residual
from detrep.twopareig import _cached_rep, _coefficient_matrices, _polish, refine

from conftest import random_full_system

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _poly(terms):
    return MultiPoly.make(2, {k: complex(v) for k, v in terms.items()}, COMPLEX)


def _solver_methods():
    """Every construction method that ``solve(method=...)`` accepts, with its degrees 1..8."""
    for method in METHODS:
        for d in range(1, 9):
            try:
                _cached_rep(d, method)
            except InapplicableMethod:
                continue
            yield method, d


@pytest.mark.parametrize("real", [False, True])
def test_tensor_matches_exact_specialisation(real):
    cases = list(_solver_methods())
    assert {m for m, _ in cases} >= {"minunif", "repjan", "cons1-tree", "cons1-lattice", "cons2-split", "cons2-table"}
    for method, d in cases:
        p, _ = random_full_system(d, seed=100 * d + len(method), real=real)
        mats = _coefficient_matrices(p, d, method)
        exact = specialize(_cached_rep(d, method), p)
        for k, mat in enumerate(mats):
            assert mat.dtype.kind == ("f" if real else "c"), (method, d)
            expected = np.array(
                [[complex(f.constant if k == 0 else f.linear[k - 1]) for f in row] for row in exact]
            )
            # entry for entry, not to a tolerance
            assert np.array_equal(mat, expected), (method, d, k)


def test_tensor_rejects_degree_overflow():
    p, _ = random_full_system(4, seed=3)
    with pytest.raises(ValueError, match="degree overflow"):
        _coefficient_matrices(p, 3, "minunif")


def test_dense_residual_matches_scalar():
    rng = np.random.default_rng(7)
    for d in (1, 3, 7):
        p, q = random_full_system(d, seed=40 + d)
        pd, qd = DensePoly.from_poly(p), DensePoly.from_poly(q)
        mags = 10.0 ** rng.uniform(-3, 3, (2, 50))
        phases = np.exp(2j * np.pi * rng.uniform(size=(2, 50)))
        xs, ys = mags * phases
        dense_p = pd.residual(xs, ys)
        grid = np.maximum(pd.residual_grid(xs, ys), qd.residual_grid(xs, ys))
        for i, (x, y) in enumerate(zip(xs, ys)):
            scalar = normalized_residual(p, q, complex(x), complex(y))
            assert np.isclose(max(dense_p[i], qd.residual([x], [y])[0]), scalar, rtol=1e-9, atol=0.0)
            assert np.isclose(grid[i, i], scalar, rtol=1e-9, atol=0.0)


def test_dense_values_and_gradient():
    p, _ = random_full_system(4, seed=2)
    pd = DensePoly.from_poly(p)
    x, y = 0.3 - 1.1j, 2.0 + 0.5j
    f, fx, fy = pd.values_and_gradient(np.array([x]), np.array([y]))
    assert np.isclose(f[0], complex(p.evaluate((x, y))), rtol=1e-12)
    assert np.isclose(fx[0], complex(p.derivative(0).evaluate((x, y))), rtol=1e-12)
    assert np.isclose(fy[0], complex(p.derivative(1).evaluate((x, y))), rtol=1e-12)


def test_dense_reversed_is_reciprocal_polynomial():
    p = _poly({(2, 0): 1, (1, 1): -2, (0, 0): 3, (0, 1): 5})
    pr = DensePoly.from_poly(p).reversed()
    u, v = 0.7 + 0.2j, -1.3 + 0.4j
    expected = u**2 * v**2 * complex(p.evaluate((1 / u, 1 / v)))
    assert np.isclose(pr.values_and_gradient([u], [v])[0][0], expected, rtol=1e-12)


def test_refine_mixed_batch_matches_single_roots():
    # p = x^2 (x - 1)(x - R), q = y - x: the Jacobian is singular on x = 0,
    # (1, 1) is a regular root and (R, R) a large one, which the direct
    # polish cannot reach from (2R, 2R) in five steps but the reciprocal
    # polish can
    big = 1000.0
    x = _poly({(1, 0): 1})
    p = x * x * (x - _poly({(0, 0): 1})) * (x - _poly({(0, 0): big}))
    q = _poly({(0, 1): 1, (1, 0): -1})
    starts = [(0j, 5 + 0j), (1 + 1e-6 + 0j, 1 - 1e-6 + 0j), (2 * big + 0j, 2 * big + 0j), (0j, 0j)]
    residuals = tuple(normalized_residual(p, q, sx, sy) for sx, sy in starts)
    batch = refine(RootSet(roots=tuple(starts), residuals=residuals), p, q, iters=5)
    singles = [refine(RootSet(roots=(s,), residuals=(r,)), p, q, iters=5) for s, r in zip(starts, residuals)]

    assert batch.log == sum((one.log for one in singles), ())
    assert batch.log == (
        "root (0+0j,5+0j): singular Jacobian, left unrefined",
        "root (0+0j,0+0j): singular Jacobian, left unrefined",
    )
    for i, one in enumerate(singles):
        (bx, by), (sx, sy) = batch.roots[i], one.roots[0]
        assert abs(bx - sx) + abs(by - sy) <= 1e-12 * (1.0 + abs(sx) + abs(sy))
        assert np.isclose(batch.residuals[i], one.residuals[0], rtol=0.0, atol=1e-15)
    # singular roots are left as they were
    assert batch.roots[0] == starts[0] and batch.roots[3] == starts[3]
    # the regular root converges
    assert batch.residuals[1] < 1e-12 and abs(batch.roots[1][0] - 1) < 1e-12
    # the large root: direct Newton alone stalls, the reciprocal polish wins
    pd, qd = DensePoly.from_poly(p), DensePoly.from_poly(q)
    _, _, direct, _ = _polish(pd, qd, [starts[2][0]], [starts[2][1]], [residuals[2]], 5)
    assert direct[0] > 1e-6
    assert batch.residuals[2] < 1e-12 and abs(batch.roots[2][0] - big) < 1e-9 * big


def test_refine_empty_root_set():
    out = refine(RootSet((), ()), _poly({(1, 0): 1}), _poly({(0, 1): 1}))
    assert out.roots == () and out.residuals == ()


def test_benchmark_trace_targets_resolve():
    # the layer tracer patches these names; a missing one raises KeyError in
    # Tracer.patched() and breaks traced benchmark runs
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert leaf in owner.__dict__, f"{module_name}.{attr}"
