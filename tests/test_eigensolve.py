"""Certified lowest eigenpairs and degeneracy clustering."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import eigsh

from few2d import (
    Box,
    CagedOscillator,
    HydrogenPair,
    Rational,
    SparseOperator,
    TTW,
    assemble,
    detect_degeneracies,
    lowest_eigs,
    make_grid,
    reduce_to_2d,
)
from few2d.eigensolve import _count_below


def _dirichlet_laplacian_1d(n, h=1.0):
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def test_discrete_laplacian_lowest_closed_form():
    H = _dirichlet_laplacian_1d(100)
    result = lowest_eigs(H, 1, tol=1e-10)
    assert result.eigenvalues[0] == pytest.approx(2.0 - 2.0 * math.cos(math.pi / 101.0),
                                                  rel=1e-12)
    assert result.converged


def test_diagonal_operator_smallest_entry():
    rng = np.random.default_rng(1)
    d = rng.uniform(1.0, 50.0, size=400)
    d[137] = 0.25
    result = lowest_eigs(sp.diags(d).tocsr(), 1, tol=1e-10)
    assert result.eigenvalues[0] == pytest.approx(0.25, rel=1e-12)


def test_degenerate_copies_found_against_arpack():
    # caged oscillator grid: levels 6, 10, 10, 14, 14, 14 with exact
    # discrete degeneracies from the x <-> y symmetry
    prob = reduce_to_2d(CagedOscillator(), 3, 3, box=Box(12.0, 12.0))
    op = assemble(prob, make_grid(prob.box, 80, 80))
    result = lowest_eigs(op, 6, tol=1e-7)
    ref = np.sort(eigsh(op.matrix, k=6, which="SA", v0=np.ones(op.dim),
                        tol=1e-12, return_eigenvectors=False))
    assert np.allclose(result.eigenvalues, ref, atol=1e-6)
    assert result.converged
    assert np.all(result.residuals <= 1e-7)


def test_eigenvector_orthonormality():
    prob = reduce_to_2d(CagedOscillator(), 3, 3, box=Box(12.0, 12.0))
    op = assemble(prob, make_grid(prob.box, 70, 70))
    result = lowest_eigs(op, 5, tol=1e-8)
    V = result.eigenvectors
    assert np.abs(V.T @ V - np.eye(V.shape[1])).max() < 1e-10


def test_fixed_seed_is_deterministic():
    prob = reduce_to_2d(CagedOscillator(), 3, 3, box=Box(12.0, 12.0))
    op = assemble(prob, make_grid(prob.box, 40, 40))
    a = lowest_eigs(op, 4, tol=1e-8, seed=3)
    b = lowest_eigs(op, 4, tol=1e-8, seed=3)
    assert a.iterations == b.iterations
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_refinement_monotonicity_toward_oracle():
    # the discrete levels approach the continuum limit from below here, so
    # refining must never move a converged level downward (beyond solver
    # tolerance) nor increase its distance to the oracle
    prob = reduce_to_2d(CagedOscillator(), 3, 3, box=Box(12.0, 12.0))
    oracle = np.array([6.0, 10.0, 10.0])
    tol = 1e-8
    prev_vals, prev_err = None, None
    for n in (40, 80, 160):
        op = assemble(prob, make_grid(prob.box, n, n))
        vals = lowest_eigs(op, 3, tol=tol).eigenvalues
        err = np.abs(vals - oracle)
        if prev_vals is not None:
            assert np.all(vals >= prev_vals - 10 * tol)
            assert np.all(err <= prev_err)
        prev_vals, prev_err = vals, err


def test_partial_results_on_iteration_budget():
    prob = reduce_to_2d(CagedOscillator(), 3, 3, box=Box(12.0, 12.0))
    op = assemble(prob, make_grid(prob.box, 80, 80))
    result = lowest_eigs(op, 6, tol=1e-12, max_iter=40)
    assert not result.converged
    assert len(result.eigenvalues) <= 6
    assert np.all(np.isfinite(result.residuals))


def _kronecker_levels(prob, grid, count):
    """Exact spectrum of the 5-point operator for a separable W = f(x) + g(y).

    The operator is the Kronecker sum Tx (x) I + I (x) Ty of two 1D
    stencil-plus-potential matrices, so its levels are all sums of their
    eigenvalues.
    """
    x, y = grid.nodes_x, grid.nodes_y
    w = prob.effective_values(x[:, None], y[None, :])
    wx, wy = w[:, 0], w[0, :] - w[0, 0]
    assert np.allclose(w, wx[:, None] + wy[None, :], rtol=1e-13, atol=1e-12)
    ex = eigh_tridiagonal(2.0 / grid.h_x**2 + wx, np.full(len(x) - 1, -1.0 / grid.h_x**2),
                          select="i", select_range=(0, count - 1))[0]
    ey = eigh_tridiagonal(2.0 / grid.h_y**2 + wy, np.full(len(y) - 1, -1.0 / grid.h_y**2),
                          select="i", select_range=(0, count - 1))[0]
    return np.sort((ex[:, None] + ey[None, :]).ravel())[:count]


def test_caged_400_keeps_every_degenerate_copy():
    # at 400x400 the levels 13.9963 form an exact pair; a solver that drops
    # one copy returns 13.9972 and 17.99 in the last two slots
    prob = reduce_to_2d(CagedOscillator(), 3, 3, box=Box(12.0, 12.0))
    grid = make_grid(prob.box, 400, 400)
    result = lowest_eigs(assemble(prob, grid), 6, tol=1e-6)
    assert result.converged
    assert result.count_below == 6
    assert np.allclose(result.eigenvalues, _kronecker_levels(prob, grid, 6), rtol=0, atol=1e-9)
    assert detect_degeneracies(result.eigenvalues).multiplicities() == [1, 2, 2, 1]


def test_ttw_k2_staggered_multiplicities_match_inertia_counts():
    spec = TTW(omega=1.0, k=Rational(2, 1), alpha=4.0, beta=4.0)
    prob = reduce_to_2d(spec, 3, 3, box=Box(12.0, 12.0))
    grid = make_grid(prob.box, 200, 200, spec=spec)
    assert grid.staggered_y
    op = assemble(prob, grid)
    result = lowest_eigs(op, 8, tol=1e-6)
    assert result.converged
    report = detect_degeneracies(result.eigenvalues)
    assert sum(report.multiplicities()) == result.count_below == 8
    # every cluster boundary: the eigenvalues below it number exactly the
    # levels of the clusters below it
    energies = [e for e, _ in report.clusters]
    below = np.cumsum(report.multiplicities())
    H = op.matrix.tocsc()
    for lo, hi, count in zip(energies, energies[1:], below):
        assert _count_below(H, 0.5 * (lo + hi)) == count


# --- the slice about an estimated gap, and its fallback -----------------

# (system, n, levels): n below 64 leaves a coarse axis under 32 nodes, so
# those grids take the Gershgorin fallback and the others the slice
_SWEEP = [("caged-iso", n, 6) for n in (48, 63, 64, 101, 160)] + [
    ("caged-aniso", n, 7) for n in (49, 72, 117, 150)] + [
    ("hydrogen", n, 4) for n in (50, 81, 128, 160)]


def _sweep_problem(system, seed):
    rng = np.random.default_rng(seed)
    if system == "hydrogen":
        return reduce_to_2d(HydrogenPair(), 3, 3, box=Box(60.0, 60.0))
    a = rng.uniform(0.9, 1.1)
    b = a if system == "caged-iso" else rng.uniform(1.5, 2.0)
    big_a = rng.uniform(0.0, 0.3)
    big_b = big_a if system == "caged-iso" else rng.uniform(0.0, 0.3)
    spec = CagedOscillator(a=a, b=b, omega=rng.uniform(0.9, 1.1), A=big_a, B=big_b)
    return reduce_to_2d(spec, 3, 3, box=Box(12.0, 12.0))


@pytest.mark.parametrize("case", range(len(_SWEEP)),
                         ids=[f"{s}-{n}" for s, n, _ in _SWEEP])
def test_sweep_against_kronecker_sum(case):
    system, n, m = _SWEEP[case]
    prob = _sweep_problem(system, seed=1000 + case)
    grid = make_grid(prob.box, n, n)
    op = assemble(prob, grid)
    result = lowest_eigs(op, m, tol=1e-6, seed=case)
    exact = _kronecker_levels(prob, grid, m + 12)
    assert result.converged
    assert np.allclose(result.eigenvalues, exact[:m], rtol=0, atol=1e-9)
    assert (detect_degeneracies(result.eigenvalues).multiplicities()
            == detect_degeneracies(exact[:m]).multiplicities())
    assert result.count_below == m + int(np.flatnonzero(np.diff(exact)[m - 1:] > 1e-8)[0])
    # one factorization both solves and certifies on the slice path
    assert (result.factorizations == 1) == (op.coarsened() is not None)


def test_hydrogen_pair_160_takes_one_factorization():
    prob = reduce_to_2d(HydrogenPair(), 3, 3, box=Box(60.0, 60.0))
    result = lowest_eigs(assemble(prob, make_grid(prob.box, 160, 160)), 2, tol=1e-6)
    assert result.converged
    assert result.count_below == 3
    assert result.factorizations == 1


def test_ttw_k2_staggered_slice_matches_inertia_counts():
    spec = TTW(omega=1.0, k=Rational(2, 1), alpha=0.3, beta=0.4)
    prob = reduce_to_2d(spec, 3, 3, box=Box(10.0, 10.0))
    grid = make_grid(prob.box, 98, 98, spec=spec)
    assert grid.staggered_y
    op = assemble(prob, grid)
    assert op.coarsened() is not None
    result = lowest_eigs(op, 6, tol=1e-7, seed=5)
    assert result.converged and result.factorizations == 1
    report = detect_degeneracies(result.eigenvalues)
    H = op.matrix.tocsc()
    energies = [e for e, _ in report.clusters]
    for lo, hi, count in zip(energies, energies[1:], np.cumsum(report.multiplicities())):
        assert _count_below(H, 0.5 * (lo + hi)) == count


def test_slice_counting_fewer_than_m_levels_falls_back_before_solving():
    # the 40x40 estimate of this 80x80 grid lies about 3 % low, so tau lands
    # just below the 12th level; the count (11) must send the solve to the
    # Gershgorin path before any solve with H - tau I, since ARPACK would
    # then be hunting the top of the spectrum for a 12th value below tau
    spec = CagedOscillator(a=0.900875, b=1.745229, omega=1.036175, A=0.126033, B=0.245487)
    prob = reduce_to_2d(spec, 3, 3, box=Box(12.0, 12.0))
    grid = make_grid(prob.box, 80, 80)
    result = lowest_eigs(assemble(prob, grid), 12, tol=1e-6, seed=1)
    assert result.converged
    assert result.factorizations == 3      # the slice, then sigma0 and the count
    assert result.iterations < 200
    assert np.allclose(result.eigenvalues, _kronecker_levels(prob, grid, 12), rtol=0, atol=1e-9)


def test_forced_fallback_agrees_with_the_slice(monkeypatch):
    prob = _sweep_problem("caged-iso", seed=7)
    op = assemble(prob, make_grid(prob.box, 90, 90))
    sliced = lowest_eigs(op, 6, tol=1e-8, seed=2)
    monkeypatch.setattr(SparseOperator, "coarsened", lambda self: None)
    fallback = lowest_eigs(op, 6, tol=1e-8, seed=2)
    assert sliced.converged and fallback.converged
    assert sliced.factorizations == 1 and fallback.factorizations >= 2
    assert np.allclose(sliced.eigenvalues, fallback.eigenvalues, rtol=0, atol=1e-9)
    assert sliced.count_below == fallback.count_below


# --- degeneracy clustering ---------------------------------------------

def test_detect_degeneracies_constructed_input():
    report = detect_degeneracies([1.0, 1.0 + 1e-12, 2.0], tol_rel=1e-9)
    assert report.multiplicities() == [2, 1]
    assert report.clusters[0][0] == pytest.approx(1.0, abs=1e-12)
    assert report.total == 3


def test_detect_degeneracies_empty_and_sorted_guard():
    report = detect_degeneracies([], tol_rel=1e-9)
    assert report.clusters == () and report.total == 0
    with pytest.raises(ValueError):
        detect_degeneracies([2.0, 1.0])


def test_detect_degeneracies_relative_tolerance_scales():
    # gap 5e-7 at energy ~100 joins at tol 1e-8 relative (threshold 1e-6)
    report = detect_degeneracies([100.0, 100.0 + 5e-7, 200.0], tol_rel=1e-8)
    assert report.multiplicities() == [2, 1]


def test_cluster_representative_is_mean():
    report = detect_degeneracies([1.0, 1.0 + 1e-10], tol_rel=1e-6)
    assert report.clusters[0][0] == pytest.approx(1.0 + 5e-11, abs=1e-16)
