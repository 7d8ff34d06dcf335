"""Certified lowest eigenpairs and degeneracy clustering."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import eigsh, splu

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
    spec_from_dict,
)
from few2d import cli, eigensolve
from few2d.eigensolve import _factor_at, _negative_pivots


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
                          select="i", select_range=(0, min(count, len(x)) - 1))[0]
    ey = eigh_tridiagonal(2.0 / grid.h_y**2 + wy, np.full(len(y) - 1, -1.0 / grid.h_y**2),
                          select="i", select_range=(0, min(count, len(y)) - 1))[0]
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
        assert _negative_pivots(_factor_at(H, 0.5 * (lo + hi))) == count


# --- the slice about an estimated gap, and its fallback -----------------

# (system, n, levels): n below 64 leaves a coarse axis under 32 nodes, so
# those grids take the Gershgorin fallback and the others the slice; 256
# coarsens three times, down to 32 nodes per axis
_SWEEP = [("caged-iso", n, 6) for n in (48, 63, 64, 101, 160)] + [
    ("caged-aniso", n, 7) for n in (49, 72, 117, 150)] + [
    ("hydrogen", n, 4) for n in (50, 81, 128, 160)] + [("caged-aniso", 256, 7)]


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
def test_sweep_against_kronecker_sum(case, monkeypatch):
    system, n, m = _SWEEP[case]
    prob = _sweep_problem(system, seed=1000 + case)
    grid = make_grid(prob.box, n, n)
    op = assemble(prob, grid)
    dims, _ = _recorded_factorizations(monkeypatch)
    result = lowest_eigs(op, m, tol=1e-6, seed=case)
    exact = _kronecker_levels(prob, grid, m + 12)
    assert result.converged
    assert np.allclose(result.eigenvalues, exact[:m], rtol=0, atol=1e-9)
    assert (detect_degeneracies(result.eigenvalues).multiplicities()
            == detect_degeneracies(exact[:m]).multiplicities())
    assert result.count_below == m + int(np.flatnonzero(np.diff(exact)[m - 1:] > 1e-8)[0])
    # the factorizations of the grid itself (a coarse estimate's grids have at
    # most (n // 2)^2 nodes): on the slice path one per block both solves and
    # certifies, the two exchange sectors of a mirror-symmetric grid or else
    # the whole grid; the Gershgorin path factors the whole grid at least twice
    fine = [d for d in dims if d > (n // 2) ** 2]
    assert len(fine) == result.factorizations
    if op.coarsened() is None:
        assert len(fine) >= 2 and fine == [n * n] * len(fine)
    elif system == "caged-aniso":
        assert fine == [n * n]
    else:
        assert fine == [n * (n + 1) // 2, n * (n - 1) // 2]


@pytest.mark.parametrize("case", range(len(_SWEEP)),
                         ids=[f"{s}-{n}" for s, n, _ in _SWEEP])
def test_ritz_values_bound_the_kronecker_levels(case):
    # the prolonged coarse eigenvectors span a subspace of the fine grid, so
    # by Cauchy interlacing each Ritz value lies above its fine level
    system, n, m = _SWEEP[case]
    prob = _sweep_problem(system, seed=1000 + case)
    grid = make_grid(prob.box, n, n)
    op = assemble(prob, grid)
    estimate = eigensolve._coarse_estimate(op, m, seed=case)
    assert (estimate is None) == (op.coarsened() is None)
    if estimate is None:
        return
    ritz = estimate[1]
    exact = _kronecker_levels(prob, grid, len(ritz))
    assert np.all(ritz >= exact - 1e-10 * np.maximum(1.0, np.abs(exact)))


def _recorded_factorizations(monkeypatch):
    """Dimensions of the matrices that ``eigensolve`` hands to SuperLU, and the
    operators ``lowest_eigs`` is called with."""
    dims, calls = [], []

    def factor(A, *args, **kwargs):
        dims.append(A.shape[0])
        return splu(A, *args, **kwargs)

    def solve(op, *args, **kwargs):
        calls.append(op)
        return lowest_eigs(op, *args, **kwargs)

    monkeypatch.setattr(eigensolve, "splu", factor)
    monkeypatch.setattr(eigensolve, "lowest_eigs", solve)
    return dims, calls


def test_a_160_solve_factors_only_the_coarsest_grid_and_the_operator(monkeypatch):
    # 160x160 coarsens to 80x80 and 40x40; the estimate is made on 40x40 alone,
    # with no solve, certified or not, on the 80x80 grid in between; the
    # operator is factored once per exchange sector, never as the whole grid
    prob = reduce_to_2d(CagedOscillator(), 3, 3, box=Box(12.0, 12.0))
    op = assemble(prob, make_grid(prob.box, 160, 160))
    dims, calls = _recorded_factorizations(monkeypatch)
    result = eigensolve.lowest_eigs(op, 6, tol=1e-7)
    assert result.converged and result.factorizations == 2
    assert set(dims) == {40 * 40, 160 * 161 // 2, 160 * 159 // 2}
    assert dims.count(160 * 161 // 2) == dims.count(160 * 159 // 2) == 1
    # the estimate is solved on the Gershgorin path, not by lowest_eigs on the coarse grid
    assert len(calls) == 1 and calls[0] is op


def test_a_grid_with_no_coarse_grid_for_its_estimate_takes_the_gershgorin_path(monkeypatch):
    # 64x64 coarsens to 32x32 = 1024 nodes, and an estimate of k = m + 3 levels
    # needs more than 3k + 2 of them: up to m = 337 the estimate is made on
    # the coarse grid, from m = 338 on no estimate is made and the whole grid
    # is factored below its spectrum and again to count
    prob = _sweep_problem("caged-aniso", seed=4000)
    grid = make_grid(prob.box, 64, 64)
    op = assemble(prob, grid)
    assert op.coarsened().dim == 1024 and 3 * (338 + 3) + 2 >= 1024 > 3 * (337 + 3) + 2
    assert eigensolve._coarse_estimate(op, 338, seed=0) is None
    dims, _ = _recorded_factorizations(monkeypatch)
    result = lowest_eigs(op, 338, tol=1e-6, seed=0)
    assert result.converged and result.factorizations == 2 and dims == [64 * 64] * 2
    exact = _kronecker_levels(prob, grid, 338)
    assert np.allclose(result.eigenvalues, exact, rtol=0, atol=1e-9)


def test_an_unbracketed_gap_is_estimated_again_one_grid_finer(monkeypatch):
    # 12 levels of this anisotropic 130x130 grid: on the 32x32 grid the Ritz
    # bound of the 12th level lies above the 13th estimate, and the slice
    # placed from it counts 11; the 65x65 estimate brackets the gap, and one
    # factorization of the fine grid both counts and solves
    prob = _sweep_problem("caged-aniso", seed=3000)
    grid = make_grid(prob.box, 130, 130)
    op = assemble(prob, grid)
    dims, _ = _recorded_factorizations(monkeypatch)
    result = eigensolve.lowest_eigs(op, 12, tol=1e-6)
    assert result.converged and result.factorizations == 1
    assert {32 * 32, 65 * 65} <= set(dims) and dims.count(130 * 130) == 1
    assert np.allclose(result.eigenvalues, _kronecker_levels(prob, grid, 12), rtol=0, atol=1e-9)


def test_hydrogen_pair_160_takes_one_factorization_per_sector():
    prob = reduce_to_2d(HydrogenPair(), 3, 3, box=Box(60.0, 60.0))
    result = lowest_eigs(assemble(prob, make_grid(prob.box, 160, 160)), 2, tol=1e-6)
    assert result.converged
    assert result.count_below == 3
    assert result.factorizations == 2


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
        assert _negative_pivots(_factor_at(H, 0.5 * (lo + hi))) == count


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
    # one factorization per exchange sector on the slice path
    assert sliced.factorizations == 2 and fallback.factorizations >= 2
    assert np.allclose(sliced.eigenvalues, fallback.eigenvalues, rtol=0, atol=1e-9)
    assert sliced.count_below == fallback.count_below


# --- the exchange sectors of a mirror-symmetric grid ---------------------

_SPLIT = ["caged-iso", "hydrogen", "quartic"]
_UNSPLIT = ["caged-aniso", "ttw2-equal-couplings", "rectangular-box", "n1-not-n2"]


def _exchange_case(kind, n=80):
    """``(op, m)``: an operator of n x n nodes (n x 96 for "n1-not-n2")
    whose exchange split is decided by ``kind``."""
    if kind == "hydrogen":
        prob = reduce_to_2d(HydrogenPair(), 3, 3, box=Box(60.0, 60.0))
        return assemble(prob, make_grid(prob.box, n, n)), 2
    if kind == "quartic":
        spec = spec_from_dict({"family": "custom2d", "expression": "x**4 + y**4"})
        prob = reduce_to_2d(spec, 3, 3, box=Box(4.0, 4.0))
        return assemble(prob, make_grid(prob.box, n, n)), 4
    if kind == "ttw2-equal-couplings":
        # make_grid staggers y alone off the diagonal ray, so x and y differ
        spec = TTW(omega=1.0, k=Rational(2, 1), alpha=0.3, beta=0.3)
        prob = reduce_to_2d(spec, 3, 3, box=Box(10.0, 10.0))
        return assemble(prob, make_grid(prob.box, 80, 80, spec=spec)), 4
    prob = _sweep_problem("caged-aniso" if kind == "caged-aniso" else "caged-iso", seed=11)
    if kind == "rectangular-box":
        prob = replace(prob, box=Box(12.0, 10.0))
    n2 = 96 if kind == "n1-not-n2" else n
    return assemble(prob, make_grid(prob.box, n, n2)), 6


@pytest.mark.parametrize("n", [31, 80])
@pytest.mark.parametrize("kind", _SPLIT)
def test_sector_blocks_are_the_projections_of_the_operator(kind, n):
    # taken as submatrices of H, the blocks equal P^T H P to a few ulps, with
    # the same pattern, as canonical matrices factored from their own arrays
    op, _ = _exchange_case(kind, n)
    H = op.matrix
    blocks = op.exchange(eigensolve._Solve(eigensolve._csc(H), 1e-8, 1, 0).slack)
    assert [A.shape[0] for _, A in blocks] == [n * (n + 1) // 2, n * (n - 1) // 2]
    for P, A in blocks:
        reference = (P.T @ H @ P).tocsr()
        reference.eliminate_zeros()
        assert A.format == "csr" and A.has_canonical_format and A.nnz == reference.nnz
        ulp = np.finfo(float).eps * abs(reference).max()
        assert abs(A - reference).max() <= 4 * ulp
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(eigensolve._csc(A), name), getattr(A, name))


@pytest.mark.parametrize("kind", _SPLIT + _UNSPLIT)
def test_which_grid_operators_split_into_exchange_sectors(kind, monkeypatch):
    # mirror-symmetric grids are factored as their two sectors, of n(n+1)/2
    # and n(n-1)/2 nodes, and never whole; the others whole and once
    op, m = _exchange_case(kind)
    n1, n2 = op.grid.shape
    assert (op.exchange(1e-9) is not None) == (kind in _SPLIT)
    dims, _ = _recorded_factorizations(monkeypatch)
    result = lowest_eigs(op, m, tol=1e-7, seed=3)
    assert result.converged
    fine = [d for d in dims if d > (n1 // 2) * (n2 // 2)]
    assert result.factorizations == len(fine)
    assert fine == ([n1 * (n1 + 1) // 2, n1 * (n1 - 1) // 2] if kind in _SPLIT
                    else [n1 * n2])


def test_sector_counts_add_up_to_the_count_of_the_whole_grid():
    # tau in every gap among the lowest 30 levels of the isotropic 80x80 grid,
    # those beside the exact doublets that pair a symmetric level with an
    # antisymmetric one included: Q = [P_s P_a] is orthogonal, so the sector
    # inertias add up to that of H - tau I
    prob = _sweep_problem("caged-iso", seed=11)
    grid = make_grid(prob.box, 80, 80)
    op = assemble(prob, grid)
    H = eigensolve._csc(op.matrix)
    blocks = [(P, eigensolve._csc(A))
              for P, A in op.exchange(eigensolve._Solve(H, 1e-8, 1, 0).slack)]
    assert [A.shape[0] for _, A in blocks] == [80 * 81 // 2, 80 * 79 // 2]
    exact = _kronecker_levels(prob, grid, 30)
    gaps = np.flatnonzero(np.diff(exact) > 1e-8)
    previous, doublets = [0, 0], 0
    for g in gaps:
        tau = 0.5 * (exact[g] + exact[g + 1])
        counts = [_negative_pivots(_factor_at(A, tau)) for _, A in blocks]
        assert sum(counts) == _negative_pivots(_factor_at(H, tau)) == g + 1
        doublets += [c - p for c, p in zip(counts, previous)] == [1, 1]
        previous = counts
    assert doublets >= 3


@pytest.mark.parametrize("kind", _SPLIT)
def test_a_solve_with_the_split_forced_off_agrees(kind, monkeypatch):
    op, m = _exchange_case(kind)
    split = lowest_eigs(op, m, tol=1e-8, seed=4)
    monkeypatch.setattr(SparseOperator, "exchange", lambda self, tol: None)
    whole = lowest_eigs(op, m, tol=1e-8, seed=4)
    assert split.converged and whole.converged
    assert split.factorizations == 2 and whole.factorizations == 1
    assert np.allclose(split.eigenvalues, whole.eigenvalues, rtol=0, atol=1e-9)
    assert split.count_below == whole.count_below
    assert (detect_degeneracies(split.eigenvalues).multiplicities()
            == detect_degeneracies(whole.eigenvalues).multiplicities())
    # residuals are measured on the whole operator
    vecs = split.eigenvectors
    res = np.linalg.norm(op.matrix @ vecs - vecs * split.eigenvalues, axis=0)
    assert np.allclose(res, split.residuals, rtol=1e-6, atol=1e-14)
    assert np.all(res <= 1e-8)


@pytest.mark.parametrize("b", [1.0, 1.7], ids=["iso", "aniso"])
@pytest.mark.parametrize("max_iter", [9, 12, 18, 40, 45, 51])
def test_iterations_stay_within_max_iter_on_split_and_whole_grids(max_iter, b, monkeypatch):
    # the sectors of the isotropic grid share one budget; ARPACK makes one
    # solve beyond its first pass, which overran budgets such as these by one
    prob = reduce_to_2d(CagedOscillator(a=1.0, b=b), 3, 3, box=Box(12.0, 12.0))
    op = assemble(prob, make_grid(prob.box, 80, 80))
    dims, _ = _recorded_factorizations(monkeypatch)
    result = lowest_eigs(op, 6, tol=1e-12, max_iter=max_iter)
    assert (80 * 81 // 2 in dims) == (b == 1.0)
    assert result.iterations <= max_iter


# --- the factorization behind the count ---------------------------------

def _caged_80():
    prob = reduce_to_2d(CagedOscillator(), 3, 3, box=Box(12.0, 12.0))
    return assemble(prob, make_grid(prob.box, 80, 80))


def test_the_count_frees_superlu_copies_of_l_and_u():
    # reading lu.U makes SuperLU cache CSC copies of L and U; once the pivots
    # are counted they hold nothing, and the solves do not need them
    lu = _factor_at(_caged_80().matrix.tocsc(), 8.0)
    b = np.random.default_rng(3).standard_normal(lu.shape[0])
    before = lu.solve(b)
    assert _negative_pivots(lu) == 1
    for copy in (lu.L, lu.U):
        assert copy.data.size == copy.indices.size == copy.indptr.size == 0
    assert np.array_equal(lu.solve(b), before)


def test_the_slice_factors_the_operator_arrays_and_reports_their_fill(monkeypatch):
    # the mirror-symmetric 80x80 grid is sliced as its two exchange sectors
    op = _caged_80()
    factored, converted = [], []
    to_csc = eigensolve._csc

    def recorded(H, tau):
        lu = _factor_at(H, tau)
        factored.append((H, lu))
        return lu

    def csc(H):
        converted.append((H, to_csc(H)))
        return converted[-1][1]

    monkeypatch.setattr(eigensolve, "_factor_at", recorded)
    monkeypatch.setattr(eigensolve, "_csc", csc)
    result = lowest_eigs(op, 6, tol=1e-7)
    fine = [(H, lu) for H, lu in factored if H.shape[0] > 40 * 40]
    assert result.converged and len(fine) == result.factorizations == 2
    assert [H.shape[0] for H, _ in fine] == [80 * 81 // 2, 80 * 79 // 2]
    # each symmetric CSR block is taken as its own CSC form, not copied
    for H, _ in fine:
        (block, _), = [(A, C) for A, C in converted if C is H]
        assert block.format == "csr" and block.shape == H.shape
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(H, name), getattr(block, name))
    # and so is the whole operator, on which the blocks are built
    whole, = [C for A, C in converted if A is op.matrix]
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(whole, name), getattr(op.matrix, name))
    assert result.factor_nnz == sum(lu.nnz for _, lu in fine) > op.matrix.nnz
    assert result.to_dict()["factor_nnz"] == result.factor_nnz


def test_a_dense_solve_reports_no_factor_fill():
    result = lowest_eigs(_dirichlet_laplacian_1d(50), 2)
    assert result.converged and result.factorizations == 0
    assert result.factor_nnz is None and result.to_dict()["factor_nnz"] is None


# --- the hand-off from one ladder rung to the next -----------------------

# an anisotropic caged system of the benchmark's converge ladder, 12 levels
_LADDER_SYSTEM = {"a": 0.906502, "b": 1.632064, "omega": 0.937408, "A": 0.056067,
                  "B": 0.016841}
_LADDER_SOLVER = {"levels": 12, "tol": 1e-6, "seed": 727262005}


def _ladder_op(n):
    prob = reduce_to_2d(CagedOscillator(**_LADDER_SYSTEM), 3, 3, box=Box(12.0, 12.0))
    grid = make_grid(prob.box, n, n, spec=prob.potential)
    return prob, grid, assemble(prob, grid)


def _ladder_reference(n):
    """The levels of rung n as a solve without a prior gives them."""
    return lowest_eigs(_ladder_op(n)[2], 12, tol=1e-6, seed=_LADDER_SOLVER["seed"]).eigenvalues


def _run_ladder(tmp_path, monkeypatch, ladder):
    """``converge`` over ``ladder``; per rung, its energies, the levels it asked
    for and whether it was given a prior, and the dimensions of the matrices
    factored while solving it."""
    dims, _ = _recorded_factorizations(monkeypatch)
    starts, asked = [], []

    def solve(op, m, *args, **kwargs):
        starts.append(len(dims))
        asked.append((m, kwargs.get("prior") is not None))
        return lowest_eigs(op, m, *args, **kwargs)

    monkeypatch.setattr(cli, "lowest_eigs", solve)
    config = {"command": "converge",
              "system": dict(_LADDER_SYSTEM, family="caged_oscillator"),
              "reduction": {"d1": 3, "d2": 3, "box": {"x_max": 12.0, "y_max": 12.0}},
              "ladder": ladder, "solver": _LADDER_SOLVER,
              "oracle": {"n_r_max": 6, "j_max": 6}, "output": {"path": str(tmp_path / "conv")}}
    path = tmp_path / "conv.json"
    path.write_text(json.dumps(config))
    assert cli.main([str(path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "conv.csv").read_text().splitlines()
            if line[:1].isdigit()]
    energies = np.array([float(r[2]) for r in rows]).reshape(len(ladder), 12)
    bounds = starts + [len(dims)]
    return energies, asked, [dims[a:b] for a, b in zip(bounds, bounds[1:])]


def test_the_last_rung_is_sliced_from_the_rung_before_it(tmp_path, monkeypatch):
    # every rung solves the 12 levels it reports; the 80 and 120 rungs place
    # their slices from the rung before them, so neither factors a coarse
    # estimate (40x40 or 60x60), only its own grid
    energies, asked, factored = _run_ladder(tmp_path, monkeypatch, [40, 80, 120])
    assert asked == [(12, False), (12, True), (12, True)]
    assert factored[1] == [80 * 80] and factored[2] == [120 * 120]
    for n, levels in zip([40, 80, 120], energies):
        prob, grid, _ = _ladder_op(n)
        assert np.allclose(levels, _ladder_reference(n), rtol=0, atol=1e-9)
        assert np.allclose(levels, _kronecker_levels(prob, grid, 12), rtol=0, atol=1e-8)


def test_a_decreasing_ladder_solves_each_rung_as_without_a_prior(tmp_path, monkeypatch):
    # the 80 and 40 rungs are given the rung before them as their prior, and
    # ignore it as finer
    energies, asked, _ = _run_ladder(tmp_path, monkeypatch, [120, 80, 40])
    assert asked == [(12, False), (12, True), (12, True)]
    for n, levels in zip([120, 80, 40], energies):
        assert np.allclose(levels, _ladder_reference(n), rtol=0, atol=1e-9)


def test_a_repeated_rung_is_solved_from_its_twin_and_has_no_observed_order(tmp_path,
                                                                          monkeypatch):
    # the second 40 rung's prior is on its own grid, so tau lies within
    # rounding of its 12th level; both steps are equal, so no order is observed
    energies, asked, _ = _run_ladder(tmp_path, monkeypatch, [40, 40])
    assert asked == [(12, False), (12, True)]
    for levels in energies:
        assert np.allclose(levels, _ladder_reference(40), rtol=0, atol=1e-9)
    rows = [line.split(",") for line in (tmp_path / "conv.csv").read_text().splitlines()
            if line[:1].isdigit()]
    assert all(np.isnan(float(r[4])) for r in rows)


def _spoiled_prior(kind):
    n = {"finer": 160, "coarser": 40}.get(kind, 80)
    op = _ladder_op(n)[2]
    prior = lowest_eigs(op, 15, tol=1e-6, seed=_LADDER_SOLVER["seed"])
    vals, vecs = prior.eigenvalues, prior.eigenvectors
    if kind == "unbracketed":     # every level lowered by their spread
        prior = replace(prior, eigenvalues=vals - (vals[-1] - vals[0]))
    elif kind == "unconverged":
        prior = replace(prior, converged=False)
    elif kind == "m-levels":
        prior = replace(prior, eigenvalues=vals[:12], eigenvectors=vecs[:, :12])
    elif kind == "fewer-than-m":
        prior = replace(prior, eigenvalues=vals[:11], eigenvectors=vecs[:, :11])
    return op, prior


@pytest.mark.parametrize("kind", ["unconverged", "fewer-than-m", "finer", "coarser"])
def test_a_prior_that_cannot_place_the_slice_leaves_the_coarse_estimate(kind, monkeypatch):
    # coarser: the 40 grid lies more than one halving below the 120 grid
    op = _ladder_op(120)[2]
    prior = _spoiled_prior(kind)
    assert eigensolve._prior_slice(op, 12, prior, 0.0) is None
    plain = lowest_eigs(op, 12, tol=1e-6, seed=_LADDER_SOLVER["seed"])
    dims, _ = _recorded_factorizations(monkeypatch)
    given = lowest_eigs(op, 12, tol=1e-6, seed=_LADDER_SOLVER["seed"], prior=prior)
    assert 60 * 60 in dims
    assert np.array_equal(given.eigenvalues, plain.eigenvalues)
    assert given.factorizations == plain.factorizations


@pytest.mark.parametrize("kind", ["unbracketed", "m-levels"])
def test_a_prior_places_the_slice_from_its_first_m_eigenvectors(kind, monkeypatch):
    # the prior's levels are never read, so lowered levels or exactly m
    # pairs place the slice as well as the prior itself does
    op = _ladder_op(120)[2]
    prior = _spoiled_prior(kind)
    assert eigensolve._prior_slice(op, 12, prior, 0.0) is not None
    plain = lowest_eigs(op, 12, tol=1e-6, seed=_LADDER_SOLVER["seed"])
    dims, _ = _recorded_factorizations(monkeypatch)
    given = lowest_eigs(op, 12, tol=1e-6, seed=_LADDER_SOLVER["seed"], prior=prior)
    assert 60 * 60 not in dims
    assert given.converged and given.factorizations == 1
    assert np.allclose(given.eigenvalues, plain.eigenvalues, rtol=0, atol=1e-9)


# ARPACK solves of the 80 and 120 rungs, each sliced from the rung before it,
# started from the sum of its Ritz vectors (measured with numpy 2.4.6 and
# scipy 1.17.1); the same slices from the seeded vector take 64 and 56
_WARM_SOLVES = {80: 49, 120: 48}


def test_each_rung_starts_arpack_from_the_ritz_vectors_of_its_prior(monkeypatch):
    seed = _LADDER_SOLVER["seed"]

    def ladder():
        solved, prior = {}, None
        for n in (40, 80, 120):
            op = _ladder_op(n)[2]
            solved[n] = lowest_eigs(op, 12, tol=1e-6, seed=seed, prior=prior)
            prior = op, solved[n]
        return solved

    warm, again = ladder(), ladder()
    for n in (80, 120):
        prob, grid, _ = _ladder_op(n)
        assert warm[n].converged and warm[n].factorizations == 1
        assert warm[n].iterations <= _WARM_SOLVES[n]
        assert np.array_equal(warm[n].eigenvalues, again[n].eigenvalues)
        assert warm[n].iterations == again[n].iterations
        assert np.allclose(warm[n].eigenvalues, _ladder_reference(n), rtol=0, atol=1e-9)
        assert np.allclose(warm[n].eigenvalues, _kronecker_levels(prob, grid, 12),
                           rtol=0, atol=1e-8)
    # the same slices started from the first draw of the seed, as before
    ritz = eigensolve._ritz
    monkeypatch.setattr(eigensolve, "_ritz", lambda op, *args: (
        ritz(op, *args)[0], np.random.default_rng(seed).standard_normal(op.dim)))
    seeded = ladder()
    for n in (80, 120):
        assert seeded[n].factorizations == 1
        assert warm[n].iterations < seeded[n].iterations


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
