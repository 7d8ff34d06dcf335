"""Grids, the 5-point operator, and the CSR surface."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from few2d import (
    Box,
    CagedOscillator,
    Custom2D,
    DimensionMismatch,
    GridTooCoarse,
    Rational,
    SingularNodeUnavoidable,
    SparseOperator,
    TTW,
    assemble,
    lowest_eigs,
    make_grid,
    matvec,
    reduce_to_2d,
)


def test_make_grid_arithmetic():
    grid = make_grid(Box(1.0, 1.0), 9, 9)
    assert grid.h_x == pytest.approx(0.1)
    assert np.allclose(grid.nodes_x, 0.1 * np.arange(1, 10))
    assert grid.nodes_x[0] > 0 and grid.nodes_x[-1] < 1.0


def test_make_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        make_grid(Box(1.0, 1.0), 4, 9)


def test_ttw_k1_needs_no_offset():
    # k=1 singular rays are the axes only; the diagonal theta=pi/4 is fine
    spec = TTW(omega=1.0, k=Rational(1, 1), alpha=0.3, beta=0.3)
    grid = make_grid(Box(6.0, 6.0), 20, 20, spec=spec)
    assert not grid.staggered_x and not grid.staggered_y


def test_ttw_k2_square_grid_offsets_diagonal():
    # equal spacings put nodes exactly on theta = pi/4 where cos(2 theta) = 0
    spec = TTW(omega=1.0, k=Rational(2, 1), alpha=0.3, beta=0.3)
    grid = make_grid(Box(6.0, 6.0), 20, 20, spec=spec)
    assert grid.staggered_y and not grid.staggered_x
    theta = np.arctan2(grid.nodes_y[None, :], grid.nodes_x[:, None])
    assert np.abs(theta - math.pi / 4).min() > 1e-9
    with pytest.raises(SingularNodeUnavoidable):
        make_grid(Box(6.0, 6.0), 20, 20, spec=spec, offset_rule="none")


def test_assemble_tridiagonal_pattern_1d_slice():
    # zero potential: each row has 2/hx^2 + 2/hy^2 on the diagonal and -1/h^2
    # towards the four neighbors
    zero = Custom2D(func=lambda x, y: np.zeros_like(x), name="zero")
    prob = reduce_to_2d(zero, 3, 3, box=Box(1.0, 1.0))
    grid = make_grid(prob.box, 9, 9)
    op = assemble(prob, grid)
    h2 = grid.h_x**2
    dense = op.matrix.toarray()
    assert dense[0, 0] == pytest.approx(4.0 / h2)
    assert dense[0, 1] == pytest.approx(-1.0 / h2)   # y neighbor
    assert dense[0, 9] == pytest.approx(-1.0 / h2)   # x neighbor
    assert dense[0, 2] == 0.0


def test_assemble_symmetric_by_construction():
    spec = CagedOscillator(a=1.0, b=2.0, omega=1.0, A=0.3, B=0.1)
    prob = reduce_to_2d(spec, 3, 3, box=Box(8.0, 8.0))
    grid = make_grid(prob.box, 30, 24)
    op = assemble(prob, grid)
    assert abs(op.matrix - op.matrix.T).max() == 0.0


def test_free_particle_lowest_mode_closed_form():
    # discrete Dirichlet Laplacian on a box of side pi: the (1,1) mode has
    # eigenvalue 2 * (2 - 2 cos(pi h / pi)) / h^2
    zero = Custom2D(func=lambda x, y: np.zeros_like(x), name="zero")
    prob = reduce_to_2d(zero, 3, 3, box=Box(math.pi, math.pi))
    grid = make_grid(prob.box, 63, 63)
    op = assemble(prob, grid)
    result = lowest_eigs(op, 1, tol=1e-9)
    h = grid.h_x
    expected = 2.0 * (2.0 - 2.0 * math.cos(h)) / h**2
    assert result.eigenvalues[0] == pytest.approx(expected, rel=1e-10)


def test_caged_diagonal_entries():
    spec = CagedOscillator(a=2.0, b=3.0, omega=1.5, A=0.4, B=0.7)
    prob = reduce_to_2d(spec, 3, 3, box=Box(6.0, 6.0))
    grid = make_grid(prob.box, 12, 12)
    op = assemble(prob, grid)
    kin = 2.0 / grid.h_x**2 + 2.0 / grid.h_y**2
    i, j = 4, 7
    x, y = grid.nodes_x[i], grid.nodes_y[j]
    w2 = 1.5**2
    expected = kin + 2 * w2 * x**2 + 3 * w2 * y**2 + 0.4 / x**2 + 0.7 / y**2
    assert op.matrix[i * 12 + j, i * 12 + j] == pytest.approx(expected, rel=1e-14)


def test_matvec_basis_vector_returns_column():
    spec = CagedOscillator()
    prob = reduce_to_2d(spec, 3, 3, box=Box(6.0, 6.0))
    op = assemble(prob, make_grid(prob.box, 10, 10))
    e = np.zeros(op.dim)
    e[17] = 1.0
    assert np.allclose(matvec(op, e), op.matrix.toarray()[:, 17])


def test_matvec_symmetry_bilinear_form():
    spec = CagedOscillator()
    prob = reduce_to_2d(spec, 3, 3, box=Box(10.0, 10.0))
    op = assemble(prob, make_grid(prob.box, 25, 25))
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.standard_normal(op.dim)
        v = rng.standard_normal(op.dim)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        left = u @ matvec(op, v)
        right = matvec(op, u) @ v
        assert abs(left - right) <= 1e-13 * max(1.0, abs(left))


def test_matvec_zero_and_dimension_mismatch():
    spec = CagedOscillator()
    prob = reduce_to_2d(spec, 3, 3, box=Box(6.0, 6.0))
    op = assemble(prob, make_grid(prob.box, 10, 10))
    assert np.all(matvec(op, np.zeros(op.dim)) == 0.0)
    with pytest.raises(DimensionMismatch):
        matvec(op, np.zeros(op.dim + 1))


def test_box_enlargement_below_discretization_error():
    # once past the documented default the box truncation is negligible
    spec = CagedOscillator()
    oracle = 6.0
    vals = {}
    for x_max, n in ((12.0, 120), (14.0, 141)):
        prob = reduce_to_2d(spec, 3, 3, box=Box(x_max, x_max))
        grid = make_grid(prob.box, n, n)
        vals[x_max] = lowest_eigs(assemble(prob, grid), 1, tol=1e-8).eigenvalues[0]
    disc_error = abs(vals[12.0] - oracle)
    assert abs(vals[14.0] - vals[12.0]) < 0.1 * disc_error


def test_binary_dump_round_trip(tmp_path):
    spec = CagedOscillator()
    prob = reduce_to_2d(spec, 3, 3, box=Box(6.0, 6.0))
    op = assemble(prob, make_grid(prob.box, 10, 10))
    path = tmp_path / "op.bin"
    op.dump_binary(path)
    with open(path, "rb") as fh:
        assert fh.read(8) == b"FEW2DCSR"
        nrows, ncols, nnz = np.fromfile(fh, dtype="<i8", count=3)
        indptr = np.fromfile(fh, dtype="<i8", count=nrows + 1)
        indices = np.fromfile(fh, dtype="<i8", count=nnz)
        data = np.fromfile(fh, dtype="<f8", count=nnz)
    back = sp.csr_matrix((data, indices, indptr), shape=(nrows, ncols))
    assert abs(back - op.matrix).max() == 0.0


def test_staggered_wall_keeps_second_order():
    # the antisymmetric-ghost Dirichlet wall must not degrade the order on a
    # smooth potential; stagger both axes by hand
    from few2d.discretize import Grid, _axis_nodes

    prob = reduce_to_2d(CagedOscillator(), 3, 3, box=Box(12.0, 12.0))
    errs = []
    for n in (60, 120):
        nx, hx = _axis_nodes(12.0, n, True)
        grid = Grid(box=prob.box, nodes_x=nx, nodes_y=nx.copy(), h_x=hx, h_y=hx,
                    staggered_x=True, staggered_y=True)
        res = lowest_eigs(assemble(prob, grid), 1, tol=1e-8)
        errs.append(abs(res.eigenvalues[0] - 6.0))
    order = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert 1.7 < order < 2.3


def test_staggered_grid_solves_ttw_k2():
    # nodes miss the diagonal ray after the offset; with an impenetrable
    # interior barrier (ray coefficient alpha/k^2 >= 3/4) the grid operator
    # agrees with the sector-Dirichlet oracle.  Weak barriers converge to
    # the leaky extension instead; that limitation is documented.
    spec = TTW(omega=1.0, k=Rational(2, 1), alpha=4.0, beta=4.0)
    prob = reduce_to_2d(spec, 3, 3, box=Box(12.0, 12.0))
    from few2d import separated_spectrum

    oracle = separated_spectrum(spec, 3, 3).energies()[0]
    grid = make_grid(prob.box, 160, 160, spec=spec)
    assert grid.staggered_y
    res = lowest_eigs(assemble(prob, grid), 1, tol=1e-8)
    assert abs(res.eigenvalues[0] - oracle) / oracle < 0.005


def test_coarsened_operator_is_the_half_resolution_grid():
    # on an odd plain grid every other node is exactly the grid of (n-1)/2
    # nodes at twice the step, so the coarse operator is that grid's
    spec = CagedOscillator(a=1.0, b=1.5, omega=1.0, A=0.2, B=0.1)
    prob = reduce_to_2d(spec, 3, 3, box=Box(12.0, 12.0))
    fine = assemble(prob, make_grid(prob.box, 81, 65))
    coarse = fine.coarsened()
    assert coarse.grid.shape == (40, 32)
    assert np.array_equal(coarse.grid.nodes_x, fine.grid.nodes_x[1::2])
    assert np.array_equal(coarse.w, fine.w[1::2, 1::2])
    direct = assemble(prob, make_grid(prob.box, 40, 32))
    assert abs(coarse.matrix - direct.matrix).max() < 1e-9 * abs(direct.matrix).max()
    assert coarse.coarsened() is None                        # 20 x 16 nodes
    assert assemble(prob, make_grid(prob.box, 81, 63)).coarsened() is None
    assert SparseOperator(matrix=fine.matrix, grid=fine.grid).coarsened() is None


def test_coarsened_staggered_grid_reuses_finite_node_values():
    spec = TTW(omega=1.0, k=Rational(2, 1), alpha=0.3, beta=0.4)
    prob = reduce_to_2d(spec, 3, 3, box=Box(10.0, 10.0))
    fine = assemble(prob, make_grid(prob.box, 98, 98, spec=spec))
    assert fine.grid.staggered_y
    coarse = fine.coarsened()
    assert coarse.grid.shape == (49, 49)
    assert np.all(np.isfinite(coarse.matrix.data))
    # the plain stencil at twice the step, plus the fine nodes' W values
    assert np.allclose(coarse.matrix.diagonal(), 2.0 / coarse.grid.h_x**2
                       + 2.0 / coarse.grid.h_y**2 + coarse.w.ravel(), rtol=1e-14, atol=0)
