"""Grids, the 5-point operator, and the CSR surface."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from few2d import (
    Box,
    CagedOscillator,
    Custom2D,
    GridTooCoarse,
    PW,
    Rational,
    SingularNodeUnavoidable,
    TTW,
    assemble,
    lowest_eigs,
    make_grid,
    reduce_to_2d,
)
from few2d.discretize import _ANGLE_GUARD, _axis_nodes, _collides


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
    # an odd n x n grid on a square box has a node on theta = pi/4 in all
    # three layouts: plain, y staggered, both staggered
    with pytest.raises(SingularNodeUnavoidable):
        make_grid(Box(6.0, 6.0), 9, 9, spec=spec)


def _collides_by_loop(nodes_x, nodes_y, rays):
    """The screening as one pass over the nodes per ray, the reference."""
    theta = np.arctan2(nodes_y[None, :], nodes_x[:, None])
    return any(np.any(np.abs(theta - ray) < _ANGLE_GUARD) for _, ray in rays)


_TTW2 = TTW(omega=1.0, k=Rational(2, 1), alpha=0.3, beta=0.3)


@pytest.mark.parametrize("spec", [_TTW2, TTW(omega=1.0, k=Rational(3, 1), alpha=0.3, beta=0.3),
                                  TTW(omega=1.0, k=Rational(999, 1), alpha=0.3, beta=0.3),
                                  PW(a=1.0, k=Rational(2, 1), mu=0.2, nu=0.3)],
                         ids=["ttw-2", "ttw-3", "ttw-999", "pw-2"])
def test_nearest_ray_screening_decides_as_every_ray(spec):
    # the nearest ray in the sorted list is within the guard exactly when
    # some ray is, on grids in every layout and on angles placed just inside
    # and just outside the guard of each ray
    rays = spec.rays()
    decisions = []
    for n1, n2, box in ((9, 9, Box(6.0, 6.0)), (20, 20, Box(6.0, 6.0)),
                        (33, 57, Box(6.0, 10.0)), (64, 64, Box(10.0, 10.0))):
        for sx, sy in ((False, False), (False, True), (True, True)):
            nx, _ = _axis_nodes(box.x_max, n1, sx)
            ny, _ = _axis_nodes(box.y_max, n2, sy)
            decisions.append(_collides(nx, ny, rays))
            assert decisions[-1] == _collides_by_loop(nx, ny, rays)
    assert any(decisions) == (spec is _TTW2)     # a node on theta = pi/4
    inner, x = np.array([ray for _, ray in rays[1:-1]]), np.ones(1)
    for offset in (-2.0, -0.9, 0.9, 2.0):
        ny = np.tan(inner + offset * _ANGLE_GUARD)
        for nodes in [ny] + [ny[i:i + 1] for i in range(0, len(ny), 37)]:
            assert (_collides(x, nodes, rays) == _collides_by_loop(x, nodes, rays)
                    == (abs(offset) < 1 and len(nodes) > 0))
    if spec is _TTW2:
        with pytest.raises(SingularNodeUnavoidable):
            make_grid(Box(6.0, 6.0), 9, 9, spec=spec)


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
    assert np.allclose(op.matrix @ e, op.matrix.toarray()[:, 17])


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
        left = u @ (op.matrix @ v)
        right = (op.matrix @ u) @ v
        assert abs(left - right) <= 1e-13 * max(1.0, abs(left))


def test_matvec_zero_and_dimension_mismatch():
    spec = CagedOscillator()
    prob = reduce_to_2d(spec, 3, 3, box=Box(6.0, 6.0))
    op = assemble(prob, make_grid(prob.box, 10, 10))
    assert np.all(op.matrix @ np.zeros(op.dim) == 0.0)
    with pytest.raises(ValueError):
        op.matrix @ np.zeros(op.dim + 1)


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


def _kronecker_sum(grid, w):
    """The 5-point operator as kron(T_x, I) + kron(I, T_y) + diag(W)."""
    def stencil(n, h, staggered):
        main = np.full(n, 2.0 / h**2)
        if staggered:
            main[0] += 1.0 / h**2
            main[-1] += 1.0 / h**2
        off = np.full(n - 1, -1.0 / h**2)
        return sp.diags([off, main, off], [-1, 0, 1], format="csr")

    n1, n2 = grid.shape
    tx = stencil(n1, grid.h_x, grid.staggered_x)
    ty = stencil(n2, grid.h_y, grid.staggered_y)
    lap = sp.kron(tx, sp.identity(n2), format="csr") + sp.kron(sp.identity(n1), ty,
                                                              format="csr")
    matrix = (lap + sp.diags(w.ravel())).tocsr()
    matrix.sum_duplicates()
    return matrix


def _assert_same_csr(a, b):
    assert a.format == "csr" and a.has_canonical_format
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("shape", [(40, 40), (33, 57), (49, 48), (98, 98)])
@pytest.mark.parametrize("layout", [(False, False), (False, True), (True, True)],
                         ids=["plain", "y-staggered", "both-staggered"])
def test_five_diagonal_operator_equals_the_kronecker_sum(shape, layout):
    from few2d.discretize import Grid, _axis_nodes, _operator

    (n1, n2), (sx, sy) = shape, layout
    nx, hx = _axis_nodes(12.0, n1, sx)
    ny, hy = _axis_nodes(10.0, n2, sy)
    grid = Grid(box=Box(12.0, 10.0), nodes_x=nx, nodes_y=ny, h_x=hx, h_y=hy,
                staggered_x=sx, staggered_y=sy)
    w = np.random.default_rng(n1 * n2).uniform(-5.0, 50.0, grid.shape)
    w[3, 4] = -(2.0 / hx**2 + 2.0 / hy**2)     # an exact zero on the diagonal, left out
    op = _operator(grid, w)
    _assert_same_csr(op.matrix, _kronecker_sum(grid, w))
    coarse = op.coarsened()
    if coarse is not None:
        _assert_same_csr(coarse.matrix, _kronecker_sum(coarse.grid, coarse.w))
    # a canonical CSR operator is handed to SuperLU as its own CSC form
    from few2d.eigensolve import _csc
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(_csc(op.matrix), name), getattr(op.matrix, name))


def test_assembled_operators_equal_the_kronecker_sum():
    # the problem's own W on a TTW k = 2 grid, staggered by make_grid, and its
    # plain coarsening, and on an anisotropic caged grid and its two coarsenings
    spec = TTW(omega=1.0, k=Rational(2, 1), alpha=0.3, beta=0.4)
    prob = reduce_to_2d(spec, 3, 3, box=Box(10.0, 10.0))
    ttw = assemble(prob, make_grid(prob.box, 98, 98, spec=spec))
    assert ttw.grid.staggered_y
    caged = reduce_to_2d(CagedOscillator(a=1.0, b=1.7, omega=1.0, A=0.2, B=0.1), 3, 3,
                         box=Box(12.0, 12.0))
    for op in (ttw, assemble(caged, make_grid(caged.box, 160, 131))):
        while op is not None:
            _assert_same_csr(op.matrix, _kronecker_sum(op.grid, op.w))
            op = op.coarsened()


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


def test_exchange_isometries_split_a_mirror_symmetric_operator():
    # this caged oscillator's W misses exchange symmetry by rounding, and on
    # 21 x 21 nodes so does the diagonal of H, off which the split is read:
    # it is decided within a tolerance, not bitwise
    spec = CagedOscillator(a=0.903306, b=0.903306, omega=1.062654, A=0.273827, B=0.273827)
    prob = reduce_to_2d(spec, 3, 3, box=Box(12.0, 12.0))
    op = assemble(prob, make_grid(prob.box, 21, 21))
    main = op.matrix.diagonal().reshape(21, 21)
    asym = np.max(np.abs(main - main.T))
    assert 0.0 < asym < 1e-12
    assert op.exchange(0.0) is None
    P_s, P_a = (P.toarray() for P, _ in op.exchange(asym))
    assert P_s.shape == (441, 231) and P_a.shape == (441, 210)
    Q = np.hstack([P_s, P_a])
    assert np.allclose(Q.T @ Q, np.eye(441), rtol=0, atol=1e-15)
    # the swap x <-> y keeps each column of P_s and negates each of P_a
    swap = np.arange(441).reshape(21, 21).T.ravel()
    assert np.array_equal(P_s[swap], P_s) and np.array_equal(P_a[swap], -P_a)
    # so the sectors decouple up to rounding
    coupling = np.abs(P_s.T @ (op.matrix @ P_a)).max()
    assert coupling <= 8 * np.finfo(float).eps * abs(op.matrix).max()
