"""Tensor grids on the truncated quadrant and the 5-point sparse operator.

Second-order central differences with Dirichlet walls on all four box
edges, including the axes x = 0 and y = 0: the gauged inverse-square
potentials demand vanishing boundary behavior there, and Dirichlet is the
Friedrichs (conservative) choice elsewhere.

A grid axis can be staggered by half a step when a node family collides
with an angular singular line of the potential (rational-slope rays such
as theta = pi/4 for k = 2).  Staggered walls keep the Dirichlet condition
second-order accurate through an antisymmetric ghost node, which adds
1/h^2 to the two wall-row diagonals of that axis; plain axes carry the
textbook (2/h^2, -1/h^2) stencil exactly.

The operator is assembled directly as its five diagonals: each node's x
neighbours lie n_y rows away and its y neighbours in the rows next to it.
The CSR arrays are those of the Kronecker sum of the two axis stencils plus
diag(W), entry for entry.  When both axes are equal and W(x, y) = W(y, x),
the swap x <-> y maps the operator onto itself, and ``exchange`` gives the
isometries onto its symmetric and antisymmetric sectors with the operator's
diagonal block in each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import BoundViolation, GridTooCoarse, SingularNodeUnavoidable, SingularPoint
from .model import PotentialSpec
from .reduction import Box, ReducedProblem2D

_MIN_NODES = 8
_MIN_COARSE_NODES = 32   # coarser grids place the eigensolver's slice badly
_ANGLE_GUARD = 1e-9
# largest |W| at a node: the eigensolver's residual norms sum n squares of
# operator entries, which stays finite for up to 10^7 nodes of this size
_W_MAX = 1e150


@dataclass(frozen=True)
class Grid:
    """Interior tensor nodes of the truncation box.

    Plain axes place nodes at i*h, i = 1..n with h = extent/(n+1); staggered
    axes place them at (i - 1/2)*h with h = extent/n.
    """

    box: Box
    nodes_x: np.ndarray
    nodes_y: np.ndarray
    h_x: float
    h_y: float
    staggered_x: bool = False
    staggered_y: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.nodes_x), len(self.nodes_y))


def _axis_nodes(extent: float, n: int, staggered: bool) -> tuple[np.ndarray, float]:
    if staggered:
        h = extent / n
        return h * (np.arange(1, n + 1) - 0.5), h
    h = extent / (n + 1)
    return h * np.arange(1, n + 1), h


def _collides(nodes_x: np.ndarray, nodes_y: np.ndarray,
              rays: list[tuple[str, float]]) -> bool:
    if not rays:
        return False
    # some ray is within the guard exactly when the nearest is, one of the two
    # that bracket the node's angle in the sorted list
    theta = np.arctan2(nodes_y[None, :], nodes_x[:, None]).ravel()
    angles = np.sort([ray for _, ray in rays])
    above = np.minimum(np.searchsorted(angles, theta), len(angles) - 1)
    below = np.maximum(above - 1, 0)
    nearest = np.minimum(np.abs(theta - angles[below]), np.abs(theta - angles[above]))
    return bool(np.any(nearest < _ANGLE_GUARD))


def make_grid(box: Box, n1: int, n2: int, spec: Optional[PotentialSpec] = None) -> Grid:
    """Uniform interior grid, offset by half a step if a singular ray is hit.

    Parameters
    ----------
    box : Box
        Truncation box.
    n1, n2 : int
        Interior node counts per axis (minimum 8).
    spec : PotentialSpec, optional
        Potential whose angular singular lines the nodes must avoid; on a
        collision the y axis is staggered, then also the x axis.
    """
    if n1 < _MIN_NODES or n2 < _MIN_NODES:
        raise GridTooCoarse(f"need at least {_MIN_NODES} nodes per axis, got {n1}x{n2}")

    rays = spec.rays() if spec is not None else []
    for sx, sy in ((False, False), (False, True), (True, True)):
        nx, hx = _axis_nodes(box.x_max, n1, sx)
        ny, hy = _axis_nodes(box.y_max, n2, sy)
        if not _collides(nx, ny, rays):
            return Grid(box=box, nodes_x=nx, nodes_y=ny, h_x=hx, h_y=hy,
                        staggered_x=sx, staggered_y=sy)
    raise SingularNodeUnavoidable(
        "nodes collide with a singular line even after half-step offsets"
    )


@dataclass(frozen=True)
class SparseOperator:
    """Symmetric 5-point discretization of a reduced 2D problem, CSR layout;
    ``w`` holds the node values W(x_i, y_j), shape ``grid.shape``."""

    matrix: sp.csr_matrix
    grid: Grid
    w: np.ndarray = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def coarsened(self) -> Optional["SparseOperator"]:
        """The operator on every other node per axis, for estimates only.

        Keeps the fine nodes ``[1::2]`` of each axis with their W values and
        the plain stencil at twice the step, so no potential is evaluated
        again.  None when a coarse axis would have fewer than 32 nodes.
        """
        g = self.grid
        nodes_x, nodes_y = g.nodes_x[1::2], g.nodes_y[1::2]
        if min(len(nodes_x), len(nodes_y)) < _MIN_COARSE_NODES:
            return None
        coarse = Grid(box=g.box, nodes_x=nodes_x, nodes_y=nodes_y,
                      h_x=2.0 * g.h_x, h_y=2.0 * g.h_y)
        return _operator(coarse, self.w[1::2, 1::2])

    def exchange(self, tol: float) -> Optional[list[tuple[sp.csc_matrix, sp.csr_matrix]]]:
        """``[(P_s, P_s^T H P_s), (P_a, P_a^T H P_a)]``: orthonormal bases of
        the grid functions that are symmetric and antisymmetric under the swap
        x <-> y, each with its diagonal block of the operator H, or None when
        the swap does not map the operator onto itself.

        P_s has the n(n+1)/2 columns (e_ij + e_ji)/sqrt(2), i < j, and e_ii,
        P_a the n(n-1)/2 columns (e_ij - e_ji)/sqrt(2), in row-major order of
        (i, j); [P_s P_a] is orthogonal, so H splits into the two blocks.  The
        stencil couples no node (i, j), i < j, to one below the diagonal, so a
        block is H on P's nodes times 2 s^2 between pair nodes and 2 s between
        a pair and a diagonal node, s = sqrt(1/2), rounded as P^T H P rounds,
        in canonical CSR.  Returned only when both axes have the same nodes,
        step and stagger, and the node values of W differ from their transpose
        by at most ``tol``: summing terms in another order can leave an
        exchange-symmetric W asymmetric by an ulp.
        """
        g, w = self.grid, self.w
        if (g.staggered_x != g.staggered_y or g.h_x != g.h_y
                or not np.array_equal(g.nodes_x, g.nodes_y)
                or np.max(np.abs(w - w.T)) > tol):
            return None
        n, s = len(g.nodes_x), np.sqrt(0.5)

        def sector(i, j, sign):
            pair, nodes, cols = i != j, i * n + j, np.arange(len(i))
            P = sp.csc_matrix((np.concatenate([np.where(pair, s, 1.0),
                                               np.full(np.count_nonzero(pair), sign * s)]),
                               (np.concatenate([nodes, (j * n + i)[pair]]),
                                np.concatenate([cols, cols[pair]]))),
                              shape=(n * n, len(i)))
            A = self.matrix[nodes][:, nodes]
            pair_row = pair[np.repeat(cols, np.diff(A.indptr))]
            pair_col = pair[A.indices]
            A.data = np.where(pair_row & pair_col, 2 * (s * (s * A.data)),
                              np.where(pair_row | pair_col, 2 * (s * A.data), A.data))
            return P, A

        return [sector(*np.triu_indices(n), 1.0), sector(*np.triu_indices(n, 1), -1.0)]

    def prolong(self, coarse: "SparseOperator", vectors: np.ndarray) -> np.ndarray:
        """Columns of ``vectors``, given on the nodes of ``coarse`` (from one or
        more ``coarsened()`` steps), interpolated bilinearly to this operator's
        nodes, with zeros on the walls of the box."""
        g, c = self.grid, coarse.grid
        px = _interpolation(g.nodes_x, c.nodes_x, g.box.x_max)
        py = _interpolation(g.nodes_y, c.nodes_y, g.box.y_max)
        v = vectors.reshape(len(c.nodes_x), len(c.nodes_y), -1)
        rows = np.tensordot(px, v, axes=(1, 0))      # (fine x, coarse y, k)
        return np.matmul(py, rows).reshape(self.dim, -1)


def _interpolation(fine: np.ndarray, coarse: np.ndarray, extent: float) -> np.ndarray:
    """Linear interpolation from ``coarse`` nodes to ``fine`` nodes of one axis,
    with the value 0 at the walls 0 and ``extent``; shape (fine, coarse)."""
    knots = np.concatenate(([0.0], coarse, [extent]))
    right = np.clip(np.searchsorted(knots, fine), 1, len(knots) - 1)
    t = (fine - knots[right - 1]) / (knots[right] - knots[right - 1])
    weights = np.zeros((len(fine), len(knots)))
    rows = np.arange(len(fine))
    weights[rows, right - 1] = 1.0 - t
    weights[rows, right] += t
    return weights[:, 1:-1]


def _axis_stencil(n: int, h: float, staggered: bool) -> tuple[np.ndarray, float]:
    """``(main, off)``: the diagonal and the off-diagonal value of -d2/dx2 on
    n nodes of step h with Dirichlet walls."""
    main = np.full(n, 2.0 / h**2)
    if staggered:
        # antisymmetric ghost across each wall: u_0 = -u_1, u_{n+1} = -u_n
        main[0] += 1.0 / h**2
        main[-1] += 1.0 / h**2
    return main, -1.0 / h**2


def assemble(problem: ReducedProblem2D, grid: Grid) -> SparseOperator:
    """Assemble H = -d2/dx2 - d2/dy2 + W on the grid.

    Diagonal entries are 2/h_x^2 + 2/h_y^2 + W(x_i, y_j) (plus the wall
    correction on staggered axes); off-diagonals are -1/h^2 towards each
    stencil neighbor.  Row index is i * n_y + j.  A node where W is not
    finite, or exceeds ``_W_MAX`` in magnitude, is refused by name.
    """
    if _collides(grid.nodes_x, grid.nodes_y, problem.potential.rays()):
        raise SingularPoint("angular ray", "grid node on a singular line")
    with np.errstate(all="ignore"):     # values out of range are refused just below
        w = problem.effective_values(grid.nodes_x[:, None], grid.nodes_y[None, :])
    w = np.asarray(w, dtype=float).reshape(grid.shape)
    out = ~(np.abs(w) <= _W_MAX)
    if out.any():
        i, j = np.argwhere(out)[0]
        where = (f"W = {w[i, j]:.6g} at the grid node (x, y) = "
                 f"({grid.nodes_x[i]:.12g}, {grid.nodes_y[j]:.12g})")
        if np.isfinite(w[i, j]):
            raise BoundViolation(f"{where} exceeds {_W_MAX:g} in magnitude, beyond which "
                                 f"the eigensolver's residual norms overflow")
        raise SingularPoint("potential", f"non-finite value {where}")
    return _operator(grid, w)


def _operator(grid: Grid, w: np.ndarray) -> SparseOperator:
    """Stencils of the grid's axes plus diag(W) for node values ``w``.

    Built as five diagonals: row i * n_y + j has its x neighbours n_y away
    and its y neighbours next to it, bar those across a wall.  The entries,
    their order and the canonical CSR layout are those of the Kronecker sum
    kron(T_x, I) + kron(I, T_y) + diag(W).
    """
    n1, n2 = grid.shape
    mx, off_x = _axis_stencil(n1, grid.h_x, grid.staggered_x)
    my, off_y = _axis_stencil(n2, grid.h_y, grid.staggered_y)
    main = ((mx[:, None] + my[None, :]) + w).ravel()
    side = np.full((n1, n2), off_y)
    side[:, -1] = 0.0      # the last node of each y line has no next neighbour; the
                           # CSR arrays leave zeros out, as the Kronecker sum does
    side = side.ravel()[:-1]
    far = np.full(n1 * n2 - n2, off_x)
    matrix = sp.diags([far, side, main, side, far], [-n2, -1, 0, 1, n2], format="csr")
    return SparseOperator(matrix=matrix, grid=grid, w=w)
