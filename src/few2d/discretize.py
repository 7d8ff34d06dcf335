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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, GridTooCoarse, SingularNodeUnavoidable, SingularPoint
from .model import PotentialSpec, singular_rays, validate
from .reduction import Box, ReducedProblem2D

_MIN_NODES = 8
_MIN_COARSE_NODES = 32   # coarser grids place the eigensolver's slice badly
_ANGLE_GUARD = 1e-9


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

    @property
    def size(self) -> int:
        return len(self.nodes_x) * len(self.nodes_y)


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
    theta = np.arctan2(nodes_y[None, :], nodes_x[:, None])
    for _, ray in rays:
        if np.any(np.abs(theta - ray) < _ANGLE_GUARD):
            return True
    return False


def make_grid(box: Box, n1: int, n2: int, spec: Optional[PotentialSpec] = None,
              offset_rule: str = "auto") -> Grid:
    """Uniform interior grid, offset by half a step if a singular ray is hit.

    Parameters
    ----------
    box : Box
        Truncation box.
    n1, n2 : int
        Interior node counts per axis (minimum 8).
    spec : PotentialSpec, optional
        Potential whose angular singular lines the nodes must avoid.
    offset_rule : {"auto", "none"}
        "auto" staggers the y axis (then also the x axis) on collision;
        "none" raises instead.
    """
    if n1 < _MIN_NODES or n2 < _MIN_NODES:
        raise GridTooCoarse(f"need at least {_MIN_NODES} nodes per axis, got {n1}x{n2}")
    if offset_rule not in ("auto", "none"):
        raise ValueError(f"unknown offset rule {offset_rule!r}")

    rays = singular_rays(validate(spec)) if spec is not None else []
    for sx, sy in ((False, False), (False, True), (True, True)):
        nx, hx = _axis_nodes(box.x_max, n1, sx)
        ny, hy = _axis_nodes(box.y_max, n2, sy)
        if not _collides(nx, ny, rays):
            return Grid(box=box, nodes_x=nx, nodes_y=ny, h_x=hx, h_y=hy,
                        staggered_x=sx, staggered_y=sy)
        if offset_rule == "none":
            raise SingularNodeUnavoidable(
                "grid nodes collide with a singular line and offsets are disabled"
            )
    raise SingularNodeUnavoidable(
        "nodes collide with a singular line even after half-step offsets"
    )


@dataclass(frozen=True)
class SparseOperator:
    """Symmetric 5-point discretization of a reduced 2D problem, CSR layout.

    ``w`` holds the node values W(x_i, y_j), shape ``grid.shape``, when the
    operator was assembled from a problem.
    """

    matrix: sp.csr_matrix
    grid: Grid
    w: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def coarsened(self) -> Optional["SparseOperator"]:
        """The operator on every other node per axis, for estimates only.

        Keeps the fine nodes ``[1::2]`` of each axis with their W values and
        the plain stencil at twice the step, so no potential is evaluated
        again.  None without node values or when a coarse axis would have
        fewer than 32 nodes.
        """
        if self.w is None:
            return None
        g = self.grid
        nodes_x, nodes_y = g.nodes_x[1::2], g.nodes_y[1::2]
        if min(len(nodes_x), len(nodes_y)) < _MIN_COARSE_NODES:
            return None
        coarse = Grid(box=g.box, nodes_x=nodes_x, nodes_y=nodes_y,
                      h_x=2.0 * g.h_x, h_y=2.0 * g.h_y)
        return _operator(coarse, self.w[1::2, 1::2])

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        if v.shape != (self.dim,):
            raise DimensionMismatch(
                f"operator dimension {self.dim}, vector shape {v.shape}"
            )
        return self.matrix @ v

    def dump_binary(self, path) -> None:
        """Write CSR arrays (row pointer, column index, value), little endian.

        Layout: 8-byte magic b"FEW2DCSR", three little-endian int64 fields
        (nrows, ncols, nnz), then indptr as int64[nrows+1], indices as
        int64[nnz], data as float64[nnz].
        """
        m = self.matrix
        with open(path, "wb") as fh:
            fh.write(b"FEW2DCSR")
            fh.write(struct.pack("<qqq", m.shape[0], m.shape[1], m.nnz))
            m.indptr.astype("<i8").tofile(fh)
            m.indices.astype("<i8").tofile(fh)
            m.data.astype("<f8").tofile(fh)


def _axis_stencil(n: int, h: float, staggered: bool) -> sp.csr_matrix:
    main = np.full(n, 2.0 / h**2)
    if staggered:
        # antisymmetric ghost across each wall: u_0 = -u_1, u_{n+1} = -u_n
        main[0] += 1.0 / h**2
        main[-1] += 1.0 / h**2
    off = np.full(n - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def assemble(problem: ReducedProblem2D, grid: Grid) -> SparseOperator:
    """Assemble H = -d2/dx2 - d2/dy2 + W on the grid.

    Diagonal entries are 2/h_x^2 + 2/h_y^2 + W(x_i, y_j) (plus the wall
    correction on staggered axes); off-diagonals are -1/h^2 towards each
    stencil neighbor.  Row index is i * n_y + j.
    """
    rays = singular_rays(problem.potential)
    if _collides(grid.nodes_x, grid.nodes_y, rays):
        raise SingularPoint("angular ray", "grid node on a singular line")
    w = problem.effective_values(grid.nodes_x[:, None], grid.nodes_y[None, :])
    w = np.asarray(w, dtype=float).reshape(grid.shape)
    if not np.all(np.isfinite(w)):
        raise SingularPoint("potential", "non-finite value at a grid node")
    return _operator(grid, w)


def _operator(grid: Grid, w: np.ndarray) -> SparseOperator:
    """Stencils of the grid's axes plus diag(W) for node values ``w``."""
    n1, n2 = grid.shape
    tx = _axis_stencil(n1, grid.h_x, grid.staggered_x)
    ty = _axis_stencil(n2, grid.h_y, grid.staggered_y)
    lap = sp.kron(tx, sp.identity(n2), format="csr") + sp.kron(
        sp.identity(n1), ty, format="csr"
    )
    matrix = (lap + sp.diags(w.ravel())).tocsr()
    matrix.sum_duplicates()
    return SparseOperator(matrix=matrix, grid=grid, w=w)


def matvec(op: SparseOperator, v: np.ndarray) -> np.ndarray:
    """Exact sparse product with deterministic (row-sequential) summation."""
    return op.matvec(v)
