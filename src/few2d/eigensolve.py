"""Lowest eigenpairs by shift-invert Lanczos, certified by an inertia count;
degeneracy clustering.

``lowest_eigs`` hands the solves with a SuperLU factorization (symmetric
minimum-degree ordering) of a shifted H to ARPACK's implicitly restarted
Lanczos in shift-invert mode, the spectral transformation of Ericsson & Ruhe
1980.  A Krylov space can miss one copy of an exactly degenerate level, so
the set is certified by Sylvester's law of inertia: factored with diagonal
pivots only, H - tau I has as many negative pivots as H has eigenvalues
below tau (spectrum slicing, Parlett, *The Symmetric Eigenvalue Problem*).

On an operator that can be coarsened, one such factorization does both jobs
(Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl. 1994).  The lowest m + 3
levels are first estimated, uncertified, on the coarsest grid that keeps at
least 32 nodes per axis and more than 3(m + 3) + 2 nodes, solved there on
the Gershgorin path below, and tau is put in the widest of their gaps above
the m-th.  The estimate's eigenvectors, interpolated to the fine grid, span
a space whose Rayleigh-Ritz values bound the fine levels from above (Cauchy
interlacing).  When the bound of the level below the gap lies between the
gap's midpoint and the next estimate, tau is raised to it, so that an
estimate lying low still counts every level below the gap.  Should the bound
reach past the next estimate, the gap is not bracketed, and the estimate is
made again one grid finer, at most on the half-resolution grid.  The c
negative pivots of H - tau I count the levels below tau, and ARPACK seeks
the c algebraically smallest values of (H - tau I)^-1: exactly the levels
below tau.  It starts from the sum of the Ritz vectors of the levels below
the gap, which lies close to the subspace it seeks (Lehoucq, Sorensen &
Yang, *ARPACK Users' Guide*, 1998), and is formed on the coarse grid and
interpolated once.  A value returned above tau means a copy was missed; it
is sought again in the orthogonal complement of the pairs found, with the
same factorization.  The count comes first because with fewer than m levels
below tau the solve falls back at once, rather than ARPACK hunting the top
of the spectrum for the rest.

A convergence ladder hands each solve to the next (nested iteration): a
``prior``, a converged solve of the same problem on a grid no finer and at
most one halving coarser per axis, stands in for the coarse estimate.  Its
first m eigenvectors, prolonged, give Rayleigh-Ritz values that bound the
lowest m levels from above, so tau just above the m-th of them counts at
least m levels, and the sum of those m Ritz vectors starts ARPACK; the
prior's own levels are not read.

A grid operator that the swap x <-> y maps onto itself (its diagonal and
bands, read off H, swap-symmetric) is sliced in its two exchange sectors
(symmetry-adapted bases; Faessler & Stiefel, *Group Theoretical Methods and
Their Applications*, 1992), which ``SparseOperator.exchange`` gives as
isometries P with their diagonal blocks P^T H P.  tau and the start vector
are placed on the whole operator as above; then each block, of about half
the nodes, is factored and counted at tau.  The orthogonal [P_s P_a] makes
the blocks' inertias add up to that of H - tau I, so the summed count
certifies as one count would.  ARPACK completes each block from its share
P^T of the start vector, both blocks drawing on one budget of solves, and
the levels come back as P v with residuals measured on H.  Without such a
symmetry the one block is H itself.

Plain matrices and grids with no such coarse grid take the Gershgorin path,
as does a slice that cannot be factored, counts fewer than m levels or far
more than estimated, or is not completed while budget remains.  That path
shifts to sigma0 strictly below a Gershgorin bound of the whole spectrum,
where the lowest levels are the dominant ones of (H - sigma0 I)^-1, and
counts at tau in the first clear gap above the m-th level found.
H - sigma0 I is strictly diagonally dominant, so threshold pivoting would
keep the diagonal pivots too (Golub & Van Loan, *Matrix Computations*, 3.4):
it is factored once, as for a count, for every ARPACK run of the path, and
dropped before H - tau I is factored.  A count above the levels found below
tau hands the count's factorization to the same completion as above.  A set
the count does not confirm is reported with ``converged=False``.  The
Gershgorin path and every retry for a missed copy start from a seeded
generator, and the slice's start vector is a function of the estimate or the
prior alone, so a fixed seed gives the same pairs and counts on a given
platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import DimensionMismatch

_ORDERING = "MMD_AT_PLUS_A"   # symmetric ordering; about half the fill of COLAMD on 5-point grids
_ATTEMPTS = 4                 # ARPACK runs per stage: the first plus retries for missed copies
_EXTRA_LEVELS = 3             # levels beyond m in the coarse estimate: gaps for tau
_ESTIMATE_TOL = 1e-3          # residual tolerance of the coarse estimate
_OVERCOUNT = 2                # a slice counting more than twice the estimate falls back
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class EigenResult:
    """Eigenpairs, ascending; residuals are ||H v - lambda v||.

    ``count_below`` is the number of eigenvalues of H below the slicing
    point tau, from the inertia of H - tau I (read off the full spectrum on
    the dense path), or None when no count was made.  It exceeds the number
    of returned levels only when the m-th level's multiplet continues past m.
    ``factorizations`` counts the sparse factorizations of shifted copies of
    H or of its exchange-sector blocks: one per block on a split slice, and
    on the Gershgorin path one of H - sigma0 I for all its ARPACK runs and
    one for the count (0 on the dense path); those of the coarse estimate are
    not included.
    ``factor_nnz`` is the size (SuperLU's nnz of L + U) of the factorization
    that made the count, summed over the blocks of a split slice, or None on
    the dense path or when no count was made.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    iterations: int
    converged: bool
    breakdown: bool
    tol: float
    count_below: int | None
    factorizations: int
    factor_nnz: int | None

    def to_dict(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "residuals": self.residuals.tolist(),
            "iterations": self.iterations,
            "converged": self.converged,
            "breakdown": self.breakdown,
            "tol": self.tol,
            "count_below": self.count_below,
            "factorizations": self.factorizations,
            "factor_nnz": self.factor_nnz,
        }


def _as_matrix(op):
    if sp.issparse(op):
        return op
    matrix = getattr(op, "matrix", None)
    if matrix is not None:
        return matrix
    return np.asarray(op)


def _csc(H) -> sp.csc_matrix:
    """H as a float CSC matrix.  A canonical float CSR H is symmetric, so its
    arrays already are those of its CSC form, and are taken without a copy."""
    if sp.issparse(H) and H.format == "csr" and H.dtype == float and H.has_canonical_format:
        return sp.csc_matrix((H.data, H.indices, H.indptr), shape=H.shape)
    return sp.csc_matrix(H, dtype=float)


def _gershgorin(H) -> tuple[float, float]:
    """Bounds (lower, upper) on the spectrum of the symmetric matrix H."""
    d = H.diagonal()
    radius = np.asarray(abs(H).sum(axis=1)).ravel() - np.abs(d)
    return float(np.min(d - radius)), float(np.max(d + radius))


def _slice_index(vals: np.ndarray, m: int, spread: float) -> int | None:
    """Smallest j >= m with vals[j] - vals[j-1] > spread, else None."""
    gaps = np.flatnonzero(np.diff(vals)[m - 1:] > spread)
    return m + int(gaps[0]) if gaps.size else None


def _factor_at(H: sp.csc_matrix, tau: float):
    """A factorization of H - tau I whose pivots give its inertia, or None.

    SuperLU with diagonal pivots only factors P (H - tau I) P^T = L U with
    U = D L^T, a congruence, so the negative entries of diag(U) count the
    negative eigenvalues.  That holds only for a symmetric permutation
    (perm_r == perm_c); otherwise, or for an exactly singular shift, None.
    """
    try:
        lu = splu(H - tau * sp.identity(H.shape[0], format="csc"), permc_spec=_ORDERING,
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError:   # a zero pivot: tau is an eigenvalue to working precision
        return None
    return lu if np.array_equal(lu.perm_r, lu.perm_c) else None


def _budget(m: int) -> int:
    """The default budget of solves for m levels."""
    return max(20000, 400 * m)


def _empty(n: int):
    return np.zeros(0), np.zeros((n, 0))


def _negative_pivots(lu) -> int:
    """Eigenvalues below tau, for ``lu`` from ``_factor_at(H, tau)``.

    The first read of ``lu.U`` makes SuperLU build CSC copies of both L and
    U, about as large as the factorization itself, and cache them for the
    life of ``lu`` (``lu.U is lu.U``).  ``lu.solve`` works on the factors
    themselves and nothing here reads the copies again, so they are emptied
    once the pivots are counted instead of sitting beside ARPACK's basis.
    """
    count = int(np.count_nonzero(lu.U.diagonal() < 0))
    for copy in (lu.L, lu.U):
        for name in ("data", "indices", "indptr"):
            setattr(copy, name, np.empty(0, dtype=getattr(copy, name).dtype))
    return count


class _Solve:
    """One sparse call of ``lowest_eigs``: operator, start vectors, budget, counters."""

    def __init__(self, H: sp.csc_matrix, tol: float, max_iter: int, seed: int):
        self.H, self.n = H, H.shape[0]
        self.lower, self.upper = _gershgorin(H)
        # strictly below the spectrum, so H - sigma0 I is positive definite
        self.sigma0 = (self.lower - 1e-6 * (self.upper - self.lower)
                       - 1e-3 * abs(self.lower))
        # rounding allowance of a factorization of H - tau I
        self.slack = 1e3 * _EPS * (self.upper - self.sigma0)
        self.tol, self.max_iter = tol, max_iter
        self.rng = np.random.default_rng(seed)
        self.start = self.rng.standard_normal(self.n)
        self.solves = self.factorizations = 0
        self.factor_nnz = None
        self.breakdown = self.exhausted = False

    def count(self, A: sp.csc_matrix, tau: float):
        """``(lu, c)``: a factorization of A - tau I, for A = H or a diagonal
        block of it, and the c levels of A below tau it counts, or ``(None,
        None)``; the size of ``lu`` is kept."""
        self.factorizations += 1
        lu = _factor_at(A, tau)
        if lu is None:
            return None, None
        self.factor_nnz = lu.nnz
        return lu, _negative_pivots(lu)

    def spread(self, vals: np.ndarray, vecs: np.ndarray) -> float:
        """Smallest gap that the inertia count can tell from rounding."""
        res = np.linalg.norm(self.H @ vecs - vecs * vals, axis=0)
        return 2.0 * float(np.linalg.norm(res)) + self.slack

    def arpack(self, A: sp.csc_matrix, lu, sigma: float, which: str, k: int,
               found: np.ndarray, v0: np.ndarray):
        """k pairs of A, H or a diagonal block of it, about sigma in the
        orthogonal complement of ``found``'s columns.

        ARPACK in shift-invert mode with solves by ``lu``, the factorization
        of A - sigma I from ``_factor_at``.  At most the rest of the budget,
        shared by all blocks, is spent, and ``exhausted`` is set once it stops
        a run.  Returns ``(vals, vecs, complete)``; when ``complete`` is False
        the pairs are those converged before the budget ran out (none on a
        breakdown).
        """
        n = A.shape[0]
        k = min(k, n - 2 - found.shape[1])
        budget = self.max_iter - self.solves
        # the first pass takes `basis` solves and one more, each restart at most
        # basis - k, and ARPACK makes at least one restart: keep all inside the budget
        basis = min(n, max(2 * k + 1, 20), (budget + k - 1) // 2)
        self.breakdown = False
        if k < 1:
            return *_empty(n), False
        if basis <= k:
            self.exhausted = True
            return *_empty(n), False

        def solve(x):
            self.solves += 1
            if found.shape[1]:
                x = x - found @ (found.T @ x)
            y = lu.solve(x)
            if found.shape[1]:
                y -= found @ (found.T @ y)
            return y

        if found.shape[1]:
            v0 = v0 - found @ (found.T @ v0)
        # ARPACK stops at ||OP x - nu x|| <= arpack_tol * |nu| for OP = (H - sigma I)^-1,
        # which bounds ||H x - lambda x|| by ||H - sigma I|| * arpack_tol
        norm = max(self.upper - sigma, sigma - self.lower)
        try:
            vals, vecs = eigsh(A, k, sigma=sigma, which=which, v0=v0, ncv=basis,
                               tol=max(self.tol / norm, _EPS),
                               maxiter=(budget - 1 - basis) // (basis - k),
                               OPinv=LinearOperator((n, n), matvec=solve, dtype=float))
        except ArpackNoConvergence as exc:
            self.exhausted = True
            return exc.eigenvalues, exc.eigenvectors, False
        except ArpackError:
            self.breakdown = True
            return *_empty(n), False
        return vals, vecs, True

    def complete_below(self, A: sp.csc_matrix, lu, count: int, tau: float, vals: np.ndarray,
                       vecs: np.ndarray, v0: np.ndarray):
        """Extend levels of A (H or a diagonal block) found below tau to all
        ``count`` of them.

        The missing ones are the algebraically smallest values of
        (A - tau I)^-1 in the complement of those found; a value returned
        above tau is dropped and sought again, unless the attempt found no
        level below tau at all, which ends the search.  Returns ``(vals,
        vecs, certified)``, sorted, all below tau.
        """
        for _ in range(_ATTEMPTS):
            if len(vals) == count:
                break
            new_vals, new_vecs, complete = self.arpack(A, lu, tau, "SA", count - len(vals),
                                                       vecs, v0)
            below = new_vals < tau
            vals = np.concatenate([vals, new_vals[below]])
            vecs = np.hstack([vecs, new_vecs[:, below]])
            if not complete or not below.any():
                break
            v0 = self.rng.standard_normal(A.shape[0])
        order = np.argsort(vals, kind="stable")
        return vals[order], vecs[:, order], len(vals) == count

    def sliced(self, m: int, j: int, tau: float, start: np.ndarray, blocks: list):
        """Levels below tau, placed to count about j >= m of them, block by
        block: ``blocks`` holds pairs (P, A) of an isometry P and the diagonal
        block A = P^T H P, from ``SparseOperator.exchange``, or (None, H) alone.

        Every block is factored and counted at tau; Q = [P ...] is
        orthogonal, so their counts add up to the levels of H below tau.
        ARPACK completes each block from P^T ``start``, or from the seeded
        generator when that is zero, and its retries from the generator; the
        levels come back as P v.  Returns ``(vals, vecs, count, certified)``,
        or None to fall back: when some A - tau I cannot be counted, the
        count is below m or above ``_OVERCOUNT`` times j, or, unless the
        budget ran out, the slice is not completed or misses ``tol`` on H
        (the diagonal pivots of an indefinite A - tau I may lose accuracy).
        """
        counted = []
        for P, A in blocks:
            lu, count = self.count(A, tau)
            if count is None:
                return None
            counted.append((P, A, lu, count))
        count = sum(c for *_, c in counted)
        if not m <= count <= _OVERCOUNT * j:
            return None
        self.factor_nnz = sum(lu.nnz for _, _, lu, _ in counted)
        parts, certified = [], True
        for P, A, lu, c in counted:
            v0 = start if P is None else P.T @ start
            if not v0.any():
                v0 = self.rng.standard_normal(A.shape[0])
            vals, vecs, done = self.complete_below(A, lu, c, tau, *_empty(A.shape[0]), v0)
            parts.append((vals, vecs if P is None else P @ vecs))
            certified = certified and done
        vals, vecs = parts[0]
        if len(parts) > 1:      # the sectors' levels interleave
            vals = np.concatenate([vals for vals, _ in parts])
            order = np.argsort(vals, kind="stable")
            vals, vecs = vals[order], np.hstack([vecs for _, vecs in parts])[:, order]
        res = np.linalg.norm(self.H @ vecs - vecs * vals, axis=0)
        if not (certified and np.all(res <= self.tol)) and not self.exhausted:
            return None
        return vals, vecs, count, certified

    def shifted(self, m: int):
        """Levels below sigma0's first clear gap above the m-th, certified by a count.

        H - sigma0 I is factored once for every ARPACK run, and dropped before
        H - tau I is factored for the count; a factorization that fails is a
        breakdown.  Returns ``(vals, vecs, count, certified)``.
        """
        vals, vecs = _empty(self.n)
        v0, want = self.start, m + 2
        self.factorizations += 1
        lu = _factor_at(self.H, self.sigma0)
        if lu is None:
            self.breakdown = True
            return vals, vecs, None, False
        for _ in range(_ATTEMPTS):
            new_vals, new_vecs, complete = self.arpack(self.H, lu, self.sigma0, "LM", want,
                                                       vecs, v0)
            vals = np.concatenate([vals, new_vals])
            vecs = np.hstack([vecs, new_vecs])
            order = np.argsort(vals, kind="stable")
            vals, vecs = vals[order], vecs[:, order]
            if not complete:
                break
            v0 = self.rng.standard_normal(self.n)
            j = _slice_index(vals, m, self.spread(vals, vecs))
            if j is None:
                want = len(vals)      # the m-th multiplet runs past what was found
                continue
            tau = 0.5 * (vals[j - 1] + vals[j])
            del lu          # so that it never coexists with the count's factorization
            lu, count = self.count(self.H, tau)
            if count is None or count < j:
                return vals, vecs, count, False
            # count > j: the missed copies are sought about tau
            vals, vecs, certified = self.complete_below(self.H, lu, count, tau, vals[:j],
                                                        vecs[:, :j], v0)
            return vals, vecs, count, certified
        return vals, vecs, None, False


def _ritz(op, coarse, vectors: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """``(values, start)``: Rayleigh-Ritz values of ``op`` on ``vectors``,
    given on the nodes of ``coarse``, prolonged to its nodes, and the sum of
    the first j Ritz vectors, a start vector for ARPACK close to the span of
    the lowest j levels of ``op``.

    Prolonged from a grid no finer per axis, independent vectors stay
    independent, so by Cauchy interlacing the i-th value bounds the i-th
    level of ``op`` from above.  The sum is formed on the coarse nodes and
    prolonged once, so the prolonged basis is the only fine block.
    """
    basis = op.prolong(coarse, vectors)
    values, y = eigh(basis.T @ (op.matrix @ basis), basis.T @ basis)
    return values, op.prolong(coarse, vectors @ y[:, :j].sum(axis=1))[:, 0]


def _estimated_slice(op, m: int, seed: int, slack: float):
    """``(j, tau, start)`` from the lowest k = m + 3 levels of ``op``
    estimated on a coarsened grid, or None when there is no such grid or the
    estimate offers no gap above its m-th level.

    The grids are ``op.coarsened()``, its ``coarsened()``, and so on, while
    they have more than 3k + 2 nodes; each is solved on the Gershgorin path
    to a loose tolerance.  j >= m indexes the estimate's widest gap above
    its m-th level, and ``_ritz`` gives the Ritz values of ``op`` on the
    estimate's vectors and, as ``start``, the sum of the first j Ritz
    vectors.  The coarsest grid comes first, and a finer one is tried only
    while ``ritz[j-1]``, an upper bound of the j-th level, reaches
    ``estimate[j]``.  tau is the gap's midpoint, raised to just above
    ``ritz[j-1]`` when that stays below ``estimate[j]``, so that an estimate
    lying low still counts all j levels.  The coarse nodes are fine nodes,
    so the prolonged vectors stay independent.
    """
    k = m + _EXTRA_LEVELS
    grids = []
    coarse = op.coarsened() if hasattr(op, "coarsened") else None
    while coarse is not None and 3 * k + 2 < coarse.dim:
        grids.append(coarse)
        coarse = coarse.coarsened()
    if not grids:
        return None
    for coarse in reversed(grids):
        estimate, vectors, *_ = _Solve(_csc(coarse.matrix), _ESTIMATE_TOL, _budget(k),
                                       seed).shifted(k)
        estimate, vectors = estimate[:k], vectors[:, :k]
        if len(estimate) <= m:
            return None
        j = m + int(np.argmax(np.diff(estimate)[m - 1:]))
        ritz, start = _ritz(op, coarse, vectors, j)
        if ritz[j - 1] < estimate[j]:
            break
    tau = 0.5 * (estimate[j - 1] + estimate[j])
    bound = ritz[j - 1] + slack
    return j, (bound if tau < bound < estimate[j] else tau), start


def _prior_slice(op, m: int, prior, slack: float):
    """``(m, tau, start)`` from ``prior = (prior_op, result)``, a solve of the
    same problem on another grid: tau lies ``slack`` above the Ritz value of
    the m-th level of ``op`` on the result's first m eigenvectors, and
    ``start`` is the sum of those m Ritz vectors.  None without a prior, or
    unless the result converged with at least m pairs and, per axis, its grid
    is no finer than ``op``'s and at most one halving coarser.
    """
    if prior is None:
        return None
    prior_op, result = prior
    if not (result.converged and len(result.eigenvalues) >= m and hasattr(op, "prolong")
            and all(n_prior <= n <= 2 * n_prior + 1
                    for n, n_prior in zip(op.grid.shape, prior_op.grid.shape))):
        return None
    ritz, start = _ritz(op, prior_op, result.eigenvectors[:, :m], m)
    return m, ritz[-1] + slack, start


def lowest_eigs(op, m: int, tol: float = 1e-8, max_iter: int | None = None,
                seed: int = 0, prior=None) -> EigenResult:
    """Lowest m eigenpairs of a symmetric operator, certified by an inertia count.

    Parameters
    ----------
    op : SparseOperator, scipy sparse matrix or ndarray
        Symmetric operator.  A ``SparseOperator`` whose ``coarsened()``
        gives an operator is solved by the slice about an estimated gap, in
        its two exchange sectors when ``exchange()`` splits it.
    m : int
        Number of requested pairs (small operators, or m above half the
        dimension, fall back to a dense solve).
    tol : float
        Absolute residual tolerance ||H v - lambda v|| per pair.
    max_iter : int, optional
        Budget of operator applications, i.e. solves with a factored
        shifted H or sector block, shared by all blocks (default
        max(20000, 400 m)).  On exhaustion the pairs
        converged so far are returned with ``converged=False``.
    seed : int
        Seed of the coarse estimate and of the start vectors that do not come
        from Ritz vectors: those of the Gershgorin path and of every retry.
    prior : (SparseOperator, EigenResult), optional
        A solve of the same problem on another grid, such as the rung before
        it in a convergence ladder.  When the result converged with at least
        m pairs, and on each axis its grid is no finer than ``op``'s and at
        most one halving coarser, the Ritz value of the m-th level on its
        first m eigenvectors places the slice in place of the coarse
        estimate, which is then not made, and the sum of those m Ritz
        vectors starts ARPACK.  Otherwise the prior is ignored.  It only
        moves tau and the start; the count certifies as before.

    Returns
    -------
    EigenResult
        The lowest pairs found, at most m, sorted, with true residuals
        recomputed on H, the number of ``iterations`` (operator
        applications) and of ``factorizations`` spent on the operator or its
        sector blocks.  ``converged`` holds only when m pairs meet ``tol``
        and the inertia count confirms that no eigenvalue below them was
        missed.  ``breakdown`` is set when
        ARPACK could not extend its Krylov basis.  Should nothing converge
        within the budget, the Rayleigh quotient of the first start vector
        stands in as the one (unconverged) pair.
    """
    H = _as_matrix(op)
    if m < 1:
        raise ValueError("need m >= 1")
    n = H.shape[0]
    if m > n:
        raise DimensionMismatch(f"m={m} exceeds operator dimension {n}")
    if n <= max(3 * m + 2, 64) or m > n // 2:
        dense = H.toarray() if sp.issparse(H) else np.asarray(H, dtype=float)
        vals, vecs = np.linalg.eigh(dense)
        res = np.linalg.norm(dense @ vecs[:, :m] - vecs[:, :m] * vals[:m], axis=0)
        slack = 1e3 * _EPS * max(1.0, float(np.abs(vals).max()))
        count = _slice_index(vals, m, slack) or n
        return EigenResult(vals[:m], vecs[:, :m], res, iterations=0,
                           converged=bool(np.all(res <= tol)), breakdown=False,
                           tol=tol, count_below=count, factorizations=0, factor_nnz=None)

    run = _Solve(_csc(H), tol, _budget(m) if max_iter is None else max_iter, seed)
    at = _prior_slice(op, m, prior, run.slack) or _estimated_slice(op, m, seed, run.slack)
    found = None
    if at is not None:      # op is a grid operator
        split = op.exchange(run.slack)
        blocks = [(None, run.H)] if split is None else [(P, _csc(A)) for P, A in split]
        found = run.sliced(m, *at, blocks)
    vals, vecs, count, certified = found or run.shifted(m)
    if certified:
        # every level below tau is found, so a clear gap among them counts too
        count = _slice_index(vals, m, run.spread(vals, vecs)) or count

    if len(vals) == 0:
        vecs = (run.start / np.linalg.norm(run.start))[:, None]
        vals = vecs[:, 0] @ (run.H @ vecs)
    vals, vecs = vals[:m], vecs[:, :m]
    res = np.linalg.norm(run.H @ vecs - vecs * vals, axis=0)
    converged = certified and len(vals) == m and bool(np.all(res <= tol))
    return EigenResult(eigenvalues=vals, eigenvectors=vecs, residuals=res,
                       iterations=run.solves, converged=converged, breakdown=run.breakdown,
                       tol=tol, count_below=count, factorizations=run.factorizations,
                       factor_nnz=None if count is None else run.factor_nnz)


# ---------------------------------------------------------------------
# degeneracy clustering
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class DegeneracyReport:
    """Greedy clustering of sorted levels into near-degenerate multiplets."""

    clusters: tuple[tuple[float, int], ...]
    tol_rel: float
    total: int

    def multiplicities(self) -> list[int]:
        return [mult for _, mult in self.clusters]

    def to_dict(self) -> dict:
        return {
            "clusters": [{"energy": e, "multiplicity": mult} for e, mult in self.clusters],
            "tol_rel": self.tol_rel,
            "total": self.total,
        }


def detect_degeneracies(levels, tol_rel: float = 1e-6) -> DegeneracyReport:
    """Cluster sorted levels: neighbors join when the gap is below tolerance.

    Consecutive levels belong to one cluster when
    |lambda_{i+1} - lambda_i| <= tol_rel * max(1, |lambda_i|); the
    representative energy of a cluster is the arithmetic mean.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.size == 0:
        return DegeneracyReport(clusters=(), tol_rel=tol_rel, total=0)
    if np.any(np.diff(levels) < 0):
        raise ValueError("levels must be sorted ascending")
    clusters = []
    start = 0
    for i in range(1, len(levels) + 1):
        if i == len(levels) or levels[i] - levels[i - 1] > tol_rel * max(1.0, abs(levels[i - 1])):
            group = levels[start:i]
            clusters.append((float(group.mean()), len(group)))
            start = i
    return DegeneracyReport(clusters=tuple(clusters), tol_rel=tol_rel,
                            total=len(levels))
