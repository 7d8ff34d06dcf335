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
levels are first estimated on the half-resolution grid, and tau is put in
the widest of their gaps above the m-th.  The c negative pivots of H - tau I
count the levels below tau, and ARPACK seeks the c algebraically smallest
values of (H - tau I)^-1: exactly the levels below tau.  A value returned
above tau means a copy was missed; it is sought again in the orthogonal
complement of the pairs found, with the same factorization.  The count
comes first because with fewer than m levels below tau the solve falls back
at once, rather than ARPACK hunting the top of the spectrum for the rest.

Plain matrices and grids too small to coarsen take the Gershgorin path, as
does a slice that cannot be factored, counts fewer than m levels or far more
than estimated, or is not completed while budget remains.  That path shifts
to sigma0 strictly below a Gershgorin bound of the whole spectrum, where the
lowest levels are the dominant ones of (H - sigma0 I)^-1, and counts at tau
in the first clear gap above the m-th level found.  A count above the levels
found below tau hands that factorization to the same completion as above.
A set the count does not confirm is reported with ``converged=False``.  The
start vectors come from a seeded generator, so a fixed seed gives the same
pairs and counts on a given platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import DimensionMismatch

_ORDERING = "MMD_AT_PLUS_A"   # symmetric ordering; about half the fill of COLAMD on 5-point grids
_ATTEMPTS = 4                 # ARPACK runs per stage: the first plus retries for missed copies
_EXTRA_LEVELS = 3             # coarse levels estimated beyond m, to offer gaps for tau
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
    H (0 on the dense path); those of the coarse estimate are not included.
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
        }


def _as_matrix(op):
    if sp.issparse(op):
        return op
    matrix = getattr(op, "matrix", None)
    if matrix is not None:
        return matrix
    return np.asarray(op)


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


def _negative_pivots(lu) -> int:
    """Eigenvalues below tau, for ``lu`` from ``_factor_at(H, tau)``.

    Reading U makes ``lu`` keep copies of L and U, about as large as the
    factorization itself, for as long as it lives.
    """
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _count_below(H: sp.csc_matrix, tau: float) -> int | None:
    """Eigenvalues of H below tau, from the inertia of H - tau I, or None."""
    lu = _factor_at(H, tau)
    return None if lu is None else _negative_pivots(lu)


class _Solve:
    """One sparse call of ``lowest_eigs``: operator, start vectors, budget, counters."""

    def __init__(self, H: sp.csc_matrix, tol: float, max_iter: int, ncv: int | None,
                 seed: int):
        self.H, self.n = H, H.shape[0]
        self.lower, self.upper = _gershgorin(H)
        # strictly below the spectrum, so H - sigma0 I is positive definite
        self.sigma0 = (self.lower - 1e-6 * (self.upper - self.lower)
                       - 1e-3 * abs(self.lower))
        # rounding allowance of a factorization of H - tau I
        self.slack = 1e3 * _EPS * (self.upper - self.sigma0)
        self.tol, self.max_iter, self.ncv = tol, max_iter, ncv
        self.rng = np.random.default_rng(seed)
        self.start = self.rng.standard_normal(self.n)
        self.solves = self.factorizations = 0
        self.breakdown = False

    def empty(self):
        return np.zeros(0), np.zeros((self.n, 0))

    def factor(self, tau: float):
        self.factorizations += 1
        return _factor_at(self.H, tau)

    def spread(self, vals: np.ndarray, vecs: np.ndarray) -> float:
        """Smallest gap that the inertia count can tell from rounding."""
        res = np.linalg.norm(self.H @ vecs - vecs * vals, axis=0)
        return 2.0 * float(np.linalg.norm(res)) + self.slack

    def arpack(self, sigma: float, which: str, k: int, found: np.ndarray, v0: np.ndarray,
               lu=None):
        """k pairs of H about sigma in the orthogonal complement of ``found``'s columns.

        ARPACK in shift-invert mode with solves by ``lu``, a factorization of
        H - sigma I; without one, H - sigma I is factored here and freed on
        return, so it never coexists with the factorization of a count.  At
        most the rest of the budget is spent.  Returns ``(vals, vecs,
        complete)``; when ``complete`` is False the pairs are those converged
        before the budget ran out (none on a breakdown).
        """
        n = self.n
        k = min(k, n - 2 - found.shape[1])
        budget = self.max_iter - self.solves
        basis = max(2 * k + 1, 20) if self.ncv is None else self.ncv
        # the first pass takes `basis` solves and each restart at most basis - k,
        # and ARPACK makes at least one restart: keep both inside the budget
        basis = min(n, max(basis, k + 1), (budget + k) // 2)
        self.breakdown = False
        if k < 1 or basis <= k:
            return *self.empty(), False
        if lu is None:
            lu = splu(self.H - sigma * sp.identity(n, format="csc"), permc_spec=_ORDERING,
                      options={"SymmetricMode": True})
            self.factorizations += 1

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
            vals, vecs = eigsh(self.H, k, sigma=sigma, which=which, v0=v0, ncv=basis,
                               tol=max(self.tol / norm, _EPS),
                               maxiter=(budget - basis) // (basis - k),
                               OPinv=LinearOperator((n, n), matvec=solve, dtype=float))
        except ArpackNoConvergence as exc:
            return exc.eigenvalues, exc.eigenvectors, False
        except ArpackError:
            self.breakdown = True
            return *self.empty(), False
        return vals, vecs, True

    def complete_below(self, lu, count: int, tau: float, vals: np.ndarray,
                       vecs: np.ndarray, v0: np.ndarray):
        """Extend levels found below tau to all ``count`` of them.

        The missing ones are the algebraically smallest values of
        (H - tau I)^-1 in the complement of those found; a value returned
        above tau is dropped and sought again.  Returns ``(vals, vecs,
        certified)``, sorted, all below tau.
        """
        for _ in range(_ATTEMPTS):
            if len(vals) == count:
                break
            new_vals, new_vecs, complete = self.arpack(tau, "SA", count - len(vals), vecs,
                                                       v0, lu)
            below = new_vals < tau
            vals = np.concatenate([vals, new_vals[below]])
            vecs = np.hstack([vecs, new_vecs[:, below]])
            if not complete:
                break
            v0 = self.rng.standard_normal(self.n)
        order = np.argsort(vals, kind="stable")
        return vals[order], vecs[:, order], len(vals) == count

    def sliced(self, m: int, estimate: np.ndarray):
        """Levels below tau in the widest estimated gap at index >= m.

        Returns ``(vals, vecs, count, certified)``, or None to fall back:
        when H - tau I cannot be counted, the count is below m or above
        ``_OVERCOUNT`` times j, or, while budget remains, the slice is not
        completed or misses ``tol`` (the diagonal pivots of an indefinite
        H - tau I may lose accuracy).
        """
        j = m + int(np.argmax(np.diff(estimate)[m - 1:]))
        tau = 0.5 * (estimate[j - 1] + estimate[j])
        lu = self.factor(tau)
        count = None if lu is None else _negative_pivots(lu)
        if count is None or not m <= count <= _OVERCOUNT * j:
            return None
        vals, vecs, certified = self.complete_below(lu, count, tau, *self.empty(),
                                                    self.start)
        res = np.linalg.norm(self.H @ vecs - vecs * vals, axis=0)
        if not (certified and np.all(res <= self.tol)) and self.solves < self.max_iter:
            return None
        return vals, vecs, count, certified

    def shifted(self, m: int):
        """Levels below sigma0's first clear gap above the m-th, certified by a count.

        Returns ``(vals, vecs, count, certified)``.
        """
        vals, vecs = self.empty()
        v0, want = self.start, m + 2
        for _ in range(_ATTEMPTS):
            new_vals, new_vecs, complete = self.arpack(self.sigma0, "LM", want, vecs, v0)
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
            lu = self.factor(tau)
            count = None if lu is None else _negative_pivots(lu)
            if count is None or count < j:
                return vals, vecs, count, False
            # count > j: the missed copies are sought about tau
            vals, vecs, certified = self.complete_below(lu, count, tau, vals[:j],
                                                        vecs[:, :j], v0)
            return vals, vecs, count, certified
        return vals, vecs, None, False


def _coarse_estimate(op, m: int, seed: int) -> np.ndarray | None:
    """The lowest m + 3 levels of ``op.coarsened()``, to a loose tolerance.

    None when the operator does not coarsen, the coarse grid is too small,
    or the estimate offers no gap above its m-th level.
    """
    coarsened = getattr(op, "coarsened", None)
    coarse = coarsened() if coarsened is not None else None
    if coarse is None or m + _EXTRA_LEVELS > coarse.dim:
        return None
    levels = lowest_eigs(coarse, m + _EXTRA_LEVELS, tol=_ESTIMATE_TOL, seed=seed).eigenvalues
    return levels if len(levels) > m else None


def lowest_eigs(op, m: int, tol: float = 1e-8, max_iter: int | None = None,
                ncv: int | None = None, seed: int = 0) -> EigenResult:
    """Lowest m eigenpairs of a symmetric operator, certified by an inertia count.

    Parameters
    ----------
    op : SparseOperator, scipy sparse matrix or ndarray
        Symmetric operator.  A ``SparseOperator`` whose ``coarsened()``
        gives an operator is solved by the slice about an estimated gap.
    m : int
        Number of requested pairs (small operators, or m above half the
        dimension, fall back to a dense solve).
    tol : float
        Absolute residual tolerance ||H v - lambda v|| per pair.
    max_iter : int, optional
        Budget of operator applications, i.e. solves with a factored
        shifted H (default max(20000, 400 m)).  On exhaustion the pairs
        converged so far are returned with ``converged=False``.
    ncv : int, optional
        ARPACK's Lanczos basis size (default max(2k + 1, 20) for k computed
        pairs).
    seed : int
        Seed for the start vectors.

    Returns
    -------
    EigenResult
        The lowest pairs found, at most m, sorted, with recomputed true
        residuals, the number of ``iterations`` (operator applications) and
        of ``factorizations`` spent on the operator.  ``converged`` holds
        only when m pairs meet ``tol`` and the inertia count confirms that
        no eigenvalue below them was missed.  ``breakdown`` is set when
        ARPACK could not extend its Krylov basis.  Should nothing converge
        within the budget, the Rayleigh quotient of the first start vector
        stands in as the one (unconverged) pair.
    """
    H = _as_matrix(op)
    n = H.shape[0]
    if m < 1:
        raise ValueError("need m >= 1")
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
                           tol=tol, count_below=count, factorizations=0)

    if max_iter is None:
        max_iter = max(20000, 400 * m)
    estimate = _coarse_estimate(op, m, seed)
    run = _Solve(sp.csc_matrix(H, dtype=float), tol, max_iter, ncv, seed)
    found = None if estimate is None else run.sliced(m, estimate)
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
                       tol=tol, count_below=count, factorizations=run.factorizations)


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
