"""Separated-variable oracles built on two independent 1D eigensolvers.

Every radial or angular factor reduces to a half-line problem

    -u'' + [ V(x) + c / x^2 ] u = lambda u,        c > -1/4,

solved here by two unrelated backends:

``fd``
    A conservative finite-difference scheme.  The inverse-square term is
    absorbed exactly into a weight: with s(s-1) = c, s = 1/2 + sqrt(1/4+c),
    substituting u = x^s w turns the operator into the regular weighted form
    -(x^{-2s}) (x^{2s} w')' + V(x) w, assembled in log-space ratios (stable
    for large s) as a symmetric tridiagonal problem.  Each 1D problem is one
    frozen scheme record: this weighted scheme (weight, potential, interval,
    natural ends, and an offset added to its levels), or for Coulomb
    problems with c != 0 a logarithmically mapped grid, equally tridiagonal
    and always bisected.  One Richardson ladder reads the record's
    ``levels(m, n, guess, start)`` on grids of n, 2n + 1 and 4n + 3 points,
    on which the step h = L / (n + 1) halves exactly; the extrapolation
    residual provides the accuracy estimate.  Each grid refines a prediction
    of its levels by inverse iteration and keeps them only when a Sturm
    count and their residuals certify them, else it is bisected by LAPACK.
    The first weighted grid is predicted by the same scheme on a quarter of
    its points, loosely bisected, and iterates from a fixed start vector;
    each finer grid is predicted by the coarser ones and iterates from the
    eigenvectors the grid before it certified, its nodes being every other
    node of the finer grid (nested iteration).

``shooting``
    Adaptive integration (LSODA) of the scaled Prufer angle theta of the
    original singular equation, u = r sin(theta), u' = S r cos(theta), from
    a series start u ~ x^s (1 + a_1 x + ...).  The angle grows by pi across
    each zero of u, so F(lambda) = theta(b) - pi at a Dirichlet end is
    continuous and increasing, and level j is the root of F = j pi: one
    bracket and one ``brentq`` per level give both its index and its value.

The gauge factor absorbed by the ``fd`` backend picks the Friedrichs
solution x^s at the origin, which is also the branch the shooting series
starts on; this is the self-adjoint extension used throughout the package.

Angular factors (inverse-square barriers in cos^2 k\theta and sin^2 k\theta
on the sector between two adjacent singular rays) are doubly singular; the
``fd`` backend gauges by the nodeless ground factor and the ``shooting``
backend starts a second angle on the far end's series, carries it back to
the midpoint and takes F = theta_L - theta_R - pi there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dstebz

from .errors import AccuracyNotReached, BoundViolation, NotSeparable
from .model import KValue, PotentialSpec, barrier_exponents, coerce_k, k_float

_FD_MAX_POINTS = 2_000_000   # finest Richardson grid at most: 16 MB per array
_SHOOT_RTOL = 1e-12    # LSODA stalls in rare forbidden-region runs at 1e-13
_ULP = np.finfo(float).eps
_LOG_MAX = math.log(np.finfo(float).max)
_INVERSE_STEPS = 5     # at most, per predicted level
_TINY = np.finfo(float).tiny
_PREDICT_TOL = 1e-6    # of ||T||: the bisection tolerance of a predicting grid
_SHIFT_WINDOW = 0.25   # of the predicted gap: how far from its prediction a shift may move


# =====================================================================
# backend 1: weighted conservative finite differences + Richardson
# =====================================================================

def _tridiag_lowest(diag: np.ndarray, off: np.ndarray, m: int,
                    guess: Optional[np.ndarray] = None,
                    start: Optional[np.ndarray] = None) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Lowest m eigenvalues of the symmetric tridiagonal matrix (diag, off),
    with their eigenvectors as columns when they were refined, else None.

    With a prediction ``guess`` of all m levels, ``_refined_levels`` refines
    and certifies them, level j starting from column j of ``start`` when it
    is given.  Without a guess, or when the certificate fails, they are
    bisected by LAPACK ``dstebz`` from the Gershgorin bounds to the smallest
    absolute tolerance, so that only its relative stopping rule, about
    ulp * |lambda|, ends the bisection.
    """
    if guess is not None:
        refined = _refined_levels(diag, off, guess, start)
        if refined is not None:
            return refined
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, m - 1),
                            eigvals_only=True, tol=_TINY), None


def _norm(diag: np.ndarray, off: np.ndarray) -> float:
    """The infinity norm ||T|| of the symmetric tridiagonal (diag, off)."""
    a = np.abs(off)
    rows = np.abs(diag)
    rows[:-1] += a
    rows[1:] += a
    return float(np.max(rows))


def _refined_levels(diag: np.ndarray, off: np.ndarray, guess: np.ndarray,
                    start: Optional[np.ndarray] = None
                    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Levels 0..m-1 refined from a prediction, with their unit eigenvectors
    as columns, or None if not certified.

    Each predicted level j is refined by shifted inverse iteration (LAPACK
    ``dgtsv``) from column j of ``start``, or from a fixed start vector
    when none is given, ending in a Rayleigh quotient lam_j with residual
    r_j; then T has an eigenvalue in each interval [lam_j - r_j, lam_j + r_j].
    The shift starts at the prediction and moves to the Rayleigh quotient
    after each step that has not converged, but only while the quotient
    lies within a quarter of the predicted gap of the prediction: a Rayleigh
    shift converges cubically, but to whichever level it lies nearest.  A
    level stops iterating once r_j^2 is well below ulp * ||T|| times its
    predicted gap.  The levels are accepted only if ``_certified`` holds, so
    a start vector of the wrong level costs steps, never a level.

    A single level has no predicted gap, since nothing above it is
    predicted (and its own size is none: the gauged angular ground level is
    0).  ``_refined_level`` refines it with Sturm counts instead.
    """
    m, n = len(guess), diag.size
    if start is None:    # one fixed start vector for every level
        start = np.broadcast_to(np.random.default_rng(0).standard_normal(n)[:, None], (n, m))
    norm = _norm(diag, off)
    if m == 1:
        return _refined_level(diag, off, guess[0], norm, start[:, 0])
    tol_abs = _ULP * norm
    spacing = np.abs(np.diff(guess))
    gap_guess = np.minimum(np.append(spacing, np.inf), np.insert(spacing, 0, np.inf))
    lam, res, vectors = np.empty(m), np.empty(m), np.empty((n, m), order="F")
    for j in range(m):
        x, shift = start[:, j], guess[j]
        for _ in range(_INVERSE_STEPS):
            step = _inverse_step(diag, off, shift, x)
            if step is None:
                return None
            x, lam[j], res[j] = step
            if res[j] ** 2 <= 0.1 * tol_abs * gap_guess[j]:
                break
            if abs(lam[j] - guess[j]) <= _SHIFT_WINDOW * gap_guess[j]:
                shift = lam[j]
        vectors[:, j] = x
    return (lam, vectors) if _certified(diag, off, lam, res, norm) else None


def _refined_level(diag: np.ndarray, off: np.ndarray, guess: float, norm: float,
                   x: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Level 0 refined from a prediction and the start vector x, as
    ``([lam], vector as one column)``, or None if not certified.

    Inverse iteration stops as soon as ``_certified`` holds, one Sturm count
    per step.  The shift moves to the Rayleigh quotient lam once a second
    count finds level 0 alone up to lam + r: the interval [lam - r, lam + r]
    then holds level 0 and no other, so level 0 is the one nearest lam.
    """
    slack = 8.0 * _ULP * norm
    shift = guess
    for _ in range(_INVERSE_STEPS):
        step = _inverse_step(diag, off, shift, x)
        if step is None:
            return None
        x, lam, res = step
        if _certified(diag, off, np.array([lam]), np.array([res]), norm):
            return np.array([lam]), x[:, None]
        if _sturm_count(diag, off, lam + res + slack, norm) == 1:
            shift = lam
    return None


def _inverse_step(diag: np.ndarray, off: np.ndarray, shift: float,
                  x: np.ndarray) -> Optional[tuple[np.ndarray, float, float]]:
    """One step of inverse iteration from x: ``(x', lam, r)``, x' normalized,
    with its Rayleigh quotient lam and residual r, or None if the solve fails."""
    # x itself is copied, not overwritten: one start vector may serve every level
    *_, x, info = dgtsv(off, diag - shift, off, x, overwrite_d=1)
    if info != 0:
        return None
    x /= math.sqrt(x @ x)
    tx = diag * x
    tx[:-1] += off * x[1:]
    tx[1:] += off * x[:-1]
    lam = x @ tx
    tx -= lam * x
    return x, lam, math.sqrt(tx @ tx)


def _prolonged(vectors: np.ndarray) -> np.ndarray:
    """The columns of ``vectors`` on n points carried to the grid of 2n + 1
    points with half the step: the old nodes become the entries 1, 3, ...,
    and each entry between them takes the mean of its two neighbours, 0
    beyond the walls."""
    n, m = vectors.shape
    fine = np.empty((2 * n + 1, m), order="F")
    fine[1::2] = vectors
    fine[2:-1:2] = 0.5 * (vectors[:-1] + vectors[1:])
    fine[0] = 0.5 * vectors[0]
    fine[-1] = 0.5 * vectors[-1]
    return fine


def _sturm_count(diag: np.ndarray, off: np.ndarray, top: float, norm: float) -> int:
    """Eigenvalues of T up to ``top``: ``dstebz`` over a range with no bisection."""
    vl = -2.0 * norm   # below the whole spectrum
    return dstebz(diag, off, 1, vl, top, 0, 0, top - vl, b"E")[0]


def _certified(diag: np.ndarray, off: np.ndarray, lam: np.ndarray, res: np.ndarray,
               norm: float) -> bool:
    """Whether T's levels 0..m-1 are lam_j, each within ulp * ||T||, given
    residuals r_j = res_j of unit vectors; ``norm`` is ||T||.

    It holds when

    * the intervals [lam_j - r_j, lam_j + r_j], each of which holds an
      eigenvalue, widened by 8 ulp * ||T|| for rounding, are pairwise
      disjoint and ordered,
    * one Sturm count finds exactly m eigenvalues up to the top of the
      last interval, so the intervals hold levels 0..m-1 and nothing else
      lies below that top,
    * the Kato-Temple bound r_j^2 / gap_j, with gap_j the distance from
      lam_j to the nearest other eigenvalue, is at most ulp * ||T||: the
      absolute accuracy class of the bisection.

    The top of the last interval is raised to lam + 2 r^2 / (ulp * ||T||)
    so that the count also bounds the gap above the highest level.
    """
    # each check is written so that a NaN fails it
    tol_abs = _ULP * norm
    slack = 8.0 * tol_abs
    lo, hi = lam - res - slack, lam + res + slack
    if not (lo[1:] > hi[:-1]).all():
        return False
    top = max(hi[-1], lam[-1] + 2.0 * res[-1] ** 2 / tol_abs)
    if _sturm_count(diag, off, top, norm) != len(lam):
        return False
    gap = np.minimum(np.append(lo[1:], top) - lam, np.insert(lam[1:] - hi[:-1], 0, np.inf))
    return bool((res**2 <= tol_abs * gap).all())


def _steep_weight(n: int, a: float, b: float) -> AccuracyNotReached:
    return AccuracyNotReached(math.inf, 0.0, f"fd backend: the {n:g}-point operator on "
                              f"[{a:.12g}, {b:.12g}] overflows; its weight is too steep")


def _weighted_fd_operator(
    log_weight: Callable[[np.ndarray], np.ndarray],
    potential: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    n: int,
    natural_left: bool,
    natural_right: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tridiagonal (diag, off) of -(1/rho)(rho u')' + V u on a
    uniform n-point grid.

    ``log_weight`` returns log rho; the assembled matrix uses only ratios
    rho_{i+1/2} / rho_i so arbitrarily steep weights stay in range.  A
    vanishing-weight endpoint takes the natural (zero-flux) condition,
    otherwise Dirichlet.
    """
    a, b = interval
    h = (b - a) / (n + 1)
    i = np.arange(1, n + 1)
    x = a + h * i
    lw = log_weight(x)
    lwm = log_weight(a + h * (i - 0.5))
    lwp = log_weight(a + h * (i + 0.5))
    v = potential(x)
    with np.errstate(over="ignore", invalid="ignore"):   # reported just below
        dm = np.exp(lwm - lw)
        dp = np.exp(lwp - lw)
        diag = (dm + dp) / h**2 + v
        if natural_left:
            diag[0] -= dm[0] / h**2
        if natural_right:
            diag[-1] -= dp[-1] / h**2
        off = -np.exp(lwp[:-1] - 0.5 * (lw[:-1] + lw[1:])) / h**2
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise _steep_weight(n, a, b)
    return diag, off


@dataclass(frozen=True)
class _WeightedScheme:
    """``_weighted_fd_operator``'s scheme with its (left, right) ``natural``
    ends, its levels raised by ``offset`` (the angular gauge's ground level).

    ``levels(m, n, guess, start)``: the lowest m levels on n points, which
    ``guess`` predicts, and their eigenvectors as columns, or None when they
    were bisected; ``start`` holds a start vector for each level (see
    ``_tridiag_lowest``).  Without a guess, the same scheme on n // 4 points,
    bisected to ``_PREDICT_TOL`` * ||T||, predicts them, unless it has fewer
    than m points, its operator overflows or LAPACK fails on it.
    """

    log_weight: Callable[[np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray], np.ndarray]
    interval: tuple[float, float]
    natural: tuple[bool, bool]
    offset: float = 0.0

    def levels(self, m: int, n: int, guess: Optional[np.ndarray] = None,
               start: Optional[np.ndarray] = None) -> tuple[np.ndarray, Optional[np.ndarray]]:
        diag, off = _weighted_fd_operator(self.log_weight, self.potential, self.interval, n,
                                          *self.natural)
        if guess is not None:
            guess = guess - self.offset
        elif n // 4 >= m:
            try:
                qdiag, qoff = _weighted_fd_operator(self.log_weight, self.potential,
                                                    self.interval, n // 4, *self.natural)
                guess = eigh_tridiagonal(qdiag, qoff, select="i", select_range=(0, m - 1),
                                         eigvals_only=True, tol=_PREDICT_TOL * _norm(qdiag, qoff))
            except (AccuracyNotReached, np.linalg.LinAlgError):
                pass
        levels, vectors = _tridiag_lowest(diag, off, m, guess=guess, start=start)
        return levels + self.offset, vectors


@dataclass(frozen=True)
class _LogGridScheme:
    """The Coulomb problem -u'' + [c/x^2 - Z/x] u on a grid uniform in
    t = log x on (t_min, t_max): u = e^{t/2} v(t) gives the pencil
    K v = lambda e^{2t} v, K = -d^2/dt^2 + c + 1/4 - Z e^t, solved as the
    tridiagonal e^{t_min} e^{-t} K e^{-t} (e^{t_min} centres its squared
    entries in the double range).  Its entries span many orders, so it is
    always bisected cold (``guess`` and ``start`` unused, no vectors
    returned), with a tiny absolute tolerance that leaves the relative
    stopping rule in charge: a residual certificate bounds absolute errors
    only."""

    c: float
    z: float
    t_min: float
    t_max: float

    def levels(self, m: int, n: int, guess: Optional[np.ndarray] = None,
               start: Optional[np.ndarray] = None) -> tuple[np.ndarray, None]:
        h = (self.t_max - self.t_min) / (n + 1)
        t = self.t_min + h * np.arange(1, n + 1)
        w = np.exp(0.5 * self.t_min - t)
        diag = (2.0 / h**2 + (self.c + 0.25) - self.z * np.exp(t)) * w**2
        levels, _ = _tridiag_lowest(diag, -w[:-1] * w[1:] / h**2, m)
        return levels / math.exp(self.t_min), None


def _richardson(e1: np.ndarray, e2: np.ndarray,
                e3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-stage Richardson extrapolation in h^2 over grids of steps h, h/2
    and h/4; returns (levels, rel error)."""
    r1 = (4.0 * e2 - e1) / 3.0
    r2 = (4.0 * e3 - e2) / 3.0
    rr = (16.0 * r2 - r1) / 15.0
    err = np.abs(rr - r2) / np.maximum(np.abs(rr), 1e-300)
    return rr, err


def _richardson_base(n: float, label: str) -> int:
    """``n`` rounded down, as the coarsest grid n0 of a Richardson ladder, which
    is refused here if its 8 n0 + 7 points exceed ``_FD_MAX_POINTS``."""
    if not 8.0 * n + 7.0 <= _FD_MAX_POINTS:
        raise AccuracyNotReached(math.inf, 0.0, (
            f"fd backend, {label}: its finest Richardson grid would have {8.0 * n + 7.0:.4g} "
            f"points, above the {_FD_MAX_POINTS} allowed"))
    return int(n)


def _fd_levels_certified(scheme: _WeightedScheme | _LogGridScheme, m: int, target: float,
                         label: str, n0: float) -> np.ndarray:
    """The lowest m levels of the scheme record ``scheme``, Richardson-
    extrapolated over grids of n0, 2 n0 + 1 and 4 n0 + 3 points, then over
    the last two and 8 n0 + 7 points on a miss.

    ``scheme.levels(m, n, guess, start)`` gives the lowest m levels on n
    points, with step h = L / (n + 1): each grid halves the step of the one
    before.  ``_richardson_base`` rounds n0 down and refuses too large a
    ladder before any grid is built.  The first grid gets no guess (the
    scheme predicts or bisects it); the second gets the n0 levels, and each
    one after it the h^2 step e_2 + (e_2 - e_1) / 4.  Each grid whose levels
    were refined hands its eigenvectors, ``_prolonged``, to the next grid as
    start vectors (nested iteration); a bisected grid hands none.  ``label``
    names the problem in the error raised on a miss or on a failed LAPACK
    bisection.
    """
    n0 = _richardson_base(n0, label)
    grids, e, guess, vectors = (n0, 2 * n0 + 1, 4 * n0 + 3, 8 * n0 + 7), [], None, None
    for n in grids:
        start = None if vectors is None else _prolonged(vectors)
        try:
            grid_levels, vectors = scheme.levels(m, n, guess, start)
        except np.linalg.LinAlgError as exc:
            raise AccuracyNotReached(math.inf, target, (
                f"fd backend, {label}: LAPACK failed on the {n}-point grid ({exc})")) from None
        e.append(grid_levels)
        guess = e[-1] if len(e) == 1 else e[-1] + (e[-1] - e[-2]) / 4.0
        if len(e) >= 3:
            levels, err = _richardson(*e[-3:])
            if not err.max() > target:     # met, or a NaN estimate: no finer grid
                break
    if err.max() <= target:
        return levels
    worst = int(np.argmax(err))
    raise AccuracyNotReached(achieved=float(err[worst]), target=target, detail=(
        f"requested relative accuracy {target:g}, achieved estimate {err[worst]:g} "
        f"(fd backend, {label}: worst level {worst}, Richardson grids of "
        f"{', '.join(map(str, grids[:len(e)]))} points)"))


# =====================================================================
# backend 2: Prufer-angle shooting from series starts
# =====================================================================

@dataclass(frozen=True)
class _SeriesEnd:
    """Local data at a singular endpoint: u ~ xi^s (1 + sum a_n xi^n).

    ``tcoeffs`` holds the Laurent coefficients of q(xi) - c/xi^2 near the
    endpoint by power (>= -1), in the local coordinate xi measured into the
    interval.
    """

    s: float
    tcoeffs: dict[int, float]

    def value(self, xi: float, lam: float, order: int = 8) -> tuple[float, float]:
        """(u, du/dxi) at xi, both divided by xi^(s-1) so no power underflows."""
        a = [1.0]
        for n in range(1, order + 1):
            acc = -lam * (a[n - 2] if n >= 2 else 0.0)
            for j, tj in self.tcoeffs.items():
                if n - 2 - j >= 0:
                    acc += tj * a[n - 2 - j]
            a.append(acc / (n * (2.0 * self.s + n - 1.0)))
        return (xi * sum(an * xi**n for n, an in enumerate(a)),
                sum((self.s + n) * an * xi**n for n, an in enumerate(a)))


@dataclass(frozen=True)
class _ShootingProblem:
    q: Callable[[float], float]          # full potential including c/x^2 terms
    interval: tuple[float, float]
    left: _SeriesEnd
    right: Optional[_SeriesEnd]          # None for a plain Dirichlet right end
    label: str                           # the problem and its parameters, for errors
    eps_frac: float = 1e-6


def _prufer_angle(problem: _ShootingProblem, lam: float, scale: float,
                  x_from: float, x_to: float, theta: float) -> float:
    """Carry the scaled Prufer angle theta from x_from to x_to.

    With u = r sin(theta), u' = scale r cos(theta), the equation
    u'' = (q - lam) u becomes theta' = scale cos^2 + (lam - q) / scale sin^2;
    theta grows by pi across each zero of u.  The forbidden region makes it
    stiff, hence LSODA.
    """
    from scipy.integrate import solve_ivp

    def rhs(x, th):
        sn, cs = math.sin(th[0]), math.cos(th[0])
        return [scale * cs * cs + (lam - problem.q(x)) / scale * sn * sn]

    # absolute tolerance at the start's relative one: the start angle is
    # small, and near a singular end an error in it is hardly damped
    sol = solve_ivp(rhs, (x_from, x_to), [theta], method="LSODA",
                    rtol=_SHOOT_RTOL, atol=_SHOOT_RTOL * abs(theta))
    if not sol.success:
        raise AccuracyNotReached(math.inf, 0.0, (
            f"shooting backend, {problem.label}: the Prufer angle integration "
            f"failed at lambda={lam:.12g} ({sol.message})"))
    return float(sol.y[0, -1])


def _angle_difference(problem: _ShootingProblem, lam: float) -> float:
    """F(lam) = theta_L(mid) - theta_R(mid) - pi, continuous and increasing.

    theta_L starts on the left series.  theta_R is 0 at a Dirichlet right
    end, which is then mid; else it starts on the right series in
    (-pi/2, 0), not near pi, so the relative tolerance resolves it, and runs
    back to the midpoint.  Level j is the root of F = j pi.
    """
    a, b = problem.interval
    eps = problem.eps_frac * (b - a)
    scale = math.sqrt(max(abs(lam), 1.0))
    mid = b if problem.right is None else 0.5 * (a + b)
    u, du = problem.left.value(eps, lam)
    theta_l = _prufer_angle(problem, lam, scale, a + eps, mid, math.atan2(scale * u, du))
    theta_r = 0.0
    if problem.right is not None:
        # xi runs against x at the right end
        u, du = problem.right.value(eps, lam)
        theta_r = _prufer_angle(problem, lam, scale, b - eps, mid, math.atan2(-scale * u, du))
    return theta_l - theta_r - math.pi


def _prufer_levels(problem: _ShootingProblem, m: int, lam_lo: float,
                   span0: float) -> np.ndarray:
    """Lowest m eigenvalues, lam_lo lying below the lowest.

    The bracket's top doubles until F exceeds (m - 1) pi; each level is then
    a ``brentq`` root of F = j pi between the closest values of F seen on
    either side of it.
    """
    from scipy.optimize import brentq

    seen: dict[float, float] = {}

    def f(lam: float) -> float:
        if lam not in seen:
            seen[lam] = _angle_difference(problem, lam)
        return seen[lam]

    f(lam_lo)
    lam_hi = lam_lo + span0
    for _ in range(60):
        if f(lam_hi) > (m - 1) * math.pi:
            break
        lam_hi = lam_lo + 2.0 * (lam_hi - lam_lo)
    levels = []
    for j in range(m):
        below = [lam for lam, v in seen.items() if v < j * math.pi]
        above = [lam for lam, v in seen.items() if v > j * math.pi]
        if not below or not above:
            raise AccuracyNotReached(
                math.inf, 0.0,
                f"shooting backend, {problem.label}: level {j} not bracketed; the Prufer "
                f"angle difference stays on one side of {j} pi on [{lam_lo:.12g}, {lam_hi:.12g}]")
        levels.append(brentq(lambda lam: f(lam) - j * math.pi, max(below), min(above),
                             xtol=1e-13, rtol=8.9e-16))
    return np.array(levels)


# =====================================================================
# radial problems
# =====================================================================

@dataclass(frozen=True)
class RadialProblem:
    """Half-line problem -u'' + [V + c/r^2] u on (0, cutoff), Dirichlet at cutoff.

    ``kind`` selects V: "oscillator" (coupling = omega_hat, V = omega_hat^2 r^2),
    "coulomb" (coupling = Z, V = -Z/r) or "free" (V = 0).  ``c > -1/4`` keeps
    the Friedrichs extension well defined.  ``cutoff=None`` picks a
    documented per-kind default sized for the requested number of levels.
    """

    kind: str
    coupling: float = 1.0
    c: float = 0.0
    cutoff: Optional[float] = None
    target: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("oscillator", "coulomb", "free"):
            raise ValueError(f"unknown radial kind {self.kind!r}")
        # c = -1/4 (the d=2, L=0 sector) sits exactly on the borderline where
        # the principal x^(1/2) branch still defines the Friedrichs extension
        if self.c < -0.25:
            raise BoundViolation(f"inverse-square coefficient must be >= -1/4, got {self.c}")
        if self.kind in ("oscillator", "coulomb") and self.coupling <= 0:
            raise ValueError(f"{self.kind} coupling must be positive")
        if not math.isfinite(self.coupling * self.coupling):
            raise BoundViolation(f"{self.kind} coupling {self.coupling!r} overflows when squared")
        if self.cutoff is not None:
            _check_cutoff(self.cutoff)


def _check_cutoff(cutoff: float) -> None:
    if not (math.isfinite(cutoff) and cutoff > 0):
        raise ValueError(f"cutoff must be finite and positive, got {cutoff!r}")


def _gauge_exponent(c: float) -> float:
    return 0.5 + math.sqrt(0.25 + c)


def _default_cutoff(p: RadialProblem, m: int) -> float:
    s = _gauge_exponent(p.c)
    if p.kind == "oscillator":
        w = p.coupling
        e_max = w * (4.0 * (m - 1) + 2.0 * s + 1.0)
        return math.sqrt(e_max) / w + 9.0 / math.sqrt(w)
    if p.kind == "coulomb":
        z = p.coupling
        n_eff = (m - 1) + s + 0.5
        return 4.0 * n_eff**2 / z + 60.0 * n_eff / z
    raise ValueError("free radial problems need an explicit cutoff")


def _radial_potential(p: RadialProblem) -> Callable[[np.ndarray], np.ndarray]:
    if p.kind == "oscillator":
        w2 = p.coupling**2
        return lambda x: w2 * x**2
    if p.kind == "coulomb":
        z = p.coupling
        return lambda x: -z / x
    return lambda x: np.zeros_like(x)


def _radial_label(p: RadialProblem, cutoff: float) -> str:
    return (f"radial {p.kind} problem (coupling={p.coupling:.12g}, c={p.c:.12g}, "
            f"cutoff={cutoff:.12g})")


def _radial_n0(cutoff: float) -> float:
    """n0 of a weighted radial ladder: 12 points per unit of cutoff, and 1500 at least."""
    return max(1500, 12.0 * cutoff)


def _radial_fd(p: RadialProblem, m: int, cutoff: float) -> np.ndarray:
    s = _gauge_exponent(p.c)
    label = _radial_label(p, cutoff)
    if p.kind == "coulomb" and p.c != 0.0:
        # inner wall where the x^s tail shifts the levels by about 1e-2 * target;
        # below t = -200 the bisection's pivot floor, safemin * max off^2, would
        # reach the levels' ulp
        t_min = math.log(1e-2 * p.target) / (2.0 * s - 1.0) if s > 0.5 else -math.inf
        if t_min < -200.0:
            raise AccuracyNotReached(math.inf, p.target, (
                f"fd backend, radial coulomb problem (coupling={p.coupling:.12g}, c={p.c:.12g}): "
                f"the log grid needs an inner wall at x = e^{t_min:.4g}, below its "
                f"floor e^-200, to reach relative accuracy {p.target:g}"))
        t_max = math.log(cutoff)
        return _fd_levels_certified(_LogGridScheme(p.c, p.coupling, t_min, t_max), m, p.target, label,
                                    max(3000, (t_max - t_min) * (40.0 * m + 60.0)))

    # with no inverse-square term the plain Dirichlet scheme has the cleaner
    # h^2 expansion (the weighted form loses it when u has odd powers at 0,
    # as for Coulomb); with c != 0 the weight absorbs the singular term
    s_eff = 0.0 if p.c == 0.0 else s

    # steep centrifugal exponents: cut the grid at the inner turning region,
    # below which u ~ x^s is negligible; this keeps the weight ratios (and
    # hence the matrix norm) moderate, which pure eps-level LAPACK accuracy
    # needs.  The cut keeps (x_lo/x_inner)^{2s} ~ 1e-18.
    x_lo = 0.0
    if s_eff > 8.0:
        if p.kind == "oscillator":
            e_max = p.coupling * (4.0 * (m - 1) + 2.0 * s + 1.0)
        else:
            e_max = ((m + 0.5 * s + 1.0) * math.pi / cutoff) ** 2
        x_inner = math.sqrt(p.c / e_max)
        x_lo = x_inner * 10.0 ** (-9.0 / s)

    def log_weight(x: np.ndarray) -> np.ndarray:
        return 2.0 * s_eff * np.log(x) if s_eff else np.zeros_like(x)

    n_base = _radial_n0(cutoff)
    # the largest weight ratio, (1 + h / (2 x))^(2 s) at the first node, peaks
    # on the coarsest grid; refuse it before allocating any grid (x_lo > 0
    # only under a finite cutoff)
    if x_lo > 0.0:
        h_base = (cutoff - x_lo) / (int(n_base) + 1)
        if 2.0 * s_eff * math.log1p(h_base / (2.0 * x_lo)) > _LOG_MAX:
            raise _steep_weight(int(n_base), x_lo, cutoff)
    scheme = _WeightedScheme(log_weight, _radial_potential(p), (x_lo, cutoff),
                             natural=(s_eff > 0.0 and x_lo == 0.0, False))
    return _fd_levels_certified(scheme, m, p.target, label, n_base)


def _radial_shoot(p: RadialProblem, m: int, cutoff: float) -> np.ndarray:
    s, c, z = _gauge_exponent(p.c), p.c, p.coupling
    pot = _radial_potential(p)
    tcoeffs = {"oscillator": {2: z * z}, "coulomb": {-1: -z}, "free": {}}[p.kind]
    problem = _ShootingProblem(
        q=lambda x: float(pot(x)) + c / (x * x), interval=(0.0, cutoff),
        left=_SeriesEnd(s=s, tcoeffs=tcoeffs), right=None,
        label=_radial_label(p, cutoff), eps_frac=min(1e-6, 1e-3 / cutoff))
    # a lower bound of the spectrum (the Coulomb ground level is -Z^2 at
    # c = -1/4), and a first guess of the span of m levels
    if p.kind == "oscillator":
        lam_lo, span0 = 0.0, z * (4.0 * m + 2.0 * s + 6.0)
    elif p.kind == "coulomb":
        lam_lo, span0 = -2.0 * z * z, 2.0 * z * z
    else:
        lam_lo, span0 = 0.0, (math.pi * (m + 3) / cutoff) ** 2 * (1.0 + 2.0 * s)
    return _prufer_levels(problem, m, lam_lo, span0)


def radial_spectrum(p: RadialProblem, m: int, method: str = "fd") -> np.ndarray:
    """Lowest m eigenvalues of the radial problem.

    ``method="fd"`` (default) certifies accuracy against ``p.target`` by
    Richardson extrapolation and raises :class:`AccuracyNotReached` when the
    estimate misses it; ``method="shooting"`` is the independent cross-check
    backend.
    """
    if m < 1:
        raise ValueError("need m >= 1 levels")
    cutoff = p.cutoff if p.cutoff is not None else _default_cutoff(p, m)
    if method == "fd":
        return _radial_fd(p, m, cutoff)
    if method == "shooting":
        return _radial_shoot(p, m, cutoff)
    raise ValueError(f"unknown method {method!r}")


# =====================================================================
# pre-gauge radial operator (isospectrality oracle for the gauge rotation)
# =====================================================================

def pregauge_radial_levels(d: int, L: int, cutoff: float, m: int,
                           target: float = 1e-8) -> np.ndarray:
    """Lowest m levels of -u'' - ((d-1)/x) u' + L(L+d-2)/x^2 on (0, cutoff).

    Solved in the x^(d-1)-weighted inner product with no reference to the
    gauge-rotation coefficient; this is the independent side of the
    isospectrality check certifying ``reduction.centrifugal_coefficient``.
    """
    if d < 1 or L < 0:
        raise ValueError("need d >= 1 and L >= 0")
    _check_cutoff(cutoff)
    ang = float(L * (L + d - 2))

    def pot(x: np.ndarray) -> np.ndarray:
        return ang / x**2 if ang else np.zeros_like(x)

    def log_weight(x: np.ndarray) -> np.ndarray:
        return (d - 1.0) * np.log(x)

    label = f"pre-gauge radial problem (d={d}, L={L}, cutoff={cutoff:.12g})"
    scheme = _WeightedScheme(log_weight, pot, (0.0, cutoff), natural=(d > 1, False))
    return _fd_levels_certified(scheme, m, target, label, _radial_n0(cutoff))


# =====================================================================
# angular problems
# =====================================================================

def _angular_label(k: float, a_coeff: float, b_coeff: float) -> str:
    return f"angular barrier problem (k={k:.12g}, A={a_coeff:.12g}, B={b_coeff:.12g})"


def _angular_fd(k: float, a_coeff: float, b_coeff: float, m: int, target: float) -> np.ndarray:
    at, bt = barrier_exponents(k, a_coeff, b_coeff)

    def log_weight(th: np.ndarray) -> np.ndarray:
        return 2.0 * bt * np.log(np.sin(k * th)) + 2.0 * at * np.log(np.cos(k * th))

    scheme = _WeightedScheme(log_weight, np.zeros_like, (0.0, math.pi / (2.0 * k)),
                             natural=(True, True), offset=k**2 * (at + bt) ** 2)
    return _fd_levels_certified(scheme, m, target, _angular_label(k, a_coeff, b_coeff), 1200)


def _angular_shoot(k: float, a_coeff: float, b_coeff: float, m: int) -> np.ndarray:
    length = math.pi / (2.0 * k)
    sa, sb = barrier_exponents(k, a_coeff, b_coeff)
    # series data: near theta=0 the regular part of q is B/3 + A + O(theta^2);
    # mirrored at theta=pi/(2k) with the roles of A and B exchanged
    left = _SeriesEnd(s=sb, tcoeffs={0: a_coeff + b_coeff / 3.0,
                                     2: k**2 * (a_coeff + b_coeff / 15.0)})
    right = _SeriesEnd(s=sa, tcoeffs={0: b_coeff + a_coeff / 3.0,
                                      2: k**2 * (b_coeff + a_coeff / 15.0)})
    problem = _ShootingProblem(
        q=lambda th: a_coeff / math.cos(k * th) ** 2 + b_coeff / math.sin(k * th) ** 2,
        interval=(0.0, length), left=left, right=right,
        label=_angular_label(k, a_coeff, b_coeff))
    return _prufer_levels(problem, m, 0.0, k**2 * (2.0 * m + sa + sb + 2.0) ** 2)


def angular_pt_levels(k: KValue, alpha: float, beta: float, m: int, *,
                      method: str = "fd", target: float = 1e-8) -> np.ndarray:
    """Lowest m Dirichlet eigenvalues of the angular barrier problem.

    The operator is -f'' + [alpha/cos^2(k theta) + beta/sin^2(k theta)] f on
    the sector (0, pi/(2k)); k is read by :func:`model.coerce_k`.  The
    three-body (k^2-weighted) family passes its couplings times k^2.
    """
    kf = k_float(coerce_k(k))
    if method == "fd":
        return _angular_fd(kf, alpha, beta, m, target)
    if method == "shooting":
        return _angular_shoot(kf, alpha, beta, m)
    raise ValueError(f"unknown method {method!r}")


# =====================================================================
# labeled separated spectra
# =====================================================================

@dataclass(frozen=True)
class OracleSpectrum:
    """Sorted labeled levels of an exactly separable family.

    ``levels`` is a tuple of (energy, (label1, label2)) sorted by energy;
    for polar-separable families the labels are (n_r, j), for Cartesian
    ones (n_x, n_y).
    """

    family: str
    levels: tuple[tuple[float, tuple[int, int]], ...]
    params: dict

    def energies(self) -> np.ndarray:
        return np.array([e for e, _ in self.levels])

    def labels(self) -> list[tuple[int, int]]:
        return [lab for _, lab in self.levels]

    def rows(self) -> list[tuple[int, int, float]]:
        """CSV rows (first label, second label, energy)."""
        return [(lab[0], lab[1], e) for e, lab in self.levels]


def separated_spectrum(spec: PotentialSpec, n_r_max: int, j_max: int,
                       method: str = "fd", cutoff: Optional[float] = None,
                       target: float = 1e-8, count: Optional[int] = None) -> OracleSpectrum:
    """Labeled spectrum of a separable family: the lowest ``count`` levels of
    its label box, or the whole box when ``count`` is None.

    Polar families (TTW, 3-body TTW, PW): for each angular label
    j <= j_max the gauged radial problem -R'' + [(lambda_j - 1/4)/rho^2 +
    radial term] R is solved for n_r <= n_r_max.  Cartesian families
    (caged oscillator, hydrogen pair): sums of two half-line levels with
    labels (n_x <= n_r_max, n_y <= j_max); two equal axes are solved once.
    Levels are merged and sorted.

    Only the radial levels that can be among the lowest ``count`` are
    solved.  E(n_r, j) increases in n_r, and in j too, since lambda_j is
    ascending and each radial level grows with its inverse-square term (by
    min-max); the same holds for each Cartesian axis.  So E(n_r, j) lies
    above the (n_r+1)(j+1) - 1 levels of smaller labels, and above
    E(n_r, j-1): it can be among the lowest ``count`` only if
    (n_r+1)(j+1) <= count and E(n_r, j-1) does not exceed the ``count``-th
    smallest level solved so far.  Every solved level carries the oracle's
    certified accuracy, but levels tied to within ``target`` may swap at the
    ``count`` boundary, and a radial problem solved for fewer levels takes
    its smaller default cutoff, which moves its levels within ``target``.
    """
    nm, jm = int(n_r_max), int(j_max)
    if nm < 0 or jm < 0:
        raise ValueError("label ranges must be nonnegative")
    box = (nm + 1) * (jm + 1)
    count = box if count is None else min(int(count), box)
    if count < 1:
        raise ValueError("need count >= 1 levels")
    separation = spec.separation()
    if separation is None:
        raise NotSeparable(f"{type(spec).__name__} has no separated-variable oracle")

    shape, first, second = separation
    if shape == "cartesian":
        nx, ny = min(nm + 1, count), min(jm + 1, count)
        px, py = (RadialProblem(kind=kind, coupling=coupling, c=c, cutoff=cutoff,
                                target=target) for kind, coupling, c in (first, second))
        if px == py:
            ex = ey = radial_spectrum(px, max(nx, ny), method=method)
        else:
            ex = radial_spectrum(px, nx, method=method)
            ey = radial_spectrum(py, ny, method=method)
        pairs = [(ex[i] + ey[j], (i, j)) for i in range(nx) for j in range(ny)]
    else:
        kind, coupling = second
        lam = angular_pt_levels(*first, min(jm + 1, count), method=method, target=target)
        pairs = []
        for j, lam_j in enumerate(lam):
            need = min(nm + 1, count // (j + 1))
            if len(pairs) >= count:
                threshold = sorted(e for e, _ in pairs)[count - 1]
                need = min(need, int(np.count_nonzero(er <= threshold)))
            if need == 0:
                break
            p = RadialProblem(kind=kind, coupling=coupling, c=lam_j - 0.25,
                              cutoff=cutoff, target=target)
            er = radial_spectrum(p, need, method=method)
            pairs.extend((er[i], (i, j)) for i in range(need))

    params = {f.name: getattr(spec, f.name) for f in fields(spec)}
    if "k" in params:
        params["k"] = k_float(params["k"])
    return OracleSpectrum(spec.family, tuple(sorted(pairs, key=lambda t: t[0])[:count]), params)
