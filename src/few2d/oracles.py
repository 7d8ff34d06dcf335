"""Separated-variable oracles built on two independent 1D eigensolvers.

Every radial or angular factor reduces to a half-line problem

    -u'' + [ V(x) + c / x^2 ] u = lambda u,        c > -1/4,

solved here by two unrelated backends:

``fd``
    A conservative finite-difference scheme.  The inverse-square term is
    absorbed exactly into a weight: with s(s-1) = c, s = 1/2 + sqrt(1/4+c),
    substituting u = x^s w turns the operator into the regular weighted form
    -(x^{-2s}) (x^{2s} w')' + V(x) w.  The scheme is assembled in log-space
    ratios (stable for large s), reduced to a symmetric tridiagonal problem,
    and Richardson-extrapolated over grids (n, 2n, 4n); the extrapolation
    residual provides the accuracy estimate.  The first grid is solved by
    LAPACK bisection; each finer grid refines the levels predicted from the
    coarser ones by inverse iteration and keeps them only when a Sturm count
    and their residuals certify them, else it is bisected too.  Coulomb
    problems with c != 0 use a logarithmically mapped grid instead, equally
    tridiagonal and always bisected.

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
from typing import Callable, Iterable, Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dstebz

from .errors import AccuracyNotReached, BoundViolation, NotSeparable
from .model import KValue, PotentialSpec, k_float, validate

_FD_BASE_N = 1500
_SHOOT_RTOL = 1e-12    # LSODA stalls in rare forbidden-region runs at 1e-13
_ULP = np.finfo(float).eps
_LOG_MAX = math.log(np.finfo(float).max)
_INVERSE_STEPS = 5     # at most, per predicted level


# =====================================================================
# backend 1: weighted conservative finite differences + Richardson
# =====================================================================

def _tridiag_lowest(diag: np.ndarray, off: np.ndarray, m: int, tol: float = 0.0,
                    guess: Optional[np.ndarray] = None) -> np.ndarray:
    """Lowest m eigenvalues of the symmetric tridiagonal matrix (diag, off).

    Without ``guess`` they are bisected by LAPACK ``dstebz`` from the
    Gershgorin bounds to the absolute tolerance ``tol`` (<= 0: ulp * ||T||).
    With a prediction ``guess`` of all m levels, ``_refined_levels`` tries
    to refine and certify them first; a failed certificate falls back to
    the bisection.
    """
    if guess is not None:
        levels = _refined_levels(diag, off, guess)
        if levels is not None:
            return levels
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, m - 1),
                            eigvals_only=True, tol=tol)


def _refined_levels(diag: np.ndarray, off: np.ndarray,
                    guess: np.ndarray) -> Optional[np.ndarray]:
    """Levels 0..m-1 refined from a prediction, or None if not certified.

    Each predicted level is refined by shifted inverse iteration (LAPACK
    ``dgtsv``) from a fixed start vector, ending in a Rayleigh quotient
    lam_j with residual r_j; then T has an eigenvalue in each interval
    [lam_j - r_j, lam_j + r_j].  The levels are accepted only if

    * the intervals, widened by 8 ulp * ||T|| for rounding, are pairwise
      disjoint and ordered,
    * one Sturm count (``dstebz`` over a range with no bisection) finds
      exactly m eigenvalues up to the top of the last interval, so the
      intervals hold levels 0..m-1 and nothing else lies below that top,
    * the Kato-Temple bound r_j^2 / gap_j, with gap_j the distance from
      lam_j to the nearest other eigenvalue, is at most ulp * ||T||: the
      absolute accuracy class of the bisection.

    The top of the last interval is raised to lam + 2 r^2 / (ulp * ||T||)
    so that the count also bounds the gap above the highest level.
    """
    m = len(guess)
    a = np.abs(off)
    norm = float(np.max(np.abs(diag) + np.append(a, 0.0) + np.insert(a, 0, 0.0)))
    tol_abs = _ULP * norm
    # stop iterating once r_j^2 is well below tol_abs times the predicted gap
    spacing = np.abs(np.diff(guess))
    gap_guess = (np.minimum(np.append(spacing, np.inf), np.insert(spacing, 0, np.inf))
                 if m > 1 else np.abs(guess))
    start = np.random.default_rng(0).standard_normal(diag.size)
    lam, res = np.empty(m), np.empty(m)
    for j in range(m):
        x = start
        for _ in range(_INVERSE_STEPS):
            *_, y, info = dgtsv(off, diag - guess[j], off, x)
            if info != 0:
                return None
            x = y / np.linalg.norm(y)
            tx = diag * x
            tx[:-1] += off * x[1:]
            tx[1:] += off * x[:-1]
            lam[j] = x @ tx
            res[j] = np.linalg.norm(tx - lam[j] * x)
            if res[j] ** 2 <= 0.1 * tol_abs * gap_guess[j]:
                break

    # each check is written so that a NaN fails it
    slack = 8.0 * tol_abs
    lo, hi = lam - res - slack, lam + res + slack
    if not (lo[1:] > hi[:-1]).all():
        return None
    top = max(hi[-1], lam[-1] + 2.0 * res[-1] ** 2 / tol_abs)
    vl = -2.0 * norm   # below the whole spectrum
    count = dstebz(diag, off, 1, vl, top, 0, 0, top - vl, b"E")[0]
    if count != m:
        return None
    gap = np.minimum(np.append(lo[1:], top) - lam, np.insert(lam[1:] - hi[:-1], 0, np.inf))
    if not (res**2 <= tol_abs * gap).all():
        return None
    return lam


def _steep_weight(n: int, a: float, b: float) -> AccuracyNotReached:
    return AccuracyNotReached(math.inf, 0.0, f"fd backend: the {n}-point operator on "
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
    with np.errstate(over="ignore"):   # an overflow is reported just below
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


def _weighted_fd_once(
    log_weight: Callable[[np.ndarray], np.ndarray],
    potential: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    m: int,
    n: int,
    natural_left: bool,
    natural_right: bool,
    guess: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Lowest m eigenvalues of the weighted scheme on n points; ``guess``
    predicts them (see ``_tridiag_lowest``)."""
    diag, off = _weighted_fd_operator(log_weight, potential, interval, n,
                                      natural_left, natural_right)
    return _tridiag_lowest(diag, off, m, guess=guess)


def _richardson(e1: np.ndarray, e2: np.ndarray,
                e3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-stage Richardson extrapolation in h^2 over grids (n, 2n, 4n);
    returns (levels, rel error)."""
    r1 = (4.0 * e2 - e1) / 3.0
    r2 = (4.0 * e3 - e2) / 3.0
    rr = (16.0 * r2 - r1) / 15.0
    err = np.abs(rr - r2) / np.maximum(np.abs(rr), 1e-300)
    return rr, err


def _fd_levels_certified(
    solve_n: Callable[[int, Optional[np.ndarray]], np.ndarray],
    target: float,
    label: str,
    n0: int = _FD_BASE_N,
) -> np.ndarray:
    """Richardson over (n0, 2n0, 4n0), then over (2n0, 4n0, 8n0) on a miss.

    ``solve_n(n, guess)`` returns the lowest levels on n points.  The first
    grid gets no guess: its cold bisection anchors the level indices.  Each
    finer grid gets a prediction of its levels: the n0 levels for 2n0, the
    h^2 step e_2n + (e_2n - e_n) / 4 for the grids after it.  ``label``
    names the problem in the error raised on a miss.
    """
    e1 = solve_n(n0, None)
    e2 = solve_n(2 * n0, e1)
    e3 = solve_n(4 * n0, e2 + (e2 - e1) / 4.0)
    grids = [n0, 2 * n0, 4 * n0]
    levels, err = _richardson(e1, e2, e3)
    if err.max() > target:
        e4 = solve_n(8 * n0, e3 + (e3 - e2) / 4.0)
        grids.append(8 * n0)
        levels, err = _richardson(e2, e3, e4)
    if err.max() <= target:
        return levels
    worst = int(np.argmax(err))
    raise AccuracyNotReached(achieved=float(err[worst]), target=target, detail=(
        f"requested relative accuracy {target:g}, achieved estimate {err[worst]:g} "
        f"(fd backend, {label}: worst level {worst}, Richardson grids of "
        f"{', '.join(map(str, grids))} points)"))


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


def _radial_fd(p: RadialProblem, m: int, cutoff: float) -> np.ndarray:
    s = _gauge_exponent(p.c)
    label = _radial_label(p, cutoff)
    pot = _radial_potential(p)
    if p.kind == "coulomb" and p.c != 0.0:
        # logarithmically mapped grid: u = e^{t/2} v(t), x = e^t turns the
        # problem into the pencil K v = lambda e^{2t} v, K = -d^2/dt^2 + c + 1/4
        # - Z e^t, solved as the symmetric tridiagonal e^{t_min} e^{-t} K e^{-t}
        # (the factor e^{t_min} centres its squared entries in the double range).
        # The entries span many orders of magnitude, so LAPACK bisection gets a
        # tiny absolute tolerance and keeps its relative stopping rule.
        z = p.coupling
        # inner wall where the x^s tail shifts the levels by about 1e-2 * target;
        # below t = -200 the bisection's pivot floor, safemin * max off^2, would
        # reach the levels' ulp
        t_min = math.log(1e-2 * p.target) / (2.0 * s - 1.0) if s > 0.5 else -math.inf
        if t_min < -200.0:
            raise AccuracyNotReached(math.inf, p.target, (
                f"fd backend, radial coulomb problem (coupling={z:.12g}, c={p.c:.12g}): "
                f"the log grid needs an inner wall at x = e^{t_min:.4g}, below its "
                f"floor e^-200, to reach relative accuracy {p.target:g}"))
        t_max = math.log(cutoff)

        # the graded pencil is always bisected cold (``guess`` unused): a
        # residual certificate bounds absolute errors, which give no relative
        # accuracy for levels many orders below the matrix norm
        def solve_n(n: int, guess: Optional[np.ndarray]) -> np.ndarray:
            h = (t_max - t_min) / (n + 1)
            t = t_min + h * np.arange(1, n + 1)
            w = np.exp(0.5 * t_min - t)
            diag = (2.0 / h**2 + (p.c + 0.25) - z * np.exp(t)) * w**2
            lam = _tridiag_lowest(diag, -w[:-1] * w[1:] / h**2, m, tol=np.finfo(float).tiny)
            return lam / math.exp(t_min)

        n_log = max(3000, int((t_max - t_min) * (40.0 * m + 60.0)))
        return _fd_levels_certified(solve_n, p.target, label, n0=n_log)

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

    n_base = max(_FD_BASE_N, int(12.0 * cutoff))
    # the largest weight ratio, (1 + h / (2 x))^(2 s) at the first node, peaks
    # on the coarsest grid; refuse it before allocating any grid
    h_base = (cutoff - x_lo) / (n_base + 1)
    if x_lo > 0.0 and 2.0 * s_eff * math.log1p(h_base / (2.0 * x_lo)) > _LOG_MAX:
        raise _steep_weight(n_base, x_lo, cutoff)

    def solve_n(n: int, guess: Optional[np.ndarray]) -> np.ndarray:
        return _weighted_fd_once(log_weight, pot, (x_lo, cutoff), m, n,
                                 natural_left=s_eff > 0.0 and x_lo == 0.0,
                                 natural_right=False, guess=guess)

    return _fd_levels_certified(solve_n, p.target, label, n0=n_base)


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
                           potential: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                           target: float = 1e-8) -> np.ndarray:
    """Lowest m levels of -u'' - ((d-1)/x) u' + L(L+d-2)/x^2 + V(x).

    Solved in the x^(d-1)-weighted inner product with no reference to the
    gauge-rotation coefficient; this is the independent side of the
    isospectrality check certifying ``reduction.centrifugal_coefficient``.
    """
    if d < 1 or L < 0:
        raise ValueError("need d >= 1 and L >= 0")
    ang = float(L * (L + d - 2))
    base = potential if potential is not None else (lambda x: np.zeros_like(x))

    def pot(x: np.ndarray) -> np.ndarray:
        return base(x) + ang / x**2 if ang else base(x)

    def log_weight(x: np.ndarray) -> np.ndarray:
        return (d - 1.0) * np.log(x)

    def solve_n(n: int, guess: Optional[np.ndarray]) -> np.ndarray:
        return _weighted_fd_once(log_weight, pot, (0.0, cutoff), m, n,
                                 natural_left=d > 1, natural_right=False, guess=guess)

    return _fd_levels_certified(solve_n, target,
                                f"pre-gauge radial problem (d={d}, L={L}, cutoff={cutoff:.12g})",
                                n0=max(_FD_BASE_N, int(12.0 * cutoff)))


# =====================================================================
# angular problems
# =====================================================================

def _pt_exponents(k: float, a_coeff: float, b_coeff: float) -> tuple[float, float]:
    qa = 0.25 + a_coeff / k**2
    qb = 0.25 + b_coeff / k**2
    if qa <= 0.0 or qb <= 0.0:
        raise BoundViolation(
            f"angular couplings must exceed -k^2/4 = {-k*k/4.0:g}, "
            f"got cos-side {a_coeff}, sin-side {b_coeff}"
        )
    return 0.5 + math.sqrt(qa), 0.5 + math.sqrt(qb)


def _angular_label(k: float, a_coeff: float, b_coeff: float) -> str:
    return f"angular barrier problem (k={k:.12g}, A={a_coeff:.12g}, B={b_coeff:.12g})"


def _angular_fd(k: float, a_coeff: float, b_coeff: float, m: int,
                target: float) -> np.ndarray:
    at, bt = _pt_exponents(k, a_coeff, b_coeff)
    length = math.pi / (2.0 * k)
    shift = k**2 * (at + bt) ** 2

    def log_weight(th: np.ndarray) -> np.ndarray:
        return 2.0 * bt * np.log(np.sin(k * th)) + 2.0 * at * np.log(np.cos(k * th))

    def solve_n(n: int, guess: Optional[np.ndarray]) -> np.ndarray:
        mu = _weighted_fd_once(log_weight, lambda th: np.zeros_like(th),
                               (0.0, length), m, n,
                               natural_left=True, natural_right=True,
                               guess=None if guess is None else guess - shift)
        return mu + shift

    return _fd_levels_certified(solve_n, target, _angular_label(k, a_coeff, b_coeff), n0=1200)


def _angular_shoot(k: float, a_coeff: float, b_coeff: float, m: int) -> np.ndarray:
    length = math.pi / (2.0 * k)
    sa, sb = _pt_exponents(k, a_coeff, b_coeff)
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


def angular_pt_levels(k: KValue, alpha: float, beta: float, m: int,
                      convention: str = "plain", method: str = "fd",
                      target: float = 1e-8) -> np.ndarray:
    """Lowest m Dirichlet eigenvalues of the angular barrier problem.

    The operator is -f'' + [A/cos^2(k theta) + B/sin^2(k theta)] f on the
    sector (0, pi/(2k)); ``convention`` fixes how the couplings enter:
    ``"plain"`` uses A = alpha, ``"k2"`` uses A = k^2 alpha (the 3-body
    weighting).
    """
    kf = abs(k_float(k))
    if kf == 0.0:
        raise BoundViolation("k must be nonzero")
    if convention == "plain":
        a_coeff, b_coeff = alpha, beta
    elif convention == "k2":
        a_coeff, b_coeff = alpha * kf**2, beta * kf**2
    else:
        raise ValueError(f"unknown convention {convention!r}")
    if method == "fd":
        return _angular_fd(kf, a_coeff, b_coeff, m, target)
    if method == "shooting":
        return _angular_shoot(kf, a_coeff, b_coeff, m)
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


def _merge_labeled(pairs: Iterable[tuple[float, tuple[int, int]]]) -> tuple:
    return tuple(sorted(pairs, key=lambda t: t[0]))


def separated_spectrum(spec: PotentialSpec, n_r_max: int, j_max: int,
                       method: str = "fd", cutoff: Optional[float] = None,
                       target: float = 1e-8) -> OracleSpectrum:
    """Labeled spectrum of a separable family.

    Polar families (TTW, 3-body TTW, PW): for each angular label
    j <= j_max the gauged radial problem -R'' + [(lambda_j - 1/4)/rho^2 +
    radial term] R is solved for n_r <= n_r_max.  Cartesian families
    (caged oscillator, hydrogen pair): sums of two half-line levels with
    labels (n_x <= n_r_max, n_y <= j_max); two equal axes are solved once.
    Levels are merged and sorted.
    """
    spec = validate(spec)
    nm, jm = int(n_r_max), int(j_max)
    if nm < 0 or jm < 0:
        raise ValueError("label ranges must be nonnegative")
    separation = spec.separation()
    if separation is None:
        raise NotSeparable(f"{type(spec).__name__} has no separated-variable oracle")

    shape, first, second = separation
    if shape == "cartesian":
        px, py = (RadialProblem(kind=kind, coupling=coupling, c=c, cutoff=cutoff,
                                target=target) for kind, coupling, c in (first, second))
        if px == py:
            ex = ey = radial_spectrum(px, max(nm, jm) + 1, method=method)
        else:
            ex = radial_spectrum(px, nm + 1, method=method)
            ey = radial_spectrum(py, jm + 1, method=method)
        pairs = [(ex[i] + ey[j], (i, j)) for i in range(nm + 1) for j in range(jm + 1)]
    else:
        k, a_coeff, b_coeff, convention = first
        kind, coupling = second
        lam = angular_pt_levels(k, a_coeff, b_coeff, jm + 1, convention=convention,
                                method=method, target=target)
        pairs = []
        for j in range(jm + 1):
            p = RadialProblem(kind=kind, coupling=coupling, c=lam[j] - 0.25,
                              cutoff=cutoff, target=target)
            er = radial_spectrum(p, nm + 1, method=method)
            pairs.extend((er[i], (i, j)) for i in range(nm + 1))

    params = {f.name: getattr(spec, f.name) for f in fields(spec)}
    if "k" in params:
        params["k"] = k_float(params["k"])
    return OracleSpectrum(spec.family, _merge_labeled(pairs), params)
