"""Integral order, exact potential identities, and degeneracy scans.

The identity checks are the pointwise certificate of the package's two
closed-form dictionaries: Wolfes/Calogero = TTW(k=3)
(``reduction.wolfes_to_ttw``) and TTW(k=1) = the caged oscillator
(:func:`caged_image_of_ttw`).

Superintegrability is probed through the level-degeneracy structure of
labeled oracle spectra rather than by constructing the higher-order
integral operators.  For rational k = m/n the extra integral has order
N = 2 (m + n - 1); irrational k serves as the control with no claimed
finite-order integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BridgeMismatch, NotRational, SingularPoint
from .eigensolve import DegeneracyReport, detect_degeneracies
from .model import (CagedOscillator, Calogero, KValue, PotentialSpec, Rational, TTW,
                    Wolfes, coerce_k, eval_potential, k_float, k_to_json)
from .oracles import (OracleSpectrum, RadialProblem, pregauge_radial_levels, radial_spectrum,
                      separated_spectrum)
from .reduction import (build_jacobi, centrifugal_coefficient, equal_mass_frame, jacobi_polar,
                        kinetic_gram, ordered_line_config, wolfes_to_ttw)

_EXCLUSION = 1e-3


def integral_order(k: KValue) -> int:
    """Order N = 2(m + n - 1) of the extra integral at rational k = m/n."""
    k = coerce_k(k)
    if not isinstance(k, Rational):
        raise NotRational(f"no finite integral order is claimed for k = {k!r}")
    return 2 * (k.m + k.n - 1)


# ---------------------------------------------------------------------
# pointwise identity checks
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheckResult:
    max_rel_deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_deviation <= self.tol


@dataclass(frozen=True)
class Bridge:
    """Maps sample-box points into both charts of an identity check.

    ``sample_box`` bounds the abstract sample plane; ``to_a``/``to_b``
    produce chart points for the two specs; ``admissible`` screens samples
    that fall inside the singular-line exclusion zone of either chart.
    """

    sample_box: tuple[tuple[float, float], tuple[float, float]]
    to_a: Callable[[float, float], object]
    to_b: Callable[[float, float], object]
    admissible: Callable[[float, float], bool]


def ordered_line_to_jacobi_polar_bridge(box=((0.2, 3.0), (0.2, 3.0))) -> Bridge:
    """Samples (r12, r23) gaps; chart A is the 3-body config, chart B is
    the Jacobi polar point of the equal-mass (m = 2) frame."""
    frame = equal_mass_frame()

    def to_a(u, v):
        return ordered_line_config(u, v)

    def to_b(u, v):
        return jacobi_polar(ordered_line_config(u, v), frame)

    def admissible(u, v):
        # interior singular ray: sin(3 theta) = 0 at theta = pi/3 (u = v);
        # the cos rays pi/6 and pi/2 sit outside the sample box already
        theta = to_b(u, v)[1]
        return abs(theta - math.pi / 3.0) > _EXCLUSION

    return Bridge(sample_box=box, to_a=to_a, to_b=to_b, admissible=admissible)


def polar_to_cartesian_bridge(box=((0.3, 3.0), (0.05, 1.5))) -> Bridge:
    """Samples (rho, theta); chart A is polar, chart B is (x, y)."""

    def admissible(rho, theta):
        return _EXCLUSION <= theta <= math.pi / 2 - _EXCLUSION

    return Bridge(sample_box=box,
                  to_a=lambda rho, theta: (rho, theta),
                  to_b=lambda rho, theta: (rho * math.cos(theta), rho * math.sin(theta)),
                  admissible=admissible)


def _radical_inverse(index: int, base: int) -> float:
    """``index`` written in ``base`` and mirrored about the radix point
    (van der Corput), rounded once from the exact fraction."""
    num, den = 0, 1
    while index:
        index, digit = divmod(index, base)
        num, den = num * base + digit, den * base
    return num / den


def halton_point(index: int) -> tuple[float, float]:
    """Point ``index`` of the unscrambled 2-D Halton sequence in [0, 1)^2:
    the radical inverses of ``index`` in bases 2 and 3."""
    return _radical_inverse(index, 2), _radical_inverse(index, 3)


def identity_check(spec_a: PotentialSpec, spec_b: PotentialSpec, bridge: Bridge,
                   samples: int = 1000, tol: float = 1e-12,
                   seed: int = 1729) -> IdentityCheckResult:
    """Evaluate both potentials at bridged sample points.

    Points are :func:`halton_point` ``(seed + 1)``, ``(seed + 2)``, ... scaled
    onto the bridge's sample box; every draw advances the index, whether or
    not the point is admitted, so ``seed`` fixes the points.  Points in the
    singular-line exclusion zones are skipped.  Drawing them in-package keeps
    ``scipy.stats`` out of every command.  Reports the maximum relative
    deviation over the accepted samples, or NaN if any sample gives NaN.
    """
    (ulo, uhi), (vlo, vhi) = bridge.sample_box
    worst = 0.0
    accepted = 0
    guard = 0
    while accepted < samples:
        guard += 1
        if guard > 50 * samples:
            raise BridgeMismatch(
                "sample box yields too few admissible points; check the bridge"
            )
        u01, v01 = halton_point(seed + guard)
        u = ulo + (uhi - ulo) * u01
        v = vlo + (vhi - vlo) * v01
        if not bridge.admissible(u, v):
            continue
        try:
            va = eval_potential(spec_a, bridge.to_a(u, v))
            vb = eval_potential(spec_b, bridge.to_b(u, v))
        except SingularPoint:
            continue
        accepted += 1
        dev = abs(va - vb) / max(abs(va), abs(vb), 1e-300)
        worst = float(np.maximum(worst, dev))    # a NaN deviation sticks, and fails
    return IdentityCheckResult(max_rel_deviation=worst, tol=tol)


def caged_image_of_ttw(spec: TTW) -> CagedOscillator:
    """The caged oscillator that TTW at k = 1 is: with x = rho cos theta and
    y = rho sin theta, alpha / (rho cos theta)^2 = alpha / x^2, so a = b = 1,
    A = alpha and B = beta.  The ``ttw1-caged`` check of ``verify`` certifies
    it pointwise."""
    if k_float(spec.k) != 1.0:
        raise ValueError(f"the caged-oscillator coincidence is a k = 1 statement, "
                         f"got k = {spec.k!r}")
    return CagedOscillator(a=1.0, b=1.0, omega=spec.omega, A=spec.alpha, B=spec.beta)


# ---------------------------------------------------------------------
# degeneracy scans
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ScanEntry:
    k: KValue
    integral_order: Optional[int]
    levels: np.ndarray
    report: DegeneracyReport
    spectrum: OracleSpectrum

    def to_dict(self) -> dict:
        return {
            "k": k_to_json(self.k),
            "integral_order": self.integral_order,
            "levels": self.levels.tolist(),
            "clusters": self.report.to_dict()["clusters"],
        }


def degeneracy_scan(template: PotentialSpec, k_list: Sequence[KValue],
                    levels_per_k: int = 20, tol: float = 1e-8,
                    n_r_max: int = 14, j_max: int = 10) -> list[ScanEntry]:
    """Oracle spectra, clustered, for a TTW-like template across k values.

    Rational k entries are annotated with the integral order 2(m+n-1);
    irrational entries carry no order claim.  Only the lowest
    ``levels_per_k`` levels of each oracle box are solved.
    """
    if not template.k_scan:
        raise NotRational("degeneracy scans run on TTW-family templates")
    entries = []
    for k in k_list:
        spec = replace(template, k=k)
        spectrum = separated_spectrum(spec, n_r_max=n_r_max, j_max=j_max, count=levels_per_k)
        levels = spectrum.energies()
        report = detect_degeneracies(levels, tol_rel=tol)
        order = integral_order(spec.k) if isinstance(spec.k, Rational) else None
        entries.append(ScanEntry(k=spec.k, integral_order=order, levels=levels,
                                 report=report, spectrum=spectrum))
    return entries


def labeled_collisions(spectrum: OracleSpectrum, count: int,
                       tol_rel: float = 1e-8) -> list[tuple[float, int, list[tuple[int, int]]]]:
    """Collision groups of the first ``count`` labeled oracle energies.

    Returns (representative energy, multiplicity, member labels) per group,
    grouping numerically coincident labeled levels at ``tol_rel``.  Every
    member of a group carries a distinct label pair; the multiplicity
    sequence is the collision count a clustering of the merged spectrum
    must reproduce for an exactly solvable family.
    """
    head = spectrum.levels[:count]
    report = detect_degeneracies([energy for energy, _ in head], tol_rel=tol_rel)
    groups, start = [], 0
    for energy, mult in report.clusters:
        labels = [label for _, label in head[start:start + mult]]
        if len(set(labels)) != mult:
            raise ValueError("duplicate labels inside a collision group")
        groups.append((energy, mult, labels))
        start += mult
    return groups


# ---------------------------------------------------------------------
# built-in verification checks
# ---------------------------------------------------------------------

def _check_wolfes_ttw3() -> tuple[float, float]:
    res = identity_check(Wolfes(omega=1.0, A=1.0, B=2.0),
                         wolfes_to_ttw(1.0, 1.0, 2.0),
                         ordered_line_to_jacobi_polar_bridge(), samples=1000, tol=1e-12)
    return res.max_rel_deviation, 1e-12


def _check_calogero_b0() -> tuple[float, float]:
    bridge = ordered_line_to_jacobi_polar_bridge()
    res = identity_check(Wolfes(omega=1.3, A=0.8, B=0.0), Calogero(omega=1.3, A=0.8),
                         replace(bridge, to_b=bridge.to_a), samples=500, tol=1e-15)
    return res.max_rel_deviation, 1e-15


def _check_gram_identity() -> tuple[float, float]:
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        masses = tuple(rng.uniform(0.1, 10.0, size=3))
        gram = kinetic_gram(build_jacobi(masses, d=3))
        worst = max(worst, float(np.abs(gram - np.eye(3)).max()))
    return worst, 1e-13


def _check_ttw1_caged() -> tuple[float, float]:
    ttw = TTW(omega=1.0, k=Rational(1, 1), alpha=0.3, beta=0.7)
    res = identity_check(ttw, caged_image_of_ttw(ttw), polar_to_cartesian_bridge(),
                         samples=500, tol=1e-12)
    return res.max_rel_deviation, 1e-12


def _check_gauge_isospectral() -> tuple[float, float]:
    worst = 0.0
    for d, L in ((2, 0), (5, 1)):
        pre = pregauge_radial_levels(d, L, cutoff=math.pi, m=5)
        c = centrifugal_coefficient(d, L)
        gauged = radial_spectrum(RadialProblem(kind="free", c=c, cutoff=math.pi), 5,
                                 method="shooting")
        worst = max(worst, float(np.max(np.abs(pre - gauged) / np.abs(gauged))))
    return worst, 1e-6


CHECKS: dict[str, Callable[[], tuple[float, float]]] = {
    "wolfes-ttw3": _check_wolfes_ttw3,
    "calogero-b0": _check_calogero_b0,
    "gram-identity": _check_gram_identity,
    "centrifugal-d3L0": lambda: (abs(centrifugal_coefficient(3, 0)), 0.0),
    "centrifugal-d1L0": lambda: (abs(centrifugal_coefficient(1, 0)), 0.0),
    "ttw1-caged": _check_ttw1_caged,
    "gauge-isospectral": _check_gauge_isospectral,
}
"""Built-in ``verify`` checks: id -> check returning (deviation, tolerance);
a check passes when its deviation is at most its tolerance."""
