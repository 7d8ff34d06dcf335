"""Symmetry reduction to the quadrant and the 3-body Jacobi route.

An O(d1) x O(d2)-symmetric problem in d1 + d2 dimensions reduces, at fixed
angular momenta (L_x, L_y), to a flat 2D problem on the open quadrant after
gauging each radial factor by x^((d-1)/2).  The gauge rotation turns the
radial Laplacian into a plain second derivative plus an inverse-square
centrifugal term

    c(d, L) = L (L + d - 2) + (d - 1)(d - 3) / 4,

which vanishes identically for d in {1, 3} at L = 0.  The closed form is
certified against an isospectrality oracle in the test suite before use.

The 3-body side: mass-weighted Jacobi rows diagonalize the kinetic energy
(unit Gram matrix in the 1/m metric), the center of mass separates off, and
a translation-invariant potential depending on the two Jacobi distances only
lands in exactly the same quadrant form under (x, y) <-> (r1J, r2J).
Calogero and Wolfes on the line (d = 1) land there as TTW at k = 3, by the
closed-form dictionary of :func:`wolfes_to_ttw`.  ``REDUCED_PROBLEM`` reads
a reduced problem back with the d, L and box entries of ``REDUCTION``.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BoundViolation,
    NonPositiveDistance,
    NonPositiveMass,
    PotentialNotJacobiRadial,
)
from .model import POTENTIAL, PotentialSpec, Rational, ThreeBodyConfig, ThreeBodyTTW, spec_to_dict
from .schema import POSITIVE, REAL, REQUIRED, Block, Num


# ---------------------------------------------------------------------
# centrifugal coefficient and the reduced 2D problem
# ---------------------------------------------------------------------

def centrifugal_coefficient(d: int, L: int) -> float:
    """Inverse-square coefficient produced by the radial gauge rotation.

    Gauging -u'' - ((d-1)/x) u' + L(L+d-2)/x^2 by x^((d-1)/2) yields
    -u'' + c/x^2 with c = L(L+d-2) + (d-1)(d-3)/4.  c(1,0) = c(3,0) = 0
    exactly.  At d = 1 the "angular momentum" is the parity L in {0, 1}.
    """
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")
    if L < 0:
        raise ValueError(f"angular momentum L must be >= 0, got {L}")
    if d == 1 and L > 1:
        raise ValueError(f"at d = 1, L is a parity in {{0, 1}}, got {L}")
    try:
        c = L * (L + d - 2) + (d - 1) * (d - 3) / 4.0
    except OverflowError:     # an integer too large for a double
        c = math.inf
    if not math.isfinite(c):
        raise ValueError(f"the centrifugal coefficient of d = {reprlib.repr(d)}, "
                         f"L = {reprlib.repr(L)} overflows a double")
    return c


@dataclass(frozen=True)
class Box:
    """Dirichlet truncation box [0, x_max] x [0, y_max] of the open quadrant."""

    x_max: float
    y_max: float

    def __post_init__(self):
        if self.x_max <= 0 or self.y_max <= 0:
            raise ValueError("box extents must be positive")


# the entries of d, L and the box of every block; d and L stay 10x above the
# 5 and 2 that any test, config or benchmark job uses
DIMENSION, ANGULAR = Num(True, 1, hi=100), Num(True, 0, hi=100)
BOX = Block({"x_max": (POSITIVE, REQUIRED), "y_max": (POSITIVE, REQUIRED)})
REDUCTION = Block({"d1": (DIMENSION, 3), "d2": (DIMENSION, 3), "L_x": (ANGULAR, 0),
                   "L_y": (ANGULAR, 0), "box": (BOX, None)})
"""The ``reduction`` block of a config: keyword arguments of :func:`reduce_to_2d`."""


def default_box(spec: PotentialSpec) -> Box:
    """Documented default truncation per family.

    Oscillator-confined families use 12 / sqrt(omega); Coulomb families use
    60.  Bound states decay exponentially, and convergence sweeps in the
    test suite confirm these defaults. Custom potentials need an explicit
    box.
    """
    side = spec.box_side()
    return Box(side, side)


@dataclass(frozen=True)
class ReducedProblem2D:
    """Effective flat 2D problem -d^2/dx^2 - d^2/dy^2 + W on the quadrant.

    W(x, y) = V(x, y) + c_x/x^2 + c_y/y^2 with the centrifugal terms already
    absorbed by the gauge rotation.
    """

    potential: PotentialSpec
    d1: int
    d2: int
    L_x: int
    L_y: int
    c_x: float
    c_y: float
    box: Box

    def effective_values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorized W(x, y) = V + c_x/x^2 + c_y/y^2 on quadrant points."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        w = self.potential.quadrant(x, y)
        if self.c_x != 0.0:
            w = w + self.c_x / x**2
        if self.c_y != 0.0:
            w = w + self.c_y / y**2
        return w

    def to_dict(self) -> dict:
        return {
            "potential": spec_to_dict(self.potential),
            "d1": self.d1,
            "d2": self.d2,
            "L_x": self.L_x,
            "L_y": self.L_y,
            "c_x": self.c_x,
            "c_y": self.c_y,
            "box": {"x_max": self.box.x_max, "y_max": self.box.y_max},
        }

    @staticmethod
    def from_dict(obj: dict) -> "ReducedProblem2D":
        """Inverse of :meth:`to_dict`, read through ``REDUCED_PROBLEM`` (malformed
        input raises :class:`ConfigError`, a ``ValueError``) and built through
        :func:`reduce_to_2d`; the stored c_x, c_y must be the centrifugal
        coefficients of their (d, L)."""
        doc = REDUCED_PROBLEM.parse(obj, "reduced_problem")
        problem = reduce_to_2d(doc["potential"], d1=doc["d1"], d2=doc["d2"], L_x=doc["L_x"],
                               L_y=doc["L_y"], box=Box(**doc["box"]))
        for key, d, L in (("c_x", "d1", "L_x"), ("c_y", "d2", "L_y")):
            stored, expected = doc[key], getattr(problem, key)
            if not math.isclose(stored, expected, rel_tol=1e-12, abs_tol=1e-12):
                raise ValueError(f"{key} = {stored!r} disagrees with {expected!r}, the "
                                 f"centrifugal coefficient of {d} = {doc[d]}, {L} = {doc[L]}")
        return problem


REDUCED_PROBLEM = Block({"potential": (POTENTIAL, REQUIRED),
                         **{key: (kind, REQUIRED) for key, (kind, _) in REDUCTION.keys.items()},
                         "c_x": (REAL, REQUIRED), "c_y": (REAL, REQUIRED)})
"""The JSON block of :meth:`ReducedProblem2D.to_dict`; REDUCTION's entries, all required."""


def reduce_to_2d(
    spec: PotentialSpec,
    d1: int,
    d2: int,
    L_x: int = 0,
    L_y: int = 0,
    box: Optional[Box] = None,
) -> ReducedProblem2D:
    """Reduce an O(d1) x O(d2)-symmetric radial potential to the quadrant.

    The potential must depend on the two radii only; the returned problem
    carries the centrifugal coefficients of the chosen (L_x, L_y) sector.
    """
    refusal = spec.radial_refusal()
    if refusal is not None:
        raise PotentialNotJacobiRadial(refusal)
    if box is None:
        box = default_box(spec)
    return ReducedProblem2D(
        potential=spec,
        d1=d1,
        d2=d2,
        L_x=L_x,
        L_y=L_y,
        c_x=centrifugal_coefficient(d1, L_x),
        c_y=centrifugal_coefficient(d2, L_y),
        box=box,
    )


# ---------------------------------------------------------------------
# Jacobi frames
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiFrame:
    """Mass-weighted translation-invariant coordinates for three bodies.

    ``cms_row`` and the two ``jacobi_rows`` act on the stacked position
    vectors; each Jacobi row annihilates uniform translations and the Gram
    matrix of all three rows in the 1/m metric is the identity, so the
    kinetic operator -sum (1/m_k) Lap_k becomes -Lap_R0 - Lap_1 - Lap_2.

    For equal masses m = 2 the first Jacobi distance is the pair distance
    r12 and, on an ordered line, the second is (r13 + r23) / sqrt(3).
    """

    masses: tuple[float, float, float]
    total_mass: float
    cms_row: np.ndarray
    jacobi_rows: np.ndarray
    d: int


def build_jacobi(masses: tuple[float, float, float], d: int = 3) -> JacobiFrame:
    """Construct the CMS row and the two Jacobi rows for given masses."""
    m1, m2, m3 = (float(m) for m in masses)
    if min(m1, m2, m3) <= 0:
        raise NonPositiveMass(f"masses must be positive, got {masses}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    M = m1 + m2 + m3
    cms = np.array([m1, m2, m3]) / math.sqrt(M)
    row1 = math.sqrt(m1 * m2 / (m1 + m2)) * np.array([-1.0, 1.0, 0.0])
    row2 = math.sqrt(m3 * (m1 + m2) / M) * np.array(
        [-m1 / (m1 + m2), -m2 / (m1 + m2), 1.0]
    )
    return JacobiFrame(
        masses=(m1, m2, m3),
        total_mass=M,
        cms_row=cms,
        jacobi_rows=np.vstack([row1, row2]),
        d=d,
    )


def kinetic_gram(frame: JacobiFrame) -> np.ndarray:
    """Gram matrix G_ab = sum_k row_a(k) row_b(k) / m_k of the frame rows.

    The kinetic operator is -sum G_ab d_a d_b in the new coordinates; the
    contract is G = identity, certifying that the transformation
    diagonalizes the kinetic energy.
    """
    rows = np.vstack([frame.cms_row, frame.jacobi_rows])
    inv_m = 1.0 / np.asarray(frame.masses)
    return (rows * inv_m) @ rows.T


def jacobi_distances(frame: JacobiFrame, positions: np.ndarray) -> tuple[float, float]:
    """Lengths of the two Jacobi vectors of stacked positions of shape (3, d)."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if positions.shape[0] != 3:
        raise ValueError(f"positions must be shaped (3, d), got {positions.shape}")
    r1, r2 = (row @ positions for row in frame.jacobi_rows)
    return float(np.linalg.norm(r1)), float(np.linalg.norm(r2))


# ---------------------------------------------------------------------
# ordered line configurations and Jacobi polar coordinates
# ---------------------------------------------------------------------

def ordered_line_config(r12: float, r23: float) -> ThreeBodyConfig:
    """Collinear ordered configuration x1 <= x2 <= x3 with given gaps."""
    if r12 <= 0 or r23 <= 0:
        raise NonPositiveDistance(
            f"ordered line gaps must be positive, got r12={r12}, r23={r23}"
        )
    return ThreeBodyConfig(r12=r12, r13=r12 + r23, r23=r23)


def jacobi_polar(config: ThreeBodyConfig, frame: JacobiFrame) -> tuple[float, float]:
    """Jacobi polar coordinates (rho, theta) of an ordered d=1 configuration.

    rho = sqrt(r1J^2 + r2J^2), theta = atan2(r2J, r1J) in (0, pi/2).
    """
    if frame.d != 1:
        raise ValueError("jacobi_polar requires a d=1 frame")
    if abs(config.r13 - (config.r12 + config.r23)) > 1e-9 * config.r13:
        raise ValueError(
            "config is not an ordered line configuration (r13 != r12 + r23)"
        )
    positions = np.array([[0.0], [config.r12], [config.r13]])
    r1, r2 = jacobi_distances(frame, positions)
    return math.hypot(r1, r2), math.atan2(r2, r1)


# ---------------------------------------------------------------------
# 3-body potentials into the quadrant
# ---------------------------------------------------------------------

def equal_mass_frame() -> JacobiFrame:
    """The d=1 frame at m1 = m2 = m3 = 2, for which r1J equals r12."""
    return build_jacobi((2.0, 2.0, 2.0), d=1)


def wolfes_to_ttw(omega: float, A: float, B: float) -> ThreeBodyTTW:
    """The TTW(k=3) image of a Wolfes model on the ordered line.

    In the equal-mass (m = 2) Jacobi frame the pair and three-body terms
    become the cos and sin barriers of k = 3, and the quadratic sum
    becomes (3/2) omega^2 rho^2:

        omega' = sqrt(3/2) omega,   alpha = A,   beta = B / 3.

    Calogero is the case B = 0.  The ``wolfes-ttw3`` and ``calogero-b0``
    checks of ``verify`` certify the dictionary pointwise.
    """
    image_omega = math.sqrt(1.5) * omega
    if not math.isfinite(image_omega * image_omega):
        raise BoundViolation(f"Wolfes omega = {omega!r} maps to omega' = sqrt(3/2) omega "
                             f"= {image_omega!r}, which overflows when squared")
    return ThreeBodyTTW(omega=image_omega, k=Rational(3, 1), alpha=A, beta=B / 3.0)


def map_threebody(
    spec: PotentialSpec,
    d: int,
    L1: int = 0,
    L2: int = 0,
    box: Optional[Box] = None,
    masses: tuple[float, float, float] = (2.0, 2.0, 2.0),
) -> ReducedProblem2D:
    """Map a translation-invariant 3-body potential to the quadrant problem.

    The potential must depend on the Jacobi distances only.  Potentials
    already written over (r1J, r2J) (hydrogen pair, Jacobi oscillators,
    3-body TTW) pass through with centrifugal coefficients of the (L1, L2)
    sector; Calogero/Wolfes at d = 1 are converted to their TTW(k=3) image
    first.
    """
    line = spec.line_model()
    if line is not None:
        if d != 1:
            raise PotentialNotJacobiRadial(
                "Calogero/Wolfes reduce through Jacobi distances at d = 1 only"
            )
        if masses != (2.0, 2.0, 2.0):
            raise ValueError(
                "the line-model image is derived in the equal-mass (m=2) frame"
            )
        spec = wolfes_to_ttw(*line)
    return reduce_to_2d(spec, d1=d, d2=d, L_x=L1, L_y=L2, box=box)
