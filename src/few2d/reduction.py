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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    FitFailure,
    NonPositiveDistance,
    NonPositiveMass,
    PotentialNotJacobiRadial,
)
from .model import (
    PotentialSpec,
    Rational,
    ThreeBodyConfig,
    ThreeBodyTTW,
    Wolfes,
    json_number,
    quadrant_values,
    spec_from_dict,
    spec_to_dict,
    validate,
)


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
    return L * (L + d - 2) + (d - 1) * (d - 3) / 4.0


@dataclass(frozen=True)
class Box:
    """Dirichlet truncation box [0, x_max] x [0, y_max] of the open quadrant."""

    x_max: float
    y_max: float

    def __post_init__(self):
        if self.x_max <= 0 or self.y_max <= 0:
            raise ValueError("box extents must be positive")


def default_box(spec: PotentialSpec) -> Box:
    """Documented default truncation per family.

    Oscillator-confined families use 12 / sqrt(omega); Coulomb families use
    60.  Bound states decay exponentially, and convergence sweeps in the
    test suite confirm these defaults. Custom potentials need an explicit
    box.
    """
    side = validate(spec).box_side()
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
        w = quadrant_values(self.potential, x, y)
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
        """Inverse of :meth:`to_dict`.

        d and L must be integers (bools refused), and the stored c_x, c_y
        must be the centrifugal coefficients of their (d, L).
        """
        allowed = {"potential", "d1", "d2", "L_x", "L_y", "c_x", "c_y", "box"}
        extra = set(obj) - allowed
        if extra:
            raise ValueError(f"unknown keys in reduced problem: {sorted(extra)}")
        fields = {}
        for key in ("d1", "d2", "L_x", "L_y"):
            value = json_number(obj[key], key)
            if not value.is_integer():
                raise ValueError(f"{key} must be an integer, got {obj[key]!r}")
            fields[key] = int(value)
        for key, d, L in (("c_x", "d1", "L_x"), ("c_y", "d2", "L_y")):
            fields[key] = json_number(obj[key], key)
            expected = centrifugal_coefficient(fields[d], fields[L])
            if not math.isclose(fields[key], expected, rel_tol=1e-12, abs_tol=1e-12):
                raise ValueError(f"{key} = {fields[key]!r} disagrees with {expected!r}, the "
                                 f"centrifugal coefficient of {d} = {fields[d]}, "
                                 f"{L} = {fields[L]}")
        box = obj["box"]
        return ReducedProblem2D(
            potential=spec_from_dict(obj["potential"]),
            box=Box(json_number(box["x_max"], "box.x_max"),
                    json_number(box["y_max"], "box.y_max")),
            **fields,
        )


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
    spec = validate(spec)
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

    def to_dict(self) -> dict:
        return {
            "masses": list(self.masses),
            "total_mass": self.total_mass,
            "cms_row": self.cms_row.tolist(),
            "jacobi_rows": self.jacobi_rows.tolist(),
            "d": self.d,
        }

    @staticmethod
    def from_dict(obj: dict) -> "JacobiFrame":
        allowed = {"masses", "total_mass", "cms_row", "jacobi_rows", "d"}
        extra = set(obj) - allowed
        if extra:
            raise ValueError(f"unknown keys in Jacobi frame: {sorted(extra)}")
        return JacobiFrame(
            masses=tuple(float(m) for m in obj["masses"]),
            total_mass=float(obj["total_mass"]),
            cms_row=np.asarray(obj["cms_row"], dtype=float),
            jacobi_rows=np.asarray(obj["jacobi_rows"], dtype=float),
            d=int(obj["d"]),
        )


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


def jacobi_vectors(frame: JacobiFrame, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the Jacobi rows to stacked particle positions of shape (3, d)."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if positions.shape[0] != 3:
        raise ValueError(f"positions must be shaped (3, d), got {positions.shape}")
    r1 = frame.jacobi_rows[0] @ positions
    r2 = frame.jacobi_rows[1] @ positions
    return r1, r2


def jacobi_distances(frame: JacobiFrame, positions: np.ndarray) -> tuple[float, float]:
    r1, r2 = jacobi_vectors(frame, positions)
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

class TTWImage(NamedTuple):
    """k = 3 image parameters of a 3-body line model: W = omega^2 rho^2
    + 9 alpha / (rho^2 cos^2 3theta) + 9 beta / (rho^2 sin^2 3theta)."""

    omega: float
    alpha: float
    beta: float

    def as_spec(self) -> ThreeBodyTTW:
        return ThreeBodyTTW(omega=self.omega, k=Rational(3, 1),
                            alpha=self.alpha, beta=self.beta)


_EQUAL_MASS_FRAME = None


def equal_mass_frame() -> JacobiFrame:
    """The d=1 frame at m1 = m2 = m3 = 2, for which r1J equals r12."""
    global _EQUAL_MASS_FRAME
    if _EQUAL_MASS_FRAME is None:
        _EQUAL_MASS_FRAME = build_jacobi((2.0, 2.0, 2.0), d=1)
    return _EQUAL_MASS_FRAME


def wolfes_to_ttw(omega: float, A: float, B: float,
                  verify_points: int = 200, tol: float = 1e-12) -> TTWImage:
    """Fit the TTW(k=3) image of a Wolfes model on the ordered line.

    The image parameters (omega', alpha, beta) are determined by an exact
    linear fit at 3 generic sample points and then verified pointwise at
    ``verify_points`` fresh ordered configurations; no analytic dictionary
    is assumed.  Raises :class:`FitFailure` if the verification exceeds
    ``tol`` (that signals an implementation bug, not user error).
    """
    wolfes = validate(Wolfes(omega=omega, A=A, B=B))
    frame = equal_mass_frame()

    def design_row(u: float, v: float) -> tuple[list[float], float]:
        config = ordered_line_config(u, v)
        rho, theta = jacobi_polar(config, frame)
        rho2 = rho * rho
        gc = 9.0 / (rho2 * math.cos(3 * theta) ** 2)
        gs = 9.0 / (rho2 * math.sin(3 * theta) ** 2)
        from .model import eval_potential

        return [rho2, gc, gs], eval_potential(wolfes, config)

    sample = [(0.7, 1.3), (1.1, 0.4), (0.5, 0.9)]
    mat, rhs = [], []
    for u, v in sample:
        row, val = design_row(u, v)
        mat.append(row)
        rhs.append(val)
    try:
        omega2, alpha, beta = np.linalg.solve(np.array(mat), np.array(rhs))
    except np.linalg.LinAlgError as exc:
        raise FitFailure(f"singular design matrix: {exc}") from exc
    if omega2 <= 0:
        raise FitFailure(f"fit produced non-positive omega'^2 = {omega2}")
    # coefficients at the fit's roundoff floor are exact zeros (a residual
    # angular coupling of size eps gets amplified without bound near its ray)
    floor = 1e-12 * max(abs(omega2), abs(alpha), abs(beta), 1.0)
    alpha = 0.0 if abs(alpha) < floor else float(alpha)
    beta = 0.0 if abs(beta) < floor else float(beta)

    rng = np.random.default_rng(20240311)
    worst = 0.0
    count = 0
    while count < verify_points:
        u, v = rng.uniform(0.2, 3.0, size=2)
        theta = jacobi_polar(ordered_line_config(u, v), frame)[1]
        if abs(theta - math.pi / 3.0) < 1e-3:
            continue                      # stay off the sin(3 theta) = 0 ray
        count += 1
        row, val = design_row(u, v)
        image = row[0] * omega2 + row[1] * alpha + row[2] * beta
        worst = max(worst, abs(image - val) / max(abs(val), abs(image)))
    if worst > tol:
        raise FitFailure(
            f"pointwise verification failed: max relative deviation {worst:g} > {tol:g}"
        )
    return TTWImage(omega=math.sqrt(omega2), alpha=float(alpha), beta=float(beta))


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
    spec = validate(spec)
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
        spec = wolfes_to_ttw(*line).as_spec()
    return reduce_to_2d(spec, d1=d, d2=d, L_x=L1, L_y=L2, box=box)
