"""Potential catalog: one frozen dataclass per potential family.

Units are fixed to hbar = 2m = 1 throughout, so every Hamiltonian reads
-Laplacian + V and all energies are reported in these units.

Each family's class is the one place that decides everything about it: its
JSON name and fields, its parameter bounds (``validated``), one vectorized
formula on its natural chart (``formula``) and the quadrant view of it
(``quadrant``), its singular rays, its default truncation box, whether it
enters the quadrant reduction directly (``radial_refusal``) or through the
three-body line route (``line_model``), and the separated-variable data the
oracles build on (``separation``).  The module-level functions dispatch onto
the family.

================   =========================================
family             natural chart of ``eval_potential``
================   =========================================
HydrogenPair       radii ``(r1, r2)``
CagedOscillator    quadrant point ``(x, y)``
TTW                polar ``(rho, theta)``
ThreeBodyTTW       Jacobi polar ``(rho, theta)``
PW                 polar ``(rho, theta)``
Calogero           ``ThreeBodyConfig`` of pair distances
Wolfes             ``ThreeBodyConfig`` of pair distances
Custom2D           quadrant point ``(x, y)``
================   =========================================

Points closer than ``SINGULAR_TOL`` (absolute, in the angle or the
coordinate) to a singular line are rejected with :class:`SingularPoint`.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Union, get_args

import numpy as np

from .errors import (
    BoundViolation,
    NonPositiveDistance,
    NonPositiveMassOrFrequency,
    SingularPoint,
    ZeroK,
)

SINGULAR_TOL = 1e-12


# ---------------------------------------------------------------------
# rational-or-real angular parameter k
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Rational:
    """Reduced fraction m/n with positive integer numerator and denominator."""

    m: int
    n: int

    def reduced(self) -> "Rational":
        g = math.gcd(self.m, self.n)
        return Rational(self.m // g, self.n // g)

    @property
    def value(self) -> float:
        return self.m / self.n


KValue = Union[Rational, float]


def coerce_k(k) -> KValue:
    """Normalize user input into a :class:`Rational` or a plain real.

    Integers, integer pairs and :class:`fractions.Fraction` become reduced
    fractions; floats stay real with no rational approximation (degeneracy
    scans need genuinely irrational k as a control).
    """
    if isinstance(k, Rational):
        return k.reduced()
    if isinstance(k, bool):
        raise ZeroK("k must be a number, not a bool")
    if isinstance(k, int):
        if k <= 0:
            raise ZeroK(f"rational k must be positive, got {k}")
        return Rational(k, 1)
    if isinstance(k, Fraction):
        if k <= 0:
            raise ZeroK(f"rational k must be positive, got {k}")
        return Rational(k.numerator, k.denominator)
    if isinstance(k, tuple) and len(k) == 2:
        return validate_k(Rational(int(k[0]), int(k[1])))
    if isinstance(k, float):
        if k == 0.0:
            raise ZeroK("k must be nonzero")
        return k
    raise TypeError(f"cannot interpret {k!r} as rational-or-real k")


def validate_k(k: KValue) -> KValue:
    if isinstance(k, Rational):
        if k.m <= 0 or k.n <= 0:
            raise ZeroK(f"rational k requires positive integers, got {k.m}/{k.n}")
        return k.reduced()
    if k * k == 0.0:    # k^2 sets the couplings' bound, so it must not underflow either
        raise ZeroK(f"k must be nonzero, and so must k^2; got {k!r}")
    return float(k)


def k_float(k: KValue) -> float:
    return k.value if isinstance(k, Rational) else float(k)


def k_to_json(k: KValue):
    """JSON form of k: ``{"m": .., "n": ..}`` for a fraction, else a number."""
    if isinstance(k, Rational):
        return {"m": k.m, "n": k.n}
    return float(k)


def json_number(value, name: str) -> float:
    """A finite JSON number as a float; bools, strings and non-finite or
    overflowing values raise ``ValueError``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def k_from_json(obj) -> KValue:
    """Inverse of :func:`k_to_json`; a JSON integer is the fraction obj/1."""
    if isinstance(obj, dict):
        if set(obj) != {"m", "n"} or not type(obj["m"]) is type(obj["n"]) is int:
            raise ValueError(f"a rational k is {{\"m\": int, \"n\": int}}, got {obj!r}")
        return validate_k(Rational(obj["m"], obj["n"]))
    if type(obj) is int:     # not a bool
        return validate_k(Rational(obj, 1))
    return validate_k(json_number(obj, "k"))


# ---------------------------------------------------------------------
# three-body configurations on the line / in d dimensions
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ThreeBodyConfig:
    """Pair distances (r12, r13, r23), all strictly positive."""

    r12: float
    r13: float
    r23: float

    def __post_init__(self):
        for name in ("r12", "r13", "r23"):
            if getattr(self, name) <= 0:
                raise NonPositiveDistance(f"{name} must be > 0, got {getattr(self, name)}")
        # weak triangle inequality; collinear configs meet it with equality
        r = sorted((self.r12, self.r13, self.r23))
        if r[2] > r[0] + r[1] + 1e-12 * r[2]:
            raise ValueError(
                f"distances ({self.r12}, {self.r13}, {self.r23}) are not realizable"
            )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.r12, self.r13, self.r23)


def permute_particles(config: ThreeBodyConfig, sigma: tuple[int, int, int]) -> ThreeBodyConfig:
    """Relabel particles: position i of the new config holds particle sigma[i].

    ``sigma`` is a permutation of (1, 2, 3).
    """
    if sorted(sigma) != [1, 2, 3]:
        raise ValueError(f"sigma must be a permutation of (1, 2, 3), got {sigma}")
    dist = {
        frozenset((1, 2)): config.r12,
        frozenset((1, 3)): config.r13,
        frozenset((2, 3)): config.r23,
    }
    return ThreeBodyConfig(
        r12=dist[frozenset((sigma[0], sigma[1]))],
        r13=dist[frozenset((sigma[0], sigma[2]))],
        r23=dist[frozenset((sigma[1], sigma[2]))],
    )


def _threebody_t_squared(r12, r13, r23) -> tuple:
    """Squares of the three-body distances |x_i + x_j - 2 x_k|.

    t_k^2 = 2 r_ik^2 + 2 r_jk^2 - r_ij^2 holds for collinear and planar
    configurations alike and is manifestly permutation symmetric.  It is
    evaluated as (r_ik - r_jk)^2 + (r_ik + r_jk - r_ij)(r_ik + r_jk + r_ij),
    which avoids the cancellation the raw form suffers near collinear
    configurations with k between i and j.
    """
    def t2(a, b, c):
        # a = r_ik, b = r_jk, c = r_ij
        return (a - b) ** 2 + (a + b - c) * (a + b + c)

    return (
        t2(r12, r13, r23),  # k = 1
        t2(r12, r23, r13),  # k = 2
        t2(r13, r23, r12),  # k = 3
    )


# ---------------------------------------------------------------------
# charts and singular lines
# ---------------------------------------------------------------------

def _polar_point(point, rays: list[tuple[str, float]]) -> tuple[float, float]:
    rho, theta = point
    if rho < SINGULAR_TOL:
        raise SingularPoint("rho=0")
    for which, th in rays:
        if abs(theta - th) < SINGULAR_TOL:
            raise SingularPoint(f"{which}(k*theta)=0", f"theta={theta!r} ray={th!r}")
    return float(rho), float(theta)


def _angular_rays(kf: float) -> list[tuple[str, float]]:
    """Singular rays theta = j pi / (2k) of sin/cos(k theta) in the closed quadrant."""
    step = math.pi / (2.0 * kf)
    rays = []
    j = 0
    while True:
        th = j * step
        if th > math.pi / 2 + 1e-15:
            break
        which = "sin" if j % 2 == 0 else "cos"
        rays.append((which, th))
        j += 1
    return rays


# ---------------------------------------------------------------------
# potential families
# ---------------------------------------------------------------------

class _Family:
    """What a potential family decides; each spec dataclass sets ``family``,
    its JSON name, and overrides the parts that apply to it.  The defaults
    describe an oscillator-confined family on the quadrant chart that
    reduces directly and has no separated oracle.
    """

    _axes = ("x", "y")          # coordinate names of the quadrant chart

    def validated(self):
        """Certify the parameter bounds; returns the normalized spec."""
        return self

    def chart(self, point) -> tuple:
        """Reject a point near a singular line; returns the scalar
        coordinates that the vectorized :meth:`formula` takes."""
        x, y = point
        for name, value in zip(self._axes, (x, y)):
            if value < SINGULAR_TOL:
                raise SingularPoint(f"{name}=0")
        return float(x), float(y)

    def quadrant(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorized potential on quadrant points (x, y)."""
        return self.formula(x, y)

    def rays(self) -> list[tuple[str, float]]:
        """Angular singular lines as (kind, theta)."""
        return []

    def box_side(self) -> float:
        """Side of the default truncation box; the Coulomb families use 60."""
        return 12.0 / math.sqrt(self.omega)

    def radial_refusal(self) -> str | None:
        """Why ``reduction.reduce_to_2d`` must refuse the spec, or None."""
        return None

    def line_model(self) -> tuple[float, float, float] | None:
        """(omega, A, B) of a three-body line model, which enters the
        quadrant through its fitted TTW(k=3) image; None otherwise."""
        return None

    def separation(self) -> tuple | None:
        """Data of ``oracles.separated_spectrum``, or None if not separable.

        ``("cartesian", x_axis, y_axis)`` with each axis a half-line problem
        ``(kind, coupling, c)``; or ``("polar", (k, A, B, convention),
        (kind, coupling))``, an angular barrier problem on the sector of k
        whose levels set the radial problem's inverse-square term.
        """
        return None

    @classmethod
    def json_keys(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def to_json(self) -> dict:
        doc = {name: getattr(self, name) for name in self.json_keys()}
        if "k" in doc:
            doc["k"] = k_to_json(doc["k"])
        return doc

    @classmethod
    def from_json(cls, obj: dict):
        return cls(**{
            f.name: k_from_json(obj[f.name]) if f.name == "k" else json_number(obj[f.name], f.name)
            for f in fields(cls) if f.name in obj or f.default is MISSING
        })


@dataclass(frozen=True)
class HydrogenPair(_Family):
    """Two attractive Coulomb centers, V = -1/r1 - 1/r2."""

    family = "hydrogen_pair"
    _axes = ("r1", "r2")

    def formula(self, r1, r2):
        return -1.0 / r1 - 1.0 / r2

    def box_side(self) -> float:
        return 60.0

    def separation(self):
        axis = ("coulomb", 1.0, 0.0)
        return ("cartesian", axis, axis)


@dataclass(frozen=True)
class CagedOscillator(_Family):
    """Anisotropic oscillator with inverse-square walls on the quadrant.

    V = a w^2 x^2 + b w^2 y^2 + A/x^2 + B/y^2.
    """

    a: float = 1.0
    b: float = 1.0
    omega: float = 1.0
    A: float = 0.0
    B: float = 0.0

    family = "caged_oscillator"

    def validated(self):
        if self.a <= 0 or self.b <= 0 or self.omega <= 0:
            raise NonPositiveMassOrFrequency(
                f"caged oscillator requires a, b, omega > 0, got "
                f"a={self.a}, b={self.b}, omega={self.omega}"
            )
        if self.A <= -0.125 or self.B <= -0.125:
            raise BoundViolation(
                f"caged oscillator requires A, B > -1/8, got A={self.A}, B={self.B}"
            )
        return self

    def formula(self, x, y):
        w2 = self.omega**2
        return self.a * w2 * x**2 + self.b * w2 * y**2 + self.A / x**2 + self.B / y**2

    def separation(self):
        return ("cartesian",
                ("oscillator", math.sqrt(self.a) * self.omega, self.A),
                ("oscillator", math.sqrt(self.b) * self.omega, self.B))


@dataclass(frozen=True)
class _TTWForm(_Family):
    """TTW potential; ``convention`` "k2" weights the angular couplings by k^2.

    The formula takes (rho^2, theta), so the quadrant view keeps x^2 + y^2.
    """

    omega: float
    k: KValue
    alpha: float = 0.0
    beta: float = 0.0

    def validated(self):
        k = validate_k(self.k)
        if self.omega <= 0:
            raise NonPositiveMassOrFrequency(f"omega must be > 0, got {self.omega}")
        bound = -1.0 / (4.0 * k_float(k) ** 2)
        # strict inequality: alpha, beta > -1/(4 k^2)
        if self.alpha <= bound or self.beta <= bound:
            raise BoundViolation(
                f"require alpha, beta > {bound:.9g} for k={k_float(k):g}, "
                f"got alpha={self.alpha}, beta={self.beta}"
            )
        return replace(self, k=k)

    def chart(self, point):
        rho, theta = _polar_point(point, self.rays())
        return rho * rho, theta

    def formula(self, rho2, theta):
        kf = k_float(self.k)
        weight = kf**2 if self.convention == "k2" else 1.0
        c = np.cos(kf * theta)
        s = np.sin(kf * theta)
        return self.omega**2 * rho2 + weight * (self.alpha / c**2 + self.beta / s**2) / rho2

    def quadrant(self, x, y):
        return self.formula(x**2 + y**2, np.arctan2(y, x))

    def rays(self):
        return _angular_rays(k_float(self.k))

    def separation(self):
        return ("polar", (k_float(self.k), self.alpha, self.beta, self.convention),
                ("oscillator", self.omega))


@dataclass(frozen=True)
class TTW(_TTWForm):
    """Oscillator plus angular inverse-square barriers, plain-coupling form.

    V = w^2 rho^2 + [alpha / cos^2(k theta) + beta / sin^2(k theta)] / rho^2.
    """

    family = "ttw"
    convention = "plain"


@dataclass(frozen=True)
class ThreeBodyTTW(_TTWForm):
    """Same family as :class:`TTW` but with k^2-weighted angular couplings.

    V = w^2 rho^2 + k^2 [alpha / cos^2(k theta) + beta / sin^2(k theta)] / rho^2.

    The two weightings are kept as distinct variants instead of silently
    rescaling alpha and beta.
    """

    family = "three_body_ttw"
    convention = "k2"


@dataclass(frozen=True)
class PW(_Family):
    """Coulomb analogue of TTW; angular arguments use k/2.

    V = -a/rho + [mu / cos^2(k theta / 2) + nu / sin^2(k theta / 2)] / rho^2.
    """

    a: float
    k: KValue
    mu: float = 0.0
    nu: float = 0.0

    family = "pw"

    def validated(self):
        k = validate_k(self.k)
        if self.a <= 0:
            raise NonPositiveMassOrFrequency(
                f"Coulomb strength a must be > 0, got {self.a}"
            )
        return replace(self, k=k)

    def chart(self, point):
        return _polar_point(point, self.rays())

    def formula(self, rho, theta):
        kf = k_float(self.k)
        c = np.cos(kf * theta / 2.0)
        s = np.sin(kf * theta / 2.0)
        return -self.a / rho + (self.mu / c**2 + self.nu / s**2) / rho**2

    def quadrant(self, x, y):
        return self.formula(np.hypot(x, y), np.arctan2(y, x))

    def rays(self):
        return _angular_rays(k_float(self.k) / 2.0)

    def box_side(self) -> float:
        return 60.0

    def separation(self):
        return ("polar", (k_float(self.k) / 2.0, self.mu, self.nu, "plain"),
                ("coulomb", self.a))


@dataclass(frozen=True)
class _LineModel(_Family):
    """What Calogero and Wolfes share: the chart of pair distances, the
    pairwise terms and the route through the TTW(k=3) image."""

    omega: float
    A: float = 0.0

    def validated(self):
        if self.omega <= 0:
            raise NonPositiveMassOrFrequency(f"omega must be > 0, got {self.omega}")
        return self

    def chart(self, point):
        config = point if isinstance(point, ThreeBodyConfig) else ThreeBodyConfig(*point)
        for name, r in zip(("r12", "r13", "r23"), config.as_tuple()):
            if r < SINGULAR_TOL:
                raise SingularPoint(f"{name}=0")
        return tuple(float(r) for r in config.as_tuple())

    def formula(self, r12, r13, r23):
        return (self.omega**2 * (r12**2 + r13**2 + r23**2)
                + self.A * (1.0 / r12**2 + 1.0 / r13**2 + 1.0 / r23**2))

    def quadrant(self, x, y):
        raise NotImplementedError(
            f"{type(self).__name__} has no quadrant chart; use reduction.map_threebody"
        )

    def radial_refusal(self):
        return "Calogero/Wolfes live on 3-body configurations; use map_threebody"

    def line_model(self):
        return (self.omega, self.A, 0.0)


@dataclass(frozen=True)
class Calogero(_LineModel):
    """Three bodies on a line with pairwise quadratic plus inverse-square terms."""

    family = "calogero"


@dataclass(frozen=True)
class Wolfes(_LineModel):
    """Calogero plus genuinely three-body inverse-square terms.

    The three-body distances are t_k = |x_i + x_j - 2 x_k|, computed from
    pair distances via t_k^2 = 2 r_ik^2 + 2 r_jk^2 - r_ij^2, which is
    permutation symmetric and valid in any ordering.
    """

    B: float = 0.0

    family = "wolfes"

    def chart(self, point):
        r = super().chart(point)
        for idx, t2 in enumerate(_threebody_t_squared(*r), start=1):
            if t2 < SINGULAR_TOL**2:
                raise SingularPoint(f"t{idx}=0", "three-body collinear collision")
        return r

    def formula(self, r12, r13, r23):
        t1, t2, t3 = _threebody_t_squared(r12, r13, r23)
        return super().formula(r12, r13, r23) + self.B / t1 + self.B / t2 + self.B / t3

    def line_model(self):
        return (self.omega, self.A, self.B)


@dataclass(frozen=True)
class Custom2D(_Family):
    """Escape hatch: arbitrary W(x, y) on the open quadrant.

    ``func`` must accept numpy arrays. ``depends_on_angles`` marks potentials
    that are not functions of the two radii alone; the 3-body mapping rejects
    those.
    """

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = "custom"
    depends_on_angles: bool = False
    expression: str | None = None

    family = "custom2d"

    def formula(self, x, y):
        xb, yb = np.broadcast_arrays(x, y)
        return np.broadcast_to(np.asarray(self.func(xb, yb), dtype=float), xb.shape)

    def box_side(self) -> float:
        raise ValueError("no default box for Custom2D potentials; pass one explicitly")

    def radial_refusal(self):
        if self.depends_on_angles:
            return f"custom potential {self.name!r} is marked as depending on angles"
        return None

    @classmethod
    def json_keys(cls):
        return ("expression", "depends_on_angles")

    def to_json(self):
        if self.expression is None:
            raise ValueError("only expression-backed Custom2D specs serialize to JSON")
        return super().to_json()

    @classmethod
    def from_json(cls, obj):
        angles = obj.get("depends_on_angles", False)
        if not isinstance(angles, bool):
            raise ValueError(f"depends_on_angles must be true or false, got {angles!r}")
        return cls(func=compile_expression(obj["expression"]), name="custom",
                   expression=obj["expression"], depends_on_angles=angles)


PotentialSpec = Union[
    HydrogenPair, CagedOscillator, TTW, ThreeBodyTTW, PW, Calogero, Wolfes, Custom2D
]

_BY_NAME = {cls.family: cls for cls in get_args(PotentialSpec)}


# ---------------------------------------------------------------------
# validation and evaluation
# ---------------------------------------------------------------------

def validate(spec: PotentialSpec) -> PotentialSpec:
    """Certify a spec's invariants; returns the normalized spec.

    Rational k is reduced to lowest terms. Raises ``BoundViolation``,
    ``ZeroK`` or ``NonPositiveMassOrFrequency`` on invalid parameters.
    """
    if not isinstance(spec, _Family):
        raise TypeError(f"not a potential spec: {spec!r}")
    return spec.validated()


def singular_rays(spec: PotentialSpec) -> list[tuple[str, float]]:
    """Angular singular lines of a polar-family potential, as (kind, theta).

    Includes the quadrant boundaries theta = 0 and pi/2 when they are
    singular for the family. Non-angular families return an empty list.
    """
    return validate(spec).rays()


def eval_potential(spec: PotentialSpec, point) -> float:
    """Evaluate a potential at one point of its natural chart.

    Parameters
    ----------
    spec : PotentialSpec
        Potential family with parameters (validated on entry).
    point : tuple or ThreeBodyConfig
        ``(r1, r2)``, ``(x, y)`` or ``(rho, theta)`` per the family's chart;
        Calogero/Wolfes take a :class:`ThreeBodyConfig`.

    Returns
    -------
    float
        Finite potential value in hbar = 2m = 1 units.

    Raises
    ------
    SingularPoint
        If the point lies within ``SINGULAR_TOL`` of a singular line.
    """
    spec = validate(spec)
    return float(spec.formula(*spec.chart(point)))


def quadrant_values(spec: PotentialSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized potential on quadrant points (x, y), broadcasting.

    The caller is responsible for keeping nodes off the singular lines
    (grids are screened by ``discretize.make_grid``). Calogero/Wolfes have
    no quadrant chart; map them through ``reduction.map_threebody`` first.
    """
    return validate(spec).quadrant(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


# ---------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------

def spec_to_dict(spec: PotentialSpec) -> dict:
    """JSON-ready dictionary; field names are the parameter symbols spelled out."""
    spec = validate(spec)
    return {"family": spec.family, **spec.to_json()}


_CUSTOM_NAMESPACE = {
    "np": np, "pi": np.pi, "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "hypot": np.hypot,
    "arctan2": np.arctan2, "abs": np.abs, "minimum": np.minimum,
    "maximum": np.maximum,
}


def compile_expression(expression: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Compile a numpy expression in x, y for Custom2D specs.

    The expression is evaluated with numpy functions only; configs are
    trusted input, as usual for scientific run files.
    """
    try:
        code = compile(expression, "<custom2d>", "eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {expression!r}: {exc.msg}") from exc

    def func(x, y):
        return eval(code, {"__builtins__": {}}, dict(_CUSTOM_NAMESPACE, x=x, y=y))

    # evaluate once now, so an expression that parses but cannot be evaluated
    # (an unknown name, a wrong type, a result of the wrong shape) is refused
    # at load time rather than at the first grid
    probe = np.array([0.5, 1.0, 2.0])
    try:
        with np.errstate(all="ignore"):
            np.broadcast_to(np.asarray(func(probe, probe[::-1]), dtype=float), probe.shape)
    except Exception as exc:   # any error of the user's expression
        raise ValueError(f"cannot evaluate expression {expression!r}: "
                         f"{type(exc).__name__}: {exc}") from exc
    return func


def spec_from_dict(obj: dict) -> PotentialSpec:
    """Inverse of :func:`spec_to_dict`; rejects unknown keys."""
    if "family" not in obj:
        raise ValueError("potential block needs a 'family' key")
    family = obj["family"]
    if family not in _BY_NAME:
        raise ValueError(f"unknown potential family {family!r}")
    cls = _BY_NAME[family]
    extra = set(obj) - {"family", *cls.json_keys()}
    if extra:
        raise ValueError(f"unknown keys for family {family!r}: {sorted(extra)}")
    return validate(cls.from_json(obj))
