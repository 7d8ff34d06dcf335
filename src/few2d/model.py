"""Potential catalog: one frozen dataclass per potential family.

Units are fixed to hbar = 2m = 1 throughout, so every Hamiltonian reads
-Laplacian + V and all energies are reported in these units.

Each family's class is the one place that decides everything about it: its
JSON name and block (``json_block``), its parameter bounds (checked by
``__post_init__``, so a spec is valid once built and ``dataclasses.replace``
checks it again; k goes through :func:`coerce_k`), one vectorized formula on
its natural chart (``formula``) and the quadrant view of it (``quadrant``),
its singular rays, its default truncation box, whether it enters the quadrant
reduction directly (``radial_refusal``) or through the three-body line route
(``line_model``), the separated-variable data the oracles build on
(``separation``), whether the 5-point grid can resolve it (``grid_refusal``),
and whether a degeneracy scan may vary its k (``k_scan``).  The module-level
functions dispatch onto the family.

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
import numbers
import reprlib
from dataclasses import MISSING, dataclass, fields
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
from .schema import REAL, REQUIRED, Block, Bool, Choice, Parsed, Tagged

SINGULAR_TOL = 1e-12


# ---------------------------------------------------------------------
# rational-or-real angular parameter k
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Rational:
    """Reduced fraction m/n with positive integer numerator and denominator."""

    m: int
    n: int

    @property
    def value(self) -> float:
        return self.m / self.n


KValue = Union[Rational, float]


def _integer(t) -> bool:
    return isinstance(t, numbers.Integral) and not isinstance(t, bool)


def coerce_k(k) -> KValue:
    """The one rule for what a k value is; every spec and reader goes through it.

    An integer, an integer pair ``(m, n)``, a :class:`fractions.Fraction` or a
    :class:`Rational` becomes a reduced :class:`Rational` with positive terms.
    A float stays real with no rational approximation (degeneracy scans need
    genuinely irrational k as a control); it must be finite and positive, and
    k^2 must not underflow, since k^2 sets the couplings' bound.  Anything
    else, a bool included, raises :class:`ZeroK`; a k whose square overflows
    a double raises :class:`BoundViolation`.
    """
    if isinstance(k, Rational):
        k = (k.m, k.n)
    elif isinstance(k, Fraction):
        k = (k.numerator, k.denominator)
    elif _integer(k):
        k = (k, 1)
    if isinstance(k, tuple) and len(k) == 2 and all(_integer(t) for t in k):
        m, n = int(k[0]), int(k[1])
        if m <= 0 or n <= 0:
            raise ZeroK(f"rational k = m/n needs positive integers m, n; got "
                        f"{reprlib.repr(m)}/{reprlib.repr(n)}")
        g = math.gcd(m, n)
        k = Rational(m // g, n // g)
    elif not (isinstance(k, float) and math.isfinite(k) and k > 0.0 and k * k > 0.0):
        raise ZeroK(f"k must be a positive rational or a finite positive float "
                    f"with k^2 > 0, got {reprlib.repr(k)}")
    try:
        k_float(k) ** 2     # a float power raises where k * k would be inf
    except OverflowError:
        raise BoundViolation(f"k = {reprlib.repr(k)} overflows when squared") from None
    return k


def k_float(k: KValue) -> float:
    return k.value if isinstance(k, Rational) else float(k)


def k_to_json(k: KValue):
    """JSON form of k: ``{"m": .., "n": ..}`` for a fraction, else a number."""
    if isinstance(k, Rational):
        return {"m": k.m, "n": k.n}
    return float(k)


def k_from_json(obj) -> KValue:
    """Inverse of :func:`k_to_json`; a JSON integer is the fraction obj/1."""
    if isinstance(obj, dict):
        if set(obj) != {"m", "n"}:
            raise ValueError(f"a rational k is {{\"m\": int, \"n\": int}}, got "
                             f"{reprlib.repr(obj)}")
        obj = (obj["m"], obj["n"])
    return coerce_k(obj)


def _check_frequency(omega: float) -> None:
    """Refuse a frequency that is not positive or whose square overflows a double."""
    if omega <= 0:
        raise NonPositiveMassOrFrequency(f"omega must be > 0, got {omega}")
    if not math.isfinite(omega * omega):
        raise BoundViolation(f"omega = {omega!r} overflows when squared")


def barrier_exponents(k: float, a: float, b: float) -> tuple[float, float]:
    """Exponents (s_a, s_b) of the angular barrier problem
    -f'' + [a/cos^2(k theta) + b/sin^2(k theta)] f at its cos and sin rays.

    Near a ray the barrier is a/(k^2 d^2) in the distance d, so f ~ d^s with
    s(s-1) = coupling/k^2.  This is the one coupling bound of the polar
    families: a, b > -k^2/4, so that s > 1/2 is real on both rays.
    """
    qa = 0.25 + a / k**2
    qb = 0.25 + b / k**2
    if qa <= 0.0 or qb <= 0.0:
        raise BoundViolation(
            f"angular couplings must exceed -k^2/4 = {-k*k/4.0:.9g} for k={k:g}, "
            f"got cos-side {a}, sin-side {b}"
        )
    return 0.5 + math.sqrt(qa), 0.5 + math.sqrt(qb)


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


def _attractive_ray(spec, couplings: tuple[str, str]) -> str | None:
    """The refusal of a negative coupling on a singular ray inside the quadrant.

    ``couplings`` names the spec's fields of the cos and the sin term.  The
    5-point grid samples such an inverse-square well at its nodes, so its
    levels run to -infinity as the grid is refined.  The quadrant's edges
    are Dirichlet walls of the grid and are not concerned.
    """
    _, (_, cos_side, sin_side), _ = spec.separation()
    for which, theta in spec.rays():
        coupling = cos_side if which == "cos" else sin_side
        if SINGULAR_TOL < theta < math.pi / 2 - SINGULAR_TOL and coupling < 0:
            name = couplings[0] if which == "cos" else couplings[1]
            return (f"the attractive coupling {name} = {getattr(spec, name)!r} of "
                    f"{spec.family} with k = {k_float(spec.k):.9g} lies on the singular "
                    f"ray theta = {theta:.9g} inside the quadrant, where the 5-point "
                    f"grid does not resolve it: its levels run to -infinity as the grid "
                    f"is refined")
    return None


_MAX_RAYS = 1000   # about k of them; k is 10 at most in any test, config or benchmark job


def _angular_rays(kf: float) -> list[tuple[str, float]]:
    """Singular rays theta = j pi / (2k) of sin/cos(k theta) in the closed
    quadrant; more than ``_MAX_RAYS`` of them raise :class:`BoundViolation`."""
    step = math.pi / (2.0 * kf)
    if math.pi / 2 > _MAX_RAYS * step:
        raise BoundViolation(f"sin/cos({kf:.9g} theta) has more than {_MAX_RAYS} singular rays "
                             f"in the quadrant, too many to screen points and grid nodes against")
    rays, j = [], 0
    while j * step <= math.pi / 2 + 1e-15:
        rays.append(("sin" if j % 2 == 0 else "cos", j * step))
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
    k_scan = False              # whether a degeneracy scan may vary k

    def chart(self, point) -> tuple:
        """Reject a point near a singular line; returns the scalar
        coordinates that the vectorized :meth:`formula` takes."""
        x, y = point
        for name, value in zip(self._axes, (x, y)):
            if value < SINGULAR_TOL:
                raise SingularPoint(f"{name}=0")
        return float(x), float(y)

    def quadrant(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorized potential on float arrays of quadrant points (x, y);
        the caller keeps them off the singular lines."""
        return self.formula(x, y)

    def rays(self) -> list[tuple[str, float]]:
        """Angular singular lines as (kind, theta), the quadrant's edges
        theta = 0 and pi/2 included where they are singular."""
        return []

    def box_side(self) -> float:
        """Side of the default truncation box; the Coulomb families use 60."""
        return 12.0 / math.sqrt(self.omega)

    def radial_refusal(self) -> str | None:
        """Why ``reduction.reduce_to_2d`` must refuse the spec, or None."""
        return None

    def line_model(self) -> tuple[float, float, float] | None:
        """(omega, A, B) of a three-body line model, which enters the
        quadrant through its closed-form TTW(k=3) image
        (``reduction.wolfes_to_ttw``); None otherwise."""
        return None

    def grid_refusal(self) -> str | None:
        """Why a grid spectrum of the spec would not converge, or None."""
        return None

    def separation(self) -> tuple | None:
        """Data of ``oracles.separated_spectrum``, or None if not separable.

        ``("cartesian", x_axis, y_axis)`` with each axis a half-line problem
        ``(kind, coupling, c)``; or ``("polar", (k, A, B), (kind, coupling))``,
        the angular barrier problem -f'' + [A/cos^2(k theta) + B/sin^2(k theta)] f
        on the sector of k, whose levels set the radial problem's
        inverse-square term.
        """
        return None

    @classmethod
    def json_block(cls) -> Block:
        """One JSON field per dataclass field: ``k`` a k value, any other a finite number."""
        return Block({f.name: (Parsed(k_from_json) if f.name == "k" else REAL,
                               REQUIRED if f.default is MISSING else f.default)
                      for f in fields(cls)})

    def to_json(self) -> dict:
        doc = {name: getattr(self, name) for name in self.json_block().keys}
        if "k" in doc:
            doc["k"] = k_to_json(doc["k"])
        return doc

    @classmethod
    def from_json(cls, obj: dict):
        """The spec of the family's JSON fields ``obj``, the family key left out."""
        return cls(**cls.json_block().parse(obj, cls.family))


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

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.omega <= 0:
            raise NonPositiveMassOrFrequency(
                f"caged oscillator requires a, b, omega > 0, got "
                f"a={self.a}, b={self.b}, omega={self.omega}"
            )
        _check_frequency(self.omega)
        if self.A <= -0.125 or self.B <= -0.125:
            raise BoundViolation(
                f"caged oscillator requires A, B > -1/8, got A={self.A}, B={self.B}"
            )

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

    k_scan = True

    def __post_init__(self):
        object.__setattr__(self, "k", coerce_k(self.k))
        _check_frequency(self.omega)
        # the weighted couplings are the ones the angular problem sees
        barrier_exponents(*self.separation()[1])

    def _weight(self) -> float:
        """Factor of the angular couplings: k^2 for "k2", else 1."""
        return k_float(self.k) ** 2 if self.convention == "k2" else 1.0

    def chart(self, point):
        rho, theta = _polar_point(point, self.rays())
        return rho * rho, theta

    def formula(self, rho2, theta):
        kf = k_float(self.k)
        c = np.cos(kf * theta)
        s = np.sin(kf * theta)
        angular = self._weight() * (self.alpha / c**2 + self.beta / s**2)
        return self.omega**2 * rho2 + angular / rho2

    def quadrant(self, x, y):
        return self.formula(x**2 + y**2, np.arctan2(y, x))

    def rays(self):
        return _angular_rays(k_float(self.k))

    def grid_refusal(self):
        return _attractive_ray(self, ("alpha", "beta"))

    def separation(self):
        w = self._weight()
        return ("polar", (k_float(self.k), self.alpha * w, self.beta * w),
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

    def __post_init__(self):
        object.__setattr__(self, "k", coerce_k(self.k))
        if self.a <= 0:
            raise NonPositiveMassOrFrequency(
                f"Coulomb strength a must be > 0, got {self.a}"
            )
        barrier_exponents(*self.separation()[1])

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

    def grid_refusal(self):
        return _attractive_ray(self, ("mu", "nu"))

    def box_side(self) -> float:
        return 60.0

    def separation(self):
        return ("polar", (k_float(self.k) / 2.0, self.mu, self.nu),
                ("coulomb", self.a))


@dataclass(frozen=True)
class _LineModel(_Family):
    """What Calogero and Wolfes share: the chart of pair distances, the
    pairwise terms and the route through the TTW(k=3) image."""

    omega: float
    A: float = 0.0

    def __post_init__(self):
        _check_frequency(self.omega)

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
    def json_block(cls):
        return Block({"expression": (Choice(), REQUIRED), "depends_on_angles": (Bool(), False)})

    def to_json(self):
        if self.expression is None:
            raise ValueError("only expression-backed Custom2D specs serialize to JSON")
        return super().to_json()

    @classmethod
    def from_json(cls, obj):
        doc = cls.json_block().parse(obj, cls.family)
        return cls(func=compile_expression(doc["expression"]), name="custom", **doc)


PotentialSpec = Union[
    HydrogenPair, CagedOscillator, TTW, ThreeBodyTTW, PW, Calogero, Wolfes, Custom2D
]

# ---------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------

def eval_potential(spec: PotentialSpec, point) -> float:
    """Evaluate a potential at one point of its natural chart.

    Parameters
    ----------
    spec : PotentialSpec
        Potential family with parameters.
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
    return float(spec.formula(*spec.chart(point)))


# ---------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------

def spec_to_dict(spec: PotentialSpec) -> dict:
    """JSON-ready dictionary; field names are the parameter symbols spelled out."""
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
        raise ValueError(f"cannot parse expression {reprlib.repr(expression)}: "
                         f"{exc.msg}") from exc

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
        raise ValueError(f"cannot evaluate expression {reprlib.repr(expression)}: "
                         f"{type(exc).__name__}: {reprlib.repr(str(exc))}") from exc
    return func


def spec_from_dict(obj: dict) -> PotentialSpec:
    """Inverse of :func:`spec_to_dict`, read through the family's ``json_block``;
    malformed input raises :class:`ConfigError`, a ``ValueError``."""
    families = {cls.family: cls.from_json for cls in get_args(PotentialSpec)}
    return Tagged("family", families).parse(obj, "potential block")


# spec_from_dict is looked up per call, so wrappers put on the module attribute see it
POTENTIAL = Parsed(lambda obj: spec_from_dict(obj))
