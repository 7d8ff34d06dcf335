"""Potential catalog: evaluation, validation, symmetry properties, JSON."""

import math

import numpy as np
import pytest

from few2d import (
    BoundViolation,
    CagedOscillator,
    Calogero,
    Custom2D,
    HydrogenPair,
    NonPositiveDistance,
    NonPositiveMassOrFrequency,
    NotSeparable,
    PW,
    Rational,
    SingularPoint,
    ThreeBodyConfig,
    ThreeBodyTTW,
    TTW,
    Wolfes,
    ZeroK,
    coerce_k,
    default_box,
    eval_potential,
    permute_particles,
    separated_spectrum,
    spec_from_dict,
    spec_to_dict,
    validate,
)
from few2d.model import quadrant_values, singular_rays


def test_ttw_reduces_to_isotropic_oscillator():
    # alpha = beta = 0 leaves the pure omega^2 rho^2 term
    spec = TTW(omega=1.0, k=Rational(1, 1), alpha=0.0, beta=0.0)
    assert eval_potential(spec, (2.0, math.pi / 4)) == pytest.approx(4.0, abs=1e-14)


def test_calogero_direct_substitution():
    # positions (0, 1, 3): r12=1, r23=2, r13=3
    spec = Calogero(omega=1.0, A=1.0)
    config = ThreeBodyConfig(r12=1.0, r13=3.0, r23=2.0)
    assert eval_potential(spec, config) == pytest.approx(14.0 + 49.0 / 36.0, rel=1e-15)


def test_ttw_generic_point_value():
    # independent scalar evaluation of the k=2 potential at (rho=1, theta=pi/8):
    # cos(pi/4)^2 = sin(pi/4)^2 = 1/2, so V = 1 + 2 + 2
    spec = TTW(omega=1.0, k=Rational(2, 1), alpha=1.0, beta=1.0)
    assert eval_potential(spec, (1.0, math.pi / 8)) == pytest.approx(5.0, rel=1e-14)


def test_wolfes_b0_equals_calogero_pointwise():
    rng = np.random.default_rng(11)
    w = Wolfes(omega=1.7, A=0.9, B=0.0)
    c = Calogero(omega=1.7, A=0.9)
    for _ in range(1000):
        u, v = rng.uniform(0.05, 5.0, size=2)
        config = ThreeBodyConfig(r12=u, r13=u + v, r23=v)
        vw = eval_potential(w, config)
        vc = eval_potential(c, config)
        assert abs(vw - vc) <= 1e-15 * abs(vc)


def test_calogero_wolfes_permutation_invariance():
    rng = np.random.default_rng(5)
    perms = [(1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2)]
    specs = [Calogero(omega=1.0, A=0.5), Wolfes(omega=1.0, A=0.5, B=1.5)]
    for _ in range(1000):
        pts = rng.uniform(-2.0, 2.0, size=(3, 2))
        config = ThreeBodyConfig(
            r12=float(np.linalg.norm(pts[0] - pts[1])),
            r13=float(np.linalg.norm(pts[0] - pts[2])),
            r23=float(np.linalg.norm(pts[1] - pts[2])),
        )
        for spec in specs:
            base = eval_potential(spec, config)
            for sigma in perms:
                val = eval_potential(spec, permute_particles(config, sigma))
                assert val == pytest.approx(base, rel=5e-15)


def test_ttw_reflection_swaps_alpha_beta():
    # theta -> pi/(2k) - theta exchanges the cos and sin barriers
    rng = np.random.default_rng(2)
    k = Rational(3, 2)
    a, b = 0.4, 1.1
    spec = TTW(omega=1.0, k=k, alpha=a, beta=b)
    swapped = TTW(omega=1.0, k=k, alpha=b, beta=a)
    kf = 1.5
    for _ in range(200):
        rho = rng.uniform(0.3, 4.0)
        theta = rng.uniform(0.05, math.pi / (2 * kf) - 0.05)
        v1 = eval_potential(spec, (rho, theta))
        v2 = eval_potential(swapped, (rho, math.pi / (2 * kf) - theta))
        assert v1 == pytest.approx(v2, rel=1e-12)


def test_eval_potential_is_pure():
    spec = Wolfes(omega=1.0, A=2.0, B=0.3)
    config = ThreeBodyConfig(r12=0.7, r13=1.9, r23=1.2)
    assert eval_potential(spec, config) == eval_potential(spec, config)


def test_threebody_ttw_carries_k_squared_weighting():
    plain = TTW(omega=1.0, k=Rational(3, 1), alpha=0.2, beta=0.5)
    weighted = ThreeBodyTTW(omega=1.0, k=Rational(3, 1), alpha=0.2, beta=0.5)
    point = (1.3, 0.4)
    quad = 1.0 * 1.3**2
    assert eval_potential(weighted, point) - quad == pytest.approx(
        9.0 * (eval_potential(plain, point) - quad), rel=1e-13
    )


# --- validation -------------------------------------------------------

def test_validate_accepts_point_just_above_bound():
    spec = TTW(omega=1.0, k=Rational(2, 1), alpha=-1.0 / 16.0 + 1e-9, beta=0.0)
    validate(spec)


def test_validate_rejects_bound_exactly():
    with pytest.raises(BoundViolation):
        validate(TTW(omega=1.0, k=Rational(2, 1), alpha=-1.0 / 16.0, beta=0.0))


def test_validate_rejects_zero_k_and_bad_frequency():
    with pytest.raises(ZeroK):
        coerce_k(0.0)
    with pytest.raises(ZeroK):
        validate(TTW(omega=1.0, k=Rational(0, 1)))
    with pytest.raises(NonPositiveMassOrFrequency):
        validate(TTW(omega=-1.0, k=Rational(1, 1)))
    with pytest.raises(NonPositiveMassOrFrequency):
        validate(CagedOscillator(a=0.0))


def test_caged_bound_is_minus_one_eighth():
    validate(CagedOscillator(A=-0.124, B=0.0))
    with pytest.raises(BoundViolation):
        validate(CagedOscillator(A=-0.125, B=0.0))


def test_rational_normalizes_to_lowest_terms():
    k = coerce_k((6, 4))
    assert (k.m, k.n) == (3, 2)
    spec = validate(TTW(omega=1.0, k=Rational(6, 4)))
    assert (spec.k.m, spec.k.n) == (3, 2)


def test_coerce_k_keeps_irrational_as_real():
    k = coerce_k(math.sqrt(2.0))
    assert isinstance(k, float)
    assert coerce_k(3) == Rational(3, 1)


# --- singular lines ---------------------------------------------------

def test_singular_point_on_axes():
    with pytest.raises(SingularPoint):
        eval_potential(CagedOscillator(), (0.0, 1.0))
    with pytest.raises(SingularPoint):
        eval_potential(HydrogenPair(), (1.0, 1e-13))


def test_singular_point_on_angular_ray():
    spec = TTW(omega=1.0, k=Rational(2, 1), alpha=0.1, beta=0.1)
    with pytest.raises(SingularPoint):
        eval_potential(spec, (1.0, math.pi / 4))  # cos(2 theta) = 0
    # and for PW the rays use half angles
    pw = PW(a=1.0, k=Rational(2, 1), mu=0.1, nu=0.1)
    with pytest.raises(SingularPoint):
        eval_potential(pw, (1.0, math.pi / 2))  # cos(theta) = 0


def test_wolfes_three_body_collision_rejected():
    spec = Wolfes(omega=1.0, A=0.0, B=1.0)
    config = ThreeBodyConfig(r12=1.0, r13=2.0, r23=1.0)  # x1+x3 = 2 x2
    with pytest.raises(SingularPoint):
        eval_potential(spec, config)


# --- configurations ---------------------------------------------------

def test_permute_particles_examples():
    config = ThreeBodyConfig(r12=1.0, r13=3.0, r23=2.0)
    swapped = permute_particles(config, (2, 1, 3))
    assert (swapped.r12, swapped.r13, swapped.r23) == (1.0, 2.0, 3.0)
    assert permute_particles(config, (1, 2, 3)) == config
    cyc = (2, 3, 1)
    three_times = permute_particles(
        permute_particles(permute_particles(config, cyc), cyc), cyc
    )
    assert three_times == config


def test_config_rejects_nonpositive_and_unrealizable():
    with pytest.raises(NonPositiveDistance):
        ThreeBodyConfig(r12=1.0, r13=1.0, r23=0.0)
    with pytest.raises(ValueError):
        ThreeBodyConfig(r12=1.0, r13=10.0, r23=1.0)


# --- serialization ----------------------------------------------------

@pytest.mark.parametrize("spec", [
    HydrogenPair(),
    CagedOscillator(a=4.0, b=1.0, omega=2.0, A=0.25, B=0.0),
    TTW(omega=1.0, k=Rational(3, 1), alpha=0.5, beta=0.75),
    ThreeBodyTTW(omega=1.5, k=Rational(3, 2), alpha=0.1, beta=0.2),
    PW(a=2.0, k=Rational(2, 1), mu=0.3, nu=0.4),
    Calogero(omega=1.0, A=1.0),
    Wolfes(omega=1.0, A=1.0, B=2.0),
])
def test_spec_json_round_trip(spec):
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_spec_json_field_names():
    doc = spec_to_dict(TTW(omega=1.0, k=Rational(3, 1), alpha=0.5, beta=0.75))
    assert doc == {"family": "ttw", "omega": 1.0, "k": {"m": 3, "n": 1},
                   "alpha": 0.5, "beta": 0.75}


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError):
        spec_from_dict({"family": "ttw", "omega": 1.0, "k": 1.0, "gamma": 2.0})
    with pytest.raises(ValueError):
        spec_from_dict({"family": "nonexistent"})


@pytest.mark.parametrize("system", [
    {"family": "ttw", "omega": True, "k": 1},
    {"family": "ttw", "omega": "1.0", "k": 1},
    {"family": "ttw", "omega": 1.0, "k": True},
    {"family": "ttw", "omega": 1.0, "k": 1e-190},      # k^2 underflows to 0
    {"family": "custom2d", "expression": "x**"},
    {"family": "custom2d", "expression": "x", "depends_on_angles": "no"},
])
def test_spec_from_dict_rejects_malformed_values(system):
    with pytest.raises((ValueError, ZeroK)):
        spec_from_dict(system)


def test_custom2d_expression_round_trip():
    spec = spec_from_dict({"family": "custom2d", "expression": "x**2 + 2*y**2"})
    assert isinstance(spec, Custom2D)
    assert eval_potential(spec, (1.0, 2.0)) == pytest.approx(9.0)
    doc = spec_to_dict(spec)
    assert doc["expression"] == "x**2 + 2*y**2"


@pytest.mark.parametrize("expression", ["foo + x", "x + 'a'", "x[:2]"])
def test_custom2d_expression_failing_at_evaluation_is_refused_at_load(expression):
    with pytest.raises(ValueError, match="cannot evaluate expression"):
        spec_from_dict({"family": "custom2d", "expression": expression})


def test_custom2d_constant_expression_fills_the_grid():
    from few2d import Box, assemble, make_grid, reduce_to_2d

    spec = spec_from_dict({"family": "custom2d", "expression": "1.5"})
    grid = make_grid(Box(1.0, 1.0), 9, 9)
    op = assemble(reduce_to_2d(spec, 3, 3, box=Box(1.0, 1.0)), grid)
    assert np.allclose(op.matrix.diagonal() - 4.0 / grid.h_x**2, 1.5)


# --- family contract --------------------------------------------------

_CHART_POINTS = [(0.7, 0.3), (1.3, 0.8), (2.1, 1.3), (0.4, 0.1)]


def _polar_to_xy(rho, theta):
    return rho * math.cos(theta), rho * math.sin(theta)


def _same_xy(u, v):
    return u, v


_CUSTOM = {"family": "custom2d", "expression": "x**2 + 2*y**2 + x*y"}


@pytest.mark.parametrize("spec, chart_to_xy, box_side, rays", [
    (HydrogenPair(), _same_xy, 60.0, []),
    (CagedOscillator(a=4.0, b=1.0, omega=2.0, A=0.25, B=0.1), _same_xy,
     12.0 / math.sqrt(2.0), []),
    (TTW(omega=1.5, k=Rational(3, 2), alpha=0.3, beta=0.7), _polar_to_xy,
     12.0 / math.sqrt(1.5), [("sin", 0.0), ("cos", math.pi / 3.0)]),
    (ThreeBodyTTW(omega=1.0, k=Rational(3, 1), alpha=0.2, beta=0.5), _polar_to_xy,
     12.0, [("sin", 0.0), ("cos", math.pi / 6.0), ("sin", math.pi / 3.0),
            ("cos", math.pi / 2.0)]),
    (PW(a=2.0, k=Rational(2, 1), mu=0.3, nu=0.4), _polar_to_xy, 60.0,
     [("sin", 0.0), ("cos", math.pi / 2.0)]),
    (Calogero(omega=4.0, A=1.0), None, 6.0, []),
    (Wolfes(omega=1.0, A=1.0, B=2.0), None, 12.0, []),
    (spec_from_dict(_CUSTOM), _same_xy, None, []),
], ids=["hydrogen_pair", "caged_oscillator", "ttw", "three_body_ttw", "pw",
        "calogero", "wolfes", "custom2d"])
def test_family_contract(spec, chart_to_xy, box_side, rays):
    if chart_to_xy is not None:
        for point in _CHART_POINTS:
            x, y = chart_to_xy(*point)
            quad = float(quadrant_values(spec, np.array([x]), np.array([y]))[0])
            assert eval_potential(spec, point) == pytest.approx(quad, rel=1e-13)

    if box_side is None:
        with pytest.raises(ValueError):
            default_box(spec)
    else:
        box = default_box(spec)
        assert (box.x_max, box.y_max) == (box_side, box_side)

    got = singular_rays(spec)
    assert [kind for kind, _ in got] == [kind for kind, _ in rays]
    assert [th for _, th in got] == pytest.approx([th for _, th in rays], abs=1e-15)

    if isinstance(spec, Custom2D):
        back = spec_from_dict(spec_to_dict(spec))
        assert spec_to_dict(back) == dict(_CUSTOM, depends_on_angles=False)
        assert eval_potential(back, (1.3, 0.8)) == eval_potential(spec, (1.3, 0.8))
    if isinstance(spec, (Calogero, Wolfes, Custom2D)):
        with pytest.raises(NotSeparable):
            separated_spectrum(spec, 1, 1)
