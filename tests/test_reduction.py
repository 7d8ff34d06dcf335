"""Gauge rotation, Jacobi machinery, and the 3-body-to-quadrant map."""

import math

import numpy as np
import pytest

from few2d import (
    Box,
    CagedOscillator,
    Calogero,
    Custom2D,
    HydrogenPair,
    NonPositiveDistance,
    NonPositiveMass,
    PotentialNotJacobiRadial,
    RadialProblem,
    Rational,
    ThreeBodyTTW,
    Wolfes,
    build_jacobi,
    centrifugal_coefficient,
    equal_mass_frame,
    jacobi_distances,
    jacobi_polar,
    kinetic_gram,
    map_threebody,
    ordered_line_config,
    pregauge_radial_levels,
    radial_spectrum,
    reduce_to_2d,
    wolfes_to_ttw,
)
from few2d.reduction import ReducedProblem2D


# --- centrifugal coefficient -----------------------------------------

def test_centrifugal_vanishes_for_d1_d3():
    assert centrifugal_coefficient(1, 0) == 0.0
    assert centrifugal_coefficient(3, 0) == 0.0


@pytest.mark.parametrize("d,L,expected", [(3, 1, 2.0), (2, 0, -0.25), (5, 0, 2.0)])
def test_centrifugal_known_values(d, L, expected):
    assert centrifugal_coefficient(d, L) == pytest.approx(expected, abs=1e-15)


def test_d1_angular_momentum_is_a_parity():
    assert centrifugal_coefficient(1, 1) == 0.0
    with pytest.raises(ValueError):
        centrifugal_coefficient(1, 2)
    with pytest.raises(ValueError):
        reduce_to_2d(CagedOscillator(a=1.0, b=1.0, omega=1.0, A=0.0, B=0.0), 1, 3, L_x=2)
    with pytest.raises(ValueError):
        map_threebody(Wolfes(omega=1.0, A=1.0, B=2.0), d=1, L2=2)


@pytest.mark.parametrize("d,L", [(2, 0), (2, 1), (3, 1), (3, 2), (5, 0), (5, 2)])
def test_centrifugal_certified_by_isospectrality(d, L):
    # pre-gauge route: weighted x^(d-1) scheme with the explicit angular
    # term, no knowledge of the closed form; gauged route: shooting on
    # -u'' + c/x^2 with the formula's c.  Lowest 5 levels must coincide.
    cutoff = math.pi
    pre = pregauge_radial_levels(d, L, cutoff=cutoff, m=5)
    c = centrifugal_coefficient(d, L)
    gauged = radial_spectrum(RadialProblem(kind="free", c=c, cutoff=cutoff), 5,
                             method="shooting")
    assert np.max(np.abs(pre - gauged) / np.abs(gauged)) < 1e-6


# --- reduce_to_2d ------------------------------------------------------

def test_reduce_d3_L0_leaves_potential_unchanged():
    prob = reduce_to_2d(HydrogenPair(), 3, 3)
    assert prob.c_x == 0.0 and prob.c_y == 0.0
    x = np.array([0.5, 1.0])
    y = np.array([2.0, 0.25])
    assert np.allclose(prob.effective_values(x, y), -1.0 / x - 1.0 / y)


def test_reduce_caged_d3_keeps_couplings():
    spec = CagedOscillator(a=1.0, b=1.0, omega=1.0, A=0.7, B=0.2)
    prob = reduce_to_2d(spec, 3, 3)
    # hatted couplings equal the bare ones: W = V with no extra 1/x^2
    assert prob.effective_values(2.0, 3.0) == pytest.approx(
        spec.quadrant(2.0, 3.0)
    )


def test_reduce_caged_d5_adds_two_over_x_squared():
    spec = CagedOscillator(a=1.0, b=1.0, omega=1.0, A=0.0, B=0.0)
    prob = reduce_to_2d(spec, 5, 5)
    assert prob.c_x == pytest.approx(2.0) and prob.c_y == pytest.approx(2.0)
    x, y = 1.7, 0.9
    assert prob.effective_values(x, y) == pytest.approx(
        x**2 + y**2 + 2.0 / x**2 + 2.0 / y**2
    )


def test_reduce_rejects_threebody_and_angular_custom():
    with pytest.raises(PotentialNotJacobiRadial):
        reduce_to_2d(Calogero(omega=1.0, A=1.0), 1, 1)
    angular = Custom2D(func=lambda x, y: x * y, name="xy", depends_on_angles=True)
    with pytest.raises(PotentialNotJacobiRadial):
        reduce_to_2d(angular, 3, 3, box=Box(5.0, 5.0))


# --- Jacobi frames ----------------------------------------------------

def test_equal_mass_frame_first_jacobi_distance_is_r12():
    frame = equal_mass_frame()
    positions = np.array([[0.1], [1.4], [3.0]])  # ordered on the line
    r1, r2 = jacobi_distances(frame, positions)
    assert r1 == pytest.approx(1.3, rel=1e-15)
    # second distance: (r13 + r23)/sqrt(3) for the m=2 frame
    assert r2 == pytest.approx((2.9 + 1.6) / math.sqrt(3.0), rel=1e-14)


def test_unit_mass_frame_matches_row_formula():
    frame = build_jacobi((1.0, 1.0, 1.0), d=1)
    positions = np.array([[0.0], [1.0], [5.0]])
    r1, _ = jacobi_distances(frame, positions)
    assert r1 == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def test_gram_identity_random_masses():
    rng = np.random.default_rng(42)
    for _ in range(100):
        masses = tuple(rng.uniform(0.05, 20.0, size=3))
        gram = kinetic_gram(build_jacobi(masses, d=3))
        assert np.abs(gram - np.eye(3)).max() < 1e-13


def test_gram_detects_corrupted_row():
    frame = build_jacobi((1.0, 2.0, 3.0), d=3)
    rows = frame.jacobi_rows.copy()
    rows[0, 0] *= 1.01
    corrupted = type(frame)(masses=frame.masses, total_mass=frame.total_mass,
                            cms_row=frame.cms_row, jacobi_rows=rows, d=frame.d)
    gram = kinetic_gram(corrupted)
    assert np.abs(gram - np.eye(3)).max() > 1e-4


def test_translation_invariance_of_jacobi_distances():
    rng = np.random.default_rng(9)
    for _ in range(100):
        masses = tuple(rng.uniform(0.2, 8.0, size=3))
        frame = build_jacobi(masses, d=3)
        positions = rng.standard_normal((3, 3))
        shift = rng.standard_normal(3)
        r = jacobi_distances(frame, positions)
        r_shifted = jacobi_distances(frame, positions + shift)
        assert r[0] == pytest.approx(r_shifted[0], rel=1e-13, abs=1e-13)
        assert r[1] == pytest.approx(r_shifted[1], rel=1e-13, abs=1e-13)


def test_build_jacobi_rejects_nonpositive_mass():
    with pytest.raises(NonPositiveMass):
        build_jacobi((1.0, 0.0, 2.0))


# --- ordered line and Jacobi polar ------------------------------------

def test_ordered_line_config_additivity():
    config = ordered_line_config(1.0, 2.0)
    assert (config.r12, config.r13, config.r23) == (1.0, 3.0, 2.0)
    assert ordered_line_config(0.5, 0.5).r13 == pytest.approx(1.0)
    with pytest.raises(NonPositiveDistance):
        ordered_line_config(1.0, 0.0)


def test_jacobi_polar_basics():
    frame = equal_mass_frame()
    # r1J = r2J = 1: gaps u = 1 and (u + 2v)/sqrt(3) = 1
    v = (math.sqrt(3.0) - 1.0) / 2.0
    rho, theta = jacobi_polar(ordered_line_config(1.0, v), frame)
    assert rho == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert theta == pytest.approx(math.pi / 4.0, rel=1e-14)

    rng = np.random.default_rng(3)
    for _ in range(100):
        u, w = rng.uniform(0.1, 4.0, size=2)
        config = ordered_line_config(u, w)
        rho, theta = jacobi_polar(config, frame)
        positions = np.array([[0.0], [u], [u + w]])
        r1, r2 = jacobi_distances(frame, positions)
        assert rho**2 == pytest.approx(r1**2 + r2**2, rel=1e-14)
        assert 0.0 < theta < math.pi / 2.0


# --- wolfes_to_ttw ----------------------------------------------------

def test_wolfes_to_ttw_pure_quadratic():
    image = wolfes_to_ttw(1.0, 0.0, 0.0)
    assert image.alpha == pytest.approx(0.0, abs=1e-12)
    assert image.beta == pytest.approx(0.0, abs=1e-12)
    # quadratic sum maps onto (3/2) omega^2 rho^2
    assert image.omega**2 == pytest.approx(1.5, rel=1e-12)


def test_wolfes_to_ttw_calogero_case():
    image = wolfes_to_ttw(1.0, 1.0, 0.0)
    assert image.beta == pytest.approx(0.0, abs=1e-12)
    frame = equal_mass_frame()
    rng = np.random.default_rng(8)
    from few2d import eval_potential

    checked = 0
    while checked < 1000:
        u, v = rng.uniform(0.2, 3.0, size=2)
        config = ordered_line_config(u, v)
        rho, theta = jacobi_polar(config, frame)
        if abs(theta - math.pi / 3.0) < 1e-3:
            continue
        checked += 1
        va = eval_potential(Calogero(omega=1.0, A=1.0), config)
        vb = eval_potential(image, (rho, theta))
        assert abs(va - vb) / abs(va) < 1e-12


def test_wolfes_to_ttw_full_match():
    image = wolfes_to_ttw(1.0, 1.0, 2.0)
    assert image.alpha == pytest.approx(1.0, rel=1e-10)
    assert image.beta == pytest.approx(2.0 / 3.0, rel=1e-10)


@pytest.mark.parametrize("A", [1e3, 1e4, 1e8, 1e12])
def test_wolfes_to_ttw_resolves_beta_next_to_a_large_pair_coupling(A):
    # beta = B/3 keeps its own precision next to any alpha = A
    image = wolfes_to_ttw(1.0, A, 2.0)
    assert image.alpha == pytest.approx(A, rel=1e-12)
    assert image.beta == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert image.omega**2 == pytest.approx(1.5, rel=1e-12)


@pytest.mark.parametrize("omega,A,B", [(1.0, 1.0, 2.0), (0.9, 1.2, 2.4), (0.5, 3.0, 1e-8),
                                       (1.3, 0.8, 0.0), (2.0, -0.2, 0.7), (1.0, 1e12, 2.0)])
def test_wolfes_to_ttw_is_the_closed_form_dictionary(omega, A, B):
    image = wolfes_to_ttw(omega, A, B)
    assert type(image) is ThreeBodyTTW and image.k == Rational(3, 1)
    assert image.alpha == A
    assert image.beta == B / 3
    assert image.omega == math.sqrt(1.5) * omega


# --- map_threebody ----------------------------------------------------

def test_map_threebody_ttw_passthrough_zero_centrifugal():
    spec = ThreeBodyTTW(omega=1.0, k=Rational(3, 1), alpha=0.3, beta=0.6)
    prob = map_threebody(spec, d=1)
    assert prob.potential == spec
    assert prob.c_x == 0.0 and prob.c_y == 0.0


def test_map_threebody_jacobi_oscillator():
    spec = CagedOscillator(a=1.0, b=2.0, omega=1.0, A=0.0, B=0.0)
    prob = map_threebody(spec, d=3)
    assert prob.potential == spec
    assert prob.c_x == 0.0 and prob.c_y == 0.0


def test_map_threebody_hydrogen_over_jacobi_distances():
    prob = map_threebody(HydrogenPair(), d=3)
    x, y = 1.2, 2.5
    assert prob.effective_values(x, y) == pytest.approx(-1.0 / x - 1.0 / y)


def test_map_threebody_d2_includes_quarter_terms():
    prob = map_threebody(HydrogenPair(), d=2)
    assert prob.c_x == pytest.approx(-0.25)
    assert prob.c_y == pytest.approx(-0.25)


def test_map_threebody_round_trip_identification():
    # renaming (x, y) <-> (r1J, r2J): the reduced potential evaluated on the
    # quadrant reproduces the 3-body potential at matching Jacobi points
    spec = ThreeBodyTTW(omega=1.3, k=Rational(3, 1), alpha=0.4, beta=0.2)
    prob = map_threebody(spec, d=1)
    from few2d import eval_potential

    rng = np.random.default_rng(12)
    for _ in range(50):
        x, y = rng.uniform(0.2, 3.0, size=2)
        rho, theta = math.hypot(x, y), math.atan2(y, x)
        assert prob.effective_values(x, y) == pytest.approx(
            eval_potential(spec, (rho, theta)), rel=1e-13
        )


def test_map_threebody_rejects_angular_custom():
    angular = Custom2D(func=lambda x, y: x, name="ang", depends_on_angles=True)
    with pytest.raises(PotentialNotJacobiRadial):
        map_threebody(angular, d=1, box=Box(4.0, 4.0))


def test_map_threebody_wolfes_is_ttw3_image():
    prob = map_threebody(Wolfes(omega=1.0, A=1.0, B=2.0), d=1)
    assert isinstance(prob.potential, ThreeBodyTTW)
    assert (prob.potential.k.m, prob.potential.k.n) == (3, 1)
    assert prob.potential.alpha == pytest.approx(1.0, rel=1e-10)
    assert prob.potential.beta == pytest.approx(2.0 / 3.0, rel=1e-10)


# --- serialization ----------------------------------------------------

def test_reduced_problem_json_round_trip():
    prob = reduce_to_2d(CagedOscillator(A=0.3), 5, 3, L_x=1, L_y=0)
    doc = prob.to_dict()
    back = ReducedProblem2D.from_dict(doc)
    assert back == prob
    with pytest.raises(ValueError):
        ReducedProblem2D.from_dict({**doc, "mystery": 1})
