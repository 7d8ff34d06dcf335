"""Integral order, potential identities, degeneracy scans."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from few2d import (
    Bridge,
    CagedOscillator,
    Calogero,
    NotRational,
    PW,
    Rational,
    TTW,
    Wolfes,
    caged_image_of_ttw,
    degeneracy_scan,
    identity_check,
    integral_order,
    labeled_collisions,
    ordered_line_to_jacobi_polar_bridge,
    polar_to_cartesian_bridge,
    separated_spectrum,
    spec_from_dict,
    wolfes_to_ttw,
)
from few2d import oracles
from few2d.model import k_from_json
from few2d.superintegrability import halton_point


# --- integral order -----------------------------------------------------

@pytest.mark.parametrize("m,n,expected", [(1, 1, 2), (3, 1, 6), (3, 2, 8)])
def test_integral_order_reference_values(m, n, expected):
    assert integral_order(Rational(m, n)) == expected


def test_integral_order_random_reduced_fractions():
    rng = np.random.default_rng(77)
    count = 0
    while count < 50:
        m = int(rng.integers(1, 40))
        n = int(rng.integers(1, 40))
        if math.gcd(m, n) != 1:
            continue
        count += 1
        assert integral_order(Rational(m, n)) == 2 * (m + n - 1)


def test_integral_order_representation_invariance():
    assert integral_order(Rational(6, 4)) == integral_order(Rational(3, 2))
    assert integral_order(Rational(10, 2)) == integral_order(Rational(5, 1))


def test_integral_order_rejects_irrational():
    with pytest.raises(NotRational):
        integral_order(math.sqrt(2.0))


# --- identity checks ----------------------------------------------------

def test_wolfes_vs_ttw3_image():
    image = wolfes_to_ttw(1.0, 1.0, 2.0)
    res = identity_check(Wolfes(omega=1.0, A=1.0, B=2.0), image,
                         ordered_line_to_jacobi_polar_bridge(), samples=1000,
                         tol=1e-12)
    assert res.passed


def test_calogero_is_wolfes_b0_identity_bridge():
    bridge = ordered_line_to_jacobi_polar_bridge()
    same_chart = Bridge(sample_box=bridge.sample_box, to_a=bridge.to_a,
                        to_b=bridge.to_a, admissible=bridge.admissible)
    res = identity_check(Wolfes(omega=1.2, A=0.7, B=0.0), Calogero(omega=1.2, A=0.7),
                         same_chart, samples=300, tol=0.0)
    assert res.max_rel_deviation == 0.0


def test_ttw_k1_caged_dictionary():
    ttw = TTW(omega=1.0, k=Rational(1, 1), alpha=0.3, beta=0.7)
    caged = caged_image_of_ttw(ttw)
    assert caged.A == pytest.approx(0.3, rel=1e-12)
    assert caged.B == pytest.approx(0.7, rel=1e-12)
    res = identity_check(ttw, caged, polar_to_cartesian_bridge(), samples=1000,
                         tol=1e-12)
    assert res.passed


def _wolfes_sweep():
    rng = np.random.default_rng(18)
    drawn = zip(rng.uniform(0.2, 3.0, 8), rng.uniform(-0.2, 5.0, 8), rng.uniform(0.0, 5.0, 8))
    return [tuple(float(p) for p in draw) for draw in drawn] + [
        (1.0, -0.2, 1.0), (1.0, -0.24, 0.0), (0.7, 1e12, 2.0), (1.3, 0.8, 0.0)]


@pytest.mark.parametrize("omega,A,B", _wolfes_sweep())
def test_wolfes_ttw3_image_passes_the_identity_check(omega, A, B):
    # B = 0 is Calogero; A < 0 is an attractive pair coupling above -1/4
    res = identity_check(Wolfes(omega=omega, A=A, B=B), wolfes_to_ttw(omega, A, B),
                         ordered_line_to_jacobi_polar_bridge(), samples=300, tol=1e-12)
    assert res.passed, res.max_rel_deviation


@pytest.mark.parametrize("omega,alpha,beta", [(1.0, 0.0, 0.0), (0.6, -0.1, 2.5),
                                              (2.3, 4.0, -0.12), (1.0, 1e8, 0.3)])
def test_caged_image_of_ttw_passes_the_identity_check(omega, alpha, beta):
    ttw = TTW(omega=omega, k=1, alpha=alpha, beta=beta)
    caged = caged_image_of_ttw(ttw)
    assert caged == CagedOscillator(a=1.0, b=1.0, omega=omega, A=alpha, B=beta)
    res = identity_check(ttw, caged, polar_to_cartesian_bridge(), samples=300, tol=1e-12)
    assert res.passed, res.max_rel_deviation


def test_caged_image_of_ttw_refuses_k_other_than_1():
    with pytest.raises(ValueError, match="k = 1 statement"):
        caged_image_of_ttw(TTW(omega=1.0, k=2, alpha=0.3, beta=0.7))


@pytest.mark.parametrize("expression", ["np.nan + x", "np.where(x < 1.0, np.nan, 1.0)"])
def test_identity_check_fails_on_a_nan_deviation(expression):
    # a NaN at any sample, the first or a later one, makes the check fail
    bridge = polar_to_cartesian_bridge()
    res = identity_check(spec_from_dict({"family": "custom2d", "expression": expression}),
                         spec_from_dict({"family": "custom2d", "expression": "1 + 0 * x"}),
                         replace(bridge, to_a=bridge.to_b), samples=100)
    assert math.isnan(res.max_rel_deviation) and not res.passed


def test_identity_check_is_symmetric_under_swap():
    image = wolfes_to_ttw(1.0, 0.5, 1.0)
    bridge = ordered_line_to_jacobi_polar_bridge()
    fwd = identity_check(Wolfes(omega=1.0, A=0.5, B=1.0), image, bridge,
                         samples=400, tol=1e-12)
    swapped = Bridge(sample_box=bridge.sample_box, to_a=bridge.to_b,
                     to_b=bridge.to_a, admissible=bridge.admissible)
    rev = identity_check(image, Wolfes(omega=1.0, A=0.5, B=1.0), swapped,
                         samples=400, tol=1e-12)
    # same symmetric deviation measure, same samples: equal up to roundoff
    assert rev.max_rel_deviation == pytest.approx(fwd.max_rel_deviation, rel=1e-9)


def test_halton_points_are_radical_inverses_in_bases_2_and_3():
    assert [halton_point(i) for i in (1, 2, 3)] == [(1 / 2, 1 / 3), (1 / 4, 2 / 3),
                                                    (3 / 4, 1 / 9)]
    assert halton_point(0) == (0.0, 0.0)


def test_identity_check_draws_from_seed_and_advances_past_rejected_points():
    # the unit box keeps the Halton points as drawn; the bridge admits
    # u > 0.4, which rejects the second point (1/4, 2/3)
    def drawn(seed, samples):
        points = []

        def to_a(u, v):
            points.append((u, v))
            return (u + 1.0, v + 1.0)

        bridge = Bridge(sample_box=((0.0, 1.0), (0.0, 1.0)), to_a=to_a,
                        to_b=lambda u, v: (u + 1.0, v + 1.0), admissible=lambda u, v: u > 0.4)
        identity_check(CagedOscillator(), CagedOscillator(), bridge, samples=samples,
                       seed=seed)
        return points

    assert drawn(0, 2) == [(1 / 2, 1 / 3), (3 / 4, 1 / 9)]
    assert drawn(0, 50) == drawn(0, 50)
    assert drawn(7, 3) == [p for p in map(halton_point, range(8, 20)) if p[0] > 0.4][:3]


# --- degeneracy scans -----------------------------------------------------

def test_scan_rational_k_multiplicities_match_label_collisions():
    template = TTW(omega=1.0, k=Rational(1, 1), alpha=3.0 / 16.0, beta=3.0 / 16.0)
    entries = degeneracy_scan(template, [Rational(2, 1)], levels_per_k=20,
                              n_r_max=12, j_max=8)
    entry = entries[0]
    assert entry.integral_order == 4
    collisions = labeled_collisions(entry.spectrum, 20)
    assert entry.report.multiplicities() == [mult for _, mult, _ in collisions]
    # for k = m/n the level E(n_r, j) collides exactly with equal n*n_r + m*j
    classes = {}
    for _, _, labels in collisions:
        for n_r, j in labels:
            classes.setdefault(n_r + 2 * j, 0)
            classes[n_r + 2 * j] += 1
    for _, mult, labels in collisions:
        key = labels[0][0] + 2 * labels[0][1]
        assert all(n_r + 2 * j == key for n_r, j in labels)
        assert mult == classes[key]


def test_scan_irrational_k_has_no_accidental_degeneracy():
    template = TTW(omega=1.0, k=Rational(1, 1), alpha=3.0 / 16.0, beta=3.0 / 16.0)
    entries = degeneracy_scan(template, [math.sqrt(2.0)], levels_per_k=20,
                              n_r_max=12, j_max=8)
    entry = entries[0]
    assert entry.integral_order is None
    assert max(entry.report.multiplicities()) == 1


def test_scan_annotates_plain_integer_and_fraction_k():
    template = TTW(omega=1.0, k=Rational(1, 1), alpha=0.1, beta=0.1)
    entries = degeneracy_scan(template, [2, Fraction(3, 2)], levels_per_k=6,
                              n_r_max=3, j_max=3)
    assert [e.k for e in entries] == [Rational(2, 1), Rational(3, 2)]
    assert [e.integral_order for e in entries] == [4, 8]


def test_scan_k1_annotated_with_order_two():
    template = TTW(omega=1.0, k=Rational(1, 1), alpha=0.1, beta=0.1)
    entries = degeneracy_scan(template, [Rational(1, 1)], levels_per_k=12,
                              n_r_max=8, j_max=8)
    assert entries[0].integral_order == 2


def test_scan_refuses_families_it_cannot_vary_k_on():
    with pytest.raises(NotRational):
        degeneracy_scan(CagedOscillator(), [Rational(2, 1)])
    with pytest.raises(NotRational):
        degeneracy_scan(PW(a=1.0, k=Rational(2, 1)), [Rational(2, 1)])


def test_scan_solves_only_the_radial_levels_it_reports(monkeypatch, request):
    # the shipped scan's box holds 13 x 9 radial levels per k, 585 in all;
    # the lowest 20 per k need at most 190 of them
    config = json.loads((request.path.parents[1] / "configs" / "ttw_scan.json").read_text())
    scan = config["scan"]
    requested = []
    solve = oracles.radial_spectrum

    def counting(p, m, method="fd"):
        requested.append(m)
        return solve(p, m, method=method)

    monkeypatch.setattr(oracles, "radial_spectrum", counting)
    entries = degeneracy_scan(spec_from_dict(config["system"]),
                              [k_from_json(k) for k in scan["k_list"]],
                              levels_per_k=scan["levels_per_k"], tol=scan["tol"],
                              n_r_max=scan["n_r_max"], j_max=scan["j_max"])
    assert sum(requested) <= 190
    assert all(len(entry.levels) == scan["levels_per_k"] for entry in entries)


def test_multiplicities_stable_across_tolerance_decade():
    # decade stability needs oracle levels a good margin tighter than the
    # smallest clustering tolerance
    spectrum = separated_spectrum(TTW(omega=1.0, k=Rational(2, 1),
                                      alpha=3.0 / 16.0, beta=3.0 / 16.0), 8, 4,
                                  target=3e-10)
    from few2d import detect_degeneracies

    levels = spectrum.energies()[:20]
    mults = {tol: detect_degeneracies(levels, tol_rel=tol).multiplicities()
             for tol in (1e-9, 1e-8, 1e-7)}
    assert mults[1e-9] == mults[1e-8] == mults[1e-7]
