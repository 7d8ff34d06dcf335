"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with `pytest -s` to see them all).
The caged-oscillator grid ladder is shared by criteria 5 and 9 through a
session fixture; it is the heavy part of the suite (a few minutes total).
"""

import math

import numpy as np
import pytest

from few2d import (
    Box,
    CagedOscillator,
    Calogero,
    HydrogenPair,
    RadialProblem,
    Rational,
    TTW,
    Wolfes,
    assemble,
    build_jacobi,
    caged_image_of_ttw,
    centrifugal_coefficient,
    detect_degeneracies,
    eval_potential,
    identity_check,
    integral_order,
    jacobi_distances,
    jacobi_polar,
    kinetic_gram,
    labeled_collisions,
    lowest_eigs,
    make_grid,
    ordered_line_config,
    ordered_line_to_jacobi_polar_bridge,
    polar_to_cartesian_bridge,
    pregauge_radial_levels,
    radial_spectrum,
    reduce_to_2d,
    separated_spectrum,
    wolfes_to_ttw,
)
from few2d.reduction import equal_mass_frame


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="session")
def caged_ladder():
    """Lowest 6 caged-oscillator levels on the 100/200/400 grids."""
    prob = reduce_to_2d(CagedOscillator(), 3, 3, box=Box(12.0, 12.0))
    out = {}
    for n in (100, 200, 400):
        grid = make_grid(prob.box, n, n)
        op = assemble(prob, grid)
        res = lowest_eigs(op, 6, tol=1e-6)
        assert res.converged
        out[n] = (grid.h_x, res.eigenvalues.copy())
    return out


def test_criterion_1_centrifugal_vanishing():
    exact_zero = centrifugal_coefficient(1, 0) == 0.0 and centrifugal_coefficient(3, 0) == 0.0
    worst = 0.0
    for d in (2, 5):
        for L in (0, 1, 2):
            pre = pregauge_radial_levels(d, L, cutoff=math.pi, m=5)
            c = centrifugal_coefficient(d, L)
            gauged = radial_spectrum(RadialProblem(kind="free", c=c, cutoff=math.pi),
                                     5, method="shooting")
            worst = max(worst, float(np.max(np.abs(pre - gauged) / np.abs(gauged))))
    ok = exact_zero and worst <= 1e-6
    _verdict(1, "centrifugal vanishing / gauge isospectrality", ok,
             f"c(1,0)=c(3,0)=0: {exact_zero}, worst isospectral deviation {worst:.3g}")


def test_criterion_2_integral_order():
    ok = (integral_order(Rational(1, 1)) == 2
          and integral_order(Rational(3, 1)) == 6
          and integral_order(Rational(3, 2)) == 8)
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 50:
        m = int(rng.integers(1, 60))
        n = int(rng.integers(1, 60))
        if math.gcd(m, n) != 1:
            continue
        checked += 1
        ok = ok and integral_order(Rational(m, n)) == 2 * (m + n - 1)
    _verdict(2, "integral order N = 2(m+n-1)", ok, f"{checked} random fractions exact")


def test_criterion_3_wolfes_equals_ttw3():
    image = wolfes_to_ttw(1.0, 1.0, 2.0)
    res = identity_check(Wolfes(omega=1.0, A=1.0, B=2.0), image,
                         ordered_line_to_jacobi_polar_bridge(), samples=1000,
                         tol=1e-12)
    image0 = wolfes_to_ttw(1.0, 1.0, 0.0)
    frame = equal_mass_frame()
    rng = np.random.default_rng(31)
    worst0 = 0.0
    checked = 0
    while checked < 1000:
        u, v = rng.uniform(0.2, 3.0, size=2)
        config = ordered_line_config(u, v)
        rho, theta = jacobi_polar(config, frame)
        if abs(theta - math.pi / 3.0) < 1e-3:
            continue
        checked += 1
        va = eval_potential(Calogero(omega=1.0, A=1.0), config)
        vb = eval_potential(image0, (rho, theta))
        worst0 = max(worst0, abs(va - vb) / abs(va))
    ok = res.passed and worst0 <= 1e-12
    _verdict(3, "Wolfes = TTW(k=3) by the closed-form dictionary", ok,
             f"wolfes deviation {res.max_rel_deviation:.3g} over 1000 configs, "
             f"calogero-at-B=0 deviation {worst0:.3g}")


def test_criterion_4_jacobi_diagonalization():
    rng = np.random.default_rng(4)
    worst_gram = 0.0
    worst_shift = 0.0
    for _ in range(100):
        masses = tuple(rng.uniform(0.1, 10.0, size=3))
        frame = build_jacobi(masses, d=3)
        worst_gram = max(worst_gram,
                         float(np.abs(kinetic_gram(frame) - np.eye(3)).max()))
        positions = rng.standard_normal((3, 3))
        shift = rng.standard_normal(3)
        r = jacobi_distances(frame, positions)
        rs = jacobi_distances(frame, positions + shift)
        worst_shift = max(worst_shift,
                          abs(r[0] - rs[0]) / max(r[0], 1e-30),
                          abs(r[1] - rs[1]) / max(r[1], 1e-30))
    ok = worst_gram <= 1e-13 and worst_shift <= 1e-12
    _verdict(4, "Jacobi kinetic Gram identity", ok,
             f"max |G - I| = {worst_gram:.3g}, translation deviation {worst_shift:.3g}")


def test_criterion_5_caged_oracle_vs_grid(caged_ladder):
    oracle = separated_spectrum(CagedOscillator(), 5, 5)
    target = oracle.energies()[:6]
    h2, e2 = caged_ladder[200]
    h4, e4 = caged_ladder[400]
    rel400 = float(np.max(np.abs(e4 - target) / target))
    richardson = (e4 * h2**2 - e2 * h4**2) / (h2**2 - h4**2)
    rel_rich = float(np.max(np.abs(richardson - target) / target))

    rows = oracle.rows()[:20]
    design = np.array([[1.0, nx, ny] for nx, ny, _ in rows])
    vals = np.array([e for _, _, e in rows])
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    affine_resid = float(np.abs(design @ coef - vals).max())

    ok = rel400 <= 5e-3 and rel_rich <= 5e-4 and affine_resid < 1e-8
    _verdict(5, "caged oscillator oracle vs 400x400 grid", ok,
             f"rel dev {rel400:.3g} (<=0.5%), Richardson {rel_rich:.3g} (<=0.05%), "
             f"affine residual {affine_resid:.3g}")


def test_criterion_6_hydrogen_pair():
    # the separated route for n_r, j <= 1 solves the radial problem for two
    # levels; use the same count so the cutoffs (and hence values) match
    p = RadialProblem(kind="coulomb", coupling=1.0)
    fd = radial_spectrum(p, 2)
    shoot = radial_spectrum(p, 2, method="shooting")
    dual = float(abs(fd[0] - shoot[0]) / abs(fd[0]))

    spectrum = separated_spectrum(HydrogenPair(), 1, 1)
    ground = spectrum.energies()[0]
    sum_ok = abs(ground - 2.0 * fd[0]) <= 1e-10 * abs(ground)

    prob = reduce_to_2d(HydrogenPair(), 3, 3)
    grid = make_grid(prob.box, 400, 400)
    res = lowest_eigs(assemble(prob, grid), 1, tol=1e-6)
    grid_rel = float(abs(res.eigenvalues[0] - ground) / abs(ground))

    ok = dual <= 1e-8 and sum_ok and grid_rel <= 1e-2
    _verdict(6, "hydrogen pair ground energy", ok,
             f"dual-solver {dual:.3g}, ground={ground:.10f} (= 2 x {fd[0]:.10f}), "
             f"2D grid rel dev {grid_rel:.3g} (<=1%)")


def test_criterion_7_ttw_k1_caged_coincidence():
    ttw = TTW(omega=1.0, k=Rational(1, 1), alpha=0.3, beta=0.7)
    caged = caged_image_of_ttw(ttw)
    res = identity_check(ttw, caged, polar_to_cartesian_bridge(), samples=1000,
                         tol=1e-12)
    spec_ttw = separated_spectrum(ttw, 6, 6)
    spec_caged = separated_spectrum(caged, 6, 6)
    n = 10
    level_dev = float(np.max(np.abs(spec_ttw.energies()[:n] - spec_caged.energies()[:n])
                             / spec_ttw.energies()[:n]))
    ok = res.passed and level_dev <= 1e-8
    _verdict(7, "TTW(k=1) coincides with caged oscillator", ok,
             f"identity deviation {res.max_rel_deviation:.3g}, "
             f"first-{n}-level deviation {level_dev:.3g}")


def test_criterion_8_degeneracy_signature():
    spec2 = TTW(omega=1.0, k=Rational(2, 1), alpha=3.0 / 16.0, beta=3.0 / 16.0)
    spectrum2 = separated_spectrum(spec2, 12, 8)
    merged = detect_degeneracies(spectrum2.energies()[:20], tol_rel=1e-8)
    collisions = labeled_collisions(spectrum2, 20, tol_rel=1e-8)
    hist_match = merged.multiplicities() == [m for _, m, _ in collisions]
    # independent census: for k = 2/1, E(n_r, j) collides iff n_r + 2 j agrees
    census_ok = True
    for _, mult, labels in collisions:
        key = labels[0][0] + 2 * labels[0][1]
        census_ok = census_ok and all(nr + 2 * j == key for nr, j in labels)

    spec_irr = TTW(omega=1.0, k=math.sqrt(2.0), alpha=3.0 / 16.0, beta=3.0 / 16.0)
    spectrum_irr = separated_spectrum(spec_irr, 12, 8)
    irr = detect_degeneracies(spectrum_irr.energies()[:20], tol_rel=1e-8)
    irr_ok = max(irr.multiplicities()) == 1

    ok = hist_match and census_ok and irr_ok
    _verdict(8, "degeneracy signature rational vs irrational k", ok,
             f"k=2 multiplicities {merged.multiplicities()}, "
             f"k=sqrt(2) max multiplicity {max(irr.multiplicities())}")


def test_criterion_9_convergence_order(caged_ladder):
    oracle = separated_spectrum(CagedOscillator(), 5, 5).energies()[:5]
    orders = []
    pairs = [(100, 200), (200, 400)]
    for n1, n2 in pairs:
        h1, e1 = caged_ladder[n1]
        h2, e2 = caged_ladder[n2]
        err1 = np.abs(e1[:5] - oracle)
        err2 = np.abs(e2[:5] - oracle)
        orders.extend(np.log(err1 / err2) / np.log(h1 / h2))
    ok = all(1.8 <= p <= 2.2 for p in orders)
    _verdict(9, "second-order grid convergence", ok,
             "orders " + ", ".join(f"{p:.3f}" for p in orders))
