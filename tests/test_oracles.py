"""Dual-backend 1D solvers and separated labeled spectra."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from few2d import (
    AccuracyNotReached,
    BoundViolation,
    CagedOscillator,
    Custom2D,
    HydrogenPair,
    NotSeparable,
    PW,
    RadialProblem,
    Rational,
    ThreeBodyTTW,
    TTW,
    angular_pt_levels,
    radial_spectrum,
    separated_spectrum,
)
from few2d import oracles


# --- radial problems ---------------------------------------------------

def test_halfline_oscillator_odd_tower():
    # -u'' + r^2 u with Dirichlet at 0: the odd harmonic levels 4n + 3,
    # certified here by the two independent backends agreeing
    p = RadialProblem(kind="oscillator", coupling=1.0)
    fd = radial_spectrum(p, 4)
    shoot = radial_spectrum(p, 4, method="shooting")
    assert np.max(np.abs(fd - shoot) / np.abs(fd)) < 1e-8
    assert np.allclose(fd, [3.0, 7.0, 11.0, 15.0], rtol=1e-8)


def test_halfline_coulomb_tower():
    p = RadialProblem(kind="coulomb", coupling=1.0)
    fd = radial_spectrum(p, 3)
    shoot = radial_spectrum(p, 3, method="shooting")
    assert np.max(np.abs(fd - shoot) / np.abs(fd)) < 1e-8
    assert np.allclose(fd, [-0.25, -1.0 / 16.0, -1.0 / 36.0], rtol=1e-7)


def test_coulomb_with_centrifugal_c2_shifts_tower():
    # c = 2 is the d=3, L=1 sector: the n=1 level drops out
    p = RadialProblem(kind="coulomb", coupling=1.0, c=2.0)
    fd = radial_spectrum(p, 2)
    shoot = radial_spectrum(p, 2, method="shooting")
    assert np.max(np.abs(fd - shoot) / np.abs(fd)) < 1e-8
    assert np.allclose(fd, [-1.0 / 16.0, -1.0 / 36.0], rtol=1e-7)


def test_radial_rejects_bad_inputs():
    with pytest.raises(BoundViolation):
        RadialProblem(kind="oscillator", c=-0.2500001)
    RadialProblem(kind="oscillator", c=-0.25)  # borderline Friedrichs case is fine
    with pytest.raises(ValueError):
        RadialProblem(kind="maser")
    with pytest.raises(ValueError):
        radial_spectrum(RadialProblem(kind="free"), 2)  # needs explicit cutoff


def test_accuracy_not_reached_reports_estimate():
    # an absurd target cannot be certified; the error carries the estimate
    p = RadialProblem(kind="oscillator", coupling=1.0, target=1e-15)
    with pytest.raises(AccuracyNotReached) as err:
        radial_spectrum(p, 3)
    assert err.value.achieved > err.value.target


@pytest.mark.parametrize("a_coeff, b_coeff", [(0.0, 0.0), (0.1, 0.1), (0.1875, 0.1875),
                                              (1.0, 2.0)])
def test_angular_shooting_matches_closed_form(a_coeff, b_coeff):
    # the angular factors of TTW k = 2, from the free sector up
    levels = angular_pt_levels(Rational(2, 1), a_coeff, b_coeff, 3, method="shooting")
    exact = [_pt_level(2.0, a_coeff, b_coeff, j) for j in range(3)]
    assert np.max(np.abs(levels - exact) / exact) <= 1e-8


def test_shooting_without_bracket_names_backend_level_bracket_and_problem(monkeypatch):
    monkeypatch.setattr(oracles, "_prufer_angle", lambda *args: 1.0)
    spec = TTW(omega=1.0, k=Rational(2, 1), alpha=0.0, beta=0.0)
    with pytest.raises(AccuracyNotReached) as err:
        separated_spectrum(spec, 0, 0, method="shooting")
    msg = str(err.value)
    assert "shooting" in msg and "level 0" in msg
    assert "k=2, A=0, B=0" in msg and "on [0, " in msg


def test_failed_integration_names_backend_problem_and_lambda(monkeypatch):
    import scipy.integrate

    def failed(fun, t_span, y0, **kwargs):
        return SimpleNamespace(t=np.array(t_span[:1]), y=np.array([y0]).T, success=False,
                               status=-1, message="Integration step failed.")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", failed)
    with pytest.raises(AccuracyNotReached) as err:
        radial_spectrum(RadialProblem(kind="oscillator", coupling=1.5, c=2.0), 2,
                        method="shooting")
    msg = str(err.value)
    assert "shooting backend" in msg and "lambda=0" in msg
    assert "radial oscillator problem (coupling=1.5, c=2" in msg


def test_fd_operator_overflow_is_an_accuracy_failure():
    # at k = 1e9 the radial weight x^(2s), s ~ 1e9, overflows the fd operator
    with pytest.raises(AccuracyNotReached, match="fd backend"):
        separated_spectrum(TTW(omega=1.0, k=1e9, alpha=0.1875, beta=0.1875), 1, 1)


def test_fd_overflow_is_refused_before_any_grid_is_built(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the operator was assembled")

    monkeypatch.setattr(oracles, "_weighted_fd_once", unreachable)
    with pytest.raises(AccuracyNotReached, match="fd backend: the .*overflows"):
        radial_spectrum(RadialProblem(kind="oscillator", coupling=1.0, c=1e18), 2)


@pytest.mark.parametrize("solve, names", [
    (lambda: radial_spectrum(RadialProblem(kind="oscillator", coupling=1.5, c=2.0,
                                           target=1e-15), 3),
     ["radial oscillator problem", "coupling=1.5", "c=2", "cutoff="]),
    (lambda: angular_pt_levels(Rational(2, 1), 0.5, 1.5, 2, target=1e-15),
     ["angular barrier problem", "k=2", "A=0.5", "B=1.5"]),
    (lambda: oracles.pregauge_radial_levels(3, 1, 6.0, 2, target=1e-15),
     ["pre-gauge radial problem", "d=3", "L=1", "cutoff=6"]),
], ids=["radial", "angular", "pregauge"])
def test_fd_richardson_miss_names_backend_level_grids_and_problem(solve, names):
    with pytest.raises(AccuracyNotReached) as err:
        solve()
    msg = str(err.value)
    assert "fd backend" in msg and "level " in msg and "grids of " in msg
    for name in names:
        assert name in msg
    assert err.value.achieved > err.value.target == 1e-15


# --- warm refinement of the finer Richardson grids ----------------------

def _assembled(kind):
    if kind == "radial":
        s = 0.5 + math.sqrt(2.25)
        return oracles._weighted_fd_operator(lambda x: 2.0 * s * np.log(x), lambda x: x**2,
                                             (0.0, 12.0), 3000, True, False)
    k, at, bt = 2.0, 1.5, 2.0
    return oracles._weighted_fd_operator(
        lambda th: 2.0 * bt * np.log(np.sin(k * th)) + 2.0 * at * np.log(np.cos(k * th)),
        np.zeros_like, (0.0, math.pi / (2.0 * k)), 2400, True, True)


def _ulp_norm(diag, off):
    a = np.abs(off)
    return np.finfo(float).eps * np.max(np.abs(diag) + np.append(a, 0.0) + np.insert(a, 0, 0.0))


@pytest.fixture
def bisections(monkeypatch):
    calls = []
    cold = oracles.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(kwargs.get("select_range"))
        return cold(*args, **kwargs)

    monkeypatch.setattr(oracles, "eigh_tridiagonal", counted)
    return calls


@pytest.mark.parametrize("kind", ["radial", "angular"])
def test_refined_levels_match_bisection_without_bisecting(kind, bisections):
    diag, off = _assembled(kind)
    cold = oracles._tridiag_lowest(diag, off, 5)
    bisections.clear()
    for rel in (1e-4, 1e-8):
        warm = oracles._tridiag_lowest(diag, off, 5, guess=cold * (1.0 + rel))
        assert np.max(np.abs(warm - cold)) <= 2.0 * _ulp_norm(diag, off)
    assert bisections == []


@pytest.mark.parametrize("kind", ["radial", "angular"])
@pytest.mark.parametrize("wrong", ["shifted", "duplicated"])
def test_wrong_guess_fails_the_certificate_and_bisects(kind, wrong, bisections):
    diag, off = _assembled(kind)
    m = 4
    cold = oracles._tridiag_lowest(diag, off, m + 1)
    guess = cold[1:] if wrong == "shifted" else np.concatenate([cold[:1], cold[:m - 1]])
    bisections.clear()
    levels = oracles._tridiag_lowest(diag, off, m, guess=guess)
    assert bisections == [(0, m - 1)]
    assert np.array_equal(levels, oracles._tridiag_lowest(diag, off, m))


def test_log_grid_coulomb_is_only_bisected(monkeypatch):
    def unreachable(*args):
        raise AssertionError("dgtsv was called on the log grid")

    monkeypatch.setattr(oracles, "dgtsv", unreachable)
    levels = radial_spectrum(RadialProblem(kind="coulomb", coupling=1.0, c=2.0), 2)
    assert np.allclose(levels, [-1.0 / 16.0, -1.0 / 36.0], rtol=1e-8)


# --- closed-form sweep ----------------------------------------------------

def _gauge(c):
    return 0.5 + math.sqrt(0.25 + c)


def _oscillator_level(w, c, n):
    return w * (4 * n + 2 * _gauge(c) + 1)


def _coulomb_level(z, c, n):
    return -z * z / (4.0 * (n + _gauge(c)) ** 2)


def _pt_level(k, a_coeff, b_coeff, j):
    return k * k * (2 * j + _gauge(a_coeff / k**2) + _gauge(b_coeff / k**2)) ** 2


def _sweep_points():
    """Seeded draws inside the validated bounds.  Distances from a borderline
    are log-uniform, so the steep-gauge edges are sampled too; c = -0.245 is
    the last Coulomb sector the log grid must still solve."""
    rng = np.random.default_rng(20261018)
    edge = lambda hi: 10.0 ** rng.uniform(-4.0, math.log10(hi))
    points = [("coulomb", (1.0, -0.245), 2)]
    for _ in range(12):
        z, c, m = rng.uniform(0.5, 3.0), -0.25 + edge(50.25), int(rng.integers(1, 4))
        points.append(("coulomb", (z, c), m))
    for _ in range(10):
        w, c, m = rng.uniform(0.5, 3.0), rng.uniform(-0.2, 300.0), int(rng.integers(1, 4))
        points.append(("oscillator", (w, c), m))
    for _ in range(10):
        k = rng.uniform(0.3, 6.0)
        a_coeff, b_coeff = k * k * (edge(5.25) - 0.25), k * k * (edge(5.25) - 0.25)
        points.append(("pt", (k, a_coeff, b_coeff), int(rng.integers(1, 4))))
    return [pytest.param(*point, id=f"{point[0]}{i}") for i, point in enumerate(points)]


def _closed_form_cases():
    """Every sweep point on ``fd``; the Poschl-Teller ones on shooting too."""
    points = _sweep_points()
    return ([pytest.param(*p.values, "fd", id=p.id) for p in points]
            + [pytest.param(*p.values, "shooting", id=f"{p.id}-shooting")
               for p in points if p.values[0] == "pt"])


@pytest.mark.parametrize("kind, params, m, method", _closed_form_cases())
def test_fd_matches_closed_forms_across_the_validated_range(kind, params, m, method):
    target = 1e-8
    if kind == "pt":
        k, a_coeff, b_coeff = params
        levels = angular_pt_levels(k, a_coeff, b_coeff, m, method=method, target=target)
        exact = [_pt_level(k, a_coeff, b_coeff, j) for j in range(m)]
    else:
        coupling, c = params
        level = _coulomb_level if kind == "coulomb" else _oscillator_level
        try:
            levels = radial_spectrum(RadialProblem(kind=kind, coupling=coupling, c=c,
                                                   target=target), m)
        except AccuracyNotReached:
            # only the log grid's inner wall may give up, and only near c = -1/4
            assert kind == "coulomb" and c < -0.245
            return
        exact = [level(coupling, c, n) for n in range(m)]
    assert np.max(np.abs(levels - exact) / np.abs(exact)) <= target


@pytest.mark.parametrize("kind, params, m", _sweep_points())
def test_every_sweep_grid_is_within_ulp_of_a_tight_bisection(kind, params, m, monkeypatch):
    # each grid, refined or bisected, must carry the absolute accuracy class
    # ulp * ||T|| of the bisection; the log grid is never refined
    grids = []
    solve = oracles._tridiag_lowest

    def recorded(diag, off, count, tol=0.0, guess=None):
        levels = solve(diag, off, count, tol=tol, guess=guess)
        grids.append((diag, off, guess, levels))
        return levels

    monkeypatch.setattr(oracles, "_tridiag_lowest", recorded)
    try:
        if kind == "pt":
            angular_pt_levels(*params, m)
        else:
            radial_spectrum(RadialProblem(kind, *params), m)
    except AccuracyNotReached:
        assert kind == "coulomb"
    for diag, off, guess, levels in grids:
        if kind == "coulomb":
            assert guess is None
            continue
        tight = oracles.eigh_tridiagonal(diag, off, select="i", select_range=(0, m - 1),
                                         eigvals_only=True, tol=np.finfo(float).tiny)
        assert np.max(np.abs(levels - tight)) <= _ulp_norm(diag, off)
    assert not grids or grids[0][2] is None   # the first grid anchors the indices


# --- angular problems --------------------------------------------------

def test_angular_free_box_values():
    lam = angular_pt_levels(Rational(1, 1), 0.0, 0.0, 3)
    assert np.allclose(lam, [4.0, 16.0, 36.0], rtol=1e-9)
    lam_k = angular_pt_levels(Rational(3, 2), 0.0, 0.0, 3)
    k2 = 1.5**2
    assert np.allclose(lam_k, [4.0 * k2, 16.0 * k2, 36.0 * k2], rtol=1e-9)


def test_angular_dual_solver_agreement():
    fd = angular_pt_levels(Rational(3, 1), 1.0, 2.0, 3)
    shoot = angular_pt_levels(Rational(3, 1), 1.0, 2.0, 3, method="shooting")
    assert np.max(np.abs(fd - shoot) / fd) < 1e-8


def test_angular_conventions_differ_by_k_squared_weighting():
    plain = angular_pt_levels(Rational(2, 1), 0.5, 0.5, 2, convention="plain")
    weighted = angular_pt_levels(Rational(2, 1), 0.125, 0.125, 2, convention="k2")
    assert np.allclose(plain, weighted, rtol=1e-10)


def test_angular_bound_violation():
    with pytest.raises(BoundViolation):
        angular_pt_levels(Rational(1, 1), -0.3, 0.0, 2)


# --- separated spectra --------------------------------------------------

def test_hydrogen_pair_levels_are_sums():
    spectrum = separated_spectrum(HydrogenPair(), 2, 2)
    energies = spectrum.energies()
    assert energies[0] == pytest.approx(-0.5, rel=1e-8)
    p = RadialProblem(kind="coulomb", coupling=1.0)
    e = radial_spectrum(p, 3)
    expected = sorted(e[i] + e[j] for i in range(3) for j in range(3))
    assert np.allclose(energies, expected, rtol=1e-9)
    assert len(set(spectrum.labels())) == len(spectrum.labels())


def test_caged_oscillator_sum_tower():
    spectrum = separated_spectrum(CagedOscillator(), 4, 4)
    assert np.allclose(spectrum.energies()[:6], [6.0, 10.0, 10.0, 14.0, 14.0, 14.0],
                       rtol=1e-8)
    # ground label (0, 0)
    assert spectrum.levels[0][1] == (0, 0)


def test_ttw_k1_matches_caged_multiset():
    ttw = separated_spectrum(TTW(omega=1.0, k=Rational(1, 1)), 6, 6)
    caged = separated_spectrum(CagedOscillator(), 6, 6)
    n = 10
    assert np.allclose(ttw.energies()[:n], caged.energies()[:n], rtol=1e-8)


def test_caged_levels_affine_in_quantum_numbers():
    spectrum = separated_spectrum(CagedOscillator(a=4.0, b=1.0, omega=1.0,
                                                  A=0.3, B=0.1), 6, 6)
    rows = spectrum.rows()[:20]
    design = np.array([[1.0, nx, ny] for nx, ny, _ in rows])
    target = np.array([e for _, _, e in rows])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = np.abs(design @ coef - target).max()
    assert resid < 1e-8


def test_threebody_ttw_uses_weighted_convention():
    spec = ThreeBodyTTW(omega=1.0, k=Rational(3, 1), alpha=0.2, beta=0.1)
    spectrum = separated_spectrum(spec, 2, 2)
    lam = angular_pt_levels(Rational(3, 1), 0.2, 0.1, 3, convention="k2")
    p = RadialProblem(kind="oscillator", coupling=1.0, c=lam[0] - 0.25)
    ground = radial_spectrum(p, 1)[0]
    assert spectrum.energies()[0] == pytest.approx(ground, rel=1e-9)


def test_pw_spectrum_dual_checked():
    spec = PW(a=1.0, k=Rational(2, 1), mu=0.5, nu=0.5)
    fd = separated_spectrum(spec, 1, 1)
    shoot = separated_spectrum(spec, 1, 1, method="shooting")
    assert np.max(np.abs(fd.energies() - shoot.energies()) / np.abs(fd.energies())) < 1e-7


def test_not_separable():
    with pytest.raises(NotSeparable):
        separated_spectrum(Custom2D(func=lambda x, y: x * y, name="xy"), 2, 2)


def test_golden_spectrum_file(request):
    # frozen oracle output under version control; regeneration must agree
    # to the certified accuracy
    golden = request.path.parent / "golden" / "ttw_k2_oracle.csv"
    rows = [line.split(",") for line in golden.read_text().splitlines()[1:]]
    expected = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
    spectrum = separated_spectrum(TTW(omega=1.0, k=Rational(2, 1),
                                      alpha=0.1875, beta=0.1875), 6, 4)
    assert len(spectrum.levels) == len(expected)
    for energy, label in spectrum.levels:
        assert energy == pytest.approx(expected[label], rel=1e-8)
