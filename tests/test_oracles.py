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


@pytest.mark.parametrize("cutoff", [math.inf, math.nan, -1.0, 0.0],
                         ids=["inf", "nan", "negative", "zero"])
def test_a_cutoff_that_is_not_finite_and_positive_is_refused(cutoff):
    # each used to fail later and elsewhere: an OverflowError sizing the grid,
    # a "weight is too steep" refusal, or (zero) levels far above the closed form
    with pytest.raises(ValueError, match="cutoff must be finite and positive"):
        RadialProblem(kind="oscillator", coupling=100.0, cutoff=cutoff)
    with pytest.raises(ValueError, match="cutoff must be finite and positive"):
        oracles.pregauge_radial_levels(3, 0, cutoff, 2)


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


def test_failed_lapack_bisection_is_an_accuracy_failure():
    # at a = 1e300 the oscillator's operator spans ~1e300 and dstebz gives up
    with pytest.raises(AccuracyNotReached, match=r"fd backend, radial oscillator problem "
                       r"\(coupling=1e\+150.*LAPACK failed on the 1500-point grid"):
        separated_spectrum(CagedOscillator(a=1e300), 0, 0)


def test_fd_overflow_is_refused_before_any_grid_is_built(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the operator was assembled")

    monkeypatch.setattr(oracles, "_weighted_fd_operator", unreachable)
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
    cold, _ = oracles._tridiag_lowest(diag, off, 5)
    bisections.clear()
    for rel in (1e-4, 1e-8):
        warm, _ = oracles._tridiag_lowest(diag, off, 5, guess=cold * (1.0 + rel))
        assert np.max(np.abs(warm - cold)) <= 2.0 * _ulp_norm(diag, off)
    assert bisections == []


@pytest.mark.parametrize("kind", ["radial", "angular"])
@pytest.mark.parametrize("wrong", ["shifted", "duplicated"])
def test_wrong_guess_fails_the_certificate_and_bisects(kind, wrong, bisections):
    diag, off = _assembled(kind)
    m = 4
    cold, _ = oracles._tridiag_lowest(diag, off, m + 1)
    guess = cold[1:] if wrong == "shifted" else np.concatenate([cold[:1], cold[:m - 1]])
    bisections.clear()
    levels, _ = oracles._tridiag_lowest(diag, off, m, guess=guess)
    assert bisections == [(0, m - 1)]
    assert np.array_equal(levels, oracles._tridiag_lowest(diag, off, m)[0])


def _tight(diag, off, m):
    return oracles.eigh_tridiagonal(diag, off, select="i", select_range=(0, m - 1),
                                    eigvals_only=True, tol=np.finfo(float).tiny)


def test_a_failed_certificate_bisects_to_the_smallest_tolerance(monkeypatch):
    diag, off = _assembled("angular")
    monkeypatch.setattr(oracles, "_refined_levels", lambda *args: None)
    levels, _ = oracles._tridiag_lowest(diag, off, 4, guess=np.arange(4.0))
    assert np.array_equal(levels, _tight(diag, off, 4))


def test_an_oscillator_ladder_bisects_only_its_quarter_grid(fd_work):
    levels = radial_spectrum(RadialProblem(kind="oscillator", coupling=1.0), 4)
    assert np.allclose(levels, [3.0, 7.0, 11.0, 15.0], rtol=1e-8)
    assert fd_work.refined[:3] == [(1500, True), (3001, True), (6003, True)]
    assert all(certified for _, certified in fd_work.refined)
    assert [size for size, _ in fd_work.bisected] == [1500 // 4]


@pytest.fixture
def inverse_solves(monkeypatch):
    sizes = []
    solve = oracles.dgtsv

    def counted(dl, d, du, b, **kwargs):
        sizes.append(d.size)
        return solve(dl, d, du, b, **kwargs)

    monkeypatch.setattr(oracles, "dgtsv", counted)
    return sizes


def test_a_one_level_ladder_stops_on_its_certificate(inverse_solves, fd_work):
    # the gauged angular ground level is 0 up to rounding: no stopping rule
    # scaled by its size can pass, while the certificate passes at once
    level = angular_pt_levels(2, 0.1875, 0.1875, 1)
    assert level == pytest.approx([_pt_level(2.0, 0.1875, 0.1875, 0)], rel=1e-8)
    assert fd_work.refined == [(1200, True), (2401, True), (4803, True)]
    assert all(inverse_solves.count(size) <= 2 for size in (1200, 2401, 4803))
    assert [size for size, _ in fd_work.bisected] == [300]


def test_a_prediction_shifted_by_one_level_falls_back_to_bisection(monkeypatch):
    bisect, sizes = oracles.eigh_tridiagonal, []

    def shifted(diag, off, select_range, **kwargs):
        sizes.append(diag.size)
        if kwargs["tol"] > np.finfo(float).tiny:     # the quarter grid's prediction
            select_range = (select_range[0] + 1, select_range[1] + 1)
        return bisect(diag, off, select_range=select_range, **kwargs)

    monkeypatch.setattr(oracles, "eigh_tridiagonal", shifted)
    s = 0.5 + math.sqrt(2.25)
    scheme = oracles._WeightedScheme(lambda x: 2.0 * s * np.log(x), lambda x: x**2,
                                     (0.0, 12.0), natural=(True, False))
    levels, _ = scheme.levels(4, 3000)
    assert sizes == [750, 3000]
    diag, off = _assembled("radial")
    assert np.array_equal(levels, _tight(diag, off, 4))


def test_a_quarter_grid_whose_operator_overflows_is_skipped(bisections):
    # the weight ratio (x + h)^(2e6) / x^(2e6) at x = 1 overflows for h = 1/1001,
    # the quarter of a 4000-point grid, but not for h = 1/4001
    args = (lambda x: 2e6 * np.log(x), np.zeros_like, (1.0, 2.0))
    with pytest.raises(AccuracyNotReached, match="1000-point operator"):
        oracles._weighted_fd_operator(*args, 1000, False, False)
    levels, _ = oracles._WeightedScheme(*args, natural=(False, False)).levels(2, 4000)
    assert bisections == [(0, 1)]
    diag, off = oracles._weighted_fd_operator(*args, 4000, False, False)
    assert np.array_equal(levels, _tight(diag, off, 2))


def test_a_rayleigh_shift_stays_near_its_prediction(monkeypatch):
    # on the first grid of this ladder the first Rayleigh quotient of level 3
    # (near 16) is 21.2 from the fixed start vector, nearer level 4 (near 20):
    # a shift moved there would find level 4 twice
    grids = []
    refine = oracles._refined_levels

    def recorded(diag, off, guess, start=None):
        grids.append((diag, off, guess))
        return refine(diag, off, guess, start)

    monkeypatch.setattr(oracles, "_refined_levels", recorded)
    radial_spectrum(RadialProblem(kind="oscillator", coupling=1.0, c=0.75), 5)
    diag, off, guess = grids[0]
    assert diag.size == 1500 and np.allclose(guess, [4.0, 8.0, 12.0, 16.0, 20.0], rtol=1e-3)
    levels, _ = refine(diag, off, guess)
    assert np.max(np.abs(levels - _tight(diag, off, 5))) <= _ulp_norm(diag, off)
    monkeypatch.setattr(oracles, "_SHIFT_WINDOW", math.inf)
    assert refine(diag, off, guess) is None


# --- nested iteration: each grid starts from the eigenvectors before it ---

@pytest.mark.parametrize("solve, grids, first_steps", [
    (lambda: radial_spectrum(RadialProblem(kind="oscillator", coupling=1.0, c=2.0), 4),
     (1500, 3001, 6003), 9),
    (lambda: angular_pt_levels(2.0, 3.0, 5.0, 4), (1200, 2401, 4803), 8),
], ids=["radial", "angular"])
def test_finer_grids_take_one_inverse_step_per_level(solve, grids, first_steps, monkeypatch):
    # the first grid iterates from the fixed start vector; each finer grid
    # from the prolonged eigenvectors of the grid before it, on which one
    # step already meets the stopping rule
    steps, solved = {}, []
    inverse_step, lowest = oracles._inverse_step, oracles._tridiag_lowest

    def counted(diag, *args):
        steps[diag.size] = steps.get(diag.size, 0) + 1
        return inverse_step(diag, *args)

    def recorded(diag, off, count, guess=None, start=None):
        levels, vectors = lowest(diag, off, count, guess=guess, start=start)
        solved.append((diag, off, levels, vectors))
        return levels, vectors

    monkeypatch.setattr(oracles, "_inverse_step", counted)
    monkeypatch.setattr(oracles, "_tridiag_lowest", recorded)
    solve()
    assert [diag.size for diag, *_ in solved] == list(grids)
    assert steps == {grids[0]: first_steps, grids[1]: 4, grids[2]: 4}
    for diag, off, levels, vectors in solved:
        assert vectors is not None and vectors.shape == (diag.size, 4)
        assert np.max(np.abs(levels - _tight(diag, off, 4))) <= _ulp_norm(diag, off)


def _dirichlet(n):
    """A Dirichlet operator (no natural end) on n points: a box with a linear potential."""
    return oracles._weighted_fd_operator(np.zeros_like, lambda x: 5.0 * x, (0.0, 3.0), n,
                                         False, False)


def _eigenvectors(diag, off, m):
    return oracles.eigh_tridiagonal(diag, off, select="i", select_range=(0, m - 1))[1]


@pytest.mark.parametrize("kind", ["radial", "angular"])
@pytest.mark.parametrize("wrong", ["reversed", "other operator"])
@pytest.mark.parametrize("m", [1, 4])
def test_start_vectors_of_the_wrong_level_cost_steps_not_levels(kind, wrong, m):
    diag, off = _assembled(kind)
    tight = _tight(diag, off, m + 2)
    if wrong == "reversed":
        start = _eigenvectors(diag, off, m + 2)[:, ::-1][:, :m]
    else:
        start = _eigenvectors(*_dirichlet(diag.size), m)
    levels, vectors = oracles._tridiag_lowest(diag, off, m, guess=tight[:m] * (1.0 + 1e-8),
                                              start=np.asfortranarray(start))
    # certified, or else bisected through the fallback
    assert np.max(np.abs(levels - tight[:m])) <= _ulp_norm(diag, off)
    assert vectors is None or vectors.shape == (diag.size, m)


def _plain_inverse_step(diag, off, shift, x):
    """``_inverse_step`` written with fresh arrays and ``np.linalg.norm``."""
    *_, y, info = oracles.dgtsv(off, diag - shift, off, x)
    assert info == 0
    x = y / np.linalg.norm(y)
    tx = diag * x
    tx[:-1] += off * x[1:]
    tx[1:] += off * x[:-1]
    lam = x @ tx
    return x, lam, np.linalg.norm(tx - lam * x)


@pytest.mark.parametrize("kind", ["radial", "angular", "dirichlet"])
def test_inverse_step_and_norm_keep_their_bits(kind):
    diag, off = _dirichlet(2000) if kind == "dirichlet" else _assembled(kind)
    # _ulp_norm spells ||T|| out with np.append and np.insert; eps scales it exactly
    assert np.finfo(float).eps * oracles._norm(diag, off) == _ulp_norm(diag, off)
    start = np.random.default_rng(0).standard_normal(diag.size)
    kept = start.copy()
    for shift in _tight(diag, off, 3) * (1.0 + 1e-6):
        x, plain_x = start, start
        for _ in range(3):
            x, lam, res = oracles._inverse_step(diag, off, shift, x)
            plain_x, plain_lam, plain_res = _plain_inverse_step(diag, off, shift, plain_x)
            assert np.array_equal(x, plain_x)
            assert lam == plain_lam and res == plain_res
    # the start vector, shared by every level on a grid, is left as it was
    assert np.array_equal(start, kept)


def test_log_grid_coulomb_is_only_bisected(monkeypatch):
    def unreachable(*args):
        raise AssertionError("dgtsv was called on the log grid")

    monkeypatch.setattr(oracles, "dgtsv", unreachable)
    levels = radial_spectrum(RadialProblem(kind="coulomb", coupling=1.0, c=2.0), 2)
    assert np.allclose(levels, [-1.0 / 16.0, -1.0 / 36.0], rtol=1e-8)


@pytest.mark.parametrize("c", [0.5, 2.0, 6.0])
def test_richardson_estimate_bounds_the_oscillator_error(c, monkeypatch):
    # the ladder's grids halve h exactly, so the h^2 and h^4 eliminations
    # cancel those terms and the estimate bounds the error that remains
    estimates = []
    extrapolate = oracles._richardson

    def recorded(*grids):
        levels, err = extrapolate(*grids)
        estimates.append(err)
        return levels, err

    monkeypatch.setattr(oracles, "_richardson", recorded)
    levels = radial_spectrum(RadialProblem(kind="oscillator", coupling=1.0, c=c), 3)
    exact = np.array([_oscillator_level(1.0, c, n) for n in range(3)])
    error = np.abs(levels - exact) / exact
    assert np.all(error <= 1e-11)
    assert np.all(error <= estimates[-1])


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

    def recorded(diag, off, count, guess=None, start=None):
        levels, vectors = solve(diag, off, count, guess=guess, start=start)
        grids.append((diag, off, guess, levels))
        return levels, vectors

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
    # the quarter grid predicts the first grid, so no weighted grid is bisected cold
    assert kind == "coulomb" or all(guess is not None for _, _, guess, _ in grids)


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
    lam = angular_pt_levels(Rational(3, 1), 0.2 * 3.0**2, 0.1 * 3.0**2, 3)
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


def _golden_rows(request, name):
    text = (request.path.parent / "golden" / name).read_text()
    return [line.split(",") for line in text.splitlines()[1:]]


def test_golden_spectrum_file(request):
    # frozen oracle output under version control; regeneration must agree
    # to the certified accuracy
    expected = {(int(r[0]), int(r[1])): float(r[2])
                for r in _golden_rows(request, "ttw_k2_oracle.csv")}
    spectrum = separated_spectrum(TTW(omega=1.0, k=Rational(2, 1),
                                      alpha=0.1875, beta=0.1875), 6, 4)
    assert len(spectrum.levels) == len(expected)
    for energy, label in spectrum.levels:
        assert energy == pytest.approx(expected[label], rel=1e-8)


def test_golden_log_grid_spectrum_file(request):
    # PW's radial problems are Coulomb with c != 0: the log-grid ladder
    expected = {(int(r[0]), int(r[1])): float(r[2])
                for r in _golden_rows(request, "pw_k2_oracle.csv")}
    spectrum = separated_spectrum(PW(a=1.0, k=Rational(2, 1), mu=0.3, nu=0.4), 1, 1)
    assert len(spectrum.levels) == len(expected) == 4
    for energy, label in spectrum.levels:
        assert energy == pytest.approx(expected[label], rel=1e-8)


def test_golden_pregauge_levels_file(request):
    rows = _golden_rows(request, "pregauge_radial.csv")
    assert len(rows) == 10
    for d, L in ((2, 0), (5, 1)):
        expected = [float(r[3]) for r in rows if (int(r[0]), int(r[1])) == (d, L)]
        levels = oracles.pregauge_radial_levels(d, L, math.pi, 5)
        assert levels == pytest.approx(expected, rel=1e-8)


# --- the lowest count levels of a label box ------------------------------

@pytest.mark.parametrize("spec", [
    CagedOscillator(),
    CagedOscillator(a=2.0, b=1.0, omega=1.0, A=0.3, B=0.1),
    HydrogenPair(),
    TTW(omega=1.0, k=Rational(2, 1), alpha=0.1875, beta=0.1875),
    TTW(omega=1.0, k=math.sqrt(2.0), alpha=0.2, beta=0.3),
    ThreeBodyTTW(omega=1.0, k=Rational(3, 1), alpha=0.2, beta=0.1),
    ThreeBodyTTW(omega=1.0, k=2.5, alpha=0.2, beta=0.1),
    PW(a=1.0, k=Rational(2, 1), mu=0.3, nu=0.4),
], ids=["caged-iso", "caged-aniso", "hydrogen-pair", "ttw-k2", "ttw-sqrt2",
        "ttw3-k3", "ttw3-k2.5", "pw-k2"])
def test_count_levels_are_the_lowest_of_the_full_box(spec):
    n_r_max, j_max = 2, 2
    full = separated_spectrum(spec, n_r_max, j_max)
    box = {(a, b) for a in range(n_r_max + 1) for b in range(j_max + 1)}
    assert len(full.levels) == len(box) and set(full.labels()) == box
    energies = full.energies()
    for count in range(1, len(box) + 1):
        part = separated_spectrum(spec, n_r_max, j_max, count=count)
        assert len(part.levels) == count
        assert part.energies() == pytest.approx(energies[:count], rel=1e-8)
        # labels agree, except inside an exact multiplet that count cuts
        edge = energies[count - 1]
        tied = {lab for e, lab in full.levels if abs(e - edge) <= 1e-8 * abs(edge)}
        assert ({lab for lab in part.labels() if lab not in tied}
                == {lab for lab in full.labels()[:count] if lab not in tied})
        assert {lab for lab in part.labels() if lab in tied} <= tied


def test_count_beyond_the_box_returns_the_box_and_zero_is_refused():
    spec = TTW(omega=1.0, k=Rational(2, 1), alpha=0.1875, beta=0.1875)
    assert len(separated_spectrum(spec, 1, 1, count=10).levels) == 4
    with pytest.raises(ValueError):
        separated_spectrum(spec, 1, 1, count=0)
