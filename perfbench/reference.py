"""Independent references for every job's output, and the checks against them.

Nothing here calls few2d: the references are closed forms and an exact
discrete spectrum computed independently.

* Separable grid jobs (caged oscillator, hydrogen pair): the 5-point operator
  is the Kronecker sum Tx (x) I + I (x) Ty, so its spectrum, multiplicities
  included, is every sum of two 1D stencil-plus-potential eigenvalues
  (``scipy.linalg.eigh_tridiagonal``).
* Non-separable grid jobs (TTW family on the quadrant): the closed form.  An
  integer k cuts the quadrant into k isospectral sectors, so every closed-form
  level appears k times.  A grid level passes when it lies within half the
  gap to the neighbouring closed-form level, i.e. when the discretization
  error alone cannot explain a mismatch.
* Oracle and scan jobs: closed forms of the half-line oscillator and Coulomb
  problems with gauge exponent s = 1/2 + sqrt(1/4 + c) and of the
  Poeschl-Teller angular levels.
* verify: exit 0 and ``all_passed: true``.  map3: the closed-form image.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import eigh_tridiagonal

# closed-form comparisons: the fd oracle certifies 1e-8 relative accuracy
ORACLE_RTOL = 1e-7
MAP3_RTOL = 1e-9


# ---------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------

def gauge_exponent(c: float) -> float:
    return 0.5 + math.sqrt(0.25 + c)


def centrifugal(d: int, L: int) -> float:
    return L * (L + d - 2) + (d - 1) * (d - 3) / 4.0


def oscillator_level(w: float, c: float, n: int) -> float:
    """n-th level of -u'' + (w^2 x^2 + c/x^2) u on the half-line."""
    return w * (4 * n + 2 * gauge_exponent(c) + 1)


def coulomb_level(z: float, c: float, n: int) -> float:
    """n-th level of -u'' + (-z/x + c/x^2) u on the half-line."""
    return -z * z / (4.0 * (n + gauge_exponent(c)) ** 2)


def pt_level(k: float, a_coeff: float, b_coeff: float, j: int) -> float:
    """j-th level of -f'' + [A/cos^2(k t) + B/sin^2(k t)] f on (0, pi/(2k))."""
    a = 0.5 + math.sqrt(0.25 + a_coeff / k**2)
    b = 0.5 + math.sqrt(0.25 + b_coeff / k**2)
    return k * k * (2 * j + a + b) ** 2


def k_value(k) -> float:
    if isinstance(k, dict):
        return k["m"] / k["n"]
    return float(k)


def closed_form_level(system: dict, n_r: int, j: int) -> float:
    """Exact level with labels (n_r, j) of a separable family.

    Cartesian families label (n_x, n_y); polar ones (n_r, angular j).
    """
    fam = system["family"]
    if fam == "caged_oscillator":
        w = system["omega"]
        return (oscillator_level(math.sqrt(system["a"]) * w, system["A"], n_r)
                + oscillator_level(math.sqrt(system["b"]) * w, system["B"], j))
    if fam == "hydrogen_pair":
        return coulomb_level(1.0, 0.0, n_r) + coulomb_level(1.0, 0.0, j)
    if fam in ("ttw", "three_body_ttw"):
        k = k_value(system["k"])
        weight = k * k if fam == "three_body_ttw" else 1.0
        lam = pt_level(k, weight * system["alpha"], weight * system["beta"], j)
        return oscillator_level(system["omega"], lam - 0.25, n_r)
    if fam == "pw":
        k = k_value(system["k"]) / 2.0
        lam = pt_level(k, system["mu"], system["nu"], j)
        return coulomb_level(system["a"], lam - 0.25, n_r)
    raise ValueError(f"no closed form for family {fam!r}")


def closed_form_spectrum(system: dict, n_r_max: int, j_max: int) -> np.ndarray:
    """Sorted closed-form levels over the label box n_r <= n_r_max, j <= j_max."""
    return np.sort([closed_form_level(system, i, j)
                    for i in range(n_r_max + 1) for j in range(j_max + 1)])


def cluster_sizes(levels: np.ndarray, tol_rel: float) -> list[int]:
    """Multiplicity of each sorted level under greedy neighbour clustering."""
    sizes, start = [], 0
    for i in range(1, len(levels) + 1):
        if i == len(levels) or levels[i] - levels[i - 1] > tol_rel * max(1.0, abs(levels[i - 1])):
            sizes.extend([i - start] * (i - start))
            start = i
    return sizes


# ---------------------------------------------------------------------
# exact discrete spectrum of separable grid problems
# ---------------------------------------------------------------------

def axis_levels(n: int, extent: float, potential, m: int) -> np.ndarray:
    """Lowest m eigenvalues of the Dirichlet 3-point stencil plus potential."""
    h = extent / (n + 1)
    x = h * np.arange(1, n + 1)
    diag = 2.0 / h**2 + potential(x)
    off = np.full(n - 1, -1.0 / h**2)
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, min(m, n) - 1),
                            eigvals_only=True)


def kronecker_lowest(ex: np.ndarray, ey: np.ndarray, m: int) -> np.ndarray:
    """Lowest m eigenvalues of Tx (x) I + I (x) Ty from the axis spectra."""
    return np.sort((ex[:, None] + ey[None, :]).ravel())[:m]


def _axis_potentials(system: dict, reduction: dict):
    c_x = centrifugal(reduction.get("d1", 3), reduction.get("L_x", 0))
    c_y = centrifugal(reduction.get("d2", 3), reduction.get("L_y", 0))
    fam = system["family"]
    if fam == "caged_oscillator":
        w2 = system["omega"] ** 2
        a, b = system["a"], system["b"]
        big_a, big_b = system["A"] + c_x, system["B"] + c_y
        return (lambda x: a * w2 * x**2 + big_a / x**2,
                lambda y: b * w2 * y**2 + big_b / y**2)
    if fam == "hydrogen_pair":
        return (lambda x: -1.0 / x + c_x / x**2, lambda y: -1.0 / y + c_y / y**2)
    raise ValueError(f"family {fam!r} is not separable on the grid")


def kronecker_reference(config: dict, n: int, m: int) -> np.ndarray:
    """Exact lowest m levels of a separable solve/converge config at n x n."""
    reduction = config["reduction"]
    box = reduction["box"]
    vx, vy = _axis_potentials(config["system"], reduction)
    ex = axis_levels(n, box["x_max"], vx, m)
    ey = axis_levels(n, box["y_max"], vy, m)
    return kronecker_lowest(ex, ey, m)


def sector_reference(system: dict, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest m closed-form quadrant levels of an integer-k TTW-family system,
    and for each the half-gap to the nearest different closed-form level."""
    k = k_value(system["k"])
    sectors = round(k)
    if sectors != k:
        raise ValueError("sector references need integer k")
    single = closed_form_spectrum(system, m, m)
    # exact degeneracies of different label pairs differ by rounding only
    distinct = single[np.r_[True, np.diff(single) > 1e-9 * np.abs(single[1:])]]
    levels = np.repeat(single, sectors)[:m]
    half_gap = []
    for e in levels:
        i = int(np.argmin(np.abs(distinct - e)))
        gaps = [distinct[i + 1] - e] if i + 1 < len(distinct) else []
        if i > 0:
            gaps.append(e - distinct[i - 1])
        half_gap.append(0.5 * min(gaps))
    return levels, np.array(half_gap)


# ---------------------------------------------------------------------
# reading outputs and checking jobs
# ---------------------------------------------------------------------

@dataclass
class JobCheck:
    """Outcome of one job's reference check.

    ``levels`` counts the reference-checked levels and ``certified`` those
    that passed; ``grid_*`` restrict both to grid (eigensolver) levels.
    """

    levels: int = 0
    certified: int = 0
    grid_levels: int = 0
    grid_certified: int = 0
    reason: str | None = None


def _csv_rows(path: Path) -> list[dict]:
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _compare(got, ref, tol, what: str, out: JobCheck, grid: bool) -> None:
    got = np.asarray(got, dtype=float)
    out.levels += len(ref)
    if grid:
        out.grid_levels += len(ref)
    if len(got) != len(ref):
        out.reason = out.reason or f"{what}: {len(got)} levels written, {len(ref)} expected"
        return
    ok = np.abs(got - ref) <= tol
    out.certified += int(ok.sum())
    if grid:
        out.grid_certified += int(ok.sum())
    if not ok.all():
        i = int(np.argmin(ok))
        out.reason = out.reason or (
            f"{what}: level {i} is {got[i]:.10g}, reference {ref[i]:.10g}")


def _grid_rungs(config: dict, prefix: Path, out: JobCheck) -> list[tuple[int, list[float]]]:
    """(n, energies) per grid of a solve or converge output, in ladder order.

    Solve CSVs hold one grid; converge CSVs group their rows by h.
    """
    ladder = config.get("ladder") or [config["discretization"]["n1"]]
    rungs: dict[str, list[float]] = {}
    for r in _csv_rows(prefix.with_suffix(".csv")):
        rungs.setdefault(r.get("h", ""), []).append(float(r["energy"]))
    if len(rungs) != len(ladder):
        out.reason = f"{len(rungs)} grids written, {len(ladder)} expected"
        return []
    return list(zip(ladder, rungs.values()))


def _check_kronecker(job, prefix: Path, out: JobCheck) -> None:
    config = job["config"]
    m, tol = config["solver"]["levels"], config["solver"]["tol"]
    for n, got in _grid_rungs(config, prefix, out):
        ref = kronecker_reference(config, n, m)
        _compare(got, ref, tol + 1e-9 * np.abs(ref), f"{n}x{n}", out, grid=True)


def _check_sectors(job, prefix: Path, out: JobCheck) -> None:
    """Only the finest grid is checked: coarse rungs of a ladder may miss the
    closed form by more than half a gap."""
    config = job["config"]
    wolfes = job["check"].get("wolfes")
    system = ttw3_from_wolfes(wolfes) if wolfes else config["system"]
    rungs = _grid_rungs(config, prefix, out)
    if rungs:
        n, got = rungs[-1]
        ref, half_gap = sector_reference(system, config["solver"]["levels"])
        _compare(got, ref, half_gap, f"{n}x{n}", out, grid=True)


def _check_oracle(job, prefix: Path, out: JobCheck) -> None:
    config = job["config"]
    rows = _csv_rows(prefix.with_suffix(".csv"))
    blk = config["oracle"]
    labels = sorted((int(r["n_r"]), int(r["j"])) for r in rows)
    want = [(i, j) for i in range(blk["n_r_max"] + 1) for j in range(blk["j_max"] + 1)]
    if labels != want:
        out.reason = f"labels {labels} differ from {want}"
        return
    got = [float(r["energy"]) for r in rows]
    ref = np.array([closed_form_level(config["system"], int(r["n_r"]), int(r["j"]))
                    for r in rows])
    _compare(got, ref, ORACLE_RTOL * np.abs(ref), "oracle", out, grid=False)


def _check_scan(job, prefix: Path, out: JobCheck) -> None:
    config = job["config"]
    blk = config["scan"]
    rows = _csv_rows(prefix.with_suffix(".csv"))
    by_k: dict[str, list[dict]] = {}
    for r in rows:
        by_k.setdefault(r["k"], []).append(r)
    if len(by_k) != len(blk["k_list"]):
        out.reason = f"{len(by_k)} k values written, {len(blk['k_list'])} expected"
        return
    for k, group in zip(blk["k_list"], by_k.values()):
        system = dict(config["system"], k=k)
        ref = closed_form_spectrum(system, blk["n_r_max"], blk["j_max"])[: blk["levels_per_k"]]
        got = [float(r["energy"]) for r in group]
        _compare(got, ref, ORACLE_RTOL * np.abs(ref), f"k={k_value(k):g}", out, grid=False)
        mult = [int(r["multiplicity"]) for r in group]
        if out.reason is None and mult != cluster_sizes(ref, blk["tol"]):
            out.reason = f"k={k_value(k):g}: multiplicities {mult} differ from the closed form"
            out.certified -= len(ref)


def _check_verify(job, prefix: Path, out: JobCheck) -> None:
    doc = json.loads(prefix.with_suffix(".json").read_text())
    ids = [c["id"] for c in doc["checks"]]
    failed = [c["id"] for c in doc["checks"] if c["passed"] is not True]
    if ids != job["config"]["checks"] or failed or doc["all_passed"] is not True:
        out.reason = f"verify: checks {ids}, failed {failed}, all_passed {doc['all_passed']}"


def ttw3_from_wolfes(wolfes: dict) -> dict:
    """Closed-form three-body TTW (k = 3) image of the equal-mass Wolfes model:
    omega' = sqrt(3/2) omega, alpha = A, beta = B / 3."""
    return {"family": "three_body_ttw", "omega": math.sqrt(1.5) * wolfes["omega"],
            "k": 3, "alpha": wolfes["A"], "beta": wolfes["B"] / 3.0}


def _check_map3(job, prefix: Path, out: JobCheck) -> None:
    doc = json.loads(prefix.with_suffix(".json").read_text())["reduced_problem"]
    want = ttw3_from_wolfes(job["check"]["wolfes"])
    pot = doc["potential"]
    same = (pot["family"] == want["family"] and pot["k"] == {"m": 3, "n": 1}
            and doc["c_x"] == 0.0 and doc["c_y"] == 0.0
            and all(math.isclose(pot[key], want[key], rel_tol=MAP3_RTOL)
                    for key in ("omega", "alpha", "beta")))
    if not same:
        out.reason = f"map3: reduced problem {doc} differs from the image {want}"


_CHECKS = {
    "kronecker": _check_kronecker,
    "sectors": _check_sectors,
    "oracle": _check_oracle,
    "scan": _check_scan,
    "verify": _check_verify,
    "map3": _check_map3,
}


def check_job(job: dict, out_dir: Path, outcome: str) -> JobCheck:
    """Check one job's outputs in ``out_dir``; ``outcome`` is "exit 0" when the
    run itself succeeded, otherwise the exit code or exception it ended with."""
    out = JobCheck()
    if outcome != "exit 0":
        out.reason = outcome
        return out
    try:
        _CHECKS[job["check"]["kind"]](job, out_dir / job["id"], out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        out.reason = f"unreadable output: {type(exc).__name__}: {exc}"
    return out
