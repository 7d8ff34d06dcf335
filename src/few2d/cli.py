"""Configuration-driven command line: solve, oracle, map3, verify, scan, converge.

One JSON config per run (reproducibility over flag sprawl); a small set of
flags (--levels, --grid, --out) override the loaded config.  Exit codes are
a stable contract: 0 success, 2 config or validation error, 3 numerical
non-convergence (partial results still written), 1 a failed verify check.

Every output file begins with a provenance header (tool version, config
hash, timestamp); outputs are bit-reproducible for a fixed seed and
platform except for the timestamp line.  CSV numbers carry 17 significant
digits so doubles round-trip exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import Few2DError, ConfigError, UnknownCheckId
from .discretize import assemble, make_grid
from .eigensolve import detect_degeneracies, lowest_eigs
from .model import (TTW, Calogero, Rational, ThreeBodyTTW, Wolfes, k_float, k_from_json,
                    spec_from_dict)
from .oracles import separated_spectrum
from .reduction import (
    Box,
    ReducedProblem2D,
    build_jacobi,
    kinetic_gram,
    map_threebody,
    reduce_to_2d,
)
from .superintegrability import degeneracy_scan

_COMMANDS = ("solve", "oracle", "map3", "verify", "scan", "converge")


# ---------------------------------------------------------------------
# config loading and validation
# ---------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _provenance(config: dict) -> dict:
    return {
        "tool": "few2d",
        "version": __version__,
        "config_hash": _config_hash(config),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _check_keys(obj: dict, allowed: set[str], where: str,
                required: set[str] = frozenset()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"unknown keys in {where}: {sorted(extra)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _load_box(obj, where: str) -> Box:
    _check_keys(obj, {"x_max", "y_max"}, where, {"x_max", "y_max"})
    try:
        return Box(float(obj["x_max"]), float(obj["y_max"]))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(config, dict):
        raise ConfigError("top-level config must be a JSON object")
    if "command" not in config:
        raise ConfigError("config needs a 'command' key")
    if config["command"] not in _COMMANDS:
        raise ConfigError(
            f"unknown command {config['command']!r}; expected one of {_COMMANDS}"
        )
    return config


def _load_spec(config: dict):
    if "system" not in config:
        raise ConfigError("config needs a 'system' block")
    try:
        return spec_from_dict(config["system"])
    except (ValueError, KeyError, TypeError, Few2DError) as exc:
        raise ConfigError(f"invalid system block: {exc}") from exc


def _load_reduced_problem(config: dict) -> ReducedProblem2D:
    if "reduced_problem" in config:
        src = config["reduced_problem"]
        if isinstance(src, str):
            try:
                payload = json.loads(Path(src).read_text())
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read reduced problem {src}: {exc}") from exc
        else:
            payload = src
        if "reduced_problem" in payload:
            payload = payload["reduced_problem"]
        try:
            return ReducedProblem2D.from_dict(payload)
        except (ValueError, KeyError, Few2DError) as exc:
            raise ConfigError(f"invalid reduced problem: {exc}") from exc
    spec = _load_spec(config)
    red = config.get("reduction", {})
    _check_keys(red, {"d1", "d2", "L_x", "L_y", "box"}, "reduction block")
    box = _load_box(red["box"], "reduction.box") if "box" in red else None
    try:
        return reduce_to_2d(spec, d1=int(red.get("d1", 3)), d2=int(red.get("d2", 3)),
                            L_x=int(red.get("L_x", 0)), L_y=int(red.get("L_y", 0)),
                            box=box)
    except (ValueError, TypeError, Few2DError) as exc:
        raise ConfigError(f"reduction failed: {exc}") from exc


def _solver_block(config: dict) -> dict:
    blk = config.get("solver", {})
    _check_keys(blk, {"levels", "tol", "max_iter", "seed", "ncv", "cluster_tol"},
                "solver block")
    return {
        "levels": int(blk.get("levels", 6)),
        "tol": float(blk.get("tol", 1e-6)),
        "max_iter": int(blk["max_iter"]) if "max_iter" in blk else None,
        "seed": int(blk.get("seed", 0)),
        "ncv": int(blk["ncv"]) if "ncv" in blk else None,
        "cluster_tol": float(blk.get("cluster_tol", 1e-6)),
    }


def _discretization_block(config: dict) -> dict:
    blk = config.get("discretization", {})
    _check_keys(blk, {"n1", "n2", "offset_rule"}, "discretization block")
    try:
        return {
            "n1": int(blk.get("n1", 200)),
            "n2": int(blk.get("n2", 200)),
            "offset_rule": blk.get("offset_rule", "auto"),
        }
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid discretization block: {exc}") from exc


def _output_prefix(config: dict, required: bool = True) -> Path | None:
    blk = config.get("output")
    if blk is None:
        if required:
            raise ConfigError("config needs an 'output' block with a 'path'")
        return None
    _check_keys(blk, {"path", "formats"}, "output block", {"path"})
    prefix = Path(blk["path"])
    prefix.parent.mkdir(parents=True, exist_ok=True)
    return prefix


def _header_lines(config: dict, extra: dict | None = None) -> list[str]:
    prov = _provenance(config)
    lines = [
        f"# tool: few2d {prov['version']}",
        f"# config_hash: {prov['config_hash']}",
        f"# timestamp: {prov['timestamp']}",
    ]
    for key, val in (extra or {}).items():
        lines.append(f"# {key}: {val}")
    return lines


def _write_csv(path: Path, header_lines: list[str], columns: list[str],
               rows: list[tuple]) -> None:
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_json(path: Path, config: dict, payload: dict) -> None:
    doc = {"provenance": _provenance(config)}
    doc.update(payload)
    path.write_text(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------

def run_solve(config: dict) -> int:
    problem = _load_reduced_problem(config)
    disc = _discretization_block(config)
    solver = _solver_block(config)
    prefix = _output_prefix(config)

    if solver["levels"] > disc["n1"] * disc["n2"]:
        raise ConfigError(
            f"requested {solver['levels']} levels exceeds grid dimension "
            f"{disc['n1'] * disc['n2']}"
        )
    grid = make_grid(problem.box, disc["n1"], disc["n2"], spec=problem.potential,
                     offset_rule=disc["offset_rule"])
    op = assemble(problem, grid)
    result = lowest_eigs(op, solver["levels"], tol=solver["tol"],
                         max_iter=solver["max_iter"], ncv=solver["ncv"],
                         seed=solver["seed"])
    report = detect_degeneracies(result.eigenvalues, tol_rel=solver["cluster_tol"])
    cluster_of = []
    for cid, (_, mult) in enumerate(report.clusters):
        cluster_of.extend([cid] * mult)

    extra = {
        "grid": f"{disc['n1']}x{disc['n2']} h=({_fmt(grid.h_x)},{_fmt(grid.h_y)})",
        "residual_max": _fmt(float(result.residuals.max())),
        "converged": str(result.converged).lower(),
    }
    rows = [(i, float(result.eigenvalues[i]), float(result.residuals[i]), cluster_of[i])
            for i in range(len(result.eigenvalues))]
    _write_csv(prefix.with_suffix(".csv"), _header_lines(config, extra),
               ["index", "energy", "residual", "cluster"], rows)
    _write_json(prefix.with_suffix(".json"), config, {
        "problem": problem.to_dict(),
        "grid": {"n1": disc["n1"], "n2": disc["n2"],
                 "h_x": grid.h_x, "h_y": grid.h_y,
                 "staggered_x": grid.staggered_x, "staggered_y": grid.staggered_y},
        "result": result.to_dict(),
        "clusters": report.to_dict(),
    })
    print(f"wrote {prefix.with_suffix('.csv')} ({len(rows)} levels, "
          f"max residual {result.residuals.max():.3g})")
    return 0 if result.converged else 3


def run_oracle(config: dict) -> int:
    spec = _load_spec(config)
    blk = config.get("oracle", {})
    _check_keys(blk, {"n_r_max", "j_max", "method", "cutoff", "target"}, "oracle block")
    spectrum = separated_spectrum(
        spec,
        n_r_max=int(blk.get("n_r_max", 8)),
        j_max=int(blk.get("j_max", 8)),
        method=blk.get("method", "fd"),
        cutoff=float(blk["cutoff"]) if blk.get("cutoff") is not None else None,
        target=float(blk.get("target", 1e-8)),
    )
    prefix = _output_prefix(config)
    rows = [(l1, l2, float(e)) for (l1, l2, e) in spectrum.rows()]
    _write_csv(prefix.with_suffix(".csv"), _header_lines(config, {"family": spectrum.family}),
               ["n_r", "j", "energy"], rows)
    _write_json(prefix.with_suffix(".json"), config, {
        "family": spectrum.family,
        "params": spectrum.params,
        "levels": [{"energy": e, "labels": list(lab)} for e, lab in spectrum.levels],
    })
    print(f"wrote {prefix.with_suffix('.csv')} ({len(rows)} labeled levels)")
    return 0


def run_map3(config: dict) -> int:
    blk = config.get("threebody")
    if blk is None:
        raise ConfigError("map3 needs a 'threebody' block")
    _check_keys(blk, {"masses", "d", "L1", "L2", "potential", "box"},
                "threebody block", {"masses", "d", "potential"})
    masses = tuple(float(x) for x in blk["masses"])
    if len(masses) != 3:
        raise ConfigError("threebody.masses must list three masses")
    try:
        spec = spec_from_dict(blk["potential"])
    except (ValueError, KeyError, Few2DError) as exc:
        raise ConfigError(f"invalid threebody.potential: {exc}") from exc
    box = _load_box(blk["box"], "threebody.box") if "box" in blk else None
    try:
        problem = map_threebody(spec, d=int(blk["d"]), L1=int(blk.get("L1", 0)),
                                L2=int(blk.get("L2", 0)), box=box, masses=masses)
    except ValueError as exc:
        raise ConfigError(f"invalid threebody block: {exc}") from exc
    prefix = _output_prefix(config)
    _write_json(prefix.with_suffix(".json"), config,
                {"reduced_problem": problem.to_dict()})
    print(f"wrote {prefix.with_suffix('.json')}")
    return 0


# --- verify registry --------------------------------------------------

def _check_wolfes_ttw3() -> tuple[float, float]:
    from .superintegrability import identity_check, ordered_line_to_jacobi_polar_bridge
    from .reduction import wolfes_to_ttw

    image = wolfes_to_ttw(1.0, 1.0, 2.0)
    res = identity_check(Wolfes(omega=1.0, A=1.0, B=2.0), image.as_spec(),
                         ordered_line_to_jacobi_polar_bridge(), samples=1000,
                         tol=1e-12)
    return res.max_rel_deviation, 1e-12


def _check_calogero_b0() -> tuple[float, float]:
    from .superintegrability import identity_check, ordered_line_to_jacobi_polar_bridge

    bridge = ordered_line_to_jacobi_polar_bridge()
    from .superintegrability import Bridge

    same = Bridge(sample_box=bridge.sample_box, to_a=bridge.to_a, to_b=bridge.to_a,
                  admissible=bridge.admissible)
    res = identity_check(Wolfes(omega=1.3, A=0.8, B=0.0), Calogero(omega=1.3, A=0.8),
                         same, samples=500, tol=1e-15)
    return res.max_rel_deviation, 1e-15


def _check_gram_identity() -> tuple[float, float]:
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        masses = tuple(rng.uniform(0.1, 10.0, size=3))
        gram = kinetic_gram(build_jacobi(masses, d=3))
        worst = max(worst, float(np.abs(gram - np.eye(3)).max()))
    return worst, 1e-13


def _check_centrifugal(d: int, L: int) -> tuple[float, float]:
    from .reduction import centrifugal_coefficient

    return abs(centrifugal_coefficient(d, L)), 0.0


def _check_ttw1_caged() -> tuple[float, float]:
    from .superintegrability import (
        fit_caged_image_of_ttw,
        identity_check,
        polar_to_cartesian_bridge,
    )

    ttw = TTW(omega=1.0, k=Rational(1, 1), alpha=0.3, beta=0.7)
    caged = fit_caged_image_of_ttw(ttw)
    res = identity_check(ttw, caged, polar_to_cartesian_bridge(), samples=500,
                         tol=1e-12)
    return res.max_rel_deviation, 1e-12


def _check_gauge_isospectral() -> tuple[float, float]:
    from .oracles import RadialProblem, pregauge_radial_levels, radial_spectrum
    from .reduction import centrifugal_coefficient

    worst = 0.0
    for d, L in ((2, 0), (5, 1)):
        pre = pregauge_radial_levels(d, L, cutoff=math.pi, m=5)
        c = centrifugal_coefficient(d, L)
        gauged = radial_spectrum(RadialProblem(kind="free", c=c, cutoff=math.pi), 5,
                                 method="shooting")
        worst = max(worst, float(np.max(np.abs(pre - gauged) / np.abs(gauged))))
    return worst, 1e-6


_CHECKS = {
    "wolfes-ttw3": _check_wolfes_ttw3,
    "calogero-b0": _check_calogero_b0,
    "gram-identity": _check_gram_identity,
    "centrifugal-d3L0": lambda: _check_centrifugal(3, 0),
    "centrifugal-d1L0": lambda: _check_centrifugal(1, 0),
    "ttw1-caged": _check_ttw1_caged,
    "gauge-isospectral": _check_gauge_isospectral,
}


def run_verify(config: dict) -> int:
    ids = config.get("checks")
    if ids is None and "check" in config:
        ids = [config["check"]]
    if ids is None:
        raise ConfigError("verify needs a 'checks' list (or single 'check')")
    results = []
    for cid in ids:
        if cid not in _CHECKS:
            raise UnknownCheckId(
                f"unknown check {cid!r}; known: {sorted(_CHECKS)}"
            )
        deviation, tol = _CHECKS[cid]()
        results.append({"id": cid, "deviation": deviation, "tolerance": tol,
                        "passed": deviation <= tol})
    all_passed = all(r["passed"] for r in results)
    prefix = _output_prefix(config, required=False)
    payload = {"checks": results, "all_passed": all_passed}
    if prefix is not None:
        _write_json(prefix.with_suffix(".json"), config, payload)
    for r in results:
        print(f"{r['id']}: {'PASS' if r['passed'] else 'FAIL'} "
              f"(deviation {r['deviation']:.3g}, tolerance {r['tolerance']:.3g})")
    return 0 if all_passed else 1


def run_scan(config: dict) -> int:
    spec = _load_spec(config)
    if not isinstance(spec, (TTW, ThreeBodyTTW)):
        raise ConfigError("scan needs a TTW-family system template")
    blk = config.get("scan", {})
    _check_keys(blk, {"k_list", "levels_per_k", "tol", "n_r_max", "j_max"},
                "scan block", {"k_list"})
    k_list = [k_from_json(item) for item in blk["k_list"]]
    entries = degeneracy_scan(spec, k_list,
                              levels_per_k=int(blk.get("levels_per_k", 20)),
                              tol=float(blk.get("tol", 1e-8)),
                              n_r_max=int(blk.get("n_r_max", 14)),
                              j_max=int(blk.get("j_max", 10)))
    prefix = _output_prefix(config)
    rows = []
    for entry in entries:
        mult_of = []
        for _, mult in entry.report.clusters:
            mult_of.extend([mult] * mult)
        for idx, energy in enumerate(entry.levels):
            rows.append((k_float(entry.k), idx, float(energy), mult_of[idx]))
    _write_csv(prefix.with_suffix(".csv"), _header_lines(config),
               ["k", "level", "energy", "multiplicity"], rows)
    _write_json(prefix.with_suffix(".json"), config,
                {"entries": [e.to_dict() for e in entries]})
    print(f"wrote {prefix.with_suffix('.csv')} ({len(entries)} k values)")
    return 0


def run_converge(config: dict) -> int:
    problem = _load_reduced_problem(config)
    solver = _solver_block(config)
    ladder = config.get("ladder")
    if not ladder or not isinstance(ladder, list):
        raise ConfigError("converge needs a 'ladder' list of grid sizes")
    ladder = [int(n) for n in ladder]
    prefix = _output_prefix(config)

    oracle_levels = None
    try:
        blk = config.get("oracle", {})
        _check_keys(blk, {"n_r_max", "j_max", "method", "cutoff", "target"},
                    "oracle block")
        spectrum = separated_spectrum(problem.potential,
                                      n_r_max=int(blk.get("n_r_max", 10)),
                                      j_max=int(blk.get("j_max", 10)),
                                      method=blk.get("method", "fd"))
        oracle_levels = spectrum.energies()[: solver["levels"]]
    except Few2DError:
        oracle_levels = None  # documented fallback: table without error column

    runs = []
    for n in ladder:
        grid = make_grid(problem.box, n, n, spec=problem.potential)
        op = assemble(problem, grid)
        result = lowest_eigs(op, solver["levels"], tol=solver["tol"],
                             max_iter=solver["max_iter"], ncv=solver["ncv"],
                             seed=solver["seed"])
        runs.append((grid.h_x, result))

    columns = ["h", "level", "energy"]
    if oracle_levels is not None:
        columns += ["error", "observed_order"]
    rows = []
    for ridx, (h, result) in enumerate(runs):
        for lvl in range(len(result.eigenvalues)):
            row = [float(h), lvl, float(result.eigenvalues[lvl])]
            if oracle_levels is not None:
                err = abs(result.eigenvalues[lvl] - oracle_levels[lvl])
                row.append(float(err))
                if ridx > 0:
                    h_prev, res_prev = runs[ridx - 1]
                    err_prev = abs(res_prev.eigenvalues[lvl] - oracle_levels[lvl])
                    if err > 0 and err_prev > 0:
                        order = math.log(err_prev / err) / math.log(h_prev / h)
                        row.append(float(order))
                    else:
                        row.append(float("nan"))
                else:
                    row.append(float("nan"))
            rows.append(tuple(row))
    _write_csv(prefix.with_suffix(".csv"), _header_lines(config), columns, rows)
    print(f"wrote {prefix.with_suffix('.csv')} ({len(ladder)} grids)")
    if not all(result.converged for _, result in runs):
        return 3
    return 0


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

_RUNNERS = {
    "solve": run_solve,
    "oracle": run_oracle,
    "map3": run_map3,
    "verify": run_verify,
    "scan": run_scan,
    "converge": run_converge,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="few2d",
        description="Planar reduction and spectra of O(d)xO(d)-symmetric and "
                    "3-body quantum problems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("config", help="JSON run configuration")
    parser.add_argument("--levels", type=int, default=None,
                        help="override solver.levels")
    parser.add_argument("--grid", type=int, default=None,
                        help="override discretization.n1 and n2")
    parser.add_argument("--out", default=None, help="override output.path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.levels is not None:
            config.setdefault("solver", {})["levels"] = args.levels
        if args.grid is not None:
            config.setdefault("discretization", {})["n1"] = args.grid
            config["discretization"]["n2"] = args.grid
        if args.out is not None:
            config.setdefault("output", {})["path"] = args.out
        return _RUNNERS[config["command"]](config)
    except (ConfigError, UnknownCheckId) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Few2DError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
