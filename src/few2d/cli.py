"""Configuration-driven command line: solve, oracle, map3, verify, scan, converge.

One JSON config per run (reproducibility over flag sprawl); a small set of
flags (--levels, --grid, --out) override the loaded config.  Every config is
read through one table, ``SCHEMA``, of ``schema`` types (the potential and
reduced-problem blocks of ``model`` and ``reduction`` included): per command
its top-level keys, per block each key's type, bounds and default.  Exit codes
are a stable contract: 0 success, 2 config or validation error, 3 numerical
non-convergence (an eigensolve whose partial results are still written, or a 1D
oracle that misses its accuracy target), 1 a failed verify check.

Every output file begins with a provenance header (tool version, config
hash, timestamp); outputs are bit-reproducible for a fixed seed, platform
and BLAS thread count except for the timestamp line.  Threaded BLAS inside
ARPACK can move the last bits: ``configs/caged_converge.json`` at
OPENBLAS_NUM_THREADS 1 and 2 differs in two cells of its 400 rung by 6e-15
relative.  CSV numbers carry 17 significant digits so doubles round-trip
exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import AccuracyNotReached, ConfigError, Few2DError, NotSeparable
from .discretize import assemble, make_grid
from .eigensolve import detect_degeneracies, lowest_eigs
from .model import POTENTIAL, k_float, k_from_json
from .oracles import separated_spectrum
from .reduction import (ANGULAR, BOX, DIMENSION, REDUCTION, Box, ReducedProblem2D,
                        map_threebody, reduce_to_2d)
from .schema import POSITIVE, REQUIRED, Block, Choice, List, Num, Parsed, Tagged
from .superintegrability import CHECKS, degeneracy_scan


# ---------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------

def _read_reduced_problem(src) -> ReducedProblem2D:
    """A ``map3`` output file, or the inline object it holds."""
    if isinstance(src, str):
        src = json.loads(Path(src).read_text())
    if isinstance(src, dict) and "reduced_problem" in src:
        src = src["reduced_problem"]
    return ReducedProblem2D.from_dict(src)


# Size bounds, each at least 10x the largest value a test, config or benchmark
# job uses; those of d and L are in ``reduction``
_MAX_GRID_NODES = 2_000_000   # nodes of a solve or converge grid; 400 x 400 is the largest
_MAX_LABEL = 200   # n_r_max and j_max, 12 at most; j_max + 1 stays below the 1200
                   # points of the coarsest angular fd grid

_INT0, _INT1, _LABEL, _TEXT = Num(True, 0), Num(True, 1), Num(True, 0, hi=_MAX_LABEL), Choice()
_DISCRETIZATION = Block({"n1": (_INT1, 200), "n2": (_INT1, 200)})
_SOLVER = Block({"levels": (_INT1, 6), "tol": (POSITIVE, 1e-6), "max_iter": (_INT1, None),
                 "seed": (_INT0, 0), "cluster_tol": (Num(False, 0.0), 1e-6)})
_THREEBODY = Block({"masses": (List(POSITIVE, length=3), REQUIRED),
                    "d": (DIMENSION, REQUIRED), "L1": (ANGULAR, 0), "L2": (ANGULAR, 0),
                    "potential": (POTENTIAL, REQUIRED), "box": (BOX, None)})
_SCAN = Block({"k_list": (List(Parsed(k_from_json)), REQUIRED),
               "levels_per_k": (_INT1, 20), "tol": (POSITIVE, 1e-8),
               "n_r_max": (_LABEL, 14), "j_max": (_LABEL, 10)})
_OUTPUT = Block({"path": (_TEXT, REQUIRED)})


def _oracle(labels: int) -> Block:
    """Keyword arguments of ``separated_spectrum``; both label ranges
    default to ``labels``."""
    return Block({"n_r_max": (_LABEL, labels), "j_max": (_LABEL, labels),
                  "method": (Choice(("fd", "shooting")), "fd"),
                  "cutoff": (POSITIVE, None), "target": (POSITIVE, 1e-8)})


def _command(**keys) -> Block:
    return Block({"command": (_TEXT, REQUIRED), **keys})


_GRID = {"system": (POTENTIAL, None), "reduced_problem": (Parsed(_read_reduced_problem), None),
         "reduction": (REDUCTION, {}), "solver": (_SOLVER, {}),
         "output": (_OUTPUT, REQUIRED)}
SCHEMA: dict[str, Block] = {
    "solve": _command(**_GRID, discretization=(_DISCRETIZATION, {})),
    "converge": _command(**_GRID, ladder=(List(_INT1), REQUIRED), oracle=(_oracle(10), {})),
    "oracle": _command(system=(POTENTIAL, REQUIRED), oracle=(_oracle(8), {}),
                       output=(_OUTPUT, REQUIRED)),
    "map3": _command(threebody=(_THREEBODY, REQUIRED), output=(_OUTPUT, REQUIRED)),
    "verify": _command(checks=(List(Choice(tuple(CHECKS))), REQUIRED),
                       output=(_OUTPUT, None)),
    "scan": _command(system=(POTENTIAL, REQUIRED), scan=(_SCAN, REQUIRED),
                     output=(_OUTPUT, REQUIRED)),
}
"""Per command, the config's top-level keys; per block, key -> (type, default)."""


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
    # the command picks the block, which is read once the flags are applied
    Tagged("command", dict.fromkeys(SCHEMA, dict)).parse(config, "config")
    return config


# ---------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _provenance(config: dict) -> dict:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return {"tool": "few2d", "version": __version__,
            "config_hash": hashlib.sha256(canon.encode()).hexdigest(),
            "timestamp": datetime.now(timezone.utc).isoformat()}


def _output_prefix(cfg: dict) -> Path | None:
    if cfg["output"] is None:
        return None
    prefix = Path(cfg["output"]["path"])
    prefix.parent.mkdir(parents=True, exist_ok=True)
    return prefix


def _header_lines(prov: dict, extra: dict | None = None) -> list[str]:
    return [f"# tool: few2d {prov['version']}", f"# config_hash: {prov['config_hash']}",
            f"# timestamp: {prov['timestamp']}"] + [
        f"# {key}: {val}" for key, val in (extra or {}).items()]


def _write_csv(path: Path, header_lines: list[str], columns: list[str],
               rows: list[tuple]) -> None:
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_json(path: Path, prov: dict, payload: dict) -> None:
    path.write_text(json.dumps({"provenance": prov, **payload}, indent=2) + "\n")


# ---------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------

def _problem(cfg: dict) -> ReducedProblem2D:
    """The reduced problem of a ``solve`` or ``converge`` config; one whose
    grid levels would not converge stops with exit 3 before any grid."""
    if (cfg["system"] is None) == (cfg["reduced_problem"] is None):
        raise ConfigError("config needs exactly one of 'system' and 'reduced_problem'")
    problem = cfg["reduced_problem"]
    if problem is None:
        red = cfg["reduction"]
        try:
            problem = reduce_to_2d(cfg["system"], d1=red["d1"], d2=red["d2"], L_x=red["L_x"],
                                   L_y=red["L_y"],
                                   box=Box(**red["box"]) if red["box"] else None)
        except ValueError as exc:
            raise ConfigError(f"invalid reduction {red}: {exc}") from exc
    refusal = problem.potential.grid_refusal()
    if refusal is not None:
        raise AccuracyNotReached(math.inf, cfg["solver"]["tol"], refusal)
    return problem


def _check_grid(n1: int, n2: int, levels: int, where: str) -> None:
    """Refuse, before anything is allocated, a grid above ``_MAX_GRID_NODES``
    nodes, one with fewer nodes than ``solver.levels``, or levels whose
    Krylov basis, n max(2 levels + 1, 20) numbers as ARPACK sizes it, exceeds
    that of 20 vectors on the largest grid allowed.  The bound also holds the
    dense solve of many levels on a small grid to about 1.5 times as many."""
    n = n1 * n2
    if n > _MAX_GRID_NODES:
        raise ConfigError(f"{where} asks for a {n1:g} x {n2:g} grid, more than the "
                          f"{_MAX_GRID_NODES} nodes allowed")
    if levels > n:
        raise ConfigError(f"solver.levels asks for {levels:g} levels, more than the "
                          f"{n} nodes of the {n1:g} x {n2:g} grid of {where}")
    if n * max(2 * levels + 1, 20) > 20 * _MAX_GRID_NODES:
        raise ConfigError(f"solver.levels asks for {levels:g} levels, whose Krylov basis "
                          f"on the {n1:g} x {n2:g} grid of {where} would hold more than "
                          f"{20 * _MAX_GRID_NODES} numbers")


def _lowest(op, solver: dict, prior=None):
    return lowest_eigs(op, solver["levels"], tol=solver["tol"],
                       max_iter=solver["max_iter"], seed=solver["seed"], prior=prior)


def _stopped_short(where: str) -> int:
    """Exit 3 of a run whose eigensolve did not converge; its partial results
    are already written."""
    print(f"error: the eigensolve did not converge on {where}; the levels found are written",
          file=sys.stderr)
    return 3


def run_solve(cfg: dict, prov: dict) -> int:
    problem = _problem(cfg)
    disc = cfg["discretization"]
    solver = cfg["solver"]
    _check_grid(disc["n1"], disc["n2"], solver["levels"], "discretization.n1 x n2")
    prefix = _output_prefix(cfg)

    grid = make_grid(problem.box, disc["n1"], disc["n2"], spec=problem.potential)
    op = assemble(problem, grid)
    result = _lowest(op, solver)
    report = detect_degeneracies(result.eigenvalues, tol_rel=solver["cluster_tol"])
    cluster_of = [cid for cid, (_, mult) in enumerate(report.clusters) for _ in range(mult)]

    extra = {
        "grid": f"{disc['n1']}x{disc['n2']} h=({_fmt(grid.h_x)},{_fmt(grid.h_y)})",
        "residual_max": _fmt(float(result.residuals.max())),
        "converged": str(result.converged).lower(),
    }
    rows = [(i, float(result.eigenvalues[i]), float(result.residuals[i]), cluster_of[i])
            for i in range(len(result.eigenvalues))]
    _write_csv(prefix.with_suffix(".csv"), _header_lines(prov, extra),
               ["index", "energy", "residual", "cluster"], rows)
    _write_json(prefix.with_suffix(".json"), prov, {
        "problem": problem.to_dict(),
        "grid": {"n1": disc["n1"], "n2": disc["n2"],
                 "h_x": grid.h_x, "h_y": grid.h_y,
                 "staggered_x": grid.staggered_x, "staggered_y": grid.staggered_y},
        "result": result.to_dict(),
        "clusters": report.to_dict(),
    })
    print(f"wrote {prefix.with_suffix('.csv')} ({len(rows)} levels, "
          f"max residual {result.residuals.max():.3g})")
    return 0 if result.converged else _stopped_short(f"the {disc['n1']}x{disc['n2']} grid")


def run_oracle(cfg: dict, prov: dict) -> int:
    spectrum = separated_spectrum(cfg["system"], **cfg["oracle"])
    prefix = _output_prefix(cfg)
    rows = [(l1, l2, float(e)) for (l1, l2, e) in spectrum.rows()]
    _write_csv(prefix.with_suffix(".csv"), _header_lines(prov, {"family": spectrum.family}),
               ["n_r", "j", "energy"], rows)
    _write_json(prefix.with_suffix(".json"), prov, {
        "family": spectrum.family,
        "params": spectrum.params,
        "levels": [{"energy": e, "labels": list(lab)} for e, lab in spectrum.levels],
    })
    print(f"wrote {prefix.with_suffix('.csv')} ({len(rows)} labeled levels)")
    return 0


def run_map3(cfg: dict, prov: dict) -> int:
    blk = cfg["threebody"]
    try:
        problem = map_threebody(blk["potential"], d=blk["d"], L1=blk["L1"], L2=blk["L2"],
                                box=Box(**blk["box"]) if blk["box"] else None,
                                masses=tuple(blk["masses"]))
    except ValueError as exc:
        raise ConfigError(f"invalid threebody block: {exc}") from exc
    prefix = _output_prefix(cfg)
    _write_json(prefix.with_suffix(".json"), prov, {"reduced_problem": problem.to_dict()})
    print(f"wrote {prefix.with_suffix('.json')}")
    return 0


def run_verify(cfg: dict, prov: dict) -> int:
    results = []
    for cid in cfg["checks"]:
        deviation, tol = CHECKS[cid]()
        results.append({"id": cid, "deviation": deviation, "tolerance": tol,
                        "passed": deviation <= tol})
    all_passed = all(r["passed"] for r in results)
    prefix = _output_prefix(cfg)
    if prefix is not None:
        _write_json(prefix.with_suffix(".json"), prov,
                    {"checks": results, "all_passed": all_passed})
    for r in results:
        print(f"{r['id']}: {'PASS' if r['passed'] else 'FAIL'} "
              f"(deviation {r['deviation']:.3g}, tolerance {r['tolerance']:.3g})")
    return 0 if all_passed else 1


def run_scan(cfg: dict, prov: dict) -> int:
    entries = degeneracy_scan(cfg["system"], **cfg["scan"])
    prefix = _output_prefix(cfg)
    rows = []
    for entry in entries:
        mult_of = [mult for _, mult in entry.report.clusters for _ in range(mult)]
        for idx, energy in enumerate(entry.levels):
            rows.append((k_float(entry.k), idx, float(energy), mult_of[idx]))
    _write_csv(prefix.with_suffix(".csv"), _header_lines(prov),
               ["k", "level", "energy", "multiplicity"], rows)
    _write_json(prefix.with_suffix(".json"), prov,
                {"entries": [e.to_dict() for e in entries]})
    print(f"wrote {prefix.with_suffix('.csv')} ({len(entries)} k values)")
    return 0


def _oracle_levels(problem: ReducedProblem2D, oracle: dict, levels: int):
    """The oracle's lowest ``levels`` energies, or None when the reduced
    problem has no separated oracle."""
    if problem.c_x != 0.0 or problem.c_y != 0.0:
        return None     # the oracles solve the potential without centrifugal terms
    try:
        energies = separated_spectrum(problem.potential, **oracle, count=levels).energies()
    except NotSeparable:
        return None
    if len(energies) < levels:
        raise ConfigError(
            f"the oracle has {len(energies)} levels with oracle.n_r_max = "
            f"{oracle['n_r_max']} and oracle.j_max = {oracle['j_max']}, fewer than "
            f"solver.levels = {levels:g}")
    return energies


def run_converge(cfg: dict, prov: dict) -> int:
    problem = _problem(cfg)
    solver = cfg["solver"]
    for i, n in enumerate(cfg["ladder"]):
        _check_grid(n, n, solver["levels"], f"ladder[{i}]")
    prefix = _output_prefix(cfg)
    oracle_levels = _oracle_levels(problem, cfg["oracle"], solver["levels"])

    # each rung places its slice from the eigenvectors of the rung before it
    runs, prior = [], None
    for n in cfg["ladder"]:
        grid = make_grid(problem.box, n, n, spec=problem.potential)
        op = assemble(problem, grid)
        result = _lowest(op, solver, prior)
        prior = op, result
        runs.append((grid.h_x, result.eigenvalues, result.converged))

    columns = ["h", "level", "energy"]
    if oracle_levels is not None:
        columns += ["error", "observed_order"]
    rows = []
    for ridx, (h, levels, _) in enumerate(runs):
        h_prev, prev, _ = runs[ridx - 1] if ridx else (h, (), None)
        # a rung that stopped short has fewer levels than the rung after it
        for lvl, energy in enumerate(levels):
            row = (float(h), lvl, float(energy))
            if oracle_levels is not None:
                err, order = abs(energy - oracle_levels[lvl]), float("nan")
                if lvl < len(prev):
                    err_prev = abs(prev[lvl] - oracle_levels[lvl])
                    # a rung repeating the step of the rung before it has no order
                    if err > 0 and err_prev > 0 and h != h_prev:
                        order = math.log(err_prev / err) / math.log(h_prev / h)
                row += (float(err), float(order))
            rows.append(row)
    _write_csv(prefix.with_suffix(".csv"), _header_lines(prov), columns, rows)
    print(f"wrote {prefix.with_suffix('.csv')} ({len(runs)} grids)")
    stopped = [f"{n}x{n}" for n, (_, _, converged) in zip(cfg["ladder"], runs) if not converged]
    if stopped:
        return _stopped_short(f"the {', '.join(stopped)} grid{'s' * (len(stopped) > 1)}")
    return 0


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

_RUNNERS = {"solve": run_solve, "oracle": run_oracle, "map3": run_map3,
            "verify": run_verify, "scan": run_scan, "converge": run_converge}


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
        command = config["command"]
        for flag, block, keys, value in (("--levels", "solver", ("levels",), args.levels),
                                         ("--grid", "discretization", ("n1", "n2"), args.grid),
                                         ("--out", "output", ("path",), args.out)):
            if value is None:
                continue
            if block not in SCHEMA[command].keys:
                raise ConfigError(f"{flag} does not apply to the {command} command")
            blk = config.setdefault(block, {})
            if isinstance(blk, dict):   # anything else fails validation below
                blk.update(dict.fromkeys(keys, value))
        cfg = SCHEMA[command].parse(config, "")
        return _RUNNERS[command](cfg, _provenance(config))
    except (Few2DError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, AccuracyNotReached) else 2


if __name__ == "__main__":
    sys.exit(main())
