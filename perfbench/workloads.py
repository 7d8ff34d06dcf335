"""Seeded job lists for the benchmark workloads.

Every job is one ``few2d <config>`` invocation.  The seed draws the family
parameters (inside each family's validated bounds, in ranges narrow enough
that the cost of a job barely depends on the draw) and the eigensolver seed.
Each job also carries what its reference check needs; the program only ever
sees the config file.

Job sizes are set so that one pass of a workload takes a few seconds on a
2-core machine, so that comparing two commits over tens of runs per
workload fits in about an hour.
"""

from __future__ import annotations

import json
import random

# verify checks that complete today; wolfes-ttw3 and ttw1-caged crash the
# command (see known-defects) and gauge-isospectral alone takes ~16 s
VERIFY_CHECKS = ["calogero-b0", "gram-identity", "centrifugal-d3L0",
                 "centrifugal-d1L0"]
ALL_VERIFY_CHECKS = ["wolfes-ttw3", "calogero-b0", "gram-identity",
                     "centrifugal-d3L0", "centrifugal-d1L0", "ttw1-caged",
                     "gauge-isospectral"]


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _solver(rng: random.Random, levels: int) -> dict:
    return {"levels": levels, "tol": 1e-6, "seed": rng.randrange(2**31)}


def _job(job_id: str, config: dict, check: dict) -> dict:
    config = dict(config, output={"path": f"out/{job_id}"})
    return {"id": job_id, "config": config, "check": check}


def _caged_system(rng: random.Random, isotropic: bool) -> dict:
    a = _u(rng, 0.9, 1.1)
    big_a = _u(rng, 0.0, 0.3)
    return {"family": "caged_oscillator", "a": a,
            "b": a if isotropic else _u(rng, 1.5, 2.0),
            "omega": _u(rng, 0.9, 1.1), "A": big_a,
            "B": big_a if isotropic else _u(rng, 0.0, 0.3)}


def _reduction(box: float) -> dict:
    return {"d1": 3, "d2": 3, "L_x": 0, "L_y": 0,
            "box": {"x_max": box, "y_max": box}}


def _wolfes_map3(rng: random.Random) -> tuple[dict, dict]:
    wolfes = {"family": "wolfes", "omega": _u(rng, 0.9, 1.1),
              "A": _u(rng, 0.5, 1.5), "B": _u(rng, 1.0, 3.0)}
    return wolfes, {"command": "map3",
                    "threebody": {"masses": [2.0, 2.0, 2.0], "d": 1, "L1": 0,
                                  "L2": 0, "potential": wolfes}}


def _grid_large(rng: random.Random) -> list[dict]:
    """Few levels on the largest grids, where the eigensolver's matvec and
    Krylov-basis costs peak.  The isotropic oscillator has exactly degenerate
    pairs, so a solver that drops a copy fails its check."""
    caged = {"command": "solve", "system": _caged_system(rng, isotropic=True),
             "reduction": _reduction(12.0),
             "discretization": {"n1": 160, "n2": 160}, "solver": _solver(rng, 6)}
    hydrogen = {"command": "solve", "system": {"family": "hydrogen_pair"},
                "reduction": _reduction(60.0),
                "discretization": {"n1": 160, "n2": 160}, "solver": _solver(rng, 2)}
    return [
        _job("caged-iso-solve", caged, {"kind": "kronecker"}),
        _job("hydrogen-pair-solve", hydrogen, {"kind": "kronecker"}),
    ]


def _grid_ladder(rng: random.Random) -> list[dict]:
    """The same eigensolver with many levels on small-to-mid grids, plus
    assembly and reduction once per rung; TTW k = 2 takes the staggered-grid
    offset and the oracle error column of ``converge``."""
    caged = {"command": "converge", "system": _caged_system(rng, isotropic=False),
             "reduction": _reduction(12.0), "ladder": [40, 80, 120],
             "solver": _solver(rng, 12), "oracle": {"n_r_max": 6, "j_max": 6}}
    ttw = {"command": "converge",
           "system": {"family": "ttw", "omega": _u(rng, 0.9, 1.1),
                      "k": {"m": 2, "n": 1}, "alpha": _u(rng, 0.2, 0.5),
                      "beta": _u(rng, 0.2, 0.5)},
           "reduction": {"d1": 3, "d2": 3}, "ladder": [30, 60, 120],
           "solver": _solver(rng, 8), "oracle": {"n_r_max": 6, "j_max": 6}}
    wolfes, map3 = _wolfes_map3(rng)
    solve3 = {"command": "solve", "reduced_problem": "out/wolfes-map3.json",
              "discretization": {"n1": 80, "n2": 80}, "solver": _solver(rng, 6)}
    return [
        _job("caged-aniso-converge", caged, {"kind": "kronecker"}),
        _job("ttw2-converge", ttw, {"kind": "sectors"}),
        _job("wolfes-map3", map3, {"kind": "map3", "wolfes": wolfes}),
        _job("wolfes-reduced-solve", solve3, {"kind": "sectors", "wolfes": wolfes}),
    ]


def _oracle_certify(rng: random.Random) -> list[dict]:
    """No grid at all: the fd oracles, degeneracy scans, identity checks and
    the three-body map run while the eigensolver idles, so a grid solver
    change must leave this workload unchanged."""
    scan_ttw = {"command": "scan",
                "system": {"family": "ttw", "omega": _u(rng, 0.9, 1.1), "k": 1,
                           "alpha": _u(rng, 0.1, 0.5), "beta": _u(rng, 0.1, 0.5)},
                "scan": {"k_list": [1, 2, {"m": 3, "n": 2}, _u(rng, 1.2, 1.8)],
                         "levels_per_k": 20, "tol": 1e-8, "n_r_max": 8, "j_max": 6}}
    scan_ttw3 = {"command": "scan",
                 "system": {"family": "three_body_ttw", "omega": _u(rng, 0.9, 1.1),
                            "k": 3, "alpha": _u(rng, 0.1, 0.5),
                            "beta": _u(rng, 0.1, 0.5)},
                 "scan": {"k_list": [3, _u(rng, 2.2, 2.8)], "levels_per_k": 20,
                          "tol": 1e-8, "n_r_max": 8, "j_max": 6}}
    ttw = {"command": "oracle",
           "system": {"family": "ttw", "omega": _u(rng, 0.9, 1.1), "k": {"m": 3, "n": 2},
                      "alpha": _u(rng, 0.1, 0.5), "beta": _u(rng, 0.1, 0.5)},
           "oracle": {"n_r_max": 8, "j_max": 6}}
    verify = {"command": "verify", "checks": VERIFY_CHECKS}
    wolfes, map3 = _wolfes_map3(rng)
    return [
        _job("ttw-scan", scan_ttw, {"kind": "scan"}),
        _job("ttw3-scan", scan_ttw3, {"kind": "scan"}),
        _job("ttw-oracle-fd", ttw, {"kind": "oracle"}),
        _job("verify", verify, {"kind": "verify"}),
        _job("wolfes-map3", map3, {"kind": "map3", "wolfes": wolfes}),
    ]


def _oracle_loops(rng: random.Random) -> list[dict]:
    """The oracles whose cost is Python-level loops: the log-grid Sturm
    bisection of PW and hydrogen-pair radial shooting.  Not a benchmark
    workload: on a shared 2-core host such loops run up to twice as slow
    while the host is busy, far beyond the benchmark's bounds, whereas the
    compiled fd oracles of oracle-certify move by about a tenth."""
    pw = {"command": "oracle",
          "system": {"family": "pw", "a": _u(rng, 0.8, 1.2), "k": 2,
                     "mu": _u(rng, 0.1, 0.5), "nu": _u(rng, 0.1, 0.5)},
          "oracle": {"n_r_max": 0, "j_max": 1}}
    shooting = {"command": "oracle", "system": {"family": "hydrogen_pair"},
                "oracle": {"n_r_max": 0, "j_max": 0, "method": "shooting"}}
    return [
        _job("pw-oracle-sturm", pw, {"kind": "oracle"}),
        _job("hydrogen-oracle-shooting", shooting, {"kind": "oracle"}),
    ]


def _known_defects(rng: random.Random) -> list[dict]:
    """The failures the program has today, each at a known input: the caged
    400x400 solve drops a degenerate copy, angular shooting raises
    AccuracyNotReached at k = 2, (0, 0), and verify crashes on a numpy bool.
    Not a benchmark workload: its jobs fail, and it runs over a minute."""
    caged = {"command": "solve",
             "system": {"family": "caged_oscillator", "a": 1.0, "b": 1.0,
                        "omega": 1.0, "A": 0.0, "B": 0.0},
             "reduction": _reduction(12.0),
             "discretization": {"n1": 400, "n2": 400},
             "solver": {"levels": 6, "tol": 1e-6, "seed": 0}}
    shooting = {"command": "oracle",
                "system": {"family": "ttw", "omega": 1.0, "k": 2, "alpha": 0.0,
                           "beta": 0.0},
                "oracle": {"n_r_max": 0, "j_max": 2, "method": "shooting"}}
    verify = {"command": "verify", "checks": ALL_VERIFY_CHECKS}
    return [
        _job("caged-iso-400-solve", caged, {"kind": "kronecker"}),
        _job("ttw2-angular-shooting", shooting, {"kind": "oracle"}),
        _job("verify-all", verify, {"kind": "verify"}),
    ]


WORKLOADS = {
    "grid-large": _grid_large,
    "grid-ladder": _grid_ladder,
    "oracle-certify": _oracle_certify,
    "oracle-loops": _oracle_loops,
    "known-defects": _known_defects,
}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """Job list of ``workload`` for ``seed``; equal arguments give equal jobs."""
    rng = random.Random(f"few2d-bench/{workload}/{seed}")
    return WORKLOADS[workload](rng)


def config_bytes(job: dict) -> bytes:
    """Canonical config file contents of a job."""
    return (json.dumps(job["config"], indent=1, sort_keys=True) + "\n").encode()
