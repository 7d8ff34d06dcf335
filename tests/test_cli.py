"""Command-line frontend: configs, exit codes, artifacts, reproducibility."""

import json
import math
import re
from pathlib import Path

import pytest

from few2d import cli
from few2d.cli import SCHEMA, main
from few2d.reduction import REDUCED_PROBLEM
from few2d.schema import Block


def _write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=1))
    return str(path)


def _solve_config(tmp_path, **overrides):
    config = {
        "command": "solve",
        "system": {"family": "caged_oscillator", "a": 1.0, "b": 1.0,
                   "omega": 1.0, "A": 0.0, "B": 0.0},
        "reduction": {"d1": 3, "d2": 3, "L_x": 0, "L_y": 0,
                      "box": {"x_max": 12.0, "y_max": 12.0}},
        "discretization": {"n1": 60, "n2": 60},
        "solver": {"levels": 4, "tol": 1e-6, "seed": 0},
        "output": {"path": str(tmp_path / "out" / "caged")},
    }
    config.update(overrides)
    return config


def test_solve_writes_spectrum_with_provenance(tmp_path):
    cfg = _write_config(tmp_path, "solve.json", _solve_config(tmp_path))
    assert main([cfg]) == 0
    csv = (tmp_path / "out" / "caged.csv").read_text().splitlines()
    assert csv[0].startswith("# tool: few2d")
    assert csv[1].startswith("# config_hash: ")
    assert csv[2].startswith("# timestamp: ")
    header = csv[[i for i, l in enumerate(csv) if not l.startswith("#")][0]]
    assert header == "index,energy,residual,cluster"
    doc = json.loads((tmp_path / "out" / "caged.json").read_text())
    assert doc["result"]["converged"] is True
    energies = [float(line.split(",")[1]) for line in csv if line[:1].isdigit()]
    assert energies[0] == pytest.approx(6.0, rel=5e-3)


def test_solve_is_reproducible_excluding_timestamp(tmp_path):
    cfg1 = _write_config(tmp_path, "a.json",
                         _solve_config(tmp_path, output={"path": str(tmp_path / "r1")}))
    cfg2 = _write_config(tmp_path, "b.json",
                         _solve_config(tmp_path, output={"path": str(tmp_path / "r2")}))
    assert main([cfg1]) == 0
    assert main([cfg2]) == 0

    def strip(path):
        return [l for l in path.read_text().splitlines()
                if not l.startswith("# timestamp")
                and not l.startswith("# config_hash")]

    assert strip(tmp_path / "r1.csv") == strip(tmp_path / "r2.csv")


def test_csv_numbers_round_trip_doubles(tmp_path):
    cfg = _write_config(tmp_path, "solve.json", _solve_config(tmp_path))
    assert main([cfg]) == 0
    doc = json.loads((tmp_path / "out" / "caged.json").read_text())
    csv = (tmp_path / "out" / "caged.csv").read_text().splitlines()
    rows = [l for l in csv if l[:1].isdigit()]
    for row, exact in zip(rows, doc["result"]["eigenvalues"]):
        assert float(row.split(",")[1]) == exact


def test_malformed_json_exits_2_with_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"command": "solve",\n  "system": }')
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_unknown_keys_rejected(tmp_path):
    cfg = _write_config(tmp_path, "solve.json",
                        _solve_config(tmp_path, discretization={"n1": 60, "n2": 60,
                                                                "n3": 4}))
    assert main([cfg]) == 2


def test_levels_exceeding_grid_dimension_exit_2(tmp_path, capsys):
    config = _solve_config(tmp_path)
    config["discretization"] = {"n1": 10, "n2": 10}
    config["solver"] = {"levels": 101}
    cfg = _write_config(tmp_path, "solve.json", config)
    assert main([cfg]) == 2
    err = capsys.readouterr().err
    assert "solver.levels asks for 101 levels" in err and "discretization.n1 x n2" in err


def test_nonconvergence_exits_3_with_partial_results(tmp_path):
    config = _solve_config(tmp_path)
    config["solver"] = {"levels": 4, "tol": 1e-12, "max_iter": 30}
    cfg = _write_config(tmp_path, "solve.json", config)
    assert main([cfg]) == 3
    assert (tmp_path / "out" / "caged.csv").exists()


def test_solve_json_reports_inertia_count(tmp_path):
    # the 4th level of the 60x60 caged grid is one copy of an exact pair, so
    # the slice above it counts 5 eigenvalues
    cfg = _write_config(tmp_path, "solve.json", _solve_config(tmp_path))
    assert main([cfg]) == 0
    doc = json.loads((tmp_path / "out" / "caged.json").read_text())
    assert doc["result"]["count_below"] == 5
    assert doc["result"]["factor_nnz"] > 0


def test_unmatched_inertia_count_exits_3(tmp_path, monkeypatch):
    import few2d.eigensolve as eigensolve

    count = eigensolve._negative_pivots
    monkeypatch.setattr(eigensolve, "_negative_pivots", lambda lu: count(lu) + 1)
    cfg = _write_config(tmp_path, "solve.json", _solve_config(tmp_path))
    assert main([cfg]) == 3
    doc = json.loads((tmp_path / "out" / "caged.json").read_text())
    assert doc["result"]["converged"] is False
    assert len(doc["result"]["eigenvalues"]) == 4
    # a completion attempt that adds no level below tau ends the search, so
    # the miscount, which never goes away, does not spend the 20000-solve budget
    assert doc["result"]["iterations"] < 2000


def test_unmatched_inertia_count_on_the_slice_path_exits_3(tmp_path, monkeypatch):
    # 64x64 coarsens to 32x32: the slice at the estimated gap, over the two
    # exchange sectors of the isotropic grid, meets the miscount first, then
    # the Gershgorin fallback on the whole grid meets it again
    import few2d.eigensolve as eigensolve

    count = eigensolve._negative_pivots
    dims = []

    def miscounted(lu):
        dims.append(lu.shape[0])
        return count(lu) + 1

    monkeypatch.setattr(eigensolve, "_negative_pivots", miscounted)
    cfg = _write_config(tmp_path, "solve.json",
                        _solve_config(tmp_path, discretization={"n1": 64, "n2": 64}))
    assert main([cfg]) == 3
    # coarse count, then the slice's sectors, then the fallback's whole grid
    assert dims == [32 * 32, 64 * 65 // 2, 64 * 63 // 2, 64 * 64]
    doc = json.loads((tmp_path / "out" / "caged.json").read_text())
    assert doc["result"]["converged"] is False
    assert len(doc["result"]["eigenvalues"]) == 4


def test_cli_overrides(tmp_path):
    config = _solve_config(tmp_path)
    cfg = _write_config(tmp_path, "solve.json", config)
    out = str(tmp_path / "alt" / "run")
    assert main([cfg, "--levels", "2", "--grid", "40", "--out", out]) == 0
    doc = json.loads((tmp_path / "alt" / "run.json").read_text())
    assert len(doc["result"]["eigenvalues"]) == 2
    assert doc["grid"]["n1"] == 40


def test_oracle_command_writes_labeled_levels(tmp_path):
    config = {
        "command": "oracle",
        "system": {"family": "caged_oscillator", "a": 1.0, "b": 1.0, "omega": 1.0,
                   "A": 0.0, "B": 0.0},
        "oracle": {"n_r_max": 3, "j_max": 3},
        "output": {"path": str(tmp_path / "oracle")},
    }
    cfg = _write_config(tmp_path, "oracle.json", config)
    assert main([cfg]) == 0
    lines = [l for l in (tmp_path / "oracle.csv").read_text().splitlines()
             if l[:1].isdigit()]
    assert lines[0].split(",")[:2] == ["0", "0"]
    assert float(lines[0].split(",")[2]) == pytest.approx(6.0, rel=1e-8)


def _pw_oracle_config(tmp_path, k):
    return _write_config(tmp_path, "pw.json", {
        "command": "oracle",
        "system": {"family": "pw", "a": 1.0, "k": k, "mu": 0.0, "nu": 0.0},
        "oracle": {"n_r_max": 0, "j_max": 0},
        "output": {"path": str(tmp_path / "pw")},
    })


def test_pw_oracle_near_the_friedrichs_borderline_is_exact(tmp_path):
    # k = 0.1 puts the ground sector at c = -0.24, s = 0.6: E = -1/(4 s^2)
    assert main([_pw_oracle_config(tmp_path, 0.1)]) == 0
    row = [l for l in (tmp_path / "pw.csv").read_text().splitlines() if l[:1].isdigit()][0]
    assert float(row.split(",")[2]) == pytest.approx(-1.0 / 1.44, rel=1e-8)


def test_pw_oracle_too_close_to_the_borderline_exits_3(tmp_path, capsys):
    # k = 0.01 gives c = -0.2499: the inner wall 1e-8 needs lies below the floor
    assert main([_pw_oracle_config(tmp_path, 0.01)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: fd backend, radial coulomb problem") and "c=-0.2499" in err


def test_map3_output_feeds_solve(tmp_path):
    map_config = {
        "command": "map3",
        "threebody": {"masses": [2.0, 2.0, 2.0], "d": 1,
                      "potential": {"family": "wolfes", "omega": 1.0,
                                    "A": 1.0, "B": 2.0}},
        "output": {"path": str(tmp_path / "reduced")},
    }
    cfg = _write_config(tmp_path, "map3.json", map_config)
    assert main([cfg]) == 0
    doc = json.loads((tmp_path / "reduced.json").read_text())
    pot = doc["reduced_problem"]["potential"]
    assert pot["family"] == "three_body_ttw"
    assert pot["k"] == {"m": 3, "n": 1}
    assert pot["alpha"] == pytest.approx(1.0, rel=1e-9)

    solve_config = {
        "command": "solve",
        "reduced_problem": str(tmp_path / "reduced.json"),
        "discretization": {"n1": 40, "n2": 40},
        "solver": {"levels": 1, "tol": 1e-5},
        "output": {"path": str(tmp_path / "solved")},
    }
    cfg2 = _write_config(tmp_path, "solve.json", solve_config)
    assert main([cfg2]) == 0


# an attractive coupling on a singular ray inside the quadrant: the grid levels
# run to -infinity (TTW k = 2, alpha = beta = -0.05 gave -28910 on 80x80
# against the closed form 9.899), so solve and converge stop before any grid
_ATTRACTIVE_RAYS = {
    "ttw-k2-solve": ("solve", {"family": "ttw", "omega": 1.0, "k": 2, "alpha": -0.05,
                               "beta": -0.05}, "alpha = -0.05", math.pi / 4),
    "three-body-ttw-k3-converge": ("converge", {"family": "three_body_ttw", "omega": 1.0,
                                                "k": 3, "alpha": 0.1, "beta": -0.05},
                                   "beta = -0.05", math.pi / 3),
    "pw-k4-solve": ("solve", {"family": "pw", "a": 1.0, "k": 4, "mu": -0.05, "nu": 0.1},
                    "mu = -0.05", math.pi / 4),
}


@pytest.mark.parametrize("case", sorted(_ATTRACTIVE_RAYS))
def test_attractive_coupling_on_an_interior_ray_exits_3(tmp_path, capsys, case):
    command, system, coupling, ray = _ATTRACTIVE_RAYS[case]
    make = _solve_config if command == "solve" else _converge_config
    config = make(tmp_path, system=system, reduction={"d1": 3, "d2": 3})
    assert main([_write_config(tmp_path, "grid.json", config)]) == 3
    err = capsys.readouterr().err
    assert coupling in err and f"theta = {ray:.9g}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "conv.csv").exists()


def test_wolfes_image_with_an_attractive_pair_coupling_exits_3(tmp_path, capsys):
    # A = -0.05 maps to the cos coupling of TTW(k=3), whose ray pi/6 is interior
    map_config = {
        "command": "map3",
        "threebody": {"masses": [2.0, 2.0, 2.0], "d": 1,
                      "potential": {"family": "wolfes", "omega": 1.0, "A": -0.05, "B": 2.0}},
        "output": {"path": str(tmp_path / "reduced")},
    }
    assert main([_write_config(tmp_path, "map3.json", map_config)]) == 0
    solve_config = _solve_config(tmp_path, reduced_problem=str(tmp_path / "reduced.json"))
    del solve_config["system"], solve_config["reduction"]
    capsys.readouterr()
    assert main([_write_config(tmp_path, "solve.json", solve_config)]) == 3
    err = capsys.readouterr().err
    alpha = float(re.search(r"alpha = (\S+) of three_body_ttw", err).group(1))
    assert alpha == pytest.approx(-0.05, rel=1e-9)
    assert f"theta = {math.pi / 6:.9g}" in err


def test_verify_command_passes_fast_checks(tmp_path):
    config = {
        "command": "verify",
        "checks": ["gram-identity", "centrifugal-d3L0", "centrifugal-d1L0",
                   "calogero-b0"],
        "output": {"path": str(tmp_path / "verify")},
    }
    cfg = _write_config(tmp_path, "verify.json", config)
    assert main([cfg]) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["all_passed"] is True


def test_verify_unknown_check_exits_2(tmp_path):
    cfg = _write_config(tmp_path, "verify.json",
                        {"command": "verify", "checks": ["no-such-check"]})
    assert main([cfg]) == 2


def test_scan_command_annotates_orders(tmp_path):
    config = {
        "command": "scan",
        "system": {"family": "ttw", "omega": 1.0, "k": {"m": 1, "n": 1},
                   "alpha": 0.1875, "beta": 0.1875},
        "scan": {"k_list": [{"m": 2, "n": 1}, 1.4142135623730951],
                 "levels_per_k": 12, "n_r_max": 8, "j_max": 6},
        "output": {"path": str(tmp_path / "scan")},
    }
    cfg = _write_config(tmp_path, "scan.json", config)
    assert main([cfg]) == 0
    doc = json.loads((tmp_path / "scan.json").read_text())
    assert doc["entries"][0]["integral_order"] == 4
    assert doc["entries"][1]["integral_order"] is None
    csv = [l for l in (tmp_path / "scan.csv").read_text().splitlines()
           if not l.startswith("#")]
    assert csv[0] == "k,level,energy,multiplicity"
    assert len(csv) == 1 + 2 * 12


def test_converge_custom2d_has_no_error_column(tmp_path):
    config = {
        "command": "converge",
        "system": {"family": "custom2d", "expression": "x**2 + y**2"},
        "reduction": {"d1": 3, "d2": 3, "box": {"x_max": 12.0, "y_max": 12.0}},
        "ladder": [20, 40],
        "solver": {"levels": 2, "tol": 1e-5},
        "output": {"path": str(tmp_path / "conv")},
    }
    cfg = _write_config(tmp_path, "conv.json", config)
    assert main([cfg]) == 0
    csv = [l for l in (tmp_path / "conv.csv").read_text().splitlines()
           if not l.startswith("#")]
    assert csv[0] == "h,level,energy"


def test_converge_caged_observed_order_near_two(tmp_path):
    config = {
        "command": "converge",
        "system": {"family": "caged_oscillator", "a": 1.0, "b": 1.0, "omega": 1.0,
                   "A": 0.0, "B": 0.0},
        "reduction": {"d1": 3, "d2": 3, "box": {"x_max": 12.0, "y_max": 12.0}},
        "ladder": [50, 100],
        "solver": {"levels": 2, "tol": 1e-7},
        "oracle": {"n_r_max": 3, "j_max": 3},
        "output": {"path": str(tmp_path / "conv")},
    }
    cfg = _write_config(tmp_path, "conv.json", config)
    assert main([cfg]) == 0
    rows = [l.split(",") for l in (tmp_path / "conv.csv").read_text().splitlines()
            if not l.startswith("#") and not l.startswith("h,")]
    orders = [float(r[4]) for r in rows if not math.isnan(float(r[4]))]
    assert orders and all(1.8 < p < 2.2 for p in orders)


_BAD_INPUTS = {
    "negative-box": lambda tmp: _solve_config(
        tmp, reduction={"d1": 3, "d2": 3, "box": {"x_max": -1.0, "y_max": 12.0}}),
    "non-integer-n1": lambda tmp: _solve_config(
        tmp, discretization={"n1": "abc", "n2": 60}),
    "missing-reduced-problem": lambda tmp: {
        "command": "solve", "reduced_problem": str(tmp / "absent.json"),
        "output": {"path": str(tmp / "solved")}},
    "custom2d-unknown-name": lambda tmp: _solve_config(
        tmp, system={"family": "custom2d", "expression": "foo + x"}),
    "oracle-negative-k": lambda tmp: {
        **_oracle_config(tmp),
        "system": {"family": "ttw", "omega": 1.0, "k": -0.5, "alpha": 0.0, "beta": 0.0}},
    # a reduced problem is built through the reduction, which refuses both
    "reduced-calogero": lambda tmp: _inline_reduced_config(
        tmp, potential={"family": "calogero", "omega": 1.0, "A": 0.5}),
    "reduced-custom2d-depends-on-angles": lambda tmp: _inline_reduced_config(
        tmp, potential={"family": "custom2d", "expression": "x**2 + y**2",
                        "depends_on_angles": True}),
    "map3-unequal-masses": lambda tmp: {
        "command": "map3",
        "threebody": {"masses": [1, 2, 3], "d": 1,
                      "potential": {"family": "wolfes", "omega": 1.0, "A": 1.0,
                                    "B": 2.0}},
        "output": {"path": str(tmp / "reduced")}},
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, case):
    cfg = _write_config(tmp_path, "bad.json", _BAD_INPUTS[case](tmp_path))
    assert main([cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _converge_config(tmp_path, **overrides):
    config = {
        "command": "converge",
        "system": {"family": "caged_oscillator", "a": 1.0, "b": 1.0, "omega": 1.0,
                   "A": 0.0, "B": 0.0},
        "reduction": {"d1": 3, "d2": 3, "box": {"x_max": 12.0, "y_max": 12.0}},
        "ladder": [20, 40],
        "solver": {"levels": 2, "tol": 1e-6},
        "oracle": {"n_r_max": 3, "j_max": 3},
        "output": {"path": str(tmp_path / "conv")},
    }
    config.update(overrides)
    return config


def _scan_config(tmp_path, **scan):
    return {"command": "scan",
            "system": {"family": "ttw", "omega": 1.0, "k": 1, "alpha": 0.2, "beta": 0.2},
            "scan": {"k_list": [1], "levels_per_k": 4, "n_r_max": 2, "j_max": 2, **scan},
            "output": {"path": str(tmp_path / "scan")}}


def _verify_config(tmp_path, **overrides):
    return {"command": "verify", "checks": ["gram-identity"], **overrides}


def _map3_config(tmp_path, **threebody):
    return {"command": "map3",
            "threebody": {"masses": [2.0, 2.0, 2.0], "d": 1,
                          "potential": {"family": "wolfes", "omega": 1.0, "A": 1.0,
                                        "B": 2.0}, **threebody},
            "output": {"path": str(tmp_path / "reduced")}}


def _oracle_config(tmp_path, **oracle):
    return {"command": "oracle",
            "system": {"family": "caged_oscillator", "a": 1.0, "b": 1.0, "omega": 1.0,
                       "A": 0.0, "B": 0.0},
            "oracle": {"n_r_max": 1, "j_max": 1, **oracle},
            "output": {"path": str(tmp_path / "oracle")}}


def _solver(**keys):
    return {"levels": 2, "tol": 1e-6, **keys}


# malformed inputs, each with the block and key its error line must name
_PROBES = {
    "levels-string": (lambda t: _solve_config(t, solver=_solver(levels="abc")),
                      "solver.levels"),
    "levels-zero": (lambda t: _solve_config(t, solver=_solver(levels=0)), "solver.levels"),
    "levels-negative": (lambda t: _solve_config(t, solver=_solver(levels=-3)),
                        "solver.levels"),
    "levels-bool": (lambda t: _solve_config(t, solver=_solver(levels=True)), "solver.levels"),
    "levels-fraction": (lambda t: _solve_config(t, solver=_solver(levels=2.7)),
                        "solver.levels"),
    "tol-string": (lambda t: _solve_config(t, solver=_solver(tol="x")), "solver.tol"),
    "n1-fraction": (lambda t: _solve_config(t, discretization={"n1": 20.9, "n2": 20}),
                    "discretization.n1"),
    "offset-rule": (lambda t: _solve_config(
        t, discretization={"n1": 20, "n2": 20, "offset_rule": "auto"}),
        "offset_rule"),
    "output-path-number": (lambda t: _solve_config(t, output={"path": 5}), "output.path"),
    "output-formats": (lambda t: _solve_config(
        t, output={"path": str(t / "out"), "formats": ["csv"]}), "formats"),
    "top-level-typo": (lambda t: _solve_config(t, solvr={"levels": 2}), "solvr"),
    "checks-nested": (lambda t: _verify_config(t, checks=[[1]]), "checks[0]"),
    "checks-string": (lambda t: _verify_config(t, checks="gram-identity"), "checks"),
    "check-alias": (lambda t: {"command": "verify", "check": "gram-identity"}, "check"),
    "verify-extra-key": (lambda t: _verify_config(t, extra=1), "extra"),
    "k-list-string": (lambda t: _scan_config(t, k_list=["abc"]), "scan.k_list[0]"),
    "levels-per-k-string": (lambda t: _scan_config(t, levels_per_k="x"),
                            "scan.levels_per_k"),
    "mass-string": (lambda t: _map3_config(t, masses=["a", 2, 2]), "threebody.masses[0]"),
    "oracle-method": (lambda t: _oracle_config(t, method="bogus"), "oracle.method"),
    "converge-oracle-method": (lambda t: _converge_config(
        t, oracle={"n_r_max": 3, "j_max": 3, "method": "bogus"}), "oracle.method"),
    "oracle-n-r-max-string": (lambda t: _oracle_config(t, n_r_max="x"), "oracle.n_r_max"),
    "ladder-string": (lambda t: _converge_config(t, ladder=["a"]), "ladder[0]"),
    "d1-parity": (lambda t: _solve_config(
        t, reduction={"d1": 1, "d2": 3, "L_x": 2, "box": {"x_max": 12.0, "y_max": 12.0}}),
        "'L_x': 2"),
    "system-and-reduced-problem": (lambda t: _solve_config(
        t, reduced_problem=str(t / "reduced.json")), "reduced_problem"),
    "converge-oracle-too-few-levels": (lambda t: _converge_config(
        t, solver={"levels": 6}, oracle={"n_r_max": 1, "j_max": 1}), "oracle.n_r_max"),
    "reduced-d1-fraction": (lambda t: _inline_reduced_config(t, d1=2.7), "d1"),
    "reduced-L-x-bool": (lambda t: _inline_reduced_config(t, L_x=True), "L_x"),
    "reduced-c-x-mismatch": (lambda t: _inline_reduced_config(t, c_x=-0.25), "c_x"),
    "ttw-missing-omega": (lambda t: _solve_config(t, system={"family": "ttw", "k": 2}),
                          "ttw needs an 'omega' key"),
    "custom2d-missing-expression": (lambda t: _solve_config(t, system={"family": "custom2d"}),
                                    "custom2d needs an 'expression' key"),
    "custom2d-expression-number": (lambda t: _solve_config(
        t, system={"family": "custom2d", "expression": 3}),
        "custom2d.expression must be a non-empty string"),
    "reduced-missing-d1": (lambda t: _inline_reduced_config(t, d1=None),
                           "reduced_problem needs a 'd1' key"),
    "reduced-box-missing-y-max": (lambda t: _inline_reduced_config(t, box={"x_max": 12.0}),
                                  "reduced_problem.box needs a 'y_max' key"),
    "reduced-box-list": (lambda t: _inline_reduced_config(t, box=[12, 12]),
                         "reduced_problem.box must be a JSON object"),
    "reduced-problem-number": (lambda t: _inline_reduced_config(t, problem=5),
                               "reduced_problem must be a JSON object"),
    # the reduced problem shares the bounds of the reduction block
    "reduced-L-x-150": (lambda t: _inline_reduced_config(t, L_x=150),
                        "error: reduced_problem.L_x must be <= 100"),
    "reduced-d1-1e6": (lambda t: _inline_reduced_config(t, d1=10**6),
                       "error: reduced_problem.d1 must be <= 100"),
    "reduced-depends-on-angles-1": (lambda t: _inline_reduced_config(
        t, potential={"family": "custom2d", "expression": "x**2 + y**2",
                      "depends_on_angles": 1}),
        "error: reduced_problem.potential: custom2d.depends_on_angles must be true or false"),
    # a reader's error under a key names the key once, ahead of its own path
    "ttw-k-negative": (lambda t: _solve_config(
        t, system={"family": "ttw", "omega": 1.0, "k": {"m": -1, "n": 1}}),
        "error: system: invalid ttw.k: rational k"),
    "threebody-ttw-k-negative": (lambda t: _map3_config(
        t, potential={"family": "ttw", "omega": 1.0, "k": {"m": -1, "n": 1}}),
        "error: threebody.potential: invalid ttw.k: rational k"),
    "depends-on-angles-1": (lambda t: _solve_config(
        t, system={"family": "custom2d", "expression": "x**2 + y**2",
                   "depends_on_angles": 1}),
        "error: system: custom2d.depends_on_angles must be true or false"),
}


def _inline_reduced_config(tmp_path, problem=None, **fields):
    """A solve config with an inline reduced problem: ``problem`` in place of
    the whole block if given, else the default block with ``fields`` set (a
    None field is left out)."""
    if problem is None:
        problem = {"potential": {"family": "caged_oscillator"}, "d1": 3, "d2": 3,
                   "L_x": 0, "L_y": 0, "c_x": 0.0, "c_y": 0.0,
                   "box": {"x_max": 12.0, "y_max": 12.0}, **fields}
        problem = {key: value for key, value in problem.items() if value is not None}
    config = _solve_config(tmp_path, reduced_problem=problem)
    del config["system"], config["reduction"]
    return config


def test_inline_reduced_problem_solves(tmp_path):
    cfg = _write_config(tmp_path, "solve.json", _inline_reduced_config(tmp_path, L_x=1,
                                                                       c_x=2.0))
    assert main([cfg]) == 0
    doc = json.loads((tmp_path / "out" / "caged.json").read_text())
    assert doc["problem"]["L_x"] == 1 and doc["problem"]["c_x"] == 2.0


@pytest.mark.parametrize("case", sorted(_PROBES))
def test_probe_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, case):
    make, key = _PROBES[case]
    grids = []
    monkeypatch.setattr(cli, "make_grid", lambda *args, **kwargs: grids.append(args))
    cfg = _write_config(tmp_path, "bad.json", make(tmp_path))
    assert main([cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert key in err and err.count("invalid") <= 1
    assert grids == []


def test_converge_with_centrifugal_term_has_no_error_column(tmp_path):
    # the oracle solves the bare potential, so with L_x = 1 (c_x = 2) its
    # levels are not the reduced problem's and no error column may be written
    config = _converge_config(tmp_path, reduction={
        "d1": 3, "d2": 3, "L_x": 1, "box": {"x_max": 12.0, "y_max": 12.0}})
    cfg = _write_config(tmp_path, "conv.json", config)
    assert main([cfg]) == 0
    csv = [l for l in (tmp_path / "conv.csv").read_text().splitlines()
           if not l.startswith("#")]
    assert csv[0] == "h,level,energy"


def test_converge_oracle_accuracy_failure_exits_3(tmp_path, capsys):
    config = _converge_config(tmp_path, oracle={"n_r_max": 3, "j_max": 3,
                                                "target": 1e-15})
    cfg = _write_config(tmp_path, "conv.json", config)
    assert main([cfg]) == 3
    assert capsys.readouterr().err.startswith("error: requested relative accuracy")


def test_converge_with_an_oracle_box_below_the_levels_exits_2(tmp_path, capsys):
    # the oracle is asked for the lowest solver.levels of its box, and a box
    # of 2 x 2 labels holds fewer than 6
    config = _converge_config(
        tmp_path, system={"family": "ttw", "omega": 1.0, "k": 2, "alpha": 0.2, "beta": 0.2},
        reduction={"d1": 3, "d2": 3}, solver={"levels": 6, "tol": 1e-6},
        oracle={"n_r_max": 1, "j_max": 1})
    assert main([_write_config(tmp_path, "conv.json", config)]) == 2
    err = capsys.readouterr().err
    assert "oracle.n_r_max = 1" in err and "oracle.j_max = 1" in err
    assert "solver.levels = 6" in err and "Traceback" not in err


def test_converge_honours_oracle_cutoff(tmp_path):
    def errors(oracle, name):
        config = _converge_config(tmp_path, oracle=oracle,
                                  output={"path": str(tmp_path / name)})
        assert main([_write_config(tmp_path, f"{name}.json", config)]) == 0
        rows = [l.split(",") for l in (tmp_path / f"{name}.csv").read_text().splitlines()
                if l[:1].isdigit()]
        return [float(r[3]) for r in rows]

    default = errors({"n_r_max": 3, "j_max": 3}, "default")
    # a 2.5 cutoff walls in the oscillator's ground state and lifts it visibly
    walled = errors({"n_r_max": 3, "j_max": 3, "cutoff": 2.5}, "walled")
    assert min(abs(a - b) for a, b in zip(default, walled)) > 1e-3


def test_converge_after_a_rung_that_stopped_short_exits_3(tmp_path, capsys):
    # a budget of 20 solves stops the 40x40 rung after 1 level and the 80x80
    # rung after 3; the levels the rung before lacks get no observed order
    config = _converge_config(
        tmp_path, system={"family": "caged_oscillator", "a": 1.0, "b": 1.7, "omega": 1.0,
                          "A": 0.1, "B": 0.2},
        ladder=[40, 80], solver={"levels": 6, "max_iter": 20},
        oracle={"n_r_max": 4, "j_max": 4})
    assert main([_write_config(tmp_path, "conv.json", config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the eigensolve did not converge") and "Traceback" not in err
    rows = [l.split(",") for l in (tmp_path / "conv.csv").read_text().splitlines()
            if l[:1].isdigit()]
    first = [r for r in rows if r[0] == rows[0][0]]
    second = rows[len(first):]
    assert 0 < len(first) < len(second)
    assert all(math.isnan(float(r[4])) for r in first + second[len(first):])


def test_converge_with_more_levels_than_an_early_rung_holds_exits_2(tmp_path, capsys):
    # 65 levels on the 8x8 rung are refused by the key that asks for them
    config = _converge_config(tmp_path, ladder=[8, 40], solver={"levels": 65, "tol": 1e-6},
                              oracle={"n_r_max": 20, "j_max": 20})
    assert main([_write_config(tmp_path, "conv.json", config)]) == 2
    err = capsys.readouterr().err
    assert "solver.levels asks for 65 levels" in err and "8 x 8 grid of ladder[0]" in err


def test_converge_checks_every_rung_before_solving_any(tmp_path, capsys, monkeypatch):
    # the 8x8 rung comes last, and the 40x40 rung before it is never solved
    solves = []
    monkeypatch.setattr(cli, "lowest_eigs", lambda *args, **kwargs: solves.append(args))
    config = _converge_config(tmp_path, ladder=[40, 8], solver={"levels": 65, "tol": 1e-6},
                              oracle={"n_r_max": 20, "j_max": 20})
    assert main([_write_config(tmp_path, "conv.json", config)]) == 2
    err = capsys.readouterr().err
    assert "solver.levels asks for 65 levels" in err and "8 x 8 grid of ladder[1]" in err
    assert solves == []


# oracle inputs whose fd grid cannot be sized: each is refused before any
# grid of it is allocated
_UNSIZABLE_ORACLES = {
    "cutoff-1e18": ({"family": "ttw", "omega": 1.0, "k": 2, "alpha": 0.1, "beta": 0.1},
                    {"cutoff": 1e18}, 3, "finest Richardson grid would have 9.6e+19 points"),
    "caged-a-1e-300": ({"family": "caged_oscillator", "a": 1e-300}, {}, 3,
                       "finest Richardson grid would have"),
    "ttw-omega-1e-300": ({"family": "ttw", "omega": 1e-300, "k": 2, "alpha": 0.1,
                          "beta": 0.1}, {}, 3, "finest Richardson grid would have"),
    "ttw-omega-1e300": ({"family": "ttw", "omega": 1e300, "k": 2, "alpha": 0.1,
                         "beta": 0.1}, {}, 2, "overflows when squared"),
}


@pytest.mark.parametrize("case", sorted(_UNSIZABLE_ORACLES))
def test_unsizable_oracle_grid_is_refused(tmp_path, capsys, case):
    system, oracle, code, message = _UNSIZABLE_ORACLES[case]
    config = {**_oracle_config(tmp_path, **oracle), "system": system}
    assert main([_write_config(tmp_path, "oracle.json", config)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


# magnitudes no grid, oracle or double can hold: each exits 2 (refused
# before anything is allocated) or 3, with an error line naming the key or
# the node, the backend and the problem
_CAGED = {"family": "caged_oscillator", "a": 1.0, "b": 1.0, "omega": 1.0, "A": 0.0, "B": 0.0}
_BOX12 = {"x_max": 12.0, "y_max": 12.0}
_HUGE_INPUTS = {
    "solve-ttw-omega-1e300": (lambda t: _solve_config(
        t, system={"family": "ttw", "omega": 1e300, "k": 2, "alpha": 0.1, "beta": 0.1}),
        2, "omega = 1e+300 overflows when squared"),
    "solve-caged-omega-1e300": (lambda t: _solve_config(t, system={**_CAGED, "omega": 1e300}),
                                2, "omega = 1e+300 overflows when squared"),
    "map3-wolfes-omega-1e200": (lambda t: _map3_config(
        t, potential={"family": "wolfes", "omega": 1e200, "A": 1.0, "B": 2.0}),
        2, "omega = 1e+200 overflows when squared"),
    "map3-wolfes-omega-1.1e154": (lambda t: _map3_config(
        t, potential={"family": "wolfes", "omega": 1.1e154, "A": 1.0, "B": 2.0}),
        2, "Wolfes omega = 1.1e+154 maps to omega' = sqrt(3/2) omega = 1.347"),
    "scan-k-1e300": (lambda t: _scan_config(t, k_list=[1, 1e300]), 2,
                     "scan.k_list[1]: k = 1e+300 overflows when squared"),
    "converge-caged-a-1e300": (lambda t: _converge_config(t, system={**_CAGED, "a": 1e300}),
                               3, "fd backend, radial oscillator problem (coupling=1e+150"),
    "converge-caged-A-1e300": (lambda t: _converge_config(t, system={**_CAGED, "A": 1e300}),
                               3, "fd backend: the 1.69706e+76-point operator"),
    "solve-levels-1e300": (lambda t: _solve_config(t, solver=_solver(levels=1e300)), 2,
                           "solver.levels asks for 1e+300 levels"),
    "converge-levels-1e300": (lambda t: _converge_config(t, solver=_solver(levels=1e300)), 2,
                              "solver.levels asks for 1e+300 levels, more than the 400 nodes"),
    "solve-n1-1e12": (lambda t: _solve_config(t, discretization={"n1": 10**12, "n2": 20}),
                      2, "discretization.n1 x n2"),
    "solve-n1-1e300": (lambda t: _solve_config(t, discretization={"n1": 1e300, "n2": 20}),
                       2, "discretization.n1 x n2 asks for a 1e+300 x 20 grid"),
    "converge-rung-1e12": (lambda t: _converge_config(t, ladder=[20, 10**12]), 2, "ladder[1]"),
    "converge-rung-1e300": (lambda t: _converge_config(t, ladder=[1e300]), 2, "ladder[0]"),
    "oracle-j-max-1e12": (lambda t: _oracle_config(t, j_max=10**12), 2, "oracle.j_max"),
    "oracle-j-max-1e300": (lambda t: _oracle_config(t, j_max=1e300), 2, "oracle.j_max"),
    "scan-n-r-max-1e300": (lambda t: _scan_config(t, n_r_max=1e300), 2, "scan.n_r_max"),
    "reduction-d1-1e300": (lambda t: _solve_config(
        t, reduction={"d1": 1e300, "d2": 3, "box": _BOX12}), 2, "reduction.d1"),
    "reduction-d2-1e300": (lambda t: _solve_config(
        t, reduction={"d1": 3, "d2": 1e300, "box": _BOX12}), 2, "reduction.d2"),
    "reduction-L-x-1e300": (lambda t: _solve_config(
        t, reduction={"d1": 3, "d2": 3, "L_x": 1e300, "box": _BOX12}), 2, "reduction.L_x"),
    "reduction-L-y-1e300": (lambda t: _solve_config(
        t, reduction={"d1": 3, "d2": 3, "L_y": 1e300, "box": _BOX12}), 2, "reduction.L_y"),
    "map3-d-1e300": (lambda t: _map3_config(t, d=1e300), 2, "threebody.d"),
    "reduced-L-x-1e300": (lambda t: _inline_reduced_config(t, L_x=1e300), 2,
                          "reduced_problem.L_x must be <= 100, got 1e+300"),
    "solve-caged-A-1e308": (lambda t: _solve_config(t, system={**_CAGED, "A": 1e308}),
                            2, "W = inf at the grid node (x, y) = (0.196721311475, "),
    "solve-caged-a-1e300": (lambda t: _solve_config(t, system={**_CAGED, "a": 1e300}),
                            2, "exceeds 1e+150 in magnitude"),
    "solve-box-x-max-1e300": (lambda t: _solve_config(
        t, reduction={"d1": 3, "d2": 3, "box": {"x_max": 1e300, "y_max": 12.0}}),
        2, "W = inf at the grid node (x, y) = ("),
    # values whose whole repr would flood the error line are quoted shortened
    "custom2d-expression-1e5-chars": (lambda t: _solve_config(
        t, system={"family": "custom2d", "expression": "x" * 100_000}),
        2, "cannot evaluate expression 'xxxxxxxxxxxx...xxxxxxxxxxxxx': NameError"),
    "oracle-k-1e400": (lambda t: {**_oracle_config(t), "system": {
        "family": "ttw", "omega": 1.0, "k": 10**400}}, 2, "k = Rational(m=10...00000000, n=1)"),
    "map3-mass-1e400": (lambda t: _map3_config(t, masses=[10**400, 2, 2]), 2,
                        "threebody.masses[0] must be a finite number, got 1000"),
    # 10^12 singular rays: refused before they are listed
    "solve-ttw-k-1e12": (lambda t: _solve_config(
        t, system={"family": "ttw", "omega": 1.0, "k": 10**12, "alpha": 0.1, "beta": 0.1}),
        2, "sin/cos(1e+12 theta) has more than 1000 singular rays"),
}


@pytest.mark.parametrize("case", sorted(_HUGE_INPUTS))
def test_huge_magnitude_keeps_the_exit_code_contract(tmp_path, capsys, case):
    make, code, message = _HUGE_INPUTS[case]
    assert main([_write_config(tmp_path, "huge.json", make(tmp_path))]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert all(len(line) <= 300 for line in err.splitlines() if line.startswith("error:"))


@pytest.mark.parametrize("A", [1e4, 1e8, 1e12])
def test_map3_wolfes_with_a_large_pair_coupling(tmp_path, A):
    config = _map3_config(tmp_path, potential={"family": "wolfes", "omega": 1.0, "A": A,
                                               "B": 2.0})
    assert main([_write_config(tmp_path, "map3.json", config)]) == 0
    image = json.loads((tmp_path / "reduced.json").read_text())["reduced_problem"]["potential"]
    assert image["alpha"] == pytest.approx(A, rel=1e-12)
    assert image["beta"] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_verify_identity_checks_leave_out_scipy_stats(tmp_path):
    import os
    import subprocess
    import sys

    import few2d

    config = {"command": "verify", "checks": ["wolfes-ttw3", "calogero-b0", "ttw1-caged"]}
    cfg = _write_config(tmp_path, "verify.json", config)
    code = ("import sys, few2d.cli; rc = few2d.cli.main([sys.argv[1]]); "
            "print(rc, 'scipy.stats' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(few2d.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code, cfg], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.splitlines()[-1] == "0 False"


def test_importing_cli_leaves_out_unused_scipy_subpackages():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import few2d

    code = ("import sys, few2d.cli; print(sorted(m for m in sys.modules if m in "
            "('scipy.stats', 'scipy.integrate', 'scipy.optimize')))")
    env = dict(os.environ, PYTHONPATH=str(Path(few2d.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "[]"


def test_solve_with_negative_k_exits_2_without_hanging(tmp_path):
    import os
    import subprocess
    import sys

    import few2d

    system = {"family": "ttw", "omega": 1.0, "k": -2.0, "alpha": 0.0, "beta": 0.0}
    cfg = _write_config(tmp_path, "solve.json", _solve_config(tmp_path, system=system))
    env = dict(os.environ, PYTHONPATH=str(Path(few2d.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "few2d.cli", cfg], capture_output=True,
                         text=True, env=env, timeout=60)
    assert run.returncode == 2
    assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr


def test_readme_config_table_matches_the_schema():
    # a bare key in a row belongs to the block named before it in that row;
    # with none before it, it is a top-level key such as `ladder`
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = readme.split("| block.key", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    documented, top_level = set(), set()
    for row in rows:
        block = None
        for token in re.findall(r"`([\w.]+)`", row.split("|")[1]):
            if "." in token:
                block, token = token.split(".")
            if block is None:
                top_level.add(token)
            else:
                documented.add(f"{block}.{token}")
    schema = {f"{name}.{key}" for command in SCHEMA.values()
              for name, (kind, _) in command.keys.items() if isinstance(kind, Block)
              for key in kind.keys}
    schema |= {f"reduced_problem.{key}" for key in REDUCED_PROBLEM.keys}
    assert documented == schema
    assert top_level <= {key for command in SCHEMA.values() for key in command.keys}


def test_readme_example_config_passes_the_schema():
    # the annotated example is a solve config; a key it still shows after
    # the schema dropped it is an error here
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    config = json.loads(re.sub(r"//[^\n]*", "", example))
    SCHEMA[config["command"]].parse(config, "")


def test_readme_command_table_matches_the_schema():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = readme.split("| command ", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    documented = {}
    for row in rows:
        name, keys = row.split("|")[1:3]
        documented[name.strip().strip("`")] = set(re.findall(r"`(\w+)`", keys))
    assert documented == {command: set(block.keys) - {"command"}
                          for command, block in SCHEMA.items()}
