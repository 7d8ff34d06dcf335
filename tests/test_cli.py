"""Command-line frontend: configs, exit codes, artifacts, reproducibility."""

import json
import math

import pytest

from few2d.cli import main


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


def test_levels_exceeding_grid_dimension_exit_2(tmp_path):
    config = _solve_config(tmp_path)
    config["discretization"] = {"n1": 10, "n2": 10}
    config["solver"] = {"levels": 101}
    cfg = _write_config(tmp_path, "solve.json", config)
    assert main([cfg]) == 2


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


def test_unmatched_inertia_count_exits_3(tmp_path, monkeypatch):
    import few2d.eigensolve as eigensolve

    count = eigensolve._negative_pivots
    monkeypatch.setattr(eigensolve, "_negative_pivots", lambda lu: count(lu) + 1)
    cfg = _write_config(tmp_path, "solve.json", _solve_config(tmp_path))
    assert main([cfg]) == 3
    doc = json.loads((tmp_path / "out" / "caged.json").read_text())
    assert doc["result"]["converged"] is False
    assert len(doc["result"]["eigenvalues"]) == 4


def test_unmatched_inertia_count_on_the_slice_path_exits_3(tmp_path, monkeypatch):
    # 64x64 coarsens to 32x32: the slice at the estimated gap meets the
    # miscount first, then the Gershgorin fallback meets it again
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
    assert dims[0] == 32 * 32 and dims[1] == 64 * 64   # coarse count, then the slice
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
        t, discretization={"n1": 20, "n2": 20, "offset_rule": "bogus"}),
        "discretization.offset_rule"),
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
}


def _inline_reduced_config(tmp_path, **fields):
    problem = {"potential": {"family": "caged_oscillator"}, "d1": 3, "d2": 3,
               "L_x": 0, "L_y": 0, "c_x": 0.0, "c_y": 0.0,
               "box": {"x_max": 12.0, "y_max": 12.0}, **fields}
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
def test_probe_exits_2_naming_the_key(tmp_path, capsys, case):
    make, key = _PROBES[case]
    cfg = _write_config(tmp_path, "bad.json", make(tmp_path))
    assert main([cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert key in err


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
