"""Tests of the benchmark's own references, span arithmetic and generator.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json

import numpy as np
import pytest

from few2d.discretize import assemble, make_grid
from few2d.model import spec_from_dict
from few2d.oracles import separated_spectrum
from few2d.reduction import Box, reduce_to_2d
from perfbench import reference, run, tracing, workloads
from perfbench.tracing import self_times


@pytest.mark.parametrize("system, extent", [
    ({"family": "caged_oscillator", "a": 1.0, "b": 1.0, "omega": 1.1,
      "A": 0.2, "B": 0.2}, 12.0),
    ({"family": "caged_oscillator", "a": 1.0, "b": 1.7, "omega": 0.9,
      "A": 0.1, "B": 0.0}, 12.0),
    ({"family": "hydrogen_pair"}, 60.0),
])
def test_kronecker_reference_matches_dense_eigh(system, extent):
    n, m = 12, 20
    config = {"system": system,
              "reduction": {"d1": 3, "d2": 3, "box": {"x_max": extent, "y_max": extent}}}
    problem = reduce_to_2d(spec_from_dict(system), 3, 3, box=Box(extent, extent))
    op = assemble(problem, make_grid(problem.box, n, n, spec=problem.potential))
    dense = np.linalg.eigvalsh(op.matrix.toarray())[:m]
    got = reference.kronecker_reference(config, n, m)
    np.testing.assert_allclose(got, dense, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("system", [
    {"family": "caged_oscillator", "a": 1.0, "b": 1.6, "omega": 1.05, "A": 0.2, "B": 0.1},
    {"family": "hydrogen_pair"},
    {"family": "ttw", "omega": 0.95, "k": {"m": 3, "n": 2}, "alpha": 0.3, "beta": 0.2},
    {"family": "three_body_ttw", "omega": 1.1, "k": 3, "alpha": 0.4, "beta": 0.15},
    {"family": "pw", "a": 1.1, "k": 2, "mu": 0.25, "nu": 0.35},
])
def test_closed_forms_match_fd_oracle(system):
    oracle = separated_spectrum(spec_from_dict(system), n_r_max=1, j_max=1, method="fd")
    for energy, (n_r, j) in oracle.levels:
        want = reference.closed_form_level(system, n_r, j)
        assert energy == pytest.approx(want, rel=reference.ORACLE_RTOL)


def test_sector_reference_repeats_levels_per_sector():
    system = {"family": "ttw", "omega": 1.0, "k": 2, "alpha": 0.3, "beta": 0.4}
    levels, half_gap = reference.sector_reference(system, 6)
    ground = reference.closed_form_level(system, 0, 0)
    assert levels[:2] == pytest.approx([ground, ground])
    assert levels[2] == pytest.approx(ground + 4.0)   # n_r = 1, spacing 4 omega
    assert half_gap[0] == pytest.approx(2.0)


def test_wolfes_image_closed_form():
    from few2d.reduction import wolfes_to_ttw

    image = wolfes_to_ttw(0.9, 1.2, 2.4)
    want = reference.ttw3_from_wolfes({"omega": 0.9, "A": 1.2, "B": 2.4})
    assert (image.omega, image.alpha, image.beta) == pytest.approx(
        (want["omega"], want["alpha"], want["beta"]), rel=1e-9)


def test_self_time_subtracts_union_of_children():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and a
    # grandchild [2, 3] under the first child
    spans = [
        ["cli.main", 0.0, 10.0, -1, "a", None],
        ["oracles.separated_spectrum", 1.0, 4.0, 0, "a", None],
        ["oracles.radial_fd", 2.0, 3.0, 1, "a", None],
        ["model.eval_potential", 3.0, 6.0, 0, "a", None],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 3.0])
    layers = tracing.layer_metrics(spans)
    assert layers["cli.self_s"] == pytest.approx(5.0)
    assert layers["oracles.self_s"] == pytest.approx(3.0)
    assert layers["model.eval_potential.calls"] == 1


def test_tracer_wraps_every_namespace_and_restores():
    import few2d.cli
    import few2d.oracles
    import few2d.superintegrability

    original = few2d.oracles.radial_spectrum
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert few2d.oracles.radial_spectrum is not original
        assert few2d.cli.lowest_eigs.__wrapped__ is few2d.eigensolve.lowest_eigs.__wrapped__
        # the scan's own grouping of oracle levels is not eigensolver work
        assert few2d.cli.detect_degeneracies is not few2d.superintegrability.detect_degeneracies
        assert not hasattr(few2d.superintegrability.detect_degeneracies, "__wrapped__")
        separated_spectrum(spec_from_dict({"family": "hydrogen_pair"}), 0, 0)
    finally:
        tracer.uninstall()
    assert few2d.oracles.radial_spectrum is original
    assert [s[0] for s in tracer.spans] == ["oracles.radial_fd"]
    assert set(s[0] for s in tracer.spans) <= set(tracing.SPAN_NAMES)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(workload):
    first = [workloads.config_bytes(j) for j in workloads.make_jobs(workload, 7)]
    again = [workloads.config_bytes(j) for j in workloads.make_jobs(workload, 7)]
    assert first == again


def test_seed_changes_parameters():
    a = workloads.make_jobs("oracle-certify", 1)
    b = workloads.make_jobs("oracle-certify", 2)
    assert [workloads.config_bytes(j) for j in a] != [workloads.config_bytes(j) for j in b]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} < set(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert isinstance(spec["run_seconds"], int)
