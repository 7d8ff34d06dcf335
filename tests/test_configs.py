"""Every shipped sample config runs to completion through the CLI, and the
oracle configs certify every fd grid without a cold bisection."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from few2d.cli import main

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_shipped_config_exits_0(config, tmp_path):
    assert main([str(config), "--out", str(tmp_path / config.stem)]) == 0


def test_wolfes_map3_config_maps_to_the_closed_form_image(tmp_path):
    config = next(path for path in CONFIGS if path.stem == "wolfes_map3")
    wolfes = json.loads(config.read_text())["threebody"]["potential"]
    assert main([str(config), "--out", str(tmp_path / "map3")]) == 0
    image = json.loads((tmp_path / "map3.json").read_text())["reduced_problem"]["potential"]
    assert image == {"family": "three_body_ttw", "omega": math.sqrt(1.5) * wolfes["omega"],
                     "k": {"m": 3, "n": 1}, "alpha": wolfes["A"], "beta": wolfes["B"] / 3}


def test_wolfes_solve_config_holds_the_reduced_problem_map3_writes(tmp_path):
    by_stem = {path.stem: path for path in CONFIGS}
    assert main([str(by_stem["wolfes_map3"]), "--out", str(tmp_path / "map3")]) == 0
    image = json.loads((tmp_path / "map3.json").read_text())["reduced_problem"]
    assert json.loads(by_stem["wolfes_solve"].read_text())["reduced_problem"] == image


@pytest.mark.parametrize("config", [path for path in CONFIGS
                                    if path.stem in ("ttw_scan", "ttw2_oracle")],
                         ids=lambda path: path.stem)
def test_oracle_configs_certify_every_fd_grid_without_a_cold_bisection(config, tmp_path,
                                                                       fd_work):
    # every Richardson grid is refined and certified; only the quarter grids
    # that predict the first grid of each ladder are bisected, loosely
    assert main([str(config), "--out", str(tmp_path / config.stem)]) == 0
    assert fd_work.refined and all(certified for _, certified in fd_work.refined)
    assert len(fd_work.refined) >= 3 * len(fd_work.bisected) > 0
    grids = {size for size, _ in fd_work.refined}
    for size, tol in fd_work.bisected:
        assert tol > np.finfo(float).tiny and any(n // 4 == size for n in grids)
