"""Every shipped sample config runs to completion through the CLI, and the
oracle configs certify every fd grid without a cold bisection."""

from pathlib import Path

import numpy as np
import pytest

from few2d.cli import main

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_shipped_config_exits_0(config, tmp_path):
    assert main([str(config), "--out", str(tmp_path / config.stem)]) == 0


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
