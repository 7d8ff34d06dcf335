"""Every shipped sample config runs to completion through the CLI."""

from pathlib import Path

import pytest

from few2d.cli import main

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_shipped_config_exits_0(config, tmp_path):
    assert main([str(config), "--out", str(tmp_path / config.stem)]) == 0
