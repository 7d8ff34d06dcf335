"""Every field of every shipped config, mutated: the CLI keeps its exit-code contract.

Each example sweeps all fields of one config in ``configs/``: every leaf
gets a wrong type, a bool and is removed, every numeric leaf also an
out-of-bounds number and a huge one (10^12 or 1e300); every
object gets an extra key, a wrong type and is removed; the top level gets an
extra key.  Hypothesis draws the replacement values, seeded.  Each mutated
run must exit 0, 2 or 3 (1 only for a ``verify`` whose check fails), print an
``error: `` line on exits 2 and 3, and raise nothing.  The configs are first
cut to small grids, ladders and level counts, so a sweep takes seconds;
``tests/test_configs.py`` runs them unshrunk.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from few2d.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_SHRINK = {
    "caged_solve": {"discretization": {"n1": 12, "n2": 12}, "solver": {"levels": 2}},
    "caged_converge": {"ladder": [10, 14], "solver": {"levels": 2},
                       "oracle": {"n_r_max": 1, "j_max": 1}},
    "ttw2_oracle": {"oracle": {"n_r_max": 1, "j_max": 1}},
    "ttw_scan": {"scan": {"levels_per_k": 3, "n_r_max": 1, "j_max": 1}},
    "wolfes_solve": {"discretization": {"n1": 12, "n2": 12}, "solver": {"levels": 2}},
}

_BY_TYPE = {     # JSON values by type; a "wrong type" draws from the other types
    "null": st.none(),
    "string": st.text(max_size=3),
    "number": st.one_of(st.integers(-3, 12), st.floats(-10.0, 10.0, allow_nan=False)),
    "list": st.lists(st.integers(0, 3), max_size=2),
    "object": st.dictionaries(st.sampled_from(["x", "m"]), st.integers(0, 3), max_size=1),
}
_DRAWN = {
    "bool": st.booleans(),
    "out of bounds": st.sampled_from([-1, 0, -0.5, -1e9]),
    "huge": st.sampled_from([10**12, 1e300]),
    "extra key": st.sampled_from(["extra", "solvr", "formats", "check"]),
}


def _merge(base: dict, patch: dict) -> dict:
    for key, value in patch.items():
        if isinstance(value, dict):
            _merge(base[key], value)
        else:
            base[key] = value
    return base


def _shipped(name: str) -> dict:
    config = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    return _merge(config, _SHRINK.get(name, {}))


def _sites(node, path=()):
    """(path, kinds) of every node below and including ``node``."""
    if isinstance(node, dict):
        yield path, ("extra key",) + (("wrong type", "bool", "missing") if path else ())
        for key, value in node.items():
            yield from _sites(value, path + (key,))
    elif isinstance(node, list):
        yield path, ("wrong type", "bool", "missing")
        for idx, value in enumerate(node):
            yield from _sites(value, path + (idx,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, ("wrong type", "bool", "out of bounds", "huge", "missing")
    else:
        yield path, ("wrong type", "bool", "missing")


def _json_type(value) -> str:
    if isinstance(value, dict):
        return "object"
    if isinstance(value, list):
        return "list"
    return "string" if isinstance(value, str) else "number"


def _mutate(config: dict, path: tuple, kind: str, value) -> dict:
    config = copy.deepcopy(config)
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if kind == "extra key":
        node = parent[path[-1]] if path else config
        node[value] = 1
    elif kind == "missing":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return config


def _run(config: dict) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        err = io.StringIO()
        try:
            Path("run.json").write_text(json.dumps(config))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(["run.json"])
        finally:
            os.chdir(cwd)
    return rc, err.getvalue()


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
@settings(derandomize=True, max_examples=2, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_mutated_field_keeps_exit_code_contract(name, data):
    config = _shipped(name)
    assert _run(config)[0] == 0
    for path, kinds in _sites(config):
        original = config
        for key in path:
            original = original[key]
        for kind in kinds:
            if kind == "missing":
                value = None
            elif kind == "wrong type":
                value = data.draw(st.one_of(*(strategy for type_, strategy in _BY_TYPE.items()
                                              if type_ != _json_type(original))))
            else:
                value = data.draw(_DRAWN[kind])
            mutated = _mutate(config, path, kind, value)
            label = f"{name}: {kind} at {'.'.join(map(str, path)) or 'top level'} ({value!r})"
            try:
                rc, err = _run(mutated)
            except Exception as exc:   # the CLI must turn every failure into an exit code
                pytest.fail(f"{label}: raised {type(exc).__name__}: {exc}")
            assert "Traceback" not in err, label
            assert rc in (0, 2, 3) or (rc == 1 and mutated.get("command") == "verify"), \
                f"{label}: exit {rc}"
            if rc in (2, 3):
                assert "error: " in err, label
