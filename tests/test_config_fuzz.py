"""Property tests: a command on a sample config with one leaf mutated or
deleted ends with exit code 0, 2, 3 or 4, never with an exception or a
numpy RuntimeWarning."""

import copy
import json
import pathlib
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cqmcorr.cli import main  # noqa: E402

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
BASE = json.loads((CONFIGS / "rabi_70deg_analytic.json").read_text())

DELETE = "<delete>"
WRONG_TYPE = "<wrong type>"
MUTATIONS = [WRONG_TYPE, None, 0, -1, 1e308, -1e308, 1e-300, [], {}, DELETE]


def tiny(name):
    """A sample Monte Carlo config cut to 40 trajectories in blocks of 2."""
    cfg = json.loads((CONFIGS / name).read_text())
    cfg["ensemble"]["n_traj"] = 40
    cfg.setdefault("correlator", {})["block_size"] = 2
    return cfg


MC = tiny("rabi_70deg_mc.json")
MC_BASES = {"correlate": MC, "simulate": MC, "calibrate": tiny("calibrate_0deg.json")}


def leaf_paths(node, path=()):
    """Paths to every scalar in a JSON tree, list elements included."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


LEAVES = list(leaf_paths(BASE))
MC_CASES = [(command, path) for command, base in MC_BASES.items() for path in leaf_paths(base)]


def exit_code(command, cfg, path, mutation):
    """Exit code of ``command`` on ``cfg`` with the leaf at ``path`` mutated."""
    cfg = copy.deepcopy(cfg)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    leaf = path[-1]
    if mutation == DELETE:
        del parent[leaf]
    elif mutation == WRONG_TYPE:
        parent[leaf] = 1.5 if isinstance(parent[leaf], str) else "x"
    else:
        parent[leaf] = copy.deepcopy(mutation)
    with tempfile.TemporaryDirectory() as tmp:
        config = pathlib.Path(tmp) / "cfg.json"
        config.write_text(json.dumps(cfg))
        return main([command, "--config", str(config), "--out", str(pathlib.Path(tmp) / "out")])


@settings(derandomize=True, max_examples=500, deadline=None)
@given(mode=st.sampled_from(["analytic", "gcr"]), path=st.sampled_from(LEAVES),
       mutation=st.sampled_from(MUTATIONS))
def test_mutated_config_exits_with_a_code(mode, path, mutation):
    cfg = copy.deepcopy(BASE)
    cfg["correlator"]["mode"] = mode
    assert exit_code("correlate", cfg, path, mutation) in (0, 2, 3, 4)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(case=st.sampled_from(MC_CASES), mutation=st.sampled_from(MUTATIONS))
def test_mutated_monte_carlo_config_exits_with_a_code(case, mutation):
    """``correlate``, ``simulate`` and ``calibrate`` on tiny ensembles."""
    command, path = case
    assert exit_code(command, MC_BASES[command], path, mutation) in (0, 2, 3, 4)
