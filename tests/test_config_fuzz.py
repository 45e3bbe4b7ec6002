"""Property test: ``correlate`` on a sample config with one leaf mutated or
deleted ends with exit code 0, 2, 3 or 4, never with an exception."""

import copy
import json
import pathlib
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cqmcorr.cli import main  # noqa: E402

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "rabi_70deg_analytic.json"
BASE = json.loads(CONFIG.read_text())

DELETE = "<delete>"
WRONG_TYPE = "<wrong type>"
MUTATIONS = [WRONG_TYPE, None, 0, -1, 1e308, -1e308, [], {}, DELETE]


def leaf_paths(node, path=()):
    """Paths to every scalar in a JSON tree, list elements included."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


LEAVES = list(leaf_paths(BASE))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(mode=st.sampled_from(["analytic", "gcr"]), path=st.sampled_from(LEAVES),
       mutation=st.sampled_from(MUTATIONS))
def test_mutated_config_exits_with_a_code(mode, path, mutation):
    cfg = copy.deepcopy(BASE)
    cfg["correlator"]["mode"] = mode
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
        code = main(["correlate", "--config", str(config), "--out", str(pathlib.Path(tmp) / "k.csv")])
    assert code in (0, 2, 3, 4)
