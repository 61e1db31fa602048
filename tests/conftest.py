import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from orbicover import pipeline


@pytest.fixture(scope="session")
def chain():
    """The full construction tower, built once per session."""
    return pipeline.build_tower()


@pytest.fixture(scope="session")
def covering_maps(chain):
    """(name, map) for every covering map the tower constructs."""
    out = [("cover1", chain.map1), ("cover2", chain.map2)]
    out += [(f"family1[{k}]", fm) for k, (_p, _c, fm) in enumerate(chain.family1)]
    out += [(f"family2[{k}]", fm) for k, (_p, _c, fm) in enumerate(chain.family2)]
    out += [("y_hat", chain.y_hat_map), ("z_hat", chain.z_hat_map)]
    return out


@pytest.fixture(scope="session")
def demo_report():
    return pipeline.run_demo()
