import pytest

import gr32485.contour as contour
from gr32485.quadrature import _once
from gr32485.representations import REPRESENTATIONS, eval_representation


@pytest.fixture(scope="session")
def rep_results():
    """Every representation evaluated once at default configuration."""
    return {rep.id: eval_representation(rep.id) for rep in REPRESENTATIONS}


@pytest.fixture(scope="session")
def rep_values(rep_results):
    return {rid: res.value for rid, res in rep_results.items()}


@pytest.fixture
def built_panels(monkeypatch):
    """(key, node count) of every entry the contour integrals write to a
    node table, in the order they are written: a panel's centre, in xi or
    sigma, and the (z, q) node pairs its entry holds, guarded ray nodes
    included."""
    built = []

    class Recording(dict):
        def __setitem__(self, key, nodes):
            built.append((key, len(nodes)))
            super().__setitem__(key, nodes)

    monkeypatch.setattr(contour, "_node_table", _once(lambda name, delta: Recording()))
    return built
