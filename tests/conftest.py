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
    """The nodes, in xi or sigma, of every panel whose node tuples the
    contour integrals build, in the order they are built."""
    built = []

    class Recording(dict):
        def __setitem__(self, xs, entry):
            built.append(xs)
            super().__setitem__(xs, entry)

    monkeypatch.setattr(contour, "_node_table", _once(lambda name, delta: Recording()))
    return built
