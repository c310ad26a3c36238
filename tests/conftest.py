import pytest

import gr32485.contour as contour
from gr32485.representations import eval_representation, representation_ids


@pytest.fixture(scope="session")
def rep_results():
    """Every representation evaluated once at default configuration."""
    return {rid: eval_representation(rid) for rid in representation_ids()}


@pytest.fixture(scope="session")
def rep_values(rep_results):
    return {rid: res.value for rid, res in rep_results.items()}


@pytest.fixture
def built_panels(monkeypatch):
    """The (a, b) of every panel whose nodes the contour integrals build."""
    built = []
    nodes = contour._nodes

    def recording(a, b):
        built.append((a, b))
        return nodes(a, b)

    monkeypatch.setattr(contour, "_nodes", recording)
    return built
