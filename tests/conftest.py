"""Shared fixtures: the reference wedge configuration used across tests,
and a guard that a run does not use the shooting search."""

import math
import sys

import pytest

from wedge_cot.geometry import IonPosition, WedgeGeometry
from wedge_cot.spectrum import ReflectionModel


@pytest.fixture(scope="session")
def wedge5():
    return WedgeGeometry.from_n(5)


@pytest.fixture(scope="session")
def ion_ref():
    # rho = 200 bohr, beta = pi/15: the configuration of the reference orbit
    # catalog and of every figure-style dataset.
    return IonPosition(200.0, math.pi / 15)


@pytest.fixture(scope="session")
def hard():
    return ReflectionModel.hard()


@pytest.fixture
def no_shooting(monkeypatch):
    """find_numeric and trace, wherever a loaded wedge_cot module binds
    them, patched to raise: the run under test must not shoot."""
    import wedge_cot.cli  # noqa: F401  (bind every name before patching)
    import wedge_cot.sweeps  # noqa: F401

    def refuse(*args, **kwargs):
        raise AssertionError("the numeric orbit source ran the shooting search")

    for name in ("find_numeric", "trace"):
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("wedge_cot") and hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
