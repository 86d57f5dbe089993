"""Closed-orbit photodetachment cross sections for a negative ion inside a
wedge-shaped reflecting cavity.

The core modules (geometry, orbits, constants, errors, records) import eagerly;
spectrum, sweeps and cli load lazily on first attribute access.  All of them
run on the standard library (numpy only inside ``verify`` and
``Dataset.column``); oracle, which needs numpy, loads lazily too.  Records
are ``collections.namedtuple`` subclasses on the ``records.Record`` base
that check their fields in ``__new__``, copies included; ``logging`` and
``json`` load only on the paths that use them, so a cold command imports
only what it runs.
"""

from __future__ import annotations

import importlib

from . import constants, errors, geometry, orbits
from .constants import DEFAULT_CONSTANTS, VERSION, PhysicalConstants
from .errors import NumericError, ValidationError, WedgeCotError
from .geometry import IonPosition, WedgeGeometry

__version__ = VERSION

_LAZY_MODULES = frozenset({"spectrum", "oracle", "sweeps", "cli"})

__all__ = [
    "DEFAULT_CONSTANTS",
    "IonPosition",
    "NumericError",
    "PhysicalConstants",
    "ValidationError",
    "WedgeCotError",
    "WedgeGeometry",
    "cli",
    "constants",
    "errors",
    "geometry",
    "oracle",
    "orbits",
    "spectrum",
    "sweeps",
]


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _LAZY_MODULES)
