"""Physical constants for H- photodetachment, in Hartree atomic units."""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ValidationError
from .records import Record

#: Package version, stamped into dataset provenance headers.
VERSION = "0.1.0"

#: CODATA value of 1 hartree expressed in electron volts.
EV_PER_HARTREE = 27.211386245988


class PhysicalConstants(Record, namedtuple(
    "PhysicalConstants", "b_norm binding_energy_ev c_light ev_per_hartree"
)):
    """Constants entering the cross-section formulas.

    Attributes:
        b_norm: normalization constant of the loosely bound initial state
            of H-, dimensionless.
        binding_energy_ev: electron affinity of hydrogen in eV.
        c_light: speed of light in atomic units.  The default is the
            CODATA-rounded 137.036; pass 137.0 to reproduce calculations
            that used the coarser value (an overall rescaling of all
            cross sections).
        ev_per_hartree: energy conversion factor.

    Every value must be positive and finite.
    """

    __slots__ = ()

    def __new__(
        cls,
        b_norm: float = 0.31522,
        binding_energy_ev: float = 0.754,
        c_light: float = 137.036,
        ev_per_hartree: float = EV_PER_HARTREE,
    ):
        values = (b_norm, binding_energy_ev, c_light, ev_per_hartree)
        for name, value in zip(cls._fields, values):
            if not (0.0 < value < math.inf):
                raise ValidationError(
                    f"{name} must be positive and finite, got {value!r}"
                )
        return tuple.__new__(cls, values)

    @property
    def binding_energy(self) -> float:
        """Binding energy E_b in hartree."""
        return self.binding_energy_ev / self.ev_per_hartree

    @property
    def k_b(self) -> float:
        """Momentum scale of the bound state, k_b = sqrt(2 E_b), in a.u."""
        return math.sqrt(2.0 * self.binding_energy)


DEFAULT_CONSTANTS = PhysicalConstants()
